"""Shared exception types."""


class CapExceeded(RuntimeError):
    """A routine refused to run because a resource cap was hit.

    Caps guard the combinatorial explosions (n! tables, (n!)^3 triple loops,
    t^m*m! wreath tables) and the memory of the divisor-sum bound scan.  The
    message always names the cap so callers can raise it deliberately.
    """

    def __init__(self, what: str, cap_name: str, cap: int):
        super().__init__(f"{what} exceeds {cap_name}={cap}")
        self.cap_name = cap_name
        self.cap = cap
