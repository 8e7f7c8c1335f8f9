"""Shared exception types."""


class CapExceeded(RuntimeError):
    """A routine refused to run because a resource limit was hit.

    Each limit is a measured constant, checked before any work: the
    series-order and bound-check caps, and one ceiling per brute-force
    layer (S_n tables, route C's centralizers, the naive (n!)^3 triple
    loop, t^m*m! wreath tables and their structure check).  The message
    names the limit and its value.
    """

    def __init__(self, what: str, cap_name: str, cap: int):
        super().__init__(f"{what} exceeds {cap_name}={cap}")
