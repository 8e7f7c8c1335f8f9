"""Divisor arithmetic: sigma, divisor lists, log-series coefficients, quartic bound.

Everything here is exact integer / rational arithmetic.  Inputs stay small
(<= ~10^5), so divisors are found by trial division; there is no factorization
fast path on purpose.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, NamedTuple


def divisors(n: int) -> list[int]:
    """All positive divisors of n, strictly ascending."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small = []
    large = []
    for i in range(1, isqrt(n) + 1):
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
    large.reverse()
    return small + large


def sigma(n: int) -> int:
    """Sum of all positive divisors of n (trial division, no list built)."""
    if n < 1:
        raise ValueError(f"sigma requires n >= 1, got {n}")
    total = 0
    r = isqrt(n)
    for i in range(1, r + 1):
        if n % i == 0:
            total += i + n // i
    if r * r == n:
        total -= r
    return total


def divisor_weight(d: int, sigma_fn: Callable[[int], int] = sigma) -> int:
    """sum(a * sigma(a) for a | d) -- the numerator of the log coefficient.

    `sigma_fn` stands in for `sigma`, so a caller holding a (possibly
    corrupted) sigma table gets the weight of that table.
    """
    if d < 1:
        raise ValueError(f"divisor_weight requires d >= 1, got {d}")
    return sum(a * sigma_fn(a) for a in divisors(d))


def log_coefficient(d: int) -> Fraction:
    """Coefficient of u^d in the formal log of the sigma Euler product.

    Equals sum(a*sigma(a) for a | d) / d, exact and in lowest terms.
    """
    return Fraction(divisor_weight(d), d)


class BoundEntry(NamedTuple):
    d: int
    lhs: int  # sum(a*sigma(a) for a | d)
    rhs: int  # d**4
    holds: bool  # strict inequality lhs < rhs


@dataclass(frozen=True)
class BoundReport:
    """Outcome of scanning `divisor_weight(d) < d**4` over d = 1..d_max.

    At d = 1 both sides equal 1, so the strict inequality fails there by
    equality; that case is reported, not treated as a violation.
    """

    d_max: int
    entries: tuple[BoundEntry, ...]

    @property
    def equality_at_one(self) -> bool:
        return self.entries[0].lhs == self.entries[0].rhs

    @property
    def failures(self) -> tuple[BoundEntry, ...]:
        """Entries with d >= 2 where the strict inequality does not hold."""
        return tuple(e for e in self.entries if e.d >= 2 and not e.holds)

    @property
    def all_strict_from_two(self) -> bool:
        return not self.failures


def bound_check(d_max: int) -> BoundReport:
    """Check the strict bound sum(a*sigma(a) for a | d) < d^4 for d = 1..d_max."""
    if d_max < 1:
        raise ValueError(f"bound_check requires d_max >= 1, got {d_max}")
    # One sigma pass, then a sieve accumulating a*sigma(a) onto every multiple.
    sig = [0] * (d_max + 1)
    for a in range(1, d_max + 1):
        sig[a] = sigma(a)
    lhs = [0] * (d_max + 1)
    for a in range(1, d_max + 1):
        w = a * sig[a]
        for m in range(a, d_max + 1, a):
            lhs[m] += w
    entries = tuple(
        BoundEntry(d, lhs[d], d**4, lhs[d] < d**4) for d in range(1, d_max + 1)
    )
    return BoundReport(d_max=d_max, entries=entries)
