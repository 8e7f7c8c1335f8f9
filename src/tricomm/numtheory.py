"""Divisor arithmetic: sigma, divisor lists, log-series coefficients, quartic bound.

Everything here is exact integer / rational arithmetic.  Single values
(`divisors`, `sigma`, `divisor_weight`) are found by trial division; there is
no factorization fast path on purpose.  Range scans (`divisor_weights`, and
`bound_check` on top of it) sieve instead: every a <= d_max is added to its
multiples, so a scan never divides.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, NamedTuple

from .errors import CapExceeded

# Largest d_max that `bound_check` scans.  At the cap the run peaks near
# 140 MB and takes about 8 s (Python 3.11, 2 vCPUs); the lists grow
# linearly and the time as d_max log d_max.
BOUND_CHECK_CAP = 10**6


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


def divisor_weights(d_max: int) -> list[int]:
    """[0] + [divisor_weight(d) for d = 1..d_max], by two sieves.

    The first pass adds a to sig[m] for every multiple m of a, leaving
    sig[a] = sigma(a); the second adds a*sig[a] to lhs[m] the same way.
    Both cost O(d_max log d_max) additions and no division.
    """
    if d_max < 0:
        raise ValueError(f"divisor_weights requires d_max >= 0, got {d_max}")
    sig = [0] * (d_max + 1)
    for a in range(1, d_max + 1):
        sig[a::a] = [s + a for s in sig[a::a]]
    lhs = [0] * (d_max + 1)
    for a in range(1, d_max + 1):
        w = a * sig[a]
        lhs[a::a] = [s + w for s in lhs[a::a]]
    return lhs


class BoundFailure(NamedTuple):
    d: int
    lhs: int  # sum(a*sigma(a) for a | d)
    rhs: int  # d**4, not above lhs


@dataclass(frozen=True)
class BoundReport:
    """Outcome of scanning `divisor_weight(d) < d**4` over d = 1..d_max.

    At d = 1 both sides equal 1, so the strict inequality fails there by
    equality; that case is reported in `equality_at_one`, not treated as a
    violation.  Only the violations at d >= 2 are kept.
    """

    d_max: int
    equality_at_one: bool
    failures: tuple[BoundFailure, ...]

    @property
    def all_strict_from_two(self) -> bool:
        return not self.failures


def bound_check(d_max: int) -> BoundReport:
    """Check the strict bound sum(a*sigma(a) for a | d) < d^4 for d = 1..d_max."""
    if d_max < 1:
        raise ValueError(f"bound_check requires d_max >= 1, got {d_max}")
    if d_max > BOUND_CHECK_CAP:
        raise CapExceeded(f"bound scan to d = {d_max}", "bound-check cap", BOUND_CHECK_CAP)
    lhs = divisor_weights(d_max)
    failures = tuple(
        BoundFailure(d, lhs[d], d**4) for d in range(2, d_max + 1) if lhs[d] >= d**4
    )
    return BoundReport(d_max=d_max, equality_at_one=lhs[1] == 1, failures=failures)
