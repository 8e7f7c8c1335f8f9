"""Divisor arithmetic: sigma, divisor lists, divisor weights, quartic bound.

Everything here is exact integer arithmetic.  Single values (`divisors`,
`sigma`, `divisor_weight`) are found by trial division; there is no
factorization fast path on purpose.  Range scans (`divisor_weights`, and
`bound_check` on top of it) sieve instead: a smallest-prime-factor table and
one multiplicative pass, so a scan never runs trial division.
"""

from dataclasses import dataclass
from math import isqrt
from typing import Callable, NamedTuple

from .errors import CapExceeded

# Largest d_max that `bound_check` scans.  At the cap `bound-check` peaks
# near 90 MB and takes about 0.9 s (Python 3.11, 2 vCPUs); the lists and
# the time grow about linearly.
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
    """sum(a * sigma(a) for a | d) -- d times the u^d coefficient of the
    formal log of the sigma Euler product.

    `sigma_fn` stands in for `sigma`, so a caller holding a (possibly
    corrupted) sigma table gets the weight of that table.
    """
    if d < 1:
        raise ValueError(f"divisor_weight requires d >= 1, got {d}")
    return sum(a * sigma_fn(a) for a in divisors(d))


def divisor_weights(d_max: int) -> list[int]:
    """[0] + [divisor_weight(d) for d = 1..d_max], by one multiplicative pass.

    The weight is multiplicative (a Dirichlet convolution of 1 with
    n*sigma(n)), so it is built from prime powers.  A smallest-prime-factor
    table comes from the primes up to sqrt(d_max); then for each d, with
    p = spf(d) and q the largest power of p dividing d, a prime power takes
    w(q) = w(q/p) + q*sigma(q), and any other d takes w(d/q)*w(q).
    """
    if d_max < 0:
        raise ValueError(f"divisor_weights requires d_max >= 0, got {d_max}")
    w = [0] * (d_max + 1)
    if d_max == 0:
        return w
    w[1] = 1
    root = isqrt(d_max)
    composite = bytearray(root + 1)
    primes = []
    for p in range(2, root + 1):
        if not composite[p]:
            primes.append(p)
            composite[p * p :: p] = b"\x01" * len(range(p * p, root + 1, p))
    # spf[d] == 0 means d is prime; the smallest prime is written last.
    spf = [0] * (d_max + 1)
    for p in reversed(primes):
        spf[p * p :: p] = [p] * len(range(p * p, d_max + 1, p))
    p_part = [0] * (d_max + 1)
    prime_power_sigma = {1: 1}
    for d in range(2, d_max + 1):
        p = spf[d] or d
        m = d // p
        q = p_part[m] * p if m % p == 0 else p
        p_part[d] = q
        if q == d:
            prime_power_sigma[d] = s = prime_power_sigma[m] + d
            w[d] = w[m] + d * s
        else:
            w[d] = w[d // q] * w[q]
    return w


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
