"""Divisor arithmetic: sigma, divisor weights, quartic bound.

Everything here is exact integer arithmetic.  The single value `sigma`,
route A's exponent, is found by trial division; there is no factorization
fast path on purpose.  The weights w(d) = sum(a*sigma(a) for a | d) come
only as a range (`divisor_weights`, read by `pipeline.check_log` and by
`bound_check`), sieved: one table holding, for each d, the power of d's
largest prime up to sqrt(d_max), found from the same table, and one
multiplicative pass that builds sigma at prime powers itself and
never calls `sigma`.
"""

from math import isqrt
from typing import NamedTuple

from .errors import CapExceeded

# Largest d_max that `bound_check` scans.  At the cap `bound-check` peaks
# at 75 MB and takes about 0.39 s, start-up included (medians of 11 runs;
# Python 3.11, 2 vCPUs, shared host), nearly all of it in the sieve: the
# block scan computes no d**4 in a block that cannot fail.  The lists and
# the time grow about linearly.
BOUND_CHECK_CAP = 10**6


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


def divisor_weights(d_max: int) -> list[int]:
    """[0] + [w(d) for d = 1..d_max], w(d) = sum(a*sigma(a) for a | d), by
    one multiplicative pass.  w(d) is d times the u^d coefficient of the
    formal log of route A, and the number of index-d subgroups of Z^3.

    The weight is multiplicative (a Dirichlet convolution of 1 with
    n*sigma(n)), so it is built from prime powers.  One table `part` holds,
    for each d, the largest power q of d's largest prime up to sqrt(d_max)
    that divides d: each p up to sqrt(d_max), smallest first, is a prime
    exactly when `part[p]` is still 0, since every smaller prime has
    written its multiples by then.  A prime writes its powers, smallest
    first, over their multiples, and sets w(q) = w(q/p) + q*sigma(q) with
    sigma(q) = p*sigma(q/p) + 1.  Then d with no entry is a prime above
    sqrt(d_max), w(d) = 1 + d*(d + 1), and any d other than a prime power
    takes w(d/q)*w(q), which holds for any prime power part q of d.
    """
    if d_max < 0:
        raise ValueError(f"divisor_weights requires d_max >= 0, got {d_max}")
    w = [0] * (d_max + 1)
    if d_max == 0:
        return w
    w[1] = 1
    part = [0] * (d_max + 1)
    for p in range(2, isqrt(d_max) + 1):
        if part[p]:
            continue
        q, s = p, 1
        while q <= d_max:
            part[q::q] = [q] * (d_max // q)
            s = p * s + 1
            w[q] = w[q // p] + q * s
            q *= p
    for d in range(2, d_max + 1):
        q = part[d]
        if not q:
            w[d] = 1 + d * (d + 1)
        elif q != d:
            w[d] = w[d // q] * w[q]
    return w


class BoundFailure(NamedTuple):
    d: int
    lhs: int  # sum(a*sigma(a) for a | d)
    rhs: int  # d**4, not above lhs


class BoundReport(NamedTuple):
    """Outcome of scanning `w(d) < d**4` over d = 1..d_max, w as in
    `divisor_weights`.

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
    """Check the strict bound sum(a*sigma(a) for a | d) < d^4 for d = 1..d_max.

    The scan runs over dyadic blocks [lo, 2*lo): one `max` over the block is
    compared with lo^4, and only a block whose maximum reaches lo^4 is
    scanned d by d.  That skip is exact: every d in a skipped block has
    w(d) <= max < lo^4 <= d^4.
    """
    if d_max < 1:
        raise ValueError(f"bound_check requires d_max >= 1, got {d_max}")
    if d_max > BOUND_CHECK_CAP:
        raise CapExceeded(f"bound scan to d = {d_max}", "bound-check cap", BOUND_CHECK_CAP)
    lhs = divisor_weights(d_max)
    failures = []
    lo = 2
    while lo <= d_max:
        hi = min(2 * lo, d_max + 1)
        if max(lhs[lo:hi]) >= lo**4:
            failures += (
                BoundFailure(d, lhs[d], d**4) for d in range(lo, hi) if lhs[d] >= d**4
            )
        lo = hi
    return BoundReport(d_max=d_max, equality_at_one=lhs[1] == 1, failures=tuple(failures))
