"""Three independent routes to the same coefficient sequence, cross-checked.

Route A (product):  expand prod((1 - u^j)^(-sigma(j)) for j >= 1).
Route B (classes):  coefficient n = sum over cycle types of n of the product
                    of wreath class counts, one factor per cycle length.
Route C (brute):    count pairwise-commuting ordered triples in S_n directly
                    and divide by n! (a count that n! does not divide is
                    a disagreement).

A disagreement is a reported outcome, never an exception: the verifier's
job is to report, including on deliberately corrupted inputs.
"""

import math
from operator import mul
from typing import Callable, NamedTuple

from . import numtheory, series
from .permgroup import require_cent_degree, triples_centralizer
# k_wreath is unused here but stays bound: perfbench/tracer.py pins it.
from .wreath import k_wreath, k_wreath_series  # noqa: F401


def _require_series_order(order: int) -> None:
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    series.require_order_within_cap(order, f"series order {order}")


def coeffs_product(order: int, *, sigma_fn: Callable[[int], int] = numtheory.sigma) -> tuple[int, ...]:
    """Route A: the sigma Euler product, truncated at `order`.

    Factors with j > order are 1 modulo u^(order+1), so the product over
    j = 1..order is already exact.  One list is multiplied in place by each
    factor (1 - u^j)^(-sigma_fn(j)), for j from `order` down to 1, with
    `series.imul_neg_binomial`.  Largest factor first, the list is zero at
    1..j when factor j comes, and the kernel skips that run.  `sigma_fn` is
    injectable so a corrupted table can drive negative-control tests.
    """
    _require_series_order(order)
    out = [1] + [0] * order
    for j in range(order, 0, -1):
        series.imul_neg_binomial(out, sigma_fn(j), j)
    return tuple(out)


def coeffs_classes(order: int) -> tuple[int, ...]:
    """Route B (canonical form): per-coefficient sum over cycle types.

    Coefficient n is sum over partitions of n of prod(k_wreath(t, m_t)).
    Adding m parts of size t multiplies by k_wreath(t, m), so the sum is
    the product over every t of row t, R_t(u^t), R_t(v) =
    sum(k_wreath(t, m) * v^m).  The coefficients k_wreath(t, m) are those
    of P^t, P = R_1 (the partition numbers), so all rows are built first:
    row t >= 2 is a fresh copy of P, truncated at order // t, multiplied in
    place by row t - 1.

    The product is taken as a tree: for t from the order down to 2, row t
    is multiplied into row t // q, q the smallest prime of t, by one
    `imul_substituted` with step q.  That is exact, since row t // q is
    read in v = u^(t // q), where R_t(u^t) is R_t(v^q).  Every row is
    folded before its parent and dropped as it is read, so each
    class-count row is read exactly once, and row 1 is then the product.
    """
    _require_series_order(order)
    row_1 = list(k_wreath_series(1, order))
    rows = {1: row_1}
    for t in range(2, order + 1):
        rows[t] = row_1[: order // t + 1]
        series.imul_substituted(rows[t], rows[t - 1], 1)
    for t in range(order, 1, -1):
        q = next((q for q in range(2, math.isqrt(t) + 1) if t % q == 0), t)
        series.imul_substituted(rows[t // q], rows.pop(t), q)
    return tuple(row_1)


def coeffs_brute(n_max: int) -> list[int | None]:
    """Route C: triple counts divided by n!, for n = 0..n_max.

    A count that n! does not divide has no integer quotient; its entry is
    None, which equals no coefficient, so the cross-check reports it as a
    disagreement at n.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    # Checked up front, so a refusal costs no degree's work.
    require_cent_degree(n_max)
    out = []
    for n in range(n_max + 1):
        quotient, remainder = divmod(triples_centralizer(n), math.factorial(n))
        out.append(None if remainder else quotient)
    return out


class CoefficientReport(NamedTuple):
    """Coefficientwise comparison of the three routes.

    `first_disagreement` is the first index where routes A and B differ,
    or where route C differs from them within `brute_max`; None if they
    agree everywhere."""

    order: int
    brute_max: int
    product: tuple[int, ...]
    classes: tuple[int, ...]
    brute: tuple[int | None, ...]
    first_disagreement: int | None

    @property
    def overall(self) -> bool:
        return self.first_disagreement is None


def verify_identity(
    order: int,
    brute_max: int,
    *,
    sigma_fn: Callable[[int], int] = numtheory.sigma,
) -> CoefficientReport:
    """Run all three routes and compare them index by index.

    Route C is only consulted up to `brute_max`; routes A and B must agree
    on the whole range 0..order.
    """
    if not order >= brute_max >= 0:
        raise ValueError(
            f"need order >= brute_max >= 0, got order={order}, brute_max={brute_max}"
        )
    _require_series_order(order)
    c = coeffs_brute(brute_max)
    a = coeffs_product(order, sigma_fn=sigma_fn)
    b = coeffs_classes(order)
    first_disagreement = next(
        (i for i in range(order + 1) if a[i] != b[i] or (i <= brute_max and a[i] != c[i])),
        None,
    )
    return CoefficientReport(
        order=order,
        brute_max=brute_max,
        product=a,
        classes=b,
        brute=tuple(c),
        first_disagreement=first_disagreement,
    )


class LogReport(NamedTuple):
    order: int
    first_mismatch: int | None

    @property
    def ok(self) -> bool:
        return self.first_mismatch is None


def check_log(a: tuple[int, ...]) -> LogReport:
    """Check the coefficients `a` of route A against the divisor formula
    for its formal log.

    The u^d coefficient of log(route A) must equal b_d / d with
    b_d = sum(a*sigma(a) for a | d), for d = 1..order.  The b_d come from
    the sieve `numtheory.divisor_weights`, which never calls the sigma that
    route A reads, so a corrupted sigma table shows here too.  Since route A
    has constant term 1, the log formula holds exactly when the
    log-derivative recurrence n*a_n = sum(b_k * a_(n-k) for k = 1..n) holds
    for n = 1..order, in integers; the first n where it fails is the first
    log mismatch.  Each sum pairs b[1..n] with a[n-1..0] by `map(mul, ...)`,
    so the inner loop runs in C.
    """
    order = len(a) - 1
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    b = numtheory.divisor_weights(order)
    for n in range(1, order + 1):
        if n * a[n] != sum(map(mul, b[1 : n + 1], a[n - 1 :: -1])):
            return LogReport(order=order, first_mismatch=n)
    return LogReport(order=order, first_mismatch=None)
