"""Three independent routes to the same coefficient sequence, cross-checked.

Route A (product):  expand prod((1 - u^j)^(-sigma(j)) for j >= 1).
Route B (classes):  coefficient n = sum over cycle types of n of the product
                    of wreath class counts, one factor per cycle length.
Route C (brute):    count pairwise-commuting ordered triples in S_n directly
                    and divide by n! (division must be exact).

A disagreement is a reported outcome, never an exception: the verifier's
job is to report, including on deliberately corrupted inputs.
"""

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

from . import numtheory, series
from .errors import CapExceeded
from .partitions import enumerate_partitions
from .permgroup import DEFAULT_CENT_CAP, triples_centralizer
from .wreath import k_wreath, k_wreath_series


def _require_series_order(order: int) -> None:
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    series.require_order_within_cap(order, f"series order {order}")


def coeffs_product(order: int, *, sigma_fn: Callable[[int], int] = numtheory.sigma) -> series.IntSeries:
    """Route A: the sigma Euler product, truncated at `order`.

    Factors with j > order are 1 modulo u^(order+1), so the product over
    j = 1..order is already exact.  One list is multiplied in place by each
    factor (1 - u^j)^(-s), s = sigma_fn(j).  While j*s < order that is s
    prefix-sum passes along every residue class mod j (additions only);
    otherwise it is one whole-row update per binomial term C(s+k-1, k)
    u^(j*k).  `sigma_fn` is injectable so a corrupted table can drive
    negative-control tests.
    """
    _require_series_order(order)
    out = [1] + [0] * order
    for j in range(1, order + 1):
        s = sigma_fn(j)
        if s < 1:
            raise ValueError(f"power s must be >= 1, got {s} at j = {j}")
        if j * s < order:
            for _ in range(s):
                for r in range(j):
                    out[r::j] = accumulate(out[r::j])
        else:
            row = series.neg_binomial_factor(1, s, order // j).coeffs
            series.imul_substituted(out, row, j)
    return series.IntSeries(tuple(out))


def coeffs_classes(order: int) -> series.IntSeries:
    """Route B (canonical form): per-coefficient sum over cycle types.

    Coefficient n is sum over partitions of n of prod(k_wreath(t, m_t)).
    The sum is built bottom-up, one part size t at a time: after part t,
    w[n] sums over partitions of n with parts <= t, and adding m parts of
    size t multiplies by k_wreath(t, m).  So w is multiplied in place by
    row t = sum(k_wreath(t, m) * u^(m*t)), one whole-row update per m.
    Its coefficients k_wreath(t, m) are those of P^t, P = row 1 (the
    partition numbers), so each row is the previous one times row 1: one
    multiply per row.
    `class_count_by_types` is the same sum with every partition spelled
    out, kept as a slow cross-check.
    """
    _require_series_order(order)
    row_1 = k_wreath_series(1, order)
    row = series.one(order)
    w = [1] + [0] * order
    for t in range(1, order + 1):
        row = series.mul(row, row_1, order // t)
        series.imul_substituted(w, row.coeffs, t)
    return series.IntSeries(tuple(w))


def class_count_by_types(n: int) -> int:
    """Route B, literal form: walk every partition of n explicitly, with
    each class count k_wreath(t, m), t*m <= n, read once up front."""
    k = {(t, m): k_wreath(t, m) for t in range(1, n + 1) for m in range(1, n // t + 1)}
    total = 0
    for ct in enumerate_partitions(n):
        w = 1
        for t, m in ct.multiplicities().items():
            w *= k[t, m]
        total += w
    return total


def coeffs_brute(n_max: int, *, cap: int = DEFAULT_CENT_CAP) -> list[int]:
    """Route C: triple counts divided (exactly) by n!, for n = 0..n_max."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if n_max > cap:
        # Checked up front, so a refusal costs no degree's work.
        raise CapExceeded(f"centralizer triple count in S_{n_max}", "centralizer cap", cap)
    out = []
    for n in range(n_max + 1):
        triples = triples_centralizer(n, cap=cap)
        quotient, remainder = divmod(triples, math.factorial(n))
        if remainder:
            raise ArithmeticError(
                f"triple count {triples} for degree {n} is not divisible by {n}! "
                "-- internal inconsistency"
            )
        out.append(quotient)
    return out


@dataclass(frozen=True)
class CoefficientReport:
    """Coefficientwise comparison of the three routes."""

    order: int
    brute_max: int
    product: tuple[int, ...]
    classes: tuple[int, ...]
    brute: tuple[int, ...]
    agreements: tuple[bool, ...]

    @property
    def overall(self) -> bool:
        return all(self.agreements)

    @property
    def first_disagreement(self) -> int | None:
        for i, okay in enumerate(self.agreements):
            if not okay:
                return i
        return None


def verify_identity(
    order: int,
    brute_max: int,
    *,
    sigma_fn: Callable[[int], int] = numtheory.sigma,
    cap: int = DEFAULT_CENT_CAP,
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
    c = coeffs_brute(brute_max, cap=cap)
    a = coeffs_product(order, sigma_fn=sigma_fn)
    b = coeffs_classes(order)
    agreements = tuple(
        a[i] == b[i] and (i > brute_max or a[i] == c[i]) for i in range(order + 1)
    )
    return CoefficientReport(
        order=order,
        brute_max=brute_max,
        product=a.coeffs,
        classes=b.coeffs,
        brute=tuple(c),
        agreements=agreements,
    )


@dataclass(frozen=True)
class LogReport:
    order: int
    ok: bool
    first_mismatch: int | None


def verify_log(
    order: int, *, sigma_fn: Callable[[int], int] = numtheory.sigma
) -> LogReport:
    """Check route A at `order` against the divisor formula for its formal log."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return check_log(coeffs_product(order, sigma_fn=sigma_fn).coeffs, sigma_fn=sigma_fn)


def check_log(
    a: tuple[int, ...], *, sigma_fn: Callable[[int], int] = numtheory.sigma
) -> LogReport:
    """Check the coefficients `a` of route A against the divisor formula
    for its formal log.

    The u^d coefficient of log(route A) must equal b_d / d with
    b_d = sum(a*sigma(a) for a | d), for d = 1..order.  Since route A has
    constant term 1, that holds exactly when the log-derivative recurrence
    n*a_n = sum(b_k * a_(n-k) for k = 1..n) holds for n = 1..order, in
    integers; the first n where it fails is the first log mismatch.
    """
    order = len(a) - 1
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    b = [0] + [numtheory.divisor_weight(k, sigma_fn) for k in range(1, order + 1)]
    for n in range(1, order + 1):
        if n * a[n] != sum(b[k] * a[n - k] for k in range(1, n + 1)):
            return LogReport(order=order, ok=False, first_mismatch=n)
    return LogReport(order=order, ok=True, first_mismatch=None)


@dataclass(frozen=True)
class GrowthPoint:
    n: int
    coefficient: int
    root: float  # coefficient ** (1/n), presentation only


def growth_report(order: int) -> list[GrowthPoint]:
    """n-th roots of the route-A coefficients, for eyeballing the growth
    trend.  No pass/fail semantics and no exactness contract on `root`."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    coeffs = coeffs_product(order)
    return [
        GrowthPoint(n, coeffs[n], math.exp(math.log(coeffs[n]) / n))
        for n in range(1, order + 1)
    ]
