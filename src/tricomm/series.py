"""Truncated dense formal power series with integer coefficients.

Index k of `coeffs` holds the u^k coefficient; a series of order N carries
exactly N+1 coefficients.  All arithmetic is exact Python integers;
truncation order is an explicit argument everywhere and operations never
silently extend a series.  The module holds what routes A and B run: one
product kernel, the in-place product of a list with a row in u^step
(`imul_substituted`), the factor (1 - u)^(-s) and the series-order cap.
"""

from collections import namedtuple

from .errors import CapExceeded

# Largest series order that routes A and B (`expand`, `classes`, `verify`,
# `log-check`) and the wreath class counts accept; refused before any work,
# like BOUND_CHECK_CAP.  The slowest of these at the cap,
# `verify -N 4000 -K 8`, takes about 18 s and peaks at 16 MB (medians of 3
# runs; Python 3.11, 2 vCPUs, shared host); time grows about as order^2.3,
# so the cap keeps it well inside the 60 s budget.
SERIES_ORDER_CAP = 4000


def require_order_within_cap(order: int, subject: str) -> None:
    """Refuse an `order` above SERIES_ORDER_CAP; `subject` names it in the
    refusal."""
    if order > SERIES_ORDER_CAP:
        raise CapExceeded(subject, "series-order cap", SERIES_ORDER_CAP)


class IntSeries(namedtuple("IntSeries", "coeffs")):
    __slots__ = ()

    def __new__(cls, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series carries at least the constant term")
        for kind in set(map(type, coeffs)):
            if not issubclass(kind, int):
                raise TypeError(f"integer coefficients only, got {kind.__name__}")
        return super().__new__(cls, coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k]


def imul_substituted(out: list[int], row, step: int) -> None:
    """Multiply the list `out` in place by sum(row[k] * u^(k*step)).

    `out` is a truncated series of order len(out) - 1, and row[0] must be 1.
    Each term k >= 1 adds row[k] times the original `out`, shifted by
    k*step, as one whole-row update; terms past the order are ignored.
    """
    if step < 1:
        raise ValueError(f"substitution step must be >= 1, got {step}")
    if row[0] != 1:
        raise ValueError(f"row must have constant term 1, got {row[0]}")
    before = out[:]
    for shift, c in zip(range(step, len(out), step), row[1:]):
        if c:
            out[shift:] = [a + c * b for a, b in zip(out[shift:], before)]


def neg_binomial_factor(s: int, order: int) -> IntSeries:
    """(1 - u)^(-s) truncated at `order`.

    The u^k coefficient is C(s+k-1, k), built incrementally by exact
    multiply/divide so no factorials blow up.
    """
    if s < 1:
        raise ValueError(f"power s must be >= 1, got {s}")
    if order < 0:
        raise ValueError(f"truncation order must be >= 0, got {order}")
    out = [1]
    for k in range(1, order + 1):
        out.append(out[-1] * (s + k - 1) // k)
    return IntSeries(tuple(out))
