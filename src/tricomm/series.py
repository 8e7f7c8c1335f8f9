"""Truncated dense formal power series with integer coefficients.

Index k of `coeffs` holds the u^k coefficient; a series of order N carries
exactly N+1 coefficients.  All arithmetic is exact Python integers;
truncation order is an explicit argument everywhere and operations never
silently extend a series.
"""

from dataclasses import dataclass

from .errors import CapExceeded

# Largest series order that routes A and B (`expand`, `classes`, `verify`,
# `log-check`, `growth`) and the wreath class counts accept; refused before
# any work, like BOUND_CHECK_CAP.  The slowest of these at the cap,
# `verify -N 4000 -K 8`, took 27 s and peaked at 29 MB on a 2-vCPU VM
# (Python 3.11); time grows about as order^2.3, so the cap keeps it well
# inside the 60 s budget.
SERIES_ORDER_CAP = 4000


def require_order_within_cap(order: int, subject: str) -> None:
    """Refuse an `order` above SERIES_ORDER_CAP; `subject` names it in the
    refusal."""
    if order > SERIES_ORDER_CAP:
        raise CapExceeded(subject, "series-order cap", SERIES_ORDER_CAP)


@dataclass(frozen=True, slots=True)
class IntSeries:
    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if not coeffs:
            raise ValueError("a series carries at least the constant term")
        for kind in set(map(type, coeffs)):
            if not issubclass(kind, int):
                raise TypeError(f"integer coefficients only, got {kind.__name__}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k]

    def truncate(self, order: int) -> "IntSeries":
        _require_order(self, order)
        return IntSeries(self.coeffs[: order + 1])


def _require_order(f: IntSeries, order: int) -> None:
    if order < 0:
        raise ValueError(f"truncation order must be >= 0, got {order}")
    if f.order < order:
        raise ValueError(
            f"series of order {f.order} cannot serve a request at order {order}"
        )


def one(order: int) -> IntSeries:
    """The constant series 1 at the given truncation order."""
    if order < 0:
        raise ValueError(f"truncation order must be >= 0, got {order}")
    return IntSeries((1,) + (0,) * order)


def mul(f: IntSeries, g: IntSeries, order: int) -> IntSeries:
    """Cauchy product truncated at `order`, over nonzero terms only.

    The operand with fewer nonzero terms drives the outer loop; the inner
    loop walks the other operand's nonzero terms and stops once the index
    passes `order`.  A factor (1 - u^j)^(-s) has order//j + 1 nonzero terms,
    so a product of such factors over j = 1..N costs O(N^2 log N); a dense
    by dense product costs O(N^2).
    """
    _require_order(f, order)
    _require_order(g, order)
    outer = _nonzero_terms(f, order)
    inner = _nonzero_terms(g, order)
    if len(outer) > len(inner):
        outer, inner = inner, outer
    out = [0] * (order + 1)
    for i, a in outer:
        limit = order - i
        for j, b in inner:
            if j > limit:
                break
            out[i + j] += a * b
    return IntSeries(tuple(out))


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


def _nonzero_terms(f: IntSeries, order: int) -> list[tuple[int, int]]:
    """(index, coefficient) pairs of the nonzero terms up to `order`, ascending."""
    return [(k, c) for k, c in enumerate(f.coeffs[: order + 1]) if c]


def neg_binomial_factor(j: int, s: int, order: int) -> IntSeries:
    """(1 - u^j)^(-s) truncated at `order`.

    The u^(j*k) coefficient is C(s+k-1, k), built incrementally by exact
    multiply/divide so no factorials blow up.
    """
    if j < 1:
        raise ValueError(f"exponent step j must be >= 1, got {j}")
    if s < 1:
        raise ValueError(f"power s must be >= 1, got {s}")
    if order < 0:
        raise ValueError(f"truncation order must be >= 0, got {order}")
    out = [0] * (order + 1)
    c = 1
    k = 0
    while j * k <= order:
        out[j * k] = c
        k += 1
        c = c * (s + k - 1) // k
    return IntSeries(tuple(out))


def power(f: IntSeries, t: int, order: int) -> IntSeries:
    """f**t truncated at `order`; t = 0 gives the constant series 1."""
    if t < 0:
        raise ValueError(f"power requires t >= 0, got {t}")
    if t == 0:
        return one(order)
    _require_order(f, order)
    result = one(order)
    base = f.truncate(order)
    e = t
    while e:
        if e & 1:
            result = mul(result, base, order)
        e >>= 1
        if e:
            base = mul(base, base, order)
    return result
