"""Truncated dense formal power series with integer coefficients.

A series is a plain list or tuple of ints: index k holds the u^k
coefficient, and a series of order N carries exactly N+1 coefficients.  All
arithmetic is exact Python integers; truncation order is an explicit
argument everywhere and operations never silently extend a series.  The
module holds what routes A and B run: one product kernel, the in-place
product of a list with a row in u^step (`imul_substituted`, by row updates
that skip the list's zero run or by one big-integer product), the factor
(1 - u)^(-s) and the series-order cap.
"""

from .errors import CapExceeded

# Largest series order that routes A and B (`expand`, `classes`, `verify`,
# `log-check`) and the wreath class counts accept; refused before any work,
# like BOUND_CHECK_CAP.  The slowest of these at the cap,
# `verify -N 4000 -K 8`, takes about 11 s and peaks at 24 MB, most of it
# route B's rows of class counts, about order * ln(order) integers (medians
# of 3 runs; Python 3.11, 2 vCPUs, shared host); time grows about as
# order^2.3, so the cap keeps it well inside the 60 s budget.
SERIES_ORDER_CAP = 4000

# The packing gate's minimum per step: a list is packed only when each of
# its residue classes mod step holds at least PACKED_MIN_PER_STEP * step
# entries, since every class costs one more packed multiply.  A dense
# product of two partition-number rows took the same time packed and by
# row updates at 7 entries, and was 7% faster packed at 8 (Python 3.11,
# 2 vCPUs).
PACKED_MIN_PER_STEP = 8

# The largest step * len(out) at which the residue classes are packed.  The
# coefficients of routes A and B grow with the order, and a multiply of
# large packed ints grows faster than the row updates: route B's products
# of a list of 401 entries with its rows packed faster for steps 1..13, of
# 1001 entries for steps 1..8, of 2001 for steps 1..3 and of 4001 for step
# 1 alone.
PACKED_SPAN = 6000


def require_order_within_cap(order: int, subject: str) -> None:
    """Refuse an `order` above SERIES_ORDER_CAP; `subject` names it in the
    refusal."""
    if order > SERIES_ORDER_CAP:
        raise CapExceeded(subject, "series-order cap", SERIES_ORDER_CAP)


def imul_substituted(out: list[int], row, step: int) -> None:
    """Multiply the list `out` in place by sum(row[k] * u^(k*step)).

    `out` is a truncated series of order len(out) - 1, and row[0] must be 1;
    terms past the order are ignored.  Each term k >= 1 adds row[k] times
    the original `out`, shifted by k*step, as one whole-row update that
    skips the zero run: if out[1..g-1] are all 0, term k adds
    row[k]*out[0] at k*step and updates `out` only from k*step + g on.  A
    product taken largest factor first keeps g large.

    When every coefficient of `out` and of the row is >= 0, each residue
    class of `out` mod step holds at least PACKED_MIN_PER_STEP * step entries
    and step * len(out) <= PACKED_SPAN, the product is instead one
    big-integer product per residue class (`_imul_packed`).
    """
    if step < 1:
        raise ValueError(f"substitution step must be >= 1, got {step}")
    if row[0] != 1:
        raise ValueError(f"row must have constant term 1, got {row[0]}")
    size = len(out)
    if size >= PACKED_MIN_PER_STEP * step * step and step * size <= PACKED_SPAN:
        terms = row[: (size - 1) // step + 1]
        if min(out) >= 0 and min(terms) >= 0:
            _imul_packed(out, terms, step)
            return
    gap = next(filter(out.__getitem__, range(1, size)), size)
    before = out[gap:]
    for shift, c in zip(range(step, size, step), row[1:]):
        out[shift] += c * out[0]
    for shift, c in zip(range(gap + step, size, step), row[1:]):
        if c:
            out[shift:] = [a + c * b for a, b in zip(out[shift:], before)]


def _imul_packed(out: list[int], terms, step: int) -> None:
    """`imul_substituted` for non-negative `out` and `terms`, by Kronecker
    substitution.  A row in u^step multiplies each residue class of `out`
    mod step on its own by sum(terms[k] * u^k).  The terms and each class
    become one int each, one coefficient per slot of `width` bytes, and the
    low slots of their product are the class's new coefficients.  No
    product coefficient reaches 2^bits: it sums at most len(out) products of
    an `out` entry and a row entry, so the slots never carry into each other.
    """
    size = len(out)
    bits = max(out).bit_length() + max(terms).bit_length() + size.bit_length()
    width = (bits + 7) // 8
    factor = _pack(terms, width)
    for r in range(step):
        coeffs = out[r::step]
        packed = _pack(coeffs, width) * factor
        data = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
        out[r::step] = [
            int.from_bytes(data[i : i + width], "little") for i in range(0, len(coeffs) * width, width)
        ]


def _pack(coeffs, width: int) -> int:
    return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in coeffs]), "little")


def neg_binomial_factor(s: int, order: int) -> list[int]:
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
    return out
