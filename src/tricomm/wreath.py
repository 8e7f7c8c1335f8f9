"""The groups W(t, m) = Z_t wr S_m: colored permutations of m points.

An element is a pair (colors, perm): a vector of m residues mod t together
with a permutation of the m points.  Multiplication permutes the right
factor's colors before adding them:

    (A, e) * (B, f) = (A + B.e, e*f)   with (B.e)[i] = B[e^-1(i)]

Every element is listed as its image in S_(t*m): on the points c*m + i,
c a color and i a point,

    (A, e) maps c*m + i to ((c + A[e(i)]) mod t)*m + e(i),

a faithful homomorphism, so a wreath table is a table of `bytes`
permutations like any other `permgroup` table.  Its first m points carry
e(i) = x[i] % m and A[e(i)] = x[i] // m.  The image is exactly the
centralizer in S_(t*m) of the rotation (1, ..., 1; id), which sends point
k to k + m mod t*m, and `enumerate_wreath` lists it as one, with
`permgroup.centralizer`.

Conjugacy is decided by cycle sums: each cycle c of the permutation part
contributes the pair (sum of colors over c mod t, len(c)), and the multiset
of these pairs is a complete conjugacy invariant.  A class is named by this
multiset as a sorted pair tuple: the same data as a t-tuple of partitions of
total size m, residue z's partition listing the lengths paired with z.
"""

import itertools
import math
from collections import Counter
from typing import NamedTuple

from . import series
from .errors import CapExceeded
from .partitions import enumerate_partitions, partition_numbers
from .permgroup import (
    POINT_LIMIT,
    GroupTable,
    centralizer,
    commuting_pairs,
    conjugacy_classes,
    perm_cycles,
)

# `enumerate_wreath`, and with it `class_structure_report`, refuses a group
# whose |W| * k(W) is above this: the structure check's pair count tests
# each class's first element against every element, |W| * k(W) commutation
# tests run in bulk by `commuting_pairs`, about 0.03 us each on 12 points
# and 0.05 us on 20.  Closest to the ceiling, `wreath 2 6 --brute` (46,080
# elements, 65 classes, 2,995,200 tests) takes about 0.53 s and 28 MB,
# start-up included (medians of 5 runs; Python 3.11, 2 vCPUs, shared
# host); W(5,4) (2,850,000 tests) about 0.31 s and 18 MB.
STRUCTURE_CEILING = 3_000_000


def cycle_sum_invariants(x: bytes, t: int, m: int) -> tuple[tuple[int, int], ...]:
    """One (color sum mod t, cycle length) pair per cycle of the permutation
    part of x, an element of W(t, m) as its image in S_(t*m) (see the
    module docstring), fixed points included, sorted by residue then length.

    Over a cycle of e the colors A[e(i)] = x[i] // m run through those of
    the cycle's own points, so they are summed without decoding A."""
    perm = [v % m for v in x[:m]]
    pairs = [
        (sum(x[i] // m for i in cycle) % t, len(cycle)) for cycle in perm_cycles(perm)
    ]
    return tuple(sorted(pairs))


def enumerate_wreath(t: int, m: int) -> GroupTable:
    """All t^m * m! elements of W(t, m) as a table of their images in
    S_(t*m), in lexicographic order: the centralizer there of the rotation
    (1, ..., 1; id), which sends point k to k + m mod t*m and so is m
    disjoint t-cycles.  That rotation is central, and its centralizer has
    t^m * m! elements, so the two groups are equal; `permgroup.centralizer`
    lists it.

    `require_structure_check` refuses before any listing."""
    require_structure_check(t, m)
    return centralizer(bytes(range(m, t * m)) + bytes(range(m)))


def wreath_family(order_cap: int, t_max: int, m_max: int) -> list[tuple[int, int]]:
    """All (t, m) with 1 <= t <= t_max and 0 <= m <= m_max whose group
    W(t, m) has at most `order_cap` elements, t-major.

    t^m * m! never decreases as m grows, so each t stops at its first
    group over the cap."""
    family = []
    for t in range(1, t_max + 1):
        order = 1
        for m in range(m_max + 1):
            order *= max(t * m, 1)
            if order > order_cap:
                break
            family.append((t, m))
    return family


def k_wreath(t: int, m: int) -> int:
    """Number of conjugacy classes of W(t, m), by coefficient extraction.

    A class name carries the data of a t-tuple of partitions of total size
    m, so the count is the u^m coefficient of the t-th power of the
    partition series.
    Never computed by group enumeration.
    """
    return k_wreath_series(t, m)[m]


def _check_series_order(t: int, m_max: int) -> None:
    """Refuse a class-count row W(t, 0..m_max) that is malformed or whose
    t*max(m_max, 1) is above the series-order cap.  t is a row index, and
    route B reads row t only up to its order, so t itself is held to the
    cap even when m_max is 0."""
    if t < 1:
        raise ValueError(f"modulus must be >= 1, got {t}")
    if m_max < 0:
        raise ValueError(f"point count must be >= 0, got {m_max}")
    size = f"t*m = {t * m_max}" if m_max else f"t = {t}"
    series.require_order_within_cap(
        t * max(m_max, 1), f"W({t},{m_max}) class count with {size}"
    )


def k_wreath_series(t: int, m_max: int) -> tuple[int, ...]:
    """Class counts of W(t, m) for all m <= m_max: the partition series P
    raised to the power t as a running product, as route B builds its rows:
    t - 1 times, a fresh copy of P is multiplied in place by the previous
    row with `series.imul_substituted`.  Truncated at order 0, P^t is 1, so
    m_max = 0 takes no multiply.

    Route B reads no row with t*m above its order, so t*max(m_max, 1) is
    held to the series-order cap, refused before any work.
    """
    _check_series_order(t, m_max)
    p = partition_numbers(m_max)
    row = p
    for _ in range(t - 1 if m_max else 0):
        next_row = p[:]
        series.imul_substituted(next_row, row, 1)
        row = next_row
    return tuple(row)


def enumerate_class_labels(t: int, m: int) -> list[tuple[tuple[int, int], ...]]:
    """The name of every W(t, m) class, listed as colored partitions: a
    partition of m whose k parts of each length carry a multiset of k
    residues.  Each name is the sorted tuple of (residue, length) pairs, the
    format of `cycle_sum_invariants`.

    Deterministic order: partitions of m in `enumerate_partitions` order;
    within one, each part length (longest first) runs through its residue
    multisets in `itertools.combinations_with_replacement(range(t), k)`
    order, the shortest length varying fastest.
    """
    if t < 1:
        raise ValueError(f"modulus must be >= 1, got {t}")
    if m < 0:
        raise ValueError(f"point count must be >= 0, got {m}")
    out = []
    for p in enumerate_partitions(m):
        mult = Counter(p)
        choices = [itertools.combinations_with_replacement(range(t), k) for k in mult.values()]
        for residues in itertools.product(*choices):
            pairs = [(z, length) for length, zs in zip(mult, residues) for z in zs]
            out.append(tuple(sorted(pairs)))
    return out


def require_structure_check(t: int, m: int) -> None:
    """Refuse W(t, m) before any listing: the series-order cap, then
    |W| above STRUCTURE_CEILING, then |W| * k(W) above it, then t * m
    above the `bytes` point limit of its image in S_(t*m).  Within the
    ceiling only the cyclic W(t, 1) with 257 <= t <= 1732 have more than
    256 points; every other group has at most 80."""
    _check_series_order(t, m)
    order = t**m * math.factorial(m)
    if order > STRUCTURE_CEILING:
        raise CapExceeded(
            f"W({t},{m}) with {t}^{m}*{m}! elements",
            "wreath structure ceiling",
            STRUCTURE_CEILING,
        )
    tests = order * k_wreath(t, m)
    if tests > STRUCTURE_CEILING:
        raise CapExceeded(
            f"W({t},{m}) structure check with |W|*k = {tests} commutation tests",
            "wreath structure ceiling",
            STRUCTURE_CEILING,
        )
    if t * m > POINT_LIMIT:
        raise CapExceeded(
            f"W({t},{m}) acting on t*m = {t * m} points", "permutation point limit", POINT_LIMIT
        )


class StructureReport(NamedTuple):
    """Full brute-force cross-check of one wreath group's class structure.

    `labels_match_orbits`: the sorted listed labels equal the sorted set of
    invariants that occur in the table."""

    t: int
    m: int
    order: int
    brute_class_count: int
    series_class_count: int
    label_count: int
    invariants_match_orbits: bool
    labels_match_orbits: bool
    commuting_pairs: int

    @property
    def counts_agree(self) -> bool:
        return self.brute_class_count == self.series_class_count == self.label_count

    @property
    def pair_identity_holds(self) -> bool:
        return self.commuting_pairs == self.order * self.brute_class_count

    @property
    def ok(self) -> bool:
        return (
            self.counts_agree
            and self.invariants_match_orbits
            and self.labels_match_orbits
            and self.pair_identity_holds
        )


def class_structure_report(t: int, m: int) -> StructureReport:
    """Compare orbit conjugacy, invariant equality, class labels, the series
    class count and the commuting-pair identity on one wreath group.

    Two elements land in the same invariant block iff their invariants are
    equal, so block-partition equality against the orbit partition is
    exactly the all-pairs statement "conjugate iff equal invariants".  The
    listed labels must be exactly the invariants that occur, each once.

    `enumerate_wreath` refuses, by `require_structure_check`, before any
    listing.
    """
    table = enumerate_wreath(t, m)
    cc = conjugacy_classes(table)
    blocks: dict = {}
    for i, g in enumerate(table.elements):
        blocks.setdefault(cycle_sum_invariants(g, t, m), []).append(i)
    labels = enumerate_class_labels(t, m)
    return StructureReport(
        t=t,
        m=m,
        order=len(table),
        brute_class_count=len(cc),
        series_class_count=k_wreath(t, m),
        label_count=len(labels),
        invariants_match_orbits={frozenset(b) for b in blocks.values()}
        == {frozenset(cls) for cls in cc},
        labels_match_orbits=sorted(labels) == sorted(blocks),
        commuting_pairs=commuting_pairs(table, cc),
    )
