"""The groups W(t, m) = Z_t wr S_m: colored permutations of m points.

An element is a pair (colors, perm): a vector of m residues mod t together
with a permutation of the m points.  Multiplication permutes the right
factor's colors before adding them:

    (A, e) * (B, f) = (A + B.e, e*f)   with (B.e)[i] = B[e^-1(i)]

which makes (colors, perm) act "perm first ... then colors read off in the
permuted positions", consistent with `permgroup.compose`.

Conjugacy is decided by cycle sums: each cycle c of the permutation part
contributes the pair (sum of colors over c mod t, len(c)), and the multiset
of these pairs is a complete conjugacy invariant.  Equivalently, the class
is named by a t-tuple of partitions (one per residue) with total size m.
"""

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from . import series
from .errors import CapExceeded
from .partitions import Partition, enumerate_partitions, partition_numbers
from .permgroup import (
    GroupTable,
    commuting_pairs,
    conjugacy_classes,
    identity_perm,
    inverse_perm,
    perm_cycles,
    symmetric_generators,
)

DEFAULT_TABLE_CAP = 5000


class WreathElement(NamedTuple):
    colors: tuple[int, ...]
    perm: tuple[int, ...]
    modulus: int


def wreath_element(colors, perm, modulus: int) -> WreathElement:
    """Validating constructor for a W(modulus, len(colors)) element."""
    colors = tuple(colors)
    perm = tuple(perm)
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    if len(colors) != len(perm):
        raise ValueError(
            f"{len(colors)} colors cannot ride a permutation of {len(perm)} points"
        )
    if sorted(perm) != list(range(len(perm))):
        raise ValueError(f"not a permutation: {perm}")
    if any(not 0 <= c < modulus for c in colors):
        raise ValueError(f"colors must lie in 0..{modulus - 1}: {colors}")
    return WreathElement(colors, perm, modulus)


def w_identity(t: int, m: int) -> WreathElement:
    return WreathElement((0,) * m, identity_perm(m), t)


def _check_compatible(x: WreathElement, y: WreathElement) -> None:
    if x.modulus != y.modulus or len(x.colors) != len(y.colors):
        raise ValueError(
            f"elements of W({x.modulus},{len(x.colors)}) and "
            f"W({y.modulus},{len(y.colors)}) do not multiply"
        )


def w_mul(x: WreathElement, y: WreathElement) -> WreathElement:
    ax, ex, t = x
    ay, ey, _ = y
    _check_compatible(x, y)
    ex_inv = inverse_perm(ex)
    colors = tuple((a + ay[j]) % t for a, j in zip(ax, ex_inv))
    return WreathElement(colors, tuple(map(ex.__getitem__, ey)), t)


def w_inv(x: WreathElement) -> WreathElement:
    a, e, t = x
    colors = tuple((-a[e[i]]) % t for i in range(len(a)))
    return WreathElement(colors, inverse_perm(e), t)


def w_commutes(x: WreathElement, y: WreathElement) -> bool:
    """Short-circuit test for w_mul(x, y) == w_mul(y, x).

    The permutation parts must commute first; only then are the color
    components compared, coordinate by coordinate.
    """
    ax, ex, t = x
    ay, ey, _ = y
    if tuple(map(ex.__getitem__, ey)) != tuple(map(ey.__getitem__, ex)):
        return False
    ex_inv = inverse_perm(ex)
    ey_inv = inverse_perm(ey)
    for i in range(len(ax)):
        if (ax[i] + ay[ex_inv[i]]) % t != (ay[i] + ax[ey_inv[i]]) % t:
            return False
    return True


def cycle_sum_invariants(x: WreathElement) -> tuple[tuple[int, int], ...]:
    """One (color sum mod t, cycle length) pair per cycle of the permutation
    part, fixed points included, sorted by residue then length."""
    a, e, t = x
    pairs = [
        (sum(a[i] for i in cycle) % t, len(cycle)) for cycle in perm_cycles(e)
    ]
    return tuple(sorted(pairs))


def conjugate_by_invariants(x: WreathElement, y: WreathElement) -> bool:
    """True iff x and y are conjugate in W(t, m), decided entirely by
    comparing cycle-sum invariant multisets."""
    _check_compatible(x, y)
    return cycle_sum_invariants(x) == cycle_sum_invariants(y)


def _wreath_generators(t: int, m: int) -> tuple[WreathElement, ...]:
    gens = [
        WreathElement((0,) * m, p, t) for p in symmetric_generators(m)
    ]
    if t >= 2 and m >= 1:
        gens.append(WreathElement((1,) + (0,) * (m - 1), identity_perm(m), t))
    return tuple(gens)


def _order_exceeds(t: int, m: int, cap: int) -> bool:
    """True iff |W(t, m)| = t^m * m! is above `cap`.  The order is built as
    the product of t*k for k = 1..m, stopping once it passes the cap, so a
    huge m costs about log2(cap) steps, not its full product."""
    order = 1
    for k in range(1, m + 1):
        if order > cap:
            return True
        order *= t * k
    return order > cap


def enumerate_wreath(t: int, m: int, *, cap: int = DEFAULT_TABLE_CAP) -> GroupTable:
    """All t^m * m! elements of W(t, m) as a table, colors-major order."""
    if t < 1:
        raise ValueError(f"modulus must be >= 1, got {t}")
    if m < 0:
        raise ValueError(f"point count must be >= 0, got {m}")
    if _order_exceeds(t, m, cap):
        raise CapExceeded(f"W({t},{m}) with {t}^{m}*{m}! elements", "wreath-table cap", cap)
    perms = tuple(itertools.permutations(range(m)))
    elements = tuple(
        WreathElement(colors, perm, t)
        for colors in itertools.product(range(t), repeat=m)
        for perm in perms
    )
    return GroupTable(
        elements=elements,
        mul=w_mul,
        inv=w_inv,
        name=f"W({t},{m})",
        generators=_wreath_generators(t, m),
        commutes=w_commutes,
    )


def wreath_family(order_cap: int, t_max: int, m_max: int) -> list[tuple[int, int]]:
    """All (t, m) with 1 <= t <= t_max and 0 <= m <= m_max whose group
    W(t, m) has at most `order_cap` elements, t-major.

    t^m * m! never decreases as m grows, so each t stops at its first
    group over the cap."""
    family = []
    for t in range(1, t_max + 1):
        for m in range(m_max + 1):
            if _order_exceeds(t, m, order_cap):
                break
            family.append((t, m))
    return family


def k_wreath(t: int, m: int) -> int:
    """Number of conjugacy classes of W(t, m), by coefficient extraction.

    Classes are named by t-tuples of partitions with total size m, so the
    count is the u^m coefficient of the t-th power of the partition series.
    Never computed by group enumeration.
    """
    return k_wreath_series(t, m)[m]


def _check_series_order(t: int, m_max: int) -> None:
    """Refuse a class-count row W(t, 0..m_max) that is malformed or whose
    t*m_max is above the series-order cap."""
    if t < 1:
        raise ValueError(f"modulus must be >= 1, got {t}")
    if m_max < 0:
        raise ValueError(f"point count must be >= 0, got {m_max}")
    series.require_order_within_cap(
        t * m_max, f"W({t},{m_max}) class count with t*m = {t * m_max}"
    )


def k_wreath_series(t: int, m_max: int) -> series.IntSeries:
    """Class counts of W(t, m) for all m <= m_max, as one series power.

    Route B reads no row with t*m above its order, so t*m_max is held to the
    series-order cap, refused before any work.
    """
    _check_series_order(t, m_max)
    return series.power(series.IntSeries(tuple(partition_numbers(m_max))), t, m_max)


@dataclass(frozen=True)
class WreathClassLabel:
    """Canonical name of a W(t, m) conjugacy class: one partition per
    residue z, where the multiplicity of part L in partition z equals the
    multiplicity of the invariant (z, L)."""

    lambdas: tuple[Partition, ...]


# Shared by every residue that carries no cycle: t - 1 per label of W(t, 1).
_EMPTY = Partition(())


def _label(t: int, pairs) -> WreathClassLabel:
    """The label of the class whose (residue, cycle length) pairs are `pairs`."""
    lengths: list[list[int]] = [[] for _ in range(t)]
    for residue, length in pairs:
        lengths[residue].append(length)
    return WreathClassLabel(
        tuple(Partition(tuple(sorted(ls, reverse=True))) if ls else _EMPTY for ls in lengths)
    )


def enumerate_class_labels(t: int, m: int) -> list[WreathClassLabel]:
    """All t-tuples of partitions with total size m, as colored partitions:
    a partition of m whose k parts of each length carry a multiset of k
    residues.

    Deterministic order: partitions of m in `enumerate_partitions` order;
    within one, each part length (longest first) runs through its residue
    multisets in `itertools.combinations_with_replacement(range(t), k)`
    order, the shortest length varying fastest.
    """
    if t < 1:
        raise ValueError(f"modulus must be >= 1, got {t}")
    if m < 0:
        raise ValueError(f"point count must be >= 0, got {m}")
    out: list[WreathClassLabel] = []
    for p in enumerate_partitions(m):
        mult = p.multiplicities()
        choices = [itertools.combinations_with_replacement(range(t), k) for k in mult.values()]
        for residues in itertools.product(*choices):
            pairs = [(z, length) for length, zs in zip(mult, residues) for z in zs]
            out.append(_label(t, pairs))
    return out


def class_label_of(x: WreathElement) -> WreathClassLabel:
    return _label(x.modulus, cycle_sum_invariants(x))


@dataclass(frozen=True)
class StructureReport:
    """Full brute-force cross-check of one wreath group's class structure."""

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


def _partition_by(table: GroupTable, fingerprint) -> set[frozenset[int]]:
    groups: dict = {}
    for i, g in enumerate(table.elements):
        groups.setdefault(fingerprint(g), set()).add(i)
    return {frozenset(s) for s in groups.values()}


def class_structure_report(
    t: int, m: int, *, cap: int = DEFAULT_TABLE_CAP
) -> StructureReport:
    """Compare orbit conjugacy, invariant equality, class labels, the series
    class count and the commuting-pair identity on one wreath group.

    Two elements land in the same invariant (or label) block iff their
    fingerprints are equal, so block-partition equality against the orbit
    partition is exactly the all-pairs statement "conjugate iff equal
    invariants".

    The series-order cap and then the table cap are checked before any work.
    """
    _check_series_order(t, m)
    table = enumerate_wreath(t, m, cap=cap)
    cc = conjugacy_classes(table)
    orbit_partition = {frozenset(cls) for cls in cc}
    return StructureReport(
        t=t,
        m=m,
        order=len(table),
        brute_class_count=len(cc),
        series_class_count=k_wreath(t, m),
        label_count=len(enumerate_class_labels(t, m)),
        invariants_match_orbits=_partition_by(table, cycle_sum_invariants)
        == orbit_partition,
        labels_match_orbits=_partition_by(table, class_label_of) == orbit_partition,
        commuting_pairs=commuting_pairs(table, cc),
    )
