"""Concrete symmetric-group machinery and generic finite-group brute force.

Permutations are 0-indexed one-line tuples: `g[i]` is the image of point i.
The composition convention is fixed once here and used everywhere:

    compose(g, h)(i) = g(h(i))        # h first, then g

`GroupTable` packages an explicit element list with its group operations so
the class/pair/triple counters below work for any finite group we can list
(symmetric groups here, wreath products in `tricomm.wreath`).
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Callable

from .errors import CapExceeded
from .partitions import Partition, centralizer_order, enumerate_partitions

Perm = tuple[int, ...]

DEFAULT_NAIVE_CAP = 5
DEFAULT_CENT_CAP = 8

# Below this order `commuting_pairs` uses the plain double loop; above it
# (wreath tables in `verify`'s pair identity), the count is grouped over
# conjugacy classes.  The loop stays so the identity on small groups never
# uses orbits.  Route C counts with `centralizer_pairs` instead.
DIRECT_PAIR_LIMIT = 500


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def compose(g: Perm, h: Perm) -> Perm:
    """Product g*h under the convention (g*h)(i) = g(h(i))."""
    return tuple(map(g.__getitem__, h))


@lru_cache(maxsize=None)
def inverse_perm(g: Perm) -> Perm:
    out = [0] * len(g)
    for i, v in enumerate(g):
        out[v] = i
    return tuple(out)


def perm_cycles(g: Perm) -> list[list[int]]:
    """Disjoint cycles of g, fixed points included, each starting at its
    minimum, ordered by that minimum."""
    seen = [False] * len(g)
    cycles = []
    for start in range(len(g)):
        if seen[start]:
            continue
        cur = start
        cycle = []
        while not seen[cur]:
            seen[cur] = True
            cycle.append(cur)
            cur = g[cur]
        cycles.append(cycle)
    return cycles


def cycle_type(g: Perm) -> Partition:
    """Cycle type of g as a partition of its degree (fixed points count)."""
    return Partition(tuple(sorted((len(c) for c in perm_cycles(g)), reverse=True)))


class GroupTable:
    """An explicitly listed finite group.

    `elements` is a deterministic tuple of hashable values closed under the
    operation; `mul`/`inv` implement the group law; `commutes` is an
    optional short-circuit predicate equivalent to mul(x,y) == mul(y,x);
    `generators` must generate the group; conjugacy orbits are closed under
    them, so only a table of order 1 may go without.
    """

    def __init__(
        self,
        elements: tuple,
        mul: Callable,
        inv: Callable,
        identity,
        name: str = "",
        generators: tuple = (),
        commutes: Callable | None = None,
    ):
        self.elements = tuple(elements)
        if len(self.elements) > 1 and not generators:
            raise ValueError(f"{name or 'table'} of order > 1 has no generators")
        self.mul = mul
        self.inv = inv
        self.identity = identity
        self.name = name
        self.generators = tuple(generators)
        self.commutes = commutes if commutes is not None else self._mul_commutes
        self._index: dict | None = None

    def _mul_commutes(self, x, y) -> bool:
        return self.mul(x, y) == self.mul(y, x)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, elem) -> bool:
        return elem in self.index

    @property
    def index(self) -> dict:
        if self._index is None:
            self._index = {g: i for i, g in enumerate(self.elements)}
        return self._index


def symmetric_generators(n: int) -> tuple[Perm, ...]:
    if n < 2:
        return ()
    if n == 2:
        return ((1, 0),)
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    return (swap, cycle)


def enumerate_symmetric(n: int, *, cap: int = DEFAULT_CENT_CAP) -> GroupTable:
    """The full symmetric group on n points as a table, in lexicographic
    order of one-line tuples.  n = 0 and n = 1 yield the trivial group."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if n > cap:
        raise CapExceeded(f"S_{n} with {n}! elements", "symmetric-table cap", cap)
    return GroupTable(
        elements=tuple(itertools.permutations(range(n))),
        mul=compose,
        inv=inverse_perm,
        identity=identity_perm(n),
        name=f"S_{n}",
        generators=symmetric_generators(n),
    )


def centralizer_generators(g: Perm) -> tuple[Perm, ...]:
    """Generators of Cent(g) in S_n, one Z_t wr S_m per block of m cycles
    c_0..c_(m-1) of length t: g on c_0 alone (when t > 1), and for each
    generator s of S_m the map c_k[i] -> c_s(k)[i].  `perm_cycles` lists
    every cycle in g's order, so these commute with g.
    """
    blocks: dict[int, list[list[int]]] = {}
    for cycle in perm_cycles(g):
        blocks.setdefault(len(cycle), []).append(cycle)
    gens = []
    for length, cycles in blocks.items():
        if length > 1:
            gens.append(tuple(g[i] if i in cycles[0] else i for i in range(len(g))))
        for s in symmetric_generators(len(cycles)):
            images = list(range(len(g)))
            for k, cycle in enumerate(cycles):
                for point, image in zip(cycle, cycles[s[k]]):
                    images[point] = image
            gens.append(tuple(images))
    return tuple(gens)


def centralizer(g: Perm) -> GroupTable:
    """Cent(g) in S_n, listed as the closure of `centralizer_generators(g)`
    under `compose`, in lexicographic order."""
    gens = centralizer_generators(g)
    ident = identity_perm(len(g))
    seen = {ident}
    frontier = [ident]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = compose(s, x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return GroupTable(
        elements=tuple(sorted(seen)),
        mul=compose,
        inv=inverse_perm,
        identity=ident,
        name=f"Cent({g})",
        generators=gens,
    )


@dataclass(frozen=True)
class ConjugacyClasses:
    """Partition of a group table's index range into conjugacy classes.

    Classes are ordered by their smallest element index, which is also the
    chosen representative.
    """

    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


def conjugacy_classes(table: GroupTable) -> ConjugacyClasses:
    """Orbit partition of the table under conjugation.

    The orbit of each element is closed under conjugation by the table's
    generators only: the same partition as conjugating by every element,
    with far fewer products.
    """
    elems = table.elements
    mul, inv = table.mul, table.inv
    index = table.index
    conjugators = [(s, inv(s)) for s in table.generators]
    assigned = [False] * len(elems)
    classes = []
    reps = []
    for i, g in enumerate(elems):
        if assigned[i]:
            continue
        orbit = {i}
        frontier = [g]
        assigned[i] = True
        while frontier:
            x = frontier.pop()
            for s, s_inv in conjugators:
                h = mul(mul(s, x), s_inv)
                j = index[h]
                if not assigned[j]:
                    assigned[j] = True
                    orbit.add(j)
                    frontier.append(h)
        classes.append(tuple(sorted(orbit)))
        reps.append(i)
    return ConjugacyClasses(classes=tuple(classes), representatives=tuple(reps))


def commuting_pairs(table: GroupTable, *, direct_limit: int = DIRECT_PAIR_LIMIT) -> int:
    """Number of ordered pairs (g, h) with g*h = h*g in any listed group,
    counted by direct commutation tests.

    Small tables get the plain double loop.  Larger ones (wreath tables
    above `direct_limit`) group the count over conjugacy classes --
    |Cent(g)| is constant along a class, so the sum of centralizer sizes is
    (class size) * (directly counted centralizer of one representative),
    summed over classes.  Both routes are exact and agree (tested); neither
    consults the class-count identity being verified.
    """
    elems = table.elements
    commutes = table.commutes
    n = len(elems)
    if n <= direct_limit:
        total = n  # every element commutes with itself
        for i in range(n):
            g = elems[i]
            for j in range(i + 1, n):
                if commutes(g, elems[j]):
                    total += 2
        return total
    cc = conjugacy_classes(table)
    total = 0
    for cls, rep_idx in zip(cc.classes, cc.representatives):
        rep = elems[rep_idx]
        cent = sum(1 for h in elems if commutes(rep, h))
        total += len(cls) * cent
    return total


def centralizer_pairs(g: Perm) -> int:
    """Number of ordered commuting pairs in Cent(g), g in S_n, counted by
    direct commutation tests.

    The pairs (r, h) for a fixed r number |Cent(g) & Cent(r)|, constant along
    r's class in Cent(g).  For each class representative r, that
    intersection is counted by listing the smaller of Cent(g) and Cent(r)
    (both listed from generators) and testing each element against the
    other of g and r.  `centralizer_order` only picks the side to list.
    """
    table = centralizer(g)
    elems = table.elements
    cc = conjugacy_classes(table)
    total = 0
    for cls, rep_idx in zip(cc.classes, cc.representatives):
        r = elems[rep_idx]
        if centralizer_order(cycle_type(r)) < len(elems):
            side = centralizer(r)
            count = sum(1 for h in side.elements if side.commutes(g, h))
        else:
            count = sum(1 for h in elems if table.commutes(r, h))
        total += len(cls) * count
    return total


def triples_naive(n: int, *, cap: int = DEFAULT_NAIVE_CAP) -> int:
    """Count ordered triples of pairwise-commuting permutations of n points
    by direct enumeration.

    Per element, the set of commuting partners is stored as a bitmask built
    from explicit commutation tests; a triple (a, b, c) is counted by
    intersecting the masks of a commuting pair (a, b).
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if n > cap:
        raise CapExceeded(f"naive triple count over ({n}!)^3", "naive cap", cap)
    table = enumerate_symmetric(n, cap=cap)
    elems = table.elements
    commutes = table.commutes
    size = len(elems)
    masks = [0] * size
    for i in range(size):
        masks[i] |= 1 << i
        g = elems[i]
        for j in range(i + 1, size):
            if commutes(g, elems[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    total = 0
    for i in range(size):
        m = masks[i]
        rest = m
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            total += (m & masks[j]).bit_count()
            rest ^= low
    return total


def triples_centralizer(n: int, *, cap: int = DEFAULT_CENT_CAP) -> int:
    """Count ordered pairwise-commuting triples in S_n via centralizers.

    Triples whose first element is g are in bijection with commuting pairs
    of Cent(g), and that count is constant along the conjugacy class of g,
    so the total is sum over cycle types of
    (class size) * centralizer_pairs(representative).
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if n > cap:
        raise CapExceeded(f"centralizer triple count in S_{n}", "centralizer cap", cap)
    n_fact = factorial(n)
    total = 0
    for ct in enumerate_partitions(n):
        class_size = n_fact // centralizer_order(ct)
        total += class_size * centralizer_pairs(permutation_of_type(ct))
    return total


def permutation_of_type(ct: Partition) -> Perm:
    """Canonical permutation with the given cycle type: consecutive cycles
    on 0..n-1, largest first."""
    images = list(range(ct.size))
    start = 0
    for length in ct.parts:
        for k in range(length):
            images[start + k] = start + (k + 1) % length
        start += length
    return tuple(images)
