"""Concrete symmetric-group machinery and generic finite-group brute force.

Permutations are 0-indexed one-line `bytes`: `g[i]` is the image of point
i, so a permutation moves at most `POINT_LIMIT` (256) points.  The
composition convention is fixed once here and used everywhere:

    compose(g, h)(i) = g(h(i))        # h first, then g

which is one `bytes.translate` of h through g, padded to the 256-byte table
that `translate` takes.  A cycle type is a plain non-increasing tuple of
cycle lengths, fixed points included: a partition of the degree as
`tricomm.partitions` stores it.

`GroupTable` packages an explicit list of such permutations with its
generators, so the class/pair/triple counters below work for any finite
permutation group we can list (symmetric groups and centralizers here,
wreath products embedded in S_(t*m) in `tricomm.wreath`).
"""

import itertools
from math import factorial

from .errors import CapExceeded
from .partitions import centralizer_order, enumerate_partitions

Perm = bytes

# `bytes.translate` takes a table of exactly 256 bytes: `g + PAD[len(g):]`.
PAD = bytes(256)
POINT_LIMIT = len(PAD)

# One limit per brute-force layer, each refused before any work.
# `enumerate_symmetric` lists S_n up to this degree: S_8 has 40,320 elements.
SYMMETRIC_CEILING = 8
# Route C refuses a degree above this.  `brute -N 10` takes about 0.45 s
# and 26 MB, and `brute -N 11` about 4.1 s and 146 MB, start-up included
# (medians of 5 runs; Python 3.11, 2 vCPUs, shared host).  Degree 12 is out
# of reach: Cent of type (2,1^10) alone has 7,257,600 elements.
CENT_CEILING = 11
# The naive oracle refuses a degree above this, the top of `verify`'s naive
# range.  Degree 6 takes about 0.13 s (Python 3.11, 2 vCPUs), which would be
# added to every `verify -K 6` and above; degree 7, with 49 times its pair
# tests, about 6.4 s.
NAIVE_CEILING = 5


def identity_perm(degree: int) -> Perm:
    return bytes(range(degree))


def compose(g: Perm, h: Perm) -> Perm:
    """Product g*h under the convention (g*h)(i) = g(h(i))."""
    return h.translate(g + PAD[len(g):])


def inverse_perm(g: Perm) -> Perm:
    out = bytearray(len(g))
    for i, v in enumerate(g):
        out[v] = i
    return bytes(out)


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


def cycle_type(g: Perm) -> tuple[int, ...]:
    """Cycle type of g as a partition of its degree (fixed points count)."""
    return tuple(sorted(map(len, perm_cycles(g)), reverse=True))


class GroupTable:
    """An explicitly listed permutation group.

    `elements` is a deterministic tuple of `bytes` permutations of one
    degree, closed under `compose`; `generators` must generate the group;
    conjugacy orbits are closed under them, so only a table of order 1 may
    go without.  `mul` is `compose` as this module binds it when the table
    is built.
    """

    def __init__(self, elements: tuple, generators: tuple = ()):
        self.elements = tuple(elements)
        if len(self.elements) > 1 and not generators:
            raise ValueError("table of order > 1 has no generators")
        self.mul = compose
        self.generators = tuple(generators)

    def _mul_commutes(self, x, y) -> bool:
        return self.mul(x, y) == self.mul(y, x)

    def __len__(self) -> int:
        return len(self.elements)


def symmetric_generators(n: int) -> tuple[Perm, ...]:
    if n < 2:
        return ()
    if n == 2:
        return (b"\x01\x00",)
    swap = bytes((1, 0, *range(2, n)))
    cycle = bytes((*range(1, n), 0))
    return (swap, cycle)


def enumerate_symmetric(n: int) -> GroupTable:
    """The full symmetric group on n points as a table, in lexicographic
    order of one-line forms.  n = 0 and n = 1 yield the trivial group."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if n > SYMMETRIC_CEILING:
        raise CapExceeded(
            f"S_{n} with {n}! elements", "symmetric-table ceiling", SYMMETRIC_CEILING
        )
    return GroupTable(
        elements=tuple(map(bytes, itertools.permutations(range(n)))),
        generators=symmetric_generators(n),
    )


def centralizer(g: Perm) -> GroupTable:
    """Cent(g) in S_n, listed directly in lexicographic order.

    Cent(g) is the product over cycle lengths t of Z_t wr S_m, m the number
    of g's cycles of length t: each element sends those cycles to one
    another, rotating each.  With the cycles written point after point, an
    element's images in that order are one concatenation of rotated cycles
    per block, and one `translate` through them of the points' positions
    puts them in one-line form.  The generators are, per block of cycles
    c_0..c_(m-1) of length t: g on c_0 alone (when t > 1), and for each
    generator s of S_m the map c_k[i] -> c_s(k)[i].  `perm_cycles` lists
    every cycle in g's order, so these commute with g.
    """
    blocks: dict[int, list[list[int]]] = {}
    for cycle in perm_cycles(g):
        blocks.setdefault(len(cycle), []).append(cycle)
    points = []
    block_images = []
    generators = []
    for length, cycles in blocks.items():
        points += [p for c in cycles for p in c]
        rotations = [[bytes(c[k:] + c[:k]) for k in range(length)] for c in cycles]
        block_images.append([
            b"".join(choice)
            for targets in itertools.permutations(rotations)
            for choice in itertools.product(*targets)
        ])
        if length > 1:
            generators.append(bytes(g[i] if i in cycles[0] else i for i in range(len(g))))
        for s in symmetric_generators(len(cycles)):
            images = bytearray(range(len(g)))
            for k, cycle in enumerate(cycles):
                for point, image in zip(cycle, cycles[s[k]]):
                    images[point] = image
            generators.append(bytes(images))
    position = bytearray(len(g))
    for k, p in enumerate(points):
        position[p] = k
    position = bytes(position)
    pad = PAD[len(g):]
    elements = sorted(
        position.translate(b"".join(images) + pad)
        for images in itertools.product(*block_images)
    )
    return GroupTable(elements=tuple(elements), generators=tuple(generators))


def conjugacy_classes(table: GroupTable) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the table's index range under conjugation.

    Each class is an ascending tuple of indices, so `cls[0]` is its
    representative; classes are ordered by it.  The orbit of each element
    is closed under conjugation by the table's generators only: the same
    partition as conjugating by every element, with far fewer products.
    A generator that commutes with every other one is central and moves
    nothing, so it is skipped.  s*x*s^-1 is two `translate`s: x through s,
    then s^-1 through that.
    """
    elems = table.elements
    index = {g: i for i, g in enumerate(elems)}
    pad = PAD[len(elems[0]):]
    gens = table.generators
    conjugators = [
        (s + pad, inverse_perm(s))
        for s in gens
        if any(compose(s, u) != compose(u, s) for u in gens)
    ]
    assigned = [False] * len(elems)
    classes = []
    for i in range(len(elems)):
        if assigned[i]:
            continue
        assigned[i] = True
        orbit = [i]
        for k in orbit:  # the orbit grows as it is walked
            x = elems[k]
            for s_table, s_inv in conjugators:
                j = index[s_inv.translate(x.translate(s_table) + pad)]
                if not assigned[j]:
                    assigned[j] = True
                    orbit.append(j)
        classes.append(tuple(sorted(orbit)))
    return tuple(classes)


def commuting_pairs(table: GroupTable, classes: tuple[tuple[int, ...], ...]) -> int:
    """Number of ordered pairs (g, h) with g*h = h*g in any listed group,
    counted by direct commutation tests.

    `classes` are the table's conjugacy classes, as `conjugacy_classes`
    returns them, or any subset of them.  |Cent(g)| is constant along a
    class, so the count is (class size) * (directly counted centralizer of
    its first element), summed over classes; it never consults the
    class-count identity being verified.  One `_commuting_counter` serves
    every class.
    """
    elems = table.elements
    count = _commuting_counter(elems)
    return sum(len(cls) * count(elems[cls[0]]) for cls in classes)


# Route C lists Cent(r) only when it is at least this many times smaller than
# Cent(g): a scan of Cent(g) costs about n bytes of C work per element, a
# listing of Cent(r) Python work per element plus a fixed cost per call.
# `coeffs_brute(11)` in-process (3 runs; Python 3.11, 2 vCPUs, shared host)
# took 3.5-4.0 s at 64, 3.5-4.4 s at 32, 3.6-4.5 s at 128 and 4.0-4.7 s at
# 256; listing no Cent(r) at all took 4.9-5.6 s.
LISTING_RATIO = 64


def centralizer_pairs(g: Perm, table: GroupTable) -> int:
    """Number of ordered commuting pairs in Cent(g), g in S_n, counted by
    direct commutation tests; `table` is Cent(g) as `centralizer(g)` lists it.

    The pairs (r, h) for a fixed r number |Cent(g) & Cent(r)|, constant along
    r's class in Cent(g).  For each class representative r, that
    intersection is counted on one side: Cent(r), listed by `centralizer`
    and tested against g, when it is at least `LISTING_RATIO` times smaller
    than Cent(g); otherwise Cent(g) is tested against r, all such classes
    in one `commuting_pairs` call.  Since |Cent(r)| >= |Cent(g)| / |class|,
    a class smaller than `LISTING_RATIO` is scanned without reading r's
    cycle type; `centralizer_order` only picks the side.
    """
    elems = table.elements
    listed = 0
    scanned = []
    for cls in conjugacy_classes(table):
        if len(cls) >= LISTING_RATIO:
            r = elems[cls[0]]
            if centralizer_order(cycle_type(r)) * LISTING_RATIO <= len(elems):
                listed += len(cls) * _commuting_counter(centralizer(r).elements)(g)
                continue
        scanned.append(cls)
    return listed + commuting_pairs(table, tuple(scanned))


# `_commuting_counter` joins the elements this many at a time: one join of
# the whole table allocates a buffer record per element (+40 MB at
# `brute -N 11`).
JOIN_CHUNK = 4096


def _commuting_counter(elements: tuple[Perm, ...]):
    """A function counting how many of `elements` commute with a given x,
    each by a direct test on every point, run for all elements at once.

    The elements are stored column by column: column i holds every
    element's image of point i, as `bytes` and as a little-endian `int`
    with one byte per element.  For each point i, h*x(i) = h[x[i]] is
    column x[i] and x*h(i) = x[h[i]] is column i translated through x; the
    XOR of the two is zero in exactly the bytes of the elements that agree
    at i.  OR-ing over every point but the last two leaves a zero byte for
    exactly the elements that commute with x.  h*x = x*h*c with
    c = (x*h)^-1 * (h*x), a commutator and so an even permutation, and
    h*x and x*h differ exactly on the points that c moves.  An even
    permutation never moves exactly one or two points, so if h*x and x*h
    agree on n - 2 points they agree on all n.  At degrees 0, 1 and 2 no
    point is compared, and every element counts as commuting: S_0, S_1 and
    S_2 are abelian.
    """
    size = len(elements)
    degree = len(elements[0])
    chunks = [
        b"".join(elements[start:start + JOIN_CHUNK]) for start in range(0, size, JOIN_CHUNK)
    ]
    columns = [b"".join([chunk[i::degree] for chunk in chunks]) for i in range(degree)]
    values = [int.from_bytes(column, "little") for column in columns]
    pad = PAD[degree:]

    def count(x: Perm) -> int:
        x_table = x + pad
        diff = 0
        for column, image in zip(columns, x[:-2]):
            diff |= values[image] ^ int.from_bytes(column.translate(x_table), "little")
        return diff.to_bytes(size, "little").count(0)

    return count


def require_cent_degree(n: int) -> None:
    """Refuse route C at degree n above CENT_CEILING."""
    if n > CENT_CEILING:
        raise CapExceeded(
            f"centralizer triple count in S_{n}", "centralizer ceiling", CENT_CEILING
        )


def triples_naive(n: int) -> int:
    """Count ordered triples of pairwise-commuting permutations of n points
    by direct enumeration.

    Per element, the set of commuting partners is stored as a bitmask built
    from one explicit commutation test per unordered pair; a triple
    (a, b, c) is counted by intersecting the masks of a commuting pair
    (a, b).  Each test is two `compose` calls through `_mul_commutes`; the
    loop shares no code with route C or `commuting_pairs`, so `verify` uses
    it as an independent oracle.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    if n > NAIVE_CEILING:
        raise CapExceeded(f"naive triple count over ({n}!)^3", "naive ceiling", NAIVE_CEILING)
    table = enumerate_symmetric(n)
    elems = table.elements
    commutes = table._mul_commutes
    size = len(elems)
    masks = [1 << i for i in range(size)]
    for i in range(size):
        g = elems[i]
        for j in range(i + 1, size):
            if commutes(g, elems[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    total = 0
    for m in masks:
        rest = m
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            total += (m & masks[j]).bit_count()
            rest ^= low
    return total


def triples_centralizer(n: int) -> int:
    """Count ordered pairwise-commuting triples in S_n via centralizers.

    Triples whose first element is g are in bijection with commuting pairs
    of Cent(g), and that count is constant along the conjugacy class of g,
    so the total is sum over cycle types of
    (class size) * centralizer_pairs(representative).

    S_n itself is never listed.  The identity's term, the commuting pairs of
    S_n, is sum over r of |Cent(r)|: n! for r = id plus (class size) *
    |Cent(g)| for every other cycle type, read off the centralizers that the
    loop lists anyway.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    require_cent_degree(n)
    n_fact = factorial(n)
    ident = identity_perm(n)
    pairs = n_fact  # r = id commutes with all of S_n
    total = 0
    for ct in enumerate_partitions(n):
        g = permutation_of_type(ct)
        if g == ident:
            continue
        class_size = n_fact // centralizer_order(ct)
        table = centralizer(g)
        pairs += class_size * len(table)
        total += class_size * centralizer_pairs(g, table)
    return total + pairs  # the identity's class adds the pairs of S_n


def permutation_of_type(ct: tuple[int, ...]) -> Perm:
    """Canonical permutation with the given cycle type: consecutive cycles
    on 0..n-1, largest first."""
    images = bytearray(range(sum(ct)))
    start = 0
    for length in ct:
        for k in range(length):
            images[start + k] = start + (k + 1) % length
        start += length
    return bytes(images)
