import itertools
import random
from math import factorial
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from helpers import (
    centralizer_by_filter,
    commuting_pairs_double_loop,
    conjugacy_classes_full_sweep,
    tuple_compose,
    tuple_inverse,
)
from tricomm import permgroup
from tricomm.errors import CapExceeded
from tricomm.partitions import centralizer_order, enumerate_partitions, partition_numbers
from tricomm.permgroup import (
    GroupTable,
    centralizer,
    centralizer_pairs,
    commuting_pairs,
    compose,
    conjugacy_classes,
    cycle_type,
    enumerate_symmetric,
    identity_perm,
    inverse_perm,
    permutation_of_type,
    triples_centralizer,
    triples_naive,
)
from tricomm.wreath import enumerate_wreath


def perms(n):
    return st.permutations(list(range(n))).map(bytes)


def test_enumerate_symmetric_sizes():
    assert len(enumerate_symmetric(0)) == 1
    assert len(enumerate_symmetric(1)) == 1
    assert len(enumerate_symmetric(3)) == 6
    assert len(enumerate_symmetric(5)) == 120


def test_enumerate_symmetric_cap_guard():
    with pytest.raises(CapExceeded, match="S_9 with 9! elements exceeds symmetric-table ceiling=8"):
        enumerate_symmetric(9)


def test_table_contains_identity_and_is_closed_spot_check():
    table = enumerate_symmetric(4)
    members = set(table.elements)
    assert identity_perm(4) in members
    sample = table.elements[::5]
    for g in sample:
        assert inverse_perm(g) in members
        for h in sample:
            assert compose(g, h) in members


def test_kernel_matches_the_tuple_reference_on_all_of_s5():
    s5 = list(itertools.permutations(range(5)))
    for g in s5:
        assert inverse_perm(bytes(g)) == bytes(tuple_inverse(g))
        for h in s5:
            assert compose(bytes(g), bytes(h)) == bytes(tuple_compose(g, h))


def test_compose_and_inverse_at_the_point_limit():
    g = bytes(range(1, 256)) + b"\x00"
    assert compose(g, inverse_perm(g)) == identity_perm(256)
    assert compose(g, g) == bytes(tuple_compose(g, g))
    assert compose(b"", b"") == identity_perm(0)


@given(perms(5), perms(5), perms(5))
def test_composition_is_associative_and_respects_inverse(g, h, k):
    assert compose(compose(g, h), k) == compose(g, compose(h, k))
    assert compose(g, inverse_perm(g)) == identity_perm(5)
    assert compose(inverse_perm(g), g) == identity_perm(5)


def test_composition_convention_right_factor_acts_first():
    g = bytes((1, 0, 2))  # swaps 0,1
    h = bytes((0, 2, 1))  # swaps 1,2
    gh = compose(g, h)
    assert gh[2] == g[h[2]] == 0


def test_cycle_type_examples():
    assert cycle_type(identity_perm(4)) == (1, 1, 1, 1)
    assert cycle_type(bytes((1, 0, 3, 2))) == (2, 2)
    assert cycle_type(bytes((1, 2, 3, 4, 0))) == (5,)


def test_permutation_of_type_realizes_its_type():
    for n in range(8):
        for ct in enumerate_partitions(n):
            assert cycle_type(permutation_of_type(ct)) == ct


@given(perms(6), perms(6))
def test_cycle_type_is_conjugation_invariant(g, x):
    conj = compose(compose(x, g), inverse_perm(x))
    assert cycle_type(conj) == cycle_type(g)


def test_centralizer_examples():
    assert len(centralizer(identity_perm(4))) == 24
    assert len(centralizer(bytes((1, 0, 2)))) == 2
    assert len(centralizer(bytes((1, 0, 3, 2)))) == 8
    assert centralizer(bytes((1, 2, 0))).elements == tuple(
        map(bytes, ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    )
    assert centralizer(b"").elements == (b"",)


def scattered_conjugates_of_each_type(n):
    """Per cycle type of n, `permutation_of_type` and its conjugate by the
    shuffle that lists the even points before the odd ones, whose cycles
    are not runs of consecutive points."""
    shuffle = bytes((*range(0, n, 2), *range(1, n, 2)))
    for ct in enumerate_partitions(n):
        g = permutation_of_type(ct)
        yield g
        yield compose(compose(shuffle, g), inverse_perm(shuffle))


def test_centralizer_order_matches_cycle_type_formula():
    for n in range(9):
        table = enumerate_symmetric(n)
        inputs = table.elements if n < 7 else scattered_conjugates_of_each_type(n)
        for g in inputs:
            cent = centralizer(g)
            assert cent.elements == centralizer_by_filter(g, table)
            assert len(cent) == centralizer_order(cycle_type(g))


def test_centralizer_of_identity_is_the_symmetric_table():
    for n in range(8):
        cent = centralizer(identity_perm(n))
        table = enumerate_symmetric(n)
        assert cent.elements == table.elements
        assert cent.generators == table.generators


def test_centralizer_generators_commute_with_g_and_generate_it():
    # Closed under left multiplication by the generators, starting from
    # the identity: in a finite group that is the generated subgroup.
    for n in range(8):
        for g in scattered_conjugates_of_each_type(n):
            cent = centralizer(g)
            gens = [tuple(s) for s in cent.generators]
            for s in gens:
                assert tuple_compose(s, tuple(g)) == tuple_compose(tuple(g), s), (g, s)
            closure = {tuple(range(n))}
            frontier = list(closure)
            for x in frontier:  # the frontier grows as it is walked
                for s in gens:
                    y = tuple_compose(s, x)
                    if y not in closure:
                        closure.add(y)
                        frontier.append(y)
            assert set(map(bytes, closure)) == set(cent.elements), g


def test_group_table_refuses_missing_generators():
    with pytest.raises(ValueError, match="no generators"):
        GroupTable((b"\x00\x01", b"\x01\x00"))
    trivial = GroupTable((b"\x00",))
    assert trivial.mul is compose
    assert len(conjugacy_classes(trivial)) == 1


def test_conjugacy_classes_examples():
    assert len(conjugacy_classes(enumerate_symmetric(3))) == 3
    cc4 = conjugacy_classes(enumerate_symmetric(4))
    assert len(cc4) == 5
    assert sorted(len(cls) for cls in cc4) == [1, 3, 6, 6, 8]
    assert len(conjugacy_classes(enumerate_symmetric(0))) == 1


def test_conjugacy_classes_partition_the_table():
    for n in range(6):
        table = enumerate_symmetric(n)
        cc = conjugacy_classes(table)
        seen = sorted(i for cls in cc for i in cls)
        assert seen == list(range(len(table)))
        assert [cls[0] for cls in cc] == sorted(cls[0] for cls in cc)
        for cls in cc:
            assert list(cls) == sorted(cls)
            rep_type = cycle_type(table.elements[cls[0]])
            assert all(cycle_type(table.elements[i]) == rep_type for i in cls)


def test_class_count_equals_partition_count():
    for n in range(7):
        cc = conjugacy_classes(enumerate_symmetric(n))
        assert len(cc) == partition_numbers(n)[n]


def test_generator_bfs_matches_full_orbit_sweep():
    for n in range(6):
        table = enumerate_symmetric(n)
        for group in [table] + [centralizer(g) for g in table.elements]:
            assert conjugacy_classes(group) == conjugacy_classes_full_sweep(group)


def commuting_pairs_of(table):
    return commuting_pairs(table, conjugacy_classes(table))


def test_commuting_pairs_examples():
    assert commuting_pairs_of(enumerate_symmetric(2)) == 4
    assert commuting_pairs_of(enumerate_symmetric(3)) == 18
    assert commuting_pairs_of(enumerate_symmetric(4)) == 120


def test_commuting_pairs_grouped_equals_double_loop():
    for n in range(7):
        table = enumerate_symmetric(n)
        assert commuting_pairs_of(table) == commuting_pairs_double_loop(table)


def test_commuting_pairs_never_calls_conjugacy_classes(monkeypatch):
    tables = [enumerate_symmetric(n) for n in range(7)] + [enumerate_wreath(2, 4)]
    classes = [conjugacy_classes(table) for table in tables]

    def must_not_run(table):
        raise AssertionError("commuting_pairs recomputed the classes")

    monkeypatch.setattr(permgroup, "conjugacy_classes", must_not_run)
    for table, cc in zip(tables, classes):
        assert commuting_pairs(table, cc) == len(table) * len(cc)


def merge_two_equal_sized(classes):
    """`classes` with the first two classes of equal size merged into one."""
    for i, a in enumerate(classes):
        for j in range(i + 1, len(classes)):
            if len(classes[j]) == len(a):
                merged = tuple(sorted(a + classes[j]))
                rest = [c for k, c in enumerate(classes) if k not in (i, j)]
                return tuple(sorted(rest + [merged]))
    raise AssertionError("no two classes of equal size")


def split_the_largest(classes):
    """`classes` with the largest class cut into two halves."""
    big = max(classes, key=len)
    half = len(big) // 2
    rest = [c for c in classes if c is not big]
    return tuple(sorted(rest + [big[:half], big[half:]]))


@pytest.mark.parametrize(
    "table", [enumerate_symmetric(4), enumerate_wreath(2, 2)], ids=["S_4", "W(2,2)"]
)
@pytest.mark.parametrize("corrupt", [merge_two_equal_sized, split_the_largest])
def test_pair_identity_catches_a_bad_class_partition(table, corrupt):
    # Negative control: a merge of two equal-sized classes, or a split,
    # leaves the grouped pair count exact but changes the class count.
    cc = conjugacy_classes(table)
    bad = corrupt(cc)
    assert len(bad) != len(cc)
    assert commuting_pairs(table, bad) != len(table) * len(bad)


def test_centralizer_pairs_equals_double_loop():
    for n in range(6):
        for g in enumerate_symmetric(n).elements:
            table = centralizer(g)
            assert centralizer_pairs(g, table) == commuting_pairs_double_loop(table)


def test_centralizer_pairs_equals_commuting_pairs_on_every_cycle_type():
    for n in range(9):
        for ct in enumerate_partitions(n):
            g = permutation_of_type(ct)
            table = centralizer(g)
            assert centralizer_pairs(g, table) == commuting_pairs_of(table)


def test_centralizer_pairs_uses_both_sides(monkeypatch):
    # Cent(g) = S_2 x S_6 for g of type (2,1^6), 1440 elements: five classes
    # of Cent(g) are large enough, and their Cent(r) small enough, to be
    # listed; the rest are scanned on Cent(g) in one `commuting_pairs` call.
    g = permutation_of_type((2, 1, 1, 1, 1, 1, 1))
    table = centralizer(g)
    classes = conjugacy_classes(table)
    ratio = permgroup.LISTING_RATIO
    listed, typed, scanned = [], [], []

    def recorder(name, log, arg):
        honest = getattr(permgroup, name)

        def recording(*args):
            log.append(args[arg])
            return honest(*args)

        monkeypatch.setattr(permgroup, name, recording)

    recorder("centralizer", listed, 0)
    recorder("cycle_type", typed, 0)
    recorder("commuting_pairs", scanned, 1)
    assert centralizer_pairs(g, table) == len(table) * len(classes) == 31680
    assert len(listed) == 5 and len(scanned) == 1
    assert len(listed) + len(scanned[0]) == len(classes)
    # A class smaller than the ratio is scanned without reading its type.
    assert len(typed) == sum(len(cls) >= ratio for cls in classes)
    monkeypatch.undo()
    for r in listed:
        assert centralizer_order(cycle_type(r)) * ratio <= len(table)
    for cls in scanned[0]:
        r = table.elements[cls[0]]
        assert len(cls) < ratio or centralizer_order(cycle_type(r)) * ratio > len(table)


def test_centralizer_pairs_tests_a_listed_centralizer_against_g(monkeypatch):
    # In Cent(g) = S_2 x S_7, g a transposition, some listed Cent(r) are
    # not inside Cent(g), so each must be tested against g, not r.
    g = permutation_of_type((2,) + (1,) * 7)
    table = centralizer(g)
    listed = []
    honest = permgroup.centralizer

    def recording(x):
        listed.append(honest(x))
        return listed[-1]

    monkeypatch.setattr(permgroup, "centralizer", recording)
    assert centralizer_pairs(g, table) == commuting_pairs_of(table) == len(table) * 2 * 15
    assert any(compose(g, h) != compose(h, g) for cent in listed for h in cent.elements)


def check_counter(elements, xs=None):
    """`_commuting_counter(elements)` against the filter for each x in `xs`
    (default: every element) and its sum against the double loop."""
    count = permgroup._commuting_counter(tuple(elements))
    table = SimpleNamespace(elements=tuple(elements), mul=compose)
    for x in elements if xs is None else xs:
        assert count(x) == len(centralizer_by_filter(x, table))
    if xs is None:
        assert sum(map(count, elements)) == commuting_pairs_double_loop(table)


def test_commuting_counter_on_random_subsets():
    rng = random.Random(27)
    tables = [enumerate_symmetric(n) for n in range(8)]
    tables += [enumerate_wreath(t, m) for t, m in [(2, 2), (3, 2), (2, 3), (4, 2), (2, 4), (3, 3)]]
    for table in tables:
        for _ in range(3):
            k = rng.randint(1, min(len(table), 60))
            check_counter(rng.sample(table.elements, k))


def test_commuting_counter_on_full_symmetric_tables():
    # Every x against every h in S_0..S_5.  h*x and x*h differ on the points
    # their commutator moves, never on just the last one or two; in S_5,
    # x = (2 3) and h = (3 4) differ on exactly the last three.
    for n in range(6):
        check_counter(enumerate_symmetric(n).elements)


def test_commuting_counter_on_degrees_zero_and_one():
    for n in (0, 1):
        check_counter(enumerate_symmetric(n).elements)
        check_counter(enumerate_symmetric(n).elements * 300)


def test_commuting_counter_on_tables_above_256_and_4096_elements():
    rng = random.Random(11)
    s6 = enumerate_symmetric(6).elements
    check_counter(s6, rng.sample(s6, 40))
    # 5040 elements: two join chunks, the second partial.
    s7 = enumerate_symmetric(7).elements
    assert len(s7) > permgroup.JOIN_CHUNK
    check_counter(s7, rng.sample(s7, 8) + [identity_perm(7)])
    w = enumerate_wreath(2, 5).elements
    check_counter(w, rng.sample(w, 20))


def test_commuting_counter_reads_the_first_and_last_rows():
    # x commutes with every element but one, placed first or last, and
    # with none but one: each byte of the difference is read, none padded.
    x = bytes((1, 0, 2, 3))
    commuting = bytes((1, 0, 3, 2))
    other = bytes((0, 2, 1, 3))
    for size in (1, 2, 300, permgroup.JOIN_CHUNK + 1):
        rows = [commuting] * (size - 1)
        count = permgroup._commuting_counter(tuple(rows + [other]))
        assert count(x) == size - 1
        count = permgroup._commuting_counter(tuple([other] + rows))
        assert count(x) == size - 1
        count = permgroup._commuting_counter(tuple([other] * (size - 1) + [commuting]))
        assert count(x) == 1
        check_counter(rows[:50] + [other], [x, other])


def test_commuting_counter_on_256_points():
    # W(256, 1) acts on 256 points, so `translate` gets x with no pad.
    cyclic = enumerate_wreath(256, 1).elements
    assert len(cyclic[0]) == permgroup.POINT_LIMIT
    count = permgroup._commuting_counter(cyclic)
    assert {count(x) for x in cyclic[::17]} == {256}
    swap = bytes((1, 0, *range(2, 256)))
    rng = random.Random(3)
    check_counter(rng.sample(cyclic, 40) + [swap], cyclic[:5] + (swap,))


def test_triples_naive_examples():
    assert triples_naive(0) == 1
    assert triples_naive(1) == 1
    assert triples_naive(2) == 8
    assert triples_naive(3) == 48


def test_triples_naive_cap_guard():
    for n in (6, 7):
        with pytest.raises(CapExceeded, match=rf"over \({n}!\)\^3 exceeds naive ceiling=5"):
            triples_naive(n)


def test_triples_centralizer_examples():
    assert triples_centralizer(0) == 1
    assert triples_centralizer(3) == 48
    assert triples_centralizer(4) == 504


def test_triples_centralizer_matches_naive():
    for n in range(6):
        assert triples_centralizer(n) == triples_naive(n)


def test_triples_centralizer_matches_a079860_up_to_degree_9():
    expected = [1, 1, 8, 48, 504, 4680, 66240, 856800, 14515200, 242040960]
    assert [triples_centralizer(n) for n in range(10)] == expected


def test_triples_centralizer_never_lists_the_identitys_centralizer(monkeypatch):
    listed = []
    honest = permgroup.centralizer

    def recording(x):
        listed.append(x)
        return honest(x)

    monkeypatch.setattr(permgroup, "centralizer", recording)
    for n in range(1, 9):
        listed.clear()
        triples_centralizer(n)
        assert identity_perm(n) not in listed


def test_triples_centralizer_never_lists_the_symmetric_group(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("triples_centralizer listed S_n")

    monkeypatch.setattr(permgroup, "enumerate_symmetric", must_not_run)
    for n in range(9):
        triples_centralizer(n)


def test_triples_centralizer_sweeps_no_table_of_order_n_factorial(monkeypatch):
    sizes = []
    honest = permgroup.conjugacy_classes

    def recording(table):
        sizes.append(len(table))
        return honest(table)

    monkeypatch.setattr(permgroup, "conjugacy_classes", recording)
    for n in range(3, 9):
        sizes.clear()
        triples_centralizer(n)
        assert sizes and factorial(n) not in sizes


def test_triples_centralizer_cap_guard():
    for n in (12, 10**30):
        with pytest.raises(CapExceeded, match="centralizer ceiling=11"):
            triples_centralizer(n)


def test_factorial_divides_triple_counts():
    for n in range(8):
        assert triples_centralizer(n) % factorial(n) == 0
