from math import factorial

import pytest
from hypothesis import given, strategies as st

from helpers import (
    centralizer_by_filter,
    commuting_pairs_double_loop,
    conjugacy_classes_full_sweep,
)
from tricomm import permgroup
from tricomm.errors import CapExceeded
from tricomm.partitions import (
    Partition,
    centralizer_order,
    enumerate_partitions,
    partition_count,
)
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


def perms(n):
    return st.permutations(list(range(n))).map(tuple)


def test_enumerate_symmetric_sizes():
    assert len(enumerate_symmetric(0)) == 1
    assert len(enumerate_symmetric(1)) == 1
    assert len(enumerate_symmetric(3)) == 6
    assert len(enumerate_symmetric(5)) == 120


def test_enumerate_symmetric_cap_guard():
    with pytest.raises(CapExceeded, match="cap=8"):
        enumerate_symmetric(9)
    # the cap is configuration, not a hard limit
    assert len(enumerate_symmetric(4, cap=4)) == 24
    with pytest.raises(CapExceeded):
        enumerate_symmetric(5, cap=4)


def test_table_contains_identity_and_is_closed_spot_check():
    table = enumerate_symmetric(4)
    assert table.identity in table
    sample = table.elements[::5]
    for g in sample:
        assert inverse_perm(g) in table
        for h in sample:
            assert compose(g, h) in table


@given(perms(5), perms(5), perms(5))
def test_composition_is_associative_and_respects_inverse(g, h, k):
    assert compose(compose(g, h), k) == compose(g, compose(h, k))
    assert compose(g, inverse_perm(g)) == identity_perm(5)
    assert compose(inverse_perm(g), g) == identity_perm(5)


def test_composition_convention_right_factor_acts_first():
    g = (1, 0, 2)  # swaps 0,1
    h = (0, 2, 1)  # swaps 1,2
    gh = compose(g, h)
    assert gh[2] == g[h[2]] == 0


def test_cycle_type_examples():
    assert cycle_type(identity_perm(4)) == Partition((1, 1, 1, 1))
    assert cycle_type((1, 0, 3, 2)) == Partition((2, 2))
    assert cycle_type((1, 2, 3, 4, 0)) == Partition((5,))


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
    assert len(centralizer((1, 0, 2))) == 2
    assert len(centralizer((1, 0, 3, 2))) == 8
    assert centralizer((1, 2, 0)).elements == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert centralizer(()).elements == ((),)


def test_centralizer_order_matches_cycle_type_formula():
    for n in range(7):
        table = enumerate_symmetric(n)
        for g in table.elements:
            cent = centralizer(g)
            assert cent.elements == centralizer_by_filter(g, table)
            assert len(cent) == centralizer_order(cycle_type(g))


def test_centralizer_of_identity_is_the_symmetric_table():
    for n in range(8):
        cent = centralizer(identity_perm(n))
        table = enumerate_symmetric(n)
        assert cent.elements == table.elements
        assert cent.generators == table.generators


def test_group_table_refuses_missing_generators():
    with pytest.raises(ValueError, match="no generators"):
        GroupTable(((0, 1), (1, 0)), compose, inverse_perm, (0, 1), name="S_2")
    trivial = GroupTable(((0,),), compose, inverse_perm, (0,))
    assert conjugacy_classes(trivial).num_classes == 1


def test_conjugacy_classes_examples():
    assert conjugacy_classes(enumerate_symmetric(3)).num_classes == 3
    cc4 = conjugacy_classes(enumerate_symmetric(4))
    assert cc4.num_classes == 5
    assert sorted(cc4.sizes) == [1, 3, 6, 6, 8]
    assert conjugacy_classes(enumerate_symmetric(0)).num_classes == 1


def test_conjugacy_classes_partition_the_table():
    for n in range(6):
        table = enumerate_symmetric(n)
        cc = conjugacy_classes(table)
        seen = sorted(i for cls in cc.classes for i in cls)
        assert seen == list(range(len(table)))
        for cls, rep in zip(cc.classes, cc.representatives):
            assert rep == min(cls)
            rep_type = cycle_type(table.elements[rep])
            assert all(cycle_type(table.elements[i]) == rep_type for i in cls)


def test_class_count_equals_partition_count():
    for n in range(7):
        cc = conjugacy_classes(enumerate_symmetric(n))
        assert cc.num_classes == partition_count(n)


def test_generator_bfs_matches_full_orbit_sweep():
    for n in range(6):
        table = enumerate_symmetric(n)
        for group in [table] + [centralizer(g) for g in table.elements]:
            assert conjugacy_classes(group) == conjugacy_classes_full_sweep(group)


def test_commuting_pairs_examples():
    assert commuting_pairs(enumerate_symmetric(2)) == 4
    assert commuting_pairs(enumerate_symmetric(3)) == 18
    assert commuting_pairs(enumerate_symmetric(4)) == 120


def test_commuting_pairs_grouped_equals_direct():
    for n in range(6):
        table = enumerate_symmetric(n)
        direct = commuting_pairs(table, direct_limit=10**9)
        grouped = commuting_pairs(table, direct_limit=0)
        assert direct == grouped == commuting_pairs_double_loop(table)


def test_centralizer_pairs_equals_double_loop():
    for n in range(6):
        for g in enumerate_symmetric(n).elements:
            assert centralizer_pairs(g) == commuting_pairs_double_loop(centralizer(g))


def test_centralizer_pairs_equals_commuting_pairs_on_every_cycle_type():
    for n in range(8):
        for ct in enumerate_partitions(n):
            g = permutation_of_type(ct)
            assert centralizer_pairs(g) == commuting_pairs(centralizer(g))


def test_centralizer_pairs_uses_both_sides(monkeypatch):
    # In S_4 with g = id, r = id sweeps Cent(g) itself; every other class
    # representative, a transposition among them, lists its own smaller
    # centralizer.
    listed = []
    honest = permgroup.centralizer

    def recording(x):
        listed.append(x)
        return honest(x)

    monkeypatch.setattr(permgroup, "centralizer", recording)
    g = identity_perm(4)
    assert centralizer_pairs(g) == 120
    assert listed[0] == g
    assert listed.count(g) == 1
    assert Partition((2, 1, 1)) in {cycle_type(r) for r in listed[1:]}
    # Cent(g) once, then one listing per class except that of r = id.
    assert len(listed) == partition_count(4)


def test_triples_naive_examples():
    assert triples_naive(0) == 1
    assert triples_naive(1) == 1
    assert triples_naive(2) == 8
    assert triples_naive(3) == 48


def test_triples_naive_cap_guard():
    with pytest.raises(CapExceeded, match="naive cap"):
        triples_naive(6)
    with pytest.raises(CapExceeded):
        triples_naive(4, cap=3)


def test_triples_centralizer_examples():
    assert triples_centralizer(0) == 1
    assert triples_centralizer(3) == 48
    assert triples_centralizer(4) == 504


def test_triples_centralizer_matches_naive():
    for n in range(6):
        assert triples_centralizer(n) == triples_naive(n)


def test_triples_centralizer_cap_guard():
    with pytest.raises(CapExceeded, match="centralizer cap"):
        triples_centralizer(9)


def test_factorial_divides_triple_counts():
    for n in range(8):
        assert triples_centralizer(n) % factorial(n) == 0
