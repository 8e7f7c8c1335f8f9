import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from helpers import partition_series, substitute_power, wreath_family
from tricomm import wreath
from tricomm.errors import CapExceeded
from tricomm.partitions import Partition, partition_count
from tricomm.permgroup import conjugacy_classes
from tricomm.series import power
from tricomm.wreath import (
    WreathElement,
    class_label_of,
    class_structure_report,
    conjugate_by_invariants,
    cycle_sum_invariants,
    enumerate_class_labels,
    enumerate_wreath,
    k_wreath,
    w_identity,
    w_inv,
    w_mul,
    wreath_element,
)


@st.composite
def wreath_elements(draw, t, m):
    colors = draw(st.tuples(*[st.integers(0, t - 1)] * m))
    perm = tuple(draw(st.permutations(list(range(m)))))
    return WreathElement(colors, perm, t)


def test_factory_validation():
    wreath_element((0, 1), (1, 0), 2)
    with pytest.raises(ValueError):
        wreath_element((0, 1), (0, 1, 2), 2)  # length mismatch
    with pytest.raises(ValueError):
        wreath_element((0, 2), (0, 1), 2)  # color out of range
    with pytest.raises(ValueError):
        wreath_element((0, 0), (0, 0), 2)  # not a permutation
    with pytest.raises(ValueError):
        wreath_element((), (), 0)  # modulus must be positive


def test_mul_identity_and_inverse():
    table = enumerate_wreath(3, 2)
    e = w_identity(3, 2)
    for x in table.elements:
        assert w_mul(x, e) == x
        assert w_mul(e, x) == x
        assert w_mul(x, w_inv(x)) == e
        assert w_mul(w_inv(x), x) == e


def test_mul_example_order_four_element():
    x = wreath_element((1, 0), (1, 0), 2)
    x2 = w_mul(x, x)
    assert x2 == wreath_element((1, 1), (0, 1), 2)
    x4 = w_mul(x2, x2)
    assert x4 == w_identity(2, 2)
    assert x2 != w_identity(2, 2)  # so x has order exactly 4


def test_mul_rejects_mismatched_groups():
    with pytest.raises(ValueError):
        w_mul(w_identity(2, 2), w_identity(3, 2))
    with pytest.raises(ValueError):
        w_mul(w_identity(2, 2), w_identity(2, 3))


@pytest.mark.parametrize("t,m", [(2, 2), (3, 2), (2, 3)])
def test_mul_associative_exhaustive(t, m):
    elems = enumerate_wreath(t, m).elements
    for x, y, z in itertools.product(elems, repeat=3):
        assert w_mul(w_mul(x, y), z) == w_mul(x, w_mul(y, z))


def test_mul_associative_randomized_w43():
    rng = random.Random(20240817)
    elems = enumerate_wreath(4, 3).elements
    for _ in range(1000):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert w_mul(w_mul(x, y), z) == w_mul(x, w_mul(y, z))


def test_commutes_predicate_matches_products():
    for t, m in [(2, 2), (3, 2), (2, 3)]:
        elems = enumerate_wreath(t, m).elements
        for x, y in itertools.product(elems, repeat=2):
            assert wreath.w_commutes(x, y) == (w_mul(x, y) == w_mul(y, x))


def test_cycle_sum_invariants_examples():
    assert cycle_sum_invariants(w_identity(3, 2)) == ((0, 1), (0, 1))
    x = wreath_element((1, 2, 0), (1, 0, 2), 3)
    assert cycle_sum_invariants(x) == ((0, 1), (0, 2))
    assert cycle_sum_invariants(wreath_element((1,), (0,), 4)) == ((1, 1),)


@settings(max_examples=200)
@given(st.data())
def test_invariants_are_conjugation_invariant(data):
    t = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 5))
    x = data.draw(wreath_elements(t, m))
    y = data.draw(wreath_elements(t, m))
    conj = w_mul(w_mul(y, x), w_inv(y))
    assert cycle_sum_invariants(conj) == cycle_sum_invariants(x)
    assert class_label_of(conj) == class_label_of(x)


def test_conjugate_by_invariants_examples():
    x = wreath_element((1, 0), (0, 1), 2)
    y = wreath_element((0, 1), (0, 1), 2)
    assert conjugate_by_invariants(x, x)
    assert conjugate_by_invariants(x, y)
    assert not conjugate_by_invariants(w_identity(2, 2), x)
    with pytest.raises(ValueError):
        conjugate_by_invariants(w_identity(2, 2), w_identity(3, 2))


def test_conjugate_by_invariants_agrees_with_orbits_w22():
    table = enumerate_wreath(2, 2)
    cc = conjugacy_classes(table)
    same_orbit = {}
    for ci, cls in enumerate(cc):
        for i in cls:
            same_orbit[i] = ci
    for i, x in enumerate(table.elements):
        for j, y in enumerate(table.elements):
            assert conjugate_by_invariants(x, y) == (same_orbit[i] == same_orbit[j])


def test_enumerate_wreath_sizes_and_caps():
    assert len(enumerate_wreath(2, 2)) == 8
    assert len(enumerate_wreath(1, 3)) == 6
    assert len(enumerate_wreath(3, 1)) == 3
    with pytest.raises(CapExceeded, match="wreath-table cap"):
        enumerate_wreath(10, 5)
    with pytest.raises(CapExceeded):
        enumerate_wreath(2, 2, cap=7)


def test_trivial_color_group_behaves_like_symmetric_group():
    table = enumerate_wreath(1, 3)
    for x, y in itertools.product(table.elements, repeat=2):
        product = w_mul(x, y)
        assert product.perm == tuple(x.perm[y.perm[i]] for i in range(3))
        assert product.colors == (0, 0, 0)
    assert len(conjugacy_classes(table)) == 3


def test_wreath_of_single_point_is_cyclic():
    table = enumerate_wreath(4, 1)
    assert len(table) == 4
    assert len(conjugacy_classes(table)) == 4
    g = wreath_element((1,), (0,), 4)
    acc = w_identity(4, 1)
    seen = set()
    for _ in range(4):
        seen.add(acc)
        acc = w_mul(acc, g)
    assert len(seen) == 4  # generated by a single element


def test_conjugacy_classes_brute_examples():
    assert len(conjugacy_classes(enumerate_wreath(2, 2))) == 5
    assert len(conjugacy_classes(enumerate_wreath(1, 4))) == 5
    assert len(conjugacy_classes(enumerate_wreath(4, 1))) == 4


def test_k_wreath_examples():
    for t in (1, 2, 5, 9):
        assert k_wreath(t, 0) == 1
    for m in range(15):
        assert k_wreath(1, m) == partition_count(m)
    assert k_wreath(2, 2) == 5


def test_k_wreath_rejects_bad_arguments():
    with pytest.raises(ValueError):
        k_wreath(0, 2)
    with pytest.raises(ValueError):
        k_wreath(2, -1)
    with pytest.raises(ValueError, match="modulus must be >= 1, got 0"):
        wreath.k_wreath_series(0, 3)
    with pytest.raises(ValueError, match="modulus must be >= 1, got -1"):
        wreath.k_wreath_series(-1, 3)


def test_k_wreath_substituted_series_consistency():
    # Reading the class count off P(u^t)^t at exponent t*m must match
    # reading it off P(u)^t at exponent m.
    for t in range(1, 6):
        for m in range(0, 7):
            order = t * m
            substituted = power(
                substitute_power(partition_series(order), t, order), t, order
            )
            assert substituted[t * m] == k_wreath(t, m)


def test_k_wreath_series_matches_fresh_power():
    for t in range(1, 6):
        for m in range(0, 31):
            assert wreath.k_wreath_series(t, m) == power(partition_series(m), t, m)


def test_k_wreath_series_cap_refuses_before_any_work(monkeypatch):
    assert wreath.k_wreath_series(4000, 1).coeffs == (1, 4000)

    def must_not_run(n_max):
        raise AssertionError("work done before the series-order cap refusal")

    monkeypatch.setattr(wreath, "partition_numbers", must_not_run)
    with pytest.raises(CapExceeded, match="series-order cap=4000"):
        k_wreath(2, 2001)
    with pytest.raises(CapExceeded, match="series-order cap=4000"):
        wreath.k_wreath_series(4001, 1)


def test_enumerate_class_labels_examples():
    labels13 = enumerate_class_labels(1, 3)
    assert len(labels13) == 3
    labels21 = enumerate_class_labels(2, 1)
    assert [tuple(p.parts for p in lbl.lambdas) for lbl in labels21] == [
        ((1,), ()),
        ((), (1,)),
    ]
    labels22 = enumerate_class_labels(2, 2)
    assert [tuple(p.parts for p in lbl.lambdas) for lbl in labels22] == [
        ((2,), ()),
        ((), (2,)),
        ((1, 1), ()),
        ((1,), (1,)),
        ((), (1, 1)),
    ]


def test_enumerate_class_labels_needs_no_stack_per_residue():
    t = sys.getrecursionlimit() + 10
    labels = enumerate_class_labels(t, 1)
    assert len(set(labels)) == len(labels) == k_wreath(t, 1) == t


def test_enumerated_labels_are_the_labels_of_the_elements():
    for t, m in wreath_family(400, t_max=4, m_max=4):
        elements = enumerate_wreath(t, m).elements
        assert set(enumerate_class_labels(t, m)) == set(map(class_label_of, elements))


def test_class_labels_are_distinct_and_sized():
    for t, m in wreath_family(2000, t_max=5, m_max=5):
        labels = enumerate_class_labels(t, m)
        assert len(set(map(str, labels))) == len(labels) == k_wreath(t, m)
        for lbl in labels:
            assert sum(p.size for p in lbl.lambdas) == m
            assert len(lbl.lambdas) == t


def test_label_enumeration_length_matches_series_count():
    # no group enumeration here: pure combinatorics against the series
    for t, m in wreath_family(5000):
        assert len(enumerate_class_labels(t, m)) == k_wreath(t, m)


def test_class_label_of_examples():
    ident = class_label_of(w_identity(2, 3))
    assert ident.lambdas == (Partition((1, 1, 1)), Partition(()))
    x = class_label_of(wreath_element((1, 0), (0, 1), 2))
    assert x.lambdas == (Partition((1,)), Partition((1,)))
    full_cycle = wreath_element((2, 0, 0, 0), (1, 2, 3, 0), 3)
    lbl = class_label_of(full_cycle)
    assert lbl.lambdas == (Partition(()), Partition(()), Partition((4,)))


def test_structure_reports_on_small_family():
    for t, m in wreath_family(400, t_max=6, m_max=4):
        report = class_structure_report(t, m)
        assert report.ok, (t, m, report)
        assert report.order == len(enumerate_wreath(t, m))
