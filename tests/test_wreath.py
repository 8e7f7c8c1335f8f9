import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    WreathElement,
    decode,
    embed,
    invariants_of,
    partition_series,
    power,
    substitute_power,
    w_inv,
    w_mul,
    wreath_element,
    wreath_elements,
    wreath_family,
)
from tricomm import permgroup, series, wreath
from tricomm.errors import CapExceeded
from tricomm.partitions import partition_numbers
from tricomm.permgroup import compose, conjugacy_classes
from tricomm.wreath import (
    class_structure_report,
    cycle_sum_invariants,
    enumerate_class_labels,
    enumerate_wreath,
    k_wreath,
)


@st.composite
def wreath_element_of(draw, t, m):
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
    e = wreath_element((0,) * 2, range(2), 3)
    for x in wreath_elements(3, 2):
        assert w_mul(x, e) == x
        assert w_mul(e, x) == x
        assert w_mul(x, w_inv(x)) == e
        assert w_mul(w_inv(x), x) == e


def test_mul_example_order_four_element():
    x = wreath_element((1, 0), (1, 0), 2)
    x2 = w_mul(x, x)
    assert x2 == wreath_element((1, 1), (0, 1), 2)
    x4 = w_mul(x2, x2)
    assert x4 == wreath_element((0,) * 2, range(2), 2)
    assert x2 != wreath_element((0,) * 2, range(2), 2)  # so x has order exactly 4


def test_mul_rejects_mismatched_groups():
    with pytest.raises(ValueError):
        w_mul(wreath_element((0,) * 2, range(2), 2), wreath_element((0,) * 2, range(2), 3))
    with pytest.raises(ValueError):
        w_mul(wreath_element((0,) * 2, range(2), 2), wreath_element((0,) * 3, range(3), 2))


@pytest.mark.parametrize("t,m", [(2, 2), (3, 2), (2, 3)])
def test_mul_associative_exhaustive(t, m):
    elems = wreath_elements(t, m)
    for x, y, z in itertools.product(elems, repeat=3):
        assert w_mul(w_mul(x, y), z) == w_mul(x, w_mul(y, z))


def test_mul_associative_randomized_w43():
    rng = random.Random(20240817)
    elems = wreath_elements(4, 3)
    for _ in range(1000):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert w_mul(w_mul(x, y), z) == w_mul(x, w_mul(y, z))


def test_commutes_predicate_matches_products():
    # The commutation kernel that `commuting_pairs` runs on the embedded
    # table against commutation under the reference law.
    for t, m in [(2, 2), (3, 2), (2, 3)]:
        elems = wreath_elements(t, m)
        for x, y in itertools.product(elems, repeat=2):
            commutes = permgroup._commuting_counter((embed(y),))(embed(x)) == 1
            assert commutes == (w_mul(x, y) == w_mul(y, x))


def test_enumerate_wreath_lists_the_embedded_elements_in_order():
    for t, m in wreath_family(400, t_max=5, m_max=4):
        assert enumerate_wreath(t, m).elements == tuple(sorted(map(embed, wreath_elements(t, m))))


def test_enumerate_wreath_generators_are_the_group_laws():
    # Under the reference law Z_t wr S_m is generated by S_m's swap and
    # m-cycle with zero colors, and by the unit color at point 0.
    for t, m in wreath_family(400, t_max=5, m_max=4):
        moves = [(1, 0, *range(2, m)), (*range(1, m), 0)] if m >= 2 else []
        law = [wreath_element((0,) * m, perm, t) for perm in moves]
        if t >= 2 and m >= 1:
            law.append(wreath_element((1,) + (0,) * (m - 1), range(m), t))
        table = enumerate_wreath(t, m)
        assert set(table.generators) == set(map(embed, law)), (t, m)


@settings(max_examples=300)
@given(st.data())
def test_embedding_is_a_homomorphism_decoded_back(data):
    t = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(0, 6))
    x = data.draw(wreath_element_of(t, m))
    y = data.draw(wreath_element_of(t, m))
    assert embed(w_mul(x, y)) == compose(embed(x), embed(y))
    assert sorted(embed(x)) == list(range(t * m))
    assert decode(embed(x), t, m) == x
    assert cycle_sum_invariants(embed(x), t, m) == invariants_of(x)


def test_cycle_sum_invariants_examples():
    def invariants(colors, perm, t):
        return cycle_sum_invariants(embed(wreath_element(colors, perm, t)), t, len(perm))

    assert invariants((0,) * 2, range(2), 3) == ((0, 1), (0, 1))
    assert invariants((1, 2, 0), (1, 0, 2), 3) == ((0, 1), (0, 2))
    assert invariants((1,), (0,), 4) == ((1, 1),)
    assert invariants((2, 0, 0, 0), (1, 2, 3, 0), 3) == ((2, 4),)


@settings(max_examples=200)
@given(st.data())
def test_invariants_are_conjugation_invariant(data):
    t = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 5))
    x = data.draw(wreath_element_of(t, m))
    y = data.draw(wreath_element_of(t, m))
    conj = w_mul(w_mul(y, x), w_inv(y))
    assert invariants_of(conj) == invariants_of(x)


def test_conjugate_by_invariants_agrees_with_orbits_w22():
    table = enumerate_wreath(2, 2)
    cc = conjugacy_classes(table)
    same_orbit = {}
    for ci, cls in enumerate(cc):
        for i in cls:
            same_orbit[i] = ci
    for i, x in enumerate(table.elements):
        for j, y in enumerate(table.elements):
            same_invariants = cycle_sum_invariants(x, 2, 2) == cycle_sum_invariants(y, 2, 2)
            assert same_invariants == (same_orbit[i] == same_orbit[j])


def test_enumerate_wreath_sizes_and_caps():
    assert len(enumerate_wreath(2, 2)) == 8
    assert len(enumerate_wreath(1, 3)) == 6
    assert len(enumerate_wreath(3, 1)) == 3
    with pytest.raises(CapExceeded, match=r"W\(10,5\) with 10\^5\*5! elements exceeds wreath"):
        enumerate_wreath(10, 5)
    with pytest.raises(CapExceeded, match=r"W\(3,6\) structure check"):
        enumerate_wreath(3, 6)


def test_trivial_color_group_behaves_like_symmetric_group():
    elems = wreath_elements(1, 3)
    for x, y in itertools.product(elems, repeat=2):
        product = w_mul(x, y)
        assert product.perm == tuple(x.perm[y.perm[i]] for i in range(3))
        assert product.colors == (0, 0, 0)
    table = enumerate_wreath(1, 3)
    assert table.elements == tuple(map(bytes, itertools.permutations(range(3))))
    assert len(conjugacy_classes(table)) == 3


def test_wreath_of_single_point_is_cyclic():
    table = enumerate_wreath(4, 1)
    assert len(table) == 4
    assert len(conjugacy_classes(table)) == 4
    g = wreath_element((1,), (0,), 4)
    acc = wreath_element((0,) * 1, range(1), 4)
    seen = set()
    for _ in range(4):
        seen.add(acc)
        acc = w_mul(acc, g)
    assert len(seen) == 4  # generated by a single element
    assert set(map(embed, seen)) == set(table.elements)


def test_conjugacy_classes_brute_examples():
    assert len(conjugacy_classes(enumerate_wreath(2, 2))) == 5
    assert len(conjugacy_classes(enumerate_wreath(1, 4))) == 5
    assert len(conjugacy_classes(enumerate_wreath(4, 1))) == 4


def test_k_wreath_examples():
    for t in (1, 2, 5, 9):
        assert k_wreath(t, 0) == 1
    for m in range(15):
        assert k_wreath(1, m) == partition_numbers(m)[m]
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
    # The running product against powering by squaring, up to the cap corners.
    cases = [(t, m) for t in range(1, 6) for m in range(0, 31)]
    for t, m in cases + [(4000, 1), (63, 63), (16, 250), (2, 1000)]:
        assert wreath.k_wreath_series(t, m) == power(partition_series(m), t, m)


def test_k_wreath_series_at_order_zero_takes_no_multiply(monkeypatch):
    def must_not_run(*args):
        raise AssertionError("P^t truncated at order 0 multiplied")

    monkeypatch.setattr(series, "imul_substituted", must_not_run)
    for t in (1, 2, 4000):
        assert wreath.k_wreath_series(t, 0) == (1,)


def test_k_wreath_series_cap_refuses_before_any_work(monkeypatch):
    assert wreath.k_wreath_series(4000, 1) == (1, 4000)

    def must_not_run(n_max):
        raise AssertionError("work done before the series-order cap refusal")

    monkeypatch.setattr(wreath, "partition_numbers", must_not_run)
    with pytest.raises(CapExceeded, match="series-order cap=4000"):
        k_wreath(2, 2001)
    with pytest.raises(CapExceeded, match="series-order cap=4000"):
        wreath.k_wreath_series(4001, 1)
    with pytest.raises(CapExceeded, match=r"W\(4001,0\) class count with t = 4001 exceeds"):
        wreath.k_wreath_series(4001, 0)


def test_enumerate_class_labels_examples():
    labels13 = enumerate_class_labels(1, 3)
    assert len(labels13) == 3
    labels21 = enumerate_class_labels(2, 1)
    assert labels21 == [((0, 1),), ((1, 1),)]
    labels22 = enumerate_class_labels(2, 2)
    assert labels22 == [
        ((0, 2),),
        ((1, 2),),
        ((0, 1), (0, 1)),
        ((0, 1), (1, 1)),
        ((1, 1), (1, 1)),
    ]


def test_enumerate_class_labels_needs_no_stack_per_residue():
    t = sys.getrecursionlimit() + 10
    labels = enumerate_class_labels(t, 1)
    assert len(set(labels)) == len(labels) == k_wreath(t, 1) == t


def test_enumerated_labels_are_the_labels_of_the_elements():
    for t, m in wreath_family(400, t_max=4, m_max=4):
        elements = enumerate_wreath(t, m).elements
        invariants = {cycle_sum_invariants(x, t, m) for x in elements}
        assert set(enumerate_class_labels(t, m)) == invariants


def test_class_labels_are_distinct_and_sized():
    for t, m in wreath_family(2000, t_max=5, m_max=5):
        labels = enumerate_class_labels(t, m)
        assert len(set(labels)) == len(labels) == k_wreath(t, m)
        for lbl in labels:
            assert lbl == tuple(sorted(lbl))
            assert sum(length for _, length in lbl) == m
            assert all(0 <= z < t for z, _ in lbl)


def test_label_enumeration_length_matches_series_count():
    # no group enumeration here: pure combinatorics against the series
    for t, m in wreath_family(5000):
        assert len(enumerate_class_labels(t, m)) == k_wreath(t, m)


def test_structure_reports_on_small_family():
    for t, m in wreath_family(400, t_max=6, m_max=4):
        report = class_structure_report(t, m)
        assert report.ok, (t, m, report)
        assert report.order == len(enumerate_wreath(t, m))


def test_structure_ceiling_refuses_before_any_listing(monkeypatch):
    # W(2,6) is the group closest to the ceiling: 46,080 elements * 65 classes.
    assert wreath.STRUCTURE_CEILING == 3_000_000
    assert 46_080 * k_wreath(2, 6) == 2_995_200

    def must_not_run(*args, **kwargs):
        raise AssertionError("a group was listed before the structure ceiling refused")

    monkeypatch.setattr(wreath, "embed", must_not_run)
    wreath.require_structure_check(2, 6)
    for t, m in [(2, 7), (4000, 1), (9, 8), (1, 9), (2, 2000)]:
        with pytest.raises(CapExceeded, match="wreath structure ceiling=3000000"):
            class_structure_report(t, m)


def test_point_limit_refuses_only_the_large_cyclic_groups(monkeypatch):
    # An image in S_(t*m) is `bytes`, so t*m <= 256.  Within the structure
    # ceiling only W(t, 1) with 257 <= t <= 1732 pass everything else.
    def must_not_run(*args, **kwargs):
        raise AssertionError("a group was listed before the point limit refused")

    monkeypatch.setattr(wreath, "embed", must_not_run)
    wreath.require_structure_check(256, 1)
    for t in (257, 1000, 1732):
        with pytest.raises(
            CapExceeded,
            match=rf"W\({t},1\) acting on t\*m = {t} points exceeds permutation point limit=256",
        ):
            class_structure_report(t, 1)
    with pytest.raises(CapExceeded, match="wreath structure ceiling"):
        wreath.require_structure_check(1733, 1)
    # At m >= 2, |W| * k(W) >= 2t^2 * t, so no t above 114 passes.
    widest = max(
        t * m
        for t, m in wreath.wreath_family(wreath.STRUCTURE_CEILING, 120, 30)
        if m >= 2 and not _refused(t, m)
    )
    assert widest == 80


def _refused(t, m):
    try:
        wreath.require_structure_check(t, m)
    except CapExceeded:
        return True
    return False
