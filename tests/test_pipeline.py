from fractions import Fraction
from math import factorial

import pytest

import helpers
from helpers import coeffs_product_by_mul
from tricomm import numtheory, partitions, permgroup, pipeline, series, wreath
from tricomm.errors import CapExceeded
from tricomm.partitions import Partition, centralizer_order
from tricomm.permgroup import permutation_of_type, triples_centralizer, triples_naive

# OEIS A061256, n = 0..8: T(n)/n! for the commuting triples T(n) of S_n.
A061256_PREFIX = (1, 1, 4, 8, 21, 39, 92, 170, 360)


def corrupt_sigma_at(j):
    return lambda n: numtheory.sigma(n) + (1 if n == j else 0)


def test_coeffs_product_examples():
    assert pipeline.coeffs_product(0).coeffs == (1,)
    assert pipeline.coeffs_product(4).coeffs == (1, 1, 4, 8, 21)
    assert pipeline.coeffs_product(10)[1] == 1


@pytest.mark.parametrize(
    "sigma_fn", [numtheory.sigma, lambda n: 1, lambda n: n * n], ids=["sigma", "one", "square"]
)
def test_coeffs_product_matches_factor_by_factor_product(sigma_fn):
    # Covers both in-place branches: prefix passes while j*s < order,
    # binomial row updates otherwise.
    for order in range(81):
        assert pipeline.coeffs_product(order, sigma_fn=sigma_fn) == coeffs_product_by_mul(
            order, sigma_fn
        )


@pytest.mark.parametrize(
    "sigma_fn", [lambda n: 0, lambda n: -1 if n == 30 else numtheory.sigma(n)]
)
def test_coeffs_product_rejects_sigma_below_one(sigma_fn):
    with pytest.raises(ValueError, match="must be >= 1"):
        pipeline.coeffs_product(40, sigma_fn=sigma_fn)


def test_coeffs_product_anchored_to_brute_force():
    expanded = pipeline.coeffs_product(6)
    for n in range(7):
        assert expanded[n] * factorial(n) == triples_centralizer(n)


def test_coeffs_classes_examples():
    assert pipeline.coeffs_classes(0).coeffs == (1,)
    assert pipeline.coeffs_classes(2)[2] == 4
    assert pipeline.coeffs_classes(4)[4] == 21


def test_class_count_by_types_matches_canonical():
    c = pipeline.coeffs_classes(30)
    for n in range(31):
        assert pipeline.class_count_by_types(n) == c[n]


def test_classes_series_form_matches_canonical():
    assert helpers.coeffs_classes_series(30) == pipeline.coeffs_classes(30)


def test_coeffs_brute_examples():
    assert pipeline.coeffs_brute(3) == [1, 1, 4, 8]
    assert pipeline.coeffs_brute(5)[4] == 21


def test_coeffs_brute_cap():
    with pytest.raises(CapExceeded):
        pipeline.coeffs_brute(9)


def test_coeffs_brute_refuses_before_any_degree(monkeypatch):
    def must_not_run(n, cap):
        raise AssertionError(f"degree {n} computed before the cap refusal")

    monkeypatch.setattr(pipeline, "triples_centralizer", must_not_run)
    with pytest.raises(CapExceeded, match="centralizer cap=4"):
        pipeline.coeffs_brute(5, cap=4)
    with pytest.raises(CapExceeded, match="centralizer cap"):
        pipeline.verify_identity(9, 9)


def test_coeffs_brute_flags_inexact_division(monkeypatch):
    from tricomm import pipeline as pl

    monkeypatch.setattr(pl, "triples_centralizer", lambda n, cap: 7)
    with pytest.raises(ArithmeticError, match="not divisible"):
        pl.coeffs_brute(2)


def test_all_coefficients_positive():
    assert all(c > 0 for c in pipeline.coeffs_product(40).coeffs)


def test_verify_identity_agrees():
    report = pipeline.verify_identity(12, 4)
    assert report.overall
    assert report.first_disagreement is None
    assert report.product[:5] == (1, 1, 4, 8, 21)
    assert report.product == report.classes
    assert report.brute == report.product[:5]


def test_verify_identity_trivial_order():
    report = pipeline.verify_identity(0, 0)
    assert report.overall
    assert report.product == (1,)


def test_verify_identity_rejects_inverted_range():
    with pytest.raises(ValueError):
        pipeline.verify_identity(3, 5)


def test_verify_identity_corrupted_sigma_names_first_bad_index():
    report = pipeline.verify_identity(10, 2, sigma_fn=corrupt_sigma_at(4))
    assert not report.overall
    assert report.first_disagreement == 4


@pytest.mark.parametrize("j, prefix_passes", [(2, True), (37, False)])
def test_verify_identity_corrupted_sigma_in_either_branch(j, prefix_passes):
    order = 40
    sigma_fn = corrupt_sigma_at(j)
    assert (j * sigma_fn(j) < order) == prefix_passes
    report = pipeline.verify_identity(order, 4, sigma_fn=sigma_fn)
    assert report.first_disagreement == j


def test_verify_log_small_values():
    logged = helpers.log(pipeline.coeffs_product(4).coeffs, 4)
    assert logged[1] == 1
    assert logged[2] == Fraction(7, 2)
    assert pipeline.verify_log(15).ok


def test_verify_log_detects_corruption_against_true_table():
    # Corrupt only the series side; the divisor formula keeps the honest
    # sigma, so the mismatch surfaces at the corrupted index.
    logged = helpers.log(pipeline.coeffs_product(8, sigma_fn=corrupt_sigma_at(3)).coeffs, 8)
    bad = [
        d for d in range(1, 9) if logged[d] != helpers.log_coefficient(d)
    ]
    assert bad and bad[0] == 3


@pytest.mark.parametrize("index", [1, 2, 7, 12])
def test_verify_log_names_a_perturbed_route_a_coefficient(monkeypatch, index):
    honest = pipeline.coeffs_product

    def perturbed(order, **kwargs):
        coeffs = list(honest(order, **kwargs).coeffs)
        coeffs[index] += 1
        return series.IntSeries(tuple(coeffs))

    monkeypatch.setattr(pipeline, "coeffs_product", perturbed)
    report = pipeline.verify_log(12)
    assert not report.ok
    assert report.first_mismatch == index


def test_verify_log_first_mismatch_is_first_log_mismatch(monkeypatch):
    # Against the Fraction log: the integer recurrence fails first exactly
    # where the formal log first leaves the divisor formula.
    bad = series.IntSeries((1, 1, 4, 9, 21, 0, 3))
    monkeypatch.setattr(pipeline, "coeffs_product", lambda order, **kwargs: bad)
    logged = helpers.log(bad.coeffs, 6)
    first = next(d for d in range(1, 7) if logged[d] != helpers.log_coefficient(d))
    assert pipeline.verify_log(6).first_mismatch == first == 3


def test_coeffs_classes_order_1000_has_no_recursion_limit():
    # Order 1000 is past the default recursion limit, so route B must not
    # recurse once per order.
    assert pipeline.coeffs_classes(1000) == pipeline.coeffs_product(1000)


@pytest.mark.parametrize(
    "run",
    [
        lambda order: pipeline.coeffs_product(order),
        lambda order: pipeline.coeffs_classes(order),
        lambda order: pipeline.verify_identity(order, 2),
        lambda order: pipeline.verify_log(order),
        lambda order: pipeline.growth_report(order),
    ],
    ids=["product", "classes", "verify_identity", "verify_log", "growth_report"],
)
def test_series_order_cap_refuses_before_any_work(monkeypatch, run):
    def must_not_run(*args, **kwargs):
        raise AssertionError("work done before the series-order cap refusal")

    for name in ("accumulate", "k_wreath_series", "triples_centralizer"):
        monkeypatch.setattr(pipeline, name, must_not_run)
    with pytest.raises(CapExceeded, match="series-order cap"):
        run(series.SERIES_ORDER_CAP + 1)


def test_growth_report_examples():
    points = pipeline.growth_report(4)
    assert points[0].n == 1 and points[0].root == 1.0
    assert points[3].coefficient == 21
    assert points[3].root == pytest.approx(21 ** 0.25)


def test_growth_report_has_no_passfail_semantics():
    points = pipeline.growth_report(12)
    assert [p.n for p in points] == list(range(1, 13))


def test_naive_oracle_cross_check():
    for n in range(6):
        assert triples_naive(n) == triples_centralizer(n)


def test_verify_identity_corrupted_route_c_names_first_bad_index(monkeypatch):
    # Adding |Cent(g)| pairs for one class of S_6 adds class size * |Cent(g)|
    # = 6! triples: T(6)/6! rises by exactly 1 and stays an exact division.
    ct = Partition((3, 2, 1))
    target = permutation_of_type(ct)
    honest = permgroup.centralizer_pairs

    def corrupted(g, table):
        return honest(g, table) + (centralizer_order(ct) if g == target else 0)

    monkeypatch.setattr(permgroup, "centralizer_pairs", corrupted)
    assert pipeline.coeffs_brute(6)[6] == A061256_PREFIX[6] + 1
    report = pipeline.verify_identity(8, 8)
    assert not report.overall
    assert report.first_disagreement == 6


def test_routes_b_and_c_never_reach_sigma(monkeypatch):
    expected = pipeline.coeffs_product(60).coeffs
    assert expected[:9] == A061256_PREFIX

    def forbidden(n):
        raise AssertionError(f"sigma({n}) reached")

    monkeypatch.setattr(numtheory, "sigma", forbidden)
    assert pipeline.coeffs_classes(60).coeffs == expected
    assert tuple(pipeline.coeffs_brute(7)) == A061256_PREFIX[:8]


def test_oracles_never_reach_the_code_they_check(monkeypatch):
    # Route B's series form and the partition Euler product must not call
    # the route B or the partition numbers that they cross-check.
    classes = pipeline.coeffs_classes(30)
    numbers = tuple(partitions.partition_numbers(60))
    assert classes.coeffs[:9] == A061256_PREFIX and numbers[60] == 966467

    def forbidden(*args, **kwargs):
        raise AssertionError("a cross-check reached the code it checks")

    monkeypatch.setattr(partitions, "partition_numbers", forbidden)
    monkeypatch.setattr(pipeline, "coeffs_classes", forbidden)
    monkeypatch.setattr(wreath, "k_wreath_series", forbidden)
    monkeypatch.setattr(series, "imul_substituted", forbidden)
    assert helpers.coeffs_classes_series(30) == classes
    assert helpers.partition_series(60).coeffs == numbers
