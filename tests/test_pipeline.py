from fractions import Fraction
from math import factorial
from pathlib import Path
import tracemalloc

import pytest

import helpers
from helpers import coeffs_product_by_mul
from tricomm import numtheory, partitions, permgroup, pipeline, series, wreath
from tricomm.errors import CapExceeded
from tricomm.partitions import centralizer_order
from tricomm.permgroup import permutation_of_type, triples_centralizer, triples_naive

# OEIS A061256, n = 0..8: T(n)/n! for the commuting triples T(n) of S_n.
A061256_PREFIX = (1, 1, 4, 8, 21, 39, 92, 170, 360)


def corrupt_sigma_at(j):
    return lambda n: numtheory.sigma(n) + (1 if n == j else 0)


def test_coeffs_product_examples():
    assert pipeline.coeffs_product(0) == (1,)
    assert pipeline.coeffs_product(4) == (1, 1, 4, 8, 21)
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
    assert pipeline.coeffs_classes(0) == (1,)
    assert pipeline.coeffs_classes(2)[2] == 4
    assert pipeline.coeffs_classes(4)[4] == 21


def test_coeffs_classes_matches_coeffs_product_to_order_130():
    # Both parities of the order, and route B's fold chains of every depth
    # up to 7: row 128 folds into row 64, row 64 into row 32, and so on down
    # to row 1.
    for order in range(131):
        assert pipeline.coeffs_classes(order) == pipeline.coeffs_product(order)


def test_class_count_by_types_matches_canonical():
    c = pipeline.coeffs_classes(30)
    for n in range(31):
        assert helpers.class_count_by_types(n) == c[n]


def test_classes_series_form_matches_canonical():
    assert helpers.coeffs_classes_series(30) == pipeline.coeffs_classes(30)


def test_coeffs_brute_examples():
    assert pipeline.coeffs_brute(3) == [1, 1, 4, 8]
    assert pipeline.coeffs_brute(5)[4] == 21


def test_coeffs_brute_cap():
    with pytest.raises(CapExceeded, match="centralizer ceiling=11"):
        pipeline.coeffs_brute(12)


def test_coeffs_brute_refuses_before_any_degree(monkeypatch):
    def must_not_run(n):
        raise AssertionError(f"degree {n} computed before the ceiling refusal")

    monkeypatch.setattr(pipeline, "triples_centralizer", must_not_run)
    with pytest.raises(CapExceeded, match="centralizer ceiling=11"):
        pipeline.coeffs_brute(12)
    with pytest.raises(CapExceeded, match="centralizer ceiling=11"):
        pipeline.verify_identity(12, 12)


def test_coeffs_brute_flags_inexact_division(monkeypatch):
    # 7 triples: 0! and 1! divide them, 2! does not.
    monkeypatch.setattr(pipeline, "triples_centralizer", lambda n: 7)
    assert pipeline.coeffs_brute(2) == [7, 7, None]


def test_all_coefficients_positive():
    assert all(c > 0 for c in pipeline.coeffs_product(40))


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


@pytest.mark.parametrize(
    "j, prefix_passes", [(j, j * (numtheory.sigma(j) + 1) < 60) for j in range(1, 61)]
)
def test_verify_identity_corrupted_sigma_in_either_branch(j, prefix_passes):
    # Every index of `verify -N 60`.  `prefix_passes`, shown in the test id,
    # says which branch of route A the corrupted factor takes: prefix
    # passes while j*sigma(j) < order, binomial rows otherwise.
    report = pipeline.verify_identity(60, 4, sigma_fn=corrupt_sigma_at(j))
    assert report.first_disagreement == j
    # The log check reads the sieve, not the corrupted table.
    assert pipeline.check_log(report.product).first_mismatch == j


@pytest.mark.parametrize("d", range(1, 61))
def test_check_log_names_a_corrupted_divisor_weight(monkeypatch, d):
    product = pipeline.coeffs_product(60)
    honest = numtheory.divisor_weights

    def one_off_at_d(d_max):
        weights = honest(d_max)
        weights[d] += 1
        return weights

    monkeypatch.setattr(numtheory, "divisor_weights", one_off_at_d)
    assert pipeline.check_log(product).first_mismatch == d


def test_check_log_small_values():
    logged = helpers.log(pipeline.coeffs_product(4), 4)
    assert logged[1] == 1
    assert logged[2] == Fraction(7, 2)
    assert pipeline.check_log(pipeline.coeffs_product(15)).ok


def test_check_log_detects_corruption_against_true_table():
    # Corrupt only the series side; the divisor formula keeps the honest
    # sigma, so the mismatch surfaces at the corrupted index.
    logged = helpers.log(pipeline.coeffs_product(8, sigma_fn=corrupt_sigma_at(3)), 8)
    bad = [
        d for d in range(1, 9) if logged[d] != helpers.log_coefficient(d)
    ]
    assert bad and bad[0] == 3


@pytest.mark.parametrize("index", [1, 2, 7, 12])
def test_check_log_names_a_perturbed_route_a_coefficient(monkeypatch, index):
    honest = pipeline.coeffs_product

    def perturbed(order, **kwargs):
        coeffs = list(honest(order, **kwargs))
        coeffs[index] += 1
        return tuple(coeffs)

    monkeypatch.setattr(pipeline, "coeffs_product", perturbed)
    report = pipeline.check_log(pipeline.coeffs_product(12))
    assert not report.ok
    assert report.first_mismatch == index


def test_check_log_first_mismatch_is_first_log_mismatch(monkeypatch):
    # Against the Fraction log: the integer recurrence fails first exactly
    # where the formal log first leaves the divisor formula.
    bad = (1, 1, 4, 9, 21, 0, 3)
    monkeypatch.setattr(pipeline, "coeffs_product", lambda order, **kwargs: bad)
    logged = helpers.log(bad, 6)
    first = next(d for d in range(1, 7) if logged[d] != helpers.log_coefficient(d))
    assert pipeline.check_log(pipeline.coeffs_product(6)).first_mismatch == first == 3


def test_coeffs_classes_order_1000_has_no_recursion_limit():
    # Order 1000 is past the default recursion limit, so route B must not
    # recurse once per order.
    assert pipeline.coeffs_classes(1000) == pipeline.coeffs_product(1000)


def test_coeffs_classes_order_1000_drops_each_row_as_it_folds_it():
    # Route B builds its rows P^t, about order * ln(order) integers, and
    # drops each as it folds it: the tracemalloc peak at order 1000 is about
    # 0.66 MB.  Holding every row to the end took it to 0.97 MB, and a
    # separate product list multiplied by each folded odd row to 0.95 MB.
    tracemalloc.start()
    try:
        pipeline.coeffs_classes(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 800_000


@pytest.mark.parametrize(
    "run",
    [
        lambda order: pipeline.coeffs_product(order),
        lambda order: pipeline.coeffs_classes(order),
        lambda order: pipeline.verify_identity(order, 2),
        lambda order: pipeline.check_log(pipeline.coeffs_product(order)),
    ],
    ids=["product", "classes", "verify_identity", "log_check"],
)
def test_series_order_cap_refuses_before_any_work(monkeypatch, run):
    def must_not_run(*args, **kwargs):
        raise AssertionError("work done before the series-order cap refusal")

    monkeypatch.setattr(series, "imul_neg_binomial", must_not_run)
    for name in ("k_wreath_series", "triples_centralizer"):
        monkeypatch.setattr(pipeline, name, must_not_run)
    with pytest.raises(CapExceeded, match="series-order cap"):
        run(series.SERIES_ORDER_CAP + 1)


def test_naive_oracle_cross_check():
    for n in range(6):
        assert triples_naive(n) == triples_centralizer(n)


def test_verify_identity_corrupted_route_c_names_first_bad_index(monkeypatch):
    # Adding |Cent(g)| pairs for one class of S_6 adds class size * |Cent(g)|
    # = 6! triples: T(6)/6! rises by exactly 1 and stays an exact division.
    ct = (3, 2, 1)
    target = permutation_of_type(ct)
    honest = permgroup.centralizer_pairs

    def corrupted(g, table):
        return honest(g, table) + (centralizer_order(ct) if g == target else 0)

    monkeypatch.setattr(permgroup, "centralizer_pairs", corrupted)
    assert pipeline.coeffs_brute(6)[6] == A061256_PREFIX[6] + 1
    report = pipeline.verify_identity(8, 8)
    assert not report.overall
    assert report.first_disagreement == 6


# Every entry m of every row t of route B that `verify -N 60` reads.
ROUTE_B_ENTRIES = [(t, m) for t in range(1, 61) for m in range(1, 60 // t + 1)]


@pytest.mark.parametrize("t, m", ROUTE_B_ENTRIES)
def test_verify_identity_names_a_corrupted_route_b_row_entry(monkeypatch, t, m):
    # Entry m of row t is k(W(t, m)); +1 there first changes coefficient t*m,
    # the first index with m parts of length t: the rows built from row t
    # change only at entries m' >= m of rows t' > t, which reach coefficient
    # t'*m' > t*m.  Route B takes row 1, the partition numbers, from
    # `k_wreath_series`, then builds rows 2, 3, ... in turn, each by one
    # step-1 multiply, before it folds any row.  Every fold runs at a prime
    # step, so the step-1 calls are exactly the row builds, and the entry is
    # corrupted as its row is built.  Only route B's calls go through the
    # wrappers: route A shares the kernel.
    honest_row_1 = pipeline.k_wreath_series
    honest = series.imul_substituted
    rows_built = 1

    def corrupted_row_1(row_t, m_max):
        row = list(honest_row_1(row_t, m_max))
        if t == 1:
            row[m] += 1
        return tuple(row)

    def corrupted(out, row, step):
        nonlocal rows_built
        honest(out, row, step)
        if step == 1:
            rows_built += 1
            if rows_built == t:
                out[m] += 1

    honest_classes = pipeline.coeffs_classes

    def corrupted_classes(order):
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "k_wreath_series", corrupted_row_1)
            patch.setattr(series, "imul_substituted", corrupted)
            return honest_classes(order)

    monkeypatch.setattr(pipeline, "coeffs_classes", corrupted_classes)
    report = pipeline.verify_identity(60, 4)
    assert report.product == pipeline.coeffs_product(60)
    assert report.first_disagreement == t * m


# Every cycle type of degree 2..7 but the identity's, whose term route C
# adds without `centralizer_pairs`.
ROUTE_C_TYPES = [
    ct for n in range(2, 8) for ct in partitions.enumerate_partitions(n) if max(ct) > 1
]


@pytest.mark.parametrize("ct", ROUTE_C_TYPES, ids=[str(ct) for ct in ROUTE_C_TYPES])
def test_verify_identity_names_a_corrupted_route_c_cycle_type(monkeypatch, ct):
    # +|Cent(g)| pairs for the class of g adds class size * |Cent(g)| = n!
    # triples, so the division stays exact and T(n)/n! rises by 1 at n = |ct|.
    helpers.add_centralizer_pairs(monkeypatch, ct, len)
    report = pipeline.verify_identity(60, 7)
    assert report.brute[sum(ct)] == A061256_PREFIX[sum(ct)] + 1
    assert report.first_disagreement == sum(ct)


@pytest.mark.parametrize("ct", ROUTE_C_TYPES, ids=[str(ct) for ct in ROUTE_C_TYPES])
def test_verify_identity_names_an_inexact_route_c_cycle_type(monkeypatch, ct):
    # +1 pair adds class size = n!/|Cent(g)| triples, which n! does not
    # divide for g != id: route C has no integer quotient at n = |ct|.
    helpers.add_centralizer_pairs(monkeypatch, ct, lambda table: 1)
    report = pipeline.verify_identity(60, 7)
    assert report.brute[sum(ct)] is None
    assert report.brute[: sum(ct)] == A061256_PREFIX[: sum(ct)]
    assert report.first_disagreement == sum(ct)


def test_routes_b_and_c_never_reach_sigma(monkeypatch):
    expected = pipeline.coeffs_product(60)
    assert expected[:9] == A061256_PREFIX

    def forbidden(n):
        raise AssertionError(f"sigma({n}) reached")

    monkeypatch.setattr(numtheory, "sigma", forbidden)
    assert pipeline.coeffs_classes(60) == expected
    assert tuple(pipeline.coeffs_brute(7)) == A061256_PREFIX[:8]
    # Nor does the log check: it sieves its weights.
    assert pipeline.check_log(expected).ok


def test_layers_of_routes_b_and_c_never_import_numtheory():
    # Routes B and C compute only in these layers, so with `numtheory`
    # never loaded they cannot reach `sigma`, even by import.
    result = helpers.run_python(
        "-c",
        "import sys, tricomm.series, tricomm.partitions, tricomm.permgroup, "
        "tricomm.wreath; print('tricomm.numtheory' in sys.modules)",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_oracles_never_reach_the_code_they_check(monkeypatch):
    # Route B's series form, the partition Euler product, route A's
    # factor-by-factor product, the naive triple count and the log
    # coefficients must not call the route, the partition numbers, the
    # series code, the centralizer listing or the divisor sums that they
    # cross-check.
    classes = pipeline.coeffs_classes(30)
    product = pipeline.coeffs_product(30)
    weights = numtheory.divisor_weights(60)
    numbers = tuple(partitions.partition_numbers(60))
    assert classes[:9] == A061256_PREFIX and numbers[60] == 966467

    def forbidden(*args, **kwargs):
        raise AssertionError("a cross-check reached the code it checks")

    monkeypatch.setattr(partitions, "partition_numbers", forbidden)
    monkeypatch.setattr(pipeline, "coeffs_classes", forbidden)
    monkeypatch.setattr(pipeline, "coeffs_product", forbidden)
    monkeypatch.setattr(wreath, "k_wreath_series", forbidden)
    monkeypatch.setattr(series, "imul_substituted", forbidden)
    monkeypatch.setattr(series, "imul_neg_binomial", forbidden)
    # The naive oracle lists S_n itself, never the centralizer listing that
    # route C and every wreath table come from, and tests each pair itself,
    # never through the commutation kernel of route C and the pair counts.
    monkeypatch.setattr(permgroup, "centralizer", forbidden)
    monkeypatch.setattr(permgroup, "centralizer_pairs", forbidden)
    monkeypatch.setattr(permgroup, "commuting_pairs", forbidden)
    monkeypatch.setattr(permgroup, "_commuting_counter", forbidden)
    assert triples_naive(5) == 4680
    assert helpers.coeffs_classes_series(30) == classes
    assert helpers.partition_series(60) == numbers
    assert coeffs_product_by_mul(30) == product
    monkeypatch.setattr(numtheory, "sigma", forbidden)
    monkeypatch.setattr(numtheory, "divisor_weights", forbidden)
    assert [helpers.log_coefficient(d) * d for d in range(1, 61)] == weights[1:]


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    library = readme.split("## Library", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    assert "verify_identity" in block
    exec(compile(block, "README.md", "exec"), {})
