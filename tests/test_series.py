from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import helpers
from tricomm import series
from tricomm.partitions import enumerate_partitions, partition_count
from tricomm.series import IntSeries


@st.composite
def same_order_series(draw, count=2, max_order=30):
    order = draw(st.integers(0, max_order))
    coeff = st.lists(
        st.integers(-9, 9), min_size=order + 1, max_size=order + 1
    )
    return tuple(IntSeries(tuple(draw(coeff))) for _ in range(count)), order


def one_minus_u_power(j: int, order: int) -> IntSeries:
    """The polynomial 1 - u^j as a truncated series."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    if j <= order:
        coeffs[j] = -1
    return IntSeries(tuple(coeffs))


def test_mul_examples():
    n2 = series.mul(IntSeries((1, 1, 0)), IntSeries((1, -1, 0)), 2)
    assert n2.coeffs == (1, 0, -1)
    geom = IntSeries((1,) * 6)
    assert series.mul(geom, one_minus_u_power(1, 5), 5) == series.one(5)


def test_mul_partition_series_against_euler_polynomial():
    # P built straight from exhaustive partition enumeration, then killed
    # factor by factor with the polynomials (1 - u^s).
    p = IntSeries(tuple(len(enumerate_partitions(d)) for d in range(7)))
    acc = p
    for s in range(1, 7):
        acc = series.mul(acc, one_minus_u_power(s, 6), 6)
    assert acc == series.one(6)


def test_mul_rejects_short_operands():
    with pytest.raises(ValueError):
        series.mul(IntSeries((1, 2)), IntSeries((1, 2, 3)), 2)


def test_series_reject_inexact_coefficients():
    with pytest.raises(TypeError):
        IntSeries((1, 0.5))


@given(same_order_series(count=2))
def test_mul_commutative(data):
    (f, g), order = data
    assert series.mul(f, g, order) == series.mul(g, f, order)


@given(same_order_series(count=3, max_order=20))
def test_mul_associative(data):
    (f, g, h), order = data
    left = series.mul(series.mul(f, g, order), h, order)
    right = series.mul(f, series.mul(g, h, order), order)
    assert left == right


def naive_convolution(f: IntSeries, g: IntSeries, order: int) -> tuple[int, ...]:
    """Reference Cauchy product: every index pair, zeros included."""
    return tuple(
        sum(f[i] * g[n - i] for i in range(n + 1)) for n in range(order + 1)
    )


def sparse_series(draw, order: int) -> IntSeries:
    """A series of the given order whose coefficients are mostly zero."""
    coeffs = [0] * (order + 1)
    for k in draw(st.sets(st.integers(0, order), max_size=max(1, order // 4))):
        coeffs[k] = draw(st.integers(-9, 9))
    return IntSeries(tuple(coeffs))


@given(same_order_series(count=2))
def test_mul_dense_by_dense_matches_naive(data):
    (f, g), order = data
    assert series.mul(f, g, order).coeffs == naive_convolution(f, g, order)


@given(st.data(), st.integers(0, 30))
def test_mul_sparse_by_dense_matches_naive_both_ways(data, order):
    sparse = sparse_series(data.draw, order)
    dense = IntSeries(
        tuple(data.draw(st.lists(st.integers(-9, 9), min_size=order + 1, max_size=order + 1)))
    )
    expected = naive_convolution(sparse, dense, order)
    assert series.mul(sparse, dense, order).coeffs == expected
    assert series.mul(dense, sparse, order).coeffs == expected


@given(st.data(), st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
def test_mul_truncates_operands_of_higher_order(data, order, extra_f, extra_g):
    f = sparse_series(data.draw, order + extra_f)
    g = IntSeries(
        tuple(data.draw(st.lists(st.integers(-9, 9), min_size=order + extra_g + 1,
                                 max_size=order + extra_g + 1)))
    )
    product = series.mul(f, g, order)
    assert product.order == order
    assert product.coeffs == naive_convolution(f, g, order)
    assert product == series.mul(f.truncate(order), g.truncate(order), order)


def test_mul_zero_tails_and_one():
    order = 9
    poly = IntSeries((3, -2) + (0,) * order)
    dense = IntSeries(tuple(range(1, order + 2)))
    assert series.mul(poly, dense, order).coeffs == naive_convolution(poly, dense, order)
    zero = IntSeries((0,) * (order + 1))
    assert series.mul(zero, dense, order) == zero
    assert series.mul(dense, zero, order) == zero
    assert series.mul(series.one(order), dense, order) == dense
    assert series.mul(dense, series.one(order + 3), order) == dense
    assert series.mul(series.one(order), series.one(order), order) == series.one(order)


@pytest.mark.parametrize("order", [0, 1, 7, 24])
def test_mul_of_neg_binomial_factors_matches_naive(order):
    factors = [series.neg_binomial_factor(j, s, order) for j, s in [(1, 3), (2, 1), (3, 4), (5, 2)]]
    product = series.one(order)
    for factor in factors:
        expected = naive_convolution(product, factor, order)
        product = series.mul(product, factor, order)
        assert product.coeffs == expected
    a, b = factors[1], factors[2]
    assert series.mul(a, b, order).coeffs == naive_convolution(a, b, order)


@given(st.data(), st.integers(0, 30))
def test_mul_commutative_on_sparse_operands(data, order):
    f = sparse_series(data.draw, order)
    g = sparse_series(data.draw, order)
    assert series.mul(f, g, order) == series.mul(g, f, order)


@pytest.mark.parametrize("step", [1, 2, 5, "order"])
@given(data=st.data(), order=st.integers(0, 30))
def test_imul_substituted_matches_naive(step, data, order):
    step = max(order, 1) if step == "order" else step
    out = data.draw(st.lists(st.integers(-9, 9), min_size=order + 1, max_size=order + 1))
    row = [1] + data.draw(st.lists(st.integers(-9, 9), max_size=order // step + 2))
    factor = [0] * (order + 1)
    for k, c in enumerate(row):
        if k * step <= order:
            factor[k * step] = c
    expected = naive_convolution(IntSeries(tuple(out)), IntSeries(tuple(factor)), order)
    series.imul_substituted(out, row, step)
    assert tuple(out) == expected


def test_imul_substituted_rejects_bad_rows():
    with pytest.raises(ValueError, match="constant term 1"):
        series.imul_substituted([1, 2, 3], [2, 1], 1)
    with pytest.raises(ValueError, match="step"):
        series.imul_substituted([1, 2, 3], [1, 1], 0)


def test_neg_binomial_examples():
    assert series.neg_binomial_factor(1, 1, 4).coeffs == (1, 1, 1, 1, 1)
    assert series.neg_binomial_factor(2, 3, 4).coeffs == (1, 0, 3, 0, 6)
    assert series.neg_binomial_factor(5, 1, 4).coeffs == (1, 0, 0, 0, 0)


def test_neg_binomial_inverts_binomial_power():
    for j in range(1, 8):
        for s in range(1, 21):
            if j * s > 20:
                continue
            order = 20
            factor = series.neg_binomial_factor(j, s, order)
            poly = series.power(one_minus_u_power(j, order), s, order)
            assert series.mul(factor, poly, order) == series.one(order)


def test_power_examples():
    assert series.power(IntSeries((5, 3)), 0, 3) == series.one(3)
    assert series.power(IntSeries((1, 1, 0)), 2, 2).coeffs == (1, 2, 1)
    p = helpers.partition_series(2)
    assert series.power(p, 2, 2)[2] == 5


def test_substitute_power_examples():
    assert helpers.substitute_power(IntSeries((1, 1)), 3, 3).coeffs == (1, 0, 0, 1)
    p = helpers.partition_series(4)
    assert helpers.substitute_power(p, 2, 4).coeffs == (1, 0, 1, 0, 2)
    f = IntSeries((2, -1, 3))
    assert helpers.substitute_power(f, 1, 2) == f


@given(same_order_series(count=1, max_order=24), st.integers(1, 6))
def test_substitute_power_ignores_high_coefficients(data, t):
    (f,), order = data
    # Changing coefficients above order // t cannot change the result.
    keep = order // t
    twisted = IntSeries(
        f.coeffs[: keep + 1] + tuple(c + 17 for c in f.coeffs[keep + 1 :])
    )
    assert helpers.substitute_power(f, t, order) == helpers.substitute_power(
        twisted, t, order
    )


def all_fractions(coeffs) -> bool:
    return all(type(c) is Fraction for c in coeffs)


def test_log_examples():
    assert helpers.log(series.one(3).coeffs, 3) == (0, 0, 0, 0)
    mercator = helpers.log(series.neg_binomial_factor(1, 1, 4).coeffs, 4)
    assert mercator == (
        Fraction(0),
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(1, 4),
    )
    assert all_fractions(mercator)


def test_log_requires_unit_constant_term():
    with pytest.raises(ValueError):
        helpers.log((2, 1), 1)


def test_exp_examples():
    zero = (Fraction(0),) * 4
    assert helpers.exp(zero, 3) == (1, 0, 0, 0)
    u = (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    assert helpers.exp(u, 3) == (
        Fraction(1),
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 6),
    )


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        helpers.exp((Fraction(1), Fraction(0)), 1)


def test_exp_log_roundtrip_binomial():
    f = series.neg_binomial_factor(2, 3, 10).coeffs
    logged = helpers.log(f, 10)
    roundtrip = helpers.exp(logged, 10)
    assert roundtrip == f
    assert all_fractions(logged) and all_fractions(roundtrip)


@given(same_order_series(count=1, max_order=30))
def test_exp_log_roundtrip_random(data):
    (f,), order = data
    unit = (1,) + f.coeffs[1:]
    logged = helpers.log(unit, order)
    roundtrip = helpers.exp(logged, order)
    assert roundtrip == unit
    assert all_fractions(logged) and all_fractions(roundtrip)


def test_partition_series_examples():
    assert helpers.partition_series(0).coeffs == (1,)
    assert helpers.partition_series(5).coeffs == (1, 1, 2, 3, 5, 7)
    assert helpers.partition_series(10)[10] == 42


def test_partition_series_matches_counts():
    p = helpers.partition_series(60)
    for d in range(61):
        assert p[d] == partition_count(d)
