from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from tricomm import series
from tricomm.partitions import enumerate_partitions, partition_numbers


@st.composite
def same_order_series(draw, count=2, max_order=30):
    order = draw(st.integers(0, max_order))
    coeff = st.lists(
        st.integers(-9, 9), min_size=order + 1, max_size=order + 1
    )
    return tuple(tuple(draw(coeff)) for _ in range(count)), order


def one_minus_u_power(j: int, order: int) -> tuple[int, ...]:
    """The polynomial 1 - u^j as a truncated series."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    if j <= order:
        coeffs[j] = -1
    return tuple(coeffs)


def test_mul_examples():
    n2 = helpers.mul((1, 1, 0), (1, -1, 0), 2)
    assert n2 == (1, 0, -1)
    geom = (1,) * 6
    assert helpers.mul(geom, one_minus_u_power(1, 5), 5) == helpers.one(5)


def test_mul_partition_series_against_euler_polynomial():
    # P built straight from exhaustive partition enumeration, then killed
    # factor by factor with the polynomials (1 - u^s).
    p = tuple(len(enumerate_partitions(d)) for d in range(7))
    acc = p
    for s in range(1, 7):
        acc = helpers.mul(acc, one_minus_u_power(s, 6), 6)
    assert acc == helpers.one(6)


@given(same_order_series(count=2))
def test_mul_commutative(data):
    (f, g), order = data
    assert helpers.mul(f, g, order) == helpers.mul(g, f, order)


@given(same_order_series(count=3, max_order=20))
def test_mul_associative(data):
    (f, g, h), order = data
    left = helpers.mul(helpers.mul(f, g, order), h, order)
    right = helpers.mul(f, helpers.mul(g, h, order), order)
    assert left == right


def naive_convolution(f: tuple[int, ...], g: tuple[int, ...], order: int) -> tuple[int, ...]:
    """Reference Cauchy product: every index pair, zeros included."""
    return tuple(
        sum(f[i] * g[n - i] for i in range(n + 1)) for n in range(order + 1)
    )


def sparse_series(draw, order: int) -> tuple[int, ...]:
    """A series of the given order whose coefficients are mostly zero."""
    coeffs = [0] * (order + 1)
    for k in draw(st.sets(st.integers(0, order), max_size=max(1, order // 4))):
        coeffs[k] = draw(st.integers(-9, 9))
    return tuple(coeffs)


@given(same_order_series(count=2))
def test_mul_dense_by_dense_matches_naive(data):
    (f, g), order = data
    assert helpers.mul(f, g, order) == naive_convolution(f, g, order)


@given(st.data(), st.integers(0, 30))
def test_mul_sparse_by_dense_matches_naive_both_ways(data, order):
    sparse = sparse_series(data.draw, order)
    dense = tuple(
        data.draw(st.lists(st.integers(-9, 9), min_size=order + 1, max_size=order + 1))
    )
    expected = naive_convolution(sparse, dense, order)
    assert helpers.mul(sparse, dense, order) == expected
    assert helpers.mul(dense, sparse, order) == expected


@given(st.data(), st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
def test_mul_truncates_operands_of_higher_order(data, order, extra_f, extra_g):
    f = sparse_series(data.draw, order + extra_f)
    g = tuple(
        data.draw(st.lists(st.integers(-9, 9), min_size=order + extra_g + 1,
                           max_size=order + extra_g + 1))
    )
    product = helpers.mul(f, g, order)
    assert len(product) == order + 1
    assert product == naive_convolution(f, g, order)
    assert product == helpers.mul(f[: order + 1], g[: order + 1], order)


def test_mul_zero_tails_and_one():
    order = 9
    poly = (3, -2) + (0,) * order
    dense = tuple(range(1, order + 2))
    assert helpers.mul(poly, dense, order) == naive_convolution(poly, dense, order)
    zero = (0,) * (order + 1)
    assert helpers.mul(zero, dense, order) == zero
    assert helpers.mul(dense, zero, order) == zero
    assert helpers.mul(helpers.one(order), dense, order) == dense
    assert helpers.mul(dense, helpers.one(order + 3), order) == dense
    assert helpers.mul(helpers.one(order), helpers.one(order), order) == helpers.one(order)


@pytest.mark.parametrize("order", [0, 1, 7, 24])
def test_mul_of_neg_binomial_factors_matches_naive(order):
    factors = [
        helpers.substitute_power(series.neg_binomial_factor(s, order // j), j, order)
        for j, s in [(1, 3), (2, 1), (3, 4), (5, 2)]
    ]
    product = helpers.one(order)
    for factor in factors:
        expected = naive_convolution(product, factor, order)
        product = helpers.mul(product, factor, order)
        assert product == expected
    a, b = factors[1], factors[2]
    assert helpers.mul(a, b, order) == naive_convolution(a, b, order)


@given(st.data(), st.integers(0, 30))
def test_mul_commutative_on_sparse_operands(data, order):
    f = sparse_series(data.draw, order)
    g = sparse_series(data.draw, order)
    assert helpers.mul(f, g, order) == helpers.mul(g, f, order)


def substituted(row, step: int, order: int) -> tuple[int, ...]:
    """sum(row[k] * u^(k*step)) truncated at `order`."""
    factor = [0] * (order + 1)
    for k, c in enumerate(row):
        if k * step <= order:
            factor[k * step] = c
    return tuple(factor)


def imul_checked(out: list[int], row: list[int], step: int) -> bool:
    """Run `imul_substituted` on a copy of `out`, check it against
    `naive_convolution`, and say whether it took the big-integer product."""
    order = len(out) - 1
    expected = naive_convolution(tuple(out), substituted(row, step, order), order)
    packed = []
    honest = series._imul_packed

    def spy(*args):
        packed.append(args)
        honest(*args)

    product = list(out)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "_imul_packed", spy)
        series.imul_substituted(product, row, step)
    assert tuple(product) == expected
    return bool(packed)


@pytest.mark.parametrize("step", [1, 2, 5, "order", "1-long"])
@given(data=st.data(), order=st.integers(0, 30))
def test_imul_substituted_matches_naive(step, data, order):
    # "1-long": step 1 with a row longer than `out`, as route B builds P^t.
    min_terms = order + 1 if step == "1-long" else 0
    step = {"order": max(order, 1), "1-long": 1}.get(step, step)
    out = data.draw(st.lists(st.integers(-9, 9), min_size=order + 1, max_size=order + 1))
    row = [1] + data.draw(
        st.lists(st.integers(-9, 9), min_size=min_terms, max_size=order // step + 2 + min_terms)
    )
    imul_checked(out, row, step)


BIG = 2**200


@settings(max_examples=200)
@given(
    data=st.data(),
    order=st.integers(0, 24),
    step=st.integers(1, 3),
    head=st.sampled_from([0, 1, -3, BIG]),
    signs=st.sampled_from(["non-negative", "mixed"]),
)
def test_imul_substituted_skips_a_zero_run_of_every_length(data, order, step, head, signs):
    # out[1..gap-1] is zero for every gap in 1..order+1; gap = order + 1 is
    # an all-zero tail, and head 0 with it an all-zero list.
    low = 0 if signs == "non-negative" and head >= 0 else -BIG
    values = st.integers(low, BIG)
    tail = data.draw(st.lists(values, min_size=order, max_size=order))
    row = [1] + data.draw(st.lists(values, max_size=order // step + 1))
    for gap in range(1, order + 2):
        out = [head] + [0] * (gap - 1) + tail[gap - 1 :]
        imul_checked(out, row, step)


@settings(max_examples=200)
@given(
    data=st.data(),
    order=st.integers(0, 80),
    step=st.integers(1, 3),
    zeros=st.integers(0, 6),
)
def test_imul_substituted_non_negative_big_coefficients(data, order, step, zeros):
    # Sizes 1..81 with rows of every length reach both sides of the packed
    # product's crossover at steps 1..3 (8, 32 and 72 entries); coefficients
    # run up to 2^200.
    size = order + 1
    values = st.integers(0, BIG) | st.integers(0, 9) | st.just(BIG - 1)
    out = data.draw(st.lists(values, min_size=size, max_size=size))
    out[1 : 1 + zeros] = [0] * len(out[1 : 1 + zeros])
    row = [1] + data.draw(st.lists(values, max_size=order // step + 2))
    imul_checked(out, row, step)


@settings(max_examples=300)
@given(data=st.data(), order=st.integers(0, 40), step=st.integers(1, 3))
def test_imul_substituted_mixed_signs_take_the_row_updates(data, order, step):
    size = order + 1
    values = st.integers(0, BIG)
    out = data.draw(st.lists(values, min_size=size, max_size=size))
    row = [1] + data.draw(st.lists(values, max_size=order // step + 2))
    # One negative coefficient, in `out` or in a row term below the order.
    reach = min(len(row), order // step + 1)
    k = data.draw(st.integers(0, size + reach - 2))
    if k < size:
        out[k] = -1 - out[k]
    else:
        row[k - size + 1] = -1 - row[k - size + 1]
    assert not imul_checked(out, row, step)


@pytest.mark.parametrize("size, step", [(8, 1), (9, 1), (40, 1), (32, 2), (41, 2), (72, 3), (80, 3)])
def test_imul_substituted_all_coefficients_at_the_maximum(size, step):
    # 2^200 - 1 fills its 25 bytes, so only the slot's len(out) bits keep
    # a sum of such products from carrying into the next slot.
    top = BIG - 1
    assert imul_checked([top] * size, [1] + [top] * size, step)


def test_imul_substituted_strategy_choice(monkeypatch):
    p = helpers.partition_series(40)
    short = series.PACKED_MIN_PER_STEP - 1
    # Dense non-negative products pack from PACKED_MIN_PER_STEP entries on.
    assert imul_checked(list(p[: short + 1]), list(p), 1)
    assert not imul_checked(list(p[:short]), list(p), 1)
    # A row in u^2 packs once each residue class holds 2 * 8 entries.
    assert imul_checked(list(p[:32]), list(p), 2)
    assert not imul_checked(list(p[:31]), list(p), 2)
    # A negative entry anywhere the product reads keeps the row updates.
    assert not imul_checked([1, -1] + list(p[2:]), list(p), 1)
    assert not imul_checked(list(p), [1, 2, -1] + list(p[3:]), 1)
    # A negative row entry past the order is never read.
    assert imul_checked(list(p[:21]), list(p[:21]) + [-1], 1)
    # A few terms into a long list, or a long zero run, pack all the same.
    assert imul_checked(list(p), [1, 1, 1], 1)
    assert imul_checked([1] + [0] * 30 + list(p[31:]), list(p), 1)
    # Past PACKED_SPAN, step * len(out), the row updates run.
    monkeypatch.setattr(series, "PACKED_SPAN", 2 * 40)
    assert imul_checked(list(p[:40]), list(p), 2)
    assert not imul_checked(list(p), list(p), 2)


def test_imul_substituted_rejects_bad_rows():
    with pytest.raises(ValueError, match="constant term 1"):
        series.imul_substituted([1, 2, 3], [2, 1], 1)
    with pytest.raises(ValueError, match="step"):
        series.imul_substituted([1, 2, 3], [1, 1], 0)


def test_neg_binomial_examples():
    assert series.neg_binomial_factor(1, 4) == [1, 1, 1, 1, 1]
    assert series.neg_binomial_factor(3, 4) == [1, 3, 6, 10, 15]
    assert series.neg_binomial_factor(2, 0) == [1]


def test_neg_binomial_inverts_binomial_power():
    for j in range(1, 8):
        for s in range(1, 21):
            if j * s > 20:
                continue
            order = 20
            factor = helpers.substitute_power(series.neg_binomial_factor(s, order // j), j, order)
            poly = helpers.power(one_minus_u_power(j, order), s, order)
            assert helpers.mul(factor, poly, order) == helpers.one(order)


def test_power_examples():
    assert helpers.power((5, 3), 0, 3) == helpers.one(3)
    assert helpers.power((1, 1, 0), 2, 2) == (1, 2, 1)
    p = helpers.partition_series(2)
    assert helpers.power(p, 2, 2)[2] == 5


def test_substitute_power_examples():
    assert helpers.substitute_power((1, 1), 3, 3) == (1, 0, 0, 1)
    p = helpers.partition_series(4)
    assert helpers.substitute_power(p, 2, 4) == (1, 0, 1, 0, 2)
    f = (2, -1, 3)
    assert helpers.substitute_power(f, 1, 2) == f


@given(same_order_series(count=1, max_order=24), st.integers(1, 6))
def test_substitute_power_ignores_high_coefficients(data, t):
    (f,), order = data
    # Changing coefficients above order // t cannot change the result.
    keep = order // t
    twisted = f[: keep + 1] + tuple(c + 17 for c in f[keep + 1 :])
    assert helpers.substitute_power(f, t, order) == helpers.substitute_power(
        twisted, t, order
    )


def all_fractions(coeffs) -> bool:
    return all(type(c) is Fraction for c in coeffs)


def test_log_examples():
    assert helpers.log(helpers.one(3), 3) == (0, 0, 0, 0)
    mercator = helpers.log(series.neg_binomial_factor(1, 4), 4)
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
    f = helpers.substitute_power(series.neg_binomial_factor(3, 5), 2, 10)
    logged = helpers.log(f, 10)
    roundtrip = helpers.exp(logged, 10)
    assert roundtrip == f
    assert all_fractions(logged) and all_fractions(roundtrip)


@given(same_order_series(count=1, max_order=30))
def test_exp_log_roundtrip_random(data):
    (f,), order = data
    unit = (1,) + f[1:]
    logged = helpers.log(unit, order)
    roundtrip = helpers.exp(logged, order)
    assert roundtrip == unit
    assert all_fractions(logged) and all_fractions(roundtrip)


def test_partition_series_examples():
    assert helpers.partition_series(0) == (1,)
    assert helpers.partition_series(5) == (1, 1, 2, 3, 5, 7)
    assert helpers.partition_series(10)[10] == 42


def test_partition_series_matches_counts():
    assert list(helpers.partition_series(60)) == partition_numbers(60)
