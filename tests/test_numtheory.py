import functools
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from helpers import brute_divisors, divisor_weight, divisors, log_coefficient
from tricomm import numtheory
from tricomm.errors import CapExceeded


def primes_up_to(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, n + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [p for p in range(2, n + 1) if sieve[p]]


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(13) == [1, 13]


@given(st.integers(1, 2000))
def test_divisors_match_brute_filter(n):
    assert divisors(n) == brute_divisors(n)


@pytest.mark.parametrize("bad", [0, -1, -12])
def test_divisors_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        divisors(bad)
    with pytest.raises(ValueError):
        numtheory.sigma(bad)


def test_sigma_examples():
    assert numtheory.sigma(1) == 1
    assert numtheory.sigma(6) == 12
    assert numtheory.sigma(13) == 14


@given(st.integers(1, 3000))
def test_sigma_is_divisor_sum(n):
    assert numtheory.sigma(n) == sum(brute_divisors(n))


@given(st.integers(1, 1000), st.integers(1, 1000))
def test_sigma_multiplicative_on_coprime_arguments(m, n):
    if gcd(m, n) == 1:
        assert numtheory.sigma(m * n) == numtheory.sigma(m) * numtheory.sigma(n)


def test_sigma_of_primes():
    for p in primes_up_to(1000):
        assert numtheory.sigma(p) == p + 1


def test_log_coefficient_examples():
    assert log_coefficient(1) == 1
    assert log_coefficient(2) == Fraction(7, 2)
    assert log_coefficient(4) == Fraction(35, 4)


def test_log_coefficient_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_coefficient(0)


def test_log_coefficient_times_d_is_positive_integer():
    for d in range(1, 1001):
        scaled = log_coefficient(d) * d
        assert scaled.denominator == 1
        assert scaled > 0


def test_divisor_weights_small():
    assert numtheory.divisor_weights(4) == [0, 1, 7, 13, 35]
    assert numtheory.divisor_weights(0) == [0]
    assert numtheory.divisor_weights(6)[6] == divisor_weight(6) == 1 * 1 + 2 * 3 + 3 * 4 + 6 * 12
    report = numtheory.bound_check(4)
    assert report.d_max == 4
    assert report.equality_at_one
    assert report.all_strict_from_two


def test_bound_check_strict_to_ten_thousand():
    report = numtheory.bound_check(10_000)
    assert report.equality_at_one
    assert report.failures == ()


def test_divisor_weights_match_direct_formula():
    weights = numtheory.divisor_weights(200)
    for d in range(1, 201):
        assert weights[d] == sum(a * numtheory.sigma(a) for a in brute_divisors(d))


def test_divisor_weights_match_trial_division():
    weights = numtheory.divisor_weights(2000)
    assert len(weights) == 2001
    for d in range(1, 2001):
        assert weights[d] == divisor_weight(d)


def test_divisor_weights_do_not_depend_on_where_the_sieve_stops():
    # Up to 1100, sqrt(d_max) passes every prime up to 31 and its square.
    full = numtheory.divisor_weights(1100)
    for d_max in range(1101):
        assert numtheory.divisor_weights(d_max) == full[: d_max + 1], d_max


@pytest.mark.parametrize("d_max", [0, 1, 2, 3])
def test_divisor_weights_below_the_first_sieving_prime(d_max):
    assert numtheory.divisor_weights(d_max) == [0, 1, 7, 13][: d_max + 1]


def test_divisor_weights_at_the_cap_match_trial_division():
    cap = numtheory.BOUND_CHECK_CAP
    weights = numtheory.divisor_weights(cap)
    assert len(weights) == cap + 1
    prime_powers = [
        p**k for p in primes_up_to(1000) for k in range(1, 20) if p**k <= cap
    ]
    assert 2**19 in prime_powers and 3**12 in prime_powers and 997**2 in prime_powers
    sampled = prime_powers + [999_983, 999_958] + list(range(999_900, cap + 1))
    for d in sampled:
        assert weights[d] == divisor_weight(d), d


def test_bound_check_strict_to_the_cap():
    report = numtheory.bound_check(numtheory.BOUND_CHECK_CAP)
    assert report.equality_at_one
    assert report.failures == ()


def test_bound_check_never_divides(monkeypatch):
    def refuse(n):
        raise AssertionError("bound_check must sieve, not call sigma")

    monkeypatch.setattr(numtheory, "sigma", refuse)
    report = numtheory.bound_check(100_000)
    assert report.equality_at_one
    assert report.all_strict_from_two


BLOCK_SWEEP_MAX = 10**5
# Bound before any test patches `divisor_weights`.
HONEST_SIEVE = numtheory.divisor_weights
# Both sides of every dyadic block edge 2^k up to 10^5.
BLOCK_EDGES = sorted(
    {d for k in range(1, 17) for d in (2**k - 1, 2**k, 2**k + 1) if 2 <= d <= BLOCK_SWEEP_MAX}
)


@functools.cache
def honest_weights():
    return tuple(HONEST_SIEVE(BLOCK_SWEEP_MAX))


def weights_equal_to_d4_at(ds):
    """A `divisor_weights` stand-in: the honest sieve with w(d) = d**4, the
    smallest violation, at each d in `ds`."""

    def weights(d_max):
        lhs = list(honest_weights()[: d_max + 1])
        for d in ds:
            lhs[d] = d**4
        return lhs

    return weights


def test_bound_check_keeps_only_failures(monkeypatch):
    sieve = numtheory.divisor_weights

    def weights_with_violations(d_max):
        lhs = sieve(d_max)
        lhs[7] = 7**4
        lhs[9] = 9**4 + 1
        return lhs

    monkeypatch.setattr(numtheory, "divisor_weights", weights_with_violations)
    report = numtheory.bound_check(10)
    assert report.failures == ((7, 7**4, 7**4), (9, 9**4 + 1, 9**4))
    assert report.equality_at_one
    assert not report.all_strict_from_two

    # Violations in different dyadic blocks, at block edges and in the last,
    # partial block, are all listed in ascending order.
    corrupted = [2, 3, 100, 1023, 1024, 1025, 65_535, 65_536, 99_999]
    monkeypatch.setattr(numtheory, "divisor_weights", weights_equal_to_d4_at(corrupted))
    report = numtheory.bound_check(99_999)
    assert report.failures == tuple((d, d**4, d**4) for d in corrupted)
    assert report.equality_at_one


@pytest.mark.parametrize("d", BLOCK_EDGES)
def test_bound_check_reports_a_violation_at_every_block_edge(monkeypatch, d):
    monkeypatch.setattr(numtheory, "divisor_weights", weights_equal_to_d4_at([d]))
    assert numtheory.bound_check(BLOCK_SWEEP_MAX).failures == ((d, d**4, d**4),)


@pytest.mark.parametrize("d_max", [3, 1000, 70_001, 99_999])
def test_bound_check_reports_a_violation_at_the_end_of_a_partial_block(monkeypatch, d_max):
    # No d_max here is a power of two, so the last block stops short.
    monkeypatch.setattr(numtheory, "divisor_weights", weights_equal_to_d4_at([d_max]))
    assert numtheory.bound_check(d_max).failures == ((d_max, d_max**4, d_max**4),)


@pytest.mark.parametrize("d_max", [2, 99_999, BLOCK_SWEEP_MAX])
def test_bound_check_never_reports_one_below_the_bound(monkeypatch, d_max):
    # w(d) = d^4 - 1 everywhere: from the block [2, 4) on, every block's
    # maximum reaches lo^4, so its d are compared one by one, and none fails.
    monkeypatch.setattr(
        numtheory, "divisor_weights", lambda n: [0, 1] + [d**4 - 1 for d in range(2, n + 1)]
    )
    report = numtheory.bound_check(d_max)
    assert report.equality_at_one
    assert report.failures == ()


def test_bound_check_cap_refuses_before_the_sieve(monkeypatch):
    def unreachable(d_max):
        raise AssertionError("the cap must refuse before the sieve runs")

    monkeypatch.setattr(numtheory, "divisor_weights", unreachable)
    start = time.monotonic()
    with pytest.raises(CapExceeded, match="bound-check cap=1000000"):
        numtheory.bound_check(numtheory.BOUND_CHECK_CAP + 1)
    with pytest.raises(CapExceeded):
        numtheory.bound_check(10**8)
    assert time.monotonic() - start < 1.0


def test_bound_check_rejects_zero():
    with pytest.raises(ValueError):
        numtheory.bound_check(0)

