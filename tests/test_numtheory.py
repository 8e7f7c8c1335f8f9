import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from helpers import brute_divisors, log_coefficient
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
    assert numtheory.divisors(1) == [1]
    assert numtheory.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert numtheory.divisors(13) == [1, 13]


@given(st.integers(1, 2000))
def test_divisors_match_brute_filter(n):
    assert numtheory.divisors(n) == brute_divisors(n)


@pytest.mark.parametrize("bad", [0, -1, -12])
def test_divisors_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        numtheory.divisors(bad)
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
        assert weights[d] == numtheory.divisor_weight(d)


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
        assert weights[d] == numtheory.divisor_weight(d), d


def test_bound_check_strict_to_the_cap():
    report = numtheory.bound_check(numtheory.BOUND_CHECK_CAP)
    assert report.equality_at_one
    assert report.failures == ()


def test_bound_check_never_divides(monkeypatch):
    def refuse(n):
        raise AssertionError("bound_check must sieve, not call sigma or divisors")

    monkeypatch.setattr(numtheory, "sigma", refuse)
    monkeypatch.setattr(numtheory, "divisors", refuse)
    report = numtheory.bound_check(100_000)
    assert report.equality_at_one
    assert report.all_strict_from_two


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


def test_divisor_weight_takes_a_sigma_table():
    assert numtheory.divisor_weight(6) == 1 * 1 + 2 * 3 + 3 * 4 + 6 * 12
    def shifted(n):
        return numtheory.sigma(n) + (1 if n == 3 else 0)

    # the weight moves by 3 * 1 at d = 6, which 3 divides, and not at d = 4
    assert numtheory.divisor_weight(6, shifted) == numtheory.divisor_weight(6) + 3
    assert numtheory.divisor_weight(4, shifted) == numtheory.divisor_weight(4)
