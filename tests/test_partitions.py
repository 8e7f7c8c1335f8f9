import pytest
from hypothesis import given, strategies as st

from helpers import partition_series
from tricomm.partitions import (
    centralizer_order,
    enumerate_partitions,
    partition_numbers,
)


def test_enumerate_partitions_small():
    assert enumerate_partitions(0) == [()]
    assert enumerate_partitions(4) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert len(enumerate_partitions(10)) == 42


def test_enumerate_partitions_order_and_validity():
    for n in range(12):
        parts_lists = enumerate_partitions(n)
        assert parts_lists == sorted(parts_lists, reverse=True)
        assert len(set(parts_lists)) == len(parts_lists)
        for p in parts_lists:
            assert sum(p) == n
            assert all(a >= b >= 1 for a, b in zip(p, p[1:] + (1,)))


def test_partition_count_matches_enumeration():
    p = partition_numbers(40)
    for n in range(41):
        assert p[n] == len(enumerate_partitions(n))


def test_partition_numbers_match_euler_product():
    assert partition_numbers(0) == [1]
    p = partition_numbers(10)
    assert (p[0], p[5], p[10]) == (1, 7, 42)
    assert partition_numbers(1000) == list(partition_series(1000))
    with pytest.raises(ValueError):
        partition_numbers(-1)


@given(st.integers(0, 25))
def test_multiplicities_sum_to_the_size(n):
    for p in enumerate_partitions(n):
        assert sum(p) == n


def test_centralizer_order_examples():
    assert centralizer_order((1, 1, 1, 1)) == 24  # identity in S_4
    assert centralizer_order((5,)) == 5  # a single 5-cycle
    assert centralizer_order((2, 2)) == 8  # 2^2 * 2!


def test_class_equation():
    from math import factorial

    for n in range(13):
        total = sum(
            factorial(n) // centralizer_order(ct) for ct in enumerate_partitions(n)
        )
        assert total == factorial(n)
