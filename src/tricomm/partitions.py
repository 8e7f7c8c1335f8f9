"""Integer partitions, cycle types of permutations, centralizer orders.

A partition is a plain non-increasing tuple of positive parts.  The same
tuple doubles as a cycle type: part t with multiplicity m reads as "m
cycles of length t", counted by `collections.Counter`.
"""

from collections import Counter
from math import factorial


def enumerate_partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, in descending lexicographic order of part lists.

    n = 0 yields the single empty partition.
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative integer: {n}")
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def extend(remaining: int, max_part: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(remaining, max_part), 0, -1):
            prefix.append(p)
            extend(remaining - p, p)
            prefix.pop()

    extend(n, n)
    return out


def partition_numbers(n_max: int) -> list[int]:
    """p(0), ..., p(n_max) via Euler's pentagonal-number recurrence.

    Deliberately independent of `enumerate_partitions` and of the Euler
    product that the tests expand, so each can cross-check the others.
    """
    if n_max < 0:
        raise ValueError(f"cannot partition a negative integer: {n_max}")
    p = [1] + [0] * n_max
    for m in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p


def centralizer_order(cycle_type: tuple[int, ...]) -> int:
    """Order of the centralizer in S_n of a permutation with this cycle type.

    A permutation with m_t cycles of length t has centralizer of order
    prod(t**m_t * m_t!) -- the direct product of the wreath pieces Z_t wr S_m_t.
    """
    order = 1
    for t, m in Counter(cycle_type).items():
        order *= t**m * factorial(m)
    return order
