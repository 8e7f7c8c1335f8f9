"""Integer partitions, cycle types of permutations, centralizer orders.

A partition is stored canonically as a non-increasing tuple of positive
parts.  The same object doubles as a cycle type: read part t with
multiplicity m as "m cycles of length t" via `multiplicities()`.
"""

from collections import namedtuple
from math import factorial


class Partition(namedtuple("Partition", "parts")):
    __slots__ = ()

    def __new__(cls, parts):
        parts = tuple(parts)
        if any(p < 1 for p in parts):
            raise ValueError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be non-increasing: {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def multiplicities(self) -> dict[int, int]:
        """Cycle-type view: {part -> multiplicity}, only nonzero entries."""
        mult: dict[int, int] = {}
        for p in self.parts:
            mult[p] = mult.get(p, 0) + 1
        return mult


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, in descending lexicographic order of part lists.

    n = 0 yields the single empty partition.
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative integer: {n}")
    out: list[Partition] = []
    prefix: list[int] = []

    def extend(remaining: int, max_part: int) -> None:
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
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


def partition_count(n: int) -> int:
    """p(n), read from `partition_numbers`."""
    return partition_numbers(n)[n]


def centralizer_order(cycle_type: Partition) -> int:
    """Order of the centralizer in S_n of a permutation with this cycle type.

    A permutation with m_t cycles of length t has centralizer of order
    prod(t**m_t * m_t!) -- the direct product of the wreath pieces Z_t wr S_m_t.
    """
    order = 1
    for t, m in cycle_type.multiplicities().items():
        order *= t**m * factorial(m)
    return order
