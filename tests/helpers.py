"""Shared test scaffolding: group families and brute-force oracles."""

from math import factorial

from tricomm import numtheory, series
from tricomm.permgroup import ConjugacyClasses

# The (t, m) grid is capped at t <= 9, m <= 8: every group with m >= 3 and
# order within the 5000-element budget already has t <= 9, and the m <= 1
# rows are degenerate (trivial groups / abelian Z_t) for every larger t.
FAMILY_T_MAX = 9
FAMILY_M_MAX = 8


def wreath_family(order_cap: int, t_max: int = FAMILY_T_MAX, m_max: int = FAMILY_M_MAX):
    """All (t, m) pairs in the test grid whose group order fits the cap."""
    return [
        (t, m)
        for t in range(1, t_max + 1)
        for m in range(0, m_max + 1)
        if t**m * factorial(m) <= order_cap
    ]


def brute_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def commuting_pairs_double_loop(table) -> int:
    """Reference ordered-pair count: no grouping, no shortcuts."""
    total = 0
    for g in table.elements:
        for h in table.elements:
            if table.mul(g, h) == table.mul(h, g):
                total += 1
    return total


def centralizer_by_filter(g, table) -> tuple:
    """Reference centralizer: every element of `table` commuting with g,
    in table order."""
    return tuple(h for h in table.elements if table.mul(g, h) == table.mul(h, g))


def conjugacy_classes_full_sweep(table):
    """Reference orbit partition: each orbit conjugates its first element by
    every element of the table; no generators."""
    elems, mul, inv, index = table.elements, table.mul, table.inv, table.index
    assigned = [False] * len(elems)
    classes, reps = [], []
    for i, g in enumerate(elems):
        if assigned[i]:
            continue
        orbit = {index[mul(mul(x, g), inv(x))] for x in elems}
        for j in orbit:
            assigned[j] = True
        classes.append(tuple(sorted(orbit)))
        reps.append(i)
    return ConjugacyClasses(classes=tuple(classes), representatives=tuple(reps))


def coeffs_product_by_mul(order: int, sigma_fn=numtheory.sigma) -> series.IntSeries:
    """Reference route A: each factor (1 - u^j)^(-sigma_fn(j)) built whole
    by `neg_binomial_factor` and multiplied in with `series.mul`; no
    in-place update."""
    result = series.one(order)
    for j in range(1, order + 1):
        factor = series.neg_binomial_factor(j, sigma_fn(j), order)
        result = series.mul(result, factor, order)
    return result
