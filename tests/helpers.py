"""Shared test scaffolding: group families and reference oracles.

The oracles here are what the cross-checks compare the library against, so
they call no route of it: route B's series form and the partition Euler
product share only `series.mul`, `series.power` and the trivial builders
`series.one` and `series.neg_binomial_factor` with production.  Formal
log/exp work on plain tuples of `Fraction`; the library itself is
integer-only.
"""

from fractions import Fraction

from tricomm import numtheory, series, wreath

# The (t, m) grid is capped at t <= 9, m <= 8: every group with m >= 3 and
# order within the 5000-element budget already has t <= 9, and the m <= 1
# rows are degenerate (trivial groups / abelian Z_t) for every larger t.
FAMILY_T_MAX = 9
FAMILY_M_MAX = 8


def wreath_family(order_cap: int, t_max: int = FAMILY_T_MAX, m_max: int = FAMILY_M_MAX):
    """All (t, m) pairs in the test grid whose group order fits the cap."""
    return wreath.wreath_family(order_cap, t_max, m_max)


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
    classes = []
    for i, g in enumerate(elems):
        if assigned[i]:
            continue
        orbit = {index[mul(mul(x, g), inv(x))] for x in elems}
        for j in orbit:
            assigned[j] = True
        classes.append(tuple(sorted(orbit)))
    return tuple(classes)


def coeffs_product_by_mul(order: int, sigma_fn=numtheory.sigma) -> series.IntSeries:
    """Reference route A: each factor (1 - u^j)^(-sigma_fn(j)) built whole
    by `neg_binomial_factor` and multiplied in with `series.mul`; no
    in-place update."""
    result = series.one(order)
    for j in range(1, order + 1):
        factor = series.neg_binomial_factor(j, sigma_fn(j), order)
        result = series.mul(result, factor, order)
    return result


def partition_series(order: int) -> series.IntSeries:
    """Reference sum(p(d) * u^d): the Euler product prod((1 - u^s)^(-1))."""
    return coeffs_product_by_mul(order, lambda s: 1)


def substitute_power(f: series.IntSeries, t: int, order: int) -> series.IntSeries:
    """u -> u^t: the u^(k*t) coefficient becomes f[k], the rest zero.

    Only f's coefficients up to order // t are read.
    """
    if t < 1:
        raise ValueError(f"substitution step t must be >= 1, got {t}")
    out = [0] * (order + 1)
    out[::t] = f.coeffs[: order // t + 1]
    return series.IntSeries(tuple(out))


def coeffs_classes_series(order: int) -> series.IntSeries:
    """Reference route B, series form: the truncated product of P(u^t)^t
    over t = 1..order.

    P is the Euler product, not the pentagonal recurrence; P^t is powered by
    squaring, not as a running product; factors are multiplied as series,
    not by in-place row updates.
    """
    p = partition_series(order)
    result = series.one(order)
    for t in range(1, order + 1):
        p_t = series.power(p.truncate(order // t), t, order // t)
        result = series.mul(result, substitute_power(p_t, t, order), order)
    return result


def log(f, order: int) -> tuple[Fraction, ...]:
    """Formal logarithm of the coefficients `f` (constant term 1), by the
    derivative recurrence n*l_n = n*f_n - sum(k*l_k*f_(n-k) for 0 < k < n)."""
    if f[0] != 1:
        raise ValueError("log requires constant term 1")
    out = [Fraction(0)]
    for n in range(1, order + 1):
        acc = n * f[n] - sum(k * out[k] * f[n - k] for k in range(1, n))
        out.append(Fraction(acc, n))
    return tuple(out)


def exp(f, order: int) -> tuple[Fraction, ...]:
    """Formal exponential of the coefficients `f` (constant term 0)."""
    if f[0] != 0:
        raise ValueError("exp requires constant term 0")
    out = [Fraction(1)]
    for n in range(1, order + 1):
        out.append(Fraction(sum(k * f[k] * out[n - k] for k in range(1, n + 1)), n))
    return tuple(out)


def log_coefficient(d: int) -> Fraction:
    """Coefficient of u^d in the formal log of the sigma Euler product:
    sum(a*sigma(a) for a | d) / d, in lowest terms."""
    return Fraction(numtheory.divisor_weight(d), d)
