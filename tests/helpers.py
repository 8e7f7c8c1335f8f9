"""Shared test scaffolding: group families and reference oracles.

The oracles here are what the cross-checks compare the library against, so
they call no route of it and share no series kernel with it: the Cauchy
product `mul` and the constant series `one` live here, and route A's
factors are built from `math.comb`.  A series is a plain tuple of ints, as
the library returns it.  Divisor sums are found by trial division here, where
the library sieves them.  P^t is powered here by repeated squaring (`power`),
where production builds it as a running product.  Formal log/exp work on
plain tuples of `Fraction`; the library itself is integer-only.  The
library composes `bytes` permutations with `bytes.translate`; the
reference product here indexes tuples.  The library lists W(t, m) as
permutations of t*m points; the wreath group law on (colors, perm) pairs
and the embedding formula that maps a pair to its image (`embed`) live
here, as the reference the listed tables are checked against.
"""

import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from tricomm import numtheory, partitions, permgroup, wreath
from tricomm.permgroup import inverse_perm, perm_cycles

# The (t, m) grid is capped at t <= 9, m <= 8: every group with m >= 3 and
# order within the 5000-element budget already has t <= 9, and the m <= 1
# rows are degenerate (trivial groups / abelian Z_t) for every larger t.
FAMILY_T_MAX = 9
FAMILY_M_MAX = 8


ROOT = Path(__file__).resolve().parent.parent


def run_python(*args, stdout=subprocess.PIPE, timeout=60):
    """Run `python *args` in a fresh interpreter with `src` on the path;
    stdout is captured unless `stdout` names another file."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=timeout,
    )


def run_cli(*argv, stdout=subprocess.PIPE, timeout=60):
    """Run the real entry point, `python -m tricomm.cli *argv`, in a fresh
    interpreter."""
    return run_python("-m", "tricomm.cli", *argv, stdout=stdout, timeout=timeout)


def add_centralizer_pairs(monkeypatch, ct, extra):
    """Corrupt route C: the class of cycle type `ct` gets `extra(table)` more
    commuting pairs, where `table` is the Cent(g) that route C lists."""
    target = permgroup.permutation_of_type(ct)
    honest = permgroup.centralizer_pairs

    def corrupted(g, table):
        return honest(g, table) + (extra(table) if g == target else 0)

    monkeypatch.setattr(permgroup, "centralizer_pairs", corrupted)


def wreath_family(order_cap: int, t_max: int = FAMILY_T_MAX, m_max: int = FAMILY_M_MAX):
    """All (t, m) pairs in the test grid whose group order fits the cap."""
    return wreath.wreath_family(order_cap, t_max, m_max)


def brute_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def divisors(n: int) -> list[int]:
    """All positive divisors of n, strictly ascending, by trial division up
    to sqrt(n)."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small = []
    large = []
    for i in range(1, math.isqrt(n) + 1):
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
    large.reverse()
    return small + large


def divisor_weight(d: int) -> int:
    """Reference w(d) = sum(a * sigma(a) for a | d) by trial division, each
    sigma(a) summed from `divisors(a)`: no sieve, no library sigma."""
    if d < 1:
        raise ValueError(f"divisor_weight requires d >= 1, got {d}")
    return sum(a * sum(divisors(a)) for a in divisors(d))


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
    elems, mul, inv = table.elements, table.mul, inverse_perm
    index = {g: i for i, g in enumerate(elems)}
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


def tuple_compose(g, h) -> tuple:
    """Reference product g*h, (g*h)(i) = g(h(i)), as a tuple."""
    return tuple(g[i] for i in h)


def tuple_inverse(g) -> tuple:
    """Reference inverse as a tuple."""
    out = [0] * len(g)
    for i, v in enumerate(g):
        out[v] = i
    return tuple(out)


class WreathElement(NamedTuple):
    """(colors, perm) in W(modulus, len(perm)), the reference form."""

    colors: tuple[int, ...]
    perm: tuple[int, ...]
    modulus: int


def wreath_element(colors, perm, modulus: int) -> WreathElement:
    """Validating constructor for a W(modulus, len(colors)) element."""
    colors = tuple(colors)
    perm = tuple(perm)
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    if len(colors) != len(perm):
        raise ValueError(
            f"{len(colors)} colors cannot ride a permutation of {len(perm)} points"
        )
    if sorted(perm) != list(range(len(perm))):
        raise ValueError(f"not a permutation: {perm}")
    if any(not 0 <= c < modulus for c in colors):
        raise ValueError(f"colors must lie in 0..{modulus - 1}: {colors}")
    return WreathElement(colors, perm, modulus)


def w_mul(x: WreathElement, y: WreathElement) -> WreathElement:
    """Reference law (A, e) * (B, f) = (A + B.e, e*f), (B.e)[i] = B[e^-1(i)]."""
    ax, ex, t = x
    ay, ey, u = y
    if t != u or len(ax) != len(ay):
        raise ValueError(f"elements of W({t},{len(ax)}) and W({u},{len(ay)}) do not multiply")
    ex_inv = tuple_inverse(ex)
    colors = tuple((a + ay[j]) % t for a, j in zip(ax, ex_inv))
    return WreathElement(colors, tuple_compose(ex, ey), t)


def w_inv(x: WreathElement) -> WreathElement:
    a, e, t = x
    colors = tuple((-a[e[i]]) % t for i in range(len(a)))
    return WreathElement(colors, tuple_inverse(e), t)


def wreath_elements(t: int, m: int) -> tuple[WreathElement, ...]:
    """Every element of W(t, m) in the reference form, colors-major.
    `wreath.enumerate_wreath` lists their images in sorted order."""
    perms = tuple(itertools.permutations(range(m)))
    return tuple(
        WreathElement(colors, perm, t)
        for colors in itertools.product(range(t), repeat=m)
        for perm in perms
    )


def embed(x: WreathElement) -> bytes:
    """The image of x = (A, e) in S_(t*m) that the library lists: point
    c*m + i goes to ((c + A[e(i)]) mod t)*m + e(i)."""
    a, e, t = x
    m = len(e)
    return bytes(((c + a[j]) % t) * m + j for c in range(t) for j in e)


def decode(image: bytes, t: int, m: int) -> WreathElement:
    """Read (colors, perm) back from an image in S_(t*m): its first m points
    carry A[e(i)] * m + e(i)."""
    colors = [0] * m
    for v in image[:m]:
        colors[v % m] = v // m
    return WreathElement(tuple(colors), tuple(v % m for v in image[:m]), t)


def invariants_of(x: WreathElement) -> tuple[tuple[int, int], ...]:
    """Reference cycle-sum invariants, summed from the colors themselves."""
    a, e, t = x
    return tuple(sorted((sum(a[i] for i in c) % t, len(c)) for c in perm_cycles(e)))


def one(order: int) -> tuple[int, ...]:
    """The constant series 1 at the given truncation order."""
    return (1,) + (0,) * order


def mul(f: tuple[int, ...], g: tuple[int, ...], order: int) -> tuple[int, ...]:
    """Reference Cauchy product truncated at `order`; both operands must
    reach it.

    Each nonzero term of `f` adds its multiple of `g`, shifted, as one
    whole-row update, so a sparse first operand is cheap; terms of either
    operand past `order` are ignored.
    """
    out = [0] * (order + 1)
    for i, a in enumerate(f[: order + 1]):
        if a:
            out[i:] = [c + a * b for c, b in zip(out[i:], g)]
    return tuple(out)


def coeffs_product_by_mul(order: int, sigma_fn=numtheory.sigma) -> tuple[int, ...]:
    """Reference route A: each factor (1 - u^j)^(-sigma_fn(j)) built whole,
    its u^(j*k) coefficient C(s+k-1, k) from `math.comb`, and multiplied in
    with `mul`, the sparse factor first; no in-place update."""
    result = one(order)
    for j in range(1, order + 1):
        result = mul(neg_binomial(sigma_fn(j), j, order), result, order)
    return result


def neg_binomial(s: int, step: int, order: int) -> tuple[int, ...]:
    """Reference (1 - u^step)^(-s) truncated at `order`: its u^(step*k)
    coefficient C(s+k-1, k) from `math.comb`, the rest zero."""
    factor = [0] * (order + 1)
    factor[::step] = [math.comb(s + k - 1, k) for k in range(order // step + 1)]
    return tuple(factor)


def partition_series(order: int) -> tuple[int, ...]:
    """Reference sum(p(d) * u^d): the Euler product prod((1 - u^s)^(-1))."""
    return coeffs_product_by_mul(order, lambda s: 1)


def substitute_power(f: tuple[int, ...], t: int, order: int) -> tuple[int, ...]:
    """u -> u^t: the u^(k*t) coefficient becomes f[k], the rest zero.

    Only f's coefficients up to order // t are read.
    """
    if t < 1:
        raise ValueError(f"substitution step t must be >= 1, got {t}")
    out = [0] * (order + 1)
    out[::t] = f[: order // t + 1]
    return tuple(out)


def power(f: tuple[int, ...], t: int, order: int) -> tuple[int, ...]:
    """Reference f**t truncated at `order`, by repeated squaring; t = 0 gives
    the constant series 1."""
    if t < 0:
        raise ValueError(f"power requires t >= 0, got {t}")
    result = one(order)
    base = f
    while t:
        if t & 1:
            result = mul(result, base, order)
        t >>= 1
        if t:
            base = mul(base, base, order)
    return result


def coeffs_classes_series(order: int) -> tuple[int, ...]:
    """Reference route B, series form: the truncated product of P(u^t)^t
    over t = 1..order.

    P is the Euler product, not the pentagonal recurrence; P^t is powered by
    squaring, not as a running product; factors are multiplied as series,
    sparse factor first, not by in-place row updates.
    """
    p = partition_series(order)
    result = one(order)
    for t in range(1, order + 1):
        p_t = power(p, t, order // t)
        result = mul(substitute_power(p_t, t, order), result, order)
    return result


def class_count_by_types(n: int) -> int:
    """Reference route B, literal form: walk every partition of n explicitly,
    with each class count k_wreath(t, m), t*m <= n, read once up front."""
    k = {(t, m): wreath.k_wreath(t, m) for t in range(1, n + 1) for m in range(1, n // t + 1)}
    total = 0
    for ct in partitions.enumerate_partitions(n):
        w = 1
        for t, m in Counter(ct).items():
            w *= k[t, m]
        total += w
    return total


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
    sum(a*sigma(a) for a | d) / d, in lowest terms, from the trial-division
    `divisor_weight`."""
    return Fraction(divisor_weight(d), d)
