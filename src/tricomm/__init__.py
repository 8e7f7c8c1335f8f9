"""tricomm: the commuting-triple coefficient sequence, three independent ways.

The number T(n) of ordered pairwise-commuting triples in the symmetric group
on n points satisfies

    prod((1 - u^j)^(-sigma(j)) for j >= 1) == sum(T(n)/n! * u^n for n >= 0)

with sigma the sum-of-divisors function.  This package expands the left side
exactly (route A), recounts the right side through centralizers and wreath-
product class counts (route B), brute-forces small symmetric groups (route C),
and checks that all three agree coefficient by coefficient.
"""

__version__ = "0.1.0"
