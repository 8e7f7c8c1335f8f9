"""tricomm: the commuting-triple coefficient sequence, three independent ways.

The number T(n) of ordered pairwise-commuting triples in the symmetric group
on n points satisfies

    prod((1 - u^j)^(-sigma(j)) for j >= 1) == sum(T(n)/n! * u^n for n >= 0)

with sigma the sum-of-divisors function.  This package expands the left side
exactly (route A), recounts the right side through centralizers and wreath-
product class counts (route B), brute-forces small symmetric groups (route C),
and checks that all three agree coefficient by coefficient.
"""

from .errors import CapExceeded
from .numtheory import bound_check, sigma
from .partitions import centralizer_order, enumerate_partitions
from .permgroup import (
    GroupTable,
    commuting_pairs,
    conjugacy_classes,
    cycle_type,
    enumerate_symmetric,
    triples_centralizer,
    triples_naive,
)
from .pipeline import (
    coeffs_brute,
    coeffs_classes,
    coeffs_product,
    verify_identity,
    verify_log,
)
from .wreath import (
    cycle_sum_invariants,
    enumerate_class_labels,
    enumerate_wreath,
    k_wreath,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "GroupTable",
    "bound_check",
    "centralizer_order",
    "coeffs_brute",
    "coeffs_classes",
    "coeffs_product",
    "commuting_pairs",
    "conjugacy_classes",
    "cycle_sum_invariants",
    "cycle_type",
    "enumerate_class_labels",
    "enumerate_partitions",
    "enumerate_symmetric",
    "enumerate_wreath",
    "k_wreath",
    "sigma",
    "triples_centralizer",
    "triples_naive",
    "verify_identity",
    "verify_log",
]
