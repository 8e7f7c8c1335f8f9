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
from .numtheory import bound_check, divisors, sigma
from .partitions import (
    Partition,
    centralizer_order,
    enumerate_partitions,
    partition_count,
)
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
    growth_report,
    verify_identity,
    verify_log,
)
from .series import IntSeries
from .wreath import (
    WreathElement,
    class_label_of,
    conjugate_by_invariants,
    cycle_sum_invariants,
    enumerate_class_labels,
    enumerate_wreath,
    k_wreath,
    w_inv,
    w_mul,
    wreath_element,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "GroupTable",
    "IntSeries",
    "Partition",
    "WreathElement",
    "bound_check",
    "centralizer_order",
    "class_label_of",
    "coeffs_brute",
    "coeffs_classes",
    "coeffs_product",
    "commuting_pairs",
    "conjugacy_classes",
    "conjugate_by_invariants",
    "cycle_sum_invariants",
    "cycle_type",
    "divisors",
    "enumerate_class_labels",
    "enumerate_partitions",
    "enumerate_symmetric",
    "enumerate_wreath",
    "growth_report",
    "k_wreath",
    "partition_count",
    "sigma",
    "triples_centralizer",
    "triples_naive",
    "verify_identity",
    "verify_log",
    "w_inv",
    "w_mul",
    "wreath_element",
]
