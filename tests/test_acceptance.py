"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
come.
"""

import time

from helpers import (
    coeffs_classes_series,
    exp,
    log,
    log_coefficient,
    partition_series,
    wreath_family,
)
from tricomm import numtheory, pipeline
from tricomm.cli import main
from tricomm.partitions import enumerate_partitions, partition_count
from tricomm.permgroup import (
    commuting_pairs,
    conjugacy_classes,
    enumerate_symmetric,
    triples_centralizer,
    triples_naive,
)
from tricomm.wreath import (
    class_structure_report,
    conjugate_by_invariants,
    enumerate_wreath,
    k_wreath,
)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


def test_criterion_01_identity_cross_check_order_60():
    start = time.monotonic()
    product = pipeline.coeffs_product(60)
    classes = pipeline.coeffs_classes(60)
    elapsed = time.monotonic() - start
    agree = product == classes
    report(
        1,
        "product vs classes to order 60",
        agree and elapsed <= 10.0,
        f"agree={agree}, {elapsed:.2f}s of 10s budget",
    )


def test_criterion_02_brute_force_anchor_to_degree_7():
    start = time.monotonic()
    brute = pipeline.coeffs_brute(7)
    product = pipeline.coeffs_product(7)
    elapsed = time.monotonic() - start
    agree = list(product.coeffs) == brute
    report(
        2,
        "product anchored to triple counts, n <= 7",
        agree and elapsed <= 60.0,
        f"agree={agree}, {elapsed:.2f}s of 60s budget",
    )


def test_criterion_02_brute_force_anchor_degree_8():
    brute = pipeline.coeffs_brute(8)
    product = pipeline.coeffs_product(8)
    report(
        2,
        "product anchored to triple counts, n = 8",
        list(product.coeffs) == brute,
    )


def test_criterion_02_brute_force_anchor_degree_9():
    brute = pipeline.coeffs_brute(9, cap=9)
    product = pipeline.coeffs_product(9)
    report(
        2,
        "product anchored to triple counts, n = 9",
        list(product.coeffs) == brute and brute[9] == 667,
    )


def test_criterion_03_oracle_vs_oracle():
    start = time.monotonic()
    naive = [triples_naive(n) for n in range(6)]
    cent = [triples_centralizer(n) for n in range(6)]
    elapsed = time.monotonic() - start
    frozen_prefix = naive[:5] == [1, 1, 8, 48, 504]
    agree = naive == cent
    report(
        3,
        "naive vs centralizer triple counts, n <= 5",
        agree and frozen_prefix and elapsed <= 60.0,
        f"T(5)={naive[5]}, {elapsed:.2f}s of 60s budget",
    )


def test_criterion_04_commuting_pair_identity():
    start = time.monotonic()
    bad = []
    for n in range(7):
        table = enumerate_symmetric(n)
        cc = conjugacy_classes(table)
        if commuting_pairs(table, cc) != len(table) * len(cc):
            bad.append(table.name)
    family = wreath_family(5000)
    for t, m in family:
        table = enumerate_wreath(t, m)
        cc = conjugacy_classes(table)
        k = len(cc)
        if k != k_wreath(t, m):
            bad.append(f"W({t},{m}) class count")
        if commuting_pairs(table, cc) != len(table) * k:
            bad.append(f"W({t},{m})")
    elapsed = time.monotonic() - start
    report(
        4,
        "pairs == order * class count",
        not bad,
        f"S_0..S_6 plus {len(family)} wreath groups, {elapsed:.2f}s"
        + (f"; failures: {bad}" if bad else ""),
    )


def test_criterion_05_invariant_conjugacy_matches_orbits():
    start = time.monotonic()
    bad = []
    family = wreath_family(2000)
    for t, m in family:
        rep = class_structure_report(t, m)
        if not (rep.counts_agree and rep.invariants_match_orbits and rep.labels_match_orbits):
            bad.append(f"W({t},{m})")
        if rep.order <= 120:
            # literal all-pairs statement on the small groups
            table = enumerate_wreath(t, m)
            cc = conjugacy_classes(table)
            orbit_of = {i: ci for ci, cls in enumerate(cc) for i in cls}
            for i, x in enumerate(table.elements):
                for j, y in enumerate(table.elements):
                    if conjugate_by_invariants(x, y) != (orbit_of[i] == orbit_of[j]):
                        bad.append(f"W({t},{m}) pair {i},{j}")
    elapsed = time.monotonic() - start
    report(
        5,
        "conjugacy by invariants == orbit conjugacy",
        not bad,
        f"{len(family)} wreath groups, {elapsed:.2f}s"
        + (f"; failures: {bad[:3]}" if bad else ""),
    )


def test_criterion_06_class_pipeline_hinge():
    per_type = pipeline.coeffs_classes(60)
    product_form = coeffs_classes_series(60)
    report(
        6,
        "type-sum form == series-product form to order 60",
        per_type == product_form,
    )


def test_criterion_07_log_identity_and_roundtrip():
    order = 40
    expanded = pipeline.coeffs_product(order)
    logged = log(expanded.coeffs, order)
    mismatches = [
        d for d in range(1, order + 1) if logged[d] != log_coefficient(d)
    ]
    roundtrip = exp(logged, order) == expanded.coeffs
    checker = pipeline.verify_log(order)
    report(
        7,
        "formal log == divisor formula to order 40, exp/log roundtrip",
        not mismatches and roundtrip and checker.ok,
        f"mismatches={mismatches[:3]}, roundtrip={roundtrip}",
    )


def test_criterion_08_quartic_bound_to_1e5():
    start = time.monotonic()
    bound = numtheory.bound_check(100_000)
    elapsed = time.monotonic() - start
    ok = bound.equality_at_one and bound.all_strict_from_two
    report(
        8,
        "divisor-sum bound strict on 2..1e5, equality at 1",
        ok and elapsed <= 30.0,
        f"{elapsed:.2f}s of 30s budget",
    )


def test_criterion_09_determinism_and_negative_control(tmp_path, capsys):
    first = tmp_path / "run1.bfile"
    second = tmp_path / "run2.bfile"
    assert main(["expand", "-N", "20", "--out", str(first)]) == 0
    assert main(["expand", "-N", "20", "--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()

    code = main(["verify", "-N", "8", "-K", "2", "--corrupt-sigma", "3"])
    out = capsys.readouterr().out
    control = code == 1 and "index 3" in out

    with capsys.disabled():
        report(
            9,
            "byte-identical reruns; corrupted sigma exits 1 naming the index",
            identical and control,
            f"identical={identical}, negative_control={control}",
        )


def test_criterion_10_eulerian_expansion():
    p = partition_series(60)
    by_enumeration = all(
        p[d] == len(enumerate_partitions(d)) for d in range(41)
    )
    by_recurrence = all(p[d] == partition_count(d) for d in range(61))
    report(
        10,
        "partition series vs enumeration (<=40) and recurrence (<=60)",
        by_enumeration and by_recurrence,
    )
