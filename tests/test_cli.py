import ast
import hashlib
import json
import os
import sys
import time

import pytest

from helpers import ROOT, add_centralizer_pairs, run_cli, run_python
from tricomm import cli, numtheory, pipeline, series, wreath
from tricomm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_bfile_golden(capsys):
    code, out, _ = run(capsys, "expand", "-N", "2")
    assert code == 0
    assert out == "0 1\n1 1\n2 4\n"


def test_expand_order_zero(capsys):
    code, out, _ = run(capsys, "expand", "-N", "0")
    assert code == 0
    assert out == "0 1\n"


def test_expand_json_with_metadata(capsys):
    code, out, _ = run(capsys, "expand", "-N", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "method": "product",
        "order": 4,
        "coefficients": [1, 1, 4, 8, 21],
    }


def test_expand_json_no_meta(capsys):
    code, out, _ = run(capsys, "expand", "-N", "3", "--format", "json", "--no-meta")
    assert code == 0
    assert json.loads(out) == [1, 1, 4, 8]


def test_expand_csv(capsys):
    code, out, _ = run(capsys, "classes", "-N", "2", "--format", "csv")
    assert code == 0
    assert out == "n,value\n0,1\n1,1\n2,4\n"


def test_classes_and_brute_agree_with_expand(capsys):
    _, expanded, _ = run(capsys, "expand", "-N", "5")
    _, classed, _ = run(capsys, "classes", "-N", "5")
    _, bruted, _ = run(capsys, "brute", "-N", "5")
    assert expanded == classed == bruted


def test_byte_identical_reruns(tmp_path, capsys):
    first = tmp_path / "a.bfile"
    second = tmp_path / "b.bfile"
    assert main(["expand", "-N", "12", "--out", str(first)]) == 0
    assert main(["expand", "-N", "12", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_unwritable_output_path_is_io_error(capsys):
    code, _, err = run(capsys, "expand", "-N", "2", "--out", "/nonexistent/dir/f.txt")
    assert code == 2
    assert "cannot write" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize(
    "argv", [["expand", "-N", "10"], ["verify", "-N", "8", "-K", "2"], ["bound-check", "-N", "10"]]
)
def test_failed_stdout_write_is_io_error(argv):
    # Through the real entry point: its last flush must not report the
    # failed write a second time, and teardown must not warn about it.
    with open("/dev/full", "w") as full:
        result = run_cli(*argv, stdout=full, timeout=30)
    assert result.returncode == 2
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("cannot write stdout: ")
    assert "internal error" not in result.stderr
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "-N", "10", "-K", "3")
    assert code == 0
    assert "VERIFIED" in out


def test_verify_full_output_is_pinned(capsys):
    code, out, err = run(capsys, "verify", "-N", "60", "-K", "7")
    assert (code, err) == (0, "")
    assert out == (
        "identity: product == classes on 0..60, == brute on 0..7: ok\n"
        "log coefficients: ok on 1..60\n"
        "commuting-pair identity: ok on 17 wreath groups\n"
        "wreath conjugacy structure: ok on 17 wreath groups\n"
        "naive triple count: ok on 0..5\n"
        "VERIFIED\n"
    )


def test_verify_order_zero_output_is_pinned(capsys):
    code, out, err = run(capsys, "verify", "-N", "0", "-K", "0")
    assert (code, err) == (0, "")
    assert out == (
        "identity: product == classes on 0..0, == brute on 0..0: ok\n"
        "log coefficients: skipped (order 0 has no log terms)\n"
        "commuting-pair identity: ok on 17 wreath groups\n"
        "wreath conjugacy structure: ok on 17 wreath groups\n"
        "naive triple count: ok on 0..0\n"
        "VERIFIED\n"
    )


def test_verify_corrupted_sigma_names_index(capsys):
    code, out, _ = run(capsys, "verify", "-N", "8", "-K", "2", "--corrupt-sigma", "3")
    assert code == 1
    assert "identity: FIRST DISAGREEMENT at index 3\n" in out
    assert "log coefficients: FIRST MISMATCH at d = 3\n" in out
    assert "FAILED" in out


@pytest.mark.parametrize("command", [["expand", "-N", "5"], ["verify", "-N", "5", "-K", "2"]])
@pytest.mark.parametrize("j", ["0", "-3", "6"])
def test_corrupt_sigma_outside_the_order_is_refused_before_any_work(command, j, capsys, monkeypatch):
    # sigma(J) for J outside 1..N never enters route A: the control could not fire.
    def must_not_run(order, **kwargs):
        raise AssertionError("route A ran before the --corrupt-sigma refusal")

    monkeypatch.setattr(pipeline, "coeffs_product", must_not_run)
    code, out, err = run(capsys, *command, "--corrupt-sigma", j)
    assert (code, out) == (2, "")
    assert err == f"error: --corrupt-sigma must lie in 1..5, got {j}\n"


def test_verify_corrupted_wreath_row_names_index(capsys, monkeypatch):
    # Negative control for route B: k(W(1, 5)) = p(5) one too high first
    # shows at u^5.  Every later row is built from row 1.
    rows = pipeline.k_wreath_series

    def row_one_off_at_five(t, m_max):
        row = rows(t, m_max)
        if t == 1 and m_max >= 5:
            row = row[:5] + (row[5] + 1,) + row[6:]
        return row

    monkeypatch.setattr(pipeline, "k_wreath_series", row_one_off_at_five)
    assert pipeline.verify_identity(10, 2).first_disagreement == 5
    code, out, _ = run(capsys, "verify", "-N", "10", "-K", "2")
    assert code == 1
    assert "FIRST DISAGREEMENT at index 5" in out


@pytest.mark.parametrize(
    "parts, naive_line",
    [
        ((3, 2, 1), "naive triple count: ok on 0..5\n"),
        ((2, 1), "naive triple count: FAILED at n = 3\n"),
    ],
)
def test_verify_names_an_inexact_route_c_quotient(parts, naive_line, capsys, monkeypatch):
    # One more pair for the class of g adds class size triples, which n!
    # does not divide.
    add_centralizer_pairs(monkeypatch, parts, lambda table: 1)
    code, out, err = run(capsys, "verify", "-N", "8", "-K", "8")
    assert (code, err) == (1, "")
    assert out == (
        f"identity: FIRST DISAGREEMENT at index {sum(parts)}\n"
        "log coefficients: ok on 1..8\n"
        "commuting-pair identity: ok on 17 wreath groups\n"
        "wreath conjugacy structure: ok on 17 wreath groups\n"
        f"{naive_line}"
        "FAILED\n"
    )


def test_brute_names_an_inexact_route_c_quotient(tmp_path, capsys, monkeypatch):
    add_centralizer_pairs(monkeypatch, (3, 2, 1), lambda table: 1)
    out_path = tmp_path / "brute.txt"
    code, out, err = run(capsys, "brute", "-N", "7", "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err == "brute: triple count for degree 6 is not divisible by 6!\n"
    assert not out_path.exists()


def must_not_run(*args, **kwargs):
    raise AssertionError("work done before the refusal")


def test_verify_brute_max_above_cap_refused(capsys, monkeypatch):
    for route in ("triples_centralizer", "coeffs_product", "coeffs_classes"):
        monkeypatch.setattr(pipeline, route, must_not_run)
    code, out, err = run(capsys, "verify", "-N", "12", "-K", "12")
    assert (code, out) == (3, "")
    assert err == "refused: centralizer triple count in S_12 exceeds centralizer ceiling=11\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "-N", "3", "-K", "3", "--naive-cap", "-1"],
        ["verify", "-N", "3", "-K", "3", "--cent-cap", "-1"],
        ["brute", "-N", "3", "--cent-cap", "-1"],
        ["wreath", "2", "2", "--brute", "--wreath-cap", "-1"],
    ],
)
def test_negative_cap_is_a_usage_error_before_any_work(argv, capsys):
    # No subcommand takes a cap flag: each is an unrecognized argument.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {argv[-2]} -1" in captured.err


@pytest.mark.parametrize("command", ["brute", "verify", "wreath"])
def test_help_lists_no_cap_flag(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    assert "usage: tricomm " + command in out
    assert "-cap" not in out


def test_brute_above_cap_refused(capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "triples_centralizer", must_not_run)
    code, out, err = run(capsys, "brute", "-N", "12")
    assert (code, out) == (3, "")
    assert err == "refused: centralizer triple count in S_12 exceeds centralizer ceiling=11\n"


@pytest.mark.parametrize("argv", [["brute", "-N", "12"], ["verify", "-N", "12", "-K", "12"]])
def test_route_c_above_the_degree_ceiling_refused_whatever_the_cap(argv):
    # A refusal is immediate; a run of degree 12 would take far longer than
    # the timeout.
    result = run_cli(*argv, timeout=10)
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == (
        "refused: centralizer triple count in S_12 exceeds centralizer ceiling=11\n"
    )


def test_verify_naive_range_stops_at_the_ceiling(capsys, monkeypatch):
    # Route C runs to K = 8; the naive oracle, which would list S_8 for about
    # 8*10^8 commutation tests, stops at the naive ceiling.
    degrees = []
    honest = cli.triples_naive

    def recording(n):
        degrees.append(n)
        return honest(n)

    monkeypatch.setattr(cli, "triples_naive", recording)
    code, out, err = run(capsys, "verify", "-N", "8", "-K", "8")
    assert (code, err) == (0, "")
    assert "== brute on 0..8: ok\n" in out
    assert out.endswith("naive triple count: ok on 0..5\nVERIFIED\n")
    assert degrees == list(range(6))


@pytest.mark.slow
def test_brute_at_the_degree_ceiling_matches_expand(capsys):
    code, out, err = run(capsys, "brute", "-N", "11")
    assert (code, err) == (0, "")
    assert out == run(capsys, "expand", "-N", "11")[1]
    assert out.endswith("\n10 1316\n11 2393\n")  # A061256


def test_classes_order_1000_exits_cleanly(capsys):
    code, out, err = run(capsys, "classes", "-N", "1000")
    assert code == 0
    assert err == ""
    assert out.count("\n") == 1001 and out.startswith("0 1\n1 1\n2 4\n")


# sha256 of the b-file printed by `expand -N order` and `classes -N order`.
# Order 400 is the benchmark's, which `perfbench/run.py` gates on the same hash.
# Order 4000 is the series cap: there route B's folds into the 4001-entry row
# 1 at prime steps 2..19 pass the packing gate's size test but not
# `PACKED_SPAN`, so they take row updates; at order 2000 the step-2 fold is
# packed and only steps 3..13 fall to `PACKED_SPAN`.
BFILE_SHA256 = {
    400: "37064631786d9be5dbe7ea42f8dbc3f21c4cd6c3f869787e699b99e393db7938",
    1000: "89769c23f132f6a9268c733ea9c32e6ab81b2090bebb72ccfcbfb677979a35a5",
    2000: "c2ab1e030bda98fb2429b9d4130a69f5b01cb8add0f1badd4c0a624828cf7dd9",
    4000: "1b3fd9de2cdcfcb5c7bd0fbc8d5181f6eddfbcc7755b3b3e7d0a5b6a7e031dde",
}


@pytest.mark.parametrize(
    "order",
    [
        400,
        1000,
        pytest.param(2000, marks=pytest.mark.slow),
        pytest.param(4000, marks=pytest.mark.slow),
    ],
)
def test_expand_and_classes_bfiles_are_pinned(order, capsys):
    for command in ("expand", "classes"):
        code, out, err = run(capsys, command, "-N", str(order))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == BFILE_SHA256[order], command


@pytest.mark.parametrize(
    "argv",
    [
        ["expand"],
        ["classes"],
        ["verify", "-K", "2"],
        ["log-check"],
    ],
)
def test_series_order_above_cap_refused(argv, capsys):
    order = str(series.SERIES_ORDER_CAP + 1)
    code, out, err = run(capsys, *argv, "-N", order)
    assert code == 3
    assert out == ""
    assert err == f"refused: series order {order} exceeds series-order cap={series.SERIES_ORDER_CAP}\n"


def test_verify_computes_route_a_once(monkeypatch, capsys):
    honest = pipeline.coeffs_product
    calls = []

    def counted(order, **kwargs):
        calls.append(order)
        return honest(order, **kwargs)

    monkeypatch.setattr(pipeline, "coeffs_product", counted)
    code, out, _ = run(capsys, "verify", "-N", "30", "-K", "3")
    assert code == 0 and "VERIFIED" in out
    assert calls == [30]


def test_unexpected_exception_is_internal_error_not_disagreement(monkeypatch, capsys):
    from tricomm import pipeline

    def broken(order):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(pipeline, "coeffs_classes", broken)
    code, out, err = run(capsys, "classes", "-N", "5")
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: simulated fault\n"
    assert "Traceback" not in err


def test_wreath_brute_match(capsys):
    code, out, _ = run(capsys, "wreath", "2", "2", "--brute")
    assert code == 0
    assert "k(W(2,2)) = 5" in out
    assert "brute = 5" in out
    assert "match" in out


def test_wreath_brute_catches_a_repeated_label(capsys, monkeypatch):
    # Negative control for the label check: W(2,2)'s last label repeats its
    # first, so the count still agrees but one class goes unlisted.
    labels = wreath.enumerate_class_labels

    def last_repeats_first(t, m):
        out = labels(t, m)
        return out[:-1] + out[:1]

    monkeypatch.setattr(wreath, "enumerate_class_labels", last_repeats_first)
    code, out, _ = run(capsys, "wreath", "2", "2", "--brute")
    assert code == 1
    assert "structure check failed:" in out
    assert "counts_agree=True" in out and "labels_match_orbits=False" in out


@pytest.mark.parametrize("t, m", cli.VERIFY_WREATH_FAMILY)
def test_verify_names_each_wreath_group_with_a_repeated_label(t, m, capsys, monkeypatch):
    # Negative control for the label check over `verify`'s whole family:
    # one label of W(t, m) listed twice fails that group alone, and no line
    # that does not read the labels.
    labels = wreath.enumerate_class_labels

    def first_repeated(tt, mm):
        out = labels(tt, mm)
        return out + out[:1] if (tt, mm) == (t, m) else out

    monkeypatch.setattr(wreath, "enumerate_class_labels", first_repeated)
    code, out, err = run(capsys, "verify", "-N", "8", "-K", "4")
    assert (code, err) == (1, "")
    assert out == (
        "identity: product == classes on 0..8, == brute on 0..4: ok\n"
        "log coefficients: ok on 1..8\n"
        "commuting-pair identity: ok on 17 wreath groups\n"
        f"wreath conjugacy structure: FAILED on W({t},{m})\n"
        "naive triple count: ok on 0..4\n"
        "FAILED\n"
    )


@pytest.mark.parametrize("t, m", cli.VERIFY_WREATH_FAMILY)
def test_verify_names_each_wreath_group_with_a_surplus_commuting_pair(t, m, capsys, monkeypatch):
    # Negative control for the commuting-pair line over `verify`'s whole
    # family: W(t, m)'s pair count one too large fails that group alone, and
    # no line that does not read the pair count.
    report = cli.class_structure_report

    def one_pair_too_many(tt, mm):
        rep = report(tt, mm)
        if (tt, mm) == (t, m):
            return rep._replace(commuting_pairs=rep.commuting_pairs + 1)
        return rep

    monkeypatch.setattr(cli, "class_structure_report", one_pair_too_many)
    code, out, err = run(capsys, "verify", "-N", "8", "-K", "4")
    assert (code, err) == (1, "")
    assert out == (
        "identity: product == classes on 0..8, == brute on 0..4: ok\n"
        "log coefficients: ok on 1..8\n"
        f"commuting-pair identity: FAILED on W({t},{m})\n"
        "wreath conjugacy structure: ok on 17 wreath groups\n"
        "naive triple count: ok on 0..4\n"
        "FAILED\n"
    )


def test_verify_reports_every_failing_check_at_once(capsys, monkeypatch):
    # All five check lines fail in one run: sigma(7) raised by one, one
    # surplus commuting pair on W(2,2), one label of W(3,1) listed twice and
    # one extra pair for the class of cycle type (2,1).  Each line still
    # names its own first failure, and the verdict is one FAILED.
    report = cli.class_structure_report

    def one_pair_too_many(t, m):
        rep = report(t, m)
        return rep._replace(commuting_pairs=rep.commuting_pairs + 1) if (t, m) == (2, 2) else rep

    labels = wreath.enumerate_class_labels

    def first_repeated(t, m):
        out = labels(t, m)
        return out + out[:1] if (t, m) == (3, 1) else out

    monkeypatch.setattr(cli, "class_structure_report", one_pair_too_many)
    monkeypatch.setattr(wreath, "enumerate_class_labels", first_repeated)
    add_centralizer_pairs(monkeypatch, (2, 1), lambda table: 1)
    code, out, err = run(capsys, "verify", "-N", "8", "-K", "8", "--corrupt-sigma", "7")
    assert (code, err) == (1, "")
    assert out == (
        "identity: FIRST DISAGREEMENT at index 3\n"
        "log coefficients: FIRST MISMATCH at d = 7\n"
        "commuting-pair identity: FAILED on W(2,2)\n"
        "wreath conjugacy structure: FAILED on W(3,1)\n"
        "naive triple count: FAILED at n = 3\n"
        "FAILED\n"
    )


def test_verify_names_a_failure_at_degree_zero(capsys, monkeypatch):
    # Index 0 and degree 0 are failures like any other: route C counting two
    # triples in S_0 disagrees at the first index and with the naive oracle.
    honest = pipeline.triples_centralizer
    monkeypatch.setattr(pipeline, "triples_centralizer", lambda n: honest(n) + (n == 0))
    code, out, err = run(capsys, "verify", "-N", "8", "-K", "4")
    assert (code, err) == (1, "")
    assert out == (
        "identity: FIRST DISAGREEMENT at index 0\n"
        "log coefficients: ok on 1..8\n"
        "commuting-pair identity: ok on 17 wreath groups\n"
        "wreath conjugacy structure: ok on 17 wreath groups\n"
        "naive triple count: FAILED at n = 0\n"
        "FAILED\n"
    )


def test_invariants_without_residues_fail_the_structure_checks(capsys, monkeypatch):
    # Negative control for the invariant check: with every residue read as
    # 0, W(2,1)'s two classes share one invariant.  W(1, m) is unaffected.
    invariants = wreath.cycle_sum_invariants
    monkeypatch.setattr(
        wreath,
        "cycle_sum_invariants",
        lambda x, t, m: tuple(sorted((0, n) for _, n in invariants(x, t, m))),
    )
    code, out, _ = run(capsys, "wreath", "2", "2", "--brute")
    assert code == 1
    assert "invariants_match_orbits=False" in out
    code, out, _ = run(capsys, "verify", "-N", "8", "-K", "2")
    assert code == 1
    assert "wreath conjugacy structure: FAILED on W(2,1)" in out


def test_wreath_without_brute(capsys):
    code, out, _ = run(capsys, "wreath", "1", "6")
    assert code == 0
    assert "= 11" in out
    code, out, _ = run(capsys, "wreath", "7", "0")
    assert code == 0
    assert "= 1" in out
    assert run(capsys, "wreath", "4000", "0") == (0, "k(W(4000,0)) = 1\n", "")


def test_wreath_brute_above_cap_refused(capsys):
    code, out, err = run(capsys, "wreath", "3", "6", "--brute")
    assert (code, out) == (3, "")
    assert err == (
        "refused: W(3,6) structure check with |W|*k = 115998480 commutation tests "
        "exceeds wreath structure ceiling=3000000\n"
    )


@pytest.mark.parametrize("t, m", [("1", "1700"), ("2", "1500"), ("1", "4000")])
def test_wreath_brute_refusal_names_a_huge_order_symbolically(t, m, capsys):
    code, out, err = run(capsys, "wreath", t, m, "--brute")
    assert (code, out) == (3, "")
    assert err == (
        f"refused: W({t},{m}) with {t}^{m}*{m}! elements "
        "exceeds wreath structure ceiling=3000000\n"
    )


@pytest.mark.parametrize("argv", [["wreath", "2", "2001"], ["wreath", "4001", "1", "--brute"]])
def test_wreath_above_series_order_cap_refused(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("refused: ") and err.count("\n") == 1
    assert "series-order cap=4000" in err


@pytest.mark.parametrize("argv", [["wreath", "4001", "0"], ["wreath", "1000000000", "0", "--brute"]])
def test_wreath_modulus_above_series_order_cap_refused_at_m_zero(argv):
    # t is a row index, and route B reads row t only up to its order, so t
    # alone is held to the cap.
    result = run_cli(*argv, timeout=10)
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.startswith("refused: ") and result.stderr.count("\n") == 1
    assert f"class count with t = {argv[1]} exceeds series-order cap=4000" in result.stderr


def test_wreath_brute_refuses_a_huge_order_before_any_series_work(capsys, monkeypatch):
    monkeypatch.setattr(wreath, "k_wreath_series", must_not_run)
    code, out, err = run(capsys, "wreath", "2", "2000", "--brute")
    assert (code, out) == (3, "")
    assert err == (
        "refused: W(2,2000) with 2^2000*2000! elements exceeds wreath structure ceiling=3000000\n"
    )


@pytest.mark.parametrize("argv", [["wreath", "4000", "1", "--brute"], ["wreath", "2", "7", "--brute"]])
def test_wreath_brute_above_the_structure_ceiling_refused_before_listing(argv, capsys, monkeypatch):
    # No element of the group is built before the refusal.
    monkeypatch.setattr(wreath, "centralizer", must_not_run)
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 0.5
    assert (code, out) == (3, "")
    assert err.startswith(f"refused: W({argv[1]},{argv[2]}) structure check with |W|*k = ")
    assert err.endswith(" commutation tests exceeds wreath structure ceiling=3000000\n")


def test_wreath_series_order_refusal_text_is_pinned(capsys):
    code, out, err = run(capsys, "wreath", "2", "2001")
    assert (code, out) == (3, "")
    assert err == "refused: W(2,2001) class count with t*m = 4002 exceeds series-order cap=4000\n"


def test_log_check(capsys):
    code, out, _ = run(capsys, "log-check", "-N", "20")
    assert code == 0
    assert "agree" in out


def _one_off_coefficients(monkeypatch, d):
    honest = pipeline.coeffs_product

    def perturbed(order, **kwargs):
        coeffs = list(honest(order, **kwargs))
        coeffs[d] += 1
        return tuple(coeffs)

    monkeypatch.setattr(pipeline, "coeffs_product", perturbed)


def _one_off_weights(monkeypatch, d):
    sieve = numtheory.divisor_weights

    def perturbed(d_max):
        weights = sieve(d_max)
        weights[d] += 1
        return weights

    monkeypatch.setattr(numtheory, "divisor_weights", perturbed)


@pytest.mark.parametrize(
    "perturb", [_one_off_coefficients, _one_off_weights], ids=["route_a", "weights"]
)
@pytest.mark.parametrize("d", [1, 2, 7, 20])
def test_log_check_names_the_first_mismatch(capsys, monkeypatch, perturb, d):
    # Negative control: one route-A coefficient or one divisor weight off by
    # one at d is the first log mismatch, and log-check exits 1.
    perturb(monkeypatch, d)
    code, out, err = run(capsys, "log-check", "-N", "20")
    assert (code, out, err) == (1, f"log coefficient mismatch at d = {d}\n", "")


def test_bound_check_reports_equality_note(capsys):
    code, out, _ = run(capsys, "bound-check", "-N", "1")
    assert code == 0
    assert "d = 1" in out
    code, out, _ = run(capsys, "bound-check", "-N", "100")
    assert code == 0
    assert "2 <= d <= 100" in out


@pytest.mark.parametrize(
    "order, strict_line",
    [("1", ""), ("2", "sum(a*sigma(a) for a | d) < d^4 holds strictly for 2 <= d <= 2\n")],
)
def test_bound_check_small_output_is_pinned(capsys, order, strict_line):
    # At N = 1 there is no d >= 2 to check, so no strict line is printed.
    code, out, err = run(capsys, "bound-check", "-N", order)
    note = "d = 1: both sides equal 1 (equality, reported as informational)\n"
    assert (code, out, err) == (0, note + strict_line, "")


def test_bound_check_reports_first_failure(capsys, monkeypatch):
    # Negative control: a weight raised to d^4 at d = 7 must fail the scan.
    sieve = numtheory.divisor_weights

    def weights_failing_at_seven(d_max):
        lhs = sieve(d_max)
        lhs[7] = 7**4
        return lhs

    monkeypatch.setattr(numtheory, "divisor_weights", weights_failing_at_seven)
    code, out, _ = run(capsys, "bound-check", "-N", "10")
    assert code == 1
    assert out.splitlines()[-1] == "bound FAILS at d = 7: 2401 >= 2401"


@pytest.mark.parametrize("w1", [0, 2])
def test_bound_check_fails_on_a_wrong_weight_at_one(capsys, monkeypatch, w1):
    # Negative control: both sides equal 1 at d = 1, so any other w(1) is
    # the first failure, named before any d >= 2 line.
    sieve = numtheory.divisor_weights

    def weights_wrong_at_one(d_max):
        lhs = sieve(d_max)
        lhs[1] = w1
        return lhs

    monkeypatch.setattr(numtheory, "divisor_weights", weights_wrong_at_one)
    code, out, _ = run(capsys, "bound-check", "-N", "10")
    assert code == 1
    assert out == "bound FAILS at d = 1: both sides must equal 1\n"


def test_bound_check_above_cap_refused(capsys):
    code, out, err = run(capsys, "bound-check", "-N", "1000001")
    assert code == 3
    assert out == ""
    assert err.startswith("refused: ") and err.count("\n") == 1
    assert "bound-check cap=1000000" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "-N", "-1"],
        ["verify", "-N", "3", "-K", "5"],
    ],
)
def test_domain_errors_are_reported(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


def test_cli_import_loads_no_fractions():
    # The library is integer-only; Fractions live in the test oracles.
    result = run_python("-c", "import tricomm.cli, sys; print('fractions' in sys.modules)")
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr


MATH_INTEGER_FUNCTIONS = ("factorial", "isqrt")


def float_uses(tree):
    """Each node of `tree` that brings floating point in: a float or complex
    constant, a true division, the name `float`, or a `math` attribute or
    import other than the integer functions `factorial` and `isqrt`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node
        elif isinstance(node, ast.Div):
            yield node
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in MATH_INTEGER_FUNCTIONS
        ):
            yield node
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            if any(alias.name not in MATH_INTEGER_FUNCTIONS for alias in node.names):
                yield node


def test_library_source_has_no_floating_point():
    found = [
        f"{path.name}:{getattr(node, 'lineno', '?')}: {ast.dump(node)[:60]}"
        for path in sorted((ROOT / "src" / "tricomm").glob("*.py"))
        for node in float_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_float_guard_catches_each_kind():
    kinds = [
        "x = 0.5",
        "x = 2j",
        "x = a / b",
        "x /= 2",
        "float(3)",
        "math.log(3)",
        "from math import exp",
    ]
    for source in kinds:
        assert list(float_uses(ast.parse(source))), source
    integer_only = "from math import factorial\nmath.factorial(5) // math.isqrt(9)"
    assert not list(float_uses(ast.parse(integer_only)))


def non_stdlib_imports(tree):
    """The top-level name of each absolute import in `tree` that is neither
    a standard-library module nor tricomm itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top != "tricomm" and top not in sys.stdlib_module_names:
                yield top


def test_library_imports_only_the_standard_library():
    # pyproject.toml declares `dependencies = []`.
    found = [
        f"{path.name}: {name}"
        for path in sorted((ROOT / "src" / "tricomm").glob("*.py"))
        for name in non_stdlib_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_stdlib_import_guard_catches_each_kind():
    for source in ["import numpy", "import sympy.ntheory", "from gmpy2 import mpz"]:
        assert list(non_stdlib_imports(ast.parse(source))), source
    allowed = (
        "import decimal, os.path\nfrom collections import Counter\n"
        "from . import series\nfrom .errors import CapExceeded\nfrom tricomm import pipeline"
    )
    assert not list(non_stdlib_imports(ast.parse(allowed)))


def test_cli_import_loads_no_dataclasses_inspect_or_json():
    # Every command pays for what `import tricomm.cli` loads: the records are
    # namedtuples, and json is imported only by `--format json`.
    code = (
        "import sys; before = set(sys.modules); import tricomm.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json'} & (set(sys.modules) - before)))"
    )
    result = run_python("-c", code)
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr
