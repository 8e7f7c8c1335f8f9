import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tricomm import numtheory, pipeline, series, wreath
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
        "commuting-pair identity: ok on S_0..S_4 and 17 wreath groups\n"
        "wreath conjugacy structure: ok on 17 wreath groups\n"
        "naive triple count: ok on 0..5\n"
        "VERIFIED\n"
    )


def test_verify_corrupted_sigma_names_index(capsys):
    code, out, _ = run(capsys, "verify", "-N", "8", "-K", "2", "--corrupt-sigma", "3")
    assert code == 1
    assert "FIRST DISAGREEMENT at index 3" in out
    assert "FAILED" in out


def test_verify_corrupted_wreath_row_names_index(capsys, monkeypatch):
    # Negative control for route B: k(W(1, 5)) = p(5) one too high first
    # shows at u^5.  Every later row is built from row 1.
    rows = pipeline.k_wreath_series

    def row_one_off_at_five(t, m_max):
        row = rows(t, m_max).coeffs
        if t == 1 and m_max >= 5:
            row = row[:5] + (row[5] + 1,) + row[6:]
        return series.IntSeries(row)

    monkeypatch.setattr(pipeline, "k_wreath_series", row_one_off_at_five)
    assert pipeline.verify_identity(10, 2).first_disagreement == 5
    code, out, _ = run(capsys, "verify", "-N", "10", "-K", "2")
    assert code == 1
    assert "FIRST DISAGREEMENT at index 5" in out


def test_verify_brute_max_above_cap_refused(capsys):
    code, _, err = run(capsys, "verify", "-N", "9", "-K", "9")
    assert code == 3
    assert "centralizer cap" in err


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
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "a cap must be >= 0, got -1" in captured.err


def test_brute_above_cap_refused(capsys):
    code, _, err = run(capsys, "brute", "-N", "9")
    assert code == 3
    assert "cap" in err


def test_classes_order_1000_exits_cleanly(capsys):
    code, out, err = run(capsys, "classes", "-N", "1000")
    assert code == 0
    assert err == ""
    assert out.count("\n") == 1001 and out.startswith("0 1\n1 1\n2 4\n")


# sha256 of the b-file printed by `expand -N order` and `classes -N order`.
BFILE_SHA256 = {
    1000: "89769c23f132f6a9268c733ea9c32e6ab81b2090bebb72ccfcbfb677979a35a5",
    2000: "c2ab1e030bda98fb2429b9d4130a69f5b01cb8add0f1badd4c0a624828cf7dd9",
}


@pytest.mark.parametrize(
    "order", [1000, pytest.param(2000, marks=pytest.mark.slow)]
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
        ["growth"],
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


def test_wreath_without_brute(capsys):
    code, out, _ = run(capsys, "wreath", "1", "6")
    assert code == 0
    assert "= 11" in out
    code, out, _ = run(capsys, "wreath", "7", "0")
    assert code == 0
    assert "= 1" in out


def test_wreath_brute_above_cap_refused(capsys):
    code, out, err = run(capsys, "wreath", "3", "6", "--brute")
    assert (code, out) == (3, "")
    assert err == "refused: W(3,6) with 3^6*6! elements exceeds wreath-table cap=5000\n"


@pytest.mark.parametrize("t, m", [("1", "1700"), ("2", "1500"), ("1", "4000")])
def test_wreath_brute_refusal_names_a_huge_order_symbolically(t, m, capsys):
    code, out, err = run(capsys, "wreath", t, m, "--brute")
    assert (code, out) == (3, "")
    assert err.startswith("refused: ") and err.count("\n") == 1
    assert "wreath-table cap=5000" in err


@pytest.mark.parametrize("argv", [["wreath", "2", "2001"], ["wreath", "4001", "1", "--brute"]])
def test_wreath_above_series_order_cap_refused(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("refused: ") and err.count("\n") == 1
    assert "series-order cap=4000" in err


def test_wreath_brute_refuses_on_the_table_cap_before_any_series_work(capsys, monkeypatch):
    def must_not_run(t, m_max):
        raise AssertionError("k_wreath_series ran before the table cap refused")

    monkeypatch.setattr(wreath, "k_wreath_series", must_not_run)
    code, out, err = run(capsys, "wreath", "2", "2000", "--brute")
    assert (code, out) == (3, "")
    assert err == "refused: W(2,2000) with 2^2000*2000! elements exceeds wreath-table cap=5000\n"


def test_wreath_series_order_refusal_text_is_pinned(capsys):
    code, out, err = run(capsys, "wreath", "2", "2001")
    assert (code, out) == (3, "")
    assert err == "refused: W(2,2001) class count with t*m = 4002 exceeds series-order cap=4000\n"


def test_log_check(capsys):
    code, out, _ = run(capsys, "log-check", "-N", "20")
    assert code == 0
    assert "agree" in out


def test_bound_check_reports_equality_note(capsys):
    code, out, _ = run(capsys, "bound-check", "-N", "1")
    assert code == 0
    assert "d = 1" in out
    code, out, _ = run(capsys, "bound-check", "-N", "100")
    assert code == 0
    assert "2 <= d <= 100" in out


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


def test_bound_check_above_cap_refused(capsys):
    code, out, err = run(capsys, "bound-check", "-N", "1000001")
    assert code == 3
    assert out == ""
    assert err.startswith("refused: ") and err.count("\n") == 1
    assert "bound-check cap=1000000" in err


def test_growth_output_shape(capsys):
    code, out, _ = run(capsys, "growth", "-N", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 1 1.000000"
    assert lines[3].startswith("4 21 2.14")


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
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run(
        [sys.executable, "-c", "import tricomm.cli, sys; print('fractions' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr
