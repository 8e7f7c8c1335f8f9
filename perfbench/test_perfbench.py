"""Tests of the benchmark itself: the output gate, its negative controls and
the tracer's fidelity.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent


def repetition(*commands):
    """Run (name, argv) commands as one repetition of a workload."""
    bench = run.Run("series-order400", seed=0, seconds=0)
    bench.commands = commands
    _, results, _ = bench.repetition(list(commands))
    bench.count(results)
    return bench, results


def traced(*argv):
    result = run.run_cli(argv, traced=True)
    trace = run.split_trace(result)
    assert result.returncode == 0, result.stderr.decode()
    assert trace is not None and trace["unwrapped"] == []
    return result, run.Trace([trace], len(result.stdout))


def test_corrupted_route_a_is_a_failed_operation():
    bench, results = repetition(
        ("expand", ("expand", "-N", "40", "--corrupt-sigma", "7")),
        ("classes", ("classes", "-N", "40")),
    )
    assert "expand and classes disagree" in results["expand"].problems
    assert bench.attempted == 2 and bench.failed >= 1


def test_usage_error_is_a_failed_operation():
    bench, results = repetition(("expand", ("expand",)))
    assert results["expand"].returncode == 2
    assert bench.attempted == 1 and bench.failed == 1


def test_agreeing_routes_pass_the_gate():
    bench, _ = repetition(
        ("expand", ("expand", "-N", "40")),
        ("classes", ("classes", "-N", "40")),
        ("brute", ("brute", "-N", "4")),
        ("verify", ("verify", "-N", "8", "-K", "4")),
    )
    assert bench.failures == []


def test_timeout_is_a_failed_operation():
    result = run.run_cli(("brute", "-N", "8"), timeout=0.2)
    run.gate({"brute": result})
    assert result.timed_out and "timed out" in result.problems


@pytest.mark.parametrize(
    "stdout, problem",
    [
        (b"0 1\n1 1\n2 4\n3 8\n4 21\n5 39\n6 92\n7 170\n8 361\n", "rows 0..8 differ from A061256"),
        (b"0 1\n1 1\n2 4\n3 8\n", "not a b-file with rows 0..8"),
    ],
)
def test_brute_output_must_be_the_a061256_prefix(stdout, problem):
    result = run.Result(("brute", "-N", "8"), 0, stdout, b"", 0.0, 0.0, 0.0, False)
    run.gate({"brute": result})
    assert result.problems == [problem]


def test_output_that_changes_between_repetitions_fails():
    bench = run.Run("brute-degree8", seed=0, seconds=0)
    bench.first_sha["brute"] = "0" * 64
    bench.commands = (("brute", ("brute", "-N", "3")),)
    _, results, _ = bench.repetition(list(bench.commands))
    assert results["brute"].problems == ["output differs from an earlier repetition"]


def test_traced_output_is_byte_identical():
    argv = ("verify", "-N", "8", "-K", "4")
    untraced = run.run_cli(argv)
    result, _ = traced(*argv)
    assert result.stdout == untraced.stdout


def test_required_bindings_exist():
    sys.path.insert(0, str(run.SRC))
    try:
        import tricomm.cli  # noqa: F401
    finally:
        sys.path.remove(str(run.SRC))
    import tracer

    for layer, names in tracer.REQUIRED_BINDINGS.items():
        module = sys.modules[f"tricomm.{layer}"]
        for name in names:
            assert hasattr(module, name), f"tricomm.{layer}.{name}"


def test_unwrapped_binding_is_reported():
    script = (
        "import tracer, tricomm.cli as cli\n"
        "t = tracer.Tracer({l: __import__('tricomm.' + l, fromlist=['x']) for l in tracer.LAYERS})\n"
        "t.install()\n"
        "cli.k_wreath = t.originals['wreath.k_wreath']\n"
        "print(t.unwrapped_bindings())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=HERE, env=run.child_env(),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "['cli.k_wreath']"


def test_brute_makes_no_series_calls_and_classes_no_compose_calls():
    _, brute = traced("brute", "-N", "5")
    assert brute.series_calls() == 0 and brute.counts["permgroup.compose"] > 0
    _, classes = traced("classes", "-N", "30")
    assert classes.counts["permgroup.compose"] == 0 and classes.calls("series.mul") > 0


def test_default_argument_bindings_are_traced():
    # log-check reaches sigma only through verify_log's `sigma_fn` default.
    _, trace = traced("log-check", "-N", "20")
    assert trace.calls("numtheory.sigma") > 0
    assert trace.calls("series.log") == 1


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.units(trace=False)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.units(trace=True)
