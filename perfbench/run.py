"""End-to-end benchmark of the tricomm CLI, with a traced per-layer run.

    python3 perfbench/run.py --workload series-order400 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40      # every workload

Each workload is a fixed list of real `tricomm` CLI commands.  Every command
runs in a fresh interpreter (`python -m tricomm.cli` with `src/` on the path),
one at a time: a closed loop with one client.  Nothing is warmed, because
every CLI user pays the cold `lru_cache` fill on every run.  The command list
is repeated until `--seconds` is used up; `--seed` only permutes the order of
the commands in each repetition and, with `--trace 1`, whether the traced or
the untraced copy of a repetition runs first.  Inputs are fixed by the
mathematics.

Every output is checked (see `gate`).  A failed check, a nonzero exit, a
traceback or a timeout counts the command as failed and the run goes on.

With `--trace 0` the last stdout line reports the end-to-end metrics; with
`--trace 1` it reports the per-layer metrics, taken from `tracer.py`.  The
line before it is a JSON report with the environment, per-command times,
`fail_ratio` and output hashes.  A readable table goes to stderr.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"
REFERENCE = HERE / "reference.py"

WORKLOADS = {
    # Routes A and B at a high order: nearly all time in series, wreath row
    # powering and the coeffs_classes memo; permgroup does no work.  The
    # order stays below ~900 because `classes -N 1000` hits RecursionError.
    "series-order400": (
        ("expand", ("expand", "-N", "400")),
        ("classes", ("classes", "-N", "400")),
    ),
    # Route C at the default --cent-cap: all time in permgroup and
    # partitions, zero series calls.  The control for series work.
    "brute-degree8": (("brute", ("brute", "-N", "8")),),
    # The same layers used differently: permgroup on wreath tables through
    # generator orbits and bitmask triples, series over Fraction, the
    # wreath structure report and the numtheory sieve.
    "verify-suite": (
        ("verify", ("verify", "-N", "60", "-K", "7")),
        ("log_check", ("log-check", "-N", "300")),
        ("bound_check", ("bound-check", "-N", "100000")),
    ),
}

# T(n)/n! for n = 0..8 (OEIS A061256).
A061256_PREFIX = (1, 1, 4, 8, 21, 39, 92, 170, 360)

# sha256 of the b-file that `expand -N 400` and `classes -N 400` must print.
GOLDEN_SHA256 = {
    ("expand", "-N", "400"): "37064631786d9be5dbe7ea42f8dbc3f21c4cd6c3f869787e699b99e393db7938",
    ("classes", "-N", "400"): "37064631786d9be5dbe7ea42f8dbc3f21c4cd6c3f869787e699b99e393db7938",
}

COMMAND_TIMEOUT_S = 120.0
HARD_LIMIT_S = 170.0  # a run must end within 180 s
REFERENCE_SHARE = 0.25
REFERENCE_FIRST_S = 1.0
SETUP_EVERY_S = 1.5  # one set-up probe per this much command time

# Times of the command list are gated in units of the reference task's time
# (see reference.py), measured in the same run; seconds are in the report.
END_TO_END = (
    ("wall_rel", "ref"),
    ("cpu_rel", "ref"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


# -- running one command -----------------------------------------------------


@dataclass
class Result:
    argv: tuple
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    timed_out: bool
    problems: list = field(default_factory=list)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(cmd: list, timeout: float) -> Result:
    """Run one child to completion; time it and read its rusage via wait4."""
    timed_out = threading.Event()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    out, err = [], []
    readers = [
        threading.Thread(target=lambda s=s, b=b: b.append(s.read()))
        for s, b in ((proc.stdout, out), (proc.stderr, err))
    ]
    for r in readers:
        r.start()

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    return Result(
        argv=tuple(cmd),
        returncode=proc.returncode,
        stdout=out[0],
        stderr=err[0],
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024,
        timed_out=timed_out.is_set(),
    )


def run_cli(argv: tuple, *, traced: bool = False, timeout: float = COMMAND_TIMEOUT_S) -> Result:
    entry = [str(TRACER)] if traced else ["-m", "tricomm.cli"]
    result = run_process([sys.executable, *entry, *argv], timeout)
    result.argv = tuple(argv)
    return result


def split_trace(result: Result) -> dict | None:
    """Remove the tracer's line from a traced command's stderr and parse it."""
    head, sep, tail = result.stderr.rpartition(tracer.TRACE_MARKER.encode())
    if not sep:
        return None
    result.stderr = head
    return json.loads(tail)


# -- the output gate ---------------------------------------------------------


def bfile_values(data: bytes) -> list[int] | None:
    try:
        rows = [line.split() for line in data.decode().splitlines()]
        if any(len(r) != 2 or int(r[0]) != i for i, r in enumerate(rows)):
            return None
        return [int(r[1]) for r in rows]
    except ValueError:
        return None


def gate(results: dict) -> None:
    """Append to each result's `problems` every check its output fails.

    `results` maps a command name to the Result of one repetition.
    """
    for r in results.values():
        if r.timed_out:
            r.problems.append("timed out")
        if r.returncode != 0:
            r.problems.append(f"exit {r.returncode}")
        if b"Traceback" in r.stderr:
            r.problems.append("traceback")
        if r.problems:
            continue
        golden = GOLDEN_SHA256.get(r.argv)
        if golden is not None and r.sha256 != golden:
            r.problems.append("output differs from the reference")
        command = r.argv[0] if r.argv else ""
        if command in ("expand", "classes", "brute"):
            order = int(r.argv[r.argv.index("-N") + 1])
            values = bfile_values(r.stdout)
            if values is None or len(values) != order + 1:
                r.problems.append(f"not a b-file with rows 0..{order}")
            elif values[: len(A061256_PREFIX)] != list(A061256_PREFIX[: order + 1]):
                r.problems.append("rows 0..8 differ from A061256")
        if command == "verify" and r.stdout.rstrip().rsplit(b"\n", 1)[-1] != b"VERIFIED":
            r.problems.append("last line is not VERIFIED")
    a, b = results.get("expand"), results.get("classes")
    if a is not None and b is not None and a.stdout != b.stdout:
        a.problems.append("expand and classes disagree")
        b.problems.append("expand and classes disagree")


# -- environment -------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_revision() -> dict:
    # Only a checkout that is itself a git work tree; never search upwards.
    if not (ROOT / ".git").exists():
        return {"revision": None, "dirty": None}
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return {"revision": None, "dirty": None}
    if rev.returncode != 0:
        return {"revision": None, "dirty": None}
    return {"revision": rev.stdout.strip(), "dirty": bool(status.stdout.strip())}


def load_average() -> list[float] | None:
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def environment(seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        **git_revision(),
        "seed": seed,
    }


def warn_on_load(load: list[float] | None, when: str) -> None:
    nproc = os.cpu_count() or 1
    if load is not None and load[0] > nproc:
        print(f"warning: load average {load[0]:.2f} {when} is above nproc={nproc}",
              file=sys.stderr)


# -- measuring -----------------------------------------------------------------


class Run:
    """One benchmark run of one workload: repetitions, checks and counters."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.commands = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_sha: dict[str, str] = {}

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def timeout(self) -> float:
        return max(1.0, min(COMMAND_TIMEOUT_S, HARD_LIMIT_S - self.elapsed()))

    def order(self) -> list:
        return self.rng.sample(self.commands, len(self.commands))

    def repetition(self, order: list, *, traced: bool = False, before=None) -> tuple[float, dict, dict]:
        """Run the command list once; return its wall time (the sum over its
        commands), checked results and, when traced, each command's trace.

        `before`, if given, is called with each command's name before it runs.
        """
        results = {}
        for name, argv in order:
            if before is not None:
                before(name)
            results[name] = run_cli(argv, traced=traced, timeout=self.timeout())
        wall = sum(r.wall_s for r in results.values())
        traces = {name: split_trace(r) for name, r in results.items()} if traced else {}
        gate(results)
        for name, r in results.items():
            if traced:
                if traces[name] is None:
                    r.problems.append("no trace")
                elif traces[name]["unwrapped"]:
                    r.problems.append(f"not traced: {', '.join(traces[name]['unwrapped'])}")
            first = self.first_sha.setdefault(name, r.sha256)
            if r.sha256 != first:
                r.problems.append("output differs from an earlier repetition")
        return wall, results, traces

    def count(self, results: dict) -> None:
        """Count the commands of a checked repetition as attempted and failed."""
        for name, r in results.items():
            self.attempted += 1
            if r.problems:
                self.failed += 1
                self.failures.append(f"{name}: {'; '.join(r.problems)}")

    def more(self, done: int) -> bool:
        """Whether another repetition, as long as the mean one so far, fits
        into the measuring time."""
        projected = self.elapsed() * (done + 1) / done
        return projected <= self.seconds and projected < HARD_LIMIT_S


def run_setup(timeout: float) -> Result:
    """A fresh interpreter importing tricomm.cli: the set-up of every command."""
    result = run_process([sys.executable, "-c", "import tricomm.cli"], timeout)
    if result.returncode != 0:
        raise SystemExit(f"cannot import tricomm.cli:\n{result.stderr.decode(errors='replace')}")
    return result


def run_reference(seconds: float, timeout: float) -> tuple[int, float, float]:
    """Units of reference work done in about `seconds`, with their wall and
    CPU time as timed inside the reference process."""
    result = run_process([sys.executable, str(REFERENCE), repr(seconds)], timeout)
    try:
        units, wall, cpu, checksum = result.stdout.decode().split()
        units = int(units)
        valid = result.returncode == 0 and int(checksum) == units * reference.UNIT_CHECKSUM
    except ValueError:
        valid = False
    if not valid:
        raise SystemExit(f"the reference task failed:\n{result.stderr.decode(errors='replace')}")
    return units, float(wall), float(cpu)


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    """Repeat the command list.  Before each command, run the reference
    task for REFERENCE_SHARE of the command's last wall time, and the set-up
    once per SETUP_EVERY_S of it, so that all three sample the same
    stretches of time.

    `wall_rel` and `cpu_rel` are the time of the fastest repetition of the
    command list over the time of one reference unit in the fastest
    repetition.  On a shared host, interference only ever adds time, and the
    host's speed drifts by tens of percent over tens of seconds: the best
    repetition against the best reference sampled beside it is the figure
    that stays steady from run to run.  Medians are in the report.

    An unmeasured set-up first writes the bytecode cache, which an installed
    package already has.
    """
    run_setup(COMMAND_TIMEOUT_S)
    run = Run(workload, seed, seconds)
    walls, cpus, rss, refs, setups, unit_walls, unit_cpus = [], [], [], [], [], [], []
    per_command: dict[str, list[float]] = {name: [] for name, _ in run.commands}

    def before(name):
        last = per_command[name][-1] if per_command[name] else REFERENCE_FIRST_S
        refs.append(run_reference(REFERENCE_SHARE * last, run.timeout()))
        for _ in range(max(1, round(last / SETUP_EVERY_S))):
            setups.append(run_setup(run.timeout()).wall_s)

    while True:
        first_ref = len(refs)
        wall, results, _ = run.repetition(run.order(), before=before)
        run.count(results)
        cpu = sum(r.cpu_s for r in results.values())
        units, unit_wall, unit_cpu = (sum(col) for col in zip(*refs[first_ref:]))
        walls.append(wall)
        cpus.append(cpu)
        unit_walls.append(unit_wall / units)
        unit_cpus.append(unit_cpu / units)
        rss.append(max(r.maxrss_mb for r in results.values()))
        for name, r in results.items():
            per_command[name].append(r.wall_s)
        if not run.more(len(walls)):
            break
    metrics = {
        "wall_rel": min(walls) / min(unit_walls),
        "cpu_rel": min(cpus) / min(unit_cpus),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
    }
    seconds_ = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        **{f"{name}_s": statistics.median(v) for name, v in per_command.items()},
        "reference_unit_wall_s": statistics.median(unit_walls),
        "reference_unit_cpu_s": statistics.median(unit_cpus),
        "wall_s_min": min(walls),
        "reference_unit_wall_s_min": min(unit_walls),
    }
    details = {
        "seconds": seconds_,
        "samples": {"repetitions": len(walls), "reference": len(refs), "setup_probes": len(setups)},
        "raw": {"wall_s": walls, "reference": refs, "setup_s": setups},
        "sha256": run.first_sha,
    }
    return run, metrics, details


# -- the traced run --------------------------------------------------------------


class Trace:
    """Span totals summed over the commands of one traced repetition."""

    def __init__(self, traces: list[dict], out_bytes: int):
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.extra: dict[str, float] = {}
        self.caches: dict[str, list] = {}
        self.hook_errors = 0
        self.out_bytes = out_bytes
        for t in traces:
            for name, values in t["spans"].items():
                acc = self.spans.setdefault(name, [0, 0.0, 0.0])
                for i, v in enumerate(values):
                    acc[i] += v
            for table, source in ((self.counts, t["counts"]), (self.extra, t["extra"])):
                for name, v in source.items():
                    table[name] = table.get(name, 0) + v
            for name, (hits, misses) in t["caches"].items():
                acc = self.caches.setdefault(name, [0, 0])
                acc[0] += hits
                acc[1] += misses
            self.hook_errors += t["hook_errors"]

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0])[1]

    def inclusive_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def ratio(self, numerator: str, denominator: str) -> float:
        d = self.extra.get(denominator, 0)
        return self.extra.get(numerator, 0) / d if d else 0.0

    def hit_ratio(self, name: str) -> float:
        hits, misses = self.caches.get(name, [0, 0])
        return hits / (hits + misses) if hits + misses else 0.0

    def mean_per_call(self, key: str, span: str) -> float:
        n = self.calls(span)
        return self.extra.get(key, 0) / n if n else 0.0

    def series_calls(self) -> int:
        return sum(v[0] for k, v in self.spans.items() if k.startswith("series."))


# name, unit, value from a Trace.  `trace.overhead_s` is added by the run.
PER_LAYER = (
    ("series.mul.calls", "count", lambda t: t.calls("series.mul")),
    ("series.mul.self_s", "s", lambda t: t.self_s("series.mul")),
    ("series.mul.sparse_share", "ratio",
     lambda t: t.mean_per_call("series.mul.sparse_share_sum", "series.mul")),
    ("series.neg_binomial_factor.self_s", "s", lambda t: t.self_s("series.neg_binomial_factor")),
    ("series.partition_series.s", "s", lambda t: t.inclusive_s("series.partition_series")),
    ("series.power.s", "s", lambda t: t.inclusive_s("series.power")),
    ("series.log.self_s", "s", lambda t: t.self_s("series.log")),
    ("wreath.k_wreath_series.s", "s", lambda t: t.inclusive_s("wreath.k_wreath_series")),
    ("wreath.k_wreath_series.hit_ratio", "ratio", lambda t: t.hit_ratio("wreath.k_wreath_series")),
    ("wreath.class_structure_report.s", "s", lambda t: t.inclusive_s("wreath.class_structure_report")),
    ("wreath.enumerate_wreath.s", "s", lambda t: t.inclusive_s("wreath.enumerate_wreath")),
    ("wreath.w_mul.calls", "count", lambda t: t.counts.get("wreath.w_mul", 0)),
    ("pipeline.coeffs_classes.self_s", "s", lambda t: t.self_s("pipeline.coeffs_classes")),
    ("pipeline.coeffs_product.s", "s", lambda t: t.inclusive_s("pipeline.coeffs_product")),
    ("pipeline.verify_log.self_s", "s", lambda t: t.self_s("pipeline.verify_log")),
    ("numtheory.sigma.calls", "count", lambda t: t.calls("numtheory.sigma")),
    ("numtheory.sigma.self_s", "s", lambda t: t.self_s("numtheory.sigma")),
    ("numtheory.bound_check.self_s", "s", lambda t: t.self_s("numtheory.bound_check")),
    ("permgroup.compose.calls", "count", lambda t: t.counts.get("permgroup.compose", 0)),
    ("permgroup.centralizer.self_s", "s", lambda t: t.self_s("permgroup.centralizer")),
    ("permgroup.centralizer.keep_ratio", "ratio",
     lambda t: t.ratio("permgroup.centralizer.kept", "permgroup.centralizer.tested")),
    ("permgroup.conjugacy_classes.self_s", "s", lambda t: t.self_s("permgroup.conjugacy_classes")),
    ("permgroup.conjugacy_classes.products_per_element", "count/element",
     lambda t: t.ratio("permgroup.conjugacy_classes.products",
                       "permgroup.conjugacy_classes.elements")),
    ("permgroup.commuting_pairs.self_s", "s", lambda t: t.self_s("permgroup.commuting_pairs")),
    ("permgroup.commuting_pairs.tests", "count",
     lambda t: t.extra.get("permgroup.commuting_pairs.tests", 0)),
    ("permgroup.inverse_perm.hit_ratio", "ratio", lambda t: t.hit_ratio("permgroup.inverse_perm")),
    ("permgroup.triples_naive.s", "s", lambda t: t.inclusive_s("permgroup.triples_naive")),
    ("partitions.enumerate_partitions.self_s", "s",
     lambda t: t.self_s("partitions.enumerate_partitions")),
    ("cli.render.self_s", "s", lambda t: t.self_s("cli.render")),
    ("cli.out_bytes", "B", lambda t: t.out_bytes),
)

# The "no change on" facts: layers a workload must not reach at all.
UNUSED_LAYERS = {
    "brute-degree8": ("series.* calls", Trace.series_calls),
    "series-order400": ("permgroup.compose calls",
                        lambda t: t.counts.get("permgroup.compose", 0)),
}


def run_traced(workload: str, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    """Alternate untraced and traced repetitions with the same command order.

    Traced stdout must equal untraced stdout byte for byte (the repetition
    check compares every output with the first one of its command).
    Per-layer metrics are medians over the traced repetitions;
    `trace.overhead_s` is the median of traced minus untraced wall time.
    """
    run = Run(workload, seed, seconds)
    rows: list[dict] = []
    overheads = []
    unused = UNUSED_LAYERS.get(workload)
    while True:
        order = run.order()
        walls = {}
        for traced in run.rng.sample([False, True], 2):
            walls[traced], results, traces = run.repetition(order, traced=traced)
            if traced:
                found = [t for t in traces.values() if t is not None]
                trace = Trace(found, sum(len(r.stdout) for r in results.values()))
                if unused is not None and unused[1](trace):
                    for r in results.values():
                        r.problems.append(f"made {unused[1](trace)} {unused[0]}, expected 0")
            run.count(results)
        rows.append({name: fn(trace) for name, _, fn in PER_LAYER})
        overheads.append(walls[True] - walls[False])
        if trace.hook_errors:
            print(f"warning: {trace.hook_errors} tracer hooks could not read their arguments",
                  file=sys.stderr)
        if not run.more(len(rows)):
            break
    metrics = {name: statistics.median(r[name] for r in rows) for name, _, _ in PER_LAYER}
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return run, metrics, {"samples": {"traced_repetitions": len(rows)}, "sha256": run.first_sha}


# -- entry point -------------------------------------------------------------------


def units(trace: bool) -> dict:
    if trace:
        return {**{name: unit for name, unit, _ in PER_LAYER}, "trace.overhead_s": "s"}
    return dict(END_TO_END)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment(seed)
    load_before = load_average()
    warn_on_load(load_before, "before the run")
    measure = run_traced if trace else run_untraced
    run, metrics, details = measure(workload, seed, seconds)
    load_after = load_average()
    warn_on_load(load_after, "after the run")
    unit_of = units(trace)
    report = {
        "workload": workload,
        "trace": trace,
        "env": {**env, "load_before": load_before, "load_after": load_after},
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
        **details,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_ratio": run.failed / run.attempted,
        "failures": run.failures,
    }
    print_table(report)
    return report


def print_table(report: dict) -> None:
    err = sys.stderr
    print(f"== {report['workload']} (trace={int(report['trace'])}, "
          f"seed={report['env']['seed']}, {report['samples']})", file=err)
    for name, m in report["metrics"].items():
        print(f"  {name:52s} {m['value']:>16.6g} {m['unit']}", file=err)
    for name, v in report.get("seconds", {}).items():
        print(f"  {name:52s} {v:>16.6g} s", file=err)
    print(f"  {'fail_ratio':52s} {report['fail_ratio']:>16.6g}", file=err)
    for failure in report["failures"]:
        print(f"  FAILED {failure}", file=err)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "tricomm" / "cli.py").is_file():
        print(f"tricomm sources not found under {SRC}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in reports for k, m in r["metrics"].items()}
    for r in reports:
        print(json.dumps(r))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
