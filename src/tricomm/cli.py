"""Command-line surface: compute, verify and export the coefficient data.

Exit codes: 0 success / verified, 1 mathematical disagreement, 2 I/O
(stdout included) or usage failure, 3 resource-cap refusal, 4 internal
error (any other exception, reported on stderr without a traceback), so
exit 1 never means a crash.  All data output is deterministic -- no
timestamps, full-precision decimal integers -- so identical invocations
produce byte-identical files.
"""

import argparse
import math
import os
import sys

from . import numtheory, pipeline
from .errors import CapExceeded
from .permgroup import NAIVE_CEILING, triples_naive
# commuting_pairs, conjugacy_classes and enumerate_symmetric are unused here
# but stay bound: perfbench/tracer.py pins them.
from .permgroup import commuting_pairs, conjugacy_classes, enumerate_symmetric  # noqa: F401
from .wreath import class_structure_report, k_wreath, wreath_family

# The wreath groups swept by `verify`, W(1, m) = S_m among them; sized to
# keep the command snappy.
VERIFY_WREATH_FAMILY = wreath_family(200, 4, 5)


def _render(coeffs, method: str, args) -> str:
    if args.format == "bfile":
        return "".join(f"{n} {c}\n" for n, c in enumerate(coeffs))
    if args.format == "csv":
        return "n,value\n" + "".join(f"{n},{c}\n" for n, c in enumerate(coeffs))
    import json  # only --format json needs it, so start-up skips it

    if args.no_meta:
        payload: object = list(coeffs)
    else:
        payload = {"method": method, "order": args.order, "coefficients": list(coeffs)}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out_path: str | None) -> int:
    if out_path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {out_path}: {exc}", file=sys.stderr)
        return 2
    return 0


def _sigma_fn(args):
    """sigma, or the negative control's sigma with sigma(J) raised by one.

    A J outside 1..N would leave route A untouched and the control could not
    fire, so it is refused before any work."""
    corrupt = getattr(args, "corrupt_sigma", None)
    if corrupt is None:
        return numtheory.sigma
    if not 1 <= corrupt <= args.order:
        raise ValueError(f"--corrupt-sigma must lie in 1..{args.order}, got {corrupt}")
    return lambda n: numtheory.sigma(n) + (1 if n == corrupt else 0)


def _cmd_expand(args) -> int:
    coeffs = pipeline.coeffs_product(args.order, sigma_fn=_sigma_fn(args))
    return _emit(_render(coeffs, "product", args), args.out)


def _cmd_classes(args) -> int:
    coeffs = pipeline.coeffs_classes(args.order)
    return _emit(_render(coeffs, "classes", args), args.out)


def _cmd_brute(args) -> int:
    coeffs = pipeline.coeffs_brute(args.order)
    if None in coeffs:
        n = coeffs.index(None)
        print(f"brute: triple count for degree {n} is not divisible by {n}!", file=sys.stderr)
        return 1
    return _emit(_render(coeffs, "brute", args), args.out)


def _cmd_wreath(args) -> int:
    t, m = args.t, args.m
    if not args.brute:
        print(f"k(W({t},{m})) = {k_wreath(t, m)}")
        return 0
    report = class_structure_report(t, m)
    k = report.series_class_count
    verdict = "match" if report.brute_class_count == k else "MISMATCH"
    print(f"k(W({t},{m})) = {k}, brute = {report.brute_class_count}, {verdict}")
    if not report.ok:
        print(
            "  structure check failed: "
            f"counts_agree={report.counts_agree} "
            f"invariants_match_orbits={report.invariants_match_orbits} "
            f"labels_match_orbits={report.labels_match_orbits} "
            f"pair_identity_holds={report.pair_identity_holds}"
        )
        return 1
    return 0


def _cmd_verify(args) -> int:
    sigma_fn = _sigma_fn(args)
    naive_max = min(args.brute_max, NAIVE_CEILING)
    failed = False

    report = pipeline.verify_identity(args.order, args.brute_max, sigma_fn=sigma_fn)
    if report.overall:
        print(
            f"identity: product == classes on 0..{args.order}, "
            f"== brute on 0..{args.brute_max}: ok"
        )
    else:
        print(f"identity: FIRST DISAGREEMENT at index {report.first_disagreement}")
        failed = True

    if args.order >= 1:
        log_report = pipeline.check_log(report.product)
        if log_report.ok:
            print(f"log coefficients: ok on 1..{args.order}")
        else:
            print(f"log coefficients: FIRST MISMATCH at d = {log_report.first_mismatch}")
            failed = True
    else:
        print("log coefficients: skipped (order 0 has no log terms)")

    pair_identity_bad = []
    conjugacy_bad = []
    for t, m in VERIFY_WREATH_FAMILY:
        rep = class_structure_report(t, m)
        if not rep.pair_identity_holds:
            pair_identity_bad.append(f"W({t},{m})")
        if not (rep.counts_agree and rep.invariants_match_orbits and rep.labels_match_orbits):
            conjugacy_bad.append(f"W({t},{m})")
    if pair_identity_bad:
        print(f"commuting-pair identity: FAILED on {', '.join(pair_identity_bad)}")
        failed = True
    else:
        print(f"commuting-pair identity: ok on {len(VERIFY_WREATH_FAMILY)} wreath groups")
    if conjugacy_bad:
        print(f"wreath conjugacy structure: FAILED on {', '.join(conjugacy_bad)}")
        failed = True
    else:
        print(f"wreath conjugacy structure: ok on {len(VERIFY_WREATH_FAMILY)} wreath groups")

    # An inexact route C quotient (None) disagrees with any honest count.
    naive_bad = [
        n
        for n in range(naive_max + 1)
        if report.brute[n] is None or triples_naive(n) != report.brute[n] * math.factorial(n)
    ]
    if naive_bad:
        print(f"naive triple count: FAILED at n = {naive_bad[0]}")
        failed = True
    else:
        print(f"naive triple count: ok on 0..{naive_max}")

    print("FAILED" if failed else "VERIFIED")
    return 1 if failed else 0


def _cmd_log_check(args) -> int:
    report = pipeline.check_log(pipeline.coeffs_product(args.order))
    if report.ok:
        print(f"log coefficients agree with the divisor formula on 1..{args.order}")
        return 0
    print(f"log coefficient mismatch at d = {report.first_mismatch}")
    return 1


def _cmd_bound_check(args) -> int:
    report = numtheory.bound_check(args.order)
    if not report.equality_at_one:
        print("bound FAILS at d = 1: both sides must equal 1")
        return 1
    print("d = 1: both sides equal 1 (equality, reported as informational)")
    if report.all_strict_from_two:
        if args.order >= 2:
            print(f"sum(a*sigma(a) for a | d) < d^4 holds strictly for 2 <= d <= {args.order}")
        return 0
    first = report.failures[0]
    print(f"bound FAILS at d = {first.d}: {first.lhs} >= {first.rhs}")
    return 1


def _add_output_flags(sub) -> None:
    sub.add_argument(
        "--format",
        choices=["bfile", "json", "csv"],
        default="bfile",
        help="output format (default: bfile, lines of '<n> <a(n)>')",
    )
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_argument(
        "--no-meta",
        action="store_true",
        help="strip metadata from json output (golden-file mode)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricomm",
        description=(
            "Compute the commuting-triple coefficient sequence of symmetric "
            "groups by three independent methods and verify they agree."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    expand = commands.add_parser("expand", help="route A: sigma Euler product")
    expand.add_argument("-N", "--order", type=int, required=True)
    expand.add_argument("--corrupt-sigma", type=int, default=None, help=argparse.SUPPRESS)
    _add_output_flags(expand)
    expand.set_defaults(func=_cmd_expand)

    classes = commands.add_parser("classes", help="route B: centralizer class counts")
    classes.add_argument("-N", "--order", type=int, required=True)
    _add_output_flags(classes)
    classes.set_defaults(func=_cmd_classes)

    brute = commands.add_parser("brute", help="route C: brute-force triple counts / n!")
    brute.add_argument("-N", "--order", type=int, required=True)
    _add_output_flags(brute)
    brute.set_defaults(func=_cmd_brute)

    wreath_cmd = commands.add_parser("wreath", help="class count of one wreath group")
    wreath_cmd.add_argument("t", type=int, help="modulus of the color group")
    wreath_cmd.add_argument("m", type=int, help="number of permuted points")
    wreath_cmd.add_argument(
        "--brute",
        action="store_true",
        help="also enumerate the group and count classes by conjugation orbits",
    )
    wreath_cmd.set_defaults(func=_cmd_wreath)

    verify = commands.add_parser(
        "verify", help="cross-check all three routes plus the group-theory suites"
    )
    verify.add_argument("-N", "--order", type=int, required=True)
    verify.add_argument("-K", "--brute-max", type=int, required=True)
    verify.add_argument("--corrupt-sigma", type=int, default=None, help=argparse.SUPPRESS)
    verify.set_defaults(func=_cmd_verify)

    log_check = commands.add_parser(
        "log-check", help="formal log of route A vs the divisor formula"
    )
    log_check.add_argument("-N", "--order", type=int, required=True)
    log_check.set_defaults(func=_cmd_log_check)

    bound = commands.add_parser(
        "bound-check", help="scan the quartic divisor-sum bound"
    )
    bound.add_argument("-N", "--order", type=int, required=True, help="largest d to check")
    bound.set_defaults(func=_cmd_bound_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write stdout: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    """Console entry point: run `main()`, flush both streams and end the
    process with `os._exit`, skipping interpreter teardown.  tricomm
    registers no `atexit` hook and closes every `--out` file before `main()`
    returns, so nothing is lost.  argparse's `SystemExit` (usage errors,
    `--help`) passes through as usual."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"cannot write stdout: {exc}", file=sys.stderr)
        code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
