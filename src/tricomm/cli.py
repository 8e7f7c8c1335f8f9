"""Command-line surface: compute, verify and export the coefficient data.

Exit codes: 0 success / verified, 1 mathematical disagreement, 2 I/O or
usage failure, 3 resource-cap refusal, 4 internal error (any other
exception, reported on stderr without a traceback), so exit 1 never means
a crash.  All data output is deterministic -- no
timestamps, full-precision decimal integers -- so identical invocations
produce byte-identical files.
"""

import argparse
import json
import math
import sys

from . import numtheory, pipeline
from .errors import CapExceeded
from .permgroup import (
    DEFAULT_CENT_CAP,
    DEFAULT_NAIVE_CAP,
    commuting_pairs,
    conjugacy_classes,
    enumerate_symmetric,
    triples_naive,
)
from .wreath import DEFAULT_TABLE_CAP, class_structure_report, k_wreath, wreath_family

# Small-group families swept by `verify`; sized to keep the command snappy.
VERIFY_SYMMETRIC_MAX = 4
VERIFY_WREATH_FAMILY = wreath_family(200, 4, 5)


def _format_bfile(coeffs) -> str:
    return "".join(f"{n} {c}\n" for n, c in enumerate(coeffs))


def _format_csv(coeffs) -> str:
    return "n,value\n" + "".join(f"{n},{c}\n" for n, c in enumerate(coeffs))


def _format_json(coeffs, method: str, order: int, no_meta: bool) -> str:
    if no_meta:
        payload: object = list(coeffs)
    else:
        payload = {"method": method, "order": order, "coefficients": list(coeffs)}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render(coeffs, method: str, order: int, args) -> str:
    if args.format == "bfile":
        return _format_bfile(coeffs)
    if args.format == "csv":
        return _format_csv(coeffs)
    return _format_json(coeffs, method, order, args.no_meta)


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
    corrupt = getattr(args, "corrupt_sigma", None)
    if corrupt is None:
        return numtheory.sigma
    return lambda n: numtheory.sigma(n) + (1 if n == corrupt else 0)


def _cmd_expand(args) -> int:
    coeffs = pipeline.coeffs_product(args.order, sigma_fn=_sigma_fn(args)).coeffs
    return _emit(_render(coeffs, "product", args.order, args), args.out)


def _cmd_classes(args) -> int:
    coeffs = pipeline.coeffs_classes(args.order).coeffs
    return _emit(_render(coeffs, "classes", args.order, args), args.out)


def _cmd_brute(args) -> int:
    coeffs = pipeline.coeffs_brute(args.order, cap=args.cent_cap)
    return _emit(_render(coeffs, "brute", args.order, args), args.out)


def _cmd_wreath(args) -> int:
    t, m = args.t, args.m
    k = k_wreath(t, m)
    if not args.brute:
        print(f"k(W({t},{m})) = {k}")
        return 0
    report = class_structure_report(t, m, cap=args.wreath_cap)
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
    failed = False

    report = pipeline.verify_identity(
        args.order, args.brute_max, sigma_fn=sigma_fn, cap=args.cent_cap
    )
    if report.overall:
        print(
            f"identity: product == classes on 0..{args.order}, "
            f"== brute on 0..{args.brute_max}: ok"
        )
    else:
        print(f"identity: FIRST DISAGREEMENT at index {report.first_disagreement}")
        failed = True

    if args.order >= 1:
        log_report = pipeline.check_log(report.product, sigma_fn=sigma_fn)
        if log_report.ok:
            print(f"log coefficients: ok on 1..{args.order}")
        else:
            print(f"log coefficients: FIRST MISMATCH at d = {log_report.first_mismatch}")
            failed = True
    else:
        print("log coefficients: skipped (order 0 has no log terms)")

    pair_identity_bad = []
    for n in range(VERIFY_SYMMETRIC_MAX + 1):
        table = enumerate_symmetric(n)
        if commuting_pairs(table) != len(table) * conjugacy_classes(table).num_classes:
            pair_identity_bad.append(table.name)
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
        print(
            f"commuting-pair identity: ok on S_0..S_{VERIFY_SYMMETRIC_MAX} "
            f"and {len(VERIFY_WREATH_FAMILY)} wreath groups"
        )
    if conjugacy_bad:
        print(f"wreath conjugacy structure: FAILED on {', '.join(conjugacy_bad)}")
        failed = True
    else:
        print(f"wreath conjugacy structure: ok on {len(VERIFY_WREATH_FAMILY)} wreath groups")

    naive_max = min(args.brute_max, args.naive_cap)
    naive_bad = [
        n
        for n in range(naive_max + 1)
        if triples_naive(n, cap=args.naive_cap) != report.brute[n] * math.factorial(n)
    ]
    if naive_bad:
        print(f"naive triple count: FAILED at n = {naive_bad[0]}")
        failed = True
    else:
        print(f"naive triple count: ok on 0..{naive_max}")

    print("FAILED" if failed else "VERIFIED")
    return 1 if failed else 0


def _cmd_log_check(args) -> int:
    report = pipeline.verify_log(args.order)
    if report.ok:
        print(f"log coefficients agree with the divisor formula on 1..{args.order}")
        return 0
    print(f"log coefficient mismatch at d = {report.first_mismatch}")
    return 1


def _cmd_bound_check(args) -> int:
    report = numtheory.bound_check(args.order)
    if report.equality_at_one:
        print("d = 1: both sides equal 1 (equality, reported as informational)")
    if report.all_strict_from_two:
        print(f"sum(a*sigma(a) for a | d) < d^4 holds strictly for 2 <= d <= {args.order}")
        return 0
    first = report.failures[0]
    print(f"bound FAILS at d = {first.d}: {first.lhs} >= {first.rhs}")
    return 1


def _cmd_growth(args) -> int:
    lines = [
        f"{point.n} {point.coefficient} {point.root:.6f}"
        for point in pipeline.growth_report(args.order)
    ]
    return _emit("".join(line + "\n" for line in lines), args.out)


def cap(text: str) -> int:
    """argparse type of the cap flags: refused below 0 before any work.
    Named for argparse's "invalid cap value" message on a non-integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"a cap must be >= 0, got {value}")
    return value


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
    brute.add_argument("--cent-cap", type=cap, default=DEFAULT_CENT_CAP)
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
    wreath_cmd.add_argument("--wreath-cap", type=cap, default=DEFAULT_TABLE_CAP)
    wreath_cmd.set_defaults(func=_cmd_wreath)

    verify = commands.add_parser(
        "verify", help="cross-check all three routes plus the group-theory suites"
    )
    verify.add_argument("-N", "--order", type=int, required=True)
    verify.add_argument("-K", "--brute-max", type=int, required=True)
    verify.add_argument("--naive-cap", type=cap, default=DEFAULT_NAIVE_CAP)
    verify.add_argument("--cent-cap", type=cap, default=DEFAULT_CENT_CAP)
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

    growth = commands.add_parser(
        "growth", help="n-th roots of the coefficients (trend display only)"
    )
    growth.add_argument("-N", "--order", type=int, required=True)
    growth.add_argument("--out", default=None)
    growth.set_defaults(func=_cmd_growth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
