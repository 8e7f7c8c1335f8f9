#!/usr/bin/env python3
"""Census of small wreath groups: class counts three ways, pair identity.

For every W(t, m) that fits the order budget, compare the orbit-counted
class number against the series count and the label enumeration, and check
commuting pairs == order * classes.  Exits 1 if any group is inconsistent,
2 if no group fits the bounds, and 3 if a bound is refused: a --t-max above
the series-order cap, or any group of the family above the series-order cap
or the structure ceiling, all checked before the first group runs.
"""

import argparse
import sys

from tricomm.errors import CapExceeded
from tricomm.series import require_order_within_cap
from tricomm.wreath import class_structure_report, require_structure_check, wreath_family


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cap", type=int, default=2000, help="largest group order")
    parser.add_argument("--t-max", type=int, default=9)
    parser.add_argument("--m-max", type=int, default=8)
    args = parser.parse_args()
    try:
        return census(args)
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3


def census(args) -> int:
    # wreath_family lists W(t, 0), of order 1, for every t: bound t first.
    require_order_within_cap(args.t_max, f"--t-max {args.t_max}")
    family = wreath_family(args.cap, args.t_max, args.m_max)
    if not family:
        print(
            f"error: no wreath group fits --cap {args.cap} --t-max {args.t_max} "
            f"--m-max {args.m_max}",
            file=sys.stderr,
        )
        return 2
    for t, m in family:
        require_structure_check(t, m)

    header = f"{'group':>10} {'order':>6} {'classes':>8} {'series':>7} {'labels':>7} {'pairs':>9}  verdict"
    print(header)
    print("-" * len(header))
    all_ok = True
    for t, m in family:
        rep = class_structure_report(t, m)
        verdict = "ok" if rep.ok else "MISMATCH"
        all_ok &= rep.ok
        print(
            f"{f'W({t},{m})':>10} {rep.order:>6} {rep.brute_class_count:>8} "
            f"{rep.series_class_count:>7} {rep.label_count:>7} "
            f"{rep.commuting_pairs:>9}  {verdict}"
        )
    print("\nall groups consistent" if all_ok else "\nINCONSISTENCIES FOUND")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
