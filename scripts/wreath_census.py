#!/usr/bin/env python3
"""Census of small wreath groups: class counts three ways, pair identity.

For every W(t, m) that fits the order budget, compare the orbit-counted
class number against the series count and the label enumeration, and check
commuting pairs == order * classes.
"""

import argparse
from math import factorial

from tricomm.wreath import class_structure_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cap", type=int, default=2000, help="largest group order")
    parser.add_argument("--t-max", type=int, default=9)
    parser.add_argument("--m-max", type=int, default=8)
    args = parser.parse_args()

    header = f"{'group':>10} {'order':>6} {'classes':>8} {'series':>7} {'labels':>7} {'pairs':>9}  verdict"
    print(header)
    print("-" * len(header))
    all_ok = True
    for t in range(1, args.t_max + 1):
        for m in range(0, args.m_max + 1):
            if t**m * factorial(m) > args.cap:
                continue
            rep = class_structure_report(t, m, cap=args.cap)
            verdict = "ok" if rep.ok else "MISMATCH"
            all_ok &= rep.ok
            print(
                f"{f'W({t},{m})':>10} {rep.order:>6} {rep.brute_class_count:>8} "
                f"{rep.series_class_count:>7} {rep.label_count:>7} "
                f"{rep.commuting_pairs:>9}  {verdict}"
            )
    print("\nall groups consistent" if all_ok else "\nINCONSISTENCIES FOUND")


if __name__ == "__main__":
    main()
