#!/usr/bin/env python3
"""Display the n-th-root trend of the coefficient sequence.

The roots coeff(n)**(1/n) keep climbing but ever more slowly; no
exponential floor shows up.  Display only, nothing is asserted.  Exits 2
on an invalid order or `--every`, and 3 on an order above the series cap.
"""

import argparse
import sys

from tricomm.errors import CapExceeded
from tricomm.pipeline import growth_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-N", "--order", type=int, default=200)
    parser.add_argument("--every", type=int, default=10, help="print every k-th row")
    args = parser.parse_args()
    if args.every < 1:
        parser.error(f"--every must be >= 1, got {args.every}")

    try:
        points = growth_report(args.order)
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{'n':>5}  {'root':>8}  {'digits':>6}")
    for p in points:
        if p.n <= 5 or p.n % args.every == 0:
            print(f"{p.n:>5}  {p.root:>8.4f}  {len(str(p.coefficient)):>6}")
    if len(points) > 1:
        half = points[len(points) // 2 - 1]
        last = points[-1]
        print(
            f"\nroot at n={half.n}: {half.root:.4f}; at n={last.n}: {last.root:.4f} "
            f"(ratio {last.root / half.root:.4f})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
