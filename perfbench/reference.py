"""A fixed pure-Python task that measures how fast the machine runs right now.

    python3 perfbench/reference.py SECONDS

runs one untimed unit of work to warm the interpreter up, then repeats the
unit for about SECONDS and prints `<units> <wall seconds> <cpu seconds>
<checksum>`, timed inside the process.

The benchmark runs it in a fresh interpreter before each tricomm command and
reports the commands' times in units of its time per unit.  It imports
nothing from tricomm, so no change to tricomm moves it; it only follows the
speed of the host, which on a shared virtual machine drifts by tens of
percent from one minute to the next.  A unit mixes what the tricomm layers
do: big-integer convolution (series), composition of permutation tuples
(permgroup) and set and dict traffic (conjugacy orbits).  The checksum, which
the benchmark checks, keeps the work from being skipped.
"""

import itertools
import sys
import time

UNIT_CHECKSUM = 1187294


def convolution(order: int) -> int:
    a = [(k * 7919) ** 9 for k in range(1, order + 2)]
    out = [0] * (order + 1)
    for i in range(order + 1):
        x = a[i]
        for j in range(order + 1 - i):
            out[i + j] += x * a[j]
    return sum(out) % 1_000_003


def compositions(degree: int) -> int:
    perms = list(itertools.permutations(range(degree)))
    index = {p: i for i, p in enumerate(perms)}
    gens = [(1, 0) + tuple(range(2, degree)), tuple(range(1, degree)) + (0,)]
    seen = set()
    total = 0
    for p in perms:
        for s in gens:
            q = tuple(map(s.__getitem__, p))
            seen.add(q)
            total += index[q]
    return total % 1_000_003 + len(seen)


def unit() -> int:
    return convolution(400) + compositions(7)


def main(seconds: float) -> None:
    unit()
    units = checksum = 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while not units or time.perf_counter() - wall0 < seconds:
        checksum += unit()
        units += 1
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    print(f"{units} {wall!r} {cpu!r} {checksum}")


if __name__ == "__main__":
    main(float(sys.argv[1]))
