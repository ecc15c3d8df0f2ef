#!/usr/bin/env python3
"""Sweep the exact concentric minimax over parameter sets and radii.

For radii inside the guaranteed regime the minimizer is always the outer
ring and the value has the closed form C(k-j, radius) / C(n-j, radius).
Beyond the regime no closed form is claimed; the exact linear program
reports the value and the (often interior) minimizing ring weights. Rows
marked with * are beyond the guaranteed-radius limit. The last radius of
each shape is the diameter, where the ball is the whole list space and the
value is the any-distribution floor.

Exits 1, naming each offending row on stderr, when an in-regime row
differs from the closed form or does not put all mass on the outer ring,
or when a diameter row differs from the any-distribution floor.

Usage: python scripts/worst_case_sweep.py [--max-n N]
"""

import argparse
import sys
from fractions import Fraction
from math import comb

from listvote import (
    ElectionParams,
    ball_floor_radius_limit,
    format_rational,
    global_floor,
    worst_case_concentric,
)


def sweep(max_n):
    failures = 0
    header = f"{'n':>3} {'k':>3} {'j':>3} {'radius':>6}  {'worst case':>12}  {'floor':>8}  weights"
    print(header)
    print("-" * len(header))
    for n in range(4, max_n + 1):
        for k in range(2, n):
            for j in range(1, k + 1):
                params = ElectionParams(n, k, j)
                limit = ball_floor_radius_limit(params)
                floor = global_floor(params)
                shown = format_rational(floor)
                for radius in range(params.diameter + 1):
                    result = worst_case_concentric(params, radius)
                    beyond = "*" if radius > limit else " "
                    weights = ",".join(format_rational(w) for w in result.weights)
                    print(
                        f"{n:>3} {k:>3} {j:>3} {radius:>5}{beyond}  "
                        f"{format_rational(result.value):>12}  {shown:>8}  ({weights})"
                    )
                    if radius == params.diameter and result.value != floor:
                        failures += 1
                        print(
                            f"FAIL n={n} k={k} j={j} radius={radius}: expected the "
                            f"any-distribution floor {shown} at the diameter",
                            file=sys.stderr,
                        )
                    if radius > limit:
                        continue
                    closed = Fraction(comb(k - j, radius), comb(n - j, radius))
                    outer = (Fraction(0),) * radius + (Fraction(1),)
                    if (result.value, result.weights) != (closed, outer):
                        failures += 1
                        print(
                            f"FAIL n={n} k={k} j={j} radius={radius}: expected "
                            f"{format_rational(closed)} on the outer ring",
                            file=sys.stderr,
                        )
    return failures


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=8)
    sys.exit(1 if sweep(parser.parse_args().max_n) else 0)
