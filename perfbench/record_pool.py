#!/usr/bin/env python3
"""Record the exact worst-case answers for the ``worst-case`` workload's pool.

The pool is a fixed set of (n, k, j, radius) shapes with n from 16 to 26
and radius 3 or 4, on both sides of the guaranteed-radius limit
j*(k+1-j)/(k+1). For each shape this script solves the concentric minimax
once with ``listvote.theory.worst_case_concentric`` and cross-checks it:

- inside the regime the value must equal the closed-form ball floor
  C(k-j, r)/C(n-j, r);
- where ``oracle.brute_minimax_grid`` accepts the shape (radius <= 3) and
  its committee-by-ring enumeration stays under GRID_BUDGET subset tests,
  the value must lie at or below the grid minimax.

The answers go to ``pool.json``, which the benchmark compares every op
against. Rerun only to change the pool, on a commit whose solver is
trusted:

    python3 perfbench/record_pool.py
"""

from __future__ import annotations

import json
import sys
import time
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from listvote.johnson import ElectionParams  # noqa: E402
from listvote.oracle import brute_minimax_grid  # noqa: E402
from listvote.theory import worst_case_concentric  # noqa: E402
from workloads import POOL_FILE, ball_floor, ball_size, fmt  # noqa: E402

# (n, k, j, radius); the seed-code solve times on one 2-core machine ran
# from 0.06 s to 0.2 s, spread so that no two cost levels sit far apart.
POOL_SHAPES = [
    (16, 12, 6, 3),
    (22, 18, 5, 3),
    (26, 13, 6, 3),
    (20, 14, 6, 3),
    (22, 18, 6, 4),
    (16, 8, 4, 3),
    (20, 10, 5, 3),
    (18, 14, 4, 3),
    (16, 12, 5, 4),
    (20, 10, 8, 3),
]
GRID_DENOMINATOR = 12
GRID_BUDGET = 20_000_000


def record(n: int, k: int, j: int, radius: int) -> dict:
    params = ElectionParams(n, k, j)
    start = time.perf_counter()
    result = worst_case_concentric(params, radius)
    solve_s = time.perf_counter() - start
    floor = ball_floor(n, k, j, radius)
    if floor is not None and result.value != floor:
        raise SystemExit(f"({n},{k},{j},r{radius}): solver {result.value} != ball floor {floor}")
    entry = {
        "n": n, "k": k, "j": j, "radius": radius,
        "in_regime": floor is not None,
        "worst_case": result.to_dict(),
        "grid": None,
    }
    if radius <= 3 and comb(n, k) * ball_size(n, j, radius) <= GRID_BUDGET:
        grid = brute_minimax_grid(params, radius, GRID_DENOMINATOR)
        if result.value > grid:
            raise SystemExit(f"({n},{k},{j},r{radius}): solver {result.value} above grid {grid}")
        entry["grid"] = {"denominator": GRID_DENOMINATOR, "value": fmt(grid)}
    print(f"n={n} k={k} j={j} r={radius} value={fmt(result.value)} "
          f"in_regime={floor is not None} grid={entry['grid']} solve={solve_s:.3f}s")
    return entry


def main() -> int:
    pool = [record(*shape) for shape in POOL_SHAPES]
    POOL_FILE.write_text(json.dumps({"pool": pool}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
