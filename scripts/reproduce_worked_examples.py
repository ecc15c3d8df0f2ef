#!/usr/bin/env python3
"""Walk through the three fixture elections with exact numbers.

Shows (1) a most popular committee containing none of the individually
most popular candidates, (2) how a radius-1 support ball lifts the
guaranteed floor from 1/5 to 1/3 with the uniform first-ring distribution
meeting it exactly, and (3) the uniform radius-2 ball landing at 4/19,
strictly above the exact radius-2 worst case of 1/5.
"""

from fractions import Fraction

from listvote import (
    CandidateSubset,
    ElectionParams,
    ball,
    ball_floor,
    best_committees,
    concentric,
    format_rational,
    global_floor,
    ring,
    uniform_on,
    worst_case_concentric,
    VoterDistribution,
)


def banner(title):
    print()
    print(title)
    print("-" * len(title))


def show(result):
    winners = ", ".join(str(w) for w in result.winners)
    print(f"  best approval: {format_rational(result.best_value)}")
    print(f"  winners ({len(result.winners)}): {winners}")


def unpopular_candidates_win():
    banner("1. A most popular committee of individually unpopular candidates")
    params = ElectionParams(7, 4, 3)
    dist = VoterDistribution(
        params,
        {
            CandidateSubset((1, 2, 3)): Fraction(7, 15),
            CandidateSubset((4, 5, 6)): Fraction(2, 15),
            CandidateSubset((4, 5, 7)): Fraction(2, 15),
            CandidateSubset((4, 6, 7)): Fraction(2, 15),
            CandidateSubset((5, 6, 7)): Fraction(2, 15),
        },
    )
    appearances = {c: Fraction(0) for c in range(1, 8)}
    for lst, w in dist.items():
        for c in lst:
            appearances[c] += w
    print("  per-candidate appearance shares:",
          {c: format_rational(v) for c, v in appearances.items()})
    show(best_committees(dist))
    print("  candidates 1-3 each appear in 7/15 of the lists, 4-7 in only 6/15,")
    print("  yet {4,5,6,7} beats every committee built around {1,2,3}.")


def ball_radius_one():
    banner("2. Support inside a radius-1 ball lifts the floor to 1/3")
    params = ElectionParams(6, 4, 3)
    v = CandidateSubset((1, 2, 3))
    print(f"  floor for any distribution: {format_rational(global_floor(params))}")
    print(f"  floor for support in a radius-1 ball: {format_rational(ball_floor(params, 1))}")
    flat_ring = uniform_on(params, ring(v, 1, params))
    print("  uniform on the first ring meets the floor exactly:")
    show(best_committees(flat_ring))
    tilted = concentric(v, (Fraction(1, 10), Fraction(9, 10)), params)
    print("  any mass on the center itself pushes strictly above 1/3:")
    show(best_committees(tilted))


def ball_radius_two():
    banner("3. Radius 2: uniform ball at 4/19, true worst case at 1/5")
    params = ElectionParams(6, 4, 3)
    v = CandidateSubset((1, 2, 3))
    flat_ball = uniform_on(params, ball(v, 2, params))
    print("  uniform on the 19-list ball:")
    show(best_committees(flat_ball))
    worst = worst_case_concentric(params, 2)
    weights = ", ".join(format_rational(w) for w in worst.weights)
    print(f"  exact minimax over concentric ball distributions: "
          f"{format_rational(worst.value)} at ring weights ({weights})")
    attained = best_committees(concentric(v, worst.weights, params))
    print("  realizing those weights confirms it:")
    show(attained)


if __name__ == "__main__":
    unpopular_candidates_win()
    ball_radius_one()
    ball_radius_two()
