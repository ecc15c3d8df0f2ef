"""Acceptance suite: one test per criterion, all comparisons exact.

Every assertion is an exact Fraction comparison (zero tolerance). Each
test prints a single pass/fail line; run with ``pytest -v -s`` to see
them inline.
"""

import contextlib
from fractions import Fraction
from itertools import combinations
from math import comb
from random import Random

from listvote import (
    BallotEntry,
    CandidateSubset,
    ElectionParams,
    RawBallotFile,
    VoterDistribution,
    ball,
    ball_floor,
    ball_floor_radius_limit,
    best_committees,
    brute_best,
    brute_minimax_grid,
    complete_short_lists,
    concentric,
    coverage_monotonicity_check,
    global_floor,
    iter_lists,
    loads_ballot_file,
    normalize,
    project_concentric,
    random_distribution,
    ring,
    ring_monotonicity_check,
    ring_weights,
    uniform_on,
    worst_case_concentric,
)
from listvote.oracle import approval, class_of, committees_in_class_containing, iter_committees
from conftest import complete_by_rule

V123 = CandidateSubset((1, 2, 3))


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS")


def all_param_sets(max_n, min_j=1):
    for n in range(2, max_n + 1):
        for k in range(1, n):
            for j in range(min_j, k + 1):
                yield ElectionParams(n, k, j)


EXAMPLE_FILE = """{
  "n": 7, "k": 4, "j": 3,
  "ballots": [
    {"list": [1, 2, 3], "weight": "7/15"},
    {"list": [4, 5, 6], "weight": "2/15"},
    {"list": [4, 5, 7], "weight": "2/15"},
    {"list": [4, 6, 7], "weight": "2/15"},
    {"list": [5, 6, 7], "weight": "2/15"}
  ]
}
"""


def test_criterion_1_example_election_reproduction():
    with criterion(1, "example election reproduction"):
        dist = normalize(loads_ballot_file(EXAMPLE_FILE))
        result = best_committees(dist)
        assert result.best_value == Fraction(8, 15)
        assert result.winners == (CandidateSubset((4, 5, 6, 7)),)
        for extra in (4, 5, 6, 7):
            committee = CandidateSubset((1, 2, 3, extra))
            assert approval(dist, committee) == Fraction(7, 15)


def test_criterion_2_global_floor_and_tightness():
    with criterion(2, "global floor holds and is tight"):
        rng = Random(20260810)
        for params in all_param_sets(10):
            floor = global_floor(params)
            n, k, j = params.n, params.k, params.j

            uniform = uniform_on(params, iter_lists(params))
            result = best_committees(uniform)
            assert result.best_value == floor
            assert len(result.winners) == comb(n, k)

            pool = sorted(iter_lists(params))
            cmasks = [c.mask for c in iter_committees(params)]
            expected_total = comb(n - j, k - j)
            for _ in range(100):
                dist = random_distribution(params, rng, pool=pool, max_support=6)
                assert best_committees(dist).best_value >= floor
                support = [(lst.mask, w) for lst, w in dist.items()]
                total = sum(
                    (
                        w
                        for cmask in cmasks
                        for mask, w in support
                        if mask & ~cmask == 0
                    ),
                    Fraction(0),
                )
                assert total == expected_total


def test_criterion_3_radius_one_chain():
    with criterion(3, "radius-1 chain: floors, exact tie set, strictness"):
        params = ElectionParams(6, 4, 3)
        assert global_floor(params) == Fraction(1, 5)
        assert ball_floor(params, 1) == Fraction(1, 3)

        first_ring = uniform_on(params, ring(V123, 1, params))
        result = best_committees(first_ring)
        assert result.best_value == Fraction(1, 3)
        assert result.winners == (
            CandidateSubset((1, 2, 3, 4)),
            CandidateSubset((1, 2, 3, 5)),
            CandidateSubset((1, 2, 3, 6)),
        )

        rng = Random(3)
        center_masses = [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)] + [
            Fraction(rng.randint(1, 96), 97) for _ in range(10)
        ]
        for w0 in center_masses:
            dist = concentric(V123, (w0, 1 - w0), params)
            assert best_committees(dist).best_value > Fraction(1, 3)


def test_criterion_4_uniform_ball_value():
    with criterion(4, "uniform ball of radius 2 tallies to 4/19"):
        params = ElectionParams(6, 4, 3)
        dist = uniform_on(params, ball(V123, 2, params))
        assert best_committees(dist).best_value == Fraction(4, 19)


def test_criterion_5_projection_domination_and_class_totals():
    with criterion(5, "concentric projection domination and class totals"):
        rng = Random(50555)
        for _ in range(200):
            n = rng.randint(4, 9)
            k = rng.randint(2, n - 1)
            j = rng.randint(1, k)
            params = ElectionParams(n, k, j)
            dist = random_distribution(params, rng)
            center = rng.choice(sorted(iter_lists(params)))
            projected = project_concentric(dist, center)
            assert (
                best_committees(dist).best_value
                >= best_committees(projected).best_value
            )

            weights = ring_weights(projected, center)
            m_max = min(j, n - k)
            class_totals = [Fraction(0)] * (m_max + 1)
            for committee in iter_committees(params):
                class_totals[class_of(committee, center)] += approval(
                    projected, committee
                )
            for m in range(m_max + 1):
                rhs = sum(
                    (
                        weights[r] * committees_in_class_containing(params, r, m)
                        for r in range(params.diameter + 1)
                    ),
                    Fraction(0),
                )
                assert class_totals[m] == rhs


def test_criterion_6_monotonicity_validators_exhaustive():
    with criterion(6, "ring and coverage monotonicity iffs, n <= 12"):
        for n in range(2, 13):
            for j in range(1, n):
                report = ring_monotonicity_check(ElectionParams(n, j, j))
                assert report.passed, [c for c in report.cells if not c.ok]
        for params in all_param_sets(12):
            report = coverage_monotonicity_check(params)
            assert report.passed, (params, [c for c in report.cells if not c.ok])


def test_criterion_7_outer_ring_worst_case():
    with criterion(7, "worst case sits on the outer ring within the regime"):
        rng = Random(70777)
        for params in all_param_sets(10, min_j=2):
            limit = ball_floor_radius_limit(params)
            center = CandidateSubset(tuple(range(1, params.j + 1)))
            for radius in range(params.diameter + 1):
                if radius > limit:
                    break
                expected = Fraction(
                    comb(params.k - params.j, radius),
                    comb(params.n - params.j, radius),
                )
                result = worst_case_concentric(params, radius)
                assert result.value == expected == ball_floor(params, radius)
                outer = tuple(
                    Fraction(1 if r == radius else 0) for r in range(radius + 1)
                )
                assert result.weights == outer
                assert result.achieving_class == 0

                pool = sorted(ball(center, radius, params))
                for _ in range(100):
                    dist = random_distribution(params, rng, pool=pool, max_support=8)
                    assert best_committees(dist).best_value >= expected
        # worst case alone on 200 seeded in-regime shapes with 11 <= n <= 60
        shapes = 0
        while shapes < 200:
            n = rng.randint(11, 60)
            k = rng.randint(2, n - 1)
            params = ElectionParams(n, k, rng.randint(2, k))
            # the regime's limit is always below the diameter
            radius = rng.randint(0, int(ball_floor_radius_limit(params)))
            result = worst_case_concentric(params, radius)
            assert result.value == ball_floor(params, radius)
            assert result.weights == (Fraction(0),) * radius + (Fraction(1),)
            assert result.achieving_class == 0
            shapes += 1
        # size-1 lists: radius 0 is the whole regime, and the floor there is 1
        p521 = ElectionParams(5, 2, 1)
        assert worst_case_concentric(p521, 0).value == 1 == ball_floor(p521, 0)


def test_criterion_8_oracle_equivalence():
    with criterion(8, "optimized paths match brute force; minimax bounded by grid"):
        rng = Random(80888)
        for _ in range(200):
            n = rng.randint(4, 9)
            k = rng.randint(2, n - 1)
            j = rng.randint(1, k)
            dist = random_distribution(ElectionParams(n, k, j), rng)
            s = j if rng.random() < 0.5 else rng.randint(0, j)
            reference = brute_best(dist, s)
            result = best_committees(dist, s=s)
            assert result.best_value == reference.best_value
            assert result.winners == reference.winners

        p643 = ElectionParams(6, 4, 3)
        assert worst_case_concentric(p643, 1).value == Fraction(1, 3)
        for d in (3, 12):
            assert brute_minimax_grid(p643, 1, d) == Fraction(1, 3)
        exact2 = worst_case_concentric(p643, 2).value
        for d in (10, 20):
            assert brute_minimax_grid(p643, 2, d) == exact2
        coarse, fine = brute_minimax_grid(p643, 2, 12), brute_minimax_grid(p643, 2, 24)
        assert coarse >= fine >= exact2

        p743 = ElectionParams(7, 4, 3)
        exact = worst_case_concentric(p743, 1).value
        assert brute_minimax_grid(p743, 1, 8) == exact
        for params in (ElectionParams(8, 5, 3), ElectionParams(7, 5, 2)):
            exact = worst_case_concentric(params, 1).value
            for d in (6, 9):
                assert exact <= brute_minimax_grid(params, 1, d)


def _random_ball_instance(rng, max_n=9):
    while True:
        n = rng.randint(5, max_n)
        k = rng.randint(3, n - 1)
        j = rng.randint(2, k)
        params = ElectionParams(n, k, j)
        limit = ball_floor_radius_limit(params)
        if limit >= 0:
            radius = rng.randint(0, int(limit))
            return params, radius


def test_criterion_9_short_list_and_alpha_pipelines():
    with criterion(9, "short-list completion and alpha mixtures meet their floors"):
        rng = Random(90999)
        for _ in range(50):
            params, radius = _random_ball_instance(rng)
            center = CandidateSubset(tuple(range(1, params.j + 1)))
            pool = sorted(ball(center, radius, params))
            floor = ball_floor(params, radius)

            entries = []
            for _ in range(rng.randint(3, 8)):
                base = rng.choice(pool)
                size = rng.randint(1, params.j)
                short = tuple(sorted(rng.sample(base.members, size)))
                entries.append(BallotEntry(CandidateSubset(short), rng.randint(1, 5)))
            raw = RawBallotFile(params, tuple(entries))
            completed = complete_short_lists(raw, center, radius)
            # a file is a multiset: it equals the records completed one by one
            # by the documented rule, the smallest center members each lacks
            by_rule = [BallotEntry(complete_by_rule(e.subset, center, params.j), e.multiplicity)
                       for e in entries]
            assert completed == RawBallotFile(params, by_rule)
            assert all(len(e.subset) == params.j for e in completed.distinct)
            dist = normalize(completed)
            assert set(dist.support) <= set(pool)
            assert best_committees(dist).best_value >= floor

            alpha = Fraction(rng.randint(0, 8), 8)
            inside = random_distribution(params, rng, pool=pool)
            outside = random_distribution(params, rng)
            support: dict = {}
            for lst, w in inside.items():
                if alpha > 0:
                    support[lst] = support.get(lst, Fraction(0)) + alpha * w
            for lst, w in outside.items():
                if alpha < 1:
                    support[lst] = support.get(lst, Fraction(0)) + (1 - alpha) * w
            mixture = VoterDistribution(params, support)
            assert best_committees(mixture).best_value >= alpha * ball_floor(params, radius)
