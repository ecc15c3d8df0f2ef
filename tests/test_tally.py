from fractions import Fraction
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listvote import (
    ElectionParams,
    ParameterError,
    TallyResult,
    VoterDistribution,
    approval,
    ball,
    best_committees,
    brute_best,
    global_floor,
    iter_committees,
    iter_lists,
    project_concentric,
    random_distribution,
    threshold_approval,
    uniform_on,
)
from conftest import dist_from, subset


class TestApproval:
    def test_example_best_committee(self, example_distribution):
        assert approval(example_distribution, subset(4, 5, 6, 7)) == Fraction(8, 15)

    def test_example_committee_with_popular_list(self, example_distribution):
        assert approval(example_distribution, subset(1, 2, 3, 4)) == Fraction(7, 15)

    def test_point_mass(self):
        params = ElectionParams(6, 4, 3)
        dist = dist_from(params, {(1, 2, 3): Fraction(1)})
        assert approval(dist, subset(1, 2, 3, 4)) == 1
        assert approval(dist, subset(1, 2, 4, 5)) == 0

    def test_wrong_size_rejected(self, example_distribution):
        with pytest.raises(ParameterError):
            approval(example_distribution, subset(1, 2, 3))


class TestThresholdApproval:
    def test_s_equals_j_reduces_to_approval(self):
        rng = Random(17)
        params = ElectionParams(7, 4, 3)
        committees = sorted(iter_committees(params))
        for _ in range(50):
            dist = random_distribution(params, rng)
            committee = rng.choice(committees)
            assert threshold_approval(dist, committee, 3) == approval(dist, committee)

    def test_s_zero_is_one(self, example_distribution):
        for committee in iter_committees(example_distribution.params):
            assert threshold_approval(example_distribution, committee, 0) == 1

    def test_example_s2_brute_count(self, example_distribution):
        # Direct enumeration over the 5 support lists.
        committee = subset(4, 5, 6, 7)
        expected = sum(
            (
                w
                for lst, w in example_distribution.items()
                if lst.intersection_size(committee) >= 2
            ),
            Fraction(0),
        )
        assert threshold_approval(example_distribution, committee, 2) == expected
        assert expected == Fraction(8, 15)

    def test_monotone_in_s_over_all_committees(self):
        rng = Random(29)
        params = ElectionParams(7, 4, 3)
        committees = sorted(iter_committees(params))
        for _ in range(10):
            dist = random_distribution(params, rng)
            for committee in committees:
                values = [threshold_approval(dist, committee, s) for s in range(4)]
                assert values == sorted(values, reverse=True)

    def test_out_of_range_rejected(self, example_distribution):
        with pytest.raises(ParameterError):
            threshold_approval(example_distribution, subset(1, 2, 3, 4), 4)
        with pytest.raises(ParameterError):
            threshold_approval(example_distribution, subset(1, 2, 3, 4), -1)


class TestBestCommittees:
    def test_example_election(self, example_distribution):
        result = best_committees(example_distribution)
        assert result.best_value == Fraction(8, 15)
        assert result.winners == (subset(4, 5, 6, 7),)

    def test_uniform_everything_ties(self):
        params = ElectionParams(6, 4, 3)
        result = best_committees(uniform_on(params, iter_lists(params)))
        assert result.best_value == Fraction(1, 5)
        assert len(result.winners) == comb(6, 4)

    def test_uniform_ball_radius_two(self):
        params = ElectionParams(6, 4, 3)
        dist = uniform_on(params, ball(subset(1, 2, 3), 2, params))
        result = best_committees(dist)
        assert result.best_value == Fraction(4, 19)

    def test_strategies_agree_on_100_random_instances(self):
        rng = Random(101)
        for _ in range(100):
            n = rng.randint(4, 9)
            k = rng.randint(2, n - 1)
            j = rng.randint(1, k)
            dist = random_distribution(ElectionParams(n, k, j), rng)
            result = best_committees(dist)
            reference = brute_best(dist)
            assert (result.best_value, result.winners) == (reference.best_value, reference.winners)
            assert result.strategy_used == "sparse"

    def test_full_support_strategies_agree(self):
        params = ElectionParams(7, 4, 3)
        full = uniform_on(params, iter_lists(params))
        for s in range(params.j + 1):
            result = best_committees(full, s=s)
            reference = brute_best(full, s)
            assert (result.best_value, result.winners) == (reference.best_value, reference.winners)
            assert result.strategy_used == "sparse"

    def test_threshold_strategies_agree(self, example_distribution):
        rng = Random(103)
        cases = [(example_distribution, 2)]
        for _ in range(40):
            n = rng.randint(4, 9)
            k = rng.randint(2, n - 1)
            j = rng.randint(1, k)
            params = ElectionParams(n, k, j)
            dist = rng.choice(
                [random_distribution(params, rng), uniform_on(params, iter_lists(params))]
            )
            cases.append((dist, rng.randint(0, j - 1)))
        for dist, s in cases:
            result = best_committees(dist, s=s)
            reference = brute_best(dist, s)
            assert (result.best_value, result.winners) == (reference.best_value, reference.winners)

    def test_full_support_above_brute_force_guard(self):
        # n above oracle.BRUTE_MAX_N: a point mass, then all C(29, 2) lists
        params = ElectionParams(30, 4, 3)
        dist = dist_from(params, {(1, 2, 3): Fraction(1)})
        result = best_committees(dist)
        assert result.best_value == 1
        assert len(result.winners) == 30 - 3
        params = ElectionParams(29, 3, 2)
        full = uniform_on(params, iter_lists(params))
        result = best_committees(full)
        assert result.strategy_used == "sparse"
        assert result.best_value == Fraction(3, 406)
        assert len(result.winners) == comb(29, 3)

    def test_winners_sorted(self):
        params = ElectionParams(6, 4, 3)
        result = best_committees(uniform_on(params, iter_lists(params)))
        assert list(result.winners) == sorted(result.winners)


_DENOMINATORS = [1, 2, 3, 7, 10**9 + 7, 998_244_353, 2**61 - 1]


@st.composite
def distributions(draw):
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n - 1))
    j = draw(st.integers(1, k))
    params = ElectionParams(n, k, j)
    lists = sorted(iter_lists(params))
    chosen = draw(st.lists(st.sampled_from(lists), min_size=1, max_size=12, unique=True))
    raw = [
        Fraction(draw(st.integers(1, 10**6)), draw(st.sampled_from(_DENOMINATORS)))
        for _ in chosen
    ]
    total = sum(raw)
    return VoterDistribution(params, {lst: w / total for lst, w in zip(chosen, raw)})


@settings(max_examples=80, deadline=None)
@given(distributions())
def test_kernels_match_brute_force_for_every_threshold(dist):
    for s in range(dist.params.j + 1):
        reference = brute_best(dist, s)
        result = best_committees(dist, s=s)
        assert result.best_value == reference.best_value
        assert result.winners == reference.winners


class TestAverageApproval:
    """``global_floor`` is the mean approval over all committees."""

    def test_closed_form_643(self):
        assert global_floor(ElectionParams(6, 4, 3)) == Fraction(1, 5)
        assert global_floor(ElectionParams(7, 4, 3)) == Fraction(4, 35)

    def test_point_mass_by_enumeration(self):
        params = ElectionParams(5, 3, 2)
        dist = dist_from(params, {(1, 2): Fraction(1)})
        committees = list(iter_committees(params))
        mean = sum((approval(dist, c) for c in committees), Fraction(0)) / len(committees)
        assert mean == Fraction(3, 10)
        assert global_floor(params) == mean

    def test_mean_equals_best_only_when_constant(self):
        params = ElectionParams(6, 4, 3)
        flat = uniform_on(params, iter_lists(params))
        assert best_committees(flat).best_value == global_floor(params)
        spiked = dist_from(params, {(1, 2, 3): Fraction(1)})
        assert best_committees(spiked).best_value > global_floor(params)


class TestIdentitiesAndFloors:
    def test_best_at_least_average(self):
        rng = Random(53)
        for _ in range(40):
            n = rng.randint(4, 9)
            k = rng.randint(2, n - 1)
            j = rng.randint(1, k)
            params = ElectionParams(n, k, j)
            dist = random_distribution(params, rng)
            assert best_committees(dist).best_value >= global_floor(params)

    def test_total_approval_identity(self):
        rng = Random(59)
        for _ in range(25):
            n = rng.randint(4, 10)
            k = rng.randint(2, n - 1)
            j = rng.randint(1, k)
            params = ElectionParams(n, k, j)
            dist = random_distribution(params, rng)
            total = sum(
                (approval(dist, c) for c in iter_committees(params)), Fraction(0)
            )
            assert total == comb(n - j, k - j)

    def test_projection_can_only_lower_the_best(self):
        rng = Random(61)
        for _ in range(100):
            n = rng.randint(4, 9)
            k = rng.randint(2, n - 1)
            j = rng.randint(1, k)
            params = ElectionParams(n, k, j)
            dist = random_distribution(params, rng)
            center = rng.choice(sorted(iter_lists(params)))
            projected = project_concentric(dist, center)
            assert best_committees(dist).best_value >= best_committees(projected).best_value


class TestTallyResult:
    def test_invariants(self):
        with pytest.raises(ParameterError):
            TallyResult(Fraction(1), (), "sparse")
        with pytest.raises(ParameterError):
            TallyResult(
                Fraction(1), (subset(2, 3, 4, 5), subset(1, 2, 3, 4)), "sparse"
            )
