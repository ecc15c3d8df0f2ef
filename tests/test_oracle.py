from fractions import Fraction
from random import Random

import pytest

from listvote import (
    ElectionParams,
    ParameterError,
    best_committees,
    brute_best,
    brute_minimax_grid,
    brute_minimax_vertices,
    global_floor,
    random_distribution,
    worst_case_concentric,
)
from conftest import dist_from, subset


class TestBruteBest:
    def test_example_election(self, example_distribution):
        result = brute_best(example_distribution)
        assert result.best_value == Fraction(8, 15)
        assert result.winners == (subset(4, 5, 6, 7),)

    def test_point_mass_winners_are_all_supersets(self):
        params = ElectionParams(6, 4, 3)
        dist = dist_from(params, {(1, 2, 3): Fraction(1)})
        result = brute_best(dist)
        assert result.best_value == 1
        assert result.winners == (
            subset(1, 2, 3, 4),
            subset(1, 2, 3, 5),
            subset(1, 2, 3, 6),
        )

    def test_size_guard(self):
        params = ElectionParams(21, 4, 3)
        dist = dist_from(params, {(1, 2, 3): Fraction(1)})
        with pytest.raises(ParameterError):
            brute_best(dist)

    def test_agrees_with_optimized_paths(self):
        rng = Random(211)
        for _ in range(60):
            n = rng.randint(4, 9)
            k = rng.randint(2, n - 1)
            j = rng.randint(1, k)
            dist = random_distribution(ElectionParams(n, k, j), rng)
            s = j if rng.random() < 0.5 else rng.randint(0, j)
            reference = brute_best(dist, s)
            fast = best_committees(dist, s=s)
            assert fast.best_value == reference.best_value
            assert fast.winners == reference.winners


class TestBruteMinimaxGrid:
    def test_radius_zero_is_one(self):
        assert brute_minimax_grid(ElectionParams(6, 4, 3), 0, 7) == 1

    def test_radius_one_grid_contains_optimum(self):
        assert brute_minimax_grid(ElectionParams(6, 4, 3), 1, 12) == Fraction(1, 3)

    def test_refinement_is_monotone_and_above_exact(self):
        params = ElectionParams(6, 4, 3)
        exact = worst_case_concentric(params, 2).value
        coarse = brute_minimax_grid(params, 2, 12)
        fine = brute_minimax_grid(params, 2, 24)
        assert coarse >= fine >= exact

    def test_equality_when_optimum_on_grid(self):
        params = ElectionParams(6, 4, 3)
        exact = worst_case_concentric(params, 2)
        denominators = {w.denominator for w in exact.weights}
        assert denominators <= {1, 2, 5, 10}
        assert brute_minimax_grid(params, 2, 10) == exact.value

    def test_guards(self):
        params = ElectionParams(12, 6, 5)
        with pytest.raises(ParameterError):
            brute_minimax_grid(params, 4, 10)
        with pytest.raises(ParameterError):
            brute_minimax_grid(params, 2, 61)


def worst_case_triple(result):
    return result.value, result.weights, result.achieving_class


class TestBruteMinimaxVertices:
    def test_simplex_matches_on_every_small_shape(self):
        # every shape with n <= 9, every radius up to the diameter or the
        # oracle's guard of 3; size-1 lists and k == j shapes are among them
        checked = 0
        for n in range(2, 10):
            for k in range(1, n):
                for j in range(1, k + 1):
                    params = ElectionParams(n, k, j)
                    for radius in range(min(params.diameter, 3) + 1):
                        exact = brute_minimax_vertices(params, radius)
                        fast = worst_case_concentric(params, radius)
                        assert worst_case_triple(fast) == worst_case_triple(exact)
                        checked += 1
        assert checked == 357

    @pytest.mark.parametrize("n", [10, 11])
    def test_simplex_matches_when_k_equals_j(self, n):
        # class 0 covers no ring beyond 0 here, so ratio ties and
        # degenerate pivots are common
        for k in range(2, n):
            params = ElectionParams(n, k, k)
            for radius in range(min(params.diameter, 4)):
                exact = brute_minimax_vertices(params, radius)
                fast = worst_case_concentric(params, radius)
                assert worst_case_triple(fast) == worst_case_triple(exact)

    def test_full_diameter_is_global_floor(self):
        # a ball of full diameter is the whole list space, where the
        # uniform distribution attains the global floor
        for n in range(4, 9):
            for k in range(2, n):
                for j in range(2, k + 1):
                    params = ElectionParams(n, k, j)
                    if params.diameter <= 3:
                        result = brute_minimax_vertices(params, params.diameter)
                        assert result.value == global_floor(params)
                        fast = worst_case_concentric(params, params.diameter)
                        assert worst_case_triple(fast) == worst_case_triple(result)

    def test_643_radius_two(self):
        result = brute_minimax_vertices(ElectionParams(6, 4, 3), 2)
        assert result.value == Fraction(1, 5)
        assert result.weights == (Fraction(1, 10), Fraction(3, 10), Fraction(3, 5))
        assert result.achieving_class == 0

    def test_guards(self):
        with pytest.raises(ParameterError):
            brute_minimax_vertices(ElectionParams(13, 6, 5), 1)
        with pytest.raises(ParameterError):
            brute_minimax_vertices(ElectionParams(12, 6, 5), 4)
        with pytest.raises(ParameterError):
            brute_minimax_vertices(ElectionParams(6, 4, 3), -1)
        with pytest.raises(ParameterError):
            brute_minimax_vertices(ElectionParams(5, 4, 2), 3)
