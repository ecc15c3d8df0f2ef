import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from listvote import (
    CandidateSubset,
    ElectionParams,
    ParameterError,
    ball,
    distance,
    iter_committees,
    iter_lists,
    ring,
    ring_monotone_threshold,
    ring_size,
)
from listvote.johnson import parse_members
from conftest import subset


class TestCandidateSubset:
    def test_canonical_sorted(self):
        assert CandidateSubset((3, 1, 2)).members == (1, 2, 3)

    def test_rejects_duplicates_and_nonpositive(self):
        with pytest.raises(ParameterError):
            CandidateSubset((1, 1, 2))
        with pytest.raises(ParameterError):
            CandidateSubset((0, 1))

    def test_render_and_parse(self):
        s = subset(1, 2, 3)
        assert str(s) == "{1,2,3}"
        assert CandidateSubset(parse_members("{1,2,3}")) == s
        assert parse_members("3,2,1") == (1, 2, 3)

    def test_lexicographic_order(self):
        assert subset(1, 2, 4) < subset(1, 3, 4) < subset(2, 3, 4)

    def test_set_operations(self):
        a, b = subset(1, 2, 3), subset(2, 3, 4)
        assert a.intersection_size(b) == 2
        assert subset(1, 2).issubset(a)
        assert not a.issubset(b)
        assert 2 in a and 5 not in a


class TestElectionParams:
    def test_diameter(self):
        assert ElectionParams(6, 4, 3).diameter == 3
        assert ElectionParams(4, 3, 2).diameter == 2
        assert ElectionParams(9, 5, 4).diameter == 4

    def test_max_class(self):
        assert ElectionParams(6, 4, 3).max_class == 2
        assert ElectionParams(7, 4, 3).max_class == 3
        assert ElectionParams(9, 2, 2).max_class == 2

    @pytest.mark.parametrize("n,k,j", [(4, 4, 2), (4, 2, 3), (4, 2, 0), (3, 0, 0)])
    def test_invalid_rejected(self, n, k, j):
        with pytest.raises(ParameterError):
            ElectionParams(n, k, j)

    def test_j_equal_one_accepted(self):
        assert ElectionParams(5, 2, 1).diameter == 1


class TestDistance:
    def test_identity(self):
        assert distance(subset(1, 2), subset(1, 2)) == 0

    def test_disjoint_pair(self):
        assert distance(subset(1, 2), subset(3, 4)) == 2

    def test_one_substitution(self):
        assert distance(subset(1, 2, 3), subset(1, 2, 7)) == 1

    def test_size_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            distance(subset(1, 2), subset(1, 2, 3))

    @pytest.mark.parametrize("n,j", [(5, 2), (6, 3), (7, 3), (8, 4)])
    def test_metric_axioms_exhaustive(self, n, j):
        lists = list(combinations(range(1, n + 1), j))
        masks = {m: sum(1 << c for c in m) for m in lists}

        def d(a, b):
            return j - (masks[a] & masks[b]).bit_count()

        for a in lists:
            assert d(a, a) == 0
            for b in lists:
                assert d(a, b) == d(b, a)
                assert (d(a, b) == 0) == (a == b)
        for a in lists:
            for b in lists:
                dab = d(a, b)
                for c in lists:
                    assert dab <= d(a, c) + d(c, b)

    def test_metric_matches_class(self):
        for a in combinations(range(1, 7), 3):
            for b in combinations(range(1, 7), 3):
                expected = 3 - len(set(a) & set(b))
                assert distance(CandidateSubset(a), CandidateSubset(b)) == expected


class TestRings:
    def test_j42_ring_listing(self):
        p = ElectionParams(4, 2, 2)
        v = subset(1, 2)
        assert ring(v, 0, p) == {subset(1, 2)}
        assert ring(v, 1, p) == {subset(1, 3), subset(1, 4), subset(2, 3), subset(2, 4)}
        assert ring(v, 2, p) == {subset(3, 4)}

    def test_j63_far_ring_is_complement(self):
        p = ElectionParams(6, 4, 3)
        assert ring(subset(1, 2, 3), 3, p) == {subset(4, 5, 6)}

    def test_ring_size_examples(self):
        assert ring_size(ElectionParams(4, 2, 2), 1) == 4
        assert ring_size(ElectionParams(4, 2, 2), 0) == 1
        assert ring_size(ElectionParams(6, 4, 3), 1) == 9

    def test_ring_size_out_of_range(self):
        with pytest.raises(ParameterError):
            ring_size(ElectionParams(6, 4, 3), 4)
        with pytest.raises(ParameterError):
            ring(subset(1, 2, 3), 4, ElectionParams(6, 4, 3))

    @pytest.mark.parametrize("n", range(2, 15))
    def test_rings_partition_the_list_space(self, n):
        for j in range(1, n):
            k = j if j < n else n - 1
            p = ElectionParams(n, k, j)
            total = sum(ring_size(p, r) for r in range(p.diameter + 1))
            assert total == math.comb(n, j)

    @pytest.mark.parametrize("n,j", [(4, 2), (5, 2), (6, 3), (7, 3), (8, 4)])
    def test_ring_matches_brute_force_filter_all_centers(self, n, j):
        p = ElectionParams(n, j, j)
        lists = list(iter_lists(p))
        for center in lists:
            byring = {}
            for lst in lists:
                byring.setdefault(distance(lst, center), set()).add(lst)
            for r in range(p.diameter + 1):
                expected = byring.get(r, set())
                assert ring(center, r, p) == expected
                assert ring_size(p, r) == len(expected)


class TestBalls:
    def test_full_ball_is_everything(self):
        p = ElectionParams(4, 2, 2)
        assert ball(subset(1, 2), 2, p) == set(iter_lists(p))

    def test_radius_zero(self):
        p = ElectionParams(6, 4, 3)
        assert ball(subset(1, 2, 3), 0, p) == {subset(1, 2, 3)}

    def test_j63_radius_one_has_ten_lists(self):
        p = ElectionParams(6, 4, 3)
        b = ball(subset(1, 2, 3), 1, p)
        assert len(b) == 1 + ring_size(p, 1) == 10

    def test_proper_until_diameter(self):
        p = ElectionParams(6, 4, 3)
        v = subset(1, 2, 3)
        everything = set(iter_lists(p))
        for radius in range(p.diameter):
            assert ball(v, radius, p) != everything
        assert ball(v, p.diameter, p) == everything

    def test_radius_beyond_diameter_rejected(self):
        p = ElectionParams(6, 4, 3)
        with pytest.raises(ParameterError):
            ball(subset(1, 2, 3), 4, p)

    def test_negative_radius_rejected(self):
        p = ElectionParams(6, 4, 3)
        with pytest.raises(ParameterError, match=r"radius -1 outside 0\.\.3"):
            ball(subset(1, 2, 3), -1, p)


class TestRingMonotoneThreshold:
    def test_j42(self):
        assert ring_monotone_threshold(ElectionParams(4, 2, 2)) == Fraction(1, 2)
        # sizes 1, 4, 1: grows exactly while r <= 1/2
        p = ElectionParams(4, 2, 2)
        assert ring_size(p, 0) <= ring_size(p, 1)
        assert ring_size(p, 1) > ring_size(p, 2)

    def test_j63(self):
        assert ring_monotone_threshold(ElectionParams(6, 4, 3)) == Fraction(1)
        sizes = [ring_size(ElectionParams(6, 4, 3), r) for r in range(4)]
        assert sizes == [1, 9, 9, 1]

    @pytest.mark.parametrize("n", range(2, 15))
    def test_iff_against_explicit_sizes(self, n):
        for j in range(1, n):
            p = ElectionParams(n, j, j)
            threshold = ring_monotone_threshold(p)
            for r in range(p.diameter):
                grows = ring_size(p, r) <= ring_size(p, r + 1)
                assert grows == (r <= threshold)
                # equivalent product form
                assert grows == ((j - r) * (n - j - r) >= (r + 1) ** 2)


@given(st.integers(4, 9), st.data())
def test_distance_symmetry_random(n, data):
    j = data.draw(st.integers(1, n - 1))
    pool = list(range(1, n + 1))
    a = CandidateSubset(tuple(data.draw(st.permutations(pool))[:j]))
    b = CandidateSubset(tuple(data.draw(st.permutations(pool))[:j]))
    assert distance(a, b) == distance(b, a)
    assert 0 <= distance(a, b) <= min(j, n - j)


def test_iterators_are_lexicographic():
    p = ElectionParams(5, 3, 2)
    lists = list(iter_lists(p))
    assert lists == sorted(lists)
    assert len(lists) == 10
    committees = list(iter_committees(p))
    assert committees == sorted(committees)
    assert len(committees) == 10
