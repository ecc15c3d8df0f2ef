import json
from contextlib import nullcontext
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listvote import (
    ElectionParams,
    ParameterError,
    TallyResult,
    VoterDistribution,
    ball,
    best_committees,
    brute_best,
    global_floor,
    iter_lists,
    project_concentric,
    random_distribution,
    uniform_on,
)
from listvote import tally
from listvote.johnson import CandidateSubset
from listvote.oracle import approval, iter_committees, threshold_approval
from listvote.tally import PACKED_MAX_BYTES, _seed, choose_path, lane_bytes
from conftest import dist_from, subset

PATH_RULE_TABLE = Path(__file__).parent / "data" / "path_rule.json"
FULL_SUPPORT_TABLE = Path(__file__).parent / "data" / "path_rule_full_support.json"


def _rule(dist: VoterDistribution, s: int) -> str:
    """The path the selection rule picks for ``dist`` at threshold ``s``."""
    p = dist.params
    return choose_path(p.n, p.k, p.j, s, len(dist), lane_bytes(dist.total, p.j, s))


def _check_paths(dist: VoterDistribution, s: int) -> None:
    """Each path the lane width allows matches brute force at threshold ``s``.

    Where packed cannot run on the lane (not a machine word of this host),
    the rule picks sparse, and forcing packed is refused with the width named.
    """
    reference = brute_best(dist, s)
    width = lane_bytes(dist.total, dist.params.j, s)
    packs = tally.packs(width)
    if not packs:
        assert _rule(dist, s) == "sparse"
        with pytest.raises(ParameterError, match=f"on a little-endian host, got {width}$"):
            best_committees(dist, s=s, _path="packed")
    for path in ("packed", "sparse") if packs else ("sparse",):
        result = best_committees(dist, s=s, _path=path)
        assert result.strategy_used == path
        assert result.best_value == reference.best_value
        assert [w.mask for w in result.winners] == [w.mask for w in reference.winners]
        assert result.winners == reference.winners


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

    def test_candidate_outside_pool_rejected(self):
        dist = dist_from(ElectionParams(6, 4, 3), {(1, 2, 3): Fraction(1)})
        with pytest.raises(ParameterError, match=r"^\{1,2,3,9\} has candidates outside 1\.\.6$"):
            approval(dist, subset(1, 2, 3, 9))


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
            assert result.strategy_used == _rule(dist, dist.params.j)

    def test_full_support_strategies_agree(self):
        params = ElectionParams(7, 4, 3)
        full = uniform_on(params, iter_lists(params))
        for s in range(params.j + 1):
            result = best_committees(full, s=s)
            reference = brute_best(full, s)
            assert (result.best_value, result.winners) == (reference.best_value, reference.winners)
            assert result.strategy_used == _rule(full, s)

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
        # n above 8, where rank pruning and the Moebius cancellation bite:
        # committees of n - 1 and n - 2, supports of 3, 10 and 40 lists,
        # small weights so that ties occur, and every threshold
        for n in range(9, 14):
            for k in (n - 1, n - 2):
                for size in (3, 10, 40):
                    params = ElectionParams(n, k, rng.randint(1, k))
                    lists = rng.sample(sorted(iter_lists(params)), min(size, comb(n, params.j)))
                    raw = [rng.randint(1, 3) for _ in lists]
                    dist = VoterDistribution(
                        params, {lst: Fraction(w, sum(raw)) for lst, w in zip(lists, raw)}
                    )
                    cases.extend((dist, s) for s in range(params.j + 1))
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
        # 2**29 lanes are far above the packed lattice cap
        assert result.strategy_used == _rule(full, 2) == "sparse"
        assert result.best_value == Fraction(3, 406)
        assert len(result.winners) == comb(29, 3)
        # thresholds on the point mass: s = 1 needs one of 1, 2, 3 on the
        # committee, s = 0 approves every committee
        dist = dist_from(ElectionParams(30, 4, 3), {(1, 2, 3): Fraction(1)})
        result = best_committees(dist, s=1)
        assert result.best_value == 1
        assert len(result.winners) == comb(30, 4) - comb(27, 4) == 9855
        result = best_committees(dist, s=0)
        assert result.best_value == 1
        assert len(result.winners) == comb(30, 4)

    def test_winners_sorted(self):
        params = ElectionParams(6, 4, 3)
        result = best_committees(uniform_on(params, iter_lists(params)))
        assert list(result.winners) == sorted(result.winners)


_DENOMINATORS = [1, 2, 3, 7, 10**9 + 7, 998_244_353, 2**61 - 1]


@st.composite
def distributions(draw):
    n = draw(st.integers(2, 13))
    # above n = 8, committees of n - 2 or n - 1 keep the brute force cheap
    k = draw(st.integers(1, n - 1) if n <= 8 else st.sampled_from([n - 2, n - 1]))
    j = draw(st.integers(1, k))
    params = ElectionParams(n, k, j)
    lists = sorted(iter_lists(params))
    chosen = draw(st.lists(st.sampled_from(lists), min_size=1, max_size=40, unique=True))
    raw = [
        Fraction(draw(st.integers(1, 10**6)), draw(st.sampled_from(_DENOMINATORS)))
        for _ in chosen
    ]
    total = sum(raw)
    return VoterDistribution(params, {lst: w / total for lst, w in zip(chosen, raw)})


@settings(deadline=None)
@given(distributions())
def test_kernels_match_brute_force_for_every_threshold(dist):
    for s in range(dist.params.j + 1):
        reference = brute_best(dist, s)
        result = best_committees(dist, s=s)
        assert result.best_value == reference.best_value
        assert result.winners == reference.winners
        # winners skip the constructor, and equality ignores the mask
        assert [w.mask for w in result.winners] == [w.mask for w in reference.winners]


# Totals whose largest containment lane just fits, or just overflows, a
# 1-byte and an 8-byte lane; and those whose threshold lanes, a guard bit
# above the total's bits, do the same.
_EDGE_TOTALS = [255, 256, 2**64 - 1, 2**64]
_GUARD_TOTALS = [127, 128, 2**63 - 1, 2**63]


@st.composite
def kernel_cases(draw):
    """A distribution for both kernel paths: any shape with n <= 9, one-list
    supports, integer counts over an edge total, or shares over coprime
    denominators whose LCM needs lanes wider than 8 bytes."""
    n = draw(st.integers(2, 9))
    k = draw(st.integers(1, n - 1))
    j = draw(st.integers(1, k))
    params = ElectionParams(n, k, j)
    lists = sorted(iter_lists(params))
    size = draw(st.just(1) | st.integers(1, min(len(lists), 30)))
    chosen = draw(st.lists(st.sampled_from(lists), min_size=size, max_size=size, unique=True))
    if draw(st.booleans()):
        # one list at 1/total fixes the LCM of the denominators at the total
        total = draw(st.sampled_from(_EDGE_TOTALS + _GUARD_TOTALS) | st.integers(size, 10**6))
        counts = [1] * size
        counts[-1] += total - size
        raw = [Fraction(c, total) for c in counts]
    else:
        raw = [Fraction(draw(st.integers(1, 10**6)), draw(st.sampled_from(_DENOMINATORS)))
               for _ in chosen]
    total = sum(raw)
    return VoterDistribution(params, {lst: w / total for lst, w in zip(chosen, raw)})


@settings(deadline=None)
@given(kernel_cases())
def test_both_paths_match_brute_force_for_every_threshold(dist):
    # on this host's lanes, then with none, as on a big-endian host
    for lanes in (nullcontext(), patch.object(tally, "_WORDS", {})):
        with lanes:
            for s in range(dist.params.j + 1):
                _check_paths(dist, s)


def _naive_seeds(dist: VoterDistribution, s: int) -> list[dict[int, int]]:
    """The rank tables by definition: every t-subset T of the candidates,
    t = s..j, holds c_t times the units of the lists containing T, where
    c_t = (-1)**(t - s) * C(t - 1, s - 1); a T in no list is absent."""
    p = dist.params
    ranks = [{} for _ in range(p.k + 1)]
    if s == 0:
        ranks[0][0] = dist.total
        return ranks
    for t in range(s, p.j + 1):
        c = (-1) ** (t - s) * comb(t - 1, s - 1)
        for members in combinations(range(1, p.n + 1), t):
            mask = sum(1 << x for x in members)
            h = sum(u for lst, u in dist.units.items() if lst.mask & mask == mask)
            if h:
                ranks[t][mask] = c * h
    return ranks


def _forms(j: int, s: int, ranks: list[dict[int, int]], support: int) -> list[str]:
    """The seeding form each rank t = j - 1..s is priced to run, from the finished tables."""
    return ["downward" if len(ranks[t + 1]) * (t + 1) <= support * comb(j, t) else "per list"
            for t in range(j - 1, s - 1, -1)]


@settings(deadline=None)
@given(kernel_cases())
def test_seeds_match_their_definition_for_every_threshold(dist):
    p = dist.params
    for s in range(p.j + 1):
        assert _seed(p.k, p.j, s, dist.total, dist.units) == _naive_seeds(dist, s)


class TestSeeding:
    def test_full_support_runs_downward_with_every_divisor(self):
        # (14,10,10) over 2**63 - 25: every list holds 1 unit but the last,
        # which holds the rest, so a t-set T lies in C(14 - t, 10 - t) lists
        # and h_t(T) has a closed form. Every rank below 10 runs downward,
        # and rank 4 divides by 10 - 4 = 6 and by the coefficient of rank 5.
        params = ElectionParams(14, 10, 10)
        lists = sorted(iter_lists(params))
        total = 2**63 - 25
        units = dict.fromkeys(lists, 1)
        units[lists[-1]] = total - (len(lists) - 1)
        heavy = lists[-1].mask
        ranks = _seed(10, 10, 4, total, units)
        for t in range(4, 11):
            c = (-1) ** (t - 4) * comb(t - 1, 3)
            expected = {}
            for members in combinations(range(1, 15), t):
                mask = sum(1 << x for x in members)
                extra = total - len(lists) if heavy & mask == mask else 0
                expected[mask] = c * (comb(14 - t, 10 - t) + extra)
            assert ranks[t] == expected, t
        assert _forms(10, 4, ranks, len(lists)) == ["downward"] * 6

    @pytest.mark.parametrize("n, k, j, s, size, forms", [
        # rank 7 ties and runs downward; each lower rank has more t-sets
        # above it than its lists have t-subsets, and runs per list
        (20, 10, 8, 3, 100, ["downward"] + ["per list"] * 4),
        # rank 2 runs downward again from rank 3, which ran per list, so it
        # divides by j - t = 4 times rank 3's coefficient, -2
        (16, 10, 6, 2, 300, ["downward", "per list", "per list", "downward"]),
    ])
    def test_sparse_supports_reach_the_per_list_form(self, n, k, j, s, size, forms):
        # lists of j drawn at random from n candidates share few t-subsets
        rng = Random(n)
        lists = set()
        while len(lists) < size:
            lists.add(CandidateSubset(rng.sample(range(1, n + 1), j)))
        units = {lst: rng.randint(1, 30) for lst in sorted(lists)}
        ranks = _seed(k, j, s, sum(units.values()), units)
        # the reference adds each list's units into each of its t-subsets,
        # as the t-sets of n candidates are too many to scan
        for t in range(s, j + 1):
            c = (-1) ** (t - s) * comb(t - 1, s - 1)
            expected = {}
            for lst, u in units.items():
                for members in combinations(lst.members, t):
                    mask = sum(1 << x for x in members)
                    expected[mask] = expected.get(mask, 0) + c * u
            assert ranks[t] == expected, t
        assert _forms(j, s, ranks, size) == forms


class TestPackedPath:
    def test_lane_width_at_the_byte_edges(self):
        # containment and s = 0: the full set's lane holds the whole total,
        # and widths below 8 bytes are rounded up to machine words
        assert [lane_bytes(t, 3, 3) for t in _EDGE_TOTALS] == [1, 2, 8, 9]
        assert [lane_bytes(2**b, 3, 0) for b in (8, 16, 24, 40, 63)] == [2, 4, 4, 8, 8]
        # 0 < s < j: the total's bits and one guard bit, whatever j and s
        assert [lane_bytes(t, 3, s) for s in (1, 2) for t in _GUARD_TOTALS] == [1, 2, 8, 9] * 2
        assert lane_bytes(127, 4, 3) == 1 and lane_bytes(128, 4, 3) == 2
        assert lane_bytes(127, 10, 5) == 1
        # (10,8,3) at s = 2 over the largest prime below 2**63: a bound per
        # Moebius sign, 3 units per list unit, would need 9 bytes
        assert lane_bytes(2**63 - 25, 3, 2) == 8
        assert choose_path(10, 8, 3, 2, 85, 8) == "packed"

    @pytest.mark.parametrize("width, wider", [(1, 2), (2, 4), (4, 8), (8, 9)])
    def test_residues_wrap_at_every_word_edge(self, width, wider):
        # a total of 2**(8W-1) - 1 fills a threshold's W-byte residue lanes
        # below the guard bit, and 2**(8W-1) needs the next width; the heavy
        # list's negative seeds wrap, and intermediate lanes pass the total
        params = ElectionParams(6, 4, 3)
        edge = 2 ** (8 * width - 1)
        for total, guarded in ((edge - 1, width), (edge, wider)):
            dist = dist_from(params, {(1, 2, 3): Fraction(total - 2, total),
                                      (1, 2, 4): Fraction(1, total),
                                      (3, 5, 6): Fraction(1, total)})
            assert dist.total == total
            for s in range(4):
                assert lane_bytes(total, 3, s) == (guarded if 0 < s < 3 else width)
                _check_paths(dist, s)

    def test_lane_holds_exactly_the_edge_total(self):
        # the LCM of the denominators is the total, and under containment
        # and s = 0 the full set's lane holds all of it: 255 in 1 byte, 256
        # in 2 and 2**64 - 1 in 8 run packed; 2**64 needs 9 and runs sparse
        params = ElectionParams(5, 4, 2)
        assert [lane_bytes(t, 2, s) for s in (0, 2) for t in _EDGE_TOTALS] == [1, 2, 8, 9] * 2
        for total in _EDGE_TOTALS:
            dist = dist_from(params, {(1, 2): Fraction(total - 1, total),
                                      (4, 5): Fraction(1, total)})
            for s in range(3):
                _check_paths(dist, s)

    def test_rule_picks_packed_on_dense_supports(self):
        # the tally-ball shape, a radius-2 ball of 311 lists at (14,7,4), and
        # the tally-threshold shape, 60 to 140 lists at (13,6,4) with s = 3,
        # each over 3000 voters
        assert choose_path(14, 7, 4, 4, 311, lane_bytes(3000, 4, 4)) == "packed"
        for support in (60, 100, 140):
            assert choose_path(13, 6, 4, 3, support, lane_bytes(3000, 4, 3)) == "packed"

    def test_rule_picks_sparse_on_wide_or_thin_supports(self):
        # 112 lists at (40,4,3): 2**40 lanes are far above the lattice cap
        assert (1 << 40) > PACKED_MAX_BYTES
        assert choose_path(40, 4, 3, 3, 112, lane_bytes(20000, 3, 3)) == "sparse"
        # one list at (16,4,3) touches 13 committees
        assert choose_path(16, 4, 3, 3, 1, lane_bytes(1, 3, 3)) == "sparse"

    def test_rule_picks_the_recorded_path_on_every_cell(self):
        # The rule's calibration grid: n in {10, 11, 12, 14, 16, 18}, (k, j)
        # in {(4, 3), (n/2, 4)}, supports of 1, 10, 100 and 600 lists (capped
        # at C(n, j)) over 3000 voters, s in {j - 1, j}; then 2-byte lanes at
        # the lattice cap, whose 4 MiB hold n = 21 and not the uniform
        # radius-2 ball of 991 lists at (22,11,4); then three exact price
        # ties, which run sparse. Changing the bytes per update, the cap or
        # the comparison moves at least one cell.
        cells = json.loads(PATH_RULE_TABLE.read_text())
        assert len(cells) == 107
        assert {c["path"] for c in cells[:96]} == {"packed", "sparse"}
        for c in cells:
            width = lane_bytes(c["total"], c["j"], c["s"])
            expected = c["path"] if tally.packs(width) else "sparse"
            got = choose_path(c["n"], c["k"], c["j"], c["s"], c["support"], width)
            assert got == expected, c

    def test_rule_picks_the_recorded_path_at_full_support(self):
        # Every full-support shape (n, k, j, s) with 10 <= n <= 16,
        # C(n, j) <= 2000 and s in {j - 1, j}, at each of the table's totals:
        # row [n, j, s, *paths] holds per total one letter per k in j..n-1,
        # "p" for packed and "s" for sparse. Then (16,15,3) at s = 1, where
        # the sparse price ignores the ranks _sparse frees as k nears n. A
        # change to the rule moves recorded cells, so each one it moves is
        # listed when the table is rewritten.
        table = json.loads(FULL_SUPPORT_TABLE.read_text())
        assert {tuple(row[:3]) for row in table["rows"]} == {
            (n, j, s) for n in range(10, 17) for j in range(1, n) if comb(n, j) <= 2000
            for s in (j - 1, j)
        }
        cells = [
            {"n": n, "k": k, "j": j, "s": s, "support": comb(n, j), "total": total,
             "path": {"p": "packed", "s": "sparse"}[letter]}
            for n, j, s, *paths in table["rows"]
            for total, letters in zip(table["totals"], paths, strict=True)
            for k, letter in zip(range(j, n), letters, strict=True)
        ]
        assert len(cells) == 1696
        assert sum(c["path"] == "packed" for c in cells) == 915
        for c in cells + table["cells"]:
            width = lane_bytes(c["total"], c["j"], c["s"])
            expected = c["path"] if tally.packs(width) else "sparse"
            got = choose_path(c["n"], c["k"], c["j"], c["s"], c["support"], width)
            assert got == expected, c

    def test_strategy_reports_the_path_that_ran(self):
        params = ElectionParams(14, 7, 4)
        center = CandidateSubset((1, 2, 3, 4))
        dense = uniform_on(params, ball(center, 2, params))
        assert best_committees(dense).strategy_used == "packed"
        thin = dist_from(ElectionParams(16, 4, 3), {(1, 2, 3): Fraction(1)})
        assert best_committees(thin).strategy_used == "sparse"
        assert best_committees(dense, _path="sparse").strategy_used == "sparse"

    def test_a_host_without_word_lanes_runs_sparse(self, monkeypatch):
        # no machine-word lanes, as on a big-endian host: the dense (14,7,4)
        # ball that runs packed above runs sparse, to the same result
        params = ElectionParams(14, 7, 4)
        dense = uniform_on(params, ball(CandidateSubset((1, 2, 3, 4)), 2, params))
        packed = best_committees(dense)
        assert packed.strategy_used == "packed"
        monkeypatch.setattr(tally, "_WORDS", {})
        assert _rule(dense, 4) == "sparse"
        result = best_committees(dense)
        assert result == (packed.best_value, packed.winners, "sparse")
        with pytest.raises(ParameterError, match="little-endian host, got 2$"):
            best_committees(dense, _path="packed")


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
