import json
from fractions import Fraction
from math import comb, factorial
from pathlib import Path
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from listvote import (
    CandidateSubset,
    ElectionParams,
    HypothesisViolation,
    ParameterError,
    ball,
    ball_floor,
    ball_floor_radius_limit,
    best_committees,
    concentric,
    coverage_monotonicity_check,
    global_floor,
    iter_lists,
    random_distribution,
    ring,
    ring_coverage,
    ring_monotonicity_check,
    ring_size,
    ring_weights,
    uniform_on,
    worst_case_concentric,
)
from listvote.oracle import (
    approval,
    class_of,
    class_size,
    committees_in_class_containing,
    concentric_approval,
    iter_committees,
)
from conftest import dist_from, subset

P643 = ElectionParams(6, 4, 3)
V123 = CandidateSubset((1, 2, 3))

# worst_case_concentric(params, r).to_dict() for every shape with n <= 11 and
# every radius 0..diameter, keyed "n,k,j,r". Both tables were recorded from
# the earlier simplex over Fractions; any change to the LP must reproduce
# them exactly.
WORST_CASE_TABLE = Path(__file__).parent / "data" / "worst_case_n11.json"
# The same at every radius of the 30 shapes of large_param_sets(0).
WORST_CASE_LARGE = Path(__file__).parent / "data" / "worst_case_large.json"


def coverage_factorial_form(params, r, m):
    """Factorial form of the coverage entry, defined only for m <= r <= k+m-j."""
    n, k, j = params.n, params.k, params.j
    if not (m <= r <= k + m - j):
        raise ParameterError(f"factorial form undefined at r={r}, m={m}")
    num = factorial(r) * factorial(k + m - j) * factorial(j - m) * factorial(n - j - r)
    den = factorial(r - m) * factorial(k + m - j - r) * factorial(j) * factorial(n - j)
    return Fraction(num, den)


def all_param_sets(max_n):
    for n in range(2, max_n + 1):
        for k in range(1, n):
            for j in range(1, k + 1):
                yield ElectionParams(n, k, j)


def random_param_sets(rng, count, max_n, min_j=1):
    for _ in range(count):
        n = rng.randint(min_j + 2, max_n)
        k = rng.randint(min_j, n - 1)
        j = rng.randint(min_j, k)
        yield ElectionParams(n, k, j)


def large_param_sets(seed):
    """30 distinct shapes with 12 <= n <= 40, sorted, drawn from Random(seed)."""
    rng = Random(seed)
    shapes = set()
    while len(shapes) < 30:
        n = rng.randint(12, 40)
        k = rng.randint(1, n - 1)
        shapes.add((n, k, rng.randint(1, k)))
    return [ElectionParams(*shape) for shape in sorted(shapes)]


@st.composite
def shapes_and_radii(draw):
    n = draw(st.integers(2, 24))
    k = draw(st.integers(1, n - 1))
    params = ElectionParams(n, k, draw(st.integers(1, k)))
    return params, draw(st.integers(0, params.diameter))


def random_ring_weight_vector(rng, length):
    raw = [rng.randint(0, 9) for _ in range(length)]
    if sum(raw) == 0:
        raw[rng.randrange(length)] = 1
    total = sum(raw)
    return tuple(Fraction(x, total) for x in raw)


class TestGlobalFloor:
    def test_643(self):
        assert global_floor(P643) == Fraction(1, 5)

    def test_k_equals_n_minus_1(self):
        for n in range(3, 10):
            for j in range(1, n - 1):
                assert global_floor(ElectionParams(n, n - 1, j)) == Fraction(n - j, n)

    def test_743_equals_uniform_average(self):
        params = ElectionParams(7, 4, 3)
        assert global_floor(params) == Fraction(4, 35)
        dist = uniform_on(params, iter_lists(params))
        committees = list(iter_committees(params))
        mean = sum((approval(dist, c) for c in committees), Fraction(0)) / len(committees)
        assert mean == Fraction(4, 35)


class TestClasses:
    def test_class_of(self):
        assert class_of(subset(1, 2, 3, 4), V123) == 0
        assert class_of(subset(4, 5, 6, 7), V123) == 3
        assert class_of(subset(1, 2, 4, 5), V123) == 1

    def test_class_size_by_enumeration(self):
        for m in range(3):
            expected = sum(1 for c in iter_committees(P643) if class_of(c, V123) == m)
            assert class_size(P643, m) == expected
        assert class_size(P643, 0) == 3
        assert class_size(P643, 2) == 3

    def test_partition_identity(self):
        for params in all_param_sets(14):
            m_max = min(params.j, params.n - params.k)
            total = sum(class_size(params, m) for m in range(m_max + 1))
            assert total == comb(params.n, params.k)

    def test_class_size_out_of_range(self):
        with pytest.raises(ParameterError):
            class_size(P643, 3)


class TestCommitteesInClassContaining:
    def test_specializes_to_supersets_at_origin(self):
        for params in all_param_sets(9):
            expected = comb(params.n - params.j, params.k - params.j)
            assert committees_in_class_containing(params, 0, 0) == expected

    @pytest.mark.parametrize("r,m", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_643_against_enumeration(self, r, m):
        fixed = sorted(ring(V123, r, P643))[0]
        count = sum(
            1
            for c in iter_committees(P643)
            if class_of(c, V123) == m and fixed.issubset(c)
        )
        assert committees_in_class_containing(P643, r, m) == count

    def test_count_independent_of_ring_representative(self):
        for r in range(4):
            for m in range(3):
                counts = {
                    sum(
                        1
                        for c in iter_committees(P643)
                        if class_of(c, V123) == m and lst.issubset(c)
                    )
                    for lst in ring(V123, r, P643)
                }
                assert counts == {committees_in_class_containing(P643, r, m)}

    def test_zero_when_r_below_m(self):
        assert committees_in_class_containing(P643, 1, 2) == 0
        assert committees_in_class_containing(P643, 0, 1) == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError, match=r"^radius 4 outside 0\.\.3$"):
            committees_in_class_containing(P643, 4, 0)
        with pytest.raises(ParameterError, match=r"^class index 3 outside 0\.\.2$"):
            committees_in_class_containing(P643, 1, 3)


class TestRingCoverage:
    def test_origin_entry_is_one(self):
        for params in all_param_sets(9):
            assert ring_coverage(params)[0][0] == 1

    def test_643_first_ring_class_zero(self):
        assert ring_coverage(P643)[1][0] == Fraction(1, 3)

    def test_743_table_against_containment_oracle(self):
        params = ElectionParams(7, 4, 3)
        table = ring_coverage(params)
        center = subset(1, 2, 3)
        for r in range(params.diameter + 1):
            ring_lists = ring(center, r, params)
            for committee in iter_committees(params):
                m = class_of(committee, center)
                contained = sum(1 for lst in ring_lists if lst.issubset(committee))
                assert Fraction(contained, len(ring_lists)) == table[r][m]

    def test_containment_semantics_exhaustive_small(self):
        for params in all_param_sets(8):
            table = ring_coverage(params)
            center = CandidateSubset(tuple(range(1, params.j + 1)))
            rings = [ring(center, r, params) for r in range(params.diameter + 1)]
            for committee in iter_committees(params):
                m = class_of(committee, center)
                for r, ring_lists in enumerate(rings):
                    contained = sum(1 for lst in ring_lists if lst.issubset(committee))
                    assert Fraction(contained, len(ring_lists)) == table[r][m]

    def test_zero_below_class_index(self):
        table = ring_coverage(P643)
        assert table[0][1] == 0
        assert table[1][2] == 0

    def test_entries_within_unit_interval(self):
        for params in all_param_sets(10):
            table = ring_coverage(params)
            for row in table:
                assert all(0 <= x <= 1 for x in row)

    def test_factorial_form_agrees_where_defined(self):
        for params in all_param_sets(10):
            table = ring_coverage(params)
            for r in range(params.diameter + 1):
                for m in range(params.max_class + 1):
                    if m <= r <= params.k + m - params.j:
                        assert coverage_factorial_form(params, r, m) == table[r][m]


class TestConcentricApproval:
    def test_point_mass_class_zero(self):
        table = ring_coverage(P643)
        assert concentric_approval((Fraction(1),), 0, table) == 1

    def test_first_ring_class_zero(self):
        table = ring_coverage(P643)
        assert concentric_approval((Fraction(0), Fraction(1)), 0, table) == Fraction(1, 3)

    def test_out_of_range_rejected(self):
        table = ring_coverage(P643)
        with pytest.raises(ParameterError, match=r"^class index 5 outside 0\.\.2$"):
            concentric_approval((Fraction(1),), 5, table)
        weights = (Fraction(0),) * 4 + (Fraction(1),)
        with pytest.raises(ParameterError, match=r"^weight 1 on ring 4 beyond diameter 3$"):
            concentric_approval(weights, 0, table)

    def test_matches_explicit_tally_on_every_committee(self):
        rng = Random(71)
        for params in random_param_sets(rng, 12, 8, min_j=2):
            center = CandidateSubset(tuple(range(1, params.j + 1)))
            weights = random_ring_weight_vector(rng, params.diameter + 1)
            dist = concentric(center, weights, params)
            table = ring_coverage(params)
            for committee in iter_committees(params):
                m = class_of(committee, center)
                assert approval(dist, committee) == concentric_approval(weights, m, table)


class TestTotalApprovalByClass:
    """Sum of approvals over one class equals the ring-weighted containment counts."""

    def test_for_concentric_and_general_distributions(self):
        rng = Random(73)
        for params in random_param_sets(rng, 10, 8):
            center = CandidateSubset(tuple(range(1, params.j + 1)))
            general = random_distribution(params, rng)
            conc = concentric(
                center, random_ring_weight_vector(rng, params.diameter + 1), params
            )
            for dist in (general, conc):
                weights = ring_weights(dist, center)
                m_max = min(params.j, params.n - params.k)
                for m in range(m_max + 1):
                    lhs = sum(
                        (
                            approval(dist, c)
                            for c in iter_committees(params)
                            if class_of(c, center) == m
                        ),
                        Fraction(0),
                    )
                    rhs = sum(
                        (
                            weights[r] * committees_in_class_containing(params, r, m)
                            for r in range(params.diameter + 1)
                        ),
                        Fraction(0),
                    )
                    assert lhs == rhs


class TestRingMonotonicityCheck:
    def test_all_small_params_pass(self):
        for n in range(2, 13):
            for j in range(1, n):
                report = ring_monotonicity_check(ElectionParams(n, j, j))
                assert report.passed, [c for c in report.cells if not c.ok]


class TestCoverageMonotonicityCheck:
    def test_643_cell(self):
        table = ring_coverage(P643)
        # threshold for m=0 is 6/5, so the r=1 comparison must hold
        assert Fraction(3 * (4 + 1 - 3), 4 + 1) == Fraction(6, 5)
        assert table[1][0] >= table[1][1]

    def test_all_params_up_to_12_pass(self):
        for params in all_param_sets(12):
            report = coverage_monotonicity_check(params)
            assert report.passed, (params, [c for c in report.cells if not c.ok])

    def test_integer_threshold_boundary_is_equality_direction(self):
        found = 0
        for params in all_param_sets(12):
            table = ring_coverage(params)
            for m in range(params.max_class):
                threshold = Fraction(
                    params.j * (params.k + 1 + m - params.j), params.k + 1
                )
                if threshold.denominator != 1:
                    continue
                r = int(threshold)
                if m <= r <= min(params.diameter, params.k + m + 1 - params.j):
                    found += 1
                    assert table[r][m] >= table[r][m + 1]
                    assert table[r][m] == table[r][m + 1]
        assert found > 0

    def test_corrupted_table_reports_failing_cell(self, corrupted_coverage):
        report = coverage_monotonicity_check(P643)
        assert not report.passed
        assert any("r=1 m=0" in c.label for c in report.cells if not c.ok)


class TestBallFloor:
    def test_643_radius_one(self):
        assert ball_floor(P643, 1) == Fraction(1, 3)

    def test_radius_zero_is_one(self):
        rng = Random(79)
        for params in random_param_sets(rng, 15, 12, min_j=2):
            assert ball_floor(params, 0) == 1

    def test_853_radius_one(self):
        assert ball_floor(ElectionParams(8, 5, 3), 1) == Fraction(2, 5)
        worst = worst_case_concentric(ElectionParams(8, 5, 3), 1)
        assert worst.value == Fraction(2, 5)

    def test_hypothesis_violation(self):
        assert ball_floor_radius_limit(P643) == Fraction(6, 5)
        with pytest.raises(HypothesisViolation):
            ball_floor(P643, 2)

    def test_size_one_lists(self):
        # only radius 0 is in the regime (limit k/(k+1) < 1), where any
        # committee holding the one listed candidate is approved by all
        p521 = ElectionParams(5, 2, 1)
        assert ball_floor(p521, 0) == 1
        with pytest.raises(HypothesisViolation):
            ball_floor(p521, 1)

    def test_radius_out_of_range(self):
        with pytest.raises(ParameterError):
            ball_floor(P643, -1)
        with pytest.raises(ParameterError):
            ball_floor(P643, 4)


class TestAlphaBallFloor:
    def test_constructed_mixture_attains_floor(self):
        # 3/4 of voters uniform on the first ring, 1/4 on the far list.
        from listvote import VoterDistribution

        inside = concentric(V123, (Fraction(0), Fraction(1)), P643)
        support = {lst: w * Fraction(3, 4) for lst, w in inside.items()}
        support[subset(4, 5, 6)] = Fraction(1, 4)
        dist = VoterDistribution(P643, support)
        best = best_committees(dist).best_value
        floor = Fraction(3, 4) * ball_floor(P643, 1)
        assert floor == Fraction(1, 4)
        assert best == floor


class TestWorstCaseConcentric:
    def test_643_radius_one(self):
        result = worst_case_concentric(P643, 1)
        assert result.value == Fraction(1, 3)
        assert result.weights == (Fraction(0), Fraction(1))
        assert result.achieving_class == 0

    def test_radius_zero(self):
        rng = Random(83)
        for params in random_param_sets(rng, 10, 10):
            result = worst_case_concentric(params, 0)
            assert result.value == 1
            assert result.weights == (Fraction(1),)

    def test_643_radius_two_beyond_hypothesis(self):
        result = worst_case_concentric(P643, 2)
        # cross-validated by the independent grid oracle in test_oracle
        assert result.value == Fraction(1, 5)
        assert result.weights == (Fraction(1, 10), Fraction(3, 10), Fraction(3, 5))
        assert result.value <= Fraction(4, 19)
        assert result.value >= global_floor(P643)
        assert Fraction(4, 19) > Fraction(1, 5)

    def test_beyond_regime_16_12_5_radius_4(self):
        result = worst_case_concentric(ElectionParams(16, 12, 5), 4)
        assert result.value == Fraction(1512, 8305)
        assert result.weights == (
            Fraction(0), Fraction(0), Fraction(133, 604), Fraction(87, 604), Fraction(96, 151),
        )
        assert result.achieving_class == 0

    def test_beyond_regime_20_10_8_radius_3(self):
        result = worst_case_concentric(ElectionParams(20, 10, 8), 3)
        assert result.value == Fraction(3, 1553)
        assert result.weights == (
            Fraction(1, 1553), Fraction(12, 1553), Fraction(0), Fraction(1540, 1553),
        )
        assert result.achieving_class == 0

    def test_matches_ball_floor_within_hypothesis(self):
        rng = Random(89)
        for params in random_param_sets(rng, 20, 10, min_j=2):
            limit = ball_floor_radius_limit(params)
            for radius in range(params.diameter):
                if radius > limit:
                    continue
                result = worst_case_concentric(params, radius)
                assert result.value == ball_floor(params, radius)
                expected = tuple(
                    Fraction(1 if r == radius else 0) for r in range(radius + 1)
                )
                assert result.weights == expected
                assert result.achieving_class == 0

    def test_class_monotone_within_hypothesis(self):
        rng = Random(97)
        for params in random_param_sets(rng, 15, 10, min_j=2):
            limit = ball_floor_radius_limit(params)
            table = ring_coverage(params)
            for radius in range(params.diameter):
                if radius > limit:
                    continue
                weights = random_ring_weight_vector(rng, radius + 1)
                values = [
                    concentric_approval(weights, m, table)
                    for m in range(params.max_class + 1)
                ]
                assert values == sorted(values, reverse=True)

    def test_dominates_every_ball_distribution(self):
        rng = Random(103)
        for _ in range(20):
            n = rng.randint(5, 8)
            k = rng.randint(3, n - 1)
            j = rng.randint(2, k)
            params = ElectionParams(n, k, j)
            if params.diameter < 2:
                continue
            radius = rng.randint(1, params.diameter - 1)
            center = CandidateSubset(tuple(range(1, j + 1)))
            pool = sorted(ball(center, radius, params))
            floor = worst_case_concentric(params, radius).value
            for _ in range(5):
                dist = random_distribution(params, rng, pool=pool)
                assert best_committees(dist).best_value >= floor

    def test_full_diameter_is_global_floor(self):
        # the ball is the whole list space, where the uniform distribution
        # (concentric about any center) gives every committee the global floor
        for params in all_param_sets(12):
            result = worst_case_concentric(params, params.diameter)
            assert result.value == global_floor(params)

    def test_every_small_shape_matches_recorded_table(self):
        # pins the value, the weights and the achieving class far beyond
        # the regime, where only the LP's tie-breaking decides them
        expected = json.loads(WORST_CASE_TABLE.read_text())
        got = {
            f"{p.n},{p.k},{p.j},{r}": worst_case_concentric(p, r).to_dict()
            for p in all_param_sets(11)
            for r in range(p.diameter + 1)
        }
        assert len(got) == 760
        assert got == expected

    def test_larger_shapes_match_recorded_table(self):
        expected = json.loads(WORST_CASE_LARGE.read_text())
        got = {
            f"{p.n},{p.k},{p.j},{r}": worst_case_concentric(p, r).to_dict()
            for p in large_param_sets(0)
            for r in range(p.diameter + 1)
        }
        assert len(got) == 242
        assert got == expected

    @given(shapes_and_radii())
    def test_optimum_is_attained_on_the_coverage_table(self, case):
        # the LP reads no coverage table, so this re-derives its read-out
        # (value, weights, achieving class) from the Fraction table
        params, radius = case
        result = worst_case_concentric(params, radius)
        assert len(result.weights) == radius + 1
        assert all(w >= 0 for w in result.weights)
        assert sum(result.weights) == 1
        table = ring_coverage(params)
        values = [
            concentric_approval(result.weights, m, table)
            for m in range(params.max_class + 1)
        ]
        assert result.value == max(values)
        assert result.achieving_class == values.index(max(values))
        assert result.value >= global_floor(params)

    def test_invalid_radius_rejected(self):
        with pytest.raises(ParameterError, match=r"radius 4 outside 0\.\.3"):
            worst_case_concentric(P643, 4)
        with pytest.raises(ParameterError, match=r"radius -1 outside 0\.\.3"):
            worst_case_concentric(P643, -1)


class TestBallSupportedFloorEndToEnd:
    def test_random_ball_distributions_meet_floor(self):
        rng = Random(107)
        for params in random_param_sets(rng, 8, 9, min_j=2):
            radius = int(ball_floor_radius_limit(params))
            center = CandidateSubset(tuple(range(1, params.j + 1)))
            pool = sorted(ball(center, radius, params))
            floor = ball_floor(params, radius)
            for _ in range(25):
                dist = random_distribution(params, rng, pool=pool)
                assert best_committees(dist).best_value >= floor
