from fractions import Fraction

import pytest
from hypothesis import settings

from listvote import CandidateSubset, ElectionParams, VoterDistribution, theory

# A harder search for CI, not loaded by default:
#   python -m pytest tests/test_ballots.py --hypothesis-profile=ci
settings.register_profile("ci", max_examples=500)


def subset(*members: int) -> CandidateSubset:
    return CandidateSubset(tuple(members))


def dist_from(params: ElectionParams, table: dict[tuple[int, ...], Fraction]) -> VoterDistribution:
    return VoterDistribution(params, {CandidateSubset(m): w for m, w in table.items()})


@pytest.fixture
def example_params() -> ElectionParams:
    return ElectionParams(7, 4, 3)


@pytest.fixture
def example_distribution(example_params) -> VoterDistribution:
    """Seven candidates, 4-committees, 3-lists: 7/15 on {1,2,3} and 2/15 on
    each 3-subset of {4,5,6,7}. The most popular committee is {4,5,6,7}."""
    return dist_from(
        example_params,
        {
            (1, 2, 3): Fraction(7, 15),
            (4, 5, 6): Fraction(2, 15),
            (4, 5, 7): Fraction(2, 15),
            (4, 6, 7): Fraction(2, 15),
            (5, 6, 7): Fraction(2, 15),
        },
    )


@pytest.fixture
def corrupted_coverage(monkeypatch):
    """Every coverage table built through ``theory.ring_coverage`` has entry
    [1][0] set to 0, a fault the coverage-monotonicity suite must report."""
    ring_coverage = theory.ring_coverage

    def corrupted(params: ElectionParams) -> tuple[tuple[Fraction, ...], ...]:
        rows = [list(row) for row in ring_coverage(params)]
        rows[1][0] = Fraction(0)
        return tuple(map(tuple, rows))

    monkeypatch.setattr(theory, "ring_coverage", corrupted)
