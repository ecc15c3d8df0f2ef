from fractions import Fraction
from itertools import chain, repeat
from math import gcd

import pytest
from hypothesis import settings

from listvote import (
    BallotEntry,
    CandidateSubset,
    ElectionParams,
    RawBallotFile,
    VoterDistribution,
    theory,
)

# A harder search for CI, not loaded by default; run over the whole suite, it
# reaches every property whose @settings leaves max_examples unset:
#   python -m pytest --hypothesis-profile=ci tests/
settings.register_profile("ci", max_examples=500)


def subset(*members: int) -> CandidateSubset:
    return CandidateSubset(tuple(members))


def record_entries(raw: RawBallotFile) -> tuple[BallotEntry, ...]:
    """Each of ``raw.distinct`` ``raw.repeats[i]`` times, in order of first record."""
    return tuple(chain.from_iterable(map(repeat, raw.distinct, raw.repeats)))


def complete_by_rule(short: CandidateSubset, center: CandidateSubset, j: int) -> CandidateSubset:
    """``short`` completed by the documented rule: the smallest center members it lacks."""
    members = short.members
    fill = [c for c in center.members if c not in members][:j - len(members)]
    return CandidateSubset(members + tuple(fill))


def assert_canonical(s: CandidateSubset, n: int) -> None:
    """Fail unless ``s`` keeps ``CandidateSubset``'s contract: members sorted,
    distinct and within 1..n, and ``mask`` the OR of their bits.

    A subset is the tuple record ``(members, mask)``, so one built without
    the constructor (``CandidateSubset.unchecked``) with a wrong mask
    compares unequal to the right one; members out of order, repeated or
    out of range, with their mask to match, are seen only here.
    """
    members = s.members
    assert type(members) is tuple and list(members) == sorted(set(members)), s
    assert all(type(c) is int and 1 <= c <= n for c in members), (s, n)
    mask = 0
    for c in members:
        mask |= 1 << c
    assert s.mask == mask, (s, bin(s.mask))


def assert_reduced(dist: VoterDistribution) -> None:
    """Fail unless ``dist`` holds ``VoterDistribution``'s one stored form:
    positive int units that sum to the total and share no factor with it.

    ``VoterDistribution.unchecked`` takes the form on trust, and equality
    compares it field by field, so units with a common factor left in
    would compare unequal to the same weights reduced.
    """
    units = list(dist.units.values())
    assert all(type(u) is int and u > 0 for u in units), dist
    assert sum(units) == dist.total, dist
    assert gcd(dist.total, *units) == 1, dist


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
