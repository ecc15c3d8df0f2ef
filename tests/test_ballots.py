import json
import re
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from listvote import (
    BallotEntry,
    BallotFormatError,
    CandidateSubset,
    ElectionParams,
    HypothesisViolation,
    ParameterError,
    RawBallotFile,
    VoterDistribution,
    ball,
    complete_short_lists,
    concentric,
    distance,
    dumps_ballot_file,
    iter_lists,
    loads_ballot_file,
    normalize,
    project_concentric,
    random_distribution,
    read_ballot_file,
    ring_weights,
    sample_ball_counts,
    uniform_on,
)
from conftest import dist_from, subset

P643 = ElectionParams(6, 4, 3)
V123 = CandidateSubset((1, 2, 3))


def entry(members, mult):
    return BallotEntry(CandidateSubset(tuple(members)), mult)


class TestVoterDistribution:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            VoterDistribution(P643, {V123: Fraction(1, 2)})

    def test_rejects_zero_weight(self):
        with pytest.raises(ParameterError):
            VoterDistribution(
                P643, {V123: Fraction(1), subset(4, 5, 6): Fraction(0)}
            )

    def test_rejects_wrong_size_list(self):
        with pytest.raises(ParameterError):
            VoterDistribution(P643, {subset(1, 2): Fraction(1)})

    def test_rejects_out_of_range_candidate(self):
        with pytest.raises(ParameterError):
            VoterDistribution(P643, {subset(1, 2, 7): Fraction(1)})


class TestNormalize:
    def test_example_counts(self, example_params):
        raw = RawBallotFile(
            example_params,
            (
                entry((1, 2, 3), 7),
                entry((4, 5, 6), 2),
                entry((4, 5, 7), 2),
                entry((4, 6, 7), 2),
                entry((5, 6, 7), 2),
            ),
        )
        dist = normalize(raw)
        assert dist.weight(subset(1, 2, 3)) == Fraction(7, 15)
        assert dist.weight(subset(4, 5, 6)) == Fraction(2, 15)
        assert sum(w for _, w in dist.items()) == 1

    def test_single_ballot(self):
        dist = normalize(RawBallotFile(P643, (entry((1, 2, 3), 5),)))
        assert dist.weight(V123) == 1

    def test_duplicates_merge(self):
        raw = RawBallotFile(P643, (entry((1, 2, 3), 2), entry((1, 2, 3), 3)))
        dist = normalize(raw)
        assert len(dist) == 1
        assert dist.weight(V123) == 1

    def test_mixed_counts_and_weights(self):
        raw = RawBallotFile(P643, (entry((1, 2, 3), 1), entry((4, 5, 6), Fraction(1, 3))))
        dist = normalize(raw)
        assert dist.weight(V123) == Fraction(3, 4)
        assert dist.weight(subset(4, 5, 6)) == Fraction(1, 4)

    def test_short_list_rejected(self):
        raw = RawBallotFile(P643, (entry((1, 2), 1), entry((1, 2, 3), 1)))
        with pytest.raises(BallotFormatError, match="complete_short_lists"):
            normalize(raw)

    def test_empty_rejected(self):
        with pytest.raises(BallotFormatError):
            normalize(RawBallotFile(P643, ()))


class TestUniformOn:
    def test_all_lists(self):
        dist = uniform_on(P643, iter_lists(P643))
        assert len(dist) == 20
        assert all(w == Fraction(1, 20) for _, w in dist.items())

    def test_ball_of_radius_two(self):
        lists = ball(V123, 2, P643)
        dist = uniform_on(P643, lists)
        assert len(dist) == 19
        assert all(w == Fraction(1, 19) for _, w in dist.items())

    def test_single_list(self):
        dist = uniform_on(P643, [V123])
        assert dist.weight(V123) == 1

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            uniform_on(P643, [])


class TestRingWeights:
    def test_point_mass(self):
        dist = dist_from(P643, {(1, 2, 3): Fraction(1)})
        assert ring_weights(dist, V123) == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))

    def test_center_plus_first_ring(self):
        p = Fraction(1, 4)
        dist = dist_from(
            P643,
            {(1, 2, 3): p, (1, 2, 4): Fraction(1, 2), (2, 3, 5): Fraction(1, 4)},
        )
        assert ring_weights(dist, V123) == (p, 1 - p, Fraction(0), Fraction(0))

    def test_random_against_bucketing_oracle(self):
        params = ElectionParams(7, 4, 3)
        rng = Random(11)
        for _ in range(20):
            dist = random_distribution(params, rng)
            center = rng.choice(sorted(dist.support))
            got = ring_weights(dist, center)
            buckets = [Fraction(0)] * (params.diameter + 1)
            for lst, weight in dist.items():
                buckets[distance(lst, center)] += weight
            assert got == tuple(buckets)
            assert sum(got) == 1

    def test_invariants_enforced(self):
        with pytest.raises(ParameterError, match="sum to"):
            concentric(V123, (Fraction(1, 2), Fraction(1, 4)), P643)
        with pytest.raises(ParameterError, match="non-negative"):
            concentric(V123, (Fraction(3, 2), Fraction(-1, 2)), P643)


class TestConcentric:
    def test_mass_on_first_ring(self):
        dist = concentric(V123, (Fraction(0), Fraction(1)), P643)
        assert len(dist) == 9
        assert all(w == Fraction(1, 9) for _, w in dist.items())
        assert all(distance(lst, V123) == 1 for lst, _ in dist.items())

    def test_point_mass(self):
        dist = concentric(V123, (Fraction(1),), P643)
        assert dict(dist.items()) == {V123: Fraction(1)}

    def test_round_trip_ring_weights(self):
        w = (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3), Fraction(0))
        dist = concentric(V123, w, P643)
        assert ring_weights(dist, V123) == w

    def test_weight_beyond_diameter_rejected(self):
        with pytest.raises(ParameterError):
            concentric(V123, (Fraction(0),) * 4 + (Fraction(1),), P643)

    def test_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            concentric(V123, (Fraction(1, 2),), P643)


class TestProjectConcentric:
    def test_already_concentric_unchanged(self):
        dist = concentric(V123, (Fraction(1, 4), Fraction(3, 4)), P643)
        projected = project_concentric(dist, V123)
        assert dict(projected.items()) == dict(dist.items())

    def test_first_ring_only(self):
        dist = dist_from(
            P643,
            {(1, 2, 4): Fraction(1, 2), (1, 3, 5): Fraction(1, 2)},
        )
        projected = project_concentric(dist, V123)
        assert len(projected) == 9
        assert all(w == Fraction(1, 9) for _, w in projected.items())

    def test_preserves_weights_and_uniformizes(self):
        params = ElectionParams(7, 4, 3)
        rng = Random(23)
        for _ in range(100):
            dist = random_distribution(params, rng)
            center = rng.choice(sorted(iter_lists(params)))
            projected = project_concentric(dist, center)
            assert ring_weights(projected, center) == ring_weights(dist, center)
            shares = {}
            for lst, w in projected.items():
                shares.setdefault(distance(lst, center), set()).add(w)
            assert all(len(s) == 1 for s in shares.values())

    def test_idempotent(self):
        rng = Random(5)
        dist = random_distribution(P643, rng)
        once = project_concentric(dist, V123)
        twice = project_concentric(once, V123)
        assert dict(once.items()) == dict(twice.items())


class TestCompleteShortLists:
    def test_unique_completion_from_center(self):
        raw = RawBallotFile(P643, (entry((1, 2), 1),))
        done = complete_short_lists(raw, V123, 1)
        assert done.entries[0].subset == V123
        assert done.entries[0].multiplicity == 1

    def test_full_length_untouched(self):
        raw = RawBallotFile(P643, (entry((1, 2, 4), 3),))
        done = complete_short_lists(raw, V123, 1)
        assert done.entries[0].subset == subset(1, 2, 4)

    def test_outsider_entry(self):
        raw = RawBallotFile(P643, (entry((4,), 1),))
        done = complete_short_lists(raw, V123, 1)
        assert done.entries[0].subset == subset(1, 2, 4)

    def test_impossible_entry_named(self):
        # {4,5} plus any third member is at distance >= 2 from {1,2,3}
        raw = RawBallotFile(P643, (entry((4, 5), 1),))
        with pytest.raises(HypothesisViolation, match=r"\{4,5\}"):
            complete_short_lists(raw, V123, 1)

    def test_full_length_outside_ball_rejected(self):
        raw = RawBallotFile(P643, (entry((4, 5, 6), 1),))
        with pytest.raises(HypothesisViolation):
            complete_short_lists(raw, V123, 1)

    def test_replacement_is_superset(self):
        rng = Random(7)
        pool = sorted(ball(V123, 2, P643))
        for _ in range(25):
            base = rng.choice(pool)
            size = rng.randint(1, 3)
            short = tuple(sorted(rng.sample(base.members, size)))
            raw = RawBallotFile(P643, (entry(short, 1),))
            done = complete_short_lists(raw, V123, 2)
            completed = done.entries[0].subset
            assert CandidateSubset(short).issubset(completed)
            assert distance(completed, V123) <= 2
            assert len(completed) == 3


EXAMPLE_FILE = """{
  "n": 7,
  "k": 4,
  "j": 3,
  "ballots": [
    {"list": [1, 2, 3], "weight": "7/15"},
    {"list": [4, 5, 6], "weight": "2/15"},
    {"list": [4, 5, 7], "weight": "2/15"},
    {"list": [4, 6, 7], "weight": "2/15"},
    {"list": [5, 6, 7], "weight": "2/15"}
  ]
}
"""


class TestBallotFiles:
    def test_read_example(self):
        raw = loads_ballot_file(EXAMPLE_FILE)
        assert raw.params == ElectionParams(7, 4, 3)
        assert normalize(raw).weight(subset(1, 2, 3)) == Fraction(7, 15)

    def test_write_read_round_trip_bytes(self, tmp_path):
        raw = loads_ballot_file(EXAMPLE_FILE)
        path = tmp_path / "ballots.json"
        path.write_text(dumps_ballot_file(raw))
        text = path.read_text()
        assert loads_ballot_file(text).entries == raw.entries
        path.write_text(dumps_ballot_file(read_ballot_file(path)))
        assert path.read_text() == text

    def test_counts_preserved_on_write(self):
        raw = RawBallotFile(P643, (entry((1, 2, 3), 4), entry((1, 2, 4), Fraction(1, 2))))
        text = dumps_ballot_file(raw)
        again = loads_ballot_file(text)
        assert again.entries[0].multiplicity == 4
        assert isinstance(again.entries[0].multiplicity, int)
        assert again.entries[1].multiplicity == Fraction(1, 2)
        assert dumps_ballot_file(again) == text

    @pytest.mark.parametrize(
        "mutation",
        [
            '{"n": 6, "k": 4, "ballots": []}',
            '{"n": 6, "k": 4, "j": 3, "extra": 1, "ballots": []}',
            '{"n": 6, "k": 4, "j": 3, "ballots": [{"list": [1,2,3]}]}',
            '{"n": 6, "k": 4, "j": 3, "ballots": [{"list": [1,2,3], "weight": "1/2", "count": 1}]}',
            '{"n": 6, "k": 4, "j": 3, "ballots": [{"list": [1,2,3], "count": 0}]}',
            '{"n": 6, "k": 4, "j": 3, "ballots": [{"list": [1,2,3], "weight": "0.5"}]}',
            '{"n": 6, "k": 4, "j": 3, "ballots": [{"list": [1,2,3,4], "count": 1}]}',
            '{"n": 6, "k": 4, "j": 3, "ballots": [{"list": [1,2,9], "count": 1}]}',
            '{"n": 6, "k": 7, "j": 3, "ballots": []}',
            "not json at all",
        ],
    )
    def test_malformed_rejected(self, mutation):
        with pytest.raises(BallotFormatError):
            loads_ballot_file(mutation)

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ('{"n": 6, "k": 4, "j": true, "ballots": []}', "header field 'j'"),
            ('{"n": 6, "k": 4, "j": 3, "ballots": [{"list": [1,2,3], "count": true}]}', "count"),
            (
                '{"n": 6, "k": 4, "j": 3, "ballots": [{"list": [true,2,3], "count": 1}]}',
                "list members",
            ),
        ],
        ids=["header", "count", "list-member"],
    )
    def test_json_booleans_rejected(self, text, message):
        # bool is a subclass of int; accepting true would write "count": True back out.
        with pytest.raises(BallotFormatError, match=message):
            loads_ballot_file(text)


def two_records(first, second):
    return (f'{{"n": 6, "k": 4, "j": 3, "ballots": [{{"list": {first}, "count": 1}}, '
            f'{{"list": {second}, "count": 1}}]}}')


class TestInterning:
    """Records sharing a list share one subset, and every record is still checked."""

    @pytest.mark.parametrize(
        ("member", "shown"),
        [("true", "True"), ("1.0", "1.0"), ("[1]", "[1]")],
        ids=["boolean", "float", "array"],
    )
    def test_member_equal_to_a_seen_list_rejected(self, member, shown):
        # true == 1 and 1.0 == 1 hash alike, and [1] cannot be hashed at all
        text = two_records("[1, 2, 3]", f"[{member}, 2, 3]")
        message = f"ballot 1: list members must be integers in 1..6, got [{shown}, 2, 3]"
        with pytest.raises(BallotFormatError, match=re.escape(message)):
            loads_ballot_file(text)

    def test_member_orders_share_one_subset(self):
        raw = loads_ballot_file(two_records("[3, 1, 2]", "[1, 2, 3]"))
        first, second = raw.entries
        assert first.subset is second.subset
        assert first.subset.members == (1, 2, 3)

    def test_repeated_short_entry_outside_ball_named(self):
        text = ('{"n": 6, "k": 4, "j": 3, "ballots": ['
                '{"list": [1, 2], "count": 1}, {"list": [5, 4], "count": 1}, '
                '{"list": [2, 1], "count": 2}, {"list": [4, 6], "count": 1}, '
                '{"list": [4, 5], "count": 3}]}')
        raw = loads_ballot_file(text)
        with pytest.raises(HypothesisViolation, match=re.escape(
            "entry {4,5} has no size-3 superset within distance 1 of {1,2,3}"
        )):
            complete_short_lists(raw, V123, 1)

    def test_count_and_weight_on_one_list_keep_their_types(self):
        text = ('{"n": 6, "k": 4, "j": 3, "ballots": ['
                '{"list": [1, 2, 3], "count": 1}, {"list": [3, 2, 1], "weight": "1"}]}')
        raw = loads_ballot_file(text)
        assert [type(e.multiplicity) for e in raw.entries] == [int, Fraction]
        written = dumps_ballot_file(raw)
        assert '"count": 1}' in written and '"weight": "1"}' in written
        assert dumps_ballot_file(loads_ballot_file(written)) == written


class TestBallotEntry:
    @pytest.mark.parametrize(
        "multiplicity",
        [10**5000, Fraction(1, 10**5000), Fraction(10**5000 + 1, 3)],
        ids=["count", "denominator", "numerator"],
    )
    def test_multiplicity_past_digit_limit_rejected(self, multiplicity):
        # no file could hold it: str() of such an int raises
        with pytest.raises(ParameterError, match="digits"):
            BallotEntry(V123, multiplicity)

    def test_longest_multiplicities_round_trip(self):
        raw = RawBallotFile(P643, (
            BallotEntry(V123, LONGEST),
            BallotEntry(subset(1, 2, 4), Fraction(LONGEST - 1, LONGEST)),
        ))
        text = dumps_ballot_file(raw)
        assert loads_ballot_file(text) == raw


class TestGenerators:
    def test_random_distribution_is_valid_and_deterministic(self):
        a = random_distribution(P643, Random(99))
        b = random_distribution(P643, Random(99))
        assert dict(a.items()) == dict(b.items())
        assert sum(w for _, w in a.items()) == 1

    def test_sample_ball_counts(self):
        raw = sample_ball_counts(P643, V123, 1, 500, Random(3))
        assert sum(e.multiplicity for e in raw.entries) == 500
        allowed = ball(V123, 1, P643)
        assert all(e.subset in allowed for e in raw.entries)
        dist = normalize(raw)
        assert sum(w for _, w in dist.items()) == 1


# ---------------------------------------------------------------------------
# Properties: round trip, rejection paths, completion and normalization
# ---------------------------------------------------------------------------

@st.composite
def election_params(draw, max_n=9, min_j=1):
    n = draw(st.integers(min_j + 1, max_n))
    k = draw(st.integers(min_j, n - 1))
    return ElectionParams(n, k, draw(st.integers(min_j, k)))


def short_or_full_lists(params):
    members = st.integers(1, params.n)
    return st.sets(members, min_size=1, max_size=params.j).map(
        lambda m: CandidateSubset(tuple(m))
    )


# Up to the interpreter's int-to-str digit limit, past which BallotEntry
# rejects a count, numerator or denominator.
LONGEST = 10 ** (sys.get_int_max_str_digits() or 4300) - 1
multiplicities = st.one_of(
    st.integers(1, LONGEST),
    st.builds(Fraction, st.integers(1, LONGEST), st.integers(1, LONGEST)),
)


@st.composite
def raw_files(draw):
    params = draw(election_params())
    pool = draw(st.lists(short_or_full_lists(params), min_size=1, max_size=5))
    entries = draw(st.lists(st.builds(BallotEntry, st.sampled_from(pool), multiplicities),
                            max_size=12))
    return RawBallotFile(params, tuple(entries))


@given(raw_files())
def test_valid_files_round_trip_byte_identically(raw):
    text = dumps_ballot_file(raw)
    again = loads_ballot_file(text)
    assert again == raw
    assert [type(e.multiplicity) for e in again.entries] == [
        type(e.multiplicity) for e in raw.entries
    ]
    assert dumps_ballot_file(again) == text


def loads_or_rejects(text):
    try:
        loads_ballot_file(text)
    except BallotFormatError:
        pass


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "k", "j", "ballots", "list", "count", "weight",
                                       "x"]), inner, max_size=5),
    max_leaves=20,
)


@given(st.one_of(st.text(), json_values.map(json.dumps)))
def test_arbitrary_json_parses_or_is_rejected(text):
    loads_or_rejects(text)


@given(raw_files(), st.data())
def test_mutated_files_parse_or_are_rejected(raw, data):
    text = dumps_ballot_file(raw)
    start = data.draw(st.integers(0, len(text)))
    end = data.draw(st.integers(start, min(len(text), start + 8)))
    insert = data.draw(st.text(alphabet='[]{}",:-/0123456789 truefalsn', max_size=8))
    loads_or_rejects(text[:start] + insert + text[end:])


@given(raw_files(), st.data())
def test_mutated_documents_parse_or_are_rejected(raw, data):
    doc = json.loads(dumps_ballot_file(raw))
    target = data.draw(st.sampled_from([doc] + doc["ballots"]))
    target[data.draw(st.sampled_from(sorted(target) + ["x"]))] = data.draw(json_values)
    loads_or_rejects(json.dumps(doc))


def reference_complete_and_normalize(raw, center, radius):
    """Completion by the documented rule, then Fraction sums; names the first bad entry."""
    j = raw.params.j
    totals = {}
    for e in raw.entries:
        members = set(e.subset.members)
        for c in sorted(center.members):
            if len(members) < j:
                members.add(c)
        assert len(members) == j
        if len(members - set(center.members)) > radius:
            return e.subset
        key = frozenset(members)
        totals[key] = totals.get(key, Fraction(0)) + Fraction(e.multiplicity)
    grand = sum(totals.values())
    return {key: m / grand for key, m in totals.items()}


@st.composite
def files_near_a_ball(draw):
    """A raw file, a ball, and entries that mostly complete inside it.

    An entry keeps some center members and adds at most radius + 1
    outsiders, so it completes inside the ball unless it adds radius + 1;
    a few entries are arbitrary lists.
    """
    params = draw(election_params(max_n=8, min_j=2))
    center = sorted(draw(st.sets(st.integers(1, params.n), min_size=params.j,
                                 max_size=params.j)))
    radius = draw(st.integers(0, params.diameter))
    outsiders = sorted(set(range(1, params.n + 1)) - set(center))

    @st.composite
    def near_center(draw):
        kept = draw(st.sets(st.sampled_from(center), max_size=params.j))
        room = min(params.j - len(kept), radius + 1)
        added = draw(st.sets(st.sampled_from(outsiders), max_size=room)) if room else set()
        return CandidateSubset(tuple(kept | added) or (center[0],))

    pool = draw(st.lists(near_center() | short_or_full_lists(params), min_size=1, max_size=5))
    entries = draw(st.lists(st.builds(BallotEntry, st.sampled_from(pool), multiplicities),
                            min_size=1, max_size=12))
    return RawBallotFile(params, tuple(entries)), CandidateSubset(tuple(center)), radius


@given(files_near_a_ball())
def test_complete_then_normalize_matches_reference(case):
    raw, center, radius = case
    expected = reference_complete_and_normalize(raw, center, radius)
    if isinstance(expected, CandidateSubset):
        with pytest.raises(HypothesisViolation, match=re.escape(f"entry {expected} has no")):
            complete_short_lists(raw, center, radius)
        return
    dist = normalize(complete_short_lists(raw, center, radius))
    assert {frozenset(lst.members): w for lst, w in dist.items()} == expected
    assert all(type(w) is Fraction for _, w in dist.items())
