import copy
import json
import pickle
import re
import sys
from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given
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
from listvote.ballots import _loads_canonical, _loads_json
from listvote.exactnum import parse_rational
from conftest import (
    assert_canonical,
    assert_reduced,
    complete_by_rule,
    dist_from,
    record_entries,
    subset,
)

P643 = ElectionParams(6, 4, 3)
V123 = CandidateSubset((1, 2, 3))


def entry(members, mult):
    return BallotEntry(CandidateSubset(tuple(members)), mult)


class TestVoterDistribution:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ParameterError, match="^weights sum to 1/2, expected 1$"):
            VoterDistribution(P643, {V123: Fraction(1, 2)})

    def test_near_miss_over_coprime_denominators_shows_exact_total(self):
        # a/p + b/q = 1 - 1/(p*q) for two large primes p and q
        p, q = 2**61 - 1, 2**89 - 1
        b = -pow(p, -1, q) % q
        a = (p * q - 1 - b * p) // q
        weights = {V123: Fraction(a, p), subset(4, 5, 6): Fraction(b, q)}
        message = f"weights sum to {p * q - 1}/{p * q}, expected 1"
        with pytest.raises(ParameterError, match=f"^{message}$"):
            VoterDistribution(P643, weights)

    def test_exact_sum_over_coprime_denominators_accepted(self):
        weights = {V123: Fraction(1, 3), subset(1, 2, 4): Fraction(1, 5),
                   subset(4, 5, 6): Fraction(7, 15)}
        assert dict(VoterDistribution(P643, weights).items()) == weights

    def test_rejects_inexact_weights(self):
        with pytest.raises(ParameterError, match="^weight 0.5 on .* is not an int or a Fraction$"):
            VoterDistribution(P643, {V123: 0.5, subset(4, 5, 6): 0.5})

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

    def test_unhashable(self, example_distribution):
        # equal by value over a dict of units, so it has no hash
        with pytest.raises(TypeError, match="^unhashable type: 'VoterDistribution'$"):
            hash(example_distribution)


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
        assert dist.support[subset(1, 2, 3)] == Fraction(7, 15)
        assert dist.support[subset(4, 5, 6)] == Fraction(2, 15)
        assert sum(w for _, w in dist.items()) == 1

    def test_single_ballot(self):
        dist = normalize(RawBallotFile(P643, (entry((1, 2, 3), 5),)))
        assert dist.support[V123] == 1

    def test_duplicates_merge(self):
        raw = RawBallotFile(P643, (entry((1, 2, 3), 2), entry((1, 2, 3), 3)))
        dist = normalize(raw)
        assert len(dist) == 1
        assert dist.support[V123] == 1

    def test_mixed_counts_and_weights(self):
        raw = RawBallotFile(P643, (entry((1, 2, 3), 1), entry((4, 5, 6), Fraction(1, 3))))
        dist = normalize(raw)
        assert dist.support[V123] == Fraction(3, 4)
        assert dist.support[subset(4, 5, 6)] == Fraction(1, 4)

    def test_counts_sharing_a_factor_reduce(self):
        raw = RawBallotFile(P643, (entry((1, 2, 3), 2), entry((1, 2, 4), 4),
                                   entry((4, 5, 6), 6)))
        dist = normalize(raw)
        assert dist.total == 6
        assert dist.units == {V123: 1, subset(1, 2, 4): 2, subset(4, 5, 6): 3}
        assert_reduced(dist)

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
        assert dist.support[V123] == 1

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
        assert done.distinct[0].subset == V123
        assert done.distinct[0].multiplicity == 1

    def test_full_length_untouched(self):
        raw = RawBallotFile(P643, (entry((1, 2, 4), 3),))
        done = complete_short_lists(raw, V123, 1)
        assert done.distinct[0].subset == subset(1, 2, 4)

    def test_outsider_entry(self):
        raw = RawBallotFile(P643, (entry((4,), 1),))
        done = complete_short_lists(raw, V123, 1)
        assert done.distinct[0].subset == subset(1, 2, 4)

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
            completed = done.distinct[0].subset
            assert CandidateSubset(short).issubset(completed)
            assert distance(completed, V123) <= 2
            assert len(completed) == 3

    def test_entries_completing_to_one_list_merge(self):
        # {1,2} completes to {1,2,3}, which the file holds with the same count
        raw = RawBallotFile(P643, (entry((1, 2), 1), entry((4, 5, 6), 1), entry((1, 2, 3), 1)))
        done = complete_short_lists(raw, V123, 3)
        assert done.distinct == (entry((1, 2, 3), 1), entry((4, 5, 6), 1))
        assert done.repeats == (2, 1)
        assert normalize(done).units == {V123: 2, subset(4, 5, 6): 1}

    def test_a_count_stays_apart_from_an_equal_weight(self):
        raw = RawBallotFile(P643, (entry((1, 2), 1), entry((1, 2, 3), Fraction(1)),
                                   entry((1, 3), Fraction(2, 2))))
        done = complete_short_lists(raw, V123, 1)
        assert typed(done.distinct) == [(entry((1, 2, 3), 1), int),
                                        (entry((1, 2, 3), 1), Fraction)]
        assert done.repeats == (1, 2)


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
        assert normalize(raw).support[subset(1, 2, 3)] == Fraction(7, 15)

    def test_write_read_round_trip_bytes(self, tmp_path):
        raw = loads_ballot_file(EXAMPLE_FILE)
        path = tmp_path / "ballots.json"
        path.write_text(dumps_ballot_file(raw))
        text = path.read_text()
        assert record_entries(loads_ballot_file(text)) == record_entries(raw)
        path.write_text(dumps_ballot_file(read_ballot_file(path)))
        assert path.read_text() == text

    def test_counts_preserved_on_write(self):
        raw = RawBallotFile(P643, (entry((1, 2, 3), 4), entry((1, 2, 4), Fraction(1, 2))))
        text = dumps_ballot_file(raw)
        again = loads_ballot_file(text)
        assert again.distinct[0].multiplicity == 4
        assert isinstance(again.distinct[0].multiplicity, int)
        assert again.distinct[1].multiplicity == Fraction(1, 2)
        assert dumps_ballot_file(again) == text

    def test_constructor_merges_equal_entries_as_the_parser_does(self):
        a, b = entry((1, 2, 3), 1), entry((4, 5, 6), Fraction(1, 2))
        raw = RawBallotFile(P643, (a, b, a, entry((4, 5, 6), Fraction(2, 4)), entry((1, 2, 3), 2)))
        assert raw.distinct == (a, b, entry((1, 2, 3), 2))
        assert raw.repeats == (2, 2, 1)
        # the first write is the fixed point: A, B, A writes A twice, then B
        text = dumps_ballot_file(raw)
        assert dumps_ballot_file(loads_ballot_file(text)) == text
        assert text.count('{"list": [1, 2, 3], "count": 1}') == 2

    def test_constructor_keeps_count_one_and_weight_one_apart(self):
        count, weight = entry((1, 2, 3), 1), entry((1, 2, 3), Fraction(1))
        raw = RawBallotFile(P643, (count, weight, count))
        assert typed(raw.distinct) == [(count, int), (weight, Fraction)]
        assert raw.repeats == (2, 1)
        assert typed(loads_ballot_file(dumps_ballot_file(raw)).distinct) == typed(raw.distinct)

    def test_a_count_never_equals_an_equal_weight(self):
        # count 1 and weight 1 hold the same value, but the files write
        # different records, so they are different multisets of entries
        mixed = RawBallotFile(P643, [BallotEntry(V123, 1), BallotEntry(V123, Fraction(1))])
        counts = RawBallotFile(P643, [BallotEntry(V123, 1)] * 2)
        assert dumps_ballot_file(mixed) != dumps_ballot_file(counts)
        assert mixed != counts and counts != mixed
        assert mixed == RawBallotFile(P643, [BallotEntry(V123, Fraction(1)), BallotEntry(V123, 1)])

    def test_a_fraction_subclass_is_the_weight_it_equals(self):
        # both entries write the record "weight": "1/2", so they are one entry
        class Half(Fraction):
            pass

        sub, plain = BallotEntry(V123, Half(1, 2)), BallotEntry(V123, Fraction(1, 2))
        assert type(sub.multiplicity) is Fraction and sub == plain
        a, b = RawBallotFile(P643, [sub]), RawBallotFile(P643, [plain])
        assert dumps_ballot_file(a) == dumps_ballot_file(b)
        assert a == b and b == a
        both = RawBallotFile(P643, [sub, plain])
        assert both.distinct == (plain,) and both.repeats == (2,)

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

    @pytest.mark.parametrize("count", ["true", "1.0"], ids=["boolean", "float"])
    def test_count_equal_to_a_seen_count_rejected(self, count):
        text = ('{"n": 6, "k": 4, "j": 3, "ballots": ['
                f'{{"list": [1, 2, 3], "count": 1}}, {{"list": [1, 2, 3], "count": {count}}}]}}')
        with pytest.raises(BallotFormatError, match="^ballot 1: count must be a positive integer$"):
            loads_ballot_file(text)

    def test_seen_count_under_weight_rejected(self):
        text = ('{"n": 6, "k": 4, "j": 3, "ballots": ['
                '{"list": [1, 2, 3], "count": 1}, {"list": [1, 2, 3], "weight": 1}]}')
        with pytest.raises(BallotFormatError, match="^ballot 1: weight must be a string"):
            loads_ballot_file(text)

    @pytest.mark.parametrize(
        ("record", "message"),
        [
            ('{"list": [1, 2, 3], "count": 1, "weight": null}',
             'exactly one of "weight"/"count" required'),
            ('{"list": [1, 2, 3], "count": 1, "x": 1}',
             "keys must be among ['count', 'list', 'weight']"),
            ('{"list": "123", "count": 1}', 'missing "list" array'),
            ('{"list": {"1": 2, "3": 4}, "count": 1}', 'missing "list" array'),
            ('{"list": [], "count": 1}', "entry {} has size 0, expected 1..3"),
            ('{"list": [4, 3, 2, 1], "count": 1}', "entry {1,2,3,4} has size 4, expected 1..3"),
        ],
        ids=["null-weight", "unknown-key", "string-list", "object-list", "empty-list",
             "long-list"],
    )
    def test_repeat_in_another_shape_rejected_at_its_index(self, record, message):
        # the first two have the values of the accepted record, so a reader that
        # looked a record up before checking its shape would take them. A list's
        # size is checked at its own record, as its members are
        text = ('{"n": 6, "k": 4, "j": 3, "ballots": [{"list": [1, 2, 3], "count": 1}, '
                f'{{"list": [1, 2, 3], "count": 1}}, {record}]}}')
        with pytest.raises(BallotFormatError, match=f"^ballot 2: {re.escape(message)}$"):
            loads_ballot_file(text)

    @pytest.mark.parametrize("value", ['""', "{}"], ids=["string", "object"])
    def test_empty_list_then_empty_string_or_object_rejected_at_its_index(self, value):
        # "" and {} unpack to no members, as an empty list does; the empty list
        # is rejected at its own record, so no key of it is ever stored
        text = ('{"n": 6, "k": 4, "j": 3, "ballots": [{"list": [], "count": 1}, '
                f'{{"list": {value}, "count": 1}}]}}')
        message = "ballot 0: entry {} has size 0, expected 1..3"
        with pytest.raises(BallotFormatError, match=f"^{re.escape(message)}$"):
            loads_ballot_file(text)

    def test_member_orders_share_one_subset(self):
        raw = loads_ballot_file(two_records("[3, 1, 2]", "[1, 2, 3]"))
        first, second = record_entries(raw)
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
        assert [type(e.multiplicity) for e in record_entries(raw)] == [int, Fraction]
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

    @pytest.mark.parametrize("multiplicity, shown", [(0, "0"), (Fraction(-1, 2), "-1/2")])
    def test_non_positive_multiplicity_rejected(self, multiplicity, shown):
        with pytest.raises(ParameterError, match=f"^multiplicity must be positive, got {shown}$"):
            BallotEntry(V123, multiplicity)

    @pytest.mark.parametrize("multiplicity", [True, 0.5], ids=["bool", "float"])
    def test_inexact_multiplicity_rejected(self, multiplicity):
        # True would be written back as "count": True, which no reader accepts
        with pytest.raises(ParameterError, match="is not an int or a Fraction$"):
            BallotEntry(V123, multiplicity)

    def test_entry_outside_candidates_rejected(self):
        with pytest.raises(ParameterError, match=r"^entry \{1,2,9\} outside candidates 1\.\.6$"):
            RawBallotFile(P643, (entry((1, 2, 9), 1),))

    def test_record_repr_pickle_and_copies(self):
        e = BallotEntry(V123, Fraction(1, 2))
        assert repr(e) == (
            "BallotEntry(subset=CandidateSubset(members=(1, 2, 3)), multiplicity=Fraction(1, 2))"
        )
        assert (e.subset, e.multiplicity) == (V123, Fraction(1, 2))
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        twins = [pickle.loads(pickle.dumps(e, protocol)) for protocol in protocols]
        for twin in twins + [copy.copy(e), copy.deepcopy(e)]:
            assert type(twin) is BallotEntry and type(twin.subset) is CandidateSubset
            assert twin == e and hash(twin) == hash(e)
        # every copy is rebuilt through the checked constructor
        bad = BallotEntry.unchecked(V123, -1)
        rebuilds = [lambda p=p: pickle.loads(pickle.dumps(bad, p)) for p in protocols]
        for rebuild in rebuilds + [lambda: copy.copy(bad), lambda: copy.deepcopy(bad)]:
            with pytest.raises(ParameterError, match="^multiplicity must be positive, got -1$"):
                rebuild()

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
        assert sum(e.multiplicity for e in record_entries(raw)) == 500
        allowed = ball(V123, 1, P643)
        assert all(e.subset in allowed for e in record_entries(raw))
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
# rejects a count, numerator or denominator. The longest values are rare fixed
# picks: drawn digit by digit, they overrun Hypothesis's buffer and leave only
# short documents.
LONGEST = 10 ** (sys.get_int_max_str_digits() or 4300) - 1
LONGEST_PICKS = (LONGEST, Fraction(1, LONGEST), Fraction(LONGEST - 1, LONGEST))
ordinary_multiplicities = st.one_of(
    st.integers(1, 10**30),
    st.builds(Fraction, st.integers(1, 10**30), st.integers(1, 10**30)),
)
multiplicities = st.integers(0, 9).flatmap(
    lambda roll: st.sampled_from(LONGEST_PICKS) if roll == 9 else ordinary_multiplicities
)
# Small multiplicities make count 1, which true and 1.0 equal, a likely draw,
# and repeated entries common.
small_multiplicities = st.one_of(
    st.integers(1, 3), st.builds(Fraction, st.integers(1, 3), st.integers(1, 3))
)


@st.composite
def raw_files(draw, multiplicities=multiplicities, min_entries=0):
    params = draw(election_params())
    pool = draw(st.lists(short_or_full_lists(params), min_size=1, max_size=5))
    entries = draw(st.lists(st.builds(BallotEntry, st.sampled_from(pool), multiplicities),
                            min_size=min_entries, max_size=12))
    return RawBallotFile(params, tuple(entries))


def typed(entries):
    """Each entry with its multiplicity's type, since count 1 equals weight 1."""
    return [(e, type(e.multiplicity)) for e in entries]


@given(st.one_of(raw_files(), raw_files(small_multiplicities)))
def test_valid_files_round_trip_as_multisets(raw):
    text = dumps_ballot_file(raw)
    again = loads_ballot_file(text)
    assert again == raw
    # the constructor merges equal entries in order of first occurrence, as
    # the parser does, so entries read back in their own order and the
    # first write is the text every later pass writes, in both layouts
    assert typed(record_entries(again)) == typed(record_entries(raw))
    for layout in (text, json.dumps(json.loads(text))):
        parsed = loads_ballot_file(layout)
        assert parsed == raw and dumps_ballot_file(parsed) == text


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


@given(raw_files(small_multiplicities, min_entries=1), st.data())
def test_value_equal_to_a_repeated_record_is_rejected_at_its_index(raw, data):
    # true == 1 and 1.0 == 1: a repeat of an accepted record with one member,
    # or its count or weight, swapped for such a value must still be rejected
    doc = json.loads(dumps_ballot_file(raw))
    records = doc["ballots"]
    first = data.draw(st.integers(0, len(records) - 1))
    index = data.draw(st.integers(first + 1, len(records)))
    repeat = json.loads(json.dumps(records[first]))
    repeat["list"] = data.draw(st.permutations(repeat["list"]))
    records.insert(index, repeat)
    value = data.draw(st.sampled_from([True, 1.0, [1]]))
    field = data.draw(st.sampled_from(["list", "multiplicity"]))
    if field == "list":
        repeat["list"][data.draw(st.integers(0, len(repeat["list"]) - 1))] = value
    else:
        repeat["count" if "count" in repeat else "weight"] = value
    with pytest.raises(BallotFormatError, match=f"^ballot {index}: "):
        loads_ballot_file(json.dumps(doc))


@given(raw_files(min_entries=1), st.data())
def test_member_order_does_not_change_the_parse(raw, data):
    # the writer sorts members, so only a reordered document reaches the
    # sorted-order lookup of a record accepted in another order
    text = dumps_ballot_file(raw)
    doc = json.loads(text)
    for record in doc["ballots"]:
        record["list"] = data.draw(st.permutations(record["list"]))
    parsed = loads_ballot_file(json.dumps(doc))
    assert parsed == loads_ballot_file(text) == raw
    assert typed(record_entries(parsed)) == typed(record_entries(raw))
    # a file is a multiset, so the completed file is compared as one: it
    # equals the parsed records completed one by one by the documented rule
    center = CandidateSubset(tuple(range(1, raw.params.j + 1)))
    completed = complete_short_lists(parsed, center, raw.params.diameter)
    by_rule = [BallotEntry(complete_by_rule(e.subset, center, raw.params.j), e.multiplicity)
               for e in record_entries(parsed)]
    assert completed == RawBallotFile(raw.params, by_rule)


def reference_complete_and_normalize(raw, center, radius):
    """Completion by the documented rule, then Fraction sums; names the first bad entry."""
    j = raw.params.j
    totals = {}
    for e in record_entries(raw):
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


@st.composite
def documents_with_repeats(draw):
    """(params, text, record count): a written raw_files() document with
    records repeated in drawn member orders at drawn places."""
    raw = draw(raw_files(small_multiplicities, min_entries=1))
    records = json.loads(dumps_ballot_file(raw))["ballots"]
    for _ in range(draw(st.integers(0, 12))):
        repeat = dict(draw(st.sampled_from(records)))
        repeat["list"] = draw(st.permutations(repeat["list"]))
        records.insert(draw(st.integers(0, len(records))), repeat)
    p = raw.params
    text = json.dumps({"n": p.n, "k": p.k, "j": p.j, "ballots": records})
    return p, text, len(records)


@given(documents_with_repeats(), st.data())
def test_distinct_entries_carry_every_record(case, data):
    params, text, count = case
    parsed = loads_ballot_file(text)
    assert len(parsed.repeats) == len(parsed.distinct)
    assert sum(parsed.repeats) == count == len(record_entries(parsed))
    # completion and normalization over distinct entries match a record-by-record sum
    center = CandidateSubset(tuple(sorted(data.draw(
        st.sets(st.integers(1, params.n), min_size=params.j, max_size=params.j)))))
    radius = data.draw(st.integers(0, params.diameter))
    expected = reference_complete_and_normalize(parsed, center, radius)
    if isinstance(expected, CandidateSubset):
        with pytest.raises(HypothesisViolation, match=re.escape(f"entry {expected} has no")):
            complete_short_lists(parsed, center, radius)
        return
    dist = normalize(complete_short_lists(parsed, center, radius))
    assert {frozenset(lst.members): w for lst, w in dist.items()} == expected


@given(documents_with_repeats(), st.sampled_from(["true", "1.0"]))
def test_float_or_true_header_does_not_change_the_parse(case, value):
    # JSON keeps the last of two equal keys, so a leading "n": true or "n": 1.0
    # leaves the document valid; true == 1 and 1.0 == 1 change no record's key
    params, text, count = case
    parsed = loads_ballot_file('{"n": ' + value + ", " + text[1:])
    assert_same_parse(parsed, loads_ballot_file(text))


@given(documents_with_repeats(), st.data())
def test_equal_values_in_any_spelling_make_one_entry(case, data):
    # each weight "p/q" respelled "sp/sq", with a "+" or not: the records keep
    # their values, so both readers parse them as the document as written
    params, text, count = case
    expected = loads_ballot_file(text)
    records = json.loads(text)["ballots"]
    for record in records:
        if "weight" in record:
            value = parse_rational(record["weight"])
            scale = data.draw(st.integers(1, 1000))
            sign = data.draw(st.sampled_from(["", "+"]))
            record["weight"] = f"{sign}{value.numerator * scale}/{value.denominator * scale}"
    texts = list(map(json.dumps, records))
    canonical = in_layout(params, texts)
    assert _loads_canonical(canonical) is not None
    for layout in (canonical, in_dumps_layout(params, texts, data.draw(dumps_options))):
        parsed = loads_ballot_file(layout)
        # no two entries equal in members, multiplicity type and value
        assert len(set(typed(parsed.distinct))) == len(parsed.distinct)
        assert_same_parse(parsed, expected)


# ---------------------------------------------------------------------------
# Values built without their constructors: the parser's entries and subsets,
# completed subsets and normalize's distribution
# ---------------------------------------------------------------------------

@given(raw_files(), st.data())
def test_parsed_entries_keep_the_constructor_contracts(raw, data):
    # the parser builds subsets and entries without their constructors; in any
    # member order, each must be what the checked constructors build
    doc = json.loads(dumps_ballot_file(raw))
    for record in doc["ballots"]:
        record["list"] = data.draw(st.permutations(record["list"]))
    parsed = loads_ballot_file(json.dumps(doc))
    for entry in parsed.distinct:
        assert_canonical(entry.subset, raw.params.n)
    checked = [
        BallotEntry(CandidateSubset(tuple(record["list"])),
                    record["count"] if "count" in record else parse_rational(record["weight"]))
        for record in doc["ballots"]
    ]
    assert parsed == RawBallotFile(raw.params, checked)


@given(files_near_a_ball())
def test_completed_and_normalized_lists_keep_the_constructor_contracts(case):
    raw, center, radius = case
    try:
        completed = complete_short_lists(raw, center, radius)
    except HypothesisViolation:
        return
    for entry in completed.distinct:
        assert_canonical(entry.subset, raw.params.n)
        assert len(entry.subset) == raw.params.j
    dist = normalize(completed)
    assert_reduced(dist)
    for lst in dist.units:
        assert_canonical(lst, raw.params.n)
    # the checked constructor accepts what normalize builds without it, and
    # stores the same weights in the same form
    checked = VoterDistribution(dist.params, dict(dist.support))
    assert_reduced(checked)
    assert (checked.total, checked.units) == (dist.total, dist.units)
    assert checked == dist


def weight_records(texts):
    """A (7,4,3) file whose record i holds a different list and weight texts[i]."""
    lists = [[1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 5], [2, 3, 4], [2, 3, 5]]
    records = ", ".join(f'{{"list": {lists[i]}, "weight": "{t}"}}' for i, t in enumerate(texts))
    return f'{{"n": 7, "k": 4, "j": 3, "ballots": [{records}]}}'


class TestWeightTexts:
    """Each distinct weight text is parsed once; errors still name their first record."""

    @pytest.mark.parametrize(
        ("text", "message"),
        [("0/3", "weight must be positive"),
         ("1/0", "zero denominator: '1/0'"),
         ("2.5", "not an exact rational literal: '2.5'")],
        ids=["zero", "zero-denominator", "decimal"],
    )
    def test_bad_text_named_at_its_first_record(self, text, message):
        texts = [text, "1/5", "1/5", "1/5", text]
        with pytest.raises(BallotFormatError, match=f"^ballot 0: {re.escape(message)}$"):
            loads_ballot_file(weight_records(texts))

    def test_shared_valid_text_then_bad_text_named_at_its_record(self):
        texts = ["1/3", "1/3", "1/3", "1/3", "1/3", "0/3"]
        with pytest.raises(BallotFormatError, match="^ballot 5: weight must be positive$"):
            loads_ballot_file(weight_records(texts))

    def test_shared_text_gives_equal_weights_on_different_lists(self):
        raw = loads_ballot_file(weight_records(["1/3", "1/3", "1/3"]))
        assert [e.multiplicity for e in record_entries(raw)] == [Fraction(1, 3)] * 3
        assert len(raw.distinct) == 3
        assert normalize(raw) == VoterDistribution(
            raw.params, {e.subset: Fraction(1, 3) for e in record_entries(raw)}
        )

    def test_equal_weight_texts_make_one_entry(self):
        records = [f'{{"list": [1, 2, 3], "weight": "{text}"}}' for text in ("1/2", "2/4", "+1/2")]
        canonical = in_layout(P643, records)
        assert _loads_canonical(canonical) is not None
        for text in (canonical, json.dumps(json.loads(canonical))):
            raw = loads_ballot_file(text)
            assert raw.distinct == (entry((1, 2, 3), Fraction(1, 2)),)
            assert raw.repeats == (3,)
            assert dumps_ballot_file(raw) == in_layout(P643, [records[0]] * 3)

    def test_duplicate_member_after_valid_records_keeps_its_message(self):
        text = ('{"n": 6, "k": 4, "j": 3, "ballots": ['
                '{"list": [1, 2, 3], "weight": "1/2"}, {"list": [1, 2, 4], "count": 1}, '
                '{"list": [2, 2, 3], "weight": "1/2"}]}')
        message = "ballot 2: bad list [2, 2, 3]: duplicate candidates in (2, 2, 3)"
        with pytest.raises(BallotFormatError, match=f"^{re.escape(message)}$"):
            loads_ballot_file(text)


# ---------------------------------------------------------------------------
# Two readers: the tool's own layout, read per distinct record text, and
# json.loads for every other layout
# ---------------------------------------------------------------------------

def in_layout(params, records):
    """The layout dumps_ballot_file writes, around record texts as given."""
    head = f'{{\n  "n": {params.n},\n  "k": {params.k},\n  "j": {params.j},\n  "ballots": [\n'
    body = "    " + ",\n    ".join(records) if records else ""
    return head + body + "\n  ]\n}\n"


# json.dumps layouts the canonical reader declines: the default, indented,
# keys sorted, the most compact separators, and their combinations.
dumps_options = st.fixed_dictionaries({}, optional={
    "indent": st.integers(1, 4), "sort_keys": st.just(True), "separators": st.just((",", ":")),
})


def in_dumps_layout(params, records, options):
    """The document of ``records`` (texts) as ``json.dumps(doc, **options)`` writes it.

    A text that ``json.loads`` rejects is kept as written, in the place of a
    placeholder string.
    """
    kept = {}

    def value(record):
        try:
            return json.loads(record)
        except ValueError:
            return kept.setdefault(record, f"\0{len(kept)}")

    doc = {"n": params.n, "k": params.k, "j": params.j, "ballots": list(map(value, records))}
    text = json.dumps(doc, **options)
    for record, mark in kept.items():
        text = text.replace(json.dumps(mark), record)
    return text


def record_texts(text):
    """The record texts of a written file, as written."""
    return [json.dumps(record) for record in json.loads(text)["ballots"]]


# Lists valid at both j = 2 and j = 3, so two files can share entries
# under different headers.
EQUALITY_POOL = (subset(1, 2), subset(1, 3), subset(4,))
equality_params = st.sampled_from([ElectionParams(6, 4, 3), ElectionParams(6, 4, 2)])
equality_entries = st.lists(
    st.builds(BallotEntry, st.sampled_from(EQUALITY_POOL), small_multiplicities), max_size=6
)


def other_kind(e):
    """``e`` with a whole value held as the other kind: a count as a weight, or back."""
    m = e.multiplicity
    if m.denominator != 1:
        return e
    return BallotEntry(e.subset, Fraction(m) if type(m) is int else m.numerator)


@st.composite
def file_pairs(draw):
    """Two files of counts and weights with repeats, often equal as multisets.

    The second is drawn afresh, or is the first reordered, some whole
    values maybe held as the other kind: equal in value, not as entries.
    """
    first = draw(equality_entries)
    reordered = st.permutations(first)
    second = draw(st.one_of(equality_entries, reordered, reordered.flatmap(
        lambda es: st.tuples(*[st.sampled_from([e, other_kind(e)]) for e in es]))))
    params = draw(equality_params)
    return (RawBallotFile(params, first),
            RawBallotFile(draw(st.one_of(st.just(params), equality_params)), second))


@given(file_pairs())
def test_files_are_equal_exactly_when_they_write_the_same_records(pair):
    a, b = pair
    texts = [dumps_ballot_file(raw) for raw in pair]
    heads = [text[:text.index('"ballots"')] for text in texts]
    records = [Counter(record_texts(text)) for text in texts]
    same = heads[0] == heads[1] and records[0] == records[1]
    assert (a == b) == same and (b == a) == same


def assert_same_parse(got, expected):
    assert got.params == expected.params
    assert got.distinct == expected.distinct
    assert got.repeats == expected.repeats
    assert [type(e.multiplicity) for e in got.distinct] == [
        type(e.multiplicity) for e in expected.distinct
    ]


@given(st.one_of(raw_files(), raw_files(small_multiplicities)), dumps_options)
def test_both_layouts_parse_alike(raw, options):
    text = dumps_ballot_file(raw)
    assert in_layout(raw.params, record_texts(text)) == text
    other = json.dumps(json.loads(text), **options)
    assert _loads_canonical(other) is None
    assert_same_parse(loads_ballot_file(text), loads_ballot_file(other))


@given(raw_files(small_multiplicities))
def test_written_files_take_the_canonical_reader(raw):
    text = dumps_ballot_file(raw)
    parsed = _loads_canonical(text)
    assert parsed is not None
    assert_same_parse(parsed, loads_ballot_file(json.dumps(json.loads(text))))


@given(documents_with_repeats())
def test_repeats_in_any_member_order_parse_alike_in_both_layouts(case):
    # the tool's layout around records in drawn member orders: texts that differ
    # only in member order merge into one entry, as the JSON reader merges them
    params, text, count = case
    parsed = _loads_canonical(in_layout(params, record_texts(text)))
    assert parsed is not None
    assert sum(parsed.repeats) == count
    assert_same_parse(parsed, loads_ballot_file(text))


@given(files_near_a_ball(), dumps_options, st.data())
def test_completed_entries_are_distinct_in_both_layouts(case, options, data):
    raw, center, radius = case
    # some entries again as the list they complete to, with their multiplicity,
    # so completion meets entries equal to ones the file already holds
    again = data.draw(st.lists(st.sampled_from(raw.distinct), max_size=4))
    raw = RawBallotFile(raw.params, record_entries(raw) + tuple(
        BallotEntry(complete_by_rule(e.subset, center, raw.params.j), e.multiplicity)
        for e in again))
    expected = reference_complete_and_normalize(raw, center, radius)
    assume(not isinstance(expected, CandidateSubset))
    text = dumps_ballot_file(raw)
    for layout in (text, json.dumps(json.loads(text), **options)):
        completed = complete_short_lists(loads_ballot_file(layout), center, radius)
        # no two entries equal in list, multiplicity type and value
        assert len(set(typed(completed.distinct))) == len(completed.distinct)
        assert sum(completed.repeats) == sum(raw.repeats)
        dist = normalize(completed)
        assert {frozenset(lst.members): w for lst, w in dist.items()} == expected
        written = dumps_ballot_file(completed)
        assert dumps_ballot_file(loads_ballot_file(written)) == written


def _members(record):
    return json.loads(record)["list"]


def _tail(record):
    """The multiplicity part of a record text: '"count": 3' or '"weight": "1/2"'."""
    return record[record.index("], ") + 3:-1]


def _mutant(members, tail):
    return '{"list": [' + ", ".join(map(str, members)) + "], " + tail + "}"


# Each mutation of one record text, and how the canonical reader takes the
# result: "value" texts still match its record pattern, so it raises the
# value error itself; "syntax" texts do not, so it declines and json.loads
# reads them; "valid" texts are declined and parse in both layouts.
MUTATIONS = {
    "member-0": ("value", lambda r, n: _mutant([0] + _members(r)[1:], _tail(r))),
    "member-n+1": ("value", lambda r, n: _mutant([n + 1] + _members(r)[1:], _tail(r))),
    "duplicate-member": ("value", lambda r, n: _mutant(_members(r) + _members(r)[:1], _tail(r))),
    "every-candidate": ("value", lambda r, n: _mutant(range(n, 0, -1), _tail(r))),
    "count-0": ("value", lambda r, n: _mutant(_members(r), '"count": 0')),
    "weight-0": ("value", lambda r, n: _mutant(_members(r), '"weight": "0"')),
    "weight-1/0": ("value", lambda r, n: _mutant(_members(r), '"weight": "1/0"')),
    "weight--1/2": ("value", lambda r, n: _mutant(_members(r), '"weight": "-1/2"')),
    "weight-1/2/3": ("value", lambda r, n: _mutant(_members(r), '"weight": "1/2/3"')),
    "leading-zero": ("syntax", lambda r, n: _mutant(["01"] + _members(r)[1:], _tail(r))),
    "19-digit-member": ("syntax", lambda r, n: _mutant([10**18] + _members(r)[1:], _tail(r))),
    "minus-zero-count": ("syntax", lambda r, n: _mutant(_members(r), '"count": -0')),
    "exponent-count": ("syntax", lambda r, n: _mutant(_members(r), '"count": 1e0')),
    "nan-count": ("syntax", lambda r, n: _mutant(_members(r), '"count": NaN')),
    "escaped-count-key": ("syntax", lambda r, n: _mutant(_members(r), '"\\u0063ount": 0')),
    "extra-key": ("syntax", lambda r, n: _mutant(_members(r), _tail(r) + ', "x": 1')),
    "empty-list": ("syntax", lambda r, n: _mutant([], _tail(r))),
    "19-digit-count": ("valid", lambda r, n: _mutant(_members(r), f'"count": {10**18}')),
    "escaped-key": ("valid", lambda r, n: _mutant(
        _members(r), _tail(r).replace('"count"', '"\\u0063ount"').replace('"weight"', '"w\\u0065ight"')
    )),
}


def outcome(text):
    """The parse, or the error message without json's line and column."""
    try:
        return loads_ballot_file(text)
    except BallotFormatError as exc:
        return re.sub(r": line \d+ column \d+ \(char \d+\)$", "", str(exc))


@given(raw_files(small_multiplicities, min_entries=1), st.sampled_from(sorted(MUTATIONS)),
       dumps_options, st.data())
def test_mutated_record_gives_one_outcome_in_both_layouts(raw, name, options, data):
    kind, mutate = MUTATIONS[name]
    records = record_texts(dumps_ballot_file(raw))
    target = data.draw(st.integers(0, len(records) - 1))
    mutant = mutate(records[target], raw.params.n)
    # the mutated record at `target` and again later, after the original
    first = data.draw(st.integers(target + 1, len(records)))
    records.insert(first, mutant)
    records.insert(data.draw(st.integers(first + 1, len(records))), mutant)
    canonical = in_layout(raw.params, records)
    other = in_dumps_layout(raw.params, records, options)
    if kind == "value":
        with pytest.raises(BallotFormatError):
            _loads_canonical(canonical)
    else:
        assert _loads_canonical(canonical) is None
    got, expected = outcome(canonical), outcome(other)
    if kind == "valid":
        assert_same_parse(got, expected)
    else:
        assert isinstance(got, str) and got == expected
        assert got.startswith("not valid JSON" if name == "leading-zero" else f"ballot {first}: ")
    sizes = {"every-candidate": raw.params.n, "empty-list": 0}
    if name in sizes:
        shown = "{" + ",".join(map(str, range(1, sizes[name] + 1))) + "}"
        assert got == (f"ballot {first}: entry {shown} has size {sizes[name]}, "
                       f"expected 1..{raw.params.j}")


@pytest.mark.parametrize(
    "text",
    [
        in_layout(P643, ['{"list": [1, 2, 3], "count": 1}']).replace("\n", "\r\n"),
        in_layout(P643, ['{"list": [1, 2, 3], "count": 1}']).rstrip("\n"),
        in_layout(P643, ['{"list": [1, 2, 3], "count": 1}', ""]),
        in_layout(P643, ['{"list": [1, 2, 3], "count": 1} ']),
        in_layout(P643, ['{"list": [1,2,3], "count": 1}']),
        in_layout(P643, ['{"count": 1, "list": [1, 2, 3]}']),
        in_layout(P643, ['{"list": [], "count": 1}']),
        in_layout(P643, ['{"list": [1, 2, 3], "weight": "' + "1" * 41 + '"}']),
        in_layout(ElectionParams(6, 4, 3), ['{"list": [1, 2, 3], "count": 1}']).replace('"n": 6', '"n": 06'),
    ],
    ids=["crlf", "no-final-newline", "trailing-comma", "trailing-space", "compact-list",
         "keys-swapped", "empty-list", "long-weight", "leading-zero-header"],
)
def test_other_layouts_are_declined(text):
    assert _loads_canonical(text) is None
    outcome(text)  # and json.loads reads them


def test_canonical_error_names_the_first_record_of_its_text():
    good, bad = '{"list": [1, 2, 3], "count": 1}', '{"list": [1, 2, 9], "count": 1}'
    text = in_layout(P643, [good, good, bad, good, bad])
    message = "ballot 2: list members must be integers in 1..6, got [1, 2, 9]"
    with pytest.raises(BallotFormatError, match=f"^{re.escape(message)}$"):
        _loads_canonical(text)


def test_canonical_reader_merges_member_orders_and_short_lists_as_json_does():
    records = [
        '{"list": [1, 2, 3], "count": 1}', '{"list": [3, 1, 2], "count": 1}',
        '{"list": [2, 1], "count": 2}', '{"list": [2, 3, 1], "count": 1}',
        '{"list": [1, 2], "count": 2}', '{"list": [5, 2, 1], "weight": "1/2"}',
        '{"list": [4, 1], "weight": "1/2"}', '{"list": [1, 2, 5], "weight": "1/2"}',
        '{"list": [1, 2, 3], "count": 1}',
    ]
    text = in_layout(P643, records)
    parsed = _loads_canonical(text)
    assert parsed is not None and parsed.repeats == (4, 2, 2, 1)
    assert_same_parse(parsed, loads_ballot_file(json.dumps(json.loads(text))))
    # a file holds no record order: completion and normalize read only its
    # distinct entries and their repeat counts
    fresh = _loads_canonical(text)
    done = complete_short_lists(fresh, V123, 1)
    dist = normalize(done)
    assert set(vars(fresh)) == set(vars(done)) == {"params", "distinct", "repeats"}
    with pytest.raises(TypeError, match="^unhashable type: 'RawBallotFile'$"):
        hash(fresh)  # equal as multisets of entries, so it has no hash
    # counts 4 + 2 * 2 on {1,2,3}, weights 2 * 1/2 on {1,2,5} and 1/2 on {1,2,4}
    assert dist.total == 19
    assert dist.units == {V123: 16, subset(1, 2, 5): 2, subset(1, 2, 4): 1}


def read_outcome(read, text):
    """What ``read`` makes of ``text``: the parse or its error message."""
    try:
        return read(text)
    except BallotFormatError as exc:
        return str(exc)


RECORD = '{"list": [1, 2, 3], "count": 1}'


@pytest.mark.parametrize(
    ("text", "canonical"),
    [
        (in_layout(P643, []), True),
        (in_layout(P643, [RECORD]), True),
        (in_layout(P643, [RECORD, RECORD]).replace("},\n", "}\n"), False),
        (in_layout(P643, [RECORD, RECORD]).replace("},\n", "},  \n"), False),
        (in_layout(P643, [RECORD, RECORD]).replace("\n", "\r\n"), False),
    ],
    ids=["empty", "one-record", "line-without-comma", "trailing-spaces", "crlf"],
)
def test_edge_layouts_read_as_the_json_reader_reads_them(text, canonical):
    # the newline split adds the last line's comma itself: no other line may lack one
    assert (_loads_canonical(text) is not None) is canonical
    got, expected = read_outcome(loads_ballot_file, text), read_outcome(_loads_json, text)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert_same_parse(got, expected)


def test_canonical_header_error_matches_the_json_reader():
    text = in_layout(ElectionParams(6, 4, 3), []).replace('"k": 4', '"k": 7')
    assert outcome(text) == outcome(json.dumps(json.loads(text)))
    with pytest.raises(BallotFormatError):
        _loads_canonical(text)
