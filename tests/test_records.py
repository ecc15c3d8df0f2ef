"""The value contract of the seven result records, whatever class builds them.

``ElectionParams``, ``TallyResult``, ``WorstCaseResult``, ``CheckedCell`` and
``VerificationReport`` are tuple records; ``VoterDistribution`` and
``RawBallotFile`` hold a dict or a multiset. Each public constructor keeps
its checks, equal values compare equal, fields cannot be assigned, and a
copy, a pickle, ``_make`` or ``_replace`` of a tuple record is built
through its constructor.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from listvote import (
    BallotEntry,
    ElectionParams,
    ParameterError,
    RawBallotFile,
    TallyResult,
    VoterDistribution,
    theory,
)
from conftest import subset

P643 = ElectionParams(6, 4, 3)
HALF = Fraction(1, 2)
PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


def params():
    return ElectionParams(n=6, k=4, j=3)


def tally():
    return TallyResult(HALF, (subset(1, 2, 3, 4), subset(1, 2, 3, 5)), "sparse")


def worst():
    return theory.WorstCaseResult(Fraction(1, 5), (Fraction(0), Fraction(1)), 0)


def cell():
    return theory.CheckedCell("n=6 j=3 r=0", True)


def report():
    return theory.VerificationReport("suite", (cell(), theory.CheckedCell("c", False, "why")))


def distribution():
    return VoterDistribution(P643, {subset(1, 2, 3): HALF, subset(4, 5, 6): HALF})


def ballot_file():
    return RawBallotFile(P643, (BallotEntry(subset(1, 2, 3), 2), BallotEntry(subset(4, 5), 1)))


# (make, a field, whether it hashes, bad constructor calls with their error)
RECORDS = [
    pytest.param(params, "n", True, [
        (lambda: ElectionParams(6, 6, 3), ParameterError, "^need 1 <= j <= k < n, got n=6 k=6"),
        (lambda: ElectionParams(6, 4, 5), ParameterError, "^need 1 <= j <= k < n, got n=6 k=4"),
        (lambda: ElectionParams(n=6, k=4, j=0), ParameterError, "^need 1 <= j <= k < n"),
        (lambda: ElectionParams(6, 4), TypeError, "missing 1 required positional argument"),
    ], id="ElectionParams"),
    pytest.param(tally, "winners", True, [
        (lambda: TallyResult(HALF, (), "sparse"), ParameterError,
         "^a tally result needs at least one winner$"),
        (lambda: TallyResult(HALF, (subset(1, 2, 3, 5), subset(1, 2, 3, 4)), "sparse"),
         ParameterError, "^winners must be sorted lexicographically$"),
        # a tie counted twice is not sorted strictly
        (lambda: TallyResult(HALF, (subset(1, 2, 3, 4), subset(1, 2, 3, 4)), "sparse"),
         ParameterError, "^winners must be sorted lexicographically$"),
    ], id="TallyResult"),
    pytest.param(worst, "value", True, [
        (lambda: theory.WorstCaseResult(Fraction(1, 5), ()), TypeError, "achieving_class"),
    ], id="WorstCaseResult"),
    pytest.param(cell, "ok", True, [
        (lambda: theory.CheckedCell("label"), TypeError, "'ok'"),
    ], id="CheckedCell"),
    pytest.param(report, "cells", True, [
        (lambda: theory.VerificationReport("suite"), TypeError, "'cells'"),
    ], id="VerificationReport"),
    pytest.param(distribution, "units", False, [
        (lambda: VoterDistribution(P643, {subset(1, 2, 3): 0.5, subset(4, 5, 6): HALF}),
         ParameterError, r"^weight 0\.5 on \{1,2,3\} is not an int or a Fraction$"),
        (lambda: VoterDistribution(P643, {subset(1, 2, 3): Fraction(3, 2), subset(4, 5, 6): -HALF}),
         ParameterError, r"^non-positive weight -1/2 on \{4,5,6\}$"),
        (lambda: VoterDistribution(P643, {subset(1, 2, 3): HALF}), ParameterError,
         "^weights sum to 1/2, expected 1$"),
        (lambda: VoterDistribution(P643, {subset(1, 2): 1}), ParameterError,
         r"^\{1,2\} is not a 3-element list$"),
    ], id="VoterDistribution"),
    pytest.param(ballot_file, "distinct", False, [
        (lambda: RawBallotFile(P643, (BallotEntry(subset(1, 2, 7), 1),)), ParameterError,
         r"^entry \{1,2,7\} outside candidates 1\.\.6$"),
        (lambda: RawBallotFile(P643, (BallotEntry(subset(1, 2, 3, 4), 1),)), ParameterError,
         r"^entry \{1,2,3,4\} has size 4, expected 1\.\.3$"),
        (lambda: BallotEntry(subset(1, 2, 3), 0), ParameterError,
         "^multiplicity must be positive, got 0$"),
    ], id="RawBallotFile"),
]


@pytest.mark.parametrize("make, field, hashes, rejected", RECORDS)
def test_record_contract(make, field, hashes, rejected):
    value, twin = make(), make()
    for bad, error, match in rejected:
        with pytest.raises(error, match=match):
            bad()

    assert value == twin and not value != twin
    if hashes:
        assert hash(value) == hash(twin)
    else:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(value)

    with pytest.raises(AttributeError):
        setattr(value, field, getattr(twin, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert value == twin

    twins = [pickle.loads(pickle.dumps(value, protocol)) for protocol in PROTOCOLS]
    for copied in twins + [copy.copy(value), copy.deepcopy(value)]:
        assert type(copied) is type(value) and copied == value


@pytest.mark.parametrize("cls, fields, match", [
    (ElectionParams, (6, 6, 3), "^need 1 <= j <= k < n, got n=6 k=6 j=3$"),
    (TallyResult, (HALF, (), "sparse"), "^a tally result needs at least one winner$"),
    (BallotEntry, (subset(1, 2), -5), "^multiplicity must be positive, got -5$"),
    (BallotEntry, (subset(1, 2), True), "^multiplicity True is not an int or a Fraction$"),
], ids=["ElectionParams", "TallyResult", "BallotEntry-negative", "BallotEntry-bool"])
def test_copies_of_a_checked_record_rebuild_through_its_constructor(cls, fields, match):
    record = tuple.__new__(cls, fields)  # past the checks, as no caller builds one
    rebuilds = [lambda p=p: pickle.loads(pickle.dumps(record, p)) for p in PROTOCOLS]
    for rebuild in rebuilds + [lambda: copy.copy(record), lambda: copy.deepcopy(record),
                               lambda: cls._make(fields)]:
        with pytest.raises(ParameterError, match=match):
            rebuild()


def test_replace_checks_the_new_value():
    assert params()._replace(n=7) == ElectionParams(7, 4, 3)
    with pytest.raises(ParameterError, match="^need 1 <= j <= k < n, got n=6 k=9 j=3$"):
        params()._replace(k=9)
    with pytest.raises(ParameterError, match="^a tally result needs at least one winner$"):
        tally()._replace(winners=())
    entry = BallotEntry(subset(1, 2), 1)
    assert entry._replace(multiplicity=HALF) == BallotEntry(subset(1, 2), HALF)
    with pytest.raises(ParameterError, match="^multiplicity must be positive, got -5$"):
        entry._replace(multiplicity=-5)


def test_records_keep_their_fields_defaults_and_derived_values():
    p = params()
    assert repr(p) == "ElectionParams(n=6, k=4, j=3)"
    assert (p.n, p.k, p.j, p.diameter, p.max_class) == (6, 4, 3, 3, 2)
    assert cell().detail == "" and report().passed is False
    assert theory.VerificationReport("empty", ()).passed is True
    assert worst().to_dict() == {"value": "1/5", "weights": ["0", "1"], "achieving_class": 0}
    shown = "(params=ElectionParams(n=6, k=4, j=3), "
    assert repr(distribution()).startswith("VoterDistribution" + shown)
    assert repr(ballot_file()).startswith("RawBallotFile" + shown)
