"""Voter distributions: ingestion, generators, ring weights, projection.

A voter distribution assigns each submitted list an exact positive weight,
with weights summing to 1. Ballot files carry raw multiplicities (integer
counts or exact shares) and are normalized on the way in. Distributions
are immutable once built.

A ballot file is a multiset of records, as a profile in the paper is a
distribution over lists: a record's place carries no meaning. Ingestion
works per distinct entry. Both readers merge records by value under one
key: the sorted members with the count, or with the weight's id, the
reduced ``"p/q"`` text of its value. Each distinct weight text is parsed
once and given its id then, so ``"1/2"``, ``"2/4"`` and ``"+1/2"`` make one
entry, and no key holds a ``Fraction``. An id always holds a ``/`` and a
count never does, so count ``1`` and weight ``"1"`` stay apart. Two readers
give the same result and the same errors:

- text in the layout :func:`dumps_ballot_file` writes (as do ``listvote
  generate`` and ``perfbench``) is read per distinct record text. A record
  costs its share of one newline split and one ``Counter`` pass, both in
  C. A distinct text costs one pattern match, which proves it a record as
  written, one sort of its members and one lookup of its key (after one of
  its weight text's id); only a miss runs the value checks. If any text
  fails to match, the whole file goes to the JSON reader.
- ``json.loads`` reads every other layout. There every record is checked
  in full, then merged under its key.

Every builder of a :class:`RawBallotFile` (both readers, completion and
its constructor) fills one merge map, ``{key: [entry, repeats]}``, so a
file holds each distinct entry once, in order of its first record, with
the count of records that carry it. Outside the readers' per-text keys,
"same entry" has one identity: the list's mask with the multiplicity's
numerator, denominator and type, and ``==`` compares files by it.
Completion and :func:`normalize` each run once per distinct entry. A file
with no repeated entry, as every file the tool writes, round-trips
byte-identically. :func:`normalize` adds integer units per list, over the
LCM of every denominator, and builds no ``Fraction``. Nothing is cached.

Each input rule is checked once, by the stage where the value enters;
later stages build from proven values with the ``unchecked`` constructors
of :class:`~listvote.johnson.CandidateSubset`, :class:`BallotEntry`,
:class:`RawBallotFile` and :class:`VoterDistribution`:

- :func:`loads_ballot_file` owns the record's shape, its members (ints in
  1..n, distinct by the bit count of their mask, and 1..j of them) and its
  multiplicity (a positive int count, or a positive exact weight text,
  parsed once per distinct text; ``json.loads`` and ``int()`` enforce the
  digit limit). Both readers check values through one function;
- :func:`complete_short_lists` owns the ball: every completed entry lies
  inside it;
- :func:`normalize` owns the length j, and builds positive units that
  sum to their total, with no factor common to all.

The public constructors keep every check, for values from anywhere else.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from pathlib import Path
from random import Random
from typing import Iterable, Mapping, Sequence

from .errors import BallotFormatError, HypothesisViolation, ParameterError
from .exactnum import format_rational, parse_rational
from .johnson import (
    CandidateSubset,
    ElectionParams,
    _CheckedRecord,
    ball,
    distance,
    iter_lists,
    ring,
    ring_size,
    validate_list,
)


def _exact(value) -> bool:
    """Whether ``value`` is an int (not a bool) or a Fraction, the only numbers taken."""
    return type(value) is int or isinstance(value, Fraction)


def _refuse_assignment(self, name, value=None):
    """The ``__setattr__`` and ``__delattr__`` of a value class: its fields are fixed.

    Constructors set the fields through the instance dict, as do
    ``cached_property``, unpickling and copying.
    """
    raise AttributeError(f"cannot assign or delete field {name!r} of {type(self).__name__}")


class VoterDistribution:
    """Probability distribution over j-element lists.

    Only lists with positive weight are stored, each as integer units over
    one total: list L weighs ``units[L] / total``. The units are positive,
    sum to the total and share no factor with it, so the form is unique
    and equal distributions have equal fields. :attr:`support` builds the
    weights as ``Fraction`` values on first read.
    """

    params: ElectionParams
    total: int
    units: dict[CandidateSubset, int]
    __hash__ = None  # equal by value over a dict

    def __init__(self, params: ElectionParams, support: Mapping[CandidateSubset, Fraction]):
        support = dict(support)
        for lst, weight in support.items():
            validate_list(lst, params)
            if not _exact(weight):
                raise ParameterError(f"weight {weight!r} on {lst} is not an int or a Fraction")
            if weight <= 0:
                raise ParameterError(f"non-positive weight {weight} on {lst}")
        # Units over the LCM of the reduced denominators share no factor with
        # it, and sum to it exactly when the weights sum to 1.
        total = lcm(*(w.denominator for w in support.values()))
        units = {lst: w.numerator * (total // w.denominator) for lst, w in support.items()}
        got = sum(units.values())
        if got != total:
            raise ParameterError(f"weights sum to {Fraction(got, total)}, expected 1")
        vars(self).update(params=params, total=total, units=units)

    @classmethod
    def unchecked(
        cls, params: ElectionParams, total: int, units: dict[CandidateSubset, int]
    ) -> VoterDistribution:
        """The distribution holding ``units`` itself, built without the checks.

        The caller guarantees the stored form: every list is a valid j-list
        of ``params``, every unit a positive int, and the units sum to
        ``total`` with gcd 1. The one caller, :func:`normalize`, builds them
        so from a checked :class:`RawBallotFile`. Input from outside goes
        through ``VoterDistribution(...)``.
        """
        dist = object.__new__(cls)
        vars(dist).update(params=params, total=total, units=units)
        return dist

    __setattr__ = __delattr__ = _refuse_assignment

    def __eq__(self, other):
        if not isinstance(other, VoterDistribution):
            return NotImplemented
        return (self.params, self.total, self.units) == (other.params, other.total, other.units)

    def __repr__(self) -> str:
        return (f"VoterDistribution(params={self.params!r}, total={self.total!r}, "
                f"units={self.units!r})")

    @cached_property
    def support(self) -> dict[CandidateSubset, Fraction]:
        """Each list's weight, ``Fraction(units, total)``; the tally kernel never reads it."""
        total = self.total
        return {lst: Fraction(u, total) for lst, u in self.units.items()}

    def items(self):
        return self.support.items()

    def __len__(self) -> int:
        return len(self.units)


class BallotEntry(_CheckedRecord, namedtuple("BallotEntry", ["subset", "multiplicity"])):
    """One ballot-file record: a candidate set plus its multiplicity.

    An ``int`` multiplicity is a raw voter count; a ``Fraction`` is an
    exact pre-normalized share, and one of a ``Fraction`` subclass is kept
    as the plain ``Fraction`` it equals, so entries that write the same
    record are equal. The distinction is preserved on write.
    A count, numerator or denominator longer than the interpreter's
    int-to-str digit limit is rejected, since no file could hold it.
    The value is the named tuple record ``(subset, multiplicity)``, so it
    hashes and compares in C.
    """

    __slots__ = ()

    def __new__(cls, subset: CandidateSubset, multiplicity: int | Fraction) -> BallotEntry:
        m = multiplicity
        if not _exact(m):
            raise ParameterError(f"multiplicity {m!r} is not an int or a Fraction")
        if type(m) is not int:
            m = Fraction(m)
        limit = sys.get_int_max_str_digits()
        # An int is its own numerator over 1. The product has at least the
        # bits of either part, and a part of at most 3 * limit bits is below
        # 8**limit < 10**limit, so 10**limit is built only for a long one.
        if limit and (m.numerator * m.denominator).bit_length() > 3 * limit and (
            abs(m.numerator) >= 10**limit or m.denominator >= 10**limit
        ):
            raise ParameterError(f"multiplicity has more than {limit} digits")
        if m <= 0:
            raise ParameterError(f"multiplicity must be positive, got {m}")
        return tuple.__new__(cls, (subset, m))

    @classmethod
    def unchecked(cls, subset: CandidateSubset, multiplicity: int | Fraction) -> BallotEntry:
        """The entry, built without the constructor's checks.

        The caller guarantees what the constructor would check: the
        multiplicity is a positive ``int`` (not ``bool``) or ``Fraction``
        within the int-to-str digit limit. Callers take it from values
        already proven: :func:`loads_ballot_file` from a count or weight
        text it accepted (``json.loads`` and ``int()`` enforce the digit
        limit), and :func:`complete_short_lists` from an accepted entry.
        Input from outside goes through ``BallotEntry(...)``.
        """
        return tuple.__new__(cls, (subset, multiplicity))


def _identity(mask: int, multiplicity: int | Fraction) -> tuple:
    """The key of one entry: count ``1`` and weight ``"1"`` differ by type."""
    return (mask, multiplicity.numerator, multiplicity.denominator, type(multiplicity))


class RawBallotFile:
    """Parsed ballot file: election parameters plus a multiset of raw entries.

    Entry lists may have 1 to j members; short entries must pass through
    :func:`complete_short_lists` before normalization.

    A record's place has no meaning, so the file holds each distinct entry
    once in ``distinct``, in order of its first record, and in
    ``repeats[i]`` the count of records that carry ``distinct[i]``. Every
    builder fills a merge map for :meth:`unchecked`; completion and this
    constructor, after each entry's size and range check, key it by the
    entry's identity, its list with its multiplicity's value and type. Two
    files are equal when their parameters are and each identity carries as
    many records in both, so a count never equals an equal weight, and
    equal files write the same records. No two of a file's entries share
    an identity, and its first write is the text every later pass gives.
    """

    params: ElectionParams
    distinct: tuple[BallotEntry, ...]
    repeats: tuple[int, ...]
    __hash__ = None  # equal by value over a multiset

    def __init__(self, params: ElectionParams, entries: Iterable[BallotEntry]):
        n, j = params.n, params.j
        merged: dict[tuple, list] = {}
        for entry in entries:
            subset, m = entry
            if not 1 <= subset.mask.bit_count() <= j:
                raise ParameterError(f"entry {subset} has size {len(subset)}, expected 1..{j}")
            if subset.mask >> (n + 1):
                raise ParameterError(f"entry {subset} outside candidates 1..{n}")
            merged.setdefault(_identity(subset.mask, m), [entry, 0])[1] += 1
        vars(self).update(vars(self.unchecked(params, merged)))

    @classmethod
    def unchecked(cls, params: ElectionParams, merged: dict[object, list]) -> RawBallotFile:
        """The file of a merge map ``{key: [entry, repeats]}``, built without the checks.

        The map's values, in its order, become ``distinct`` and ``repeats``.
        The caller guarantees that every entry has 1..j members, all in
        1..n, that each repeat count is positive, and that its key tells
        entries apart by value, so no two entries are equal:
        :func:`loads_ballot_file` builds the map from records it checked,
        :func:`complete_short_lists` from a checked file's entries and
        center members, and ``RawBallotFile(...)`` from entries it checked.
        """
        distinct, repeats = tuple(zip(*merged.values())) or ((), ())
        raw = object.__new__(cls)
        vars(raw).update(params=params, distinct=distinct, repeats=repeats)
        return raw

    __setattr__ = __delattr__ = _refuse_assignment

    def __eq__(self, other):
        if not isinstance(other, RawBallotFile):
            return NotImplemented
        # no two of a file's entries share an identity, so each map is its multiset
        mine, theirs = ({_identity(subset.mask, m): times
                         for (subset, m), times in zip(raw.distinct, raw.repeats)}
                        for raw in (self, other))
        return self.params == other.params and mine == theirs

    def __repr__(self) -> str:
        return (f"RawBallotFile(params={self.params!r}, distinct={self.distinct!r}, "
                f"repeats={self.repeats!r})")


def normalize(raw: RawBallotFile) -> VoterDistribution:
    """Turn raw multiplicities into a distribution summing to exactly 1.

    Duplicate lists are merged by addition. Entries shorter than j are
    rejected; complete them first. Runs once per distinct entry, adding
    its multiplicity times its repeat count in integer units over the LCM
    of every denominator; it builds no ``Fraction``.
    """
    if not raw.distinct:
        raise BallotFormatError("ballot file has no entries")
    # An int is its own numerator over 1, so a file of counts has scale 1.
    scale = lcm(*(m.denominator for _, m in raw.distinct))
    units: dict[CandidateSubset, int] = {}
    for (lst, m), times in zip(raw.distinct, raw.repeats):
        u = m.numerator * (scale // m.denominator) * times
        units[lst] = units[lst] + u if lst in units else u
    j = raw.params.j
    if any(lst.mask.bit_count() < j for lst in units):
        short = [(e.subset, times) for e, times in zip(raw.distinct, raw.repeats)
                 if e.subset.mask.bit_count() < j]
        raise BallotFormatError(
            f"{sum(times for _, times in short)} entries shorter than j={j} "
            f"(first: {short[0][0]}); run complete_short_lists first"
        )
    # Divide out the units' common factor. The lists passed the size, range
    # and length checks, and the units are positive with their sum as
    # total, so the distribution is built without its constructor's checks.
    common = gcd(*units.values())
    if common > 1:
        units = {lst: u // common for lst, u in units.items()}
    return VoterDistribution.unchecked(raw.params, sum(units.values()), units)


def uniform_on(params: ElectionParams, lists: Iterable[CandidateSubset]) -> VoterDistribution:
    """Uniform distribution on the given nonempty set of lists."""
    unique = set(lists)
    if not unique:
        raise ParameterError("uniform_on requires a nonempty set of lists")
    share = Fraction(1, len(unique))
    return VoterDistribution(params, {lst: share for lst in unique})


def ring_weights(dist: VoterDistribution, center: CandidateSubset) -> tuple[Fraction, ...]:
    """Total mass on each ring about ``center``, indices 0..diameter."""
    validate_list(center, dist.params)
    units = [0] * (dist.params.diameter + 1)
    for lst, u in dist.units.items():
        units[distance(lst, center)] += u
    return tuple(Fraction(u, dist.total) for u in units)


def concentric(
    center: CandidateSubset,
    weights: Sequence[Fraction],
    params: ElectionParams,
) -> VoterDistribution:
    """Distribution with the given ring masses, uniform within each ring.

    Rings with zero mass contribute no support. Mass on a ring index
    beyond the diameter is rejected.
    """
    validate_list(center, params)
    vec = tuple(weights)
    if any(w < 0 for w in vec):
        raise ParameterError("ring weights must be non-negative")
    if sum(vec) != 1:
        raise ParameterError(f"ring weights sum to {sum(vec)}, expected 1")
    for r, w in enumerate(vec):
        if r > params.diameter and w != 0:
            raise ParameterError(f"weight {w} on ring {r} beyond diameter {params.diameter}")
    support: dict[CandidateSubset, Fraction] = {}
    for r, w in enumerate(vec):
        if w == 0:
            continue
        share = w / ring_size(params, r)
        for lst in ring(center, r, params):
            support[lst] = share
    return VoterDistribution(params, support)


def project_concentric(dist: VoterDistribution, center: CandidateSubset) -> VoterDistribution:
    """Redistribute each ring's mass uniformly over that ring.

    Keeps the ring weights of ``dist`` about ``center``; idempotent. The
    projection can only lower the best committee's approval, which is what
    makes it useful for worst-case analysis.
    """
    return concentric(center, ring_weights(dist, center), dist.params)


def complete_short_lists(raw: RawBallotFile, center: CandidateSubset, radius: int) -> RawBallotFile:
    """Extend short entries to full j-lists inside the ball of ``radius`` about ``center``.

    Deterministic rule: fill a short entry with the smallest-index members
    of the center not already present. The center always has enough of
    them: an entry of m < j members, a of them in the center, lacks
    j - a >= j - m center members. Full-length entries pass through
    unchanged. Any radius in 0..diameter is accepted; another radius raises
    ParameterError. Every entry must end up inside the ball: an entry with
    no valid completion raises HypothesisViolation naming the first such
    entry. Multiplicities are preserved. Each distinct entry is completed
    and checked once, so a repeated record costs nothing here. Entries
    that complete to one list with one count or weight merge into one
    entry, in order of the first, with their repeat counts summed, under
    the identity the constructor and ``==`` use, so count ``1`` and weight
    ``"1"`` stay apart.
    """
    params = raw.params
    validate_list(center, params)
    params.check_radius(radius)
    j = params.j
    # a full list's distance from the center is the count of its members outside it
    outside = ~center.mask
    merged: dict[tuple, list] = {}
    for entry, times in zip(raw.distinct, raw.repeats):
        subset, m = entry
        mask = subset.mask
        missing = j - mask.bit_count()
        if missing:
            # Center members the entry lacks: distinct from its own, so the
            # completed mask is the OR of the two.
            fill = tuple([c for c in center.members if not mask >> c & 1][:missing])
            mask |= sum(1 << c for c in fill)
        if (mask & outside).bit_count() > radius:
            raise HypothesisViolation(
                f"entry {subset} has no size-{j} superset within "
                f"distance {radius} of {center}"
            )
        key = _identity(mask, m)
        slot = merged.get(key)
        if slot is None:
            if missing:
                full = CandidateSubset.unchecked(tuple(sorted(subset.members + fill)), mask)
                entry = BallotEntry.unchecked(full, m)
            merged[key] = [entry, times]
        else:
            slot[1] += times
    return RawBallotFile.unchecked(params, merged)


# ---------------------------------------------------------------------------
# Ballot file format (JSON)
#
# {"n": 7, "k": 4, "j": 3, "ballots": [
#     {"list": [1, 2, 3], "weight": "7/15"},
#     {"list": [4, 5, 6], "count": 2}, ...]}
#
# Exactly one of "weight" (a "p/q" string) or "count" (a positive integer)
# per record. Records are read as a multiset; a file with no repeated
# entry, as every file written by generate, round-trips byte-identically.
# ---------------------------------------------------------------------------

_TOP_KEYS = {"n", "k", "j", "ballots"}
_ENTRY_KEYS = {"list", "weight", "count"}
_INT_TYPE = frozenset({int})

# The layout dumps_ballot_file writes, and the canonical reader matches: the
# header pieces around n, k and j, each record indented on its own line, the
# separator between records and the tail.
_HEAD = ('{\n  "n": ', ',\n  "k": ', ',\n  "j": ', ',\n  "ballots": [\n')
_INDENT = "    "
_SEP = ",\n" + _INDENT
_TAIL = "\n  ]\n}\n"
# A JSON int with no sign and no leading zero, short enough for int() at any digit limit.
_INT = "0|[1-9][0-9]{0,17}"
_HEAD_RE = re.compile(f"({_INT})".join(map(re.escape, _HEAD)))
# One record's line as written, indent and comma included: members, then a
# count or a weight text with no escapes.
_RECORD_RE = re.compile(
    rf'{_INDENT}\{{"list": \[((?:{_INT})(?:, (?:{_INT}))*)\], '
    rf'(?:"count": ({_INT})|"weight": "([0-9/+-]{{1,40}})")\}},'
)


class _RecordError(Exception):
    """A record broke a value rule; the caller names the record."""


def _ballot_params(n, k, j) -> ElectionParams:
    """The header's parameters; an inconsistency is a BallotFormatError."""
    try:
        return ElectionParams(n, k, j)
    except ParameterError as exc:
        raise BallotFormatError(str(exc)) from exc


def _entry(
    members: list, ordered: tuple[int, ...] | None, kind: str, value,
    n: int, j: int, weights: dict[str, tuple[str, Fraction]],
) -> BallotEntry:
    """The entry of a record with ``members`` and its ``kind`` ("count" or "weight") ``value``.

    ``ordered`` is the members sorted, or None when one is not an int;
    ``n`` and ``j`` are the file's, read once by the caller. Checks the
    members (ints in 1..n, distinct, 1..j of them) and the multiplicity (a
    positive int count, or a positive exact weight text); raises
    _RecordError. ``weights`` maps each weight text accepted so far
    to its id and value, so a text is parsed once and a bad one is never
    stored. The id is the value's reduced ``"p/q"``, so equal values in any
    spelling share it, and it never equals a count or a count's text.
    """
    # The range before the mask is built as wide as the largest member.
    if ordered is None or (ordered and not (ordered[0] > 0 and ordered[-1] <= n)):
        raise _RecordError(f"list members must be integers in 1..{n}, got {members}")
    # Members are ints in 1..n, so the mask has one bit per distinct member:
    # a short bit count is a duplicate.
    mask = 0
    for c in ordered:
        mask |= 1 << c
    size = mask.bit_count()
    if size != len(ordered):
        raise _RecordError(f"bad list {members}: duplicate candidates in {ordered}")
    subset = CandidateSubset.unchecked(ordered, mask)
    if not 1 <= size <= j:
        raise _RecordError(f"entry {subset} has size {size}, expected 1..{j}")
    if kind == "count":
        if type(value) is not int or value <= 0:
            raise _RecordError("count must be a positive integer")
        return BallotEntry.unchecked(subset, value)
    if not isinstance(value, str):
        raise _RecordError('weight must be a string like "7/15"')
    known = weights.get(value)
    if known is None:
        try:
            multiplicity = parse_rational(value)
        except ValueError as exc:
            raise _RecordError(str(exc)) from exc
        if multiplicity <= 0:
            raise _RecordError("weight must be positive")
        wid = f"{multiplicity.numerator}/{multiplicity.denominator}"
        known = weights[value] = (wid, multiplicity)
    return BallotEntry.unchecked(subset, known[1])


def loads_ballot_file(text: str) -> RawBallotFile:
    """Parse ballot-file text into a :class:`RawBallotFile`.

    Raises BallotFormatError for bad JSON, header or record, naming a bad
    record's index (its first record when several share its text). Two
    readers give the same result and the same error. Text in the layout
    :func:`dumps_ballot_file` writes is read per distinct record text: a
    record costs its share of a newline split and a ``Counter`` pass, both
    in C, and a distinct text one pattern match, one sort and one lookup of
    its key (a weight text's id is looked up first), with the value checks
    on a miss. Any other text is read by ``json.loads``, where a record
    costs its decoding, the full checks and one lookup. Both merge records
    equal in value, whatever their member order or weight spelling, and
    parse each distinct weight text once. The result counts the records of
    each distinct entry.
    """
    raw = _loads_canonical(text)
    return _loads_json(text) if raw is None else raw


def _loads_canonical(text: str) -> RawBallotFile | None:
    """The file, if ``text`` is in the layout :func:`dumps_ballot_file` writes; else None.

    Records are the body's lines, split in one C pass; ``Counter`` counts
    the distinct texts in another. Every distinct text must match one
    record's line as written (members and count as JSON ints of at most 18
    digits, a weight text of at most 40 characters from ``0-9/+-``) before
    any value is checked, so a text taken here is valid JSON and means
    what ``json.loads`` would read. A text that ``json.loads`` would reject
    is always declined, as is anything longer or in another layout; the
    JSON reader then reads it.
    """
    head = _HEAD_RE.match(text)
    if head is None or not text.endswith(_TAIL, head.end()):
        return None
    start, end = head.end(), len(text) - len(_TAIL)
    texts = text[start:end].split("\n") if start < end else []
    if texts:
        texts[-1] += ","  # the last line's comma, so one pattern reads every line
    times = Counter(texts)  # distinct texts in order of their first record
    matches = list(map(_RECORD_RE.fullmatch, times))
    if None in matches:
        return None
    params = _ballot_params(*map(int, head.groups()))
    n, j = params.n, params.j
    # Every list group is JSON ints joined by ", ", so one json.loads reads them all.
    lists = json.loads("[[" + "],[".join([match[1] for match in matches]) + "]]")
    # Texts merge under the JSON reader's key, with a count held as its
    # text, which is canonical: equal texts are equal counts. Only an
    # accepted entry's key is stored, so a text whose key is stored has the
    # values of an accepted record. A weight text not yet seen has no key
    # until it is parsed, so it takes the checks.
    weights: dict[str, tuple[str, Fraction]] = {}
    merged: dict[tuple, list] = {}
    for (record, copies), match, members in zip(times.items(), matches, lists):
        _, count, weight = match.groups()
        ordered = tuple(sorted(members))
        if weight is None:
            key = (ordered, count)
        else:
            known = weights.get(weight)
            key = None if known is None else (ordered, known[0])
        slot = merged.get(key)
        if slot is None:
            kind, value = ("count", int(count)) if weight is None else ("weight", weight)
            try:
                entry = _entry(members, ordered, kind, value, n, j, weights)
            except _RecordError as exc:
                raise BallotFormatError(f"ballot {texts.index(record)}: {exc}") from exc
            if key is None:
                key = (ordered, weights[weight][0])
            slot = merged.setdefault(key, [entry, 0])
        slot[1] += copies
    return RawBallotFile.unchecked(params, merged)


def _loads_json(text: str) -> RawBallotFile:
    """The file read by ``json.loads``: any layout, every record checked in full."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BallotFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise BallotFormatError("not valid JSON: arrays or objects nested too deeply") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise BallotFormatError("not valid JSON: an integer has too many digits") from exc
    if not isinstance(doc, dict):
        raise BallotFormatError("top level must be an object")
    if set(doc) != _TOP_KEYS:
        raise BallotFormatError(f"top-level keys must be {sorted(_TOP_KEYS)}, got {sorted(doc)}")
    # JSON true/false load as bool, a subclass of int, so integers are
    # tested with `type(x) is int` rather than isinstance.
    for key in ("n", "k", "j"):
        if type(doc[key]) is not int:
            raise BallotFormatError(f"header field {key!r} must be an integer")
    params = _ballot_params(doc["n"], doc["k"], doc["j"])
    n, j = params.n, params.j
    if not isinstance(doc["ballots"], list):
        raise BallotFormatError('"ballots" must be an array')
    weights: dict[str, tuple[str, Fraction]] = {}
    merged: dict[tuple, list] = {}
    for i, rec in enumerate(doc["ballots"]):
        if not isinstance(rec, dict) or not _ENTRY_KEYS.issuperset(rec):
            raise BallotFormatError(f"ballot {i}: keys must be among {sorted(_ENTRY_KEYS)}")
        members = rec.get("list")
        if not isinstance(members, list):
            raise BallotFormatError(f'ballot {i}: missing "list" array')
        if ("weight" in rec) == ("count" in rec):
            raise BallotFormatError(f'ballot {i}: exactly one of "weight"/"count" required')
        kind = "count" if "count" in rec else "weight"
        # types first (bool is a subclass of int), so the sort compares ints
        ordered = tuple(sorted(members)) if _INT_TYPE.issuperset(map(type, members)) else None
        value = rec[kind]
        try:
            entry = _entry(members, ordered, kind, value, n, j, weights)
        except _RecordError as exc:
            raise BallotFormatError(f"ballot {i}: {exc}") from exc
        key = (ordered, value) if kind == "count" else (ordered, weights[value][0])
        merged.setdefault(key, [entry, 0])[1] += 1
    return RawBallotFile.unchecked(params, merged)


def dumps_ballot_file(raw: RawBallotFile) -> str:
    """Ballot-file text: one record per line, members sorted, so files diff well.

    Each distinct entry's record text is built once and written once per
    repeat, in the order of ``raw.distinct``. :func:`loads_ballot_file`
    reads it back to an equal file whose text is a fixed point; a file with
    no repeated entry, as every ``generate`` file, round-trips byte-identically.
    Raises nothing for entries built under the current int-to-str digit limit.
    """
    records = []
    for (subset, multiplicity), times in zip(raw.distinct, raw.repeats):
        members = ", ".join(str(c) for c in subset.members)
        if isinstance(multiplicity, int):
            tail = f'"count": {multiplicity}'
        else:
            tail = f'"weight": "{format_rational(multiplicity)}"'
        records += [f'{{"list": [{members}], {tail}}}'] * times
    p = raw.params
    head = "".join(piece + str(v) for piece, v in zip(_HEAD, (p.n, p.k, p.j))) + _HEAD[-1]
    body = _INDENT + _SEP.join(records) if records else ""
    return head + body + _TAIL


def read_ballot_file(path: str | Path) -> RawBallotFile:
    """Parse the file at ``path``; raises OSError, or BallotFormatError if not UTF-8 or bad."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise BallotFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    return loads_ballot_file(text)


def distribution_to_raw(dist: VoterDistribution) -> RawBallotFile:
    """Ballot file carrying a distribution's exact weights, sorted by list."""
    entries = tuple(
        BallotEntry(lst, weight) for lst, weight in sorted(dist.items())
    )
    return RawBallotFile(dist.params, entries)


# ---------------------------------------------------------------------------
# Generators used by randomized checks and the CLI.
# ---------------------------------------------------------------------------

def random_distribution(
    params: ElectionParams,
    rng: Random,
    pool: Sequence[CandidateSubset] | None = None,
    max_support: int = 10,
) -> VoterDistribution:
    """Random sparse distribution, deterministic given the rng state.

    Picks a support of up to ``max_support`` lists from ``pool`` (default:
    all lists) and gives them random positive weights normalized to 1.
    """
    lists = list(pool) if pool is not None else list(iter_lists(params))
    size = rng.randint(1, min(len(lists), max_support))
    chosen = rng.sample(lists, size)
    raw = [rng.randint(1, 99) for _ in chosen]
    total = sum(raw)
    return VoterDistribution(params, {l: Fraction(w, total) for l, w in zip(chosen, raw)})


def sample_ball_counts(
    params: ElectionParams,
    center: CandidateSubset,
    radius: int,
    voters: int,
    rng: Random,
) -> RawBallotFile:
    """Draw ``voters`` ballots uniformly from a ball, as integer counts."""
    if voters <= 0:
        raise ParameterError(f"voters must be positive, got {voters}")
    lists = sorted(ball(center, radius, params))
    counts = Counter(rng.choices(lists, k=voters))
    entries = tuple(BallotEntry(lst, counts[lst]) for lst in sorted(counts))
    return RawBallotFile(params, entries)
