"""Voter distributions: ingestion, generators, ring weights, projection.

A voter distribution assigns each submitted list an exact positive weight,
with weights summing to 1. Ballot files carry raw multiplicities (integer
counts or exact shares) and are normalized on the way in. Distributions
are immutable once built.

Ingestion works per distinct entry, not per record. The parser gives
records with the same list in any member order and the same count or
weight text one entry, and counts its repeats. Two readers give the same
result and the same errors:

- text in the layout :func:`dumps_ballot_file` writes (as do ``listvote
  generate`` and ``perfbench``) is read per distinct record text. A record
  costs its share of one ``str.split``, one ``dict.fromkeys`` and one
  mapping to its entry, all in C. A distinct text costs one pattern match,
  which proves it a record as written, and one lookup of its sorted key;
  only a miss runs the value checks. If any text fails to match, the
  whole file goes to the JSON reader.
- ``json.loads`` reads every other layout. There a record costs its
  decoding, and a repeat as written its key, one lookup and one shape
  guard (exactly two keys): a hit has the values of an accepted record,
  since JSON strings and objects never equal ints, so the guard is all
  that is left to check. A repeat in a member order not yet seen costs the
  full checks, a sort and a second lookup. With a float or ``true``
  anywhere in the document no record is looked up, because ``1.0 == 1``
  and ``True == 1`` could pass for an accepted value.

:class:`RawBallotFile` holds the distinct entries, their repeat counts and
the record order, and its check, completion and :func:`normalize` each run
once per distinct entry, so no stage after the parser walks the records.
:func:`normalize` sums by list mask in integer units. Nothing is cached
between files.

Each input rule is checked once, by the stage where the value enters;
later stages build from proven values with the ``unchecked`` constructors
of :class:`~listvote.johnson.CandidateSubset`, :class:`BallotEntry` and
:class:`VoterDistribution`:

- :func:`loads_ballot_file` owns the record's shape, its members (ints in
  1..n, distinct by the bit count of their mask) and its multiplicity (a
  positive int count, or a positive exact weight text, parsed once per
  distinct text; ``json.loads`` and ``int()`` enforce the digit limit).
  Both readers check values through one function;
- :class:`RawBallotFile` owns each entry's size, 1..j, and its range;
- :func:`complete_short_lists` owns the ball: every completed entry lies
  inside it;
- :func:`normalize` owns the length j, and builds positive weights that
  sum to exactly 1.

The public constructors keep every check, for values from anywhere else.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from pathlib import Path
from random import Random
from typing import Iterable, Mapping, Sequence

from .errors import BallotFormatError, HypothesisViolation, ParameterError
from .exactnum import format_rational, parse_rational
from .johnson import (
    CandidateSubset,
    ElectionParams,
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


@dataclass(frozen=True)
class VoterDistribution:
    """Probability distribution over j-element lists.

    Only lists with positive weight are stored; weights sum to exactly 1.
    """

    params: ElectionParams
    support: Mapping[CandidateSubset, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "support", dict(self.support))
        for lst, weight in self.support.items():
            validate_list(lst, self.params)
            if not _exact(weight):
                raise ParameterError(f"weight {weight!r} on {lst} is not an int or a Fraction")
            if weight <= 0:
                raise ParameterError(f"non-positive weight {weight} on {lst}")
        # Sum in integer units over the LCM of the denominators.
        weights = self.support.values()
        scale = lcm(*(w.denominator for w in weights))
        units = sum(w.numerator * (scale // w.denominator) for w in weights)
        if units != scale:
            raise ParameterError(f"weights sum to {Fraction(units, scale)}, expected 1")

    @classmethod
    def unchecked(
        cls, params: ElectionParams, support: dict[CandidateSubset, Fraction]
    ) -> VoterDistribution:
        """The distribution holding ``support`` itself, built without the checks.

        The caller guarantees what the constructor would check: every list
        is a valid j-list of ``params``, every weight a positive
        ``Fraction``, and the weights sum to exactly 1. The one caller,
        :func:`normalize`, builds them so from a checked
        :class:`RawBallotFile`. Input from outside goes through
        ``VoterDistribution(...)``.
        """
        dist = object.__new__(cls)
        object.__setattr__(dist, "params", params)
        object.__setattr__(dist, "support", support)
        return dist

    def weight(self, lst: CandidateSubset) -> Fraction:
        return self.support.get(lst, Fraction(0))

    def items(self):
        return self.support.items()

    def __len__(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class BallotEntry:
    """One ballot-file record: a candidate set plus its multiplicity.

    An ``int`` multiplicity is a raw voter count; a ``Fraction`` is an
    exact pre-normalized share. The distinction is preserved on write.
    A count, numerator or denominator longer than the interpreter's
    int-to-str digit limit is rejected, since no file could hold it.
    """

    subset: CandidateSubset
    multiplicity: int | Fraction

    def __post_init__(self):
        m = self.multiplicity
        if not _exact(m):
            raise ParameterError(f"multiplicity {m!r} is not an int or a Fraction")
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
        entry = object.__new__(cls)
        object.__setattr__(entry, "subset", subset)
        object.__setattr__(entry, "multiplicity", multiplicity)
        return entry


@dataclass(frozen=True, init=False, eq=False)
class RawBallotFile:
    """Parsed ballot file: election parameters plus raw entries, one per record.

    Entry lists may be shorter than j (between 1 and j members); short
    entries must pass through :func:`complete_short_lists` before
    normalization.

    The file is held per distinct entry: ``distinct`` holds each entry
    object once, in order of its first record, and ``repeats[i]`` counts
    the records that carry ``distinct[i]``. ``entries`` lists the entry of
    every record in order; it is built from the record order on first
    read, so stages that read only ``distinct`` and ``repeats`` never walk
    the records. A file built from a sequence of entries gives every
    record its own distinct entry with one repeat. Two files are equal
    when their parameters and entries are. The size and range check runs
    once per distinct entry.
    """

    params: ElectionParams
    distinct: tuple[BallotEntry, ...]
    repeats: tuple[int, ...]
    # record -> index into distinct, never mutated; None when record i carries distinct[i]
    _order: Sequence[int] | None

    def __init__(self, params: ElectionParams, entries: Iterable[BallotEntry]):
        entries = tuple(entries)
        self._hold(params, entries, (1,) * len(entries), None)

    @classmethod
    def _of(
        cls,
        params: ElectionParams,
        distinct: tuple[BallotEntry, ...],
        repeats: tuple[int, ...],
        order: Sequence[int] | None,
    ) -> RawBallotFile:
        """The file whose record i carries ``distinct[order[i]]``; no copies are made."""
        raw = object.__new__(cls)
        raw._hold(params, distinct, repeats, order)
        return raw

    def _hold(self, params, distinct, repeats, order) -> None:
        for entry in distinct:
            subset = entry.subset
            size = len(subset.members)
            if not 1 <= size <= params.j:
                raise ParameterError(f"entry {subset} has size {size}, expected 1..{params.j}")
            if subset.members[-1] > params.n:
                raise ParameterError(f"entry {subset} outside candidates 1..{params.n}")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "distinct", distinct)
        object.__setattr__(self, "repeats", repeats)
        object.__setattr__(self, "_order", order)

    @cached_property
    def entries(self) -> tuple[BallotEntry, ...]:
        """The entry of every record, in order."""
        if self._order is None:
            return self.distinct
        return tuple(map(self.distinct.__getitem__, self._order))

    def __eq__(self, other):
        if not isinstance(other, RawBallotFile):
            return NotImplemented
        return self.params == other.params and self.entries == other.entries

    def __hash__(self):
        return hash((self.params, self.entries))


def normalize(raw: RawBallotFile) -> VoterDistribution:
    """Turn raw multiplicities into a distribution summing to exactly 1.

    Duplicate lists are merged by addition. Entries shorter than j are
    rejected; complete them first. Runs once per distinct entry, adding
    its multiplicity times its repeat count; a record costs nothing.
    """
    if not raw.distinct:
        raise BallotFormatError("ballot file has no entries")
    # Sum per list mask in the multiplicities' own type: integer counts stay
    # ints, and a Fraction is built once per distinct list (the product is
    # skipped at one repeat, where it would build a new Fraction).
    totals: dict[int, int | Fraction] = {}
    lists: dict[int, CandidateSubset] = {}
    for entry, times in zip(raw.distinct, raw.repeats):
        mask = entry.subset.mask
        m = entry.multiplicity if times == 1 else entry.multiplicity * times
        if mask in totals:
            totals[mask] += m
        else:
            totals[mask] = m
            lists[mask] = entry.subset
    if any(len(lst) < raw.params.j for lst in lists.values()):
        short = [(e.subset, times) for e, times in zip(raw.distinct, raw.repeats)
                 if len(e.subset) < raw.params.j]
        raise BallotFormatError(
            f"{sum(times for _, times in short)} entries shorter than j={raw.params.j} "
            f"(first: {short[0][0]}); run complete_short_lists first"
        )
    # Scale the totals to integer units over the LCM of their denominators
    # (1 for counts), so every weight is one Fraction of two ints. The lists
    # passed the file's size and range check and the length test above, and
    # each weight is a positive share of a total it divides exactly, so the
    # distribution is built without its constructor's checks.
    scale = lcm(*(m.denominator for m in totals.values()))
    units = {mask: m.numerator * (scale // m.denominator) for mask, m in totals.items()}
    grand = sum(units.values())
    return VoterDistribution.unchecked(
        raw.params, {lists[mask]: Fraction(u, grand) for mask, u in units.items()}
    )


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
    weights = [Fraction(0)] * (dist.params.diameter + 1)
    for lst, weight in dist.items():
        weights[distance(lst, center)] += weight
    return tuple(weights)


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
    entry. Multiplicities and entry order are preserved. Each distinct
    entry is completed and checked once, and the result shares the input's
    repeat counts and record order, so a repeated record costs nothing
    here; :func:`loads_ballot_file` gives all records with the same list
    and count or weight one entry.
    """
    params = raw.params
    validate_list(center, params)
    params.check_radius(radius)
    done: list[BallotEntry] = []
    for entry in raw.distinct:
        subset = full = entry.subset
        missing = params.j - len(subset)
        if missing:
            # Center members the entry lacks: distinct from its own, so the
            # completed mask is the OR of the two.
            fill = tuple(c for c in center.members if c not in subset)[:missing]
            fill_mask = sum(1 << c for c in fill)
            full = CandidateSubset.unchecked(
                tuple(sorted(subset.members + fill)), subset.mask | fill_mask
            )
        if distance(full, center) > radius:
            raise HypothesisViolation(
                f"entry {subset} has no size-{params.j} superset within "
                f"distance {radius} of {center}"
            )
        done.append(entry if full is subset else BallotEntry.unchecked(full, entry.multiplicity))
    return RawBallotFile._of(params, tuple(done), raw.repeats, raw._order)


# ---------------------------------------------------------------------------
# Ballot file format (JSON)
#
# {"n": 7, "k": 4, "j": 3, "ballots": [
#     {"list": [1, 2, 3], "weight": "7/15"},
#     {"list": [4, 5, 6], "count": 2}, ...]}
#
# Exactly one of "weight" (a "p/q" string) or "count" (a positive integer)
# per record. Files written here round-trip byte-identically.
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
# One record as written: members, then a count or a weight text with no escapes.
_RECORD_RE = re.compile(
    rf'\{{"list": \[((?:{_INT})(?:, (?:{_INT}))*)\], '
    rf'(?:"count": ({_INT})|"weight": "([0-9/+-]{{1,40}})")\}}'
)


class _RecordError(Exception):
    """A record broke a value rule; the caller names the record."""


def _ballot_params(n, k, j) -> ElectionParams:
    """The header's parameters; an inconsistency is a BallotFormatError."""
    try:
        return ElectionParams(n, k, j)
    except ParameterError as exc:
        raise BallotFormatError(str(exc)) from exc


def _entry(members: list, kind: str, value, n: int, weights: dict[str, Fraction]) -> BallotEntry:
    """The entry of a record with ``members`` and its ``kind`` ("count" or "weight") ``value``.

    Checks the members (ints in 1..n, distinct) and the multiplicity (a
    positive int count, or a positive exact weight text); raises
    _RecordError. ``weights`` maps each weight text accepted so far to its
    value, so a text is parsed once and a bad one is never stored.
    """
    # Types first (bool is a subclass of int), so the sort compares ints;
    # then the range, before the mask is built as wide as the largest member.
    ordered = tuple(sorted(members)) if _INT_TYPE.issuperset(map(type, members)) else None
    if ordered is None or (ordered and not (ordered[0] > 0 and ordered[-1] <= n)):
        raise _RecordError(f"list members must be integers in 1..{n}, got {members}")
    # Members are ints in 1..n, so the mask has one bit per distinct member:
    # a short bit count is a duplicate.
    mask = 0
    for c in ordered:
        mask |= 1 << c
    if mask.bit_count() != len(ordered):
        raise _RecordError(f"bad list {members}: duplicate candidates in {ordered}")
    subset = CandidateSubset.unchecked(ordered, mask)
    if kind == "count":
        if type(value) is not int or value <= 0:
            raise _RecordError("count must be a positive integer")
        return BallotEntry.unchecked(subset, value)
    if not isinstance(value, str):
        raise _RecordError('weight must be a string like "7/15"')
    multiplicity = weights.get(value)
    if multiplicity is None:
        try:
            multiplicity = parse_rational(value)
        except ValueError as exc:
            raise _RecordError(str(exc)) from exc
        if multiplicity <= 0:
            raise _RecordError("weight must be positive")
        weights[value] = multiplicity
    return BallotEntry.unchecked(subset, multiplicity)


def _of_entries(params, distinct, repeats, order) -> RawBallotFile:
    """The parsed file; an entry of the wrong size or range is a BallotFormatError."""
    try:
        return RawBallotFile._of(params, tuple(distinct), tuple(repeats), order)
    except ParameterError as exc:
        raise BallotFormatError(str(exc)) from exc


def loads_ballot_file(text: str) -> RawBallotFile:
    """Parse ballot-file text into a :class:`RawBallotFile`.

    Raises BallotFormatError for bad JSON, header or record, naming a bad
    record's index (its first record when several share its text). Two
    readers give the same result and the same error. Text in the layout
    :func:`dumps_ballot_file` writes is read per distinct record text: a
    record costs its share of a split, a dedupe and a mapping, all in C,
    and a distinct text one pattern match and one lookup, with the value
    checks on a miss. Any other text is read by ``json.loads``, where a
    record costs its decoding and a repeat one lookup and one shape guard;
    in a member order not yet seen, two lookups and the full checks; once
    the text holds a float or ``true``, the full checks. Each distinct
    weight text is parsed once. The result counts each distinct entry's
    repeats.
    """
    raw = _loads_canonical(text)
    return _loads_json(text) if raw is None else raw


def _loads_canonical(text: str) -> RawBallotFile | None:
    """The file, if ``text`` is in the layout :func:`dumps_ballot_file` writes; else None.

    Every distinct record text must match one record as written (members
    and count as JSON ints of at most 18 digits, a weight text of at most
    40 characters from ``0-9/+-``) before any value is checked, so a text
    taken here is valid JSON and means what ``json.loads`` would read. A
    text that ``json.loads`` would reject is always declined, as is
    anything longer or in another layout; the JSON reader then reads it.
    """
    head = _HEAD_RE.match(text)
    if head is None or not text.endswith(_TAIL):
        return None
    start, end = head.end(), len(text) - len(_TAIL)
    if start == end:
        texts = []
    elif text.startswith(_INDENT, start):  # then the tail starts after the indent
        texts = text[start + len(_INDENT):end].split(_SEP)
    else:
        return None
    unique = dict.fromkeys(texts)  # distinct texts in order of their first record
    matches = list(map(_RECORD_RE.fullmatch, unique))
    if None in matches:
        return None
    params = _ballot_params(*map(int, head.groups()))
    # Every list group is JSON ints joined by ", ", so one json.loads reads them all.
    lists = json.loads("[[" + "],[".join([match[1] for match in matches]) + "]]")
    # Texts merge under their count or weight and sorted members, as records
    # do in the JSON reader. Only an accepted entry's key is stored, and the
    # values are ints and strings, so a text that hits a key has the values
    # of an accepted record. unique then maps each text to its entry's index.
    weights: dict[str, Fraction] = {}
    keys: dict[tuple, int] = {}
    distinct: list[BallotEntry] = []
    for record, match, members in zip(unique, matches, lists):
        _, count, weight = match.groups()
        kind, value = ("count", int(count)) if weight is None else ("weight", weight)
        key = (kind, value, *sorted(members))
        index = keys.get(key)
        if index is None:
            try:
                entry = _entry(members, kind, value, params.n, weights)
            except _RecordError as exc:
                raise BallotFormatError(f"ballot {texts.index(record)}: {exc}") from exc
            index = keys[key] = len(distinct)
            distinct.append(entry)
        unique[record] = index
    if len(distinct) == len(texts):  # record i carries entry i
        return _of_entries(params, distinct, [1] * len(texts), None)
    order = list(map(unique.__getitem__, texts))
    times = Counter(order)
    return _of_entries(params, distinct, map(times.__getitem__, range(len(distinct))), order)


def _loads_json(text: str) -> RawBallotFile:
    """The file read by ``json.loads``: any layout."""
    floats: list[str] = []  # float tokens, recorded as they are parsed
    try:
        doc = json.loads(text, parse_float=lambda token: floats.append(token) or float(token))
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
    if not isinstance(doc["ballots"], list):
        raise BallotFormatError('"ballots" must be an array')
    # An accepted record maps to its entry's index under (count, weight,
    # members) as written and in sorted member order, so count 1 and weight
    # "1" never share an entry. A float or `true` equals an int (1.0 == 1,
    # True == 1; false and 0 are never accepted), so with either in the text,
    # no lookups. Otherwise a record that hits its as-written key has the
    # values of an accepted record (strings and objects never equal ints),
    # so it is valid when its only keys are "list" and the one of
    # "count"/"weight" it holds: the guard len(rec) == 2. A record that hits
    # only its sorted key passed the value checks itself. An empty list is
    # never stored, since "" and {} unpack to the same key; the file is
    # rejected for it anyway. A record whose key cannot be built or hashed
    # is checked in full and never stored.
    memo: dict[tuple, int] | None = None if floats or "true" in text else {}
    weights: dict[str, Fraction] = {}
    distinct: list[BallotEntry] = []
    repeats: list[int] = []  # built at the first repeat, with order
    order: list[int] | None = None  # record -> index into distinct
    for i, rec in enumerate(doc["ballots"]):
        index = record = None
        if memo is not None:
            try:
                record = (rec.get("count"), rec.get("weight"), *rec["list"])
                index = memo.get(record)
            except (AttributeError, KeyError, TypeError):
                record = None
        if index is None or len(rec) != 2:
            if not isinstance(rec, dict) or not _ENTRY_KEYS.issuperset(rec):
                raise BallotFormatError(f"ballot {i}: keys must be among {sorted(_ENTRY_KEYS)}")
            members = rec.get("list")
            if not isinstance(members, list):
                raise BallotFormatError(f'ballot {i}: missing "list" array')
            if ("weight" in rec) == ("count" in rec):
                raise BallotFormatError(f'ballot {i}: exactly one of "weight"/"count" required')
            kind = "count" if "count" in rec else "weight"
            try:
                entry = _entry(members, kind, rec[kind], params.n, weights)
            except _RecordError as exc:
                raise BallotFormatError(f"ballot {i}: {exc}") from exc
            ordered = entry.subset.members
            if record is not None:
                key = (*record[:2], *ordered)
                index = memo.get(key)
            if index is None:
                index = len(distinct)
                distinct.append(entry)
                if record is not None and ordered:
                    memo[record] = memo[key] = index
                if order is not None:
                    order.append(index)
                    repeats.append(1)
                continue
            memo[record] = index
        if order is None:  # the first repeat: records 0..i-1 each had their own entry
            order = list(range(i))
            repeats = [1] * i
        order.append(index)
        repeats[index] += 1
    if order is None:
        repeats = [1] * len(distinct)
    return _of_entries(params, distinct, repeats, order)


def dumps_ballot_file(raw: RawBallotFile) -> str:
    """Ballot-file text: one record per line, members sorted, so files diff well.

    A repeated entry is written once per repeat. :func:`loads_ballot_file`
    reads the text back to an equal file that writes the same text, per
    distinct record text. Raises nothing for entries built under the
    current int-to-str digit limit.
    """
    records = []
    for entry in raw.entries:
        members = ", ".join(str(c) for c in entry.subset.members)
        if isinstance(entry.multiplicity, int):
            tail = f'"count": {entry.multiplicity}'
        else:
            tail = f'"weight": "{format_rational(entry.multiplicity)}"'
        records.append(f'{{"list": [{members}], {tail}}}')
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
