"""Voter distributions: ingestion, generators, ring weights, projection.

A voter distribution assigns each submitted list an exact positive weight,
with weights summing to 1. Ballot files carry raw multiplicities (integer
counts or exact shares) and are normalized on the way in. Distributions
are immutable once built.

Ingestion works per distinct list, not per record. When a file is parsed,
records that share a list (in any member order) share one
``CandidateSubset``. The range and size checks and the short-list
completion with its distance check run once for each distinct list, and
:func:`normalize` sums multiplicities keyed by list mask. Nothing is
cached between files.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class VoterDistribution:
    """Probability distribution over j-element lists.

    Only lists with positive weight are stored; weights sum to exactly 1.
    """

    params: ElectionParams
    support: Mapping[CandidateSubset, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "support", dict(self.support))
        total = Fraction(0)
        for lst, weight in self.support.items():
            validate_list(lst, self.params)
            if weight <= 0:
                raise ParameterError(f"non-positive weight {weight} on {lst}")
            total += weight
        if total != 1:
            raise ParameterError(f"weights sum to {total}, expected 1")

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


@dataclass(frozen=True)
class RawBallotFile:
    """Parsed ballot file: election parameters plus raw entries.

    Entry lists may be shorter than j (between 1 and j members); short
    entries must pass through :func:`complete_short_lists` before
    normalization.
    """

    params: ElectionParams
    entries: tuple[BallotEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        # One check per distinct list, in order of first appearance.
        for subset in {entry.subset.mask: entry.subset for entry in self.entries}.values():
            size = len(subset)
            if not 1 <= size <= self.params.j:
                raise ParameterError(f"entry {subset} has size {size}, expected 1..{self.params.j}")
            if subset.members[-1] > self.params.n:
                raise ParameterError(f"entry {subset} outside candidates 1..{self.params.n}")


def normalize(raw: RawBallotFile) -> VoterDistribution:
    """Turn raw multiplicities into a distribution summing to exactly 1.

    Duplicate lists are merged by addition. Entries shorter than j are
    rejected; complete them first.
    """
    if not raw.entries:
        raise BallotFormatError("ballot file has no entries")
    # Sum per list mask in the multiplicities' own type: integer counts stay
    # ints, and a Fraction is built once per distinct list.
    totals: dict[int, int | Fraction] = {}
    lists: dict[int, CandidateSubset] = {}
    for entry in raw.entries:
        mask = entry.subset.mask
        if mask in totals:
            totals[mask] += entry.multiplicity
        else:
            totals[mask] = entry.multiplicity
            lists[mask] = entry.subset
    if any(len(lst) < raw.params.j for lst in lists.values()):
        short = [e.subset for e in raw.entries if len(e.subset) < raw.params.j]
        raise BallotFormatError(
            f"{len(short)} entries shorter than j={raw.params.j} "
            f"(first: {short[0]}); run complete_short_lists first"
        )
    grand = sum(totals.values())
    return VoterDistribution(
        raw.params, {lists[mask]: Fraction(m, grand) for mask, m in totals.items()}
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
    entry. Multiplicities and entry order are preserved. Each distinct list
    is completed and checked once, and entries sharing a list share its
    completion.
    """
    params = raw.params
    validate_list(center, params)
    if not 0 <= radius <= params.diameter:
        raise ParameterError(f"radius {radius} outside 0..{params.diameter}")
    completed: dict[int, CandidateSubset] = {}  # list mask -> its checked completion
    out: list[BallotEntry] = []
    for entry in raw.entries:
        subset = entry.subset
        done = completed.get(subset.mask)
        if done is None:
            done = subset
            missing = params.j - len(subset)
            if missing:
                fill = tuple(c for c in center.members if c not in subset)[:missing]
                done = CandidateSubset(subset.members + fill)
            if distance(done, center) > radius:
                raise HypothesisViolation(
                    f"entry {subset} has no size-{params.j} superset within "
                    f"distance {radius} of {center}"
                )
            completed[subset.mask] = done
        out.append(entry if done is subset else BallotEntry(done, entry.multiplicity))
    return RawBallotFile(params, tuple(out))


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


def loads_ballot_file(text: str) -> RawBallotFile:
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
    try:
        params = ElectionParams(doc["n"], doc["k"], doc["j"])
    except ParameterError as exc:
        raise BallotFormatError(str(exc)) from exc
    if not isinstance(doc["ballots"], list):
        raise BallotFormatError('"ballots" must be an array')
    # Records sharing a list share one subset and, with the same multiplicity,
    # one entry: only the first sight of a member tuple is range-checked and
    # built, and equal lists in any member order share one CandidateSubset.
    subsets: dict[tuple, CandidateSubset] = {}  # raw member tuple -> subset
    canonical: dict[tuple[int, ...], CandidateSubset] = {}  # sorted members -> subset
    shared: dict[tuple[int, int | str], BallotEntry] = {}  # (mask, count or weight text)
    entries = []
    for i, rec in enumerate(doc["ballots"]):
        if not isinstance(rec, dict) or not set(rec) <= _ENTRY_KEYS:
            raise BallotFormatError(f"ballot {i}: keys must be among {sorted(_ENTRY_KEYS)}")
        members = rec.get("list")
        if not isinstance(members, list):
            raise BallotFormatError(f'ballot {i}: missing "list" array')
        if ("weight" in rec) == ("count" in rec):
            raise BallotFormatError(f'ballot {i}: exactly one of "weight"/"count" required')
        key = tuple(members)
        try:
            subset = subsets.get(key)
        except TypeError:  # a member that is an array or an object
            subset = None
        # true == 1 and 1.0 == 1, so a hit is only trusted for int members.
        if subset is None or not all(type(c) is int for c in key):
            # Range-check before CandidateSubset builds a bitmask as wide as the largest member.
            if not all(type(c) is int and 0 < c <= params.n for c in key):
                raise BallotFormatError(
                    f"ballot {i}: list members must be integers in 1..{params.n}, got {members}"
                )
            try:
                subset = CandidateSubset(key)
            except ParameterError as exc:
                raise BallotFormatError(f"ballot {i}: bad list {members}: {exc}") from exc
            subset = subsets[key] = canonical.setdefault(subset.members, subset)
        if "count" in rec:
            value = rec["count"]
            if type(value) is not int or value <= 0:
                raise BallotFormatError(f"ballot {i}: count must be a positive integer")
        else:
            value = rec["weight"]
            if not isinstance(value, str):
                raise BallotFormatError(f"ballot {i}: weight must be a string like \"7/15\"")
        # A count is an int and a weight its text, so count 1 and weight "1"
        # never share an entry: one stays an int, the other a Fraction.
        entry = shared.get((subset.mask, value))
        if entry is None:
            if isinstance(value, int):
                multiplicity: int | Fraction = value
            else:
                try:
                    multiplicity = parse_rational(value)
                except ValueError as exc:
                    raise BallotFormatError(f"ballot {i}: {exc}") from exc
                if multiplicity <= 0:
                    raise BallotFormatError(f"ballot {i}: weight must be positive")
            entry = shared[subset.mask, value] = BallotEntry(subset, multiplicity)
        entries.append(entry)
    try:
        return RawBallotFile(params, tuple(entries))
    except ParameterError as exc:
        raise BallotFormatError(str(exc)) from exc


def dumps_ballot_file(raw: RawBallotFile) -> str:
    # One record per line keeps files diffable and the round trip
    # byte-identical.
    records = []
    for entry in raw.entries:
        members = ", ".join(str(c) for c in entry.subset.members)
        if isinstance(entry.multiplicity, int):
            tail = f'"count": {entry.multiplicity}'
        else:
            tail = f'"weight": "{format_rational(entry.multiplicity)}"'
        records.append(f'    {{"list": [{members}], {tail}}}')
    body = ",\n".join(records)
    header = f'  "n": {raw.params.n},\n  "k": {raw.params.k},\n  "j": {raw.params.j},'
    return "{\n" + header + '\n  "ballots": [\n' + body + "\n  ]\n}\n"


def read_ballot_file(path: str | Path) -> RawBallotFile:
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
