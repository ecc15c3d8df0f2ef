"""Approval tallying and exhaustive most-popular-committee search.

A voter approves a committee when it contains the voter's whole list, or,
under the threshold variant, at least s of its members. The search is
always exhaustive and exact: the full argmax set is returned and ties
are never broken.

Both rules run on one integer kernel, a sparse scatter. The weights are
scaled once by the LCM of their denominators, and the best value becomes
a ``Fraction`` only at the end. A committee C meets a list L in at least
s members exactly when C = K | E, with K a t-subset of L for some t >= s
and E a (k - t)-subset of the candidates outside L; s = j is plain
containment. Each support list adds its integer weight onto every
committee it meets this way, keyed by committee bitmask, hitting each of
them exactly once. Committees no list meets are never touched; the best
value is always positive, so none of them can win.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, repeat
from math import lcm
from typing import Collection, Iterable, Iterator

from .ballots import VoterDistribution
from .errors import ParameterError
from .johnson import CandidateSubset, validate_committee


@dataclass(frozen=True)
class TallyResult:
    """Best approval value with the complete set of committees achieving it."""

    best_value: Fraction
    winners: tuple[CandidateSubset, ...]
    strategy_used: str

    def __post_init__(self):
        if not self.winners:
            raise ParameterError("a tally result needs at least one winner")
        if list(self.winners) != sorted(self.winners):
            raise ParameterError("winners must be sorted lexicographically")


def approval(dist: VoterDistribution, committee: CandidateSubset) -> Fraction:
    """Total weight of lists entirely contained in ``committee``: threshold s = j."""
    return threshold_approval(dist, committee, dist.params.j)


def threshold_approval(dist: VoterDistribution, committee: CandidateSubset, s: int) -> Fraction:
    """Total weight of lists sharing at least ``s`` members with ``committee``.

    ``s = j`` reduces exactly to :func:`approval`; ``s = 0`` is 1.
    """
    validate_committee(committee, dist.params)
    if not 0 <= s <= dist.params.j:
        raise ParameterError(f"threshold {s} outside 0..{dist.params.j}")
    cmask = committee.mask
    return sum(
        (w for lst, w in dist.items() if (lst.mask & cmask).bit_count() >= s),
        Fraction(0),
    )


def best_committees(dist: VoterDistribution, s: int | None = None) -> TallyResult:
    """Exact maximum approval over all committees, with every argmax.

    ``s`` relaxes the rule to threshold approval (default: full
    containment, s = j). The result's strategy is always ``"sparse"``.
    """
    p = dist.params
    if s is None:
        s = p.j
    if not 0 <= s <= p.j:
        raise ParameterError(f"threshold {s} outside 0..{p.j}")
    scale = lcm(*(w.denominator for _, w in dist.items()))
    bits = {1 << c for c in range(1, p.n + 1)}
    acc: dict[int, int] = {}
    get = acc.get
    for lst, w in dist.items():
        units = w.numerator * (scale // w.denominator)
        inside = [b for b in bits if b & lst.mask]
        for cmask in _meeting(inside, bits.difference(inside), p.k, s):
            acc[cmask] = get(cmask, 0) + units
    best = max(acc.values())
    candidates = range(1, p.n + 1)
    winners = sorted(
        CandidateSubset(tuple(c for c in candidates if m >> c & 1))
        for m, v in acc.items() if v == best
    )
    return TallyResult(Fraction(best, scale), tuple(winners), "sparse")


def _meeting(inside: Collection[int], outside: Iterable[int], size: int, s: int) -> Iterator[int]:
    """Masks of the ``size``-sets that share at least ``s`` members with ``inside``.

    Members come as one-bit masks. Each set is K | E with K a t-subset of
    ``inside`` (t >= s) and E a (size - t)-subset of ``outside``, so every
    set is produced exactly once. Per t, the side with fewer subsets is
    looped over and the other is added to it in one C-level pass.
    """
    parts = []
    for t in range(s, min(len(inside), size) + 1):
        heads = list(map(sum, combinations(inside, t)))
        tails = combinations(outside, size - t)
        if len(heads) == 1:
            parts.append(map(sum, tails, repeat(heads[0])))
            continue
        tails = list(map(sum, tails))
        if len(heads) > len(tails):
            heads, tails = tails, heads
        parts.extend(map(head.__add__, tails) for head in heads)
    return chain.from_iterable(parts)

