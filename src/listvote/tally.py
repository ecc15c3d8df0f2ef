"""Approval tallying and exhaustive most-popular-committee search.

A voter approves a committee when it contains the voter's whole list, or,
under the threshold variant, at least s of its members. The search is
always exhaustive and exact: the full argmax set is returned and ties
are never broken.

Both rules run on one integer engine. The weights are scaled once by the
LCM of their denominators, every inner loop adds Python ints keyed by
committee bitmask, and the best value becomes a ``Fraction`` only at the
end. A committee C meets a list L in at least s members exactly when
C = K | E, with K a t-subset of L for some t >= s and E a (k - t)-subset
of the candidates outside L; s = j is plain containment. The ``sparse``
strategy scatters each support list onto the committees it meets this
way, hitting each of them exactly once per list. The ``dense`` strategy
walks every committee and gathers the lists that meet it by the same
decomposition. The one with the smaller predicted work runs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, repeat
from math import comb, lcm
from typing import Collection, Iterable, Iterator

from .ballots import VoterDistribution
from .errors import ParameterError
from .exactnum import format_rational
from .johnson import CandidateSubset, ElectionParams, validate_committee

log = logging.getLogger(__name__)

# Dense enumeration walks all C(n, k) committees; refuse clearly rather
# than grind forever.
DENSE_MAX_N = 28


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

    def to_dict(self) -> dict:
        return {
            "best_value": format_rational(self.best_value),
            "winners": [list(w.members) for w in self.winners],
            "strategy": self.strategy_used,
        }


def approval(dist: VoterDistribution, committee: CandidateSubset) -> Fraction:
    """Total weight of lists entirely contained in ``committee``."""
    validate_committee(committee, dist.params)
    cmask = committee.mask
    return sum(
        (w for lst, w in dist.items() if lst.mask & ~cmask == 0),
        Fraction(0),
    )


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


def average_approval(dist: VoterDistribution) -> Fraction:
    """Mean approval over all committees: C(k, j) / C(n, j) for any distribution.

    Each list is contained in exactly C(n-j, k-j) committees, so the sum
    of approvals over all C(n, k) committees is C(n-j, k-j) regardless of
    the weights, and the mean collapses to this closed form.
    """
    p = dist.params
    return Fraction(comb(p.k, p.j), comb(p.n, p.j))


def predicted_work(dist: VoterDistribution, s: int | None = None) -> dict[str, int]:
    """Inner-loop iterations of each strategy: one per (list, committee) pair it visits.

    ``sparse`` visits each support list's committees meeting it in
    t >= s members, C(j, t) * C(n - j, k - t) of them for each t;
    ``dense`` visits each committee's lists meeting it in t >= s members,
    C(k, t) * C(n - k, j - t) for each t. The two agree on full support.
    """
    p = dist.params
    if s is None:
        s = p.j
    ts = range(s, p.j + 1)
    return {
        "sparse": len(dist) * sum(comb(p.j, t) * comb(p.n - p.j, p.k - t) for t in ts),
        "dense": comb(p.n, p.k) * sum(comb(p.k, t) * comb(p.n - p.k, p.j - t) for t in ts),
    }


def best_committees(
    dist: VoterDistribution,
    s: int | None = None,
    strategy: str | None = None,
) -> TallyResult:
    """Exact maximum approval over all committees, with every argmax.

    ``s`` relaxes the rule to threshold approval (default: full
    containment, s = j). The strategy with the smaller predicted work is
    chosen unless forced; a tie goes to ``dense``, except above
    ``DENSE_MAX_N``, where dense cannot run.
    """
    p = dist.params
    if s is None:
        s = p.j
    if not 0 <= s <= p.j:
        raise ParameterError(f"threshold {s} outside 0..{p.j}")
    if strategy not in (None, "sparse", "dense"):
        raise ParameterError(f"unknown strategy {strategy!r}")
    work = predicted_work(dist, s)
    if strategy is None:
        dense = work["dense"] <= work["sparse"] and p.n <= DENSE_MAX_N
        strategy = "dense" if dense else "sparse"
    # No size cap on sparse, but say what is coming on instances too big for dense.
    log.log(
        logging.INFO if p.n > DENSE_MAX_N else logging.DEBUG,
        "%s tally: %d operations predicted", strategy, work[strategy],
    )

    scale = lcm(*(w.denominator for _, w in dist.items()))
    weights = {lst.mask: w.numerator * (scale // w.denominator) for lst, w in dist.items()}
    if strategy == "sparse":
        best, masks = _sparse_scatter(weights, p, s)
    else:
        best, masks = _dense_walk(weights, p, s)
    candidates = range(1, p.n + 1)
    winners = sorted(CandidateSubset(tuple(c for c in candidates if m >> c & 1)) for m in masks)
    return TallyResult(Fraction(best, scale), tuple(winners), strategy)


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


def _sparse_scatter(weights: dict[int, int], p: ElectionParams, s: int) -> tuple[int, list[int]]:
    """Add each support list's weight onto every committee it meets in >= s members."""
    bits = {1 << c for c in range(1, p.n + 1)}
    acc: dict[int, int] = {}
    get = acc.get
    for lmask, w in weights.items():
        inside = [b for b in bits if b & lmask]
        for cmask in _meeting(inside, bits.difference(inside), p.k, s):
            acc[cmask] = get(cmask, 0) + w
    best = max(acc.values())
    return best, [m for m, v in acc.items() if v == best]


def _dense_walk(weights: dict[int, int], p: ElectionParams, s: int) -> tuple[int, list[int]]:
    """Walk every committee, adding the weights of the lists meeting it in >= s members."""
    if p.n > DENSE_MAX_N:
        raise ParameterError(
            f"dense enumeration of C({p.n},{p.k}) committees refused for n > {DENSE_MAX_N}; "
            "use sparse tallying or reduce n"
        )
    bits = {1 << c for c in range(1, p.n + 1)}
    get = weights.get
    best, masks = 0, []
    for members in combinations(bits, p.k):
        value = sum(map(get, _meeting(members, bits.difference(members), p.j, s), repeat(0)))
        if value > best:
            best, masks = value, [sum(members)]
        elif value == best:
            masks.append(sum(members))
    return best, masks

