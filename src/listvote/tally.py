"""Approval tallying and exhaustive most-popular-committee search.

A voter approves a committee when it contains the voter's whole list, or,
under the threshold variant, at least s of its members. The search is
always exhaustive and exact: the full argmax set is returned and ties
are never broken.

Both rules run on one integer kernel, a ranked subset-sum (zeta)
transform over weights scaled once by the LCM of their denominators. One
table per rank t maps a t-set's bitmask to integer units. Containment
seeds rank j with each list. A threshold s >= 1 uses the identity
1[|X| >= s] = sum over T in X, |T| >= s, of (-1)^(|T|-s) C(|T|-1, s-1):
each t-subset of each list, t = s..j, is seeded with that coefficient
times the list's units. s = 0 seeds the empty set with the whole weight.
Then, for each candidate b in turn and each rank from k - 1 down, every
entry without b is added into its union with b, so rank k ends holding
every committee's exact approval. With n - i candidates left, a rank
below k - (n - i) can no longer reach k and is freed. Only supersets of
seeded sets are touched, all C(n, k) committees only when s = 0 makes
them tie, so the strategy reads ``sparse``. A committee left out has
value 0 and cannot win.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from operator import itemgetter

from .ballots import VoterDistribution
from .errors import ParameterError
from .johnson import CandidateSubset


@dataclass(frozen=True)
class TallyResult:
    """Best approval value with the complete set of committees achieving it."""

    best_value: Fraction
    winners: tuple[CandidateSubset, ...]
    strategy_used: str

    def __post_init__(self):
        if not self.winners:
            raise ParameterError("a tally result needs at least one winner")
        members = [w.members for w in self.winners]
        if members != sorted(members):
            raise ParameterError("winners must be sorted lexicographically")


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
    bits = [1 << c for c in range(1, p.n + 1)]
    ranks: list[dict[int, int]] = [{} for _ in range(p.k + 1)]
    if s == 0:
        ranks[0][0] = scale
    else:
        # Rank j's one subset of a list is the list itself: its mask is
        # seeded directly, once per distinct support list. Only a threshold
        # below j decodes members for the smaller subsets.
        top = ranks[p.j]
        top_coefficient = (-1) ** (p.j - s) * comb(p.j - 1, s - 1)
        for lst, w in dist.items():
            units = w.numerator * (scale // w.denominator)
            top[lst.mask] = top_coefficient * units
            if s == p.j:
                continue
            members = [1 << c for c in lst.members]
            for t in range(s, p.j):
                seed = (-1) ** (t - s) * comb(t - 1, s - 1) * units
                table = ranks[t]
                for sub in map(sum, combinations(members, t)):
                    table[sub] = table.get(sub, 0) + seed
    low = s
    for i, b in enumerate(bits):
        if low < p.k - (p.n - i):
            ranks[low].clear()
            low += 1
        for t in range(p.k - 1, low - 1, -1):
            up = ranks[t + 1]
            get = up.get
            for x, v in ranks[t].items():
                y = x | b
                if y != x:
                    up[y] = get(y, 0) + v
    acc = ranks[p.k]
    best = max(acc.values())
    candidates = range(1, p.n + 1)
    winners = sorted(
        ((tuple([c for c in candidates if m >> c & 1]), m) for m, v in acc.items() if v == best),
        key=itemgetter(0),
    )
    return TallyResult(
        Fraction(best, scale),
        tuple(CandidateSubset.unchecked(members, m) for members, m in winners),
        "sparse",
    )
