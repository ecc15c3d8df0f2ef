"""Approval tallying and exhaustive most-popular-committee search.

A voter approves a committee when it contains the voter's whole list, or,
under the threshold variant, at least s of its members. The search is
always exhaustive and exact: the full argmax set is returned and ties
are never broken.

Both rules run on one integer subset-sum (zeta) transform, in the
distribution's integer units over one total. Containment seeds each
list. A threshold s >= 1 uses the identity
1[|X| >= s] = sum over T in X, |T| >= s, of (-1)^(|T|-s) C(|T|-1, s-1):
each t-set T, t = s..j, is seeded with that coefficient c_t times h_t(T),
the units of the lists containing T. s = 0 seeds the empty set with the
whole total. Rank j is the lists themselves, and each lower rank runs
the cheaper of two forms: per list, writing every t-subset of every list
(support·C(j,t) updates), or downward from rank t + 1, adding each
(t+1)-set into its t-subsets and dividing exactly by j - t
(|rank t + 1|·(t + 1) updates), a tie going downward. So a dense support
with large j seeds in time bounded by its distinct t-sets. After the
transform every k-set holds its committee's exact approval.
The seeds, the read-out of the best value and the winner decode are
shared by two ways to run the transform; the result's strategy names
the one that ran.

- ``sparse``: one table per rank t maps a t-set's bitmask to its units.
  For each candidate b in turn and each rank from k - 1 down, every entry
  without b is added into its union with b. With n - i candidates left, a
  rank below k - (n - i) can no longer reach k and is freed. Only
  supersets of seeded sets are touched, so a small support on many
  candidates stays cheap. A committee left out has value 0 and cannot
  win.
- ``packed``: the whole lattice of 2^n subsets lives in one int, one
  lane of W bytes per subset, lane X at bit 8·W·X (SWAR, as in Lamport,
  "Multiple byte processing with full-word instructions", CACM 1975).
  Candidate b's step is ``x += (x << 8·W·2^b) & A_b``, where A_b is all
  ones in the lanes with b: three big-int operations move every subset
  at once, and A_b comes from A_(b+1) by one shift and one xor. Every
  lane ends as an approval in 0..scale, and under containment and s = 0
  never leaves that range. A threshold 0 < s < j seeds both signs, so its
  lanes hold residues mod 2^(8·W-1), seeded as v mod 2^(8·W-1), and each
  step ends with ``x &= L``, clearing every lane's top (guard) bit: two
  residues sum below 2^(8·W), so no lane carries into the next. W holds
  the total's bits, plus the guard bit, rounded up to 1, 2, 4 or 8
  bytes; lanes are read and written as machine words of a little-endian
  host, the k-set lanes row by row of 2^(n//2) lanes, and a wider lane
  runs sparse. The read-out takes each row's maximum once and scans the
  lanes of only the rows whose maximum is the best value.

:func:`paths` owns the path rule, from counts known before any work
starts. Sparse can always run, packed only when its lane is a machine
word. With seeds_t = support·C(j,t), a bound on the seeded t-sets, the
sparse path makes at most n times the sum over ranks r = s..k-1 of
min(C(n,r), sum over t of seeds_t · C(n-t, r-t)) table updates. The
packed path costs its lattice bytes times n over
``PACKED_BYTES_PER_UPDATE``, plus C(n,k) lane reads. The cheaper one
runs, and packed only while its lattice fits ``PACKED_MAX_BYTES``.
Seeding runs the same way before either path, so it does not enter the
comparison.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import itemgetter, lt

from .ballots import VoterDistribution
from .errors import ParameterError
from .johnson import CandidateSubset, ElectionParams, _CheckedRecord, members_of

# Lattice bytes the packed path moves in the time of one sparse table
# update, fitted on a grid of 96 shapes with 10 <= n <= 18 (CHANGES.md).
PACKED_BYTES_PER_UPDATE = 16
# The largest lattice the packed path builds; a few copies are live at once.
PACKED_MAX_BYTES = 1 << 22
# memoryview formats of the lane widths that are machine words, whose
# bytes are the lane's little-endian bytes only on a little-endian host
_WORDS = {1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {}


class TallyResult(_CheckedRecord,
                  namedtuple("TallyResult", ["best_value", "winners", "strategy_used"])):
    """Best approval value with the complete set of committees achieving it."""

    __slots__ = ()

    def __new__(
        cls, best_value: Fraction, winners: tuple[CandidateSubset, ...], strategy_used: str
    ) -> TallyResult:
        if not winners:
            raise ParameterError("a tally result needs at least one winner")
        # strictly increasing, so no committee is counted twice
        if not all(map(lt, winners, winners[1:])):
            raise ParameterError("winners must be sorted lexicographically")
        return tuple.__new__(cls, (best_value, winners, strategy_used))


def best_committees(
    dist: VoterDistribution, s: int | None = None, *, _path: str | None = None
) -> TallyResult:
    """Exact maximum approval over all committees, with every argmax.

    ``s`` relaxes the rule to threshold approval (default: full
    containment, s = j). The result's strategy is the path that ran, the
    first of :func:`paths`; ``_path`` forces one, for checks that compare
    the two. Forcing a path that :func:`paths` does not list raises
    ``ParameterError``.
    """
    p = dist.params
    if s is None:
        s = p.j
    if not 0 <= s <= p.j:
        raise ParameterError(f"threshold {s} outside 0..{p.j}")
    scale, units = dist.total, dist.units
    width = lane_bytes(scale, p.j, s)
    listed = paths(p, s, len(units), scale)
    path = _path or listed[0]
    if path not in listed:
        raise ParameterError(f"{path!r} is not one of {listed}: packed needs a lane of 1, 2, "
                             f"4 or 8 bytes on a little-endian host, got {width}")
    ranks = _seed(p.k, p.j, s, scale, units)
    if path == "packed":
        best, masks = _packed(p.n, p.k, ranks, width, 0 < s < p.j)
    else:
        best, masks = _sparse(p.n, p.k, s, ranks)
    candidates = range(1, p.n + 1)
    members = [tuple([c for c in candidates if m >> c & 1]) for m in masks]
    # Winners are reported in the order of their members, which are distinct
    # between winners; a key of plain tuples compares faster than the records.
    winners = sorted(map(CandidateSubset.unchecked, zip(members, masks)), key=members_of)
    return TallyResult(Fraction(best, scale), tuple(winners), path)


def lane_bytes(scale: int, j: int, s: int) -> int:
    """Bytes per packed lane: the total's bits, plus a guard bit when 0 < s < j.

    Up to 8 bytes the width is rounded up to a machine word, 1, 2, 4 or 8;
    a wider lane keeps its width, and only the sparse path runs on it.
    """
    width = (scale.bit_length() + (0 < s < j) + 7) // 8
    return width if width > 8 else 1 << (width - 1).bit_length()


def paths(params: ElectionParams, s: int, support: int, total: int) -> tuple[str, ...]:
    """The paths that can run at threshold ``s`` on ``support`` lists over
    ``total`` units, the one the shape predicts cheaper first.

    ``("sparse",)`` when the lane from :func:`lane_bytes` is not a machine
    word of this host; otherwise both, packed first when its cost is below
    sparse's. The sparse cost is the rank-table bound in updates, the
    packed cost its lattice bytes times n over ``PACKED_BYTES_PER_UPDATE``
    plus one read per committee. Packed is never picked for a lattice above
    ``PACKED_MAX_BYTES``, and a price tie picks sparse.
    """
    n, k, j = params
    width = lane_bytes(total, j, s)
    if width not in _WORDS:
        return ("sparse",)
    # a lattice of 2**64 lanes is far above the cap; the shift stays small
    lattice = width << min(n, 64)
    if lattice > PACKED_MAX_BYTES:
        return ("sparse", "packed")
    seeds = {0: 1} if s == 0 else {t: support * comb(j, t) for t in range(s, j + 1)}
    sparse = n * sum(
        min(comb(n, r), sum(c * comb(n - t, r - t) for t, c in seeds.items() if t <= r))
        for r in range(s, k)
    )
    packed = lattice * n // PACKED_BYTES_PER_UPDATE + comb(n, k)
    return ("packed", "sparse") if packed < sparse else ("sparse", "packed")


def _seed(
    k: int, j: int, s: int, scale: int, units: dict[CandidateSubset, int]
) -> list[dict[int, int]]:
    """One table per rank 0..k, mapping each seeded set's bitmask to its units.

    A t-set T is seeded with c_t·h_t(T), where c_t is its Moebius
    coefficient and h_t(T) is the sum of u_L over the lists L containing T.
    Rank j holds the lists themselves. Each rank t from j - 1 down to s
    runs whichever form is priced cheaper when it is reached, a tie going
    downward:

    - per list, support·C(j,t) updates: every t-subset of every list adds
      c_t·u_L, each list's members decoded once for all such ranks;
    - downward, |rank t + 1|·(t + 1) updates: each (t+1)-set T' adds its
      value into T' - b for each member b of its mask. A t-set of a list
      lies in j - t of the list's (t+1)-subsets, so one exact division, by
      j - t and by the coefficient rank t + 1 carries, leaves h_t.

    Rank j - 1 always runs downward, as both prices are support·j there.
    """
    ranks: list[dict[int, int]] = [{} for _ in range(k + 1)]
    if s == 0:
        ranks[0][0] = scale
        return ranks
    # the Moebius coefficient of a t-subset, t = s..j
    coefficient = {t: (-1) ** (t - s) * comb(t - 1, s - 1) for t in range(s, j + 1)}
    above = {lst.mask: u for lst, u in units.items()}
    c = coefficient[j]
    ranks[j] = above if c == 1 else {m: c * u for m, u in above.items()}
    # ``above`` holds the rank above as ``carried`` times its h
    carried, support, decoded = 1, len(units), None
    for t in range(j - 1, s - 1, -1):
        c = coefficient[t]
        if len(above) * (t + 1) <= support * comb(j, t):
            table: dict[int, int] = {}
            get = table.get
            for mask, v in above.items():
                rest = mask
                while rest:
                    b = rest & -rest
                    sub = mask ^ b
                    table[sub] = get(sub, 0) + v
                    rest ^= b
            d = carried * (j - t)
            if c != d:
                table = {m: v * c // d for m, v in table.items()}
            ranks[t] = table
        else:
            if decoded is None:
                decoded = [([1 << x for x in lst.members], u) for lst, u in units.items()]
            table = ranks[t]
            get = table.get
            for members, u in decoded:
                seed = c * u
                for sub in map(sum, combinations(members, t)):
                    table[sub] = get(sub, 0) + seed
        above, carried = table, c
    return ranks


def _sparse(n: int, k: int, s: int, ranks: list[dict[int, int]]) -> tuple[int, list[int]]:
    """The ranked transform on the tables; the best units and the masks holding them."""
    low = s
    for i, b in enumerate([1 << c for c in range(1, n + 1)]):
        if low < k - (n - i):
            ranks[low].clear()
            low += 1
        for t in range(k - 1, low - 1, -1):
            up = ranks[t + 1]
            get = up.get
            for x, v in ranks[t].items():
                y = x | b
                if y != x:
                    up[y] = get(y, 0) + v
    acc = ranks[k]
    best = max(acc.values())
    return best, [m for m, v in acc.items() if v == best]


def _packed(
    n: int, k: int, ranks: list[dict[int, int]], width: int, guard: bool
) -> tuple[int, list[int]]:
    """The transform on the packed lattice; the best units and the masks holding them.

    With ``guard`` the lanes hold residues mod 2**(8 * width - 1), and every
    step clears each lane's top bit. Candidate c is bit c of a mask and bit
    c - 1 of a lane index.
    """
    word = _WORDS[width]
    size = width << n
    data = bytearray(size)
    modulus = 1 << 8 * width - 1
    with memoryview(data).cast(word) as lanes:
        for table in ranks:
            for mask, v in table.items():
                lanes[mask >> 1] = v % modulus if guard else v
    x = int.from_bytes(data, "little")
    # each spent copy of the lattice is freed at once: a few are live together
    del data
    if guard:
        keep = int.from_bytes((b"\xff" * (width - 1) + b"\x7f") * (1 << n), "little")
    # Candidate b's step adds each lane without b into its union with b:
    # x += (x << shift) & with_b, where with_b is all ones in the lanes with
    # b. The top candidate's lanes are the upper half, and the lanes with
    # b are those whose index changes bit b + 1 when 2**b is added.
    half = 4 * size
    with_b = ((1 << half) - 1) << half
    for b in range(n - 1, -1, -1):
        shift = 8 * width << b
        if b < n - 1:
            with_b ^= with_b >> shift
        x += (x << shift) & with_b
        if guard:
            x &= keep
    del with_b
    data = x.to_bytes(size, "little")
    del x
    lanes = memoryview(data).cast(word)
    # The lattice read as rows of 2**low lanes: a row's k-sets are its lanes
    # whose column index has the k - (row popcount) bits left.
    low = n // 2
    step = 1 << low
    columns: list[list[int]] = [[] for _ in range(low + 1)]
    for x in range(step):
        columns[x.bit_count()].append(x)
    # a repeated first column keeps every pick a tuple, even of one lane
    pick = [itemgetter(*xs, xs[0]) for xs in columns]
    rows = [(high, k - high.bit_count()) for high in range(0, 1 << n, step)
            if 0 <= k - high.bit_count() <= low]
    values = [pick[rest](lanes[high:high + step]) for high, rest in rows]
    tops = list(map(max, values))
    best = max(tops)
    # only a row whose maximum is the best value holds a winner
    return best, [(high | x) << 1 for (high, rest), got, top in zip(rows, values, tops)
                  if top == best for x, v in zip(columns[rest], got) if v == best]
