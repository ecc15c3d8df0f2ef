"""Deliberately naive reference implementations for cross-checking.

These share only the basic value types with the optimized code paths, never
their internals: no subset-sum transform, no simplex, no coverage table of
their own. The approval of one committee is a sum over the support, and a
class's approval under a concentric distribution is a weighted sum down
one column of a coverage table the caller passes in; the committee classes
(the committees missing m members of a center list) are counted by closed
forms over binomials, checked in the tests against enumeration.
Single-threaded, guarded to small sizes, determinism over speed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from .ballots import VoterDistribution
from .errors import ParameterError
from .exactnum import binomial
from .johnson import CandidateSubset, ElectionParams
from .tally import TallyResult
from .theory import WorstCaseResult

BRUTE_MAX_N = 20
VERTEX_MAX_N = 12


def _approval_sum(support: list[tuple[int, Fraction]], cmask: int, s: int) -> Fraction:
    """Total weight of the (list mask, weight) pairs meeting ``cmask`` in at least s members."""
    return sum((w for mask, w in support if (mask & cmask).bit_count() >= s), Fraction(0))


def approval(dist: VoterDistribution, committee: CandidateSubset) -> Fraction:
    """Total weight of lists entirely contained in ``committee``: threshold s = j."""
    return threshold_approval(dist, committee, dist.params.j)


def threshold_approval(dist: VoterDistribution, committee: CandidateSubset, s: int) -> Fraction:
    """Total weight of lists sharing at least ``s`` members with ``committee``.

    ``s = j`` reduces exactly to :func:`approval`; ``s = 0`` is 1.
    """
    p = dist.params
    if len(committee) != p.k:
        raise ParameterError(f"{committee} is not a {p.k}-element committee")
    if committee.members and committee.members[-1] > p.n:
        raise ParameterError(f"{committee} has candidates outside 1..{p.n}")
    if not 0 <= s <= p.j:
        raise ParameterError(f"threshold {s} outside 0..{p.j}")
    return _approval_sum([(lst.mask, w) for lst, w in dist.items()], committee.mask, s)


def concentric_approval(
    weights: Sequence[Fraction],
    m: int,
    table: Sequence[Sequence[Fraction]],
) -> Fraction:
    """Approval proportion of any class-m committee under a concentric distribution.

    With ring masses w_r, every committee in class m is approved by
    exactly sum_r w_r * entry[r][m] of the voters. ``table`` is a
    :func:`listvote.theory.ring_coverage` table; its shape gives the
    diameter and the class range.
    """
    d, max_class = len(table) - 1, len(table[0]) - 1
    if not 0 <= m <= max_class:
        raise ParameterError(f"class index {m} outside 0..{max_class}")
    for r, w in enumerate(weights):
        if r > d and w != 0:
            raise ParameterError(f"weight {w} on ring {r} beyond diameter {d}")
    return sum(
        (w * table[r][m] for r, w in enumerate(weights) if r <= d),
        Fraction(0),
    )


def iter_committees(params: ElectionParams) -> Iterator[CandidateSubset]:
    """All k-element committees over {1..n} in lexicographic order."""
    for members in combinations(range(1, params.n + 1), params.k):
        yield CandidateSubset(members)


def brute_best(dist: VoterDistribution, s: int | None = None) -> TallyResult:
    """Best committee by double loop: every committee against every support list."""
    p = dist.params
    if p.n > BRUTE_MAX_N:
        raise ParameterError(f"brute force guarded to n <= {BRUTE_MAX_N}, got n={p.n}")
    if s is None:
        s = p.j
    if not 0 <= s <= p.j:
        raise ParameterError(f"threshold {s} outside 0..{p.j}")
    support = [(lst.mask, w) for lst, w in dist.items()]
    best: Fraction | None = None
    winners: list[tuple[int, ...]] = []
    for members in combinations(range(1, p.n + 1), p.k):
        cmask = 0
        for c in members:
            cmask |= 1 << c
        value = _approval_sum(support, cmask, s)
        if best is None or value > best:
            best, winners = value, [members]
        elif value == best:
            winners.append(members)
    assert best is not None
    return TallyResult(best, tuple(CandidateSubset(m) for m in winners), "brute")


def class_of(committee: CandidateSubset, center: CandidateSubset) -> int:
    """Number of members of ``center`` missing from ``committee``."""
    return len(center) - committee.intersection_size(center)


def class_size(params: ElectionParams, m: int) -> int:
    """Number of committees missing exactly m members of a fixed list.

    Choose which j-m center members stay, then fill the remaining
    k+m-j seats outside the center: C(j, j-m) * C(n-j, k+m-j). The
    classes m = 0..max_class partition the committee space.
    """
    if not 0 <= m <= params.max_class:
        raise ParameterError(f"class index {m} outside 0..{params.max_class}")
    return binomial(params.j, params.j - m) * binomial(params.n - params.j, params.k + m - params.j)


def committees_in_class_containing(params: ElectionParams, r: int, m: int) -> int:
    """Class-m committees containing one fixed list at distance r from the center.

    Such a committee keeps r-m of the r center members the list dropped
    and fills its remaining seats away from both sets:
    C(r, r-m) * C(n-j-r, k-j+m-r). Zero when no such committee exists
    (in particular whenever r < m).
    """
    params.check_radius(r)
    if not 0 <= m <= params.max_class:
        raise ParameterError(f"class index {m} outside 0..{params.max_class}")
    n, k, j = params.n, params.k, params.j
    return binomial(r, r - m) * binomial(n - j - r, k - j + m - r)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` non-negative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _ring_profiles(params: ElectionParams, radius: int) -> set[tuple[int, tuple[Fraction, ...]]]:
    """Every committee's (class, ring-containment profile), by raw enumeration.

    The class is the number of center members the committee misses; the
    profile holds, per ring 0..radius about the center, the fraction of
    that ring's lists the committee contains, found by direct subset
    tests. Identical pairs collapse to one.
    """
    n, k, j = params.n, params.k, params.j
    center = set(range(1, j + 1))
    rings: list[list[set[int]]] = [[] for _ in range(radius + 1)]
    for members in combinations(range(1, n + 1), j):
        d = j - len(center.intersection(members))
        if d <= radius:
            rings[d].append(set(members))
    profiles = set()
    for members in combinations(range(1, n + 1), k):
        cs = set(members)
        profile = tuple(
            Fraction(sum(1 for lst in rings[r] if lst <= cs), len(rings[r]))
            for r in range(radius + 1)
        )
        profiles.add((j - len(center & cs), profile))
    return profiles


def _dot(profile: tuple[Fraction, ...], weights: tuple[Fraction, ...]) -> Fraction:
    return sum((f * w for f, w in zip(profile, weights)), Fraction(0))


def brute_minimax_grid(
    params: ElectionParams,
    radius: int,
    grid_denominator: int,
) -> Fraction:
    """Grid search for the worst concentric distribution on a ball.

    Evaluates every ring-weight vector with entries i/grid_denominator
    summing to 1 and returns the smallest best-committee approval seen.
    Ring containment counts are recomputed here by raw enumeration, so
    the value upper-bounds the true minimax and must never fall below the
    exact solver's answer; the two agree whenever the optimizer's weights
    land on the grid.
    """
    if radius > 3:
        raise ParameterError(f"grid search guarded to radius <= 3, got {radius}")
    if grid_denominator > 60 or grid_denominator < 1:
        raise ParameterError(f"grid denominator must be 1..60, got {grid_denominator}")
    if not 0 <= radius <= params.diameter:
        raise ParameterError(f"radius {radius} outside 0..{params.diameter}")
    profiles = {profile for _, profile in _ring_profiles(params, radius)}

    best_min: Fraction | None = None
    d = grid_denominator
    for numerators in _compositions(d, radius + 1):
        weights = tuple(Fraction(i, d) for i in numerators)
        top = max(_dot(profile, weights) for profile in profiles)
        if best_min is None or top < best_min:
            best_min = top
    assert best_min is not None
    return best_min


def _solve_square(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Exact Gauss-Jordan solve; None when the system is singular."""
    size = len(rows)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


def brute_minimax_vertices(params: ElectionParams, radius: int) -> WorstCaseResult:
    """Exact worst concentric distribution on a ball, by vertex enumeration.

    Minimizes t over ring weights w_0..w_radius >= 0 summing to 1 with
    every committee's profile . w <= t. Each candidate vertex fixes some
    weights at zero and makes as many profiles tight as the remaining
    unknowns need; the feasible vertex with the smallest (t, w) wins, and
    the achieving class is the smallest class with a tight profile.
    Profiles come from raw enumeration, not the coverage table.
    """
    if params.n > VERTEX_MAX_N:
        raise ParameterError(
            f"vertex enumeration guarded to n <= {VERTEX_MAX_N}, got n={params.n}"
        )
    if radius > 3:
        raise ParameterError(f"vertex enumeration guarded to radius <= 3, got {radius}")
    if not 0 <= radius <= params.diameter:
        raise ParameterError(f"radius {radius} outside 0..{params.diameter}")
    classed = _ring_profiles(params, radius)
    profiles = sorted({profile for _, profile in classed})
    width = radius + 2  # ring weights plus the max level t

    best: tuple[Fraction, tuple[Fraction, ...]] | None = None
    for zero_count in range(radius + 1):
        for zero_set in combinations(range(radius + 1), zero_count):
            for tight in combinations(profiles, radius + 1 - zero_count):
                rows = [[Fraction(int(c == r)) for c in range(width)] for r in zero_set]
                rows.append([Fraction(1)] * (radius + 1) + [Fraction(0)])
                rows.extend(list(profile) + [Fraction(-1)] for profile in tight)
                rhs = [Fraction(0)] * zero_count + [Fraction(1)] + [Fraction(0)] * len(tight)
                sol = _solve_square(rows, rhs)
                if sol is None:
                    continue
                weights, t = tuple(sol[:-1]), sol[-1]
                if any(w < 0 for w in weights):
                    continue
                if any(_dot(profile, weights) > t for profile in profiles):
                    continue
                if best is None or (t, weights) < best:
                    best = (t, weights)
    assert best is not None  # all mass on ring 0 is always a feasible vertex
    t, weights = best
    achieving = min(m for m, profile in classed if _dot(profile, weights) == t)
    return WorstCaseResult(value=t, weights=weights, achieving_class=achieving)
