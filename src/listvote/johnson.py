"""Geometry of the list space: distance, rings, balls, ring growth.

Voters submit j-element subsets ("lists") of the candidate pool {1..n};
the outcome is a k-element subset (a "committee"). Two lists are at
distance m when they differ in exactly m members, i.e. share j - m. This
is the graph metric of the Johnson graph J(n, j), but no graph is ever
materialized: rings and balls are generated by direct combinatorial
construction, and the distance is closed-form.

Candidates are 1-based everywhere. All values are immutable and all
functions pure, so everything here is safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from .errors import ParameterError
from .exactnum import binomial


@dataclass(frozen=True, order=True)
class CandidateSubset:
    """A set of candidates in canonical sorted form.

    Used for both voter lists and committees. Ordering is lexicographic
    by member indices, which is the order winners are reported in.
    """

    members: tuple[int, ...]
    mask: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        members = tuple(sorted(self.members))
        if len(set(members)) != len(members):
            raise ParameterError(f"duplicate candidates in {members}")
        if members and members[0] < 1:
            raise ParameterError(f"candidates must be >= 1, got {members}")
        mask = 0
        for c in members:
            mask |= 1 << c
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "mask", mask)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, candidate: int) -> bool:
        return bool(self.mask >> candidate & 1) if candidate >= 0 else False

    def intersection_size(self, other: "CandidateSubset") -> int:
        return (self.mask & other.mask).bit_count()

    def issubset(self, other: "CandidateSubset") -> bool:
        return self.mask & ~other.mask == 0

    def __str__(self) -> str:
        return "{" + ",".join(str(c) for c in self.members) + "}"


def parse_members(text: str) -> tuple[int, ...]:
    """The candidates named by "1,2,3" or "{1,2,3}", sorted, with no mask built.

    A caller that knows n range-checks them before building a
    :class:`CandidateSubset`, whose mask is as wide as its largest member.
    """
    s = text.strip().lstrip("{").rstrip("}")
    if not s:
        return ()
    try:
        return tuple(sorted(int(p) for p in s.split(",")))
    except ValueError as exc:
        raise ParameterError(f"cannot parse candidate set {text!r}") from exc


@dataclass(frozen=True)
class ElectionParams:
    """Election shape: n candidates, committees of size k, lists of size j.

    Requires 1 <= j <= k < n. The derived ``diameter`` is the largest
    possible distance between two lists, min(j, n - j), and ``max_class``
    the most members of one list a committee can miss, min(j, n - k).
    """

    n: int
    k: int
    j: int

    def __post_init__(self):
        if not 1 <= self.j <= self.k < self.n:
            raise ParameterError(
                f"need 1 <= j <= k < n, got n={self.n} k={self.k} j={self.j}"
            )

    @property
    def diameter(self) -> int:
        return min(self.j, self.n - self.j)

    @property
    def max_class(self) -> int:
        return min(self.j, self.n - self.k)


def validate_list(v: CandidateSubset, params: ElectionParams) -> None:
    if len(v) != params.j:
        raise ParameterError(f"{v} is not a {params.j}-element list")
    if v.members and v.members[-1] > params.n:
        raise ParameterError(f"{v} has candidates outside 1..{params.n}")


def validate_committee(c: CandidateSubset, params: ElectionParams) -> None:
    if len(c) != params.k:
        raise ParameterError(f"{c} is not a {params.k}-element committee")
    if c.members and c.members[-1] > params.n:
        raise ParameterError(f"{c} has candidates outside 1..{params.n}")


def distance(v: CandidateSubset, w: CandidateSubset) -> int:
    """Number of members of ``v`` not in ``w`` (and vice versa)."""
    if len(v) != len(w):
        raise ParameterError(f"distance needs equal-size lists, got {len(v)} and {len(w)}")
    return len(v) - v.intersection_size(w)


def ring_size(params: ElectionParams, r: int) -> int:
    """Number of lists at distance exactly r from any fixed list.

    A list at distance r keeps j - r members of the center and picks r
    replacements outside it: C(j, j-r) * C(n-j, r).
    """
    if not 0 <= r <= params.diameter:
        raise ParameterError(f"ring index {r} outside 0..{params.diameter}")
    return binomial(params.j, params.j - r) * binomial(params.n - params.j, r)


def ring(center: CandidateSubset, r: int, params: ElectionParams) -> set[CandidateSubset]:
    """All lists at distance exactly r from ``center``."""
    validate_list(center, params)
    if not 0 <= r <= params.diameter:
        raise ParameterError(f"ring index {r} outside 0..{params.diameter}")
    outside = [c for c in range(1, params.n + 1) if c not in center]
    out: set[CandidateSubset] = set()
    for kept in combinations(center.members, params.j - r):
        for added in combinations(outside, r):
            out.add(CandidateSubset(kept + added))
    return out


def ball(center: CandidateSubset, radius: int, params: ElectionParams) -> set[CandidateSubset]:
    """All lists within distance ``radius`` of ``center``.

    Covers the whole list space exactly when the radius reaches the
    diameter.
    """
    if not 0 <= radius <= params.diameter:
        raise ParameterError(f"radius {radius} outside 0..{params.diameter}")
    out: set[CandidateSubset] = set()
    for r in range(radius + 1):
        out |= ring(center, r, params)
    return out


def ring_monotone_threshold(params: ElectionParams) -> Fraction:
    """Largest r (as an exact fraction) up to which rings keep growing.

    Ring sizes satisfy |R_r| <= |R_{r+1}| if and only if
    r <= (n*j - j^2 - 1) / (n + 2), equivalently
    (j - r)(n - j - r) >= (r + 1)^2.
    """
    return Fraction(params.n * params.j - params.j * params.j - 1, params.n + 2)


def iter_lists(params: ElectionParams) -> Iterator[CandidateSubset]:
    """All j-element lists over {1..n} in lexicographic order."""
    for members in combinations(range(1, params.n + 1), params.j):
        yield CandidateSubset(members)


def iter_committees(params: ElectionParams) -> Iterator[CandidateSubset]:
    """All k-element committees over {1..n} in lexicographic order."""
    for members in combinations(range(1, params.n + 1), params.k):
        yield CandidateSubset(members)
