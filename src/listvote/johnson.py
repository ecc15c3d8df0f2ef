"""Geometry of the list space: distance, rings, balls, ring growth.

Voters submit j-element subsets ("lists") of the candidate pool {1..n};
the outcome is a k-element subset (a "committee"). Two lists are at
distance m when they differ in exactly m members, i.e. share j - m. This
is the graph metric of the Johnson graph J(n, j), but no graph is ever
materialized: rings are generated by direct combinatorial construction,
and the distance is closed-form. A ball is a lazy view: membership is one
popcount against its center, and only iterating it builds its lists, ring
by ring, so testing a support against a declared ball costs the support,
not the ball.

Candidates are 1-based everywhere. All values are immutable and all
functions pure, so everything here is safe to share across workers.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Set
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import ParameterError
from .exactnum import binomial

# A CandidateSubset is the record (members, mask); these read its fields
# where a C-level key or map is wanted.
members_of = itemgetter(0)
mask_of = itemgetter(1)


class CandidateSubset(tuple):
    """A set of candidates in canonical sorted form.

    Used for both voter lists and committees. The value is the tuple record
    ``(members, mask)``, with ``mask`` the OR of ``1 << c`` over the
    members, so it hashes, compares and sorts in C. Ordering is
    lexicographic by member indices, which is the order winners are
    reported in. ``len``, iteration and ``in`` see the members only.
    """

    __slots__ = ()
    members = property(members_of, doc="The candidates, sorted and distinct.")
    mask = property(mask_of, doc="The OR of ``1 << c`` over the members.")

    def __new__(cls, members: Iterable[int]) -> CandidateSubset:
        members = tuple(sorted(members))
        if len(set(members)) != len(members):
            raise ParameterError(f"duplicate candidates in {members}")
        if members and members[0] < 1:
            raise ParameterError(f"candidates must be >= 1, got {members}")
        mask = 0
        for c in members:
            mask |= 1 << c
        return tuple.__new__(cls, (members, mask))

    # ``CandidateSubset.unchecked((members, mask))`` is the subset of that
    # record, built by ``tuple.__new__`` itself, with no checks and no Python
    # call frame. The caller guarantees the contract the constructor would
    # enforce: ``members`` is sorted, distinct and within 1..n, and ``mask``
    # is the OR of ``1 << c`` over them. A wrong mask makes a subset that
    # compares unequal to the right one. Callers derive both from values
    # already proven:
    #
    # - ``loads_ballot_file``: a record's members after the range check, once
    #   the mask's bit count has shown them distinct;
    # - ``complete_short_lists``: an accepted entry plus center members it
    #   lacks;
    # - ``ring`` (so ``ball`` and every generator on them): center members
    #   plus candidates outside the center;
    # - ``best_committees``: the winners, decoded from their masks.
    #
    # Input from outside goes through ``CandidateSubset(...)``.
    unchecked = classmethod(tuple.__new__)

    def __reduce__(self):  # pickle and copy rebuild through the checked constructor
        return type(self), (self.members,)

    def __repr__(self) -> str:
        return f"CandidateSubset(members={self.members!r})"

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, candidate: int) -> bool:
        return bool(self.mask >> candidate & 1) if candidate >= 0 else False

    def intersection_size(self, other: CandidateSubset) -> int:
        return (self.mask & other.mask).bit_count()

    def issubset(self, other: CandidateSubset) -> bool:
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


class _CheckedRecord:
    """Base of a tuple record whose copies, pickles and ``_make`` run its constructor."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(self)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make too
        return cls(*iterable)


class ElectionParams(_CheckedRecord, namedtuple("ElectionParams", ["n", "k", "j"])):
    """Election shape: n candidates, committees of size k, lists of size j.

    Requires 1 <= j <= k < n. The derived ``diameter`` is the largest
    possible distance between two lists, min(j, n - j), and ``max_class``
    the most members of one list a committee can miss, min(j, n - k).
    The value is the named tuple record ``(n, k, j)``.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, j: int) -> ElectionParams:
        if not 1 <= j <= k < n:
            raise ParameterError(f"need 1 <= j <= k < n, got n={n} k={k} j={j}")
        return tuple.__new__(cls, (n, k, j))

    @property
    def diameter(self) -> int:
        return min(self.j, self.n - self.j)

    def check_radius(self, r: int) -> None:
        """The radius rule of every ball and ring: raise unless 0 <= r <= diameter."""
        if not 0 <= r <= self.diameter:
            raise ParameterError(f"radius {r} outside 0..{self.diameter}")

    @property
    def max_class(self) -> int:
        return min(self.j, self.n - self.k)


def validate_list(v: CandidateSubset, params: ElectionParams) -> None:
    if len(v) != params.j:
        raise ParameterError(f"{v} is not a {params.j}-element list")
    if v.members and v.members[-1] > params.n:
        raise ParameterError(f"{v} has candidates outside 1..{params.n}")


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
    params.check_radius(r)
    return binomial(params.j, params.j - r) * binomial(params.n - params.j, r)


def ring(center: CandidateSubset, r: int, params: ElectionParams) -> set[CandidateSubset]:
    """All lists at distance exactly r from ``center``, for r in 0..diameter."""
    validate_list(center, params)
    params.check_radius(r)
    outside = [c for c in range(1, params.n + 1) if c not in center]
    # Kept members come from the checked center and added ones from outside
    # it, so each list's members are distinct and its mask is the two masks' OR.
    additions = [(added, sum(1 << c for c in added)) for added in combinations(outside, r)]
    out: set[CandidateSubset] = set()
    for kept in combinations(center.members, params.j - r):
        kept_mask = sum(1 << c for c in kept)
        for added, added_mask in additions:
            members = tuple(sorted(kept + added))
            out.add(CandidateSubset.unchecked((members, kept_mask | added_mask)))
    return out


class Ball(Set):
    """The lists within distance ``radius`` of ``center``: a read-only set view.

    Nothing is built up front. ``in`` is one popcount: a value is a member
    when it is a :class:`CandidateSubset` of j candidates within 1..n with
    at most ``radius`` of them outside the center; :meth:`strays` applies
    that distance rule alone to lists already proven j-lists of 1..n.
    Iteration builds the lists ring by ring, 0 to ``radius``, and ``len``
    sums :func:`ring_size`.
    The set operators (``&``, ``|``, ``-``, ``^``) each return a plain
    ``set``, and ``==`` compares with any set by members, either way round.
    """

    __slots__ = ("center", "radius", "params")

    def __init__(self, center: CandidateSubset, radius: int, params: ElectionParams):
        params.check_radius(radius)
        validate_list(center, params)
        self.center, self.radius, self.params = center, radius, params

    def __contains__(self, lst: object) -> bool:
        if not isinstance(lst, CandidateSubset):
            return False
        mask = lst.mask
        return (mask.bit_count() == self.params.j and not mask >> (self.params.n + 1)
                and (mask & ~self.center.mask).bit_count() <= self.radius)

    def strays(self, lists: Iterable[CandidateSubset]) -> list[CandidateSubset]:
        """The lists among ``lists`` farther than ``radius`` from the center, in order.

        Each list must already be proven a j-list of 1..n (as every support
        list of a :func:`~listvote.ballots.normalize` result is), so the test
        is one popcount per list: its members outside the center.
        """
        outside, radius = ~self.center.mask, self.radius
        return [lst for lst in lists if (lst.mask & outside).bit_count() > radius]

    def __iter__(self) -> Iterator[CandidateSubset]:
        for r in range(self.radius + 1):
            yield from ring(self.center, r, self.params)

    def __len__(self) -> int:
        return sum(ring_size(self.params, r) for r in range(self.radius + 1))

    @classmethod
    def _from_iterable(cls, it: Iterable[CandidateSubset]) -> set[CandidateSubset]:
        return set(it)

    def __repr__(self) -> str:
        return f"Ball(center={self.center!r}, radius={self.radius!r}, params={self.params!r})"


def ball(center: CandidateSubset, radius: int, params: ElectionParams) -> Ball:
    """All lists within distance ``radius`` of ``center``, for radius in 0..diameter.

    A lazy :class:`Ball` view: the center and radius are checked here, and
    no list is built until the view is iterated. It covers the whole list
    space exactly when the radius reaches the diameter.
    """
    return Ball(center, radius, params)


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
