"""Closed-form guarantees and the exact worst case over concentric voters.

The central object is the ring-coverage table: entry [r][m] is the
fraction of the lists on ring r (about a center list v) contained in any
committee missing exactly m members of v. Committees with the same m form
a class and share that fraction, so a concentric distribution's best
committee is read off the table, and the worst case over all concentric
distributions on a ball is a tiny exact linear program.

Everything is pure computation over immutable tables. The linear program
is solved by a fraction-free simplex whose tableau holds only ints;
every result is an exact Fraction.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import HypothesisViolation, ParameterError
from .exactnum import binomial, format_rational
from .johnson import ElectionParams, ring_monotone_threshold, ring_size


class WorstCaseResult(namedtuple("WorstCaseResult", ["value", "weights", "achieving_class"])):
    """Exact minimax over concentric distributions on a ball.

    ``value`` is the smallest achievable best-committee approval,
    ``weights`` the minimizing ring masses (indices 0..radius), and
    ``achieving_class`` the smallest class index attaining the maximum.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "value": format_rational(self.value),
            "weights": [format_rational(w) for w in self.weights],
            "achieving_class": self.achieving_class,
        }


class CheckedCell(namedtuple("CheckedCell", ["label", "ok", "detail"], defaults=[""])):
    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport", ["name", "cells"])):
    """Outcome of a validator sweep: one line per checked cell."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.cells)


def global_floor(params: ElectionParams) -> Fraction:
    """Guaranteed best-committee approval for any distribution: C(k,j)/C(n,j).

    This is the mean approval over all committees, so some committee
    always reaches it; the uniform distribution over all lists shows it
    is tight. When n - k < j it is built as the equal C(n-j,k-j)/C(n,k),
    by C(n,k) * C(k,j) = C(n,j) * C(n-j,k-j), so no binomial has a lower
    index above ``max_class``.
    """
    n, k, j = params.n, params.k, params.j
    if n - k < j:
        return Fraction(binomial(n - j, k - j), binomial(n, k))
    return Fraction(binomial(k, j), binomial(n, j))


def _class_lists(params: ElectionParams, r: int, m: int) -> int:
    """The ring-r lists inside one class-m committee: C(j-m, j-r) * C(k+m-j, r).

    The committee keeps j-m center members and k+m-j outsiders, and the
    list takes j-r of the former and r of the latter, so the count is 0
    when r < m. The binomial form with zero extension is total, where the
    factorial form breaks down at degenerate indices.
    """
    k, j = params.k, params.j
    return binomial(j - m, j - r) * binomial(k + m - j, r)


def ring_coverage(params: ElectionParams) -> tuple[tuple[Fraction, ...], ...]:
    """The coverage table: one row per ring 0..diameter, one column per
    class 0..max_class, every entry in [0, 1].

    entry[r][m] = :func:`_class_lists` (params, r, m) / ring_size(params, r),
    the share of ring r inside a class-m committee.
    """
    classes = range(params.max_class + 1)
    rows = []
    for r in range(params.diameter + 1):
        den = ring_size(params, r)
        rows.append(tuple(Fraction(_class_lists(params, r, m), den) for m in classes))
    return tuple(rows)


def ring_monotonicity_check(params: ElectionParams) -> VerificationReport:
    """Verify: |ring r| <= |ring r+1| exactly when r <= the growth threshold."""
    threshold = ring_monotone_threshold(params)
    cells = []
    for r in range(params.diameter):
        grows = ring_size(params, r) <= ring_size(params, r + 1)
        predicted = r <= threshold
        cells.append(
            CheckedCell(
                label=f"n={params.n} j={params.j} r={r}",
                ok=grows == predicted,
                detail=f"|R_{r}|={ring_size(params, r)} |R_{r + 1}|={ring_size(params, r + 1)} "
                f"threshold={format_rational(threshold)}",
            )
        )
    return VerificationReport("ring-monotonicity", tuple(cells))


def coverage_monotonicity_check(params: ElectionParams) -> VerificationReport:
    """Verify the class-monotonicity iff of the coverage table.

    For each non-vacuous cell, entry[r][m] >= entry[r][m+1] holds exactly
    when r <= j * (1 - (j-m)/(k+1)). Cells with m <= r <= min(D, k+m+1-j)
    are the valid ones: outside that range neither class m nor class m+1
    can contain any ring-r list and the comparison is vacuous.
    """
    table = ring_coverage(params)
    n, k, j = params.n, params.k, params.j
    cells = []
    for m in range(params.max_class):
        for r in range(m, min(params.diameter, k + m + 1 - j) + 1):
            holds = table[r][m] >= table[r][m + 1]
            predicted = r * (k + 1) <= j * (k + 1 + m - j)
            cells.append(
                CheckedCell(
                    label=f"n={n} k={k} j={j} r={r} m={m}",
                    ok=holds == predicted,
                    detail=f"entry[r][m]={format_rational(table[r][m])} "
                    f"entry[r][m+1]={format_rational(table[r][m + 1])}",
                )
            )
    return VerificationReport("coverage-monotonicity", tuple(cells))


def ball_floor_radius_limit(params: ElectionParams) -> Fraction:
    """Largest radius (exact) for which the ball floor is guaranteed."""
    j, k = params.j, params.k
    return Fraction(j * (k + 1 - j), k + 1)


def ball_floor(params: ElectionParams, radius: int) -> Fraction:
    """Guaranteed approval when all lists lie within ``radius`` of some list.

    Returns C(k-j, radius) / C(n-j, radius), valid for radius up to
    j * (1 - j/(k+1)); beyond that the guarantee is not claimed and a
    HypothesisViolation is raised (use :func:`worst_case_concentric`
    there instead). The extreme case is all mass on the outermost ring.
    """
    params.check_radius(radius)
    limit = ball_floor_radius_limit(params)
    if radius > limit:
        raise HypothesisViolation(
            f"radius {radius} exceeds the guaranteed regime "
            f"(limit {format_rational(limit)})"
        )
    return Fraction(
        binomial(params.k - params.j, radius),
        binomial(params.n - params.j, radius),
    )


def _lex_simplex(
    rows: list[list[int]], costs: list[list[int]]
) -> tuple[list[int], list[list[int]], int]:
    """Lexicographic simplex over integers, started at a slack basis.

    ``rows`` are the constraints, each ending in its right-hand side; the
    columns before it end in an identity block, one column per row, whose
    variables form the feasible starting basis. ``costs`` are reduced-cost
    rows of the same width, compared lexicographically: a column enters
    when its first nonzero cost is positive. Bland's smallest-index rule
    picks the entering column and the leaving row, so the loop cannot
    cycle; the caller must bound every column.

    Pivoting is fraction-free (Edmonds; the integer form lrs uses): every
    row other than the pivot row becomes (row * piv - row[q] * prow) // d,
    the pivot row is kept, and d becomes piv. Each entry stays an integer
    d times the rational tableau's, and d stays positive. Both lists are
    updated in place. Returns the final basis (the column basic in each
    row), the rows and d.
    """
    width = len(rows[0]) - 1
    basis = list(range(width - len(rows), width))
    d = 1
    while True:
        q = next(
            (q for q in range(width) if next((c[q] for c in costs if c[q]), 0) > 0),
            None,
        )
        if q is None:
            return basis, rows, d
        # smallest ratio rhs / row[q] over positive row[q], compared by
        # cross-multiplying; ties go to the smaller basic index
        p = None
        for i, row in enumerate(rows):
            a = row[q]
            if a > 0:
                if p is None:
                    p = i
                    continue
                left, right = row[-1] * rows[p][q], rows[p][-1] * a
                if left < right or (left == right and basis[i] < basis[p]):
                    p = i
        prow, piv = rows[p], rows[p][q]
        for table in (rows, costs):
            for i, row in enumerate(table):
                if row is prow:
                    continue
                f = row[q]
                if f:
                    table[i] = [(a * piv - f * b) // d for a, b in zip(row, prow)]
                else:
                    table[i] = [a * piv // d for a in row]
        basis[p] = q
        d = piv


def worst_case_concentric(params: ElectionParams, radius: int) -> WorstCaseResult:
    """Exact minimax best-committee approval over concentric ball distributions.

    Minimizes, over ring-weight vectors (w_0..w_radius >= 0 summing
    to 1), the maximum t over classes m of sum_r w_r * entry[r][m] (see
    :func:`ring_coverage`). Substituting y = w / t turns this into
    max sum(y) subject to sum_r entry[r][m] * y_r <= 1 for every class m
    and y >= 0, whose slack basis is feasible; at the optimum
    t = 1 / sum(y) and w = y * t. Among optimal points the
    lexicographically smallest w is kept: the objective is the vector
    (sum(y), -y_0, ..., -y_radius) compared lexicographically, solved by
    :func:`_lex_simplex`.

    The tableau holds only ints. Column r is scaled by |ring r|
    (y_r = |ring r| * y'_r), so the coverage entries become the counts
    :func:`_class_lists` and the costs +-|ring r|; a positive column
    scale keeps every reduced-cost sign and every ratio-test argmin, so
    the pivots are those of the rational tableau. Fractions appear only
    in the result, read off the final tableau: class m's approval is
    t * (1 - s_m) for its slack s_m. The achieving class is always 0:
    column 0 (y'_0) is nonzero only in class 0's row, since
    C(j-m, j) = 0 for m >= 1, and its cost is positive, so if class 0's
    row had slack, raising y'_0 would raise sum(y); at every optimum
    class 0 is tight. Within the guaranteed-radius regime the
    optimum is all mass on the outermost ring and the value equals
    :func:`ball_floor`; beyond it this is the sanctioned tool.

    Any list size and any radius in 0..diameter is accepted; another radius
    raises ParameterError. At the diameter the ball is the whole list
    space and the value is :func:`global_floor`.
    """
    params.check_radius(radius)
    classes = range(params.max_class + 1)
    size = radius + 1
    sizes = [ring_size(params, r) for r in range(size)]
    # One row per class (every class 0..max_class is nonempty, since
    # C(j, j-m) >= 1 and 0 <= k+m-j <= n-j): coverage of y'_0..y'_radius,
    # the slacks, then the right-hand side 1. Column q < size is y'_q,
    # the others are slacks. No coefficient is negative and every y'_r has
    # a positive one, so the feasible region is bounded.
    rows = [
        [_class_lists(params, r, m) for r in range(size)]
        + [1 if c == m else 0 for c in classes]
        + [1]
        for m in classes
    ]
    # Reduced costs of sum(y), -y_0, ..., -y_radius, in that order.
    width = size + len(classes)
    costs = [sizes + [0] * (width - size + 1)] + [
        [-sizes[r] if q == r else 0 for q in range(width + 1)] for r in range(size)
    ]
    basis, rows, d = _lex_simplex(rows, costs)
    mass = [0] * size
    for q, row in zip(basis, rows):
        if q < size:
            mass[q] = sizes[q] * row[-1]
    total = sum(mass)
    return WorstCaseResult(
        value=Fraction(d, total),
        weights=tuple(Fraction(x, total) for x in mass),
        achieving_class=0,
    )
