"""Closed-form guarantees and the exact worst case over concentric voters.

The central object is the ring-coverage table: entry [r][m] is the
fraction of the lists on ring r (about a center list v) contained in any
committee missing exactly m members of v. Committees with the same m form
a class and share that fraction, so a concentric distribution's best
committee is read off the table, and the worst case over all concentric
distributions on a ball is a tiny exact linear program.

Everything is pure computation over immutable tables; results are exact
Fractions throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import HypothesisViolation, ParameterError
from .exactnum import binomial, format_rational
from .johnson import ElectionParams, ring_monotone_threshold, ring_size


@dataclass(frozen=True)
class WorstCaseResult:
    """Exact minimax over concentric distributions on a ball.

    ``value`` is the smallest achievable best-committee approval,
    ``weights`` the minimizing ring masses (indices 0..radius), and
    ``achieving_class`` the smallest class index attaining the maximum.
    """

    value: Fraction
    weights: tuple[Fraction, ...]
    achieving_class: int

    def to_dict(self) -> dict:
        return {
            "value": format_rational(self.value),
            "weights": [format_rational(w) for w in self.weights],
            "achieving_class": self.achieving_class,
        }


@dataclass(frozen=True)
class CheckedCell:
    label: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a validator sweep: one line per checked cell."""

    name: str
    cells: tuple[CheckedCell, ...]

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


def ring_coverage(params: ElectionParams) -> tuple[tuple[Fraction, ...], ...]:
    """The coverage table: one row per ring 0..diameter, one column per
    class 0..max_class, every entry in [0, 1].

    entry[r][m] = C(j-m, j-r) * C(k+m-j, r) / ring_size(params, r):
    a class-m committee keeps j-m center members and k+m-j outsiders, and
    a ring-r list inside it must take j-r of the former and r of the
    latter, so the entry is 0 when r < m. The equivalent factorial form
    breaks down at degenerate indices; the binomial form with zero
    extension is total.
    """
    k, j = params.k, params.j
    rows = []
    for r in range(params.diameter + 1):
        den = ring_size(params, r)
        rows.append(
            tuple(
                Fraction(binomial(j - m, j - r) * binomial(k + m - j, r), den)
                for m in range(params.max_class + 1)
            )
        )
    return tuple(rows)


def concentric_approval(
    weights: Sequence[Fraction],
    m: int,
    table: Sequence[Sequence[Fraction]],
) -> Fraction:
    """Approval proportion of any class-m committee under a concentric distribution.

    With ring masses w_r, every committee in class m is approved by
    exactly sum_r w_r * entry[r][m] of the voters. ``table`` is a
    :func:`ring_coverage` table; its shape gives the diameter and the
    class range.
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


def worst_case_concentric(params: ElectionParams, radius: int) -> WorstCaseResult:
    """Exact minimax best-committee approval over concentric ball distributions.

    Minimizes, over ring-weight vectors (w_0..w_radius >= 0 summing
    to 1), the maximum t over classes m of sum_r w_r * entry[r][m].
    Substituting y = w / t turns this into max sum(y) subject to
    sum_r entry[r][m] * y_r <= 1 for every class m and y >= 0,
    whose slack basis is feasible, so an exact simplex over Fractions
    starts there; at the optimum t = 1 / sum(y) and w = y * t. Among
    optimal points the lexicographically smallest w is kept: the
    objective is the vector (sum(y), -y_0, ..., -y_radius) compared
    lexicographically, a column enters only when its reduced-cost vector
    is lexicographically positive, and Bland's smallest-index rule picks
    both the entering column and the leaving row, so the loop cannot
    cycle. Within the guaranteed-radius regime the optimum is all mass on
    the outermost ring and the value equals :func:`ball_floor`; beyond it
    this is the sanctioned tool.

    Any list size and any radius in 0..diameter is accepted; another radius
    raises ParameterError. At the diameter the ball is the whole list
    space and the value is :func:`global_floor`.
    """
    params.check_radius(radius)
    table = ring_coverage(params)
    classes = range(params.max_class + 1)
    size, width = radius + 1, radius + 1 + len(classes)
    one, zero = Fraction(1), Fraction(0)
    # One row per class (every class 0..max_class is nonempty, since
    # C(j, j-m) >= 1 and 0 <= k+m-j <= n-j): coverage of y_0..y_radius,
    # the slacks, then the right-hand side 1. Column q < size is y_q,
    # the others are slacks.
    rows = [
        [table[r][m] for r in range(size)]
        + [one if c == m else zero for c in classes]
        + [one]
        for m in classes
    ]
    # Reduced costs of sum(y), -y_0, ..., -y_radius, in that order.
    costs = [[one] * size + [zero] * (width - size + 1)] + [
        [-one if q == r else zero for q in range(width + 1)] for r in range(size)
    ]
    basis = list(range(size, width))
    while True:
        entering = next(
            (q for q in range(width) if next((c[q] for c in costs if c[q]), 0) > 0),
            None,
        )
        if entering is None:
            break
        # no coefficient is negative and every y_r has a positive one, so
        # the feasible region is bounded and some row limits every column
        p = min(
            (i for i, row in enumerate(rows) if row[entering] > 0),
            key=lambda i: (rows[i][-1] / rows[i][entering], basis[i]),
        )
        pivot = rows[p][entering]
        rows[p] = prow = [x / pivot if x else x for x in rows[p]]
        for row in rows + costs:
            f = row[entering]
            if f and row is not prow:
                row[:] = [a - f * b if b else a for a, b in zip(row, prow)]
        basis[p] = entering
    y = [zero] * size
    for i, q in enumerate(basis):
        if q < size:
            y[q] = rows[i][-1]
    t = 1 / sum(y)
    weights = tuple(v * t for v in y)
    achieving = min(m for m in classes if concentric_approval(weights, m, table) == t)
    return WorstCaseResult(value=t, weights=weights, achieving_class=achieving)
