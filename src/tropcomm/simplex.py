"""Exact integer linear algebra and a small fraction-free simplex solver.

Feasibility of a homogeneous system {E w = 0, S w < 0} is decided on its
reduced form: E as pivot rows built by ``add_pivot`` and S eliminated
against them, so each strict row lives on the free (non-pivot) columns.
There the LP maximizes an auxiliary slack t subject to S z + t <= 0 and
t <= 1: the optimum is 1 exactly when the open cone is nonempty (scale any
strict solution), and the optimal vertex z is lifted back through the pivot
rows to an interior rational witness.  Bland's rule guarantees termination
on the degenerate start.

All pivoting is on integer rows.  Elimination clears a column by
cross-multiplying and divides each new row by the gcd of its entries; the
simplex tableau does the same (Edmonds 1967; Bareiss 1968).  The free z is
split as z+ - z-, but column z-_j starts as the negated column z+_j and
every row operation is linear, so it stays that: the tableau stores only
z+, t, the slacks and the rhs, and Bland's rule and the ratio test read
z-_j as -z+_j.

No ``Fraction`` is built: a witness w is returned as integers W with a
positive denominator d, w = W/d.  The system is homogeneous, so W itself is
a witness too (a positive multiple of one).
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from typing import Optional, Sequence

__all__ = [
    "UnboundedNormalizationError",
    "primitive",
    "eliminate",
    "add_pivot",
    "lift_witness",
    "strict_feasibility",
]

Row = tuple[int, ...]
Witness = tuple[Row, int]  # (W, d): the rational point W/d, d > 0


class UnboundedNormalizationError(RuntimeError):
    """The slack-bounded LP reported unbounded; internal inconsistency."""


def primitive(row: Sequence[int]) -> Row:
    """Divide an integer row by the gcd of its entries (0 row unchanged)."""
    g = 0
    for x in row:
        g = gcd(g, abs(x))
        if g == 1:
            return tuple(row)
    if g <= 1:
        return tuple(row)
    return tuple(x // g for x in row)


def eliminate(row: Sequence[int], pivots: dict[int, Row]) -> Row:
    """Reduce an integer row against integer pivot rows (exact, fraction-free)."""
    r = list(row)
    for c in sorted(pivots):
        if r[c]:
            p = pivots[c]
            rc, pc = r[c], p[c]
            r = [a * pc - b * rc for a, b in zip(r, p)]
    return primitive(r)


def add_pivot(pivots: dict[int, Row], row: Sequence[int]) -> Optional[int]:
    """Insert a reduced nonzero row; returns its pivot column (None if zero)."""
    r = eliminate(row, pivots)
    if not any(r):
        return None
    c = next(i for i, x in enumerate(r) if x)
    if r[c] < 0:
        r = tuple(-x for x in r)
    for col, p in list(pivots.items()):
        if p[c]:
            pc, rc = p[c], r[c]
            pivots[col] = primitive([a * rc - b * pc for a, b in zip(p, r)])
    pivots[c] = r
    return c


def _simplex_max_t(strict_rows: Sequence[Sequence[int]], d: int) -> tuple[int, list[int], int]:
    """max t s.t. row.z + t <= 0 for each row, t <= 1, z free; Bland's rule.

    Returns the optimal vertex as integers (T, Z) over one positive common
    denominator: t = T/den, z = Z/den.

    Fraction-free: row i of the tableau is a positive multiple of its
    normalised form, with its basic variable's coefficient in place of the
    leading 1.  Every update scales by the positive pivot and divides by the
    row's gcd, so signs, ratios and the Bland path are those of the
    normalised rational tableau.  Variables are numbered in Bland's order
    z+ (0..d-1), z- (d..2d-1), t (2d), slacks; the stored columns are z+,
    t, slacks and rhs, and z-_j is read as the negated z+_j column (the
    gcd of a row is the same with or without the negated copy)."""
    m = len(strict_rows)
    nrows = m + 1
    tab: list[list[int]] = []
    for i, row in enumerate(strict_rows):
        tab.append(list(row) + [1] + [1 if j == i else 0 for j in range(nrows)] + [0])
    tab.append([0] * d + [1] + [1 if j == m else 0 for j in range(nrows)] + [1])
    basis = [2 * d + 1 + i for i in range(nrows)]
    cost = [0] * (d + nrows + 2)
    cost[d] = -1  # maximize t

    while True:
        reduced_costs = chain(cost[:d], (-c for c in cost[:d]), cost[d:-1])
        enter = next((j for j, c in enumerate(reduced_costs) if c < 0), -1)
        if enter < 0:
            break
        col, sign = _stored(enter, d)
        leave = -1
        for i in range(nrows):
            a = sign * tab[i][col]
            if a > 0:
                if leave < 0:
                    leave, a_leave = i, a
                    continue
                # rhs_i / a < rhs_leave / a_leave, with both denominators > 0
                lhs, rhs = tab[i][-1] * a_leave, tab[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, a_leave = i, a
        if leave < 0:
            raise UnboundedNormalizationError("t <= 1 should bound the program")
        prow = tab[leave]
        for i in range(nrows):
            f = sign * tab[i][col]
            if i != leave and f:
                tab[i] = _fraction_free(tab[i], prow, a_leave, f)
        f = sign * cost[col]
        if f:
            cost = _fraction_free(cost, prow, a_leave, f)
        basis[leave] = enter

    # each basic z+, z- and t is rhs / coefficient, with coefficient > 0
    vertex = []
    for b, row in zip(basis, tab):
        if b <= 2 * d:
            col, sign = _stored(b, d)
            vertex.append((b, row[-1], sign * row[col]))
    den = lcm(*(coef for _, _, coef in vertex))
    x = [0] * (2 * d + 1)
    for b, rhs, coef in vertex:
        x[b] = rhs * (den // coef)
    return x[2 * d], [x[j] - x[d + j] for j in range(d)], den


def _stored(j: int, d: int) -> tuple[int, int]:
    """The stored column of variable j (Bland's numbering) and its sign."""
    return (j, 1) if j < d else (j - d, -1 if j < 2 * d else 1)


def _fraction_free(row: list[int], prow: list[int], piv: int, f: int) -> list[int]:
    """piv*row - f*prow divided by its gcd: clears the pivot column (piv > 0)."""
    r = [piv * a - f * p for a, p in zip(row, prow)]
    g = gcd(*r)
    return [a // g for a in r] if g > 1 else r


def strict_feasibility(pivots: dict[int, Row], stricts: Sequence[Row], dim: int) -> Optional[Witness]:
    """A point w with E w = 0 and S w < 0 as (W, d), w = W/d, or None when
    there is none.

    ``pivots`` holds E reduced as ``add_pivot`` builds it; ``stricts`` are
    the rows of S, each nonzero and already reduced by ``eliminate`` against
    ``pivots``, so the LP reads them on the free columns only.  d is the
    lcm of the pivot leads times the LP vertex's denominator; W alone, a
    positive multiple of w, is a witness too."""
    if not stricts:
        return (0,) * dim, 1
    free = [c for c in range(dim) if c not in pivots]
    if not free:
        return None
    t, z, den = _simplex_max_t([tuple(r[f] for f in free) for r in stricts], len(free))
    if t <= 0:
        return None
    w, lead = lift_witness(z, pivots, free, dim)
    return w, lead * den


def lift_witness(z: Sequence[int], pivots: dict[int, Row], free: Sequence[int], dim: int) -> Witness:
    """The solution of the pivot rows with integer free coordinates ``z``,
    as (W, d) with d the lcm of the pivot leads: each pivot row p_c has
    only its own pivot column among the pivots, so
    W[c] = -sum(p_c[f] z_f) * (d / p_c[c]) and W[f] = z_f * d
    (back-substitution in integers)."""
    d = lcm(*(p[c] for c, p in pivots.items()))
    w = [0] * dim
    for f, zf in zip(free, z):
        w[f] = zf * d
    for c, p in pivots.items():
        w[c] = -sum(p[f] * zf for f, zf in zip(free, z) if zf) * (d // p[c])
    return tuple(w), d
