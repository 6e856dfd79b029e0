"""Exact integer linear algebra and a small fraction-free simplex solver.

Feasibility of a homogeneous system {E w = 0, S w < 0} is decided on its
reduced form: E as pivot rows built by ``add_pivot`` and S eliminated
against them, so each strict row lives on the free (non-pivot) columns.
There the LP maximizes an auxiliary slack t subject to S z + t <= 0 and
t <= 1: the optimum is 1 exactly when the open cone is nonempty (scale any
strict solution), and the optimal vertex z is lifted back through the pivot
rows to an interior rational witness.  Bland's rule guarantees termination
on the degenerate start.

All pivoting is on integer rows, by one step: clear a column by
cross-multiplying with a positive pivot, then divide the new row by the gcd
of its entries (Edmonds 1967; Bareiss 1968).  Elimination, the
back-reduction of the pivot rows and the simplex tableau all use it.  The
tableau is condensed, as in Avis's lrs dictionary: a row stores the
nonbasic columns, its basic variable's coefficient and the rhs, and no
identity column.  The free z is split as z+ - z-, but column z-_j starts
as the negated column z+_j and every row operation is linear, so it stays
that: one column serves the pair while both are nonbasic, and Bland's rule
and the ratio test read z-_j as -z+_j.

No ``Fraction`` is built: a witness w is returned as integers W with a
positive denominator d, w = W/d.  The system is homogeneous, so W itself is
a witness too (a positive multiple of one).
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

__all__ = [
    "eliminate",
    "add_pivot",
    "lift_witness",
    "strict_feasibility",
]

Row = tuple[int, ...]
Witness = tuple[Row, int]  # (W, d): the rational point W/d, d > 0


def eliminate(row: Sequence[int], pivots: dict[int, Row]) -> Row:
    """Reduce an integer row against pivot rows as ``add_pivot`` builds them
    (exact, fraction-free): the primitive positive multiple of row +
    span(pivots) that vanishes on the pivot columns.  Each pivot row is
    zero on the other pivot columns, so that row is unique and the pivots
    may be read in any order."""
    g = gcd(*row)
    r = tuple(x // g for x in row) if g > 1 else row
    for c, p in pivots.items():
        if r[c]:
            r = _fraction_free(r, p, p[c], r[c])
    return tuple(r)


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
            pivots[col] = tuple(_fraction_free(p, r, r[c], p[c]))
    pivots[c] = r
    return c


def _simplex_max_t(strict_rows: Sequence[Sequence[int]], d: int) -> tuple[int, list[int], int]:
    """max t s.t. row.z + t <= 0 for each row, t <= 1, z free; Bland's rule.

    Returns the optimal vertex as integers (T, Z) over one positive common
    denominator: t = T/den, z = Z/den.

    Fraction-free: row i of the tableau is a positive multiple of its
    normalised form, with its basic variable's coefficient q > 0 in place
    of the leading 1.  Every update scales by the positive pivot and
    divides by the row's gcd, so signs, ratios and the Bland path are those
    of the normalised rational tableau.  Variables are numbered in Bland's
    order z+ (0..d-1), z- (d..2d-1), t (2d), slacks.

    A row stores only d + 1 nonbasic columns, then q, then the rhs.  Column
    k holds the variable ``label[k]``; a label j < d stands for the pair
    z+_j, z-_j, both nonbasic, with z-_j read as the negated column.  While
    one of a pair is basic the other has reduced cost 0 and never enters,
    so nothing is stored for it.  On a pivot the entering column takes the
    leaving variable's column: q_r in the pivot row and -f q_r in a row
    with entering entry f, before that row's gcd division; a leaving z-_j
    is stored negated, as z+_j.  The gcd covers q, so every stored integer
    is the entry of the full tableau, with identity columns, that it
    stands for."""
    m = len(strict_rows)
    tab = [[*row, 1, 1, 0] for row in strict_rows]
    tab.append([0] * d + [1, 1, 1])
    basis = list(range(2 * d + 1, 2 * d + 2 + m))
    label = [*range(d), 2 * d]
    cost = [0] * d + [-1, 0, 0]  # maximize t; the q entry stays 0
    sentinel = 2 * d + 2 + m

    while True:
        enter = sentinel
        for k, c in enumerate(cost[:-2]):
            if c < 0:
                v = label[k]
            elif c > 0 and label[k] < d:
                v = label[k] + d  # z-_j, the negated column
            else:
                continue
            if v < enter:
                enter, col = v, k
        if enter == sentinel:
            break
        sign = -1 if d <= enter < 2 * d else 1
        leave = -1
        for i, row in enumerate(tab):
            a = sign * row[col]
            if a > 0:
                if leave < 0:
                    leave, a_leave = i, a
                    continue
                # rhs_i / a < rhs_leave / a_leave, with both denominators > 0
                lhs, rhs = row[-1] * a_leave, tab[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, a_leave = i, a
        if leave < 0:
            raise AssertionError("t <= 1 should bound the program")
        prow = tab[leave]
        out = basis[leave]
        if d <= out < 2 * d:  # z-_j leaves: store its column negated, as z+_j
            label[col], prow[col] = out - d, -prow[-2]
        else:
            label[col], prow[col] = out, prow[-2]
        prow[-2] = 0  # so each other row's q becomes a_leave * q below
        for i, row in enumerate(tab):
            f = sign * row[col]
            if i != leave and f:
                row[col] = 0
                tab[i] = _fraction_free(row, prow, a_leave, f)
        f = sign * cost[col]
        if f:
            cost[col] = 0
            cost = _fraction_free(cost, prow, a_leave, f)
        prow[-2] = a_leave
        basis[leave] = enter

    # each basic z+, z- and t is rhs / q
    vertex = [(b, row[-1], row[-2]) for b, row in zip(basis, tab) if b <= 2 * d]
    den = lcm(*(q for _, _, q in vertex))
    x = [0] * (2 * d + 1)
    for b, rhs, q in vertex:
        x[b] = rhs * (den // q)
    return x[2 * d], [x[j] - x[d + j] for j in range(d)], den


def _fraction_free(row: Sequence[int], prow: Sequence[int], piv: int, f: int) -> list[int]:
    """piv*row - f*prow divided by its gcd (piv > 0): the one row step of
    ``eliminate``, ``add_pivot`` and the simplex tableau."""
    r = [piv * a - f * p for a, p in zip(row, prow)]
    g = gcd(*r)
    return [a // g for a in r] if g > 1 else r


def strict_feasibility(pivots: dict[int, Row], stricts: Sequence[Row], dim: int) -> Optional[Witness]:
    """A point w with E w = 0 and S w < 0 as (W, d), w = W/d, or None when
    there is none.

    ``pivots`` holds E reduced as ``add_pivot`` builds it; ``stricts`` are
    the rows of S, each nonzero and already reduced by ``eliminate`` against
    ``pivots``, so the LP reads them on the free columns only; a nonzero
    reduced row is zero on the pivot columns, so some column is free.  d
    is the lcm of the pivot leads times the LP vertex's denominator; W
    alone, a positive multiple of w, is a witness too."""
    free = [c for c in range(dim) if c not in pivots]
    t, z, den = _simplex_max_t([tuple(map(r.__getitem__, free)) for r in stricts], len(free))
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
        w[c] = -sum(map(mul, map(p.__getitem__, free), z)) * (d // p[c])
    return tuple(w), d
