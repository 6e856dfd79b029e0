"""Exact integer linear algebra and a small fraction-free simplex solver.

Feasibility of a homogeneous system {E w = 0, S w < 0} is decided by
maximizing an auxiliary slack t subject to S w + t <= 0 and t <= 1: the
optimum is 1 exactly when the open cone is nonempty (scale any strict
solution), and the optimal vertex yields an interior rational witness.
Bland's rule guarantees termination on the degenerate start.

All pivoting is on integer rows.  Elimination clears a column by
cross-multiplying and divides each new row by the gcd of its entries; the
simplex tableau does the same (Edmonds 1967; Bareiss 1968), so no
``Fraction`` is built until the optimal vertex is read off.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

__all__ = [
    "UnboundedNormalizationError",
    "exact_rank",
    "null_space_basis",
    "primitive",
    "eliminate",
    "add_pivot",
    "lift_witness",
    "strict_feasibility",
]

Row = tuple[int, ...]


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


def exact_rank(rows: Sequence[Sequence[int]]) -> int:
    pivots: dict[int, Row] = {}
    for row in rows:
        add_pivot(pivots, row)
    return len(pivots)


def null_space_basis(rows: Sequence[Sequence[int]], dim: int) -> list[tuple[Fraction, ...]]:
    """Exact basis of {w : rows . w = 0}, one vector per free column."""
    pivots: dict[int, Row] = {}
    for row in rows:
        add_pivot(pivots, row)
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * dim
        v[f] = Fraction(1)
        for c, p in pivots.items():
            v[c] = Fraction(-p[f], p[c])
        basis.append(tuple(v))
    return basis


def _simplex_max_t(strict_rows: Sequence[Sequence[int]], d: int) -> tuple[Fraction, list[Fraction]]:
    """max t s.t. row.z + t <= 0 for each row, t <= 1, z free; Bland's rule.

    Fraction-free: row i of the tableau is a positive multiple of its
    normalised form, with its basic variable's coefficient in place of the
    leading 1.  Every update scales by the positive pivot and divides by the
    row's gcd, so signs, ratios and the Bland path are those of the
    normalised rational tableau."""
    m = len(strict_rows)
    nvars = 2 * d + 1  # z+, z-, t
    tab: list[list[int]] = []
    for i, row in enumerate(strict_rows):
        r = list(row) + [-x for x in row] + [1]
        r += [1 if j == i else 0 for j in range(m + 1)]
        r.append(0)
        tab.append(r)
    tab.append([0] * (2 * d) + [1] + [1 if j == m else 0 for j in range(m + 1)] + [1])
    nrows = m + 1
    basis = [nvars + i for i in range(nrows)]
    cost = [0] * (nvars + nrows + 1)
    cost[2 * d] = -1  # maximize t

    while True:
        enter = next((j for j in range(nvars + nrows) if cost[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        for i in range(nrows):
            a = tab[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # rhs_i / a < rhs_leave / a_leave, with both denominators > 0
                lhs, rhs = tab[i][-1] * tab[leave][enter], tab[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise UnboundedNormalizationError("t <= 1 should bound the program")
        prow = tab[leave]
        piv = prow[enter]
        for i in range(nrows):
            f = tab[i][enter]
            if i != leave and f:
                tab[i] = _fraction_free(tab[i], prow, piv, f)
        f = cost[enter]
        if f:
            cost = _fraction_free(cost, prow, piv, f)
        basis[leave] = enter

    x = [Fraction(0)] * (nvars + nrows)
    for i, b in enumerate(basis):
        x[b] = Fraction(tab[i][-1], tab[i][b])
    t = x[2 * d]
    z = [x[j] - x[d + j] for j in range(d)]
    return t, z


def _fraction_free(row: list[int], prow: list[int], piv: int, f: int) -> list[int]:
    """piv*row - f*prow divided by its gcd: clears the pivot column (piv > 0)."""
    r = [piv * a - f * p for a, p in zip(row, prow)]
    g = gcd(*r)
    return [a // g for a in r] if g > 1 else r


def strict_feasibility(
    equalities: Sequence[Sequence[int]],
    stricts: Sequence[Sequence[int]],
    dim: int,
) -> Optional[tuple[Fraction, ...]]:
    pivots: dict[int, Row] = {}
    for row in equalities:
        add_pivot(pivots, row)
    free = [c for c in range(dim) if c not in pivots]
    reduced = []
    for s in stricts:
        r = eliminate(s, pivots)
        if not any(r):
            return None  # forced to 0, can never be < 0
        reduced.append(r)
    if not reduced:
        w = [Fraction(0)] * dim
        return tuple(w)
    if not free:
        return None
    proj = [tuple(r[f] for f in free) for r in reduced]
    t, z = _simplex_max_t(proj, len(free))
    if t <= 0:
        return None
    return lift_witness(z, pivots, free, dim)


def lift_witness(
    z: Sequence[Fraction], pivots: dict[int, Row], free: Sequence[int], dim: int
) -> tuple[Fraction, ...]:
    w = [Fraction(0)] * dim
    for f, zf in zip(free, z):
        w[f] = zf
    for c, p in pivots.items():
        acc = Fraction(0)
        for f, zf in zip(free, z):
            if p[f]:
                acc += Fraction(p[f]) * zf
        w[c] = -acc / p[c]
    return tuple(w)
