"""The benchmark's own exact arithmetic, used to make inputs and check outputs.

Nothing here calls tropcomm: a check that reused the program's code could
not catch the program's mistakes, and calls made here would also pollute
the traced per-layer counts.  Matrices are lists of rows of Fractions
(all finite), polynomials are tropcomm ``SparsePoly`` values read through
their ``terms``, and series are ``SeriesPoly`` values read the same way.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

Grid = list[list[Fraction]]


def minplus_mul(a: Grid, b: Grid) -> Grid:
    n = len(a)
    return [[min(a[i][s] + b[s][j] for s in range(n)) for j in range(n)] for i in range(n)]


def first_difference(a: Grid, b: Grid):
    """First row-major 1-based entry where the grids differ, or None."""
    for i, (ra, rb) in enumerate(zip(a, b)):
        for j, (x, y) in enumerate(zip(ra, rb)):
            if x != y:
                return (i + 1, j + 1)
    return None


def closure(a: Grid) -> Grid:
    """Kleene star by Floyd-Warshall; the input has no negative cycle."""
    n = len(a)
    d = [row[:] for row in a]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                alt = d[i][k] + d[k][j]
                if alt < d[i][j]:
                    d[i][j] = alt
    for i in range(n):
        d[i][i] = min(d[i][i], Fraction(0))
    return d


def mono_values(monos, w) -> list[Fraction]:
    """Tropical value of each monomial (exponent tuple) at the weight w."""
    return [sum((k * w[i] for i, k in enumerate(m) if k), Fraction(0)) for m in monos]


def argmin(vals) -> tuple[int, ...]:
    low = min(vals)
    return tuple(t for t, v in enumerate(vals) if v == low)


def unique_argmin_holds(cert, w) -> bool:
    """The certificate polynomial's minimum at w is attained once, at its
    named monomial, with the stated minimum and runner-up values."""
    monos = [m for m, _ in cert.polynomial.terms]
    if len(monos) < 2:
        return False
    vals = mono_values(monos, w)
    where = argmin(vals)
    if len(where) != 1 or monos[where[0]] != cert.unique_min_monomial:
        return False
    rest = [v for t, v in enumerate(vals) if t != where[0]]
    return vals[where[0]] == cert.min_value and min(rest) == cert.runner_up_value


def tpre_failures(a: Grid, b: Grid) -> set[tuple[int, int]]:
    """Entries (k, l) of XY - YX whose tropicalisation at (A, B) has a
    unique minimum.  The only cancelling pair of terms is x_kk*y_kk on the
    diagonal; every other pair of the 2n terms has distinct monomials."""
    n = len(a)
    out = set()
    for k in range(n):
        for l in range(n):
            vals = []
            for s in range(n):
                if k == l == s:
                    continue
                vals.append(a[k][s] + b[s][l])
                vals.append(b[k][s] + a[s][l])
            low = min(vals)
            if vals.count(low) < 2:
                out.add((k + 1, l + 1))
    return out


def witness_realizes(gens_monos, pattern, w) -> bool:
    """Every generator's argmin at the cell witness is the cell's pattern."""
    return all(argmin(mono_values(monos, w)) == sub for monos, sub in zip(gens_monos, pattern))


def series_mul(x, y):
    """Classical product of two series matrices as grids of {exp: coeff}."""
    n = len(x)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc: dict[Fraction, Fraction] = {}
            for s in range(n):
                for e1, c1 in x[i][s]:
                    for e2, c2 in y[s][j]:
                        acc[e1 + e2] = acc.get(e1 + e2, Fraction(0)) + c1 * c2
            row.append({e: c for e, c in acc.items() if c})
        out.append(row)
    return out


def lift_holds(x, y, a: Grid, b: Grid) -> bool:
    """XY == YX exactly and the entrywise valuations are A and B."""
    xs = [[s.terms for s in row] for row in x.rows]
    ys = [[s.terms for s in row] for row in y.rows]
    if series_mul(xs, ys) != series_mul(ys, xs):
        return False
    for grid, target in ((xs, a), (ys, b)):
        for row, trow in zip(grid, target):
            for terms, want in zip(row, trow):
                live = [e for e, c in terms if c]
                if not live or min(live) != want:
                    return False
    return True


# The four term weights {b11, b22, v+a11, v+a22} of the 2x2 generators g12
# and g21 on the exchange hyperplane (v = b12 - a12); a prevariety point is
# one where the minimum of the four is attained by a set of size >= 2.
TIE_SETS_2X2 = tuple(s for size in (2, 3, 4) for s in combinations(range(4), size))
