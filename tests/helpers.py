"""Shared fixtures: published example matrices and independent oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from tropcomm import TropMatrix, TropVector, commutator_entry, trop_add
from tropcomm.core import INF, NegativeCycleError, SizeMismatchError, TropScalar, ZERO
from tropcomm.fan import _Node
from tropcomm.polynomials import Monomial
from tropcomm.polytrope import CommutClassification, NotPolytropeError, first_difference
from tropcomm.series import LiftCheck, SeriesMatrix, SeriesPoly, val_matrix
from tropcomm.simplex import strict_feasibility


def M(rows) -> TropMatrix:
    return TropMatrix.of(rows)


# 4x4 polytrope pair: commutes, but A+B is not its own star (fails at (1,3)).
EX5_A = M([
    ["0.00", "4.10", "3.43", "0.95"],
    ["4.94", "0.00", "1.20", "5.89"],
    ["3.74", "4.44", "0.00", "4.69"],
    ["3.39", "6.92", "2.48", "0.00"],
])
EX5_B = M([
    ["0.00", "1.11", "8.21", "9.02"],
    ["6.74", "0.00", "7.61", "9.82"],
    ["9.96", "9.56", "0.00", "9.77"],
    ["1.03", "2.14", "1.36", "0.00"],
])

# 4x4 polytrope pair: square condition holds but the pair does not commute.
EX6_A = M([
    ["0.00", "1.09", "4.02", "3.33"],
    ["6.77", "0.00", "2.93", "3.47"],
    ["7.77", "8.00", "0.00", "6.20"],
    ["3.30", "1.85", "1.39", "0.00"],
])
EX6_B = M([
    ["0.00", "5.02", "1.45", "2.58"],
    ["3.53", "0.00", "2.01", "2.12"],
    ["7.10", "3.57", "0.00", "1.13"],
    ["7.71", "6.04", "2.47", "0.00"],
])

# 3x3 polytrope pair: A@B equals A+B yet B@A differs at (1,3): 2.79 vs 5.04.
EX7_A = M([
    ["0.00", "6.4", "6.10"],
    ["3.01", "0.0", "0.54"],
    ["5.41", "2.4", "0.00"],
])
EX7_B = M([
    ["0.00", "2.25", "5.04"],
    ["6.81", "0.00", "2.79"],
    ["4.02", "6.27", "0.00"],
])

# separating 3x3 pairs: (a) in TS and Tpre; (b) TS only; (c) Tpre only
P7A_A = M([[0, 2, 0], [2, 0, 8], [0, 4, 0]])
P7A_B = M([[12, 0, 1], [0, 2, 0], [1, 0, 6]])
P7B_C = M([[0, 1, 4], [1, 0, 4], [4, 4, 0]])
P7B_D = M([[0, 2, 4], [1, 0, 4], [4, 4, 0]])
P7C_E = M([[0, 1, 0], [3, 0, 1], [0, 3, 0]])
P7C_F = M([[1, 0, 3], [0, 1, 0], [1, 0, 3]])

# 2x2 pairs: commuting but outside the prevariety / inside the variety
S31_A = M([[0, 2], [1, 0]])
S31_B = M([[0, 1], [1, 0]])
TC2_A = M([[0, 4], [2, 0]])
TC2_B = M([[0, 3], [1, -1]])

# the published commuting lift of (TC2_A, TC2_B)
LIFT_X = [["1+t", "t^4"], ["t^2", "2"]]
LIFT_Y = [["1", "t^3"], ["t", "t^-1"]]


def star_power_sum(a: TropMatrix) -> TropMatrix:
    """Naive I + a + a^2 + ... + a^n; the independent Kleene-star oracle."""
    out = TropMatrix.identity(a.n)
    power = a
    for _ in range(a.n):
        out = trop_add(out, power)
        power = scalar_trop_mul(power, a)
    return out


# ---------------------------------------------------------------------------
# Oracles for the integer kernels: the min-plus loops on TropScalar values
# and the series product on Fraction pairs, as the library ran them before
# it scaled to ints.
# ---------------------------------------------------------------------------

def _tmin(values) -> TropScalar:
    out = INF
    for v in values:
        if v < out:
            out = v
    return out


def scalar_trop_mul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    if a.n != b.n:
        raise SizeMismatchError(f"size mismatch: {a.n} vs {b.n}")
    n = a.n
    return TropMatrix(tuple(
        tuple(_tmin(a.rows[i][s] + b.rows[s][j] for s in range(n)) for j in range(n))
        for i in range(n)
    ))


def scalar_mat_vec(a: TropMatrix, x: TropVector) -> TropVector:
    if a.n != x.n:
        raise SizeMismatchError(f"size mismatch: {a.n} vs {x.n}")
    return TropVector(tuple(_tmin(a.rows[i][s] + x[s] for s in range(a.n)) for i in range(a.n)))


def scalar_kleene_star(a: TropMatrix) -> TropMatrix:
    n = a.n
    d = [list(row) for row in a.rows]
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            if not dik.is_finite:
                continue
            for j in range(n):
                alt = dik + d[k][j]
                if alt < d[i][j]:
                    d[i][j] = alt
    for i in range(n):
        if d[i][i] < ZERO:
            raise NegativeCycleError("negative-weight cycle; star diverges")
    return trop_add(TropMatrix.identity(n), TropMatrix(tuple(tuple(r) for r in d)))


def scalar_is_polytrope(a: TropMatrix) -> bool:
    for i in range(a.n):
        for j in range(a.n):
            e = a.rows[i][j]
            if (e != ZERO) if i == j else (not e.is_finite or e <= ZERO):
                return False
    return all(
        not a.rows[i][k] + a.rows[k][j] < a.rows[i][j]
        for i in range(a.n) for j in range(a.n) for k in range(a.n)
    )


def scalar_classify_polytrope_pair(a: TropMatrix, b: TropMatrix) -> CommutClassification:
    if not (scalar_is_polytrope(a) and scalar_is_polytrope(b)):
        raise NotPolytropeError("both inputs must be polytropes")
    ab = scalar_trop_mul(a, b)
    ba = scalar_trop_mul(b, a)
    s = trop_add(a, b)
    star = scalar_kleene_star(s)
    square = scalar_trop_mul(s, s)

    def witness(lhs, rhs):
        at = first_difference(lhs, rhs)
        return None if at is None else (at, lhs[at[0] - 1, at[1] - 1], rhs[at[0] - 1, at[1] - 1])

    checks = {
        "commutes": witness(ab, ba),
        "star": witness(s, star),
        "square": witness(square, star),
        "product": witness(ab, s),
    }
    witnesses = {k: v for k, v in checks.items() if v is not None}
    return CommutClassification(
        commutes=checks["commutes"] is None,
        star_condition=checks["star"] is None,
        square_condition=checks["square"] is None,
        product_condition=checks["product"] is None,
        witness_entry=next((witnesses[k][0] for k in checks if k in witnesses), None),
        witnesses=witnesses,
    )


def fraction_sum_of_products(pairs) -> SeriesPoly:
    out: dict[Fraction, Fraction] = {}
    for f, g in pairs:
        for e1, c1 in f.terms:
            for e2, c2 in g.terms:
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
    return SeriesPoly(tuple(sorted((e, c) for e, c in out.items() if c != 0)))


def fraction_verify_lift(x: SeriesMatrix, y: SeriesMatrix, a: TropMatrix, b: TropMatrix) -> LiftCheck:
    """Independent oracle for ``verify_lift`` on matrices of one size: both
    products XY and YX formed in full on Fractions and compared entrywise,
    then the entrywise valuations, as the library checked before it summed
    XY - YX on ints."""
    n = x.n

    def product(p, q):
        return [[fraction_sum_of_products([(p[i, k], q[k, j]) for k in range(n)]) for j in range(n)]
                for i in range(n)]

    xy, yx = product(x, y), product(y, x)
    fails = [("commutation", (i + 1, j + 1)) for i in range(n) for j in range(n) if xy[i][j] != yx[i][j]]
    for kind, mat, target in (("valuation-X", x, a), ("valuation-Y", y, b)):
        vm = val_matrix(mat)
        fails += [(kind, (i + 1, j + 1)) for i in range(n) for j in range(n) if vm[i, j] != target[i, j]]
    return LiftCheck(ok=not fails, failures=tuple(fails))


def initial_slice_ranks(
    a: TropMatrix, b: TropMatrix, target: Monomial, degree: int = 4
) -> tuple[int, int]:
    """Independent oracle for "target is a monomial initial form at (A, B)".

    ``target`` has degree ``degree`` (d).  The commuting ideal I is
    homogeneous, so its degree-d piece is spanned by the products (degree
    d-2 monomial) x (XY-YX)[k][l].  With w the weight of the pair and
    v = w(target), some f in I_d has target as its unique
    minimal term iff the unit vector of target lies in the span of the
    value<=v parts of those products.  Returns the rank of those parts
    without and with that unit vector: equal ranks mean target is in the
    initial ideal, a rank one higher means no element of I (of any degree,
    since the initial ideal is homogeneous too) has target as its initial
    form.  Plain Fraction elimination over dict rows, pivoting on the
    largest column.
    """
    n = a.n
    w = [e.value for m in (a, b) for row in m.rows for e in row]

    def value(m: Monomial) -> Fraction:
        return sum((k * wi for k, wi in zip(m, w) if k), Fraction(0))

    pivots: dict[Monomial, dict[Monomial, Fraction]] = {}

    def insert(row: dict[Monomial, Fraction]) -> None:
        while row:
            col = max(row)
            piv = pivots.get(col)
            if piv is None:
                lead = row[col]
                pivots[col] = {k: x / lead for k, x in row.items()}
                return
            f = row[col]
            for k, x in piv.items():
                nx = row.get(k, 0) - f * x
                if nx:
                    row[k] = nx
                else:
                    del row[k]

    v = value(target)
    entries = [commutator_entry(n, k, l) for k in range(1, n + 1) for l in range(1, n + 1)]
    for c in combinations_with_replacement(range(len(w)), degree - 2):
        extra = [0] * len(w)
        for i in c:
            extra[i] += 1
        for g in entries:
            insert({m: Fraction(coef) for m, coef in g.mul_monomial(tuple(extra)).terms
                    if value(m) <= v})
    rank = len(pivots)
    insert({target: Fraction(1)})
    return rank, len(pivots)


def random_vector(rng: random.Random, n: int, lo: int = -1000, hi: int = 1000) -> TropVector:
    return TropVector.of([Fraction(rng.randint(lo, hi), 100) for _ in range(n)])


def random_finite_matrix(rng: random.Random, n: int, lo: int = -1000, hi: int = 1000) -> TropMatrix:
    return TropMatrix.of(
        [[Fraction(rng.randint(lo, hi), 100) for _ in range(n)] for _ in range(n)]
    )


def scaled_commuting_polytropes(rng: random.Random, n: int) -> tuple[TropMatrix, TropMatrix]:
    """A pair (c*P, d*P) for a random polytrope P: the min is again its own
    star, so the pair commutes (a non-vacuous star-condition family)."""
    from tropcomm import random_polytrope

    p = random_polytrope(rng, n)
    c = Fraction(rng.randint(100, 300), 100)
    d = Fraction(rng.randint(100, 300), 100)

    def scale(mat: TropMatrix, k: Fraction) -> TropMatrix:
        return TropMatrix(
            tuple(
                tuple(
                    ZERO if i == j else TropScalar(e.value * k)
                    for j, e in enumerate(row)
                )
                for i, row in enumerate(mat.rows)
            )
        )

    return scale(p, c), scale(p, d)


def random_tc2_pair(rng: random.Random) -> tuple[TropMatrix, TropMatrix]:
    """A random 2x2 pair in the tropical commuting variety.

    Realizes one of the four tie patterns compatible with commuting on the
    exchange hyperplane (see random_prevariety_2x2_pair) and keeps the draw
    when the membership test confirms it.
    """
    from tropcomm import in_tc2

    while True:
        a, b = random_prevariety_2x2_pair(rng)
        if in_tc2(a, b):
            return a, b


def random_prevariety_2x2_pair(rng: random.Random) -> tuple[TropMatrix, TropMatrix]:
    """A 2x2 pair engineered onto the prevariety.

    On the exchange hyperplane the remaining generator ties reduce to: the
    minimum of {b11, b22, v+a11, v+a22} (v = b12 - a12) is attained both in
    {v+a11, b22} and in {b11, v+a22}; realize one of the four cross-free tie
    patterns at a random level m.
    """
    den = 100
    r = lambda: Fraction(rng.randint(-1000, 1000), den)
    a12, a21, b12 = r(), r(), r()
    v = b12 - a12
    m = r()
    above = lambda: m + Fraction(rng.randint(0, 300), den)
    kind = rng.randrange(4)
    b11, b22, w1, w2 = {
        0: (m, m, above(), above()),          # tie {b11, b22}
        1: (above(), above(), m, m),          # tie {w1, w2}
        2: (m, above(), m, above()),          # tie {b11, w1}
        3: (above(), m, above(), m),          # tie {b22, w2}
    }[kind]
    a = TropMatrix.of([[w1 - v, a12], [a21, w2 - v]])
    b = TropMatrix.of([[b11, b12], [a21 + b12 - a12, b22]])
    return a, b


def raw_strict_feasibility(eqs, stricts, dim: int):
    """``strict_feasibility`` on an unreduced system {eqs . w = 0, stricts . w < 0}:
    reduced as the fan enumerator reduces a prefix (None when the reduction
    already forces infeasibility)."""
    node = _Node.root().extend(eqs, stricts)
    if node is None:
        return None
    return strict_feasibility(node.pivots, list(node.stricts), dim)


def fraction_simplex_max_t(strict_rows, d: int) -> tuple[Fraction, list[Fraction]]:
    """Independent LP oracle: max t s.t. row.z + t <= 0 for each row, t <= 1,
    z free, on a dense Fraction tableau normalised to unit pivots.

    Same program and pivoting rule as ``simplex._simplex_max_t`` (columns
    z+, z-, t, slacks, rhs; Bland's lowest entering column; minimum ratio,
    ties to the lowest basis index), so the two return the same vertex."""
    m = len(strict_rows)
    nvars = 2 * d + 1  # z+, z-, t
    width = nvars + m + 1 + 1  # + slacks + rhs
    tab: list[list[Fraction]] = []
    zero = Fraction(0)
    one = Fraction(1)
    for i, row in enumerate(strict_rows):
        r = [Fraction(x) for x in row] + [Fraction(-x) for x in row] + [one]
        r += [one if j == i else zero for j in range(m + 1)]
        r.append(zero)
        tab.append(r)
    last = [zero] * (2 * d) + [one] + [one if j == m else zero for j in range(m + 1)] + [one]
    tab.append(last)
    nrows = m + 1
    basis = [nvars + i for i in range(nrows)]
    cost = [zero] * width
    cost[2 * d] = Fraction(-1)  # maximize t

    while True:
        enter = -1
        for j in range(nvars + nrows):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(nrows):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        assert leave >= 0, "t <= 1 should bound the program"
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        prow = tab[leave]
        for i in range(nrows):
            if i != leave:
                f = tab[i][enter]
                if f:
                    tab[i] = [a - f * p for a, p in zip(tab[i], prow)]
        f = cost[enter]
        if f:
            cost = [a - f * p for a, p in zip(cost, prow)]
        basis[leave] = enter

    x = [zero] * (nvars + nrows)
    for i, b in enumerate(basis):
        x[b] = tab[i][-1]
    t = x[2 * d]
    z = [x[j] - x[d + j] for j in range(d)]
    return t, z


def fraction_classify_pair(a: TropMatrix, b: TropMatrix):
    """Independent oracle for ``classify_pair(a, b, deep=False)`` on 2x2 and
    3x3 pairs: min-plus products on plain Fractions, and the witness-family
    loop (3x3 only) on Fraction term values, as the library ran it before it
    tested ties on integers.  Returns (ts, ts_witness, tpre failures,
    certificate), the certificate as (source, monomial, min value, runner-up
    value) or None.
    """
    from tropcomm.commuting import labeled_generators, witness_family

    n = a.n
    av = [[e.value for e in row] for row in a.rows]
    bv = [[e.value for e in row] for row in b.rows]
    w = [x for m in (av, bv) for row in m for x in row]

    def minplus(x, y):
        return [[min(x[i][s] + y[s][j] for s in range(n)) for j in range(n)] for i in range(n)]

    ab, ba = minplus(av, bv), minplus(bv, av)
    witness = next(((i + 1, j + 1) for i in range(n) for j in range(n) if ab[i][j] != ba[i][j]), None)

    def values(f):
        return [(m, sum((k * x for k, x in zip(m, w) if k), Fraction(0))) for m, _ in f.terms]

    fails = []
    for label, g in labeled_generators(n):
        vals = [v for _, v in values(g)]
        if vals.count(min(vals)) < 2:
            fails.append(label)
    cert = None
    for label, f in witness_family() if n == 3 else ():
        vals = values(f)
        mn = min(v for _, v in vals)
        argmin = [m for m, v in vals if v == mn]
        if len(argmin) == 1:
            cert = (label, argmin[0], mn, min(v for _, v in vals if v > mn))
            break
    return witness is None, witness, tuple(fails), cert
