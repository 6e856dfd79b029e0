"""Shared fixtures: published example matrices and independent oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, partial
from heapq import heappop, heappush
from itertools import combinations_with_replacement
from math import gcd, inf

from tropcomm import TropMatrix, TropVector, commutator_entry, generators, weight_of_pair
from tropcomm.commuting import _code, _decode, _exponents, _support, _term_values, _unique_min
from tropcomm.core import INF, NegativeCycleError, SizeMismatchError, TropScalar, ZERO, _lcm_scale
from tropcomm.polynomials import Monomial, SparsePoly, matrix_variables, monomial
from tropcomm.polytrope import (
    CommutClassification,
    NotInImageError,
    NotPolytropeError,
    PreimageDescription,
    first_difference,
)
from tropcomm.series import LiftCheck, SeriesMatrix, SeriesPoly, val_matrix
from tropcomm.simplex import add_pivot, eliminate, lift_witness, strict_feasibility


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
        out = scalar_trop_add(out, power)
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


def scalar_trop_add(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    if a.n != b.n:
        raise SizeMismatchError(f"size mismatch: {a.n} vs {b.n}")
    return TropMatrix(tuple(
        tuple(a.rows[i][j].min(b.rows[i][j]) for j in range(a.n)) for i in range(a.n)
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
    return scalar_trop_add(TropMatrix.identity(n), TropMatrix(tuple(tuple(r) for r in d)))


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


def scalar_preimage(a: TropMatrix, b: TropVector) -> PreimageDescription:
    if not scalar_is_polytrope(a):
        raise NotPolytropeError("preimage requires a polytrope")
    if scalar_mat_vec(a, b) != b:
        raise NotInImageError("A @ b != b, so b is not in the image of A")
    n = a.n
    free = []
    for j in range(n):
        ok = True
        for k in range(n):
            best = INF
            for i in range(n):
                if i == j:
                    continue
                v = a.rows[k][i] + b[i]
                if v < best:
                    best = v
            if best != b[k]:
                ok = False
                break
        if ok:
            free.append(j + 1)
    return PreimageDescription(base=b, free_directions=frozenset(free))


def scalar_star_image_contains(star: TropMatrix, x: TropVector) -> bool:
    n = star.n
    if x.n != n:
        raise SizeMismatchError(f"size mismatch: {n} vs {x.n}")
    if not all(e.is_finite for e in x):
        return False
    for i in range(n):
        for j in range(n):
            m = star.rows[i][j]
            if not m.is_finite:
                continue
            if x[i].value - x[j].value > m.value:
                return False
    return True


def scalar_classify_polytrope_pair(a: TropMatrix, b: TropMatrix) -> CommutClassification:
    if not (scalar_is_polytrope(a) and scalar_is_polytrope(b)):
        raise NotPolytropeError("both inputs must be polytropes")
    ab = scalar_trop_mul(a, b)
    ba = scalar_trop_mul(b, a)
    s = scalar_trop_add(a, b)
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


def _insert(pivots: dict, row: dict) -> bool:
    """Fraction elimination of ``row`` (column -> value) against ``pivots``,
    pivoting on the largest column; store what is left as a new pivot.
    Returns whether the row raised the rank (did not reduce to zero)."""
    while row:
        col = max(row)
        piv = pivots.get(col)
        if piv is None:
            lead = row[col]
            pivots[col] = {k: x / lead for k, x in row.items()}
            return True
        f = row[col]
        for k, x in piv.items():
            nx = row.get(k, 0) - f * x
            if nx:
                row[k] = nx
            else:
                del row[k]
    return False


def in_row_span(rows, v) -> bool:
    """Exact rank check: is the vector v in the span of ``rows``?"""
    pivots: dict[int, dict[int, Fraction]] = {}
    for r in rows:
        _insert(pivots, {i: Fraction(x) for i, x in enumerate(r) if x})
    return not _insert(pivots, {i: Fraction(x) for i, x in enumerate(v) if x})


def in_ideal_slice(f: SparsePoly, n: int, degree: int) -> bool:
    """Independent check that f lies in the commuting ideal I of n x n pairs.

    I is homogeneous, so f (of degree d = ``degree``) is in I iff it lies in
    I_d, the span of the products (degree d-2 monomial) x (XY-YX)[k][l].  I
    is also graded by x-degree, y-degree and the torus weight (x_ij and y_ij
    weigh e_i - e_j; (XY-YX)[k][l] weighs e_k - e_l), so each graded part of
    f must lie in the span of the products of its own multidegree.  Decided
    per part by an exact Fraction rank check.
    """
    nvars = 2 * n * n

    def multidegree(m: Monomial) -> tuple[int, ...]:
        out = [0] * (n + 2)
        for i, k in enumerate(m):
            if k:
                r, c = divmod(i % (n * n), n)
                out[i // (n * n)] += k
                out[2 + r] += k
                out[2 + c] -= k
        return tuple(out)

    if any(sum(m) != degree for m, _ in f.terms):
        return False
    parts: dict[tuple[int, ...], dict[Monomial, Fraction]] = {}
    for m, c in f.terms:
        parts.setdefault(multidegree(m), {})[m] = Fraction(c)
    entries = [((k, l), commutator_entry(n, k, l)) for k in range(1, n + 1) for l in range(1, n + 1)]
    spans: dict[tuple[int, ...], dict[Monomial, dict[Monomial, Fraction]]] = {d: {} for d in parts}
    for combo in combinations_with_replacement(range(nvars), degree - 2):
        extra = [0] * nvars
        for i in combo:
            extra[i] += 1
        base = multidegree(tuple(extra))
        for (k, l), g in entries:
            d = list(base)
            d[0] += 1
            d[1] += 1
            d[1 + k] += 1
            d[1 + l] -= 1
            pivots = spans.get(tuple(d))
            if pivots is not None and g:
                _insert(pivots, {m: Fraction(c) for m, c in g.mul_monomial(tuple(extra)).terms})
    return all(not _insert(spans[d], row) for d, row in parts.items())


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
    insert = partial(_insert, pivots)

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


def _fraction_free_step(row: dict[int, int], prow: dict[int, int], c: int) -> None:
    """row := mul*row - sub*prow with the least mul, sub that clear column
    c (mul from a gcd, even when prow[c] is 1); after a step with mul != 1
    the content is divided out."""
    g = gcd(row[c], prow[c])
    mul, sub = prow[c] // g, row[c] // g
    if mul != 1:
        for k in row:
            row[k] *= mul
    for k, x in prow.items():
        nx = row.get(k, 0) - sub * x
        if nx:
            row[k] = nx
        else:
            del row[k]
    if mul != 1:
        g = gcd(*row.values())
        if g > 1:
            for k in row:
                row[k] //= g


@cache
def _degree_monomials(n: int, degree: int) -> tuple[list[Monomial], tuple[tuple[int, ...], ...]]:
    """The monomials of one degree in the 2n^2 variables, in the order of
    ``combinations_with_replacement``, and their supports."""
    names = matrix_variables(n)
    extras = [monomial(names, *c) for c in combinations_with_replacement(names, degree)]
    return extras, tuple(map(_exponents, extras))


def slice_search_oracle(a: TropMatrix, b: TropMatrix, degree: int = 4):
    """Reference loop for ``commuting.find_monomial_initial_form``, which
    must return the same certificate (or None), byte for byte.

    Every product (degree d-2 monomial m) x generator goes into one
    fraction-free elimination, in the order (lowest column, m as an exponent
    tuple, generator), the trace-dependent ones included.  When a value
    closes, the whole rows of its pivots are brought to reduced echelon
    form inside the value, from the highest lead down, and stay in the
    elimination; the first lead left alone in its value whose negated row
    has it as unique minimal term is the hit.
    """
    iw, d = _lcm_scale(weight_of_pair(a, b))
    base = degree + 1
    level = base ** len(iw)

    def key(v: int, m: Monomial) -> int:
        return v * level + _code(m, base)

    gterms = [[(key(v, m), c) for v, (m, c) in zip(_term_values(_support(g), iw), g.terms)]
              for g in generators(a.n)]
    glow = [min(k for k, _ in t) for t in gterms]
    extras, esup = _degree_monomials(a.n, degree - 2)
    evals = _term_values(esup, iw)
    products = sorted((key(v, m) + low, m, gi)
                      for v, m in zip(evals, extras) for gi, low in enumerate(glow))
    pivots: dict[int, dict[int, int]] = {}
    untested: list[int] = []
    for low, _, gi in [*products, (inf, (), None)]:
        while untested and (top := (untested[0] // level + 1) * level) <= low:
            leads = []
            while untested and untested[0] < top:
                leads.append(heappop(untested))
            inside = set(leads)
            for lead in reversed(leads):
                row = pivots[lead]
                for c in [k for k in row if k in inside and k != lead]:
                    _fraction_free_step(row, pivots[c], c)
            for lead in leads:
                row = pivots[lead]
                if any(lead < k < top for k in row):
                    continue
                f = SparsePoly.from_terms((_decode(k, base, len(iw)), -c) for k, c in row.items())
                vals = _term_values(_support(f), iw)
                cert = _unique_min(f"slice[deg={degree}]", f, vals, d)
                if cert is not None and key(min(vals), cert.unique_min_monomial) == lead:
                    return cert
        if gi is not None:
            row = {k + low - glow[gi]: c for k, c in gterms[gi]}
            while row and (c := min(row)) in pivots:
                _fraction_free_step(row, pivots[c], c)
            if row:
                pivots[c] = row
                heappush(untested, c)
    return None


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


def tpre2_point(rng: random.Random, ties: tuple[int, ...]) -> tuple[TropMatrix, TropMatrix]:
    """A 2x2 pair on the exchange hyperplane a12 + b21 == a21 + b12 whose
    four weights (b11, b22, v+a11, v+a22), v = b12 - a12, attain their
    minimum exactly at the indices in ``ties`` (two or more, so the pair is
    in Tpre2).  Entries have mixed denominators."""
    def r() -> Fraction:
        return Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 4, 6, 7, 12)))

    a12, a21, b12, low = r(), r(), r(), r()
    v = b12 - a12
    b11, b22, w1, w2 = (low if t in ties else low + abs(r()) + Fraction(1, 5) for t in range(4))
    return M([[w1 - v, a12], [a21, w2 - v]]), M([[b11, b12], [a21 + v, b22]])


def extend_node(node, eqs, stricts):
    """A prefix node (pivots, strict rows) extended from scratch, the oracle
    for the enumerator's child builder: the tie rows ``eqs`` added with
    ``add_pivot`` in order, then the node's strict rows and ``stricts``, each
    reduced by ``eliminate`` against all the pivots, kept once in order.
    None when a reduced strict row is zero or the negation of another (the
    system is then already infeasible)."""
    pivots = dict(node[0])
    for row in eqs:
        add_pivot(pivots, row)
    reduced = dict.fromkeys(eliminate(row, pivots) for row in (*node[1], *stricts))
    if any(not any(r) or tuple(-x for x in r) in reduced for r in reduced):
        return None
    return pivots, reduced


def raw_strict_feasibility(eqs, stricts, dim: int):
    """``strict_feasibility`` on an unreduced system {eqs . w = 0, stricts . w < 0}:
    reduced as ``extend_node`` reduces it (None when the reduction already
    forces infeasibility).  Returns the witness w = W/d as (W, d)."""
    node = extend_node(({}, {}), eqs, stricts)
    if node is None:
        return None
    pivots, reduced = node
    return strict_feasibility(pivots, list(reduced), dim)


def oracle_witness(node, dim: int):
    """The enumerator's documented witness of a node's system as (W, d), or
    None: the origin when it has no strict row, else the negated sum of the
    strict rows when that point is interior, else the exact LP's point."""
    pivots, stricts = node
    rows = list(stricts)
    if not rows:
        return (0,) * dim, 1
    guess = [-sum(col) for col in zip(*rows)]
    if all(sum(a * x for a, x in zip(r, guess)) < 0 for r in rows):
        free = [c for c in range(dim) if c not in pivots]
        return lift_witness([guess[f] for f in free], pivots, free, dim)
    return strict_feasibility(pivots, rows, dim)


def reference_cells(gens, dim: int) -> list:
    """Every cell of the prevariety of ``gens`` as (pattern, dim, witness),
    sorted by pattern, each candidate built from scratch: depth first over
    the generators' argmin subsets, every prefix's node rebuilt by
    ``extend_node`` from its raw rows (``cell_system``), and a prefix dropped
    when it has no interior point."""
    from tropcomm.fan import argmin_subsets, cell_system

    subsets = [argmin_subsets(len(g)) for g in gens]
    out = []
    stack = [()]
    while stack:
        prefix = stack.pop()
        for sub in subsets[len(prefix)]:
            pattern = prefix + (sub,)
            node = extend_node(({}, {}), *cell_system(gens, pattern))
            found = None if node is None else oracle_witness(node, dim)
            if found is None:
                continue
            if len(pattern) < len(gens):
                stack.append(pattern)
            else:
                w, d = found
                out.append((pattern, dim - len(node[0]), tuple(Fraction(x, d) for x in w)))
    return sorted(out)


def random_generator_system(rng: random.Random) -> tuple[list[SparsePoly], int]:
    """1-3 generators of 2-5 distinct terms in 2-6 variables, exponents 0-2,
    nonzero coefficients: a seeded random input for the fan enumerator."""
    dim = rng.randint(2, 6)
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms: dict = {}
        size = rng.randint(2, 5)
        while len(terms) < size:
            terms[tuple(rng.randint(0, 2) for _ in range(dim))] = rng.choice((-2, -1, 1, 2))
        gens.append(SparsePoly.from_terms(terms.items()))
    return gens, dim


def null_space_basis(rows, dim: int) -> list[tuple[int, ...]]:
    """Exact integer basis of {w : rows . w = 0}, one vector per free column."""
    pivots: dict[int, tuple[int, ...]] = {}
    for row in rows:
        add_pivot(pivots, row)
    free = [c for c in range(dim) if c not in pivots]
    return [lift_witness([int(f == g) for g in free], pivots, free, dim)[0] for f in free]


def lineality_basis(gens, dim: int) -> list[tuple[int, ...]]:
    """Integer basis of the all-ties subspace: the null space of u - v for
    consecutive terms u, v of each generator."""
    rows = []
    for g in gens:
        ms = g.monomials()
        rows += [tuple(a - b for a, b in zip(u, v)) for u, v in zip(ms, ms[1:])]
    return null_space_basis(rows, dim)


def fraction_simplex_max_t(strict_rows, d: int) -> tuple[Fraction, list[Fraction], list[tuple[int, int]]]:
    """Independent LP oracle: max t s.t. row.z + t <= 0 for each row, t <= 1,
    z free, on a dense Fraction tableau normalised to unit pivots.  Returns
    the optimal (t, z) and the basis changes as (entering, leaving) variables.

    Same program and pivoting rule as ``simplex._simplex_max_t`` (variables
    z+, z-, t, slacks in that order; Bland's lowest entering variable;
    minimum ratio, ties to the lowest basis index), so the two return the
    same vertex.  This tableau stores a column for every variable, the
    basic ones' unit columns and z- included, plus the rhs.  The integer
    tableau stores only the d + 1 nonbasic columns it may enter from (one
    per z+/z- pair while both are nonbasic, z- read negated), its basic
    variable's coefficient and the rhs."""
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
    changes = []

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
        changes.append((enter, basis[leave]))
        basis[leave] = enter

    x = [zero] * (nvars + nrows)
    for i, b in enumerate(basis):
        x[b] = tab[i][-1]
    t = x[2 * d]
    z = [x[j] - x[d + j] for j in range(d)]
    return t, z, changes


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
