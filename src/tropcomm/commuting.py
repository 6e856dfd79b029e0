"""Commuting-ideal generators and tropical membership certificates.

The commutator ideal in the 2n^2 variables {x_ij, y_ij} is generated by the
entries of XY - YX.  This module evaluates its generators tropically (is the
minimum attained twice?), decides membership in the tropical commuting set
and prevariety, tests the homogeneity space, and searches for non-membership
certificates for the n=3 tropical commuting variety: polynomials of the
ideal whose minimum at a given weight is attained by a unique term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from heapq import heappop, heappush
from itertools import combinations_with_replacement, permutations
from math import gcd, inf
from typing import Optional, Sequence

from .core import SizeMismatchError, TropMatrix, _int_grids, _int_mul, _lcm_scale
from .polynomials import Monomial, SparsePoly, matrix_variables, monomial, monomial_str, symmetric_variables
from .polytrope import _first_difference, commutes

__all__ = [
    "WeightVector",
    "TropEvaluation",
    "GroupElement",
    "NonMembershipCertificate",
    "PairClassification",
    "TpreResult",
    "commutator_entry",
    "labeled_generators",
    "generators",
    "symmetric_generators",
    "weight_of_pair",
    "evaluate_tropically",
    "trop_satisfied",
    "in_ts",
    "in_tpre",
    "in_tc2",
    "homogeneity_membership",
    "homogeneity_dimension",
    "group_elements",
    "variable_permutation",
    "apply_group",
    "witness_deg3",
    "witness_deg4",
    "witness_family",
    "find_monomial_initial_form",
    "certify_not_in_tc3",
    "classify_pair",
]

WeightVector = tuple[Fraction, ...]
# per term of a polynomial, its nonzero exponents as (variable index, exponent)
Support = tuple[tuple[tuple[int, int], ...], ...]


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def commutator_entry(n: int, k: int, l: int) -> SparsePoly:
    """(XY - YX)[k][l] over the 2n^2 variables, 1-based entry indices."""
    names = matrix_variables(n)
    terms: list[tuple[Monomial, int]] = []
    for s in range(1, n + 1):
        terms.append((monomial(names, f"x{k}{s}", f"y{s}{l}"), 1))
        terms.append((monomial(names, f"y{k}{s}", f"x{s}{l}"), -1))
    return SparsePoly.from_terms(terms)


@cache
def labeled_generators(n: int) -> tuple[tuple[tuple[int, int], SparsePoly], ...]:
    """Nonzero commutator entries in row-major order, sign-duplicates dropped.

    For n=2 the (2,2) entry is exactly minus the (1,1) entry (the commutator
    has zero trace), so three generators remain.  Built once per n; the
    tuple of immutable polynomials is shared by every caller.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    out: list[tuple[tuple[int, int], SparsePoly]] = []
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            g = commutator_entry(n, k, l)
            if not g:
                continue
            if any(g.equal_up_to_sign(prev) for _, prev in out):
                continue
            out.append(((k, l), g))
    return tuple(out)


@cache
def generators(n: int) -> tuple[SparsePoly, ...]:
    return tuple(g for _, g in labeled_generators(n))


def _support(f: SparsePoly) -> Support:
    return tuple(tuple((i, k) for i, k in enumerate(m) if k) for m, _ in f.terms)


@cache
def _generator_supports(n: int) -> tuple[tuple[tuple[int, int], Support], ...]:
    return tuple((label, _support(g)) for label, g in labeled_generators(n))


@cache
def symmetric_generators() -> tuple[SparsePoly, ...]:
    """The three 6-term generators of the symmetric 3x3 commuting ideal.

    Entry (k,l) of XY - YX with X, Y symmetric, written in the 12 variables
    x_ij, y_ij (i <= j); the diagonal entries vanish identically.  Built once.
    """
    names = symmetric_variables()

    def var(p: str, i: int, j: int) -> str:
        return f"{p}{min(i, j)}{max(i, j)}"

    out = []
    for (k, l) in ((1, 2), (1, 3), (2, 3)):
        terms: list[tuple[Monomial, int]] = []
        for s in range(1, 4):
            terms.append((monomial(names, var("x", k, s), var("y", s, l)), 1))
            terms.append((monomial(names, var("y", k, s), var("x", s, l)), -1))
        out.append(SparsePoly.from_terms(terms))
    return tuple(out)


def _finite_weight(vals: list) -> list:
    """vals, a flattened pair; ValueError if one is None (+inf)."""
    if any(v is None for v in vals):
        raise ValueError("weight vectors require finite entries")
    return vals


def weight_of_pair(a: TropMatrix, b: TropMatrix) -> WeightVector:
    """Row-major (vec A, vec B); requires finite entries."""
    if a.n != b.n:
        raise SizeMismatchError(f"size mismatch: {a.n} vs {b.n}")
    return tuple(_finite_weight([e.value for m in (a, b) for row in m.rows for e in row]))


# ---------------------------------------------------------------------------
# tropical evaluation
# ---------------------------------------------------------------------------

def _value(m: Monomial, w: WeightVector) -> Fraction:
    v = Fraction(0)
    for i, k in enumerate(m):
        if k:
            v += k * w[i]
    return v


@dataclass(frozen=True)
class TropEvaluation:
    """Term weights of a polynomial at a weight vector."""

    min_value: Fraction
    argmin: tuple[Monomial, ...]
    runner_up: Optional[Fraction]
    values: tuple[tuple[Monomial, Fraction], ...]

    @property
    def satisfied(self) -> bool:
        return len(self.argmin) >= 2


def evaluate_tropically(f: SparsePoly, w: WeightVector) -> TropEvaluation:
    if not f:
        raise ValueError("empty polynomial")
    vals = tuple((m, _value(m, w)) for m, _ in f.terms)
    mn = min(v for _, v in vals)
    argmin = tuple(m for m, v in vals if v == mn)
    above = [v for _, v in vals if v > mn]
    return TropEvaluation(
        min_value=mn,
        argmin=argmin,
        runner_up=min(above) if above else None,
        values=vals,
    )


def trop_satisfied(f: SparsePoly, w: WeightVector) -> tuple[bool, TropEvaluation]:
    """Is the minimum term weight attained at least twice?"""
    ev = evaluate_tropically(f, w)
    return ev.satisfied, ev


def _min_attained_twice(support: Support, iw: Sequence[int]) -> bool:
    """trop_satisfied at the weight w scaled to ints (same argmins, see
    :func:`tropcomm.core._lcm_scale`), without building the evaluation."""
    vals = [sum(iw[i] * k for i, k in t) for t in support]
    return vals.count(min(vals)) >= 2


# ---------------------------------------------------------------------------
# membership tests
# ---------------------------------------------------------------------------

def in_ts(a: TropMatrix, b: TropMatrix) -> bool:
    """Tropical commuting set: A@B == B@A (any real matrices)."""
    return commutes(a, b)


@dataclass(frozen=True)
class TpreResult:
    ok: bool
    failures: tuple[tuple[int, int], ...]


def in_tpre(a: TropMatrix, b: TropMatrix) -> TpreResult:
    """Prevariety membership: every commutator generator tropically satisfied."""
    iw, _ = _lcm_scale(weight_of_pair(a, b))
    return _in_tpre(a.n, iw)


def _in_tpre(n: int, iw: Sequence[int]) -> TpreResult:
    """:func:`in_tpre` at the weight scaled to ints."""
    fails = tuple(label for label, sup in _generator_supports(n) if not _min_attained_twice(sup, iw))
    return TpreResult(ok=not fails, failures=fails)


def in_tc2(a: TropMatrix, b: TropMatrix) -> bool:
    """Membership in the 2x2 tropical commuting variety TC2, which is Tpre2.

    TC2 lies in every tropical hypersurface of the ideal, so in Tpre2.
    Conversely, Tpre2 is the exchange hyperplane a12 + b21 == a21 + b12
    (the tie of g11) on which the minimum of {b11, b22, v+a11, v+a22},
    v = b12 - a12, is attained twice (g12 and g21 both have these term
    weights there).  :func:`tropcomm.series.lift_2x2` lifts every such
    point to commuting series matrices, each lift checked exactly, and by
    the fundamental theorem of tropical geometry (Maclagan-Sturmfels 2015)
    a lift proves membership.  So the test is :func:`in_tpre`, which raises
    ValueError on an infinite entry.
    """
    if a.n != 2 or b.n != 2:
        raise SizeMismatchError("in_tc2 is defined for 2x2 matrices")
    return in_tpre(a, b).ok


# ---------------------------------------------------------------------------
# homogeneity space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomogeneityResult:
    member: bool
    a: Optional[Fraction] = None
    b: Optional[Fraction] = None
    c: Optional[tuple[Fraction, ...]] = None


def homogeneity_membership(w: WeightVector, n: int) -> HomogeneityResult:
    """Does every generator have all term weights equal at w?

    For n >= 3 the space is cut out by: all x-diagonal weights equal (= a),
    all y-diagonal weights equal (= b), w[y_ij] = w[x_ij] - a + b, and
    w[x_ij] = c_i - c_j + a for some c (normalized c_1 = 0).  For n = 2 the
    same pattern without the c-relation (x12, x21 stay free).
    """
    if n < 2 or len(w) != 2 * n * n:
        raise ValueError("weight length must be 2*n*n")

    def x(i: int, j: int) -> Fraction:
        return w[(i - 1) * n + (j - 1)]

    def y(i: int, j: int) -> Fraction:
        return w[n * n + (i - 1) * n + (j - 1)]

    a = x(1, 1)
    b = y(1, 1)
    if any(x(i, i) != a or y(i, i) != b for i in range(2, n + 1)):
        return HomogeneityResult(False)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and y(i, j) != x(i, j) - a + b:
                return HomogeneityResult(False)
    if n == 2:
        return HomogeneityResult(True, a=a, b=b, c=(x(1, 2), x(2, 1)))
    # c_i - c_j = x(i,j) - a with c_1 = 0
    c = [Fraction(0)] * (n + 1)
    for i in range(2, n + 1):
        c[i] = x(i, 1) - a
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and x(i, j) != c[i] - c[j] + a:
                return HomogeneityResult(False)
    return HomogeneityResult(True, a=a, b=b, c=tuple(c[1:]))


def tie_rows(gens: Sequence[SparsePoly]) -> list[tuple[int, ...]]:
    """Difference vectors u - v for consecutive terms of each generator."""
    rows = []
    for g in gens:
        ms = g.monomials()
        for u, v in zip(ms, ms[1:]):
            rows.append(tuple(a - b for a, b in zip(u, v)))
    return rows


def homogeneity_dimension(n: int) -> int:
    """dim of the all-ties subspace, by an exact basis (not by formula)."""
    from .simplex import null_space_basis

    return len(null_space_basis(tie_rows(generators(n)), 2 * n * n))


# ---------------------------------------------------------------------------
# the S3 x S2 action
# ---------------------------------------------------------------------------

GroupElement = tuple[tuple[int, ...], bool]  # (sigma as 1-based images, swap x<->y)


def group_elements(n: int = 3) -> list[GroupElement]:
    """All (sigma, swap) pairs, identity first, in lexicographic order."""
    return [(sigma, swap) for sigma in sorted(permutations(range(1, n + 1))) for swap in (False, True)]


def variable_permutation(g: GroupElement, names: tuple[str, ...], symmetric: bool = False) -> tuple[int, ...]:
    """Index permutation induced on a variable list by (sigma, swap)."""
    sigma, swap = g
    idx = {nm: i for i, nm in enumerate(names)}
    perm = []
    for nm in names:
        p, i, j = nm[0], int(nm[1]), int(nm[2])
        if swap:
            p = "y" if p == "x" else "x"
        a, b = sigma[i - 1], sigma[j - 1]
        if symmetric:
            a, b = min(a, b), max(a, b)
        perm.append(idx[f"{p}{a}{b}"])
    return tuple(perm)


def apply_group(f: SparsePoly, g: GroupElement, names: tuple[str, ...], symmetric: bool = False) -> SparsePoly:
    return f.permute_variables(variable_permutation(g, names, symmetric))


# ---------------------------------------------------------------------------
# witness polynomials (n = 3)
# ---------------------------------------------------------------------------

def witness_deg3(g: GroupElement = ((1, 2, 3), False)) -> SparsePoly:
    """(XY-YX)[1][2]*y21 - (XY-YX)[2][1]*y12, moved by the group element.

    After combining, two coefficients are +-2; ten terms remain.
    """
    names = matrix_variables(3)
    f = commutator_entry(3, 1, 2).mul_monomial(monomial(names, "y21")) - \
        commutator_entry(3, 2, 1).mul_monomial(monomial(names, "y12"))
    return apply_group(f, g, names)


def witness_deg4(g: GroupElement = ((1, 2, 3), False)) -> SparsePoly:
    """(XY-YX)[3][1]*y32*y21 - (XY-YX)[3][2]*y31*y21 - (XY-YX)[2][1]*y31*y32.

    Three pairs of terms cancel, leaving exactly 12 monomials.
    """
    names = matrix_variables(3)
    f = commutator_entry(3, 3, 1).mul_monomial(monomial(names, "y32", "y21")) - \
        commutator_entry(3, 3, 2).mul_monomial(monomial(names, "y31", "y21")) - \
        commutator_entry(3, 2, 1).mul_monomial(monomial(names, "y31", "y32"))
    return apply_group(f, g, names)


@cache
def witness_family() -> tuple[tuple[str, SparsePoly], ...]:
    """generators, then the deg-3 orbit, then the deg-4 orbit; deduplicated.

    Cheapest certificates first; orbit members equal up to sign are listed
    once, labeled by their construction.  Built once and shared.
    """
    family: list[tuple[str, SparsePoly]] = []
    seen: list[SparsePoly] = []

    def push(label: str, f: SparsePoly) -> None:
        if any(f.equal_up_to_sign(p) for p in seen):
            return
        seen.append(f)
        family.append((label, f))

    for (k, l), g in labeled_generators(3):
        push(f"g{k}{l}", g)
    for ge in group_elements(3):
        push(f"deg3[{_gname(ge)}]", witness_deg3(ge))
    for ge in group_elements(3):
        push(f"deg4[{_gname(ge)}]", witness_deg4(ge))
    return tuple(family)


@cache
def _family_supports() -> tuple[tuple[str, SparsePoly, Support], ...]:
    return tuple((label, f, _support(f)) for label, f in witness_family())


def _gname(g: GroupElement) -> str:
    sigma, swap = g
    return "".join(map(str, sigma)) + ("s" if swap else "")


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonMembershipCertificate:
    """An ideal element whose minimum at the weight is uniquely attained.

    The unique minimal term is a monomial initial form, so the weight lies
    outside the tropical variety of the ideal.
    """

    source: str
    polynomial: SparsePoly
    unique_min_monomial: Monomial
    min_value: Fraction
    runner_up_value: Fraction

    def monomial_name(self, n: int = 3) -> str:
        return monomial_str(self.unique_min_monomial, matrix_variables(n))


def find_monomial_initial_form(
    a: TropMatrix, b: TropMatrix, *, degree: int = 4
) -> Optional[NonMembershipCertificate]:
    """First monomial of the degree-d slice that is an initial form at (A, B).

    The commutator ideal I is homogeneous, so its degree-d piece I_d is
    spanned by the products (degree d-2 monomial) x (generator).  With w the
    weight of the pair, a monomial m of value v is the unique minimal term
    of some f in I_d iff the unit vector of m lies in the span of the
    value<=v parts of those products.

    One fraction-free integer elimination decides this for every value.
    Columns are ordered by (value, monomial) and a row pivots on its lowest
    column, so reduction only raises a row's lowest column and a pivot never
    changes once stored.  Products go in in order of their lowest column.
    Once all products whose lowest value is <= v are in, the pivots with a
    lead of value <= v are final and their value<=v parts span the value<=v
    part of I_d.  Only a pivot lead can be a unique minimal term, so each
    lead of value v is then tested, lowest column first, by reducing its
    unit vector until the lowest remaining column exceeds v.  The integer
    provenance of a hit is the certificate's combination of products, which
    must pass the exact unique-argmin check of :func:`evaluate_tropically`.

    At the default degree 4 the search is complete: None proves that no
    monomial of degree <= 4 lies in in_w(I) (one of lower degree times a
    variable would be found).  It does not prove membership in the tropical
    variety.
    """
    w = weight_of_pair(a, b)
    iw, _ = _lcm_scale(w)
    base = degree + 1  # no exponent of a degree-d monomial exceeds d
    level = base ** len(w)  # the columns of value v are [v*level, (v+1)*level)

    def key(m: Monomial) -> int:
        # the column (value, monomial) as one int in the same order; keys
        # add up under multiplication, as long as the degree stays <= d
        code = 0
        for e in m:
            code = code * base + e
        return sum(k * x for k, x in zip(m, iw)) * level + code

    gens = generators(a.n)
    gterms = [[(key(m), c) for m, c in g.terms] for g in gens]
    glow = [min(k for k, _ in t) for t in gterms]
    names = matrix_variables(a.n)
    extras = [monomial(names, *c) for c in combinations_with_replacement(names, degree - 2)]
    # the products (degree d-2 monomial m) x gens[gi], by lowest column
    products = sorted((key(m) + glow[gi], m, gi) for m in extras for gi in range(len(gens)))

    pivots: dict[int, tuple[dict[int, int], dict[tuple[Monomial, int], int]]] = {}
    untested: list[int] = []  # heap of pivot leads

    def reduce(row: dict[int, int], prov: dict, stop: float) -> Optional[int]:
        # eliminate the lowest column while it is below stop and has a
        # pivot; return the lowest remaining column (None: the row is zero)
        while row:
            c = min(row)
            if c >= stop or c not in pivots:
                return c
            prow, pprov = pivots[c]
            g = gcd(row[c], prow[c])
            mul, sub = prow[c] // g, row[c] // g
            for r, pr in ((row, prow), (prov, pprov)):
                if mul != 1:
                    for k in r:
                        r[k] *= mul
                for k, x in pr.items():
                    nx = r.get(k, 0) - sub * x
                    if nx:
                        r[k] = nx
                    else:
                        del r[k]
            g = gcd(*row.values(), *prov.values())
            if g > 1:
                for r in (row, prov):
                    for k in r:
                        r[k] //= g
        return None

    def close(below: float) -> Optional[NonMembershipCertificate]:
        # test the untested pivot leads below ``below``; they are final
        while untested and untested[0] < below:
            target = heappop(untested)
            stop = (target // level + 1) * level
            prov: dict[tuple[Monomial, int], int] = {}
            rest = reduce({target: 1}, prov, stop)
            if rest is not None and rest < stop:
                continue
            f = SparsePoly.from_terms(t for (m, gi), k in prov.items() for t in gens[gi].mul_monomial(m, k))
            ev = evaluate_tropically(f, w)
            if len(ev.argmin) == 1 and key(ev.argmin[0]) == target and ev.runner_up is not None:
                return NonMembershipCertificate(
                    source=f"slice[deg={degree}]",
                    polynomial=f,
                    unique_min_monomial=ev.argmin[0],
                    min_value=ev.min_value,
                    runner_up_value=ev.runner_up,
                )
        return None

    for low, m, gi in products:
        # every value below this product's lowest one is closed
        cert = close(low // level * level)
        if cert is not None:
            return cert
        row = {k + low - glow[gi]: c for k, c in gterms[gi]}
        prov = {(m, gi): 1}
        lead = reduce(row, prov, inf)
        if lead is not None:
            pivots[lead] = (row, prov)
            heappush(untested, lead)
    return close(inf)


def certify_not_in_tc3(
    a: TropMatrix, b: TropMatrix, *, deep: bool = True
) -> Optional[NonMembershipCertificate]:
    """First witness polynomial with a strictly unique argmin at (A, B).

    Searches the generator / deg-3 / deg-4 witness families in order; when
    they all tie and ``deep`` is set, falls back to the degree-4 slice
    search of :func:`find_monomial_initial_form`, which covers every value.
    Returns None when nothing is found.  With ``deep`` that proves no
    monomial of degree <= 4 is an initial form at (A, B); it is never a
    membership proof.

    Ties are tested on integer term values; the first member without one
    is evaluated exactly, and that evaluation must confirm the unique
    argmin before it becomes the certificate.
    """
    if a.n != 3 or b.n != 3:
        raise SizeMismatchError("certificates are implemented for n = 3")
    iw, _ = _lcm_scale(weight_of_pair(a, b))
    return _certify(a, b, iw, deep)


def _certify(
    a: TropMatrix, b: TropMatrix, iw: Sequence[int], deep: bool
) -> Optional[NonMembershipCertificate]:
    """:func:`certify_not_in_tc3` with the weight of the 3x3 pair (A, B)
    already scaled to ints."""
    for label, f, support in _family_supports():
        if _min_attained_twice(support, iw):
            continue
        ev = evaluate_tropically(f, weight_of_pair(a, b))
        if len(ev.argmin) == 1 and ev.runner_up is not None:
            return NonMembershipCertificate(
                source=label,
                polynomial=f,
                unique_min_monomial=ev.argmin[0],
                min_value=ev.min_value,
                runner_up_value=ev.runner_up,
            )
    if deep:
        return find_monomial_initial_form(a, b, degree=4)
    return None


# ---------------------------------------------------------------------------
# region classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairClassification:
    """Venn-region label of a matrix pair (n in {2, 3})."""

    n: int
    ts: bool
    ts_witness: Optional[tuple[int, int]]
    tpre: TpreResult
    tc_status: str  # "in" | "out" (n=2), "certified-out" | "unknown" (n=3)
    certificate: Optional[NonMembershipCertificate] = None


def classify_pair(a: TropMatrix, b: TropMatrix, *, deep: bool = True) -> PairClassification:
    if a.n != b.n:
        raise SizeMismatchError(f"size mismatch: {a.n} vs {b.n}")
    if a.n not in (2, 3):
        raise ValueError("classification is implemented for n in {2, 3}")
    # one scaling serves the min-plus products and the weight of the ties
    (x, y), _ = _int_grids(a.rows, b.rows)
    ab, ba = _int_mul(x, y), _int_mul(y, x)
    ts_wit = _first_difference(ab, ba)
    iw = _finite_weight([v for g in (x, y) for row in g for v in row])
    tpre = _in_tpre(a.n, iw)
    cert = None
    if a.n == 2:
        status = "in" if tpre.ok else "out"  # TC2 = Tpre2, see in_tc2
    else:
        cert = _certify(a, b, iw, deep)
        status = "certified-out" if cert is not None else "unknown"
    return PairClassification(
        n=a.n, ts=ts_wit is None, ts_witness=ts_wit, tpre=tpre, tc_status=status, certificate=cert
    )
