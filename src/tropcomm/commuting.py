"""Commuting-ideal generators and tropical membership certificates.

The commutator ideal in the 2n^2 variables {x_ij, y_ij} is generated by the
entries of XY - YX.  This module evaluates its generators tropically (is the
minimum attained twice?), decides membership in the tropical commuting set
and prevariety, and searches for non-membership certificates for the n=3
tropical commuting variety: polynomials of the ideal whose minimum at a
given weight is attained by a unique term.  The homogeneity (lineality)
space is counted by :func:`tropcomm.fan.lineality_dim`.

Every decision reads the pair scaled to ints by the lcm of its
denominators: TS and Tpre from one table of the commutator's term values
(:func:`_commutator_sums`), the certificates from each polynomial's
(:func:`_term_values`).  :func:`evaluate_tropically` gives the same minima
on Fractions for callers that want them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from heapq import heappop, heappush
from itertools import chain, combinations_with_replacement, permutations
from math import gcd, inf, isqrt
from operator import add
from typing import Iterable, Optional, Sequence, TypeVar

from .core import IntGrid, SizeMismatchError, TropMatrix, _check_sizes, _int_grids
from .polynomials import Monomial, SparsePoly, matrix_variables, monomial, monomial_str, symmetric_variables
from .polytrope import commutes

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
    "in_ts",
    "in_tpre",
    "in_tc2",
    "group_elements",
    "variable_permutation",
    "witness_deg3",
    "witness_deg4",
    "witness_family",
    "find_monomial_initial_form",
    "certify_not_in_tc3",
    "classify_pair",
]

WeightVector = tuple[Fraction, ...]
# per term of a polynomial, its variable indices, each once per unit of exponent
# (not fan's (indices, exponents): 62.5 vs 109 us a witness-family sweep; fan's exponents reach 10^6)
Support = tuple[tuple[int, ...], ...]
L = TypeVar("L")  # the label of a polynomial


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def commutator_entry(n: int, k: int, l: int) -> SparsePoly:
    """(XY - YX)[k][l] over the 2n^2 variables; 1 <= k, l <= n, else ValueError."""
    if not (1 <= k <= n and 1 <= l <= n):
        raise ValueError(f"entry ({k}, {l}) is outside 1..{n}")
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
    return _distinct_up_to_sign(
        ((k, l), commutator_entry(n, k, l)) for k in range(1, n + 1) for l in range(1, n + 1)
    )


def _distinct_up_to_sign(pairs: Iterable[tuple[L, SparsePoly]]) -> tuple[tuple[L, SparsePoly], ...]:
    """The (label, f) pairs, in order, whose f is nonzero and not +-f of an
    earlier one kept."""
    out: list[tuple[L, SparsePoly]] = []
    for label, f in pairs:
        if f and not any(f.equal_up_to_sign(g) for _, g in out):
            out.append((label, f))
    return tuple(out)


@cache
def generators(n: int) -> tuple[SparsePoly, ...]:
    return tuple(g for _, g in labeled_generators(n))


def _exponents(m: Monomial) -> tuple[int, ...]:
    return tuple(i for i, k in enumerate(m) for _ in range(k))


def _support(f: SparsePoly) -> Support:
    return tuple(_exponents(m) for m, _ in f.terms)


def _term_values(support: Support, iw: Sequence[int]) -> list[int]:
    """The term values at the weight w scaled to ints: D times those of
    :func:`evaluate_tropically` (see :func:`tropcomm.core._lcm_scale`)."""
    return [sum(map(iw.__getitem__, t)) for t in support]


@cache
def _commutator_entries(n: int) -> tuple[tuple[tuple[int, int], int, int, bool], ...]:
    """The entries of the n x n commutator XY - YX, row-major, each as its
    1-based label (k, l), its 0-based row and column, and whether it is a
    generator of :func:`labeled_generators` (for n = 2, (2, 2) is not)."""
    labels = {label for label, _ in labeled_generators(n)}
    return tuple(((k + 1, l + 1), k, l, (k + 1, l + 1) in labels) for k in range(n) for l in range(n))


@cache
def _labeled_symmetric_generators() -> tuple[tuple[tuple[int, int], SparsePoly], ...]:
    """The three 6-term generators of the symmetric 3x3 commuting ideal,
    labeled by their commutator entries.

    The entries of XY - YX for n=3 with x_ji read as x_ij (and y alike),
    written in the 12 variables x_ij, y_ij (i <= j).  The diagonal entries
    vanish and entry (l,k) is minus entry (k,l), so (1,2), (1,3) and (2,3)
    remain.  Built once.
    """
    sym = symmetric_variables()
    upper = [min(nm, nm[0] + nm[2] + nm[1]) for nm in matrix_variables(3)]  # x_ji read as x_ij
    return _distinct_up_to_sign(
        (label, SparsePoly.from_terms((monomial(sym, *(upper[i] for i in _exponents(m))), c) for m, c in g.terms))
        for label, g in labeled_generators(3)
    )


@cache
def symmetric_generators() -> tuple[SparsePoly, ...]:
    """The generators of :func:`_labeled_symmetric_generators`, g12, g13, g23."""
    return tuple(g for _, g in _labeled_symmetric_generators())


def _pair_ints(a: TropMatrix, b: TropMatrix) -> tuple[list[IntGrid], list[int], int]:
    """The pair scaled to ints by one D (see :func:`tropcomm.core._lcm_scale`):
    its two grids, its weight times D (row-major vec A, vec B), and D.
    Sizes must agree; an infinite entry raises ValueError."""
    _check_sizes(a, b)
    grids, d = _int_grids(a.rows, b.rows)
    iw = [v for g in grids for row in g for v in row]
    if None in iw:
        raise ValueError("weight vectors require finite entries")
    return grids, iw, d


def weight_of_pair(a: TropMatrix, b: TropMatrix) -> WeightVector:
    """Row-major (vec A, vec B); requires finite entries."""
    _, iw, d = _pair_ints(a, b)
    return tuple(Fraction(v, d) for v in iw)


# ---------------------------------------------------------------------------
# tropical evaluation
# ---------------------------------------------------------------------------

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
    """The value sum_i m_i * w_i of each term of f at w (one weight per
    variable), exactly: the minimum, the monomials attaining it in f's term
    order, the least value above it (None if none) and every value.  An
    empty f, or a w whose length is not f's variable count, raises
    ValueError."""
    if not f:
        raise ValueError("empty polynomial")
    if len(w) != len(f.terms[0][0]):
        raise ValueError(f"{len(w)} weights for {len(f.terms[0][0])} variables")
    vals = tuple((m, sum((k * w[i] for i, k in enumerate(m) if k), Fraction(0))) for m, _ in f.terms)
    mn = min(v for _, v in vals)
    argmin = tuple(m for m, v in vals if v == mn)
    above = [v for _, v in vals if v > mn]
    return TropEvaluation(
        min_value=mn,
        argmin=argmin,
        runner_up=min(above) if above else None,
        values=vals,
    )


# ---------------------------------------------------------------------------
# membership tests
# ---------------------------------------------------------------------------

in_ts = commutes  # the tropical commuting set TS: A@B == B@A, any real matrices


@dataclass(frozen=True)
class TpreResult:
    ok: bool
    failures: tuple[tuple[int, int], ...]


def in_tpre(a: TropMatrix, b: TropMatrix) -> TpreResult:
    """Prevariety membership: every commutator generator tropically
    satisfied.  x_kk*y_kk cancels in (XY - YX)[k][k], so its value
    a_kk + b_kk is left out there (see :func:`_commutator_sums`)."""
    (x, y), _, _ = _pair_ints(a, b)
    return _commutator_sums(x, y)[1]


def _commutator_sums(x: IntGrid, y: IntGrid) -> tuple[Optional[tuple[int, int]], TpreResult]:
    """TS and Tpre of a pair scaled to the finite int grids x, y (n >= 2)
    from one table: at each (k, l), row-major, the term values
    p_s = x_ks + y_sl of (XY)[k][l] and q_s = y_ks + x_sl of (YX)[k][l].
    The TS witness is the first 1-based (k, l) with min p != min q (None:
    AB == BA); generator (k, l) fails when the least of p and q together is
    attained once, the cancelled s = k terms left out on the diagonal."""
    xcols, ycols = list(zip(*x)), list(zip(*y))
    witness, fails = None, []
    for label, k, l, generator in _commutator_entries(len(x)):
        p, q = list(map(add, x[k], ycols[l])), list(map(add, y[k], xcols[l]))
        lo_p, lo_q = min(p), min(q)
        if lo_p != lo_q and witness is None:
            witness = label
        if not generator:
            continue
        if k == l:
            del p[k], q[k]
            lo_p, lo_q = min(p), min(q)
        # a minimum in both lists is attained twice; else count it in its own
        if lo_p != lo_q and (p.count(lo_p) if lo_p < lo_q else q.count(lo_q)) < 2:
            fails.append(label)
    return witness, TpreResult(ok=not fails, failures=tuple(fails))


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
# the S3 x S2 action
# ---------------------------------------------------------------------------

GroupElement = tuple[tuple[int, ...], bool]  # (sigma as 1-based images, swap x<->y)


def group_elements(n: int) -> list[GroupElement]:
    """All (sigma, swap) pairs, identity first, in lexicographic order."""
    return [(sigma, swap) for sigma in sorted(permutations(range(1, n + 1))) for swap in (False, True)]


def variable_permutation(g: GroupElement, names: tuple[str, ...]) -> tuple[int, ...]:
    """Index permutation induced on a variable list by (sigma, swap).

    An image missing from the list is read as its transpose (x21 as x12),
    so on the upper-triangle variables of symmetric pairs the action
    follows from the names."""
    sigma, swap = g
    idx = {nm: i for i, nm in enumerate(names)}
    perm = []
    for nm in names:
        p, i, j = nm[0], int(nm[1]), int(nm[2])
        if swap:
            p = "y" if p == "x" else "x"
        a, b = sigma[i - 1], sigma[j - 1]
        image = f"{p}{a}{b}"
        perm.append(idx[image] if image in idx else idx[f"{p}{b}{a}"])
    return tuple(perm)


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
    return f.permute_variables(variable_permutation(g, names))


def witness_deg4(g: GroupElement = ((1, 2, 3), False)) -> SparsePoly:
    """(XY-YX)[3][1]*y32*y21 - (XY-YX)[3][2]*y31*y21 - (XY-YX)[2][1]*y31*y32.

    Three pairs of terms cancel, leaving exactly 12 monomials.
    """
    names = matrix_variables(3)
    f = commutator_entry(3, 3, 1).mul_monomial(monomial(names, "y32", "y21")) - \
        commutator_entry(3, 3, 2).mul_monomial(monomial(names, "y31", "y21")) - \
        commutator_entry(3, 2, 1).mul_monomial(monomial(names, "y31", "y32"))
    return f.permute_variables(variable_permutation(g, names))


@cache
def witness_family() -> tuple[tuple[str, SparsePoly], ...]:
    """generators, then the deg-3 orbit, then the deg-4 orbit; deduplicated.

    Cheapest certificates first; orbit members equal up to sign are listed
    once, labeled by their construction.  Built once and shared.
    """
    return _distinct_up_to_sign(chain(
        ((f"g{k}{l}", g) for (k, l), g in labeled_generators(3)),
        ((f"deg3[{_gname(ge)}]", witness_deg3(ge)) for ge in group_elements(3)),
        ((f"deg4[{_gname(ge)}]", witness_deg4(ge)) for ge in group_elements(3)),
    ))


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

    def monomial_name(self) -> str:
        """The unique minimal term in the names of :func:`matrix_variables`,
        n read from its 2n^2 exponents."""
        m = self.unique_min_monomial
        return monomial_str(m, matrix_variables(isqrt(len(m) // 2)))


def _unique_min(
    source: str, f: SparsePoly, vals: Sequence[int], d: int
) -> Optional[NonMembershipCertificate]:
    """The certificate of f when the least of its term values ``vals``, at
    the weight scaled by D = ``d`` (see :func:`_term_values`), is attained
    by one term and some term is above it; else None."""
    low = min(vals)
    if vals.count(low) != 1 or len(vals) == 1:
        return None
    return NonMembershipCertificate(
        source=source,
        polynomial=f,
        unique_min_monomial=f.terms[vals.index(low)][0],
        min_value=Fraction(low, d),
        runner_up_value=Fraction(min(v for v in vals if v != low), d),
    )


def _code(m: Monomial, base: int) -> int:
    """The exponents of m as the digits of one int in base ``base``."""
    code = 0
    for e in m:
        code = code * base + e
    return code


@cache
def _slice_data(n: int, degree: int) -> tuple[Support, tuple[int, ...], tuple, tuple[int, ...]]:
    """The weight-independent data of the degree-d slice search, built once
    per (n, d), codes in base d + 1: the degree d-2 monomials' support and
    codes, each generator as (support, ((code, coefficient), ...)) in term
    order, and the indices of the diagonal generators g_ii when all n of
    them are generators (they then sum to zero, the trace of XY - YX), else
    ().  For n = 2 that is (): g22 = -g11 is no generator."""
    base = degree + 1
    names = matrix_variables(n)
    extras = [monomial(names, *c) for c in combinations_with_replacement(names, degree - 2)]
    labeled = labeled_generators(n)
    gens = tuple((_support(g), tuple((_code(m, base), c) for m, c in g.terms)) for _, g in labeled)
    diagonal = tuple(gi for gi, ((k, l), _) in enumerate(labeled) if k == l)
    return (tuple(map(_exponents, extras)), tuple(_code(m, base) for m in extras), gens,
            diagonal if len(diagonal) == n else ())


def _decode(key: int, base: int, nvars: int) -> Monomial:
    """The inverse of :func:`_code` on a column ``key`` = value*level + code."""
    return tuple(key // base ** i % base for i in reversed(range(nvars)))


def _eliminate(row: dict[int, int], prow: dict[int, int], c: int) -> None:
    """row := mul*row - sub*prow in place, with the least mul, sub that
    clear column c; after a step with mul != 1 the content is divided out."""
    p = prow[c]
    g = gcd(row[c], p)
    mul, sub = p // g, row[c] // g
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


def _reduce(row: dict[int, int], pivots: dict[int, dict[int, int]]) -> Optional[int]:
    """Eliminate the lowest column of row while it has a pivot; return the
    lowest remaining column (None: the row is zero).  ``pivots`` maps a
    lead to its row."""
    while row:
        c = min(row)
        if c not in pivots:
            return c
        _eliminate(row, pivots[c], c)
    return None


def _back_substitute(rows: dict[int, dict[int, int]], leads: list[int]) -> None:
    """Bring the rows of the ascending ``leads`` of one value (``rows`` maps
    a lead to its row) to reduced echelon form inside that value: from the
    highest lead down, clear the other leads from each row."""
    inside = set(leads)
    for lead in reversed(leads):
        row = rows[lead]
        for c in [k for k in row if k in inside and k != lead]:
            _eliminate(row, rows[c], c)


def find_monomial_initial_form(
    a: TropMatrix, b: TropMatrix, *, degree: int = 4
) -> Optional[NonMembershipCertificate]:
    """First monomial of the degree-d slice that is an initial form at (A, B).

    The commutator ideal I is homogeneous, so its degree-d piece I_d is
    spanned by the products (degree d-2 monomial) x (generator).  With w the
    weight of the pair, a monomial m of value v is the unique minimal term
    of some f in I_d iff the unit vector of m lies in the span of the
    value<=v parts of those products.

    Columns are ordered by (value, monomial) and a row pivots on its lowest
    column, so reduction only raises a row's lowest column and a pivot's
    lead never changes.  Products go in in order of their lowest column,
    ties broken by the degree d-2 monomial, then the generator.  For n >= 3
    the diagonal generators sum to zero (the trace of XY - YX), so for each
    monomial the diagonal product that comes last in this order lies in the
    span of the rows before it: it would reduce to zero, and it is left out
    (the same generator for every monomial).  Once all products whose
    lowest value is <= v are in, the pivots with a lead of value v are
    final, and their value-v parts (initial forms) span the value-v part of
    in_w(I)_d: a basis with distinct leads under an order that refines w
    has initial forms that span the initial ideal (Maclagan-Sturmfels 2015,
    section 2.4).  Only a lead can be a unique minimal term.

    One fraction-free integer elimination decides and certifies.  When a
    value closes, its pivots leave the elimination: every later row starts
    above the value.  The value-v parts of its rows are brought to reduced
    echelon form inside that value, from the highest lead down.  That form
    is unique and a unit vector lies in the span iff it is one of its rows,
    so a lead is an initial form iff it is left alone in its part.  Only
    then are the value's whole rows brought to that form, by the same steps,
    from the first lone lead up: a row there has no entry at a lower lead.
    A lone lead's row is then a combination of products whose only term of
    value <= v is the lead: negated, it is the certificate, each column read
    back as its monomial.  Its term values, read on the same scaled ints,
    must have the lead as their unique minimal term.

    At the default degree 4 the search is complete: None proves that no
    monomial of degree <= 4 lies in in_w(I) (one of lower degree times a
    variable would be found).  It does not prove membership in the tropical
    variety.  A degree below 2 raises ValueError.
    """
    if degree < 2:
        raise ValueError("degree must be >= 2")
    _, iw, d = _pair_ints(a, b)
    base = degree + 1  # no exponent of a degree-d monomial exceeds d
    level = base ** len(iw)  # the columns of value v are [v*level, (v+1)*level)

    # a column (value, monomial) is the one int value*level + code, in the
    # same order; keys add up under multiplication while the degree is <= d
    esup, ecodes, gcodes, diagonal = _slice_data(a.n, degree)
    gterms = [[(v * level + code, c) for v, (code, c) in zip(_term_values(sup, iw), terms)]
              for sup, terms in gcodes]
    glow = [min(k for k, _ in t) for t in gterms]
    # the products (degree d-2 monomial m) x generator gi as (lowest column,
    # m's code, gi); the code orders as m does, and the tie-break decides the
    # row that becomes a pivot.  For one m the diagonal products order by
    # (glow, gi), so the last of them is the same gi for every m
    skip = max(diagonal, key=lambda gi: (glow[gi], gi), default=None)
    products = sorted((v * level + code + low, code, gi)
                      for v, code in zip(_term_values(esup, iw), ecodes)
                      for gi, low in enumerate(glow) if gi != skip)

    pivots: dict[int, dict[int, int]] = {}
    untested: list[int] = []  # heap of the leads of the values not yet closed
    for low, _, gi in [*products, (inf, 0, None)]:
        # close each value that lies below this product's lowest column (the
        # end sentinel closes the rest) and test its leads lowest first
        while untested and (top := (untested[0] // level + 1) * level) <= low:
            leads = []
            while untested and untested[0] < top:
                leads.append(heappop(untested))
            rows = {lead: pivots.pop(lead) for lead in leads}
            parts = {lead: {k: c for k, c in row.items() if k < top} for lead, row in rows.items()}
            _back_substitute(parts, leads)
            alone = [lead for lead in leads if len(parts[lead]) == 1]
            if alone:
                _back_substitute(rows, leads[leads.index(alone[0]):])
            for lead in alone:
                # any nonzero multiple of the row certifies; the negation is
                # the sign pinned by tests/test_commuting.py
                f = SparsePoly.from_terms((_decode(k, base, len(iw)), -c) for k, c in rows[lead].items())
                vals = _term_values(_support(f), iw)
                cert = _unique_min(f"slice[deg={degree}]", f, vals, d)
                if cert is not None and min(vals) * level + _code(cert.unique_min_monomial, base) == lead:
                    return cert
        if gi is not None:
            row = {k + low - glow[gi]: c for k, c in gterms[gi]}
            lead = _reduce(row, pivots)
            if lead is not None:
                pivots[lead] = row
                heappush(untested, lead)
    return None


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

    Ties are tested on the term values at the weight scaled to ints (D
    times its entries, D > 0 the lcm of their denominators), computed once
    per member.  The first untied member is evaluated exactly on those
    D-scaled ints: they are the exact term values times D, so they give its
    unique minimal term, and its minimum and runner-up divided by D.
    """
    if a.n != 3 or b.n != 3:
        raise SizeMismatchError("certificates are implemented for n = 3")
    _, iw, d = _pair_ints(a, b)
    return _certify(a, b, iw, d, deep)


def _certify(
    a: TropMatrix, b: TropMatrix, iw: Sequence[int], d: int, deep: bool
) -> Optional[NonMembershipCertificate]:
    """:func:`certify_not_in_tc3` with the weight of the 3x3 pair (A, B)
    already scaled to the ints ``iw``, D = ``d`` times its entries."""
    for label, f, support in _family_supports():
        cert = _unique_min(label, f, _term_values(support, iw), d)
        if cert is not None:
            return cert
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
    """Where the n x n pair (A, B), n = 2 or 3, lies.

    ``ts`` (:func:`in_ts`; ``ts_witness`` is the first 1-based entry where
    AB and BA differ) and ``tpre`` (:func:`in_tpre`, with the failing
    generators) are exact, both read from one table of the sums a_ks + b_sl
    and b_ks + a_sl; on the diagonal the s = k sums are left out of the
    ties, since x_kk*y_kk cancels in XY - YX.  ``tc_status`` is exact for
    n = 2: "in" or "out" of TC2 = Tpre2.  For n = 3, "certified-out" comes
    with its proof, the ``certificate``; "unknown" proves only that the
    search found none: no witness-family member has a unique minimal term
    at (vec A, vec B), and with ``deep`` no monomial of degree <= 4 is an
    initial form there (:func:`certify_not_in_tc3`).  It never proves
    membership in TC3.

    Raises SizeMismatchError on mixed sizes, then ValueError for any other
    n or a +inf entry.
    """
    _check_sizes(a, b)
    if a.n not in (2, 3):
        raise ValueError("classification is implemented for n in {2, 3}")
    # one scaling serves the table of commutator sums and the certificates
    (x, y), iw, d = _pair_ints(a, b)
    ts_wit, tpre = _commutator_sums(x, y)
    cert = None
    if a.n == 2:
        status = "in" if tpre.ok else "out"  # TC2 = Tpre2, see in_tc2
    else:
        cert = _certify(a, b, iw, d, deep)
        status = "certified-out" if cert is not None else "unknown"
    return PairClassification(
        n=a.n, ts=ts_wit is None, ts_witness=ts_wit, tpre=tpre, tc_status=status, certificate=cert
    )
