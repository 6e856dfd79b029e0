"""The integer kernels against the TropScalar and Fraction loops they replaced.

Every kernel scales its inputs by the lcm of their denominators, computes in
ints and converts back; the results must be the same values, so their
``repr`` must be identical to the oracles' (see ``tests/helpers.py``).
"""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from tropcomm import (
    INF,
    LiftPreconditionError,
    NegativeCycleError,
    NonMembershipCertificate,
    NotPolytropeError,
    SizeMismatchError,
    TropMatrix,
    TropVector,
    classify_pair,
    classify_polytrope_pair,
    commutes,
    in_tc2,
    in_tpre,
    is_polytrope,
    kleene_star,
    lift_2x2,
    mat_vec,
    preimage,
    random_polytrope,
    star_image_contains,
    trop_add,
    trop_mul,
    val_matrix,
    verify_lift,
    weight_of_pair,
)
from tropcomm import commuting
from tropcomm.commuting import TpreResult, evaluate_tropically, labeled_generators
from tropcomm.core import TropScalar, _lcm_scale
from tropcomm.polytrope import first_difference
from tropcomm.series import LiftCheck, SeriesMatrix, SeriesPoly, _sum_of_products

from helpers import (
    S31_A,
    S31_B,
    fraction_sum_of_products,
    fraction_verify_lift,
    scalar_classify_polytrope_pair,
    scalar_is_polytrope,
    scalar_kleene_star,
    scalar_mat_vec,
    scalar_preimage,
    scalar_star_image_contains,
    scalar_trop_add,
    scalar_trop_mul,
    scaled_commuting_polytropes,
    tpre2_point,
)

DENOMINATORS = (1, 2, 3, 4, 6, 7, 12, 100)
PAIR_PATH_DIGEST = "c1d8e056284ded32f07deb534dbe5138c2a8c8fd007e84dbe59ed613801ed977"


def mixed_value(rng: random.Random, lo: int, hi: int, inf_rate: float):
    if rng.random() < inf_rate:
        return None
    return Fraction(rng.randint(lo, hi), rng.choice(DENOMINATORS))


def mixed_matrix(rng: random.Random, n: int, lo: int = -20, hi: int = 40, inf_rate: float = 0.2) -> TropMatrix:
    """Mixed denominators, some +inf entries and, now and then, an all-inf row."""
    rows = [[mixed_value(rng, lo, hi, inf_rate) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.3:
        rows[rng.randrange(n)] = [None] * n
    return TropMatrix.of(rows)


def outcome(fn, *args) -> str:
    """repr of the result, or the class name of the exception raised."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return type(exc).__name__


def test_lcm_scale():
    ints, d = _lcm_scale([Fraction(1, 4), None, Fraction(-5, 6), Fraction(3)])
    assert d == 12 and ints == [3, None, -10, 36]
    assert _lcm_scale([]) == ([], 1)
    assert _lcm_scale([None]) == ([None], 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_products_and_actions_match_scalar_loops(n):
    rng = random.Random(600 + n)
    for _ in range(60):
        a, b = mixed_matrix(rng, n), mixed_matrix(rng, n)
        x = TropVector.of([mixed_value(rng, -20, 40, 0.2) for _ in range(n)])
        assert repr(trop_mul(a, b)) == repr(scalar_trop_mul(a, b))
        assert repr(trop_add(a, b)) == repr(scalar_trop_add(a, b))
        assert repr(mat_vec(a, x)) == repr(scalar_mat_vec(a, x))
        assert commutes(a, b) == (scalar_trop_mul(a, b) == scalar_trop_mul(b, a))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kleene_star_matches_scalar_loop(n):
    """Nonnegative inputs always have a star; inputs with negative entries
    often have a negative cycle, and then both must raise."""
    rng = random.Random(700 + n)
    raised = 0
    for lo in (0, -6):
        for _ in range(60):
            a = mixed_matrix(rng, n, lo=lo)
            got, want = outcome(kleene_star, a), outcome(scalar_kleene_star, a)
            assert got == want
            raised += got == "NegativeCycleError"
    if n > 1:
        assert raised > 0


def test_negative_cycle_raises_in_both():
    a = TropMatrix.of([[0, "1/3"], ["-1/2", 0]])
    for star in (kleene_star, scalar_kleene_star):
        with pytest.raises(NegativeCycleError):
            star(a)


def test_all_infinite_inputs():
    a = TropMatrix.of([[None, None], [None, None]])
    assert trop_mul(a, a) == a
    assert kleene_star(a) == TropMatrix.identity(2)
    assert mat_vec(a, TropVector.of([1, None])) == TropVector((INF, INF))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_polytrope_criteria_match_scalar_loops(n):
    rng = random.Random(800 + n)
    for _ in range(30):
        pairs = [
            (random_polytrope(rng, n), random_polytrope(rng, n)),
            scaled_commuting_polytropes(rng, n),
        ]
        for a, b in pairs:
            assert is_polytrope(a) and scalar_is_polytrope(a)
            assert repr(classify_polytrope_pair(a, b)) == repr(scalar_classify_polytrope_pair(a, b))


def test_polytrope_rejections_match_scalar_loops():
    rng = random.Random(900)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = mixed_matrix(rng, n, lo=-2, hi=30, inf_rate=0.05)
        p = random_polytrope(rng, n)
        assert is_polytrope(a) == scalar_is_polytrope(a)
        for pair in ((a, p), (p, a), (a, a)):
            assert outcome(classify_polytrope_pair, *pair) == outcome(scalar_classify_polytrope_pair, *pair)


def test_polytrope_exception_order():
    p2, p3 = random_polytrope(random.Random(1), 2), random_polytrope(random.Random(2), 3)
    not_p3 = TropMatrix.of([[0, 1, 5], [1, 0, 1], [1, 1, 0]])  # 1 + 1 < 5
    for oracle in (classify_polytrope_pair, scalar_classify_polytrope_pair):
        with pytest.raises(SizeMismatchError):
            oracle(p2, p3)
        with pytest.raises(NotPolytropeError):
            oracle(p2, not_p3)


def mixed_polytrope(rng: random.Random, n: int) -> TropMatrix:
    """The Kleene star of a premetric with mixed denominators."""
    return kleene_star(TropMatrix.of(
        [[0 if i == j else mixed_value(rng, 1, 40, 0) for j in range(n)] for i in range(n)]
    ))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_image_tests_match_scalar_loops(n):
    """preimage and star_image_contains against the TropScalar loops they
    replaced, on polytropes and stars with mixed denominators (the stars
    with +inf entries), non-polytropes, points of the image, points outside
    it, vectors with a +inf entry and vectors of another size.  The faults
    combine, so the exceptions must also come in the same order."""
    rng = random.Random(1000 + n)
    seen = Counter()
    for _ in range(40):
        p = mixed_polytrope(rng, n)
        star = kleene_star(mixed_matrix(rng, n, lo=0))
        inside = mat_vec(p, TropVector.of([mixed_value(rng, -20, 40, 0) for _ in range(n)]))
        with_inf = TropVector(inside.entries[:-1] + (INF,))
        vectors = (
            inside,
            with_inf,
            TropVector((INF,) * n),
            TropVector.of([mixed_value(rng, -20, 40, 0.2) for _ in range(n)]),
            TropVector(inside.entries + (inside[0],)),
        )
        for m in (p, star, mixed_matrix(rng, n, lo=-2, hi=30, inf_rate=0.05)):
            for x in vectors:
                got = outcome(preimage, m, x)
                assert got == outcome(scalar_preimage, m, x)
                seen[got if "Error" in got else "free" if "{" in got else "fixed"] += 1
        for m in (p, star):
            for x in vectors:
                got = outcome(star_image_contains, m, x)
                assert got == outcome(scalar_star_image_contains, m, x)
                seen["contains", got] += 1
    kinds = ("NotPolytropeError", "SizeMismatchError", "free", "fixed", ("contains", "True"))
    if n > 1:
        kinds += ("NotInImageError", ("contains", "False"))
    assert all(seen[k] for k in kinds), seen


def random_series(rng: random.Random) -> SeriesPoly:
    terms = [
        (Fraction(rng.randint(-6, 6), rng.choice(DENOMINATORS[:6])),
         Fraction(rng.randint(-3, 3), rng.choice(DENOMINATORS[:6])))
        for _ in range(rng.randint(0, 4))
    ]
    return SeriesPoly.from_terms(terms)


def test_series_products_match_fraction_loop():
    rng = random.Random(1000)
    cancelled = 0
    for _ in range(400):
        pairs = [(random_series(rng), random_series(rng)) for _ in range(rng.randint(1, 3))]
        got = _sum_of_products(pairs)
        assert repr(got) == repr(fraction_sum_of_products(pairs))
        raw = sum(len(f.terms) * len(g.terms) for f, g in pairs)
        cancelled += len(got.terms) < raw
    assert cancelled > 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_series_matrix_products_match_fraction_loop(n):
    """A matrix product scales all entries of both factors by one lcm."""
    rng = random.Random(1100 + n)
    for _ in range(40):
        x, y = (SeriesMatrix(tuple(tuple(random_series(rng) for _ in range(n)) for _ in range(n)))
                for _ in range(2))
        want = tuple(
            tuple(fraction_sum_of_products([(x[i, k], y[k, j]) for k in range(n)]) for j in range(n))
            for i in range(n)
        )
        assert repr((x * y).rows) == repr(want)


def test_series_product_cancels_to_zero():
    # (t^(1/2) - 2/3 t^(1/3)) * 3/2 t^(1/6) + t^(1/6) * (t^(1/3) - 3/2 t^(1/2)) = 0
    f = SeriesPoly.from_terms([(Fraction(1, 2), 1), (Fraction(1, 3), Fraction(-2, 3))])
    g = SeriesPoly.term(Fraction(3, 2), Fraction(1, 6))
    h = SeriesPoly.term(1, Fraction(1, 6))
    k = SeriesPoly.from_terms([(Fraction(1, 2), Fraction(-3, 2)), (Fraction(1, 3), 1)])
    pairs = [(f, g), (h, k)]
    assert _sum_of_products(pairs) == fraction_sum_of_products(pairs) == SeriesPoly.zero()


# ---------------------------------------------------------------------------
# the pair path: classify_pair, lift_2x2 and verify_lift on one scaling
# ---------------------------------------------------------------------------

TIE_SETS_2X2 = tuple(s for size in (2, 3, 4) for s in combinations(range(4), size))


def _random_pair(rng: random.Random, n: int, kind: int) -> tuple[TropMatrix, TropMatrix]:
    """Entries 0..4 (the ``sample`` defaults), mixed denominators, or 0..1
    (many ties; for n = 2 a Tpre2 point instead)."""
    if kind == 2 and n == 2:
        return tpre2_point(rng, rng.choice(TIE_SETS_2X2))

    def entry():
        if kind == 1:
            return Fraction(rng.randint(-12, 12), rng.choice(DENOMINATORS))
        return rng.randint(0, 4 if kind == 0 else 1)

    return tuple(TropMatrix.of([[entry() for _ in range(n)] for _ in range(n)]) for _ in range(2))


def _tampered(rng: random.Random, m: SeriesMatrix, exponent: bool) -> SeriesMatrix:
    """m with one term of one nonzero entry changed: its exponent raised by
    1/2, or its coefficient raised by 1 (by 2 when that would cancel it)."""
    spots = [(i, j) for i, row in enumerate(m.rows) for j, s in enumerate(row) if s]
    i, j = rng.choice(spots)
    terms = list(m.rows[i][j].terms)
    k = rng.randrange(len(terms))
    e, c = terms[k]
    terms[k] = (e + Fraction(1, 2), c) if exponent else (e, c + (2 if c == -1 else 1))
    rows = [list(row) for row in m.rows]
    rows[i][j] = SeriesPoly.from_terms(terms)
    return SeriesMatrix(tuple(tuple(row) for row in rows))


def _pair_path_outputs() -> list:
    rng = random.Random(1301)
    out = []
    for n in (3, 2):
        for trial in range(240):
            out.append(classify_pair(*_random_pair(rng, n, trial % 3), deep=False))
    for _ in range(6):
        for ties in TIE_SETS_2X2:
            a, b = tpre2_point(rng, ties)
            lift = lift_2x2(a, b)
            out.append((classify_pair(a, b, deep=False), lift, verify_lift(*lift, a, b)))
            x, y = lift
            for exponent in (False, True):
                out.append(verify_lift(_tampered(rng, x, exponent), y, a, b))
                out.append(verify_lift(x, _tampered(rng, y, exponent), a, b))
    return out


def test_pair_path_is_pinned():
    """sha256 of repr of classify_pair(deep=False) on seeded 3x3 and 2x2
    pairs, lift_2x2 and verify_lift on Tpre2 points of all 11 tie sets, and
    verify_lift on lifts with one coefficient or exponent changed.  The
    digest was taken from the Fraction evaluation these queries replaced."""
    out = _pair_path_outputs()
    kinds = Counter(getattr(o, "tc_status", None) for o in out[:480])
    assert kinds["in"] and kinds["out"] and kinds["certified-out"] and kinds["unknown"], kinds
    assert sum(isinstance(o, LiftCheck) and not o.ok for o in out) == 6 * 11 * 4
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == PAIR_PATH_DIGEST


def test_certificate_values_match_exact_evaluation(monkeypatch):
    """For each witness_family member alone, _certify's int term values give
    the argmin, minimum and runner-up of evaluate_tropically on Fractions."""
    family = commuting._family_supports()
    rng = random.Random(1303)
    seen = Counter()
    for trial in range(45):
        a, b = _random_pair(rng, 3, trial % 3)
        w = weight_of_pair(a, b)
        iw, d = _lcm_scale(w)
        for member in family:
            monkeypatch.setattr(commuting, "_family_supports", lambda m=member: (m,))
            got = commuting._certify(a, b, iw, d, deep=False)
            ev = evaluate_tropically(member[1], w)
            kind = member[0][:3] if member[0].startswith("deg") else "gen"
            if len(ev.argmin) == 1:
                want = (member[0], member[1], ev.argmin[0], ev.min_value, ev.runner_up)
                assert repr(got) == repr(NonMembershipCertificate(*want))
                seen[kind, "unique"] += 1
            else:
                assert got is None
                seen[kind, "tied"] += 1
    assert all(seen[kind, s] >= 50 for kind in ("gen", "deg") for s in ("unique", "tied")), seen


def _commuting_3x3_lift(rng: random.Random) -> tuple[SeriesMatrix, SeriesMatrix]:
    """X with random entries and Y = X*X + t^e X, a polynomial in X, so they
    commute; Y is formed by the Fraction loop of the oracle."""
    x = SeriesMatrix(tuple(tuple(random_series(rng) for _ in range(3)) for _ in range(3)))
    shift = SeriesPoly.term(1, Fraction(rng.randint(-4, 4), rng.choice((1, 2, 5))))
    y = SeriesMatrix(tuple(
        tuple(fraction_sum_of_products([(x[i, k], x[k, j]) for k in range(3)] + [(shift, x[i, j])])
              for j in range(3))
        for i in range(3)
    ))
    return x, y


def _off_target(rng: random.Random, m: TropMatrix) -> TropMatrix:
    """m with one entry moved by 1/11 (a denominator no exponent has), a
    finite one now and then set to +inf."""
    rows = [list(row) for row in m.rows]
    i, j = rng.randrange(m.n), rng.randrange(m.n)
    e = rows[i][j]
    if e.is_finite and rng.random() < 0.3:
        rows[i][j] = INF
    else:
        rows[i][j] = TropScalar((e.value if e.is_finite else 0) + Fraction(1, 11))
    return TropMatrix(tuple(tuple(row) for row in rows))


def test_verify_lift_matches_fraction_oracle_on_lifts():
    rng = random.Random(1307)
    seen = Counter()
    lifts = []
    for ties in TIE_SETS_2X2 * 4:
        a, b = tpre2_point(rng, ties)
        lifts.append((*lift_2x2(a, b), a, b))
    for _ in range(12):
        x, y = _commuting_3x3_lift(rng)
        lifts.append((x, y, val_matrix(x), val_matrix(y)))
    for x, y, a, b in lifts:
        cases = [(x, y, a, b), (x, y, _off_target(rng, a), b), (x, y, a, _off_target(rng, b))]
        cases += [(_tampered(rng, x, e), y, a, b) for e in (False, True) if any(s for r in x.rows for s in r)]
        cases += [(x, _tampered(rng, y, e), a, b) for e in (False, True) if any(s for r in y.rows for s in r)]
        for k, case in enumerate(cases):
            got = verify_lift(*case)
            assert got == fraction_verify_lift(*case)
            assert got.ok == (k == 0), (k, got)
            seen[f"{x.n}x{x.n}"] += 1
            seen.update(kind for kind, _ in got.failures)
    assert seen["2x2"] >= 300 and seen["3x3"] >= 80, seen
    assert seen["commutation"] >= 100 and seen["valuation-X"] >= 40 and seen["valuation-Y"] >= 40, seen


def test_lift_2x2_raises_in_the_order_of_in_tc2():
    """A size other than 2x2, then a +inf entry, then a point off Tpre2;
    each input below also has every later fault."""
    off3 = TropMatrix.of([[0, 1, "inf"], [0, 0, 0], [0, 0, 0]])
    off2 = TropMatrix.of([[0, 1], ["inf", 0]])
    cases = [
        ((off3, off3), SizeMismatchError),
        ((S31_A, off3), SizeMismatchError),
        ((off2, S31_B), ValueError),
        ((S31_A, S31_B), LiftPreconditionError),
    ]
    for (a, b), error in cases:
        with pytest.raises(ValueError) as raised:
            lift_2x2(a, b)
        assert raised.type is error, (a, b)
        if error is LiftPreconditionError:
            assert in_tc2(a, b) is False
        else:
            with pytest.raises(error) as raised:
                in_tc2(a, b)
            assert raised.type is error, (a, b)


def tie_prone_pair(rng: random.Random, n: int, kind: int) -> tuple[TropMatrix, TropMatrix]:
    """Entries 0..2, so ties are common; every other pair divides them by
    denominators drawn from DENOMINATORS, so the scaling D is not 1.  Kind
    0 draws B on its own; kind 1 takes B = A + c, which lies in TS and
    Tpre; kind 2 changes one entry of that B."""
    mixed = rng.random() < 0.5

    def entry() -> Fraction:
        return Fraction(rng.randint(0, 2), rng.choice(DENOMINATORS) if mixed else 1)

    a = [[entry() for _ in range(n)] for _ in range(n)]
    if kind == 0:
        b = [[entry() for _ in range(n)] for _ in range(n)]
    else:
        c = entry()
        b = [[e + c for e in row] for row in a]
        if kind == 2:
            b[rng.randrange(n)][rng.randrange(n)] = entry()
    return TropMatrix.of(a), TropMatrix.of(b)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_commutator_sums_match_products_and_generators(n):
    """The one table of commutator sums against an independent route: the
    TS witness is the first entry where AB and BA differ, and the Tpre
    failures are the generators, in order, whose minimum at the pair's
    weight is not attained twice."""
    rng = random.Random(2600 + n)
    seen = Counter()
    for trial in range(150):
        a, b = tie_prone_pair(rng, n, trial % 3)
        w = weight_of_pair(a, b)
        want_witness = first_difference(trop_mul(a, b), trop_mul(b, a))
        want_fails = tuple(label for label, g in labeled_generators(n)
                           if not evaluate_tropically(g, w).satisfied)
        (x, y), _, _ = commuting._pair_ints(a, b)
        assert commuting._commutator_sums(x, y) == (want_witness, TpreResult(not want_fails, want_fails))
        assert in_tpre(a, b) == TpreResult(not want_fails, want_fails)
        if n <= 3:
            cls = classify_pair(a, b, deep=False)
            assert (cls.ts_witness, cls.tpre.failures) == (want_witness, want_fails)
        seen["ts"] += want_witness is None
        seen["tpre"] += not want_fails
        seen["diagonal fails"] += any(k == l for k, l in want_fails)
        seen["off-diagonal fails"] += any(k != l for k, l in want_fails)
    assert all(seen[k] for k in ("ts", "tpre", "diagonal fails", "off-diagonal fails")), seen


def test_commutator_sums_leave_out_the_cancelled_diagonal_term():
    """x11*y11 cancels in (XY - YX)[1][1]: a least sum a11 + b11 seen twice
    is no tie.  For n = 2, g22 = -g11 is no generator, so its entry is
    never reported."""
    a = TropMatrix.of([[0, 5], [5, 3]])
    b = TropMatrix.of([[0, 4], [6, 2]])
    # (1,1): x11*y11 and y11*x11 both weigh 0, x12*y21 11 and y12*x21 9
    assert in_tpre(a, b) == TpreResult(False, ((1, 1), (1, 2), (2, 1)))
    for n in (2, 3, 4):
        entries = commuting._commutator_entries(n)
        assert [label for label, *_ in entries] == [(k, l) for k in range(1, n + 1) for l in range(1, n + 1)]
        assert [label for label, *_, generator in entries if generator] == [label for label, _ in labeled_generators(n)]


def test_in_tpre_refuses_n_1():
    """A 1x1 commutator has no generator (its +inf refusal is pinned with
    the other pair entry points in tests/test_commuting.py)."""
    one = TropMatrix.of([[0]])
    with pytest.raises(ValueError, match="n must be >= 2"):
        in_tpre(one, one)


def with_inf(rng: random.Random, n: int, pattern: str) -> TropMatrix:
    """A matrix with mixed denominators: finite, with some +inf entries, or
    with one whole row or column of +inf."""
    rows = [[mixed_value(rng, -20, 40, 0.3 if pattern == "some" else 0) for _ in range(n)] for _ in range(n)]
    k = rng.randrange(n)
    for i in range(n):
        if pattern == "row":
            rows[k][i] = None
        elif pattern == "column":
            rows[i][k] = None
    return TropMatrix.of(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_int_mul_paths_match_scalar_loops(n):
    """_int_mul takes the plain sums when neither grid holds +inf and skips
    +inf only when one does; both paths against the TropScalar loops,
    through trop_mul, mat_vec, commutes and preimage, on finite grids, on
    grids with some +inf entries and on a whole +inf row or column."""
    rng = random.Random(2700 + n)
    finite = Counter()
    for pattern in ("finite", "some", "row", "column"):
        for _ in range(25):
            a, b = with_inf(rng, n, pattern), with_inf(rng, n, rng.choice(("finite", pattern)))
            x = a.column(0)
            assert repr(trop_mul(a, b)) == repr(scalar_trop_mul(a, b))
            assert repr(mat_vec(b, x)) == repr(scalar_mat_vec(b, x))
            assert commutes(a, b) == (scalar_trop_mul(a, b) == scalar_trop_mul(b, a))
            finite[a.all_finite() and b.all_finite()] += 1
        p = mixed_polytrope(rng, n)
        inside = mat_vec(p, TropVector.of([mixed_value(rng, -20, 40, 0) for _ in range(n)]))
        assert preimage(p, inside) == scalar_preimage(p, inside)
    assert finite[True] and finite[False], finite
