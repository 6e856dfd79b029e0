"""Exact series arithmetic, valuations, lift verification, 2x2 lifting."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from tropcomm import (
    INF,
    enumerate_cells,
    generators,
    LiftPreconditionError,
    SeriesMatrix,
    SeriesPoly,
    TropMatrix,
    in_tc2,
    in_tpre,
    in_ts,
    lift_2x2,
    parse_series,
    series,
    val_matrix,
    verify_lift,
)
from tropcomm.core import SizeMismatchError, TropScalar, _fraction
from tropcomm.polynomials import SparsePoly
from tropcomm.series import format_series

from helpers import (
    LIFT_X, LIFT_Y, S31_A, S31_B, TC2_A, TC2_B,
    fraction_sum_of_products, fraction_verify_lift, lineality_basis, random_tc2_pair,
)


def S(text: str) -> SeriesPoly:
    return parse_series(text)


def test_parse_and_format_round_trip():
    for text in ("1+t", "t^4", "t^-1", "-2*t^(1/2)", "0", "3", "-1/2", "t - t^2"):
        s = S(text)
        assert parse_series(format_series(s)) == s
    assert S("1+t") == SeriesPoly.from_terms([(Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))])
    assert S("t^(1/2)").terms == ((Fraction(1, 2), Fraction(1)),)
    assert S("2.5").terms == ((Fraction(0), Fraction(5, 2)),)
    with pytest.raises(ValueError):
        parse_series("t^^2")


@pytest.mark.parametrize("text", ["0", "5", "t", "-t", "3/4*t^3", "t^(1/2)", "t^-1", "2 - t^(1/2) + 3/4*t^3"])
def test_series_print_as_they_are_written(text):
    assert str(S(text)) == format_series(S(text)) == text


def test_parse_series_accepted_forms():
    assert S("2 t") == S("2t") == S("2 * t") == S("2*t")
    assert S("t^1/2") == S("t^(1/2)") and S("t^(3)") == S("t^3")
    assert S("+t - 1.5") == S("t - 3/2")
    assert S("") == S("0") == SeriesPoly.zero()


@pytest.mark.parametrize("text", ["9+", "t + ", "2*", "*t", "1 + -45", "t^(1/2", "t^1/2)",
                                  "\u0663", "t^\u0662", "1\u2003+ t", "\u20031"])
def test_parse_series_refuses_malformed_text(text):
    """A trailing sign, a * not between a magnitude and t, a doubled sign
    and an unbalanced parenthesis are errors, not a shorter series.  So are
    the Unicode digits and spaces that Python reads as ASCII ones."""
    with pytest.raises(ValueError):
        parse_series(text)


def test_format_then_parse_is_the_identity_on_random_series():
    rng = random.Random(2121)
    for _ in range(1000):
        s = SeriesPoly.from_terms(
            (Fraction(rng.randint(-12, 12), rng.randint(1, 6)), Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
            for _ in range(rng.randint(0, 5))
        )
        assert parse_series(format_series(s)) == s


def test_series_arithmetic():
    assert S("1+t") * S("1") == S("1+t")
    five = S("t^2") * S("t^3")
    assert five == S("t^5")
    assert five.valuation == TropScalar.of(5)
    prod = S("1+t") * S("t^-1")
    assert prod == S("t^-1 + 1")
    assert prod.valuation == TropScalar.of(-1)
    assert S("1+t") - S("t") == S("1")
    assert S("t") - S("t") == SeriesPoly.zero()
    assert SeriesPoly.zero().valuation == INF


def test_valuation_is_multiplicative_and_subadditive():
    rng = random.Random(71)

    def rand_series():
        nterms = rng.randint(1, 4)
        return SeriesPoly.from_terms(
            [
                (Fraction(rng.randint(-8, 8), rng.randint(1, 3)), Fraction(rng.randint(-5, 5)))
                for _ in range(nterms)
            ]
        )

    for _ in range(500):
        f, g = rand_series(), rand_series()
        if f and g:
            assert (f * g).valuation == f.valuation + g.valuation
        s = f + g
        if s:
            assert not s.valuation < f.valuation.min(g.valuation)
            if f.valuation != g.valuation:
                assert s.valuation == f.valuation.min(g.valuation)


def test_val_matrix_of_published_lift():
    x = SeriesMatrix.parse(LIFT_X)
    y = SeriesMatrix.parse(LIFT_Y)
    assert val_matrix(x) == TC2_A
    assert val_matrix(y) == TC2_B
    zero = SeriesMatrix.parse([["0", "0"], ["0", "0"]])
    assert val_matrix(zero) == TropMatrix.of([["inf", "inf"], ["inf", "inf"]])


def test_verify_published_lift():
    x = SeriesMatrix.parse(LIFT_X)
    y = SeriesMatrix.parse(LIFT_Y)
    assert verify_lift(x, y, TC2_A, TC2_B).ok


def test_self_commutation_always_verifies():
    x = SeriesMatrix.parse([["1+t", "t^4"], ["t^2", "2"]])
    a = val_matrix(x)
    assert verify_lift(x, x, a, a).ok


def test_perturbed_lift_fails_with_pinpointed_entry():
    x = SeriesMatrix.parse(LIFT_X)
    y = SeriesMatrix.parse([["1", "2*t^3"], ["t", "t^-1"]])
    check = verify_lift(x, y, TC2_A, TC2_B)
    assert not check.ok
    kinds = {k for k, _ in check.failures}
    assert kinds == {"commutation"}
    assert ("commutation", (1, 2)) in check.failures


def test_verify_lift_rejects_mixed_sizes():
    x2, y2 = SeriesMatrix.parse(LIFT_X), SeriesMatrix.parse(LIFT_Y)
    x3 = SeriesMatrix.parse([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "t"]])
    a3 = val_matrix(x3)
    for x, y, a, b in ((x2, y2, a3, a3), (x3, x3, TC2_A, TC2_B), (x2, x3, TC2_A, TC2_B),
                       (x2, y2, TC2_A, a3)):
        with pytest.raises(SizeMismatchError):
            verify_lift(x, y, a, b)


def test_series_matrix_size_errors_are_size_mismatches():
    with pytest.raises(SizeMismatchError, match=r"^matrix is not square$"):
        SeriesMatrix.parse([["1", "t"], ["t"]])
    x2, x3 = SeriesMatrix.parse(LIFT_X), SeriesMatrix.parse([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "t"]])
    with pytest.raises(SizeMismatchError, match=r"^size mismatch: 2 vs 3$"):
        x2 * x3


def _monomial(rng: random.Random) -> SeriesPoly:
    exponent = Fraction(rng.randint(-3, 9), rng.choice((1, 2, 3, 4)))
    coefficient = Fraction(rng.choice((1, -1, 2, -2, 3, -3, 5, -5, 7, -7)), rng.choice((1, 2, 3)))
    return SeriesPoly.from_terms([(exponent, coefficient)])


def _diagonalised_pair(rng: random.Random, n: int) -> tuple[SeriesMatrix, SeriesMatrix]:
    """X = P*D*adj(P) and Y = P*E*adj(P) for monomial P and diagonal D, E;
    they commute, as XY = det(P) * P*D*E*adj(P) = YX.  All products are
    formed on Fractions by the test's own arithmetic."""
    one = SeriesPoly.from_terms([(0, 1)])

    def mul(*factors):
        acc = one
        for f in factors:
            acc = fraction_sum_of_products([(acc, f)])
        return acc

    def add(terms):
        return fraction_sum_of_products([(t, one) for t in terms])

    def neg(f):
        return SeriesPoly(tuple((e, -c) for e, c in f.terms))

    p = [[_monomial(rng) for _ in range(n)] for _ in range(n)]
    if n == 2:
        adj = [[p[1][1], neg(p[0][1])], [neg(p[1][0]), p[0][0]]]
    else:
        def cofactor(i, j):
            r = [k for k in range(3) if k != i]
            c = [k for k in range(3) if k != j]
            minor = add([mul(p[r[0]][c[0]], p[r[1]][c[1]]), neg(mul(p[r[0]][c[1]], p[r[1]][c[0]]))])
            return minor if (i + j) % 2 == 0 else neg(minor)

        adj = [[cofactor(j, i) for j in range(3)] for i in range(3)]

    def conjugate(diag):
        return SeriesMatrix(tuple(
            tuple(add([mul(p[i][k], diag[k], adj[k][j]) for k in range(n)]) for j in range(n))
            for i in range(n)
        ))

    return conjugate([_monomial(rng) for _ in range(n)]), conjugate([_monomial(rng) for _ in range(n)])


def _with_entry(m: SeriesMatrix, i: int, j: int, entry: SeriesPoly) -> SeriesMatrix:
    rows = [list(r) for r in m.rows]
    rows[i][j] = entry
    return SeriesMatrix(tuple(tuple(r) for r in rows))


def test_commutator_check_matches_two_product_oracle():
    # verify_lift sums XY - YX on ints in one scaling; the oracle forms XY
    # and YX in full on Fractions and compares them
    rng = random.Random(79)
    seen = Counter()
    for trial in range(60):
        n = 2 + trial % 2
        x, y = _diagonalised_pair(rng, n)
        a, b = val_matrix(x), val_matrix(y)
        cases = [(x, y, a, b)]
        # one term added to one entry of X or Y
        i, j = rng.randrange(n), rng.randrange(n)
        bump = SeriesPoly.from_terms(x[i, j].terms + _monomial(rng).terms)
        cases.append((_with_entry(x, i, j, bump), y, a, b))
        bump = SeriesPoly.from_terms(y[i, j].terms + _monomial(rng).terms)
        cases.append((x, _with_entry(y, i, j, bump), a, b))
        # the target valuation off at one entry of A or B
        i, j = rng.randrange(n), rng.randrange(n)
        off = TropScalar(Fraction(rng.choice((-1, 1)))) + (a[i, j] if a[i, j].is_finite else TropScalar.of(0))
        rows = [list(r) for r in (a if trial % 4 < 2 else b).rows]
        rows[i][j] = off
        shifted = TropMatrix(tuple(tuple(r) for r in rows))
        cases.append((x, y, shifted, b) if trial % 4 < 2 else (x, y, a, shifted))
        for k, (xx, yy, aa, bb) in enumerate(cases):
            got, want = verify_lift(xx, yy, aa, bb), fraction_verify_lift(xx, yy, aa, bb)
            assert got == want, (trial, k)
            assert got.ok == (k == 0), (trial, k, got)
            seen.update(kind for kind, _ in got.failures)
            seen[f"{n}x{n}"] += 1
    assert seen["commutation"] >= 100 and seen["valuation-X"] >= 20 and seen["valuation-Y"] >= 20, seen
    assert seen["2x2"] == seen["3x3"] == 120


def test_lift_rejects_non_variety_pairs():
    with pytest.raises(LiftPreconditionError):
        lift_2x2(S31_A, S31_B)


def test_lift_of_published_pair():
    found = lift_2x2(TC2_A, TC2_B)
    assert found is not None
    x, y = found
    assert verify_lift(x, y, TC2_A, TC2_B).ok


def test_lift_of_equal_pair():
    a = TropMatrix.of([[0, 2], [1, 0]])
    found = lift_2x2(a, a)
    assert found is not None
    x, y = found
    assert verify_lift(x, y, a, a).ok


def test_lift_on_random_variety_points():
    rng = random.Random(73)
    for _ in range(100):
        a, b = random_tc2_pair(rng)
        x, y = lift_2x2(a, b)
        assert verify_lift(x, y, a, b).ok
        assert in_tc2(val_matrix(x), val_matrix(y))


def test_lift_failing_its_own_check_is_a_bug(monkeypatch):
    monkeypatch.setattr(series, "_lift_failures", lambda n, polys, targets: [("commutation", (1, 2))])
    with pytest.raises(AssertionError):
        lift_2x2(TC2_A, TC2_B)


def test_lift_exists_beyond_generic_membership_test():
    # a pair where the products disagree because the lift's commutation
    # cancels leading terms: the prevariety test accepts it, the
    # commuting-set test rejects it, and the verified lift below proves it
    # lies in TC2, as in_tc2 says
    a = TropMatrix.of([[2, 1], [1, 0]])
    b = TropMatrix.of([[0, 1], [1, 3]])
    assert in_tpre(a, b).ok
    assert not in_ts(a, b)
    assert in_tc2(a, b)
    x = SeriesMatrix.parse([["t^2", "t"], ["t", "t^3 - 1"]])
    y = SeriesMatrix.parse([["1 + t^2", "t"], ["t", "t^3"]])
    assert verify_lift(x, y, a, b).ok


def test_every_commuting_n2_cell_lifts():
    """Interior points of all 11 cells of the commuting:n=2 fan are in TC2:
    in_tc2 accepts them and lift_2x2 returns a lift that verify_lift
    accepts.  Points are a cell's witness times a positive scale plus a
    lineality vector; the cells ((0,1),(0,2),(0,2)) and ((0,1),(1,3),(1,3))
    are the ones a test by A@B == B@A on the hyperplane rejects whole."""
    gens = list(generators(2))
    cells = enumerate_cells(gens, 8)
    basis = lineality_basis(gens, 8)
    assert len(cells) == 11
    rng = random.Random(53)
    not_ts = 0
    for cell in cells:
        for _ in range(12):
            scale = Fraction(rng.randint(1, 40), rng.randint(1, 8))
            w = [scale * x for x in cell.witness]
            for v in basis:
                c = Fraction(rng.randint(-40, 40), rng.randint(1, 8))
                w = [x + c * y for x, y in zip(w, v)]
            a = TropMatrix.of([w[0:2], w[2:4]])
            b = TropMatrix.of([w[4:6], w[6:8]])
            assert in_tpre(a, b).ok and in_tc2(a, b), cell.pattern
            found = lift_2x2(a, b)
            assert found is not None, cell.pattern
            assert verify_lift(found[0], found[1], a, b).ok, cell.pattern
            not_ts += not in_ts(a, b)
    assert not_ts >= 24  # the two cells above lie outside TS


# ---------------------------------------------------------------------------
# the term-sum algebra shared by polynomials and series
# ---------------------------------------------------------------------------

class _Half(Fraction):
    """A Fraction subclass; series normalise it to a plain Fraction."""


@pytest.mark.parametrize("cls, low, high", [
    (SparsePoly, (0, 1), (1, 0)),
    (SeriesPoly, Fraction(-1, 2), Fraction(3)),
])
def test_term_sums_share_one_algebra(cls, low, high):
    f = cls.from_terms([(high, 3), (low, 2), (high, -1), (low, -2)])
    assert f.terms == ((high, 2),)  # repeated keys summed, the zero sum dropped
    g = cls.from_terms([(high, 1), (low, 5)])
    assert g.terms == ((low, 5), (high, 1))  # sorted by key
    assert cls.zero() == cls(()) and not cls.zero() and f and g
    assert (f + g).terms == ((low, 5), (high, 3))
    assert (f - g).terms == ((low, -5), (high, 1))
    assert (-g).terms == ((low, -5), (high, -1))
    assert g - g == cls.zero() and f + cls.zero() == f
    assert {type(p) for p in (cls.zero(), f + g, f - g, -g)} == {cls}


def test_sparse_poly_from_terms_accepts_a_mapping():
    assert SparsePoly.from_terms({(1, 0): 2, (0, 1): -1, (0, 0): 0}).terms == (((0, 1), -1), ((1, 0), 2))


@pytest.mark.parametrize("make", [int, lambda k: _Half(k, 2)], ids=["int", "Fraction-subclass"])
def test_series_hold_only_plain_fractions(make):
    s = SeriesPoly.from_terms([(make(1), make(2)), (make(0), make(3)), (make(1), make(1))])
    t = SeriesPoly.term(make(4), make(2))
    assert s.terms == ((make(0), make(3)), (make(1), make(3)))
    for p in (s, t, s + t, s - t, -s):
        assert p.terms and all(type(e) is type(c) is Fraction for e, c in p.terms)
    q = Fraction(1, 3)
    assert _fraction(q) is q and type(_fraction(make(1))) is Fraction
    assert type(TropScalar.of(make(1)).value) is Fraction
