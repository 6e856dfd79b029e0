"""Exact series arithmetic, valuations, lift verification, 2x2 lifting."""

import random
from fractions import Fraction

import pytest

from tropcomm import (
    INF,
    enumerate_cells,
    generators,
    lineality_space,
    LiftPreconditionError,
    SeriesMatrix,
    SeriesPoly,
    TropMatrix,
    in_tc2,
    in_tpre,
    in_ts,
    lift_2x2,
    parse_series,
    val_matrix,
    verify_lift,
)
from tropcomm.core import TropScalar
from tropcomm.series import format_series

from helpers import LIFT_X, LIFT_Y, S31_A, S31_B, TC2_A, TC2_B, random_tc2_pair


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
    found = 0
    for _ in range(100):
        a, b = random_tc2_pair(rng)
        got = lift_2x2(a, b)
        if got is not None:
            x, y = got
            assert verify_lift(x, y, a, b).ok
            assert in_tc2(val_matrix(x), val_matrix(y))
            found += 1
    assert found >= 80  # the constructive ansatz covers every sampled point


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
    basis, _ = lineality_space(gens, 8)
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
