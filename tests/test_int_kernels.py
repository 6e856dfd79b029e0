"""The integer kernels against the TropScalar and Fraction loops they replaced.

Every kernel scales its inputs by the lcm of their denominators, computes in
ints and converts back; the results must be the same values, so their
``repr`` must be identical to the oracles' (see ``tests/helpers.py``).
"""

import random
from fractions import Fraction

import pytest

from tropcomm import (
    INF,
    NegativeCycleError,
    NotPolytropeError,
    SizeMismatchError,
    TropMatrix,
    TropVector,
    classify_polytrope_pair,
    commutes,
    is_polytrope,
    kleene_star,
    mat_vec,
    random_polytrope,
    trop_mul,
)
from tropcomm.core import _lcm_scale
from tropcomm.series import SeriesMatrix, SeriesPoly, _sum_of_products

from helpers import (
    fraction_sum_of_products,
    scalar_classify_polytrope_pair,
    scalar_is_polytrope,
    scalar_kleene_star,
    scalar_mat_vec,
    scalar_trop_mul,
    scaled_commuting_polytropes,
)

DENOMINATORS = (1, 2, 3, 4, 6, 7, 12, 100)


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
