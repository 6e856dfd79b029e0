"""Min-plus scalar/matrix arithmetic, Kleene stars, normalization, formats."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from tropcomm import (
    INF,
    AllInfiniteError,
    MatrixFormatError,
    NegativeCycleError,
    SizeMismatchError,
    TropMatrix,
    TropVector,
    kleene_star,
    matrix_from_json,
    matrix_to_json,
    normalize_tp,
    pair_from_json,
    trop_add,
    trop_mul,
    trop_pow,
)
from tropcomm.core import TropScalar, format_rational, scalar_from_text

from helpers import (
    EX5_A, EX5_B, EX7_A, EX7_B, S31_A, S31_B,
    random_finite_matrix, star_power_sum,
)
from tropcomm.polytrope import random_premetric


def test_scalar_parsing_is_exact():
    assert scalar_from_text("4.10").value == Fraction(41, 10)
    assert scalar_from_text("41/10").value == Fraction(41, 10)
    assert scalar_from_text("-1").value == -1
    assert not scalar_from_text("inf").is_finite
    with pytest.raises(MatrixFormatError):
        scalar_from_text("4.1.0")
    with pytest.raises(MatrixFormatError):
        scalar_from_text("1/0")
    # Fraction reads any Unicode digit or space; an entry is ASCII
    for text in ("\u0663", "4.\u0661", "\u20031"):
        with pytest.raises(MatrixFormatError):
            scalar_from_text(text)


def test_scalar_ordering_and_addition():
    two = TropScalar.of(2)
    assert INF + two == INF
    assert two + TropScalar.of("1/2") == TropScalar.of("5/2")
    assert two < INF and not INF < two
    assert INF.min(two) == two
    assert min(INF, two) == two


def test_format_rational():
    assert format_rational(Fraction(343, 100)) == "3.43"
    assert format_rational(Fraction(41, 10)) == "4.1"
    assert format_rational(Fraction(-1)) == "-1"
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(0)) == "0"


def test_trop_add_idempotent_and_identity():
    assert trop_add(EX7_A, EX7_A) == EX7_A
    # the identity has inf off the diagonal, so min with a 0-diagonal matrix
    # returns the matrix
    assert trop_add(TropMatrix.identity(3), EX7_A) == EX7_A
    assert trop_add(EX7_A, EX7_B)[0, 1] == TropScalar.of("2.25")


def test_trop_mul_identity_and_values():
    assert trop_mul(TropMatrix.identity(3), EX7_A) == EX7_A
    assert trop_mul(EX7_B, EX7_A)[0, 2] == TropScalar.of("2.79")
    prod = trop_mul(S31_A, S31_B)
    assert prod == TropMatrix.of([[0, 1], [1, 0]])
    assert prod == trop_mul(S31_B, S31_A)


def test_trop_pow():
    assert trop_pow(EX7_A, 1) == EX7_A
    assert trop_pow(S31_A, 2) == S31_A
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(2, 5)
        a = random_premetric(rng, n)
        assert trop_pow(a, n - 1) == kleene_star(a)
    with pytest.raises(ValueError):
        trop_pow(EX7_A, 0)


def test_trop_pow_is_the_iterated_product_on_mixed_denominators():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = TropMatrix.of([[rng.choice(["inf", Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 7)))])
                            for _ in range(n)] for _ in range(n)])
        power = a
        for m in range(1, 5):
            assert trop_pow(a, m) == power
            power = trop_mul(power, a)


def test_size_mismatch():
    with pytest.raises(SizeMismatchError):
        trop_add(S31_A, EX7_A)
    with pytest.raises(SizeMismatchError):
        trop_mul(S31_A, EX7_A)
    with pytest.raises(SizeMismatchError):
        TropMatrix.of([[0, 1], [0]])


def test_kleene_star_identity_and_oracle():
    eye = TropMatrix.identity(4)
    assert kleene_star(eye) == eye
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 5)
        a = random_premetric(rng, n)
        assert kleene_star(a) == star_power_sum(a)


def test_kleene_star_of_example_sum():
    s = trop_add(EX5_A, EX5_B)
    star = kleene_star(s)
    assert s[0, 2] == TropScalar.of("3.43")
    assert star[0, 2] == TropScalar.of("2.31")
    assert star != s


def test_kleene_star_idempotence():
    rng = random.Random(13)
    for _ in range(100):
        a = random_premetric(rng, rng.randint(2, 5))
        star = kleene_star(a)
        assert kleene_star(star) == star
        assert trop_mul(star, star) == star
        assert all(star[i, i] == TropScalar.of(0) for i in range(a.n))


def test_kleene_star_negative_cycle():
    bad = TropMatrix.of([[0, 1], [-2, 0]])
    with pytest.raises(NegativeCycleError):
        kleene_star(bad)


def test_kleene_star_handles_infinite_entries():
    a = TropMatrix.of([[0, 1, "inf"], ["inf", 0, 1], [1, "inf", 0]])
    star = kleene_star(a)
    assert star[0, 2] == TropScalar.of(2)
    assert star[2, 1] == TropScalar.of(2)


def test_normalize_tp():
    assert normalize_tp(TropVector.of([3, 4, 5])) == TropVector.of([0, 1, 2])
    assert normalize_tp(TropVector.of([0, 1])) == TropVector.of([0, 1])
    assert normalize_tp(TropVector.of([-2, 0, "inf"])) == TropVector.of([0, 2, "inf"])
    assert normalize_tp(TropVector.of(["inf", 0, "inf"])) == TropVector.of(["inf", 0, "inf"])
    with pytest.raises(AllInfiniteError):
        normalize_tp(TropVector.of(["inf", "inf"]))


def test_semiring_laws_on_random_triples():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(2, 4)
        a = random_finite_matrix(rng, n)
        b = random_finite_matrix(rng, n)
        c = random_finite_matrix(rng, n)
        assert trop_add(a, b) == trop_add(b, a)
        assert trop_add(trop_add(a, b), c) == trop_add(a, trop_add(b, c))
        assert trop_add(a, a) == a
        assert trop_mul(trop_mul(a, b), c) == trop_mul(a, trop_mul(b, c))
        assert trop_mul(a, trop_add(b, c)) == trop_add(trop_mul(a, b), trop_mul(a, c))
        assert trop_mul(trop_add(b, c), a) == trop_add(trop_mul(b, a), trop_mul(c, a))


def test_product_below_min_for_premetrics():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 5)
        a = random_premetric(rng, n)
        b = random_premetric(rng, n)
        assert trop_mul(a, b).entrywise_le(trop_add(a, b))


def test_matrix_json_round_trip():
    for m in (EX5_A, EX7_B, TropMatrix.identity(3)):
        assert matrix_from_json(matrix_to_json(m)) == m


def test_matrix_json_errors():
    with pytest.raises(MatrixFormatError):
        matrix_from_json({"n": 2, "entries": [["0", "1"]]})
    with pytest.raises(MatrixFormatError):
        matrix_from_json({"entries": [["0"]]})
    with pytest.raises(MatrixFormatError):
        matrix_from_json({"n": 2, "entries": [["0", "x"], ["1", "0"]]})
    with pytest.raises(MatrixFormatError):
        pair_from_json({"n": 2, "A": [["0", "1"], ["1", "0"]]})


def test_slotted_scalars_pickle_and_copy():
    half = TropScalar.of("1/2")
    assert not hasattr(half, "__dict__")
    m = TropMatrix.of([["1/2", "inf"], [-3, "0"]])
    for value in (half, INF, m):
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert clone == value
    again = pickle.loads(pickle.dumps(m))
    assert not again[0, 1].is_finite and again[0, 0].value == Fraction(1, 2)
    with pytest.raises(AttributeError):
        half.value = Fraction(1)  # frozen


class _Half(Fraction):
    pass


def test_scalar_of_accepted_types():
    q = Fraction(7, 3)
    assert TropScalar.of(q).value is q  # kept: Fraction is immutable
    s = TropScalar.of(q)
    assert TropScalar.of(s) is s
    assert TropScalar.of(4).value == 4
    assert TropScalar.of("4.10").value == Fraction(41, 10)
    sub = TropScalar.of(_Half(1, 2))
    assert sub.value == Fraction(1, 2) and type(sub.value) is Fraction
    assert TropScalar.of(None) == INF
    for bad in (True, False):
        with pytest.raises(MatrixFormatError):
            TropScalar.of(bad)
