"""Polytrope predicates, commutativity criteria, preimages, image geometry."""

import hashlib
import random
from fractions import Fraction

import pytest

from tropcomm import (
    NotInImageError,
    NotPolytropeError,
    TropMatrix,
    TropVector,
    classify_polytrope_pair,
    commutes,
    image_vertices,
    is_polytrope,
    is_premetric,
    kleene_star,
    mat_vec,
    preimage,
    random_polytrope,
    random_premetric,
    star_image_contains,
    trop_add,
    trop_mul,
    trop_pow,
)
from tropcomm.core import TropScalar

from helpers import (
    EX5_A, EX5_B, EX6_A, EX6_B, EX7_A, EX7_B, S31_A, S31_B,
    random_vector, scaled_commuting_polytropes,
)


def test_is_premetric():
    assert not is_premetric(TropMatrix.identity(3))
    assert is_premetric(S31_A)
    assert not is_premetric(TropMatrix.of([[0, -1], [1, 0]]))
    assert not is_premetric(TropMatrix.of([[0, 0], [1, 0]]))


def test_is_polytrope_examples():
    assert is_polytrope(EX7_A) and is_polytrope(EX7_B)
    assert is_polytrope(EX5_A) and is_polytrope(EX5_B)
    assert is_polytrope(EX6_A) and is_polytrope(EX6_B)
    assert not is_polytrope(TropMatrix.of([[0, 1, 5], [1, 0, 1], [5, 1, 0]]))


def test_every_2x2_premetric_is_a_polytrope():
    rng = random.Random(2)
    for _ in range(200):
        a = random_premetric(rng, 2)
        assert is_polytrope(a)
        assert trop_pow(a, 2) == a


def test_polytrope_equals_idempotency():
    rng = random.Random(4)
    for _ in range(200):
        a = random_premetric(rng, rng.randint(2, 4))
        assert is_polytrope(a) == (trop_pow(a, 2) == a)


def test_commutes_on_examples():
    assert commutes(EX5_A, EX5_B)
    assert not commutes(EX6_A, EX6_B)
    assert not commutes(EX7_A, EX7_B)
    assert commutes(S31_A, S31_B)


def test_classification_of_published_pairs():
    c5 = classify_polytrope_pair(EX5_A, EX5_B)
    assert c5.commutes and not c5.star_condition and c5.square_condition
    at, lhs, rhs = c5.witnesses["star"]
    assert at == (1, 3)
    assert (lhs.value, rhs.value) == (Fraction(343, 100), Fraction(231, 100))
    assert c5.witness_entry == (1, 3)

    c6 = classify_polytrope_pair(EX6_A, EX6_B)
    assert not c6.commutes and c6.square_condition
    assert c6.witnesses["commutes"][0] == (3, 1)

    c7 = classify_polytrope_pair(EX7_A, EX7_B)
    assert c7.product_condition and not c7.commutes
    assert c7.witnesses["commutes"][0] == (1, 3)

    with pytest.raises(NotPolytropeError):
        classify_polytrope_pair(TropMatrix.identity(2), S31_A)


def test_theorem_chain_strict_at_n4():
    # star => commutes is strict: a commuting pair without the star condition
    c5 = classify_polytrope_pair(EX5_A, EX5_B)
    assert c5.commutes and not c5.star_condition
    # commutes => square is strict: square condition without commuting
    c6 = classify_polytrope_pair(EX6_A, EX6_B)
    assert c6.square_condition and not c6.commutes


def _lemma4_pair(rng):
    n = rng.randint(2, 5)
    return n, random_premetric(rng, n), random_premetric(rng, n)


def test_premetric_identities_suite():
    """Six exact statements about premetrics, on >= 1000 random instances."""
    rng = random.Random(41)
    for _ in range(1000):
        n, a, b = _lemma4_pair(rng)
        ab = trop_mul(a, b)
        asum = trop_add(a, b)
        astar = kleene_star(a)
        # (1) product below entrywise min
        assert ab.entrywise_le(asum)
        # (2) the (n-1)-st power is the star
        assert trop_pow(a, n - 1) == astar
        # (3) idempotent iff fixed by star
        assert (trop_pow(a, 2) == a) == (a == astar)
        # (6) star of product, both orders, equals star of min
        sstar = kleene_star(asum)
        assert kleene_star(ab) == sstar
        assert kleene_star(trop_mul(b, a)) == sstar


def test_fixed_points_are_the_star_image():
    rng = random.Random(43)
    for _ in range(1000):
        n, a, _ = _lemma4_pair(rng)
        astar = kleene_star(a)
        # points built inside the image are fixed
        c = random_vector(rng, n)
        x = mat_vec(astar, c)
        assert mat_vec(a, x) == x
        assert star_image_contains(astar, x)
        # arbitrary points: fixed iff in the image
        y = random_vector(rng, n)
        assert (mat_vec(a, y) == y) == star_image_contains(astar, y)


def test_image_intersection_identity():
    rng = random.Random(47)
    for _ in range(1000):
        n, a, b = _lemma4_pair(rng)
        astar, bstar = kleene_star(a), kleene_star(b)
        pstar = kleene_star(trop_mul(a, b))
        sstar = kleene_star(trop_add(a, b))
        for _ in range(3):
            x = random_vector(rng, n)
            both = star_image_contains(astar, x) and star_image_contains(bstar, x)
            assert star_image_contains(pstar, x) == both
            assert star_image_contains(sstar, x) == both
        # a point constructed inside the min image lies in both images
        x = mat_vec(sstar, random_vector(rng, n))
        assert star_image_contains(astar, x) and star_image_contains(bstar, x)


def test_commuting_criteria_chain():
    """Star condition => commutes => square condition on random polytropes."""
    rng = random.Random(53)
    checked_star = 0
    for trial in range(1000):
        n = rng.randint(2, 5)
        if trial % 3 == 0:
            a, b = scaled_commuting_polytropes(rng, n)
        else:
            a, b = random_polytrope(rng, n), random_polytrope(rng, n)
        cls = classify_polytrope_pair(a, b)
        if cls.star_condition:
            checked_star += 1
            assert cls.commutes
        if cls.commutes:
            assert cls.square_condition
    assert checked_star >= 300  # the engineered family keeps the test non-vacuous


def test_three_by_three_equivalences():
    """For 3x3 polytropes: commutes <=> star condition <=> product both ways,
    and the square condition always holds."""
    rng = random.Random(59)
    commuting_seen = 0
    for trial in range(1000):
        if trial % 3 == 0:
            a, b = scaled_commuting_polytropes(rng, 3)
        else:
            a, b = random_polytrope(rng, 3), random_polytrope(rng, 3)
        cls = classify_polytrope_pair(a, b)
        assert cls.square_condition
        both_orders = cls.product_condition and trop_mul(b, a) == trop_add(a, b)
        assert cls.commutes == cls.star_condition == both_orders
        commuting_seen += cls.commutes
    assert commuting_seen >= 300


def test_preimage_of_column():
    b = TropVector.of([0, 1])  # first column of S31_A
    desc = preimage(S31_A, b)
    assert desc.base == b
    assert desc.free_directions == frozenset({2})


def test_preimage_brute_force_grid():
    a = S31_A
    b = TropVector.of([0, 1])
    desc = preimage(a, b)
    assert desc.free_directions == frozenset({2})
    grid = [Fraction(k, 2) for k in range(-8, 9)]
    for u in grid:
        for v in grid:
            x = TropVector.of([u, v])
            maps_to_b = mat_vec(a, x) == b
            # description: x = b + t*e_2, t >= 0
            in_description = u == 0 and v >= 1
            assert maps_to_b == in_description, (u, v)


def test_preimage_of_interior_point_has_no_free_directions():
    # strictly interior image points admit no slack; the classical centroid
    # of the column representatives is interior whenever no constraint is
    # tight on it
    rng = random.Random(61)
    interior_checked = 0
    for _ in range(300):
        a = random_polytrope(rng, 3)
        from tropcomm import normalize_tp

        cols = [normalize_tp(a.column(j)) for j in range(3)]
        centroid = TropVector.of(
            [sum((c[i].value for c in cols), Fraction(0)) / 3 for i in range(3)]
        )
        b = mat_vec(a, centroid)
        strict = all(
            b[i].value - b[j].value != a[i, j].value
            for i in range(3)
            for j in range(3)
            if i != j
        )
        desc = preimage(a, b)
        if strict:
            interior_checked += 1
            assert desc.free_directions == frozenset()
        # every free direction really keeps the image fixed
        for j in desc.free_directions:
            shifted = list(b.entries)
            idx = j - 1
            shifted[idx] = shifted[idx] + TropScalar.of(Fraction(7, 3))
            assert mat_vec(a, TropVector(tuple(shifted))) == b
    assert interior_checked >= 150


def test_preimage_rejects_points_outside_image():
    with pytest.raises(NotInImageError):
        preimage(S31_A, TropVector.of([0, 100]))
    with pytest.raises(NotPolytropeError):
        preimage(TropMatrix.of([[0, 1, 5], [1, 0, 1], [5, 1, 0]]), TropVector.of([0, 0, 0]))


def test_image_vertices():
    eye = TropMatrix.identity(3)
    vs = image_vertices(eye)
    assert len(vs) == 3
    assert vs[0] == TropVector.of([0, "inf", "inf"])

    vs = image_vertices(S31_A)
    assert vs == [TropVector.of([0, 1]), TropVector.of([0, -2])]

    assert len(image_vertices(EX7_A)) == 3


def test_polytropes_project_onto_their_image():
    rng = random.Random(67)
    for _ in range(300):
        a = random_polytrope(rng, rng.randint(2, 4))
        assert trop_mul(a, a) == a
        x = random_vector(rng, a.n)
        px = mat_vec(a, x)
        assert mat_vec(a, px) == px


def test_seeded_constructors_are_pinned():
    """The reprs of seeded random premetrics and polytropes, and of the
    identities, are pinned: a change in the draws or the entries shows here."""
    parts = [repr(make(random.Random(seed), n))
             for seed in range(4) for n in range(2, 6) for make in (random_premetric, random_polytrope)]
    parts += [repr(TropMatrix.identity(n)) for n in range(1, 6)]
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert digest == "c2e7011c197f09b0386b1fc47e8377ac11c82969c4909ac82155be08f7ce3844"
