"""The fraction-free simplex against an independent Fraction tableau."""

import random
from fractions import Fraction

from tropcomm import enumerate_cells, simplex, symmetric_generators

from helpers import fraction_simplex_max_t


def random_system(rng: random.Random) -> tuple[list[tuple[int, ...]], int]:
    """m <= 8 rows of width d <= 10, entries -3..3, with repeated, opposite
    and zero rows mixed in."""
    d = rng.randint(1, 10)
    rows = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 6))]
    while len(rows) < 8 and rng.random() < 0.5:
        src = rng.choice(rows)
        rows.append(rng.choice([src, tuple(-x for x in src), (0,) * d]))
    rng.shuffle(rows)
    return rows, d


def assert_same_vertex(rows, d) -> tuple[Fraction, list[tuple[int, int]]]:
    """Both tableaux give the same optimal (t, z); returns t and the
    oracle's basis changes.  The integer tableau stores only nonbasic
    columns and returns integers over one positive denominator; the oracle
    stores every column and returns Fractions."""
    t_num, z_num, den = simplex._simplex_max_t(rows, d)
    assert all(type(x) is int for x in [t_num, *z_num, den]) and den > 0
    t, z = Fraction(t_num, den), [Fraction(x, den) for x in z_num]
    t_ref, z_ref, changes = fraction_simplex_max_t(rows, d)
    assert (t, z) == (t_ref, z_ref)
    return t, changes


def test_integer_tableau_matches_fraction_tableau_on_random_systems():
    """Also covers every way a free coordinate's column changes hands: z+
    and z- each enter and each leave the basis somewhere in the sample (a
    leaving z- is the one stored negated, as z+)."""
    rng = random.Random(4)
    optimal = 0
    moves = {(kind, move): 0 for kind in ("z+", "z-") for move in ("enter", "leave")}
    for _ in range(300):
        rows, d = random_system(rng)
        t, changes = assert_same_vertex(rows, d)
        optimal += t == 1
        for change in changes:
            for move, var in zip(("enter", "leave"), change):
                if var < 2 * d:
                    moves["z+" if var < d else "z-", move] += 1
    assert 0 < optimal < 300  # both feasible and infeasible cones occur
    assert all(moves.values()), moves


def test_integer_tableau_matches_fraction_tableau_on_every_fan_lp(monkeypatch):
    # commuting:n=2 issues no LP (the cheap guess settles every prefix), so
    # the LPs come from two generators of the symmetric 3x3 ideal, g23 and g13
    g12, g13, g23 = symmetric_generators()
    issued = []
    real = simplex._simplex_max_t

    def record(rows, d):
        issued.append((rows, d))
        return real(rows, d)

    monkeypatch.setattr(simplex, "_simplex_max_t", record)
    cells = enumerate_cells([g23, g13], 12)
    monkeypatch.undo()
    assert len(cells) == 2769 and len(issued) == 1193
    infeasible = 0
    for rows, d in issued:
        infeasible += assert_same_vertex(rows, d)[0] <= 0
    assert infeasible == 160


def test_no_free_column_is_decided_by_the_lp(monkeypatch):
    # a zero strict row with every column a pivot breaks the contract, but
    # the LP over no columns still gives t = 0, so the answer is None
    issued = []
    real = simplex._simplex_max_t

    def record(rows, d):
        issued.append((rows, d))
        return real(rows, d)

    monkeypatch.setattr(simplex, "_simplex_max_t", record)
    assert simplex.strict_feasibility({0: (1,)}, [(0,)], 1) is None
    assert simplex.strict_feasibility({0: (1, 0), 1: (0, 1)}, [(0, 0)], 2) is None
    assert issued == [([()], 0), ([()], 0)]


def test_empty_strict_system_takes_the_lp_path():
    # no strict rows: the LP gives t = 1 at z = 0, and d is the lcm of the
    # pivot leads times the vertex denominator, as the docstring says
    assert simplex.strict_feasibility({0: (2, -1, 0)}, [], 3) == ((0, 0, 0), 2)
