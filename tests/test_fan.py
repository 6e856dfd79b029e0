"""Prevariety complex enumeration: cells, f-vectors, lineality, feasibility."""

import multiprocessing
import random
from fractions import Fraction

import pytest

from tropcomm import (
    BudgetExceededError,
    fan,
    enumerate_cells,
    f_vector,
    generators,
    lineality_space,
    named_config,
    symmetric_generators,
    trop_satisfied,
)
from tropcomm.fan import (
    KNOWN_FVECTOR_PREVARIETY_3_FULL,
    KNOWN_FVECTOR_VARIETY_3,
    argmin_subsets,
    candidate_count,
    _verify_cell,
    cell_system,
)
from tropcomm.polynomials import SparsePoly
from tropcomm.simplex import add_pivot, eliminate, primitive

from helpers import raw_strict_feasibility


def test_lineality_dimensions():
    cfg = named_config("commuting:n=2")
    _, lin = lineality_space(list(cfg.gens), cfg.dim)
    assert lin == 4

    cfg = named_config("symmetric:n=3")
    _, lin = lineality_space(list(cfg.gens), cfg.dim)
    assert lin == 2

    tie_line = SparsePoly.from_terms({(1, 0): 1, (0, 1): -1})
    _, lin = lineality_space([tie_line], 2)
    assert lin == 1


def test_relative_interior_feasibility():
    gens = generators(2)
    # the all-ties pattern is the homogeneity space: feasible
    pattern = tuple(tuple(range(len(g))) for g in gens)
    eqs, stricts = cell_system(gens, pattern)
    assert stricts == []
    assert raw_strict_feasibility(eqs, stricts, 8) is not None

    # requiring u - v = 0 and u - v < 0 simultaneously is infeasible
    assert raw_strict_feasibility([(1, -1)], [(1, -1)], 2) is None


def test_pattern_feasibility_matches_grid_search():
    gens = generators(2)
    # pattern: both terms of the 2-term generator, first two terms of the others
    pattern = ((0, 1), (0, 1), (0, 1))
    eqs, stricts = cell_system(gens, pattern)
    witness = raw_strict_feasibility(eqs, stricts, 8)

    rng = random.Random(31)
    grid_hit = None
    for _ in range(20000):
        w = tuple(Fraction(rng.randint(-6, 6)) for _ in range(8))
        ok = True
        for g, sub in zip(gens, pattern):
            vals = [sum(k * w[i] for i, k in enumerate(m) if k) for m, _ in g.terms]
            mn = min(vals)
            if tuple(t for t, v in enumerate(vals) if v == mn) != sub:
                ok = False
                break
        if ok:
            grid_hit = w
            break
    assert (witness is not None) == (grid_hit is not None)


def test_enumerate_n2():
    cfg = named_config("commuting:n=2")
    gens = list(cfg.gens)
    cells = enumerate_cells(gens, cfg.dim)
    assert len(cells) == 11
    _, lin = lineality_space(gens, cfg.dim)
    fv = f_vector(cells, lin)
    assert fv.lineality_dim == 4
    assert fv.counts == (1, 4, 6)
    # soundness: every witness realizes its cell's pattern exactly
    from tropcomm.commuting import evaluate_tropically

    for c in cells:
        for g, sub in zip(gens, c.pattern):
            ev = evaluate_tropically(g, c.witness)
            argmin = tuple(
                t for t, (m, _) in enumerate(g.terms) if ev.values[t][1] == ev.min_value
            )
            assert argmin == sub
    # disjointness: patterns are pairwise distinct
    assert len({c.pattern for c in cells}) == len(cells)
    # dimension sanity: top dimension is 6 = lineality + 2
    assert max(c.dim for c in cells) == 6


def test_enumerate_n2_is_parallel_deterministic():
    cfg = named_config("commuting:n=2")
    ser = enumerate_cells(list(cfg.gens), cfg.dim, jobs=1)
    par = enumerate_cells(list(cfg.gens), cfg.dim, jobs=2)
    assert [(c.pattern, c.dim, c.witness) for c in ser] == [
        (c.pattern, c.dim, c.witness) for c in par
    ]


def test_random_points_land_in_enumerated_cells():
    cfg = named_config("commuting:n=2")
    gens = list(cfg.gens)
    cells = enumerate_cells(gens, cfg.dim)
    patterns = {c.pattern for c in cells}
    rng = random.Random(37)
    hits = 0
    for _ in range(4000):
        w = tuple(Fraction(rng.randint(-3, 3)) for _ in range(8))
        pattern = []
        in_prevariety = True
        for g in gens:
            ok, ev = trop_satisfied(g, w)
            if not ok:
                in_prevariety = False
                break
            vals = [v for _, v in ev.values]
            pattern.append(tuple(t for t, v in enumerate(vals) if v == ev.min_value))
        if in_prevariety:
            hits += 1
            assert tuple(pattern) in patterns
    assert hits >= 50


def test_single_generator_tropical_line():
    g = SparsePoly.from_terms({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    cells = enumerate_cells([g], 3)
    assert len(cells) == 4
    _, lin = lineality_space([g], 3)
    assert lin == 1
    assert f_vector(cells, lin).counts == (1, 3)


def test_empty_generators():
    cells = enumerate_cells([], 5)
    _, lin = lineality_space([], 5)
    assert f_vector(cells, lin).counts == (1,)
    assert lin == 5


def test_budget_guard_for_full_3x3():
    cfg = named_config("commuting:n=3")
    gens = list(cfg.gens)
    count = candidate_count(gens)
    diag = 2 ** 4 - 4 - 1
    off = 2 ** 6 - 6 - 1
    assert count == diag ** 3 * off ** 6
    with pytest.raises(BudgetExceededError) as err:
        enumerate_cells(gens, cfg.dim)
    assert err.value.candidates == count


def test_reference_constants_are_not_recomputed():
    assert len(KNOWN_FVECTOR_VARIETY_3) == 9
    assert KNOWN_FVECTOR_VARIETY_3[1] == 1658
    assert KNOWN_FVECTOR_VARIETY_3[-1] == 235038
    assert len(KNOWN_FVECTOR_PREVARIETY_3_FULL) == 11
    assert KNOWN_FVECTOR_PREVARIETY_3_FULL[-1] == 58


def test_face_closure_spot_check():
    """Cells with componentwise larger argmin sets are faces: lower dimension,
    and their closure meets the cell (witness interpolation re-enters it)."""
    cfg = named_config("commuting:n=2")
    gens = list(cfg.gens)
    cells = enumerate_cells(gens, cfg.dim)
    checked = 0
    for c in cells:
        for face in cells:
            if face is c:
                continue
            if not all(set(f) >= set(s) for s, f in zip(c.pattern, face.pattern)):
                continue
            assert face.dim < c.dim
            # walking from the face witness toward the cell witness
            # immediately re-enters the cell
            eps = Fraction(1, 10 ** 6)
            mid = tuple(
                fw + eps * (cw - fw) for fw, cw in zip(face.witness, c.witness)
            )
            for g, sub2 in zip(gens, c.pattern):
                vals = [sum(k * mid[i] for i, k in enumerate(m) if k) for m, _ in g.terms]
                mn = min(vals)
                assert tuple(t for t, v in enumerate(vals) if v == mn) == sub2
            checked += 1
    assert checked >= 20


def test_argmin_subsets_order():
    subs = argmin_subsets(4)
    assert subs[0] == (0, 1)
    assert len(subs) == 2 ** 4 - 4 - 1
    sizes = [len(s) for s in subs]
    assert sizes == sorted(sizes)


def test_strict_feasibility_api():
    w = raw_strict_feasibility(((1, -1, 0),), ((0, 1, -1),), 3)
    assert w is not None
    assert w[0] == w[1] and w[1] < w[2]

    assert raw_strict_feasibility(((1, -1, 0),), ((1, -1, 0),), 3) is None


def _fan_systems():
    g12, g13, g23 = symmetric_generators()
    cfg = named_config("commuting:n=2")
    return [(list(cfg.gens), cfg.dim), ([g23, g13], 12)]


def test_strict_feasibility_accepts_cells():
    """The LP finds an exact interior point of every enumerated cell."""
    for gens, dim in _fan_systems():
        for c in enumerate_cells(gens, dim):
            w = raw_strict_feasibility(c.equalities, c.inequalities, dim)
            assert w is not None
            eqs, stricts = cell_system(gens, c.pattern)
            assert all(sum(a * x for a, x in zip(row, w)) == 0 for row in eqs)
            assert all(sum(a * x for a, x in zip(row, w)) < 0 for row in stricts)


def test_prefix_systems_are_already_reduced(monkeypatch):
    """What ``strict_feasibility`` relies on: at every prefix node, adding
    the pivot rows again rebuilds the same pivots, and each stored strict
    row is unchanged by elimination against them."""
    nodes = []
    real = fan._Node.extend

    def record(self, eqs, stricts):
        child = real(self, eqs, stricts)
        if child is not None:
            nodes.append(child)
        return child

    monkeypatch.setattr(fan._Node, "extend", record)
    for gens, dim in _fan_systems():
        enumerate_cells(gens, dim)
    monkeypatch.undo()
    assert len(nodes) > 2000
    for node in nodes:
        rebuilt: dict = {}
        for row in node.pivots.values():
            add_pivot(rebuilt, row)
        assert rebuilt == node.pivots
        assert all(eliminate(row, node.pivots) == row for row in node.stricts)


def test_cells_share_the_rows_of_cell_system():
    for gens, dim in _fan_systems():
        cells = enumerate_cells(gens, dim)
        for c in cells:
            eqs, stricts = cell_system(gens, c.pattern)
            assert c.equalities == tuple(primitive(e) for e in eqs)
            assert c.inequalities == tuple(stricts)


def test_verify_cell_rejects_a_nudged_witness():
    for gens, dim in _fan_systems():
        cells = enumerate_cells(gens, dim)
        terms = [g.monomials() for g in gens]
        for c in cells:
            _verify_cell(terms, c.pattern, c.witness)
            # moving along a tie row breaks that tie, so the pattern changes
            tie = c.equalities[0]
            nudged = [x + Fraction(k, 997) for x, k in zip(c.witness, tie)]
            with pytest.raises(AssertionError):
                _verify_cell(terms, c.pattern, nudged)


def test_pool_size_is_bounded(monkeypatch):
    g12, g13, g23 = symmetric_generators()
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    serial = enumerate_cells([g23, g13], 12)
    branches = len(argmin_subsets(len(g23)))
    for cpus, expected in ((3, 3), (None, 1), (10 ** 6, branches)):
        monkeypatch.setattr(fan.os, "cpu_count", lambda: cpus)
        assert enumerate_cells([g23, g13], 12, jobs=10 ** 6) == serial
        assert sizes[-1] == expected
