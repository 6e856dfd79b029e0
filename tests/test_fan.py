"""Prevariety complex enumeration: cells, f-vectors, lineality, feasibility."""

import gc
import hashlib
import multiprocessing
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest

from tropcomm import (
    BudgetExceededError,
    Cell,
    fan,
    enumerate_cells,
    evaluate_tropically,
    f_vector,
    generators,
    lineality_dim,
    maximal_cell_orbits,
    named_config,
    simplex,
    symmetric_generators,
)
from tropcomm.fan import (
    KNOWN_FVECTOR_PREVARIETY_3_FULL,
    KNOWN_FVECTOR_VARIETY_3,
    argmin_subsets,
    candidate_count,
    _sparse_terms,
    _verify_cell,
    cell_system,
)
from tropcomm.commuting import labeled_generators
from tropcomm.polynomials import SparsePoly
from tropcomm.simplex import add_pivot, eliminate

from helpers import fraction_simplex_max_t, raw_strict_feasibility


@pytest.mark.parametrize("name", ["commuting:n=\u0662", "commuting:n= 2", "commuting:n=0_2", "commuting:n=-2"])
def test_named_config_reads_ascii_digits(name):
    """int() reads Unicode digits, spaces and underscores; K is ASCII digits."""
    with pytest.raises(ValueError):
        named_config(name)


def test_lineality_dimensions():
    cfg = named_config("commuting:n=2")
    lin = lineality_dim(list(cfg.gens), cfg.dim)
    assert lin == 4

    cfg = named_config("symmetric:n=3")
    lin = lineality_dim(list(cfg.gens), cfg.dim)
    assert lin == 2

    tie_line = SparsePoly.from_terms({(1, 0): 1, (0, 1): -1})
    lin = lineality_dim([tie_line], 2)
    assert lin == 1
    cancelled = SparsePoly.from_terms([((1, 0), 1), ((1, 0), -1)])
    assert not cancelled and lineality_dim([cancelled, tie_line], 2) == 1


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
    lin = lineality_dim(gens, cfg.dim)
    fv = f_vector(cells, lin)
    assert fv.lineality_dim == 4
    assert fv.counts == (1, 4, 6)
    # soundness: every witness realizes its cell's pattern exactly
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


def _fan_systems():
    g12, g13, g23 = symmetric_generators()
    cfg = named_config("commuting:n=2")
    return [(list(cfg.gens), cfg.dim), ([g23, g13], 12)]


@pytest.mark.parametrize("gens, dim", _fan_systems(), ids=["commuting:n=2", "g23,g13"])
def test_enumerate_n2_is_parallel_deterministic(gens, dim):
    """commuting:n=2 has one first-level branch and runs serially at any
    ``jobs``; the g23/g13 pair has 57, so ``jobs=2`` seeds one pool task per
    first-level subset."""
    ser = enumerate_cells(gens, dim, jobs=1)
    par = enumerate_cells(gens, dim, jobs=2)
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
            ev = evaluate_tropically(g, w)
            if not ev.satisfied:
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
    lin = lineality_dim([g], 3)
    assert lin == 1
    assert f_vector(cells, lin).counts == (1, 3)


def test_empty_generators():
    cells = enumerate_cells([], 5)
    lin = lineality_dim([], 5)
    assert f_vector(cells, lin).counts == (1,)
    assert lin == 5
    # no basis is built: a million coordinates cost nothing
    assert lineality_dim([], 10 ** 6) == 10 ** 6


def test_f_vector_refuses_a_cell_below_the_lineality():
    with pytest.raises(ValueError, match="below lineality"):
        f_vector([Cell(pattern=(), dim=4, witness=()), Cell(pattern=(), dim=2, witness=())], 3)


def test_empty_generators_share_one_zero():
    # the witness of the one cell repeats one Fraction(0): its tuple of 10^6
    # pointers is 8 MB, where 10^6 separate zeros took 56.7 MB
    tracemalloc.start()
    try:
        (cell,) = enumerate_cells([], 10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cell.pattern == () and cell.dim == 10 ** 6 and set(cell.witness) == {0}
    assert peak < 12 * 2 ** 20, peak


def test_witness_values_are_shared_and_cells_are_small():
    """The walk builds each witness value once: the g23/g13 pair's 2,769
    cells carry 33,228 entries of 77 distinct values.  Building one Fraction
    per entry peaked at about 3 MB; one per value stays under 1 MB.

    A full collection empties the interpreter's free lists, and refilling
    them inside the traced call would count about 1.3 MB of cached tuples
    that the warm-up call had left there.  So the collector runs once and is
    then off from before the warm-up to the end of the call, whatever
    earlier code left behind; the walk makes no cyclic garbage."""
    g12, g13, g23 = symmetric_generators()
    gc.collect()
    gc.disable()
    try:
        enumerate_cells([g23, g13], 12, jobs=1)  # warm up
        tracemalloc.start()
        cells = enumerate_cells([g23, g13], 12, jobs=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    entries = [x for c in cells for x in c.witness]
    assert len({id(x) for x in entries}) == len(set(entries)) < len(entries)
    assert peak <= 1.5 * 2 ** 20, peak


def test_cells_are_slotted_and_pickle():
    """Pool workers send their cells back pickled: they arrive unchanged,
    and a value shared by the cells of one pickle stays one object."""
    g12, g13, g23 = symmetric_generators()
    cells = enumerate_cells([g23, g13], 12)
    assert not hasattr(cells[0], "__dict__")
    clone = pickle.loads(pickle.dumps(cells))
    assert clone == cells
    entries = [x for c in clone for x in c.witness]
    assert len({id(x) for x in entries}) == len(set(entries))


def test_cell_check_does_not_grow_with_the_degree():
    """_verify_cell reads a term's value from its exponent vector, so a
    generator of degree 10^6 costs what one of degree 1 costs.  A support
    that lists a variable once per unit of exponent, as the certificate
    search's term values do, would hold 10^6 entries per term here."""
    big = SparsePoly.from_terms([((10 ** 6, 0), 1), ((0, 10 ** 6), -1), ((1, 1), 1)])
    tracemalloc.start()
    try:
        cells = enumerate_cells([big], 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(c.pattern, c.dim) for c in cells] == [
        (((0, 1),), 1), (((0, 1, 2),), 0), (((0, 2),), 1), (((1, 2),), 1)
    ]
    assert peak < 2 ** 20, peak


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
    found = raw_strict_feasibility(((1, -1, 0),), ((0, 1, -1),), 3)
    assert found is not None
    w, d = found
    assert d > 0
    assert w[0] == w[1] and w[1] < w[2]

    assert raw_strict_feasibility(((1, -1, 0),), ((1, -1, 0),), 3) is None


def test_strict_feasibility_accepts_cells():
    """The LP finds an exact interior point of every enumerated cell."""
    for gens, dim in _fan_systems():
        for c in enumerate_cells(gens, dim):
            eqs, stricts = cell_system(gens, c.pattern)
            found = raw_strict_feasibility(eqs, stricts, dim)
            assert found is not None
            w, d = found
            assert d > 0
            assert all(sum(a * x for a, x in zip(row, w)) == 0 for row in eqs)
            assert all(sum(a * x for a, x in zip(row, w)) < 0 for row in stricts)


def test_prefix_systems_are_already_reduced(monkeypatch):
    """What ``strict_feasibility`` and ``_extend`` rely on: at every
    prefix node, adding the pivot rows again rebuilds the same pivots, and
    each stored strict row is unchanged by elimination against them.  The
    rows reduced once per node and shared by its children, and eliminated
    again only where a child adds a pivot, are the raw table rows reduced
    against the child's pivots: the same pivots and strict rows, in the
    same order, as adding and eliminating the raw rows from scratch."""
    real = fan._extend
    nodes = []
    for gens, dim in _fan_systems():
        tables = fan._gen_tables(gens)
        parents = []  # every node extended, kept alive so no id is reused
        raw: dict = {}  # id(pivots) -> (depth, raw tie rows, raw strict rows)
        calls: dict = {}  # id(pivots) -> extend calls so far: the choice index

        def record(node, eqs, stricts):
            parents.append(node)
            key = id(node[0])
            depth, raw_eqs, raw_stricts = raw.setdefault(key, (0, (), ()))
            _, rows, entries = tables[depth]
            k = calls.get(key, 0)
            calls[key] = k + 1
            _, eq_ids, strict_ids = entries[k]
            child = real(node, eqs, stricts)
            if child is not None:
                raw_eqs += tuple(rows[i] for i in eq_ids)
                raw_stricts += tuple(rows[i] for i in strict_ids)
                raw[id(child[0])] = (depth + 1, raw_eqs, raw_stricts)
                nodes.append((child, raw_eqs, raw_stricts))
            return child

        monkeypatch.setattr(fan, "_extend", record)
        enumerate_cells(gens, dim)
        monkeypatch.undo()
    assert len(nodes) > 2000
    for (pivots, stricts), raw_eqs, raw_stricts in nodes:
        rebuilt: dict = {}
        for row in pivots.values():
            add_pivot(rebuilt, row)
        assert rebuilt == pivots
        assert all(eliminate(row, pivots) == row for row in stricts)
        from_raw: dict = {}
        for row in raw_eqs:
            add_pivot(from_raw, row)
        assert list(from_raw.items()) == list(pivots.items())
        assert list(stricts) == list(dict.fromkeys(eliminate(row, pivots) for row in raw_stricts))


# per system of _fan_systems(), the sha256 of repr([(c.pattern, c.dim,
# c.witness) for c in cells]) as the enumerator reported them with a
# Fraction witness path and stored z- columns: any change to the Bland
# path or to the witness arithmetic shows here
CELL_DIGESTS = (
    "f29a65bebda05e67c6fdebe5951d4973f6dd2b075b87610343ed939ecd793a05",
    "afba007f451d9437d91dfedcf48f47a4c11b6a5c28a45b7ccecf22c127036447",
)


@pytest.mark.parametrize("system, digest", zip(_fan_systems(), CELL_DIGESTS), ids=["commuting:n=2", "g23,g13"])
def test_cells_and_witnesses_are_pinned(system, digest):
    gens, dim = system
    cells = enumerate_cells(gens, dim)
    text = repr([(c.pattern, c.dim, c.witness) for c in cells])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# the same kind of digest for commuting:n=3's diagonal-first prefix (g11,
# g22, g33, g12), taken from the enumerator with a full-width integer tableau
PREFIX_3_DIGEST = "ccbe778dff88afefefe21b6b3e3806fca90c7a2356ac128c1a4d40f8f045ccf3"


def test_commuting_3_prefix_is_pinned(monkeypatch):
    """A larger LP family than the g23/g13 pair's (at most 10 free
    columns): 1,280 LPs with up to 16 free columns.  A seeded sample of
    them is checked against the Fraction oracle."""
    labeled = dict(labeled_generators(3))
    gens = [labeled[k] for k in ((1, 1), (2, 2), (3, 3), (1, 2))]
    issued = []
    real = simplex._simplex_max_t

    def record(rows, d):
        issued.append((rows, d))
        return real(rows, d)

    monkeypatch.setattr(simplex, "_simplex_max_t", record)
    cells = enumerate_cells(gens, 18)
    monkeypatch.undo()
    text = repr([(c.pattern, c.dim, c.witness) for c in cells])
    assert len(cells) == 3591 and len(issued) == 1280
    assert hashlib.sha256(text.encode()).hexdigest() == PREFIX_3_DIGEST
    for rows, d in random.Random(16).sample(issued, 150):
        t_num, z_num, den = real(rows, d)
        t, z, _ = fraction_simplex_max_t(rows, d)
        assert (Fraction(t_num, den), [Fraction(x, den) for x in z_num]) == (t, z)


def test_verify_cell_rejects_a_nudged_witness():
    for gens, dim in _fan_systems():
        cells = enumerate_cells(gens, dim)
        terms = [_sparse_terms(g.monomials()) for g in gens]
        for c in cells:
            _verify_cell(terms, c.pattern, c.witness)
            # moving along a tie row breaks that tie, so the pattern changes
            tie = cell_system(gens, c.pattern)[0][0]
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

        def starmap(self, fn, tasks):
            return [fn(*t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    serial = enumerate_cells([g23, g13], 12)
    branches = len(argmin_subsets(len(g23)))
    for cpus, expected in ((3, 3), (None, 1), (10 ** 6, branches)):
        monkeypatch.setattr(fan.os, "cpu_count", lambda: cpus)
        assert enumerate_cells([g23, g13], 12, jobs=10 ** 6) == serial
        assert sizes[-1] == expected


# the maximal (10-dimensional) cells of symmetric:n=3 and their S3 x S2
# orbits, types I-III, as the enumerator and the orbit code reported them
SYMMETRIC_3_ORBITS = (
    (((0, 2), (1, 4), (4, 5)),),
    (((1, 5), (0, 5), (0, 3)), ((3, 4), (2, 3), (1, 2))),
    (((0, 2), (0, 2), (0, 1)), ((1, 3), (1, 4), (2, 3)), ((4, 5), (3, 5), (4, 5))),
)


def _top_cells(patterns):
    return [Cell(pattern=p, dim=10, witness=()) for p in patterns]


def test_maximal_cell_orbits_of_the_symmetric_3x3_prevariety():
    cfg = named_config("symmetric:n=3")
    patterns = [p for orbit in SYMMETRIC_3_ORBITS for p in orbit]
    # one lower-dimensional cell, which the orbits ignore
    low = Cell(pattern=((0, 1), (0, 1), (0, 1)), dim=9, witness=())
    orbits = maximal_cell_orbits(_top_cells(reversed(patterns)) + [low], list(cfg.gens), cfg.names)
    assert [(o.size, o.cells) for o in orbits] == [(len(c), c) for c in SYMMETRIC_3_ORBITS]
    assert orbits[0].tie_pairs == ((("x13*y23", "x23*y13"), ("x12*y23", "x23*y12"), ("x12*y13", "x13*y12")),)
    assert orbits[1].tie_pairs[1] == (
        ("x12*y11", "x12*y22"), ("x13*y11", "x13*y33"), ("x23*y22", "x23*y33"),
    )


def test_maximal_cell_orbits_of_the_2x2_prevariety():
    # the group is S2 x S2, read from the 2x2 variable names
    cfg = named_config("commuting:n=2")
    cells = enumerate_cells(list(cfg.gens), cfg.dim)
    orbits = maximal_cell_orbits(cells, list(cfg.gens), cfg.names)
    assert sum(c.dim == 6 for c in cells) == 6
    assert [(o.size, o.cells) for o in orbits] == [
        (2, (((0, 1), (0, 1), (0, 1)), ((0, 1), (2, 3), (2, 3)))),
        (2, (((0, 1), (0, 2), (0, 2)), ((0, 1), (1, 3), (1, 3)))),
        (2, (((0, 1), (0, 3), (0, 3)), ((0, 1), (1, 2), (1, 2)))),
    ]
    assert maximal_cell_orbits([], list(cfg.gens), cfg.names) == []


@pytest.mark.parametrize("missing", [p for orbit in SYMMETRIC_3_ORBITS[1:] for p in orbit])
def test_maximal_cell_orbits_need_every_orbit_member(missing):
    cfg = named_config("symmetric:n=3")
    patterns = [p for orbit in SYMMETRIC_3_ORBITS for p in orbit if p != missing]
    with pytest.raises(AssertionError):
        maximal_cell_orbits(_top_cells(patterns), list(cfg.gens), cfg.names)
