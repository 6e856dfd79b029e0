"""Tropical prevariety complexes: cells, f-vectors, lineality, orbits.

A cell of the common refinement is labeled by its argmin pattern: for each
generator, the set of terms (at least two) attaining the minimum.  The cell
is the set of weights realizing the pattern; it is carved out by exact
linear equalities (ties inside each argmin set) and strict inequalities
(argmin terms beat the rest).  Enumeration walks the product of per-generator
patterns generator by generator, pruning every prefix whose system is
already infeasible, and certifies each surviving cell with an interior
rational witness from the exact LP.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable, Optional, Sequence

from .commuting import (
    GroupElement,
    apply_group,
    generators,
    group_elements,
    symmetric_generators,
)
from .core import _lcm_scale
from .polynomials import Monomial, SparsePoly, matrix_variables, monomial_str, symmetric_variables
from .simplex import Row, add_pivot, eliminate, lift_witness, primitive, strict_feasibility

__all__ = [
    "BudgetExceededError",
    "Cell",
    "FVector",
    "Orbit",
    "FanConfig",
    "DEFAULT_BUDGET",
    "KNOWN_FVECTOR_VARIETY_3",
    "KNOWN_FVECTOR_PREVARIETY_3_FULL",
    "KNOWN_FVECTOR_SYMMETRIC_VARIETY_3",
    "argmin_subsets",
    "candidate_count",
    "lineality_space",
    "cell_system",
    "enumerate_cells",
    "f_vector",
    "maximal_cell_orbits",
    "named_config",
]

DEFAULT_BUDGET = 10 ** 6

# f-vectors reported by external Groebner-fan computations; far beyond this
# tool's enumeration budget, kept for reference and for the budget-guard UX.
KNOWN_FVECTOR_VARIETY_3 = (1, 1658, 23755, 143852, 481835, 972387, 1186489, 808218, 235038)
KNOWN_FVECTOR_PREVARIETY_3_FULL = (1, 146, 2290, 16322, 66193, 162886, 241476, 199030, 71766, 2397, 58)
KNOWN_FVECTOR_SYMMETRIC_VARIETY_3 = (1, 66, 705, 3246, 7932, 10878, 8184, 2745)


class BudgetExceededError(RuntimeError):
    """The candidate-pattern product exceeds the configured budget."""

    def __init__(self, candidates: int, budget: int) -> None:
        super().__init__(
            f"{candidates} candidate argmin patterns exceed the budget of {budget}"
        )
        self.candidates = candidates
        self.budget = budget


Pattern = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Cell:
    """A relatively open cell: pattern, exact system, dimension, witness.

    ``equalities`` are the tie rows (= 0 on the cell); ``inequalities`` are
    the strict rows (< 0 on the relative interior)."""

    pattern: Pattern
    equalities: tuple[Row, ...]
    inequalities: tuple[Row, ...]
    dim: int
    witness: tuple[Fraction, ...]


@dataclass(frozen=True)
class FVector:
    """Cell counts indexed by dimension above the lineality space."""

    lineality_dim: int
    counts: tuple[int, ...]


@dataclass(frozen=True)
class Orbit:
    """A symmetry orbit of maximal cells with their tied monomial pairs."""

    size: int
    cells: tuple[Pattern, ...]
    tie_pairs: tuple[tuple[tuple[str, ...], ...], ...]  # per cell, per generator


def argmin_subsets(nterms: int) -> list[tuple[int, ...]]:
    """All term subsets of size >= 2, sizes ascending then lexicographic."""
    out = []
    for size in range(2, nterms + 1):
        out.extend(combinations(range(nterms), size))
    return out


def candidate_count(gens: Sequence[SparsePoly]) -> int:
    total = 1
    for g in gens:
        m = len(g)
        total *= 2 ** m - m - 1
    return total


def lineality_space(gens: Sequence[SparsePoly], dim: int) -> tuple[list[tuple[Fraction, ...]], int]:
    """Basis and dimension of the all-ties subspace (ties of every generator)."""
    from .commuting import tie_rows
    from .simplex import null_space_basis

    rows = tie_rows(gens)
    basis = null_space_basis(rows, dim)
    return basis, len(basis)


def _gen_tables(gens: Sequence[SparsePoly], dim: int):
    """Per generator: term list plus, per argmin subset, (eq rows, strict rows)."""
    tables = []
    for g in gens:
        terms = g.monomials()
        entries = []
        for sub in argmin_subsets(len(terms)):
            inside = set(sub)
            eqs = tuple(
                primitive([a - b for a, b in zip(terms[u], terms[v])])
                for u, v in zip(sub, sub[1:])
            )
            rep = terms[sub[0]]
            stricts = tuple(
                tuple(a - b for a, b in zip(rep, terms[t]))
                for t in range(len(terms))
                if t not in inside
            )
            entries.append((sub, eqs, stricts))
        tables.append((terms, entries))
    return tables


def cell_system(gens: Sequence[SparsePoly], pattern: Pattern) -> tuple[list[Row], list[Row]]:
    """Equality and strict rows of an argmin pattern (unreduced)."""
    eqs: list[Row] = []
    stricts: list[Row] = []
    for g, sub in zip(gens, pattern):
        terms = g.monomials()
        inside = set(sub)
        for u, v in zip(sub, sub[1:]):
            eqs.append(tuple(a - b for a, b in zip(terms[u], terms[v])))
        rep = terms[sub[0]]
        for t in range(len(terms)):
            if t not in inside:
                stricts.append(tuple(a - b for a, b in zip(rep, terms[t])))
    return eqs, stricts


# ---------------------------------------------------------------------------
# the enumerator
# ---------------------------------------------------------------------------

class _Node:
    """Constraint state for a prefix of generators (copy-on-extend).

    ``pivots`` are the tie rows reduced by ``add_pivot``; ``stricts`` holds
    each strict row once, reduced against them, in insertion order."""

    __slots__ = ("pivots", "stricts")

    def __init__(self, pivots: dict[int, Row], stricts: dict[Row, None]):
        self.pivots = pivots
        self.stricts = stricts

    @staticmethod
    def root() -> "_Node":
        return _Node({}, {})

    def extend(self, eqs: Iterable[Row], new_stricts: Iterable[Row]) -> Optional["_Node"]:
        """Add constraints; None when infeasibility is already forced."""
        pivots = dict(self.pivots)
        added = [add_pivot(pivots, row) is not None for row in eqs]
        if any(added):  # the old strict rows need reducing against the new pivots
            stricts: dict[Row, None] = {}
            rows = chain(self.stricts, new_stricts)
        else:
            stricts = dict(self.stricts)
            rows = new_stricts
        for row in rows:
            r = eliminate(row, pivots)
            # r < 0 is impossible when r = 0, or when -r < 0 is required too
            if not any(r) or tuple(-x for x in r) in stricts:
                return None
            stricts[r] = None
        return _Node(pivots, stricts)

    def feasible_witness(self, dim: int) -> Optional[tuple[Fraction, ...]]:
        rows = list(self.stricts)
        if not rows:  # a linear space: the origin is interior, no LP needed
            return (Fraction(0),) * dim
        # cheap interior guess: the negated sum of the strict normals
        free = [c for c in range(dim) if c not in self.pivots]
        guess = [-sum(r[f] for r in rows) for f in free]
        if all(sum(r[f] * g for f, g in zip(free, guess)) < 0 for r in rows):
            return lift_witness([Fraction(g) for g in guess], self.pivots, free, dim)
        return strict_feasibility(self.pivots, rows, dim)


def _verify_cell(gens_terms: Sequence[tuple[Monomial, ...]], pattern: Pattern, w: Sequence[Fraction]) -> None:
    """Exact argmin check of every generator at w, in integers: w scaled by
    the lcm of its denominators has the same argmins."""
    wi, _ = _lcm_scale(w)
    for terms, sub in zip(gens_terms, pattern):
        vals = [sum(k * wi[i] for i, k in enumerate(m) if k) for m in terms]
        mn = min(vals)
        argmin = tuple(t for t, v in enumerate(vals) if v == mn)
        if argmin != sub:
            raise AssertionError(f"witness does not realize pattern {pattern}")


def _enumerate_branch(args) -> list[tuple[Pattern, int, tuple[Fraction, ...]]]:
    tables, dim, first_index = args
    gens_terms = [terms for terms, _ in tables]
    root = _Node.root()
    out: list[tuple[Pattern, int, tuple[Fraction, ...]]] = []

    def rec(level: int, node: _Node, pattern: tuple[tuple[int, ...], ...]) -> None:
        _, entries = tables[level]
        choices = entries if not (level == 0 and first_index is not None) else [entries[first_index]]
        for sub, eqs, stricts in choices:
            child = node.extend(eqs, stricts)
            if child is None:
                continue
            w = child.feasible_witness(dim)
            if w is None:
                continue
            new_pattern = pattern + (sub,)
            if level + 1 == len(tables):
                dim_cell = dim - len(child.pivots)
                _verify_cell(gens_terms, new_pattern, w)
                out.append((new_pattern, dim_cell, w))
            else:
                rec(level + 1, child, new_pattern)

    rec(0, root, ())
    return out


def enumerate_cells(
    gens: Sequence[SparsePoly],
    dim: int,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> list[Cell]:
    """All feasible argmin-pattern cells, sorted by pattern.

    Raises :class:`BudgetExceededError` when the candidate product exceeds
    ``budget``.  ``jobs`` > 1 distributes the top-level branches over a
    process pool of min(jobs, CPU count, branches) workers; the result is
    identical and deterministically ordered.
    """
    gens = [g for g in gens if g]
    if not gens:
        zero = tuple(Fraction(0) for _ in range(dim))
        return [Cell(pattern=(), equalities=(), inequalities=(), dim=dim, witness=zero)]
    total = candidate_count(gens)
    if total > budget:
        raise BudgetExceededError(total, budget)

    tables = _gen_tables(gens, dim)
    nfirst = len(tables[0][1])
    if jobs > 1 and total > 4 * nfirst:
        import multiprocessing  # imported only when a pool starts: it costs memory

        tasks = [(tables, dim, i) for i in range(nfirst)]
        with multiprocessing.Pool(processes=min(jobs, os.cpu_count() or 1, len(tasks))) as pool:
            chunks = pool.map(_enumerate_branch, tasks)
        raw = [cell for chunk in chunks for cell in chunk]
    else:
        raw = _enumerate_branch((tables, dim, None))

    raw.sort(key=lambda c: c[0])
    # a cell's rows are its generators' table rows, shared between cells
    systems = [{sub: (eqs, stricts) for sub, eqs, stricts in entries} for _, entries in tables]
    cells = []
    for pattern, dim_cell, w in raw:
        parts = [level[sub] for level, sub in zip(systems, pattern)]
        cells.append(
            Cell(
                pattern=pattern,
                equalities=tuple(row for eqs, _ in parts for row in eqs),
                inequalities=tuple(row for _, stricts in parts for row in stricts),
                dim=dim_cell,
                witness=w,
            )
        )
    return cells


def f_vector(cells: Sequence[Cell], lineality_dim: int) -> FVector:
    """counts[k] = number of cells of dimension lineality_dim + k."""
    if not cells:
        return FVector(lineality_dim, ())
    top = max(c.dim for c in cells)
    counts = [0] * (top - lineality_dim + 1)
    for c in cells:
        if c.dim < lineality_dim:
            raise ValueError(f"cell below lineality: {c.dim} < {lineality_dim}")
        counts[c.dim - lineality_dim] += 1
    return FVector(lineality_dim, tuple(counts))


# ---------------------------------------------------------------------------
# symmetry orbits of maximal cells
# ---------------------------------------------------------------------------

def _pattern_key(gens: Sequence[SparsePoly], pattern: Pattern) -> frozenset:
    key = []
    for g, sub in zip(gens, pattern):
        terms = g.monomials()
        key.append(frozenset(terms[t] for t in sub))
    return frozenset(zip(range(len(gens)), key))


def maximal_cell_orbits(
    cells: Sequence[Cell],
    gens: Sequence[SparsePoly],
    names: tuple[str, ...],
    symmetric: bool = True,
) -> list[Orbit]:
    """Group the top-dimensional cells under the row/column + swap action.

    Orbits are sorted by size; each cell is reported with its per-generator
    tied monomial pairs (variable-name strings).
    """
    if not cells:
        return []
    top = max(c.dim for c in cells)
    maximal = [c for c in cells if c.dim == top]
    support_to_cell = {_pattern_key(gens, c.pattern): c for c in maximal}

    # generator index mapping under each group element
    gen_supports = [frozenset(g.monomials()) for g in gens]
    elements = group_elements(3)
    actions = []
    for ge in elements:
        mapped_gens = []
        for g in gens:
            img = apply_group(g, ge, names, symmetric=symmetric)
            sup = frozenset(img.monomials())
            mapped_gens.append(gen_supports.index(sup))
        actions.append((ge, mapped_gens))

    def act(key: frozenset, ge: GroupElement, mapped_gens: list[int]) -> frozenset:
        from .commuting import variable_permutation

        perm = variable_permutation(ge, names, symmetric=symmetric)
        out = []
        for gi, monos in key:
            imgs = []
            for m in monos:
                e = [0] * len(m)
                for pos, k in enumerate(m):
                    if k:
                        e[perm[pos]] += k
                imgs.append(tuple(e))
            out.append((mapped_gens[gi], frozenset(imgs)))
        return frozenset(out)

    seen: set[frozenset] = set()
    orbits = []
    for key in sorted(support_to_cell, key=lambda k: support_to_cell[k].pattern):
        if key in seen:
            continue
        orbit_keys = set()
        for ge, mapped in actions:
            img = act(key, ge, mapped)
            if img not in support_to_cell:
                raise AssertionError("group action left the set of maximal cells")
            orbit_keys.add(img)
        seen |= orbit_keys
        members = sorted((support_to_cell[k] for k in orbit_keys), key=lambda c: c.pattern)
        ties = []
        for c in members:
            per_gen = []
            for g, sub in zip(gens, c.pattern):
                terms = g.monomials()
                per_gen.append(tuple(sorted(monomial_str(terms[t], names) for t in sub)))
            ties.append(tuple(per_gen))
        orbits.append(
            Orbit(size=len(members), cells=tuple(c.pattern for c in members), tie_pairs=tuple(ties))
        )
    orbits.sort(key=lambda o: (o.size, o.cells))
    return orbits


# ---------------------------------------------------------------------------
# named configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FanConfig:
    name: str
    gens: tuple[SparsePoly, ...]
    dim: int
    names: tuple[str, ...]
    symmetric: bool


def named_config(name: str) -> FanConfig:
    """Look up "commuting:n=K" or "symmetric:n=3"."""
    if name == "symmetric:n=3":
        return FanConfig(
            name=name,
            gens=tuple(symmetric_generators()),
            dim=12,
            names=symmetric_variables(),
            symmetric=True,
        )
    if name.startswith("commuting:n="):
        try:
            n = int(name.split("=", 1)[1])
        except ValueError:
            raise ValueError(f"bad configuration name: {name!r}") from None
        if n < 2:
            raise ValueError("n must be >= 2")
        return FanConfig(
            name=name,
            gens=tuple(generators(n)),
            dim=2 * n * n,
            names=matrix_variables(n),
            symmetric=False,
        )
    raise ValueError(f"unknown configuration {name!r}")


def default_budget() -> int:
    """``TROPCOMM_BUDGET`` when set and non-empty, else DEFAULT_BUDGET.

    A value that is not an integer >= 1 raises ValueError naming the
    variable."""
    env = os.environ.get("TROPCOMM_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        budget = int(env)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"TROPCOMM_BUDGET must be an integer >= 1, not {env!r}")
    return budget
