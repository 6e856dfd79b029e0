"""Tropical prevariety complexes: cells, f-vectors, lineality, orbits.

A cell of the common refinement is labeled by its argmin pattern: for each
generator, the set of terms (at least two) attaining the minimum.  The cell
is the set of weights realizing the pattern; it is carved out by exact
linear equalities (ties inside each argmin set) and strict inequalities
(argmin terms beat the rest).  Enumeration walks the product of per-generator
patterns generator by generator, pruning every prefix whose system is
already infeasible.  A prefix node builds its children along the next
generator's argmin subsets, each subset prefix extended by every term above
its last: each extension adds one tie row as a pivot and steps every
carried strict row once by it.  The strict rows that every extension of a
subset prefix keeps (the node's own, and those of the terms skipped so far)
are checked there, and a zero row or an opposite pair among them drops all
those extensions.  Each surviving cell gets an interior rational witness
(the origin of a linear space, else the cheap guess if interior, else the
exact LP's point), and each is checked exactly against its argmin pattern.
The depth-first walk meets the patterns in sorted order, so no sort
follows; a process pool gets one task per first-level child.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from operator import mul, neg
from typing import Iterable, Iterator, Optional, Sequence

from .commuting import (
    GroupElement,
    generators,
    group_elements,
    symmetric_generators,
    variable_permutation,
)
from .polynomials import (
    Monomial,
    SparsePoly,
    matrix_variables,
    monomial_str,
    permute_monomial,
    symmetric_variables,
)
from .simplex import Row, Witness, _fraction_free, add_pivot, eliminate, lift_witness, strict_feasibility

__all__ = [
    "BudgetExceededError",
    "Cell",
    "FVector",
    "Orbit",
    "FanConfig",
    "DEFAULT_BUDGET",
    "KNOWN_FVECTOR_VARIETY_3",
    "KNOWN_FVECTOR_PREVARIETY_3_FULL",
    "argmin_subsets",
    "candidate_count",
    "lineality_dim",
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


class BudgetExceededError(RuntimeError):
    """The candidate-pattern product exceeds the configured budget."""

    def __init__(self, candidates: int, budget: int) -> None:
        super().__init__(
            f"{candidates} candidate argmin patterns exceed the budget of {budget}"
        )
        self.candidates = candidates
        self.budget = budget


Pattern = tuple[tuple[int, ...], ...]
# a group element on patterns: per generator, the index of its image and the
# index there of each of its terms' images
PatternAction = list[tuple[int, tuple[int, ...]]]


@dataclass(frozen=True, slots=True)
class Cell:
    """A relatively open cell: its argmin pattern, dimension and an exact
    interior witness.

    Its system is ``cell_system(gens, cell.pattern)``: the tie rows (= 0 on
    the cell) and the strict rows (< 0 on the relative interior).  Witness
    entries are immutable ``Fraction``s, one object per value, and pattern
    entries one tuple per subset, shared by all the cells of one
    enumeration (of one pool task, when a pool runs it)."""

    pattern: Pattern
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
    """Product of 2^m - m - 1 over the generators of m > 0 terms (an empty one ties nothing)."""
    return prod(2 ** m - m - 1 for m in map(len, gens) if m)


def _subset_rows(terms: Sequence[Monomial], sub: Sequence[int]) -> tuple[list[Row], list[Row]]:
    """The raw tie rows (consecutive terms of the argmin subset ``sub``) and
    strict rows (its first term minus each term outside it) of one generator."""
    rep = terms[sub[0]]
    eqs = [tuple(a - b for a, b in zip(terms[u], terms[v])) for u, v in zip(sub, sub[1:])]
    stricts = [tuple(a - b for a, b in zip(rep, m)) for t, m in enumerate(terms) if t not in sub]
    return eqs, stricts


def _generator_terms(gens: Sequence[SparsePoly], dim: int) -> list[tuple[Monomial, ...]]:
    """The terms of each nonempty generator; ValueError unless each has ``dim`` exponents."""
    if bad := {len(m) for g in gens for m, _ in g} - {dim}:
        raise ValueError(f"exponent vectors of length {min(bad)}, not dim = {dim}")
    return [g.monomials() for g in gens if g]


def lineality_dim(gens: Sequence[SparsePoly], dim: int) -> int:
    """Dimension of the all-ties subspace (every generator's terms tied):
    ``dim`` minus the rank of the all-ties pattern's tie rows.  Raises
    ValueError unless each term has ``dim`` exponents."""
    pivots: dict[int, Row] = {}
    for terms in _generator_terms(gens, dim):  # an empty generator ties nothing
        for row in _subset_rows(terms, range(len(terms)))[0]:
            add_pivot(pivots, row)
    return dim - len(pivots)


def cell_system(gens: Sequence[SparsePoly], pattern: Pattern) -> tuple[list[Row], list[Row]]:
    """Equality and strict rows of an argmin pattern (unreduced)."""
    eqs: list[Row] = []
    stricts: list[Row] = []
    for g, sub in zip(gens, pattern):
        sub_eqs, sub_stricts = _subset_rows(g.monomials(), sub)
        eqs += sub_eqs
        stricts += sub_stricts
    return eqs, stricts


# ---------------------------------------------------------------------------
# the enumerator
# ---------------------------------------------------------------------------

# a prefix node (pivots, stricts): the tie rows reduced by ``add_pivot``, and
# each strict row once, reduced against them, in insertion order
Node = tuple[dict[int, Row], dict[Row, None]]
# a child of a prefix node: the next generator's argmin subset and its node
Child = tuple[tuple[int, ...], Node]
# a generator's terms as (variable indices, their exponents), zero exponents left out
SparseTerms = tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def _keep(kept: dict[Row, None], rows: Iterable[Row]) -> bool:
    """Add strict rows to ``kept`` in order; False as soon as one is zero or
    the negation of a row already kept (r < 0 and -r < 0 cannot both hold)."""
    for r in rows:
        if not any(r) or tuple(map(neg, r)) in kept:
            return False
        kept[r] = None
    return True


def _children(node: Node, terms: Sequence[Monomial]) -> Iterator[Child]:
    """The children of a prefix node along the next generator's argmin
    subsets, one at a time, each as (subset, child node), in sorted order.
    A child whose system already forces infeasibility is left out.

    Each first term s0 roots a depth-first walk of the subsets that start
    with it: a prefix extends by each term s above its last, in ascending
    order.  ``above`` holds the strict rows terms[s0] - terms[t] reduced
    against the pivots so far, for the terms t above the prefix's last term.
    The step to S = prefix + (s,) adds the tie terms[last] - terms[s] with
    ``add_pivot``, as the row of s: the two differ by terms[last] -
    terms[s0], which is in the pivots' span, so they reduce to the same row.
    Every other row is stepped once by the new pivot, only where it is
    nonzero on its column; a reduced row is canonical (the primitive
    positive multiple of row + span(pivots) that vanishes on the pivot
    columns), so each child has exactly the pivots, in ``add_pivot``'s
    order, and the strict rows, in the order of the parent's rows and then
    terms t not in S, that adding and eliminating its raw rows from scratch
    gives.

    The node's strict rows and the rows of the terms below the prefix's
    last term not in it are kept by every extension of the prefix.  One
    pivot step keeps a zero row zero and opposite rows opposite, so once
    those kept rows hold a zero or an opposite pair no extension is walked."""
    pivots, stricts = node
    m = len(terms)
    diffs: list[list[Row]] = [[()] * m for _ in range(m)]  # diffs[u][u] unused
    for u, v in combinations(range(m), 2):
        r = eliminate(tuple(a - b for a, b in zip(terms[u], terms[v])), pivots)
        diffs[u][v], diffs[v][u] = r, tuple(map(neg, r))
    for s0 in range(m - 1):
        kept = dict(stricts)
        if not _keep(kept, diffs[s0][:s0]):
            continue
        # per open prefix: its pivots, kept rows, the rows of the terms
        # above its last term, the prefix, and the terms left to extend it by
        walk = [(pivots, kept, diffs[s0][s0 + 1:], (s0,), iter(range(s0 + 1, m)))]
        while walk:
            prefix_pivots, prefix_kept, above, prefix, extensions = walk[-1]
            s = next(extensions, None)
            if s is None:
                walk.pop()
                continue
            subset = prefix + (s,)
            k = s - prefix[-1] - 1  # above[k] is the row of s
            child_pivots = dict(prefix_pivots)
            c = add_pivot(child_pivots, above[k])
            if c is None:  # the tie is already implied
                child_pivots = prefix_pivots
                kept = dict(prefix_kept)
            else:
                p = child_pivots[c]
                lead = p[c]
                above = [_step(r, p, lead, c) for r in above]
                # rows zero on column c are unchanged, so only a stepped row
                # can make a zero or an opposite pair among the kept rows
                kept = {}
                stepped = []
                for r in prefix_kept:
                    if r[c]:
                        r = _step(r, p, lead, c)
                        stepped.append(r)
                    kept[r] = None
                if not all(any(r) and tuple(map(neg, r)) not in kept for r in stepped):
                    continue
            if not _keep(kept, above[:k]):
                continue
            above = above[k + 1:]
            child_stricts = dict(kept)
            if _keep(child_stricts, above):
                yield subset, (child_pivots, child_stricts)
            if s < m - 1:
                walk.append((child_pivots, kept, above, subset, iter(range(s + 1, m))))


def _step(row: Row, p: Row, lead: int, c: int) -> Row:
    """A reduced row reduced against one more pivot row p (column c, lead
    p[c] > 0): the one fraction-free step, only where the row is nonzero
    on column c."""
    return tuple(_fraction_free(row, p, lead, row[c])) if row[c] else row


def _interior(node: Node, dim: int) -> Optional[Witness]:
    """An interior point W/d of the node's system, None when it has none."""
    pivots, stricts = node
    rows = list(stricts)
    if not rows:  # a linear space: the origin is interior, no LP needed
        return (0,) * dim, 1
    # cheap interior guess: the negated sum of the strict normals; reduced
    # rows vanish on the pivot columns, and so does the guess
    guess = [-sum(col) for col in zip(*rows)]
    if all(sum(map(mul, r, guess)) < 0 for r in rows):
        free = [c for c in range(dim) if c not in pivots]
        return lift_witness([guess[f] for f in free], pivots, free, dim)
    return strict_feasibility(pivots, rows, dim)


def _sparse_terms(terms: Sequence[Monomial]) -> SparseTerms:
    """Each term as the indices of its variables with exponent > 0 and
    those exponents."""
    out = []
    for m in terms:
        idx = tuple(i for i, k in enumerate(m) if k)
        out.append((idx, tuple(map(m.__getitem__, idx))))
    return tuple(out)


def _verify_cell(gens_terms: Sequence[SparseTerms], pattern: Pattern, w: Sequence[int]) -> None:
    """Exact argmin check of every generator at w, its terms read as
    ``_sparse_terms`` gives them.  The argmins are those of any positive
    multiple of w, so an integer W with w = W/d is checked as it is."""
    at = w.__getitem__
    for terms, sub in zip(gens_terms, pattern):
        vals = [sum(map(mul, exps, map(at, idx))) for idx, exps in terms]
        mn = min(vals)
        argmin = tuple(t for t, v in enumerate(vals) if v == mn)
        if argmin != sub:
            raise AssertionError(f"witness does not realize pattern {pattern}")


def _enumerate_branch(gens_terms: Sequence[Sequence[Monomial]], dim: int, firsts: Iterable[Child]) -> list[Cell]:
    """Every cell below the first generator's children ``firsts``, given as
    (subset, node), with its verified witness, in pattern order when
    ``firsts`` is.  Depth first on a stack of (children, pattern), one
    ``_children`` walk per open node; level = len(pattern).  Each witness
    value is built once, as one ``Fraction`` that all these cells share,
    and so is each subset of their patterns, as one tuple."""
    sparse = [_sparse_terms(terms) for terms in gens_terms]
    subsets: dict[tuple[int, ...], tuple[int, ...]] = {}
    values: dict[Fraction, Fraction] = {}
    # shared[d][x] is the one Fraction of value x/d
    shared: defaultdict[int, dict[int, Fraction]] = defaultdict(dict)
    out: list[Cell] = []
    stack: list[tuple[Iterator[Child], Pattern]] = [(iter(firsts), ())]
    while stack:
        children, pattern = stack[-1]
        step = next(children, None)
        if step is None:
            stack.pop()
            continue
        subset, child = step
        found = _interior(child, dim)
        if found is None:
            continue
        child_pattern = pattern + (subsets.setdefault(subset, subset),)
        level = len(child_pattern)
        if level < len(gens_terms):
            stack.append((_children(child, gens_terms[level]), child_pattern))
        else:
            w, d = found
            _verify_cell(sparse, child_pattern, w)
            by_x = shared[d]
            for x in w:
                if x not in by_x:
                    value = Fraction(x, d)
                    by_x[x] = values.setdefault(value, value)
            out.append(Cell(child_pattern, dim - len(child[0]), tuple(map(by_x.__getitem__, w))))
    return out


def enumerate_cells(
    gens: Sequence[SparsePoly],
    dim: int,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> list[Cell]:
    """All feasible argmin-pattern cells, sorted by pattern.

    Raises ValueError unless each term has ``dim`` exponents, and
    :class:`BudgetExceededError` when the candidate product exceeds ``budget``.
    The depth-first walk emits the patterns in sorted order, so no sort
    follows.  ``jobs`` > 1 hands the first generator's children that survive
    the root walk, one per task, to a pool of min(jobs, CPU count, children)
    processes when the candidate product exceeds four times the first
    generator's subsets, and runs serially otherwise; the tasks' cells are
    concatenated in walk order, so the result is identical.
    """
    gens = [g for g in gens if g]
    gens_terms = _generator_terms(gens, dim)
    if not gens:
        return [Cell(pattern=(), dim=dim, witness=(Fraction(0),) * dim)]
    total = candidate_count(gens)
    if total > budget:
        raise BudgetExceededError(total, budget)

    firsts = _children(({}, {}), gens_terms[0])
    if jobs > 1 and total > 4 * candidate_count(gens[:1]):
        import multiprocessing  # imported only when a pool starts: it costs memory

        tasks = [(gens_terms, dim, (first,)) for first in firsts]
        with multiprocessing.Pool(processes=min(jobs, os.cpu_count() or 1, len(tasks))) as pool:
            return [cell for chunk in pool.starmap(_enumerate_branch, tasks) for cell in chunk]
    return _enumerate_branch(gens_terms, dim, firsts)


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

def _pattern_action(ge: GroupElement, gens: Sequence[SparsePoly], names: tuple[str, ...]) -> PatternAction:
    """``ge`` maps each generator to a generator up to sign, so it maps
    argmin patterns to argmin patterns."""
    perm = variable_permutation(ge, names)
    where = {frozenset(g.monomials()): j for j, g in enumerate(gens)}
    action = []
    for g in gens:
        images = [permute_monomial(m, perm) for m in g.monomials()]
        j = where[frozenset(images)]
        action.append((j, tuple(map(gens[j].monomials().index, images))))
    return action


def _act(action: PatternAction, pattern: Pattern) -> Pattern:
    image: list[tuple[int, ...]] = [()] * len(pattern)
    for (j, term_map), sub in zip(action, pattern):
        image[j] = tuple(sorted(term_map[t] for t in sub))
    return tuple(image)


def maximal_cell_orbits(
    cells: Sequence[Cell], gens: Sequence[SparsePoly], names: tuple[str, ...]
) -> list[Orbit]:
    """Group the top-dimensional cells under the row/column + swap action.

    The group is S_n x S2, n the largest index digit of ``names``, and its
    action on variables follows from ``names`` (see
    :func:`tropcomm.commuting.variable_permutation`).  Orbits are sorted by
    size; each cell is reported with its per-generator tied monomial pairs
    (variable-name strings).  AssertionError if an image of a maximal cell
    is not among ``cells``.
    """
    if not cells:
        return []
    top = max(c.dim for c in cells)
    maximal = {c.pattern for c in cells if c.dim == top}
    n = max(int(c) for nm in names for c in nm[1:])
    actions = [_pattern_action(ge, gens, names) for ge in group_elements(n)]
    seen: set[Pattern] = set()
    orbits = []
    for pattern in sorted(maximal):
        if pattern in seen:
            continue
        members = sorted({_act(action, pattern) for action in actions})
        if not maximal.issuperset(members):
            raise AssertionError("group action left the set of maximal cells")
        seen.update(members)
        ties = tuple(
            tuple(
                tuple(sorted(monomial_str(g.monomials()[t], names) for t in sub))
                for g, sub in zip(gens, member)
            )
            for member in members
        )
        orbits.append(Orbit(size=len(members), cells=tuple(members), tie_pairs=ties))
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


def named_config(name: str) -> FanConfig:
    """Look up "commuting:n=K" (K in ASCII digits) or "symmetric:n=3"."""
    if name == "symmetric:n=3":
        return FanConfig(name=name, gens=tuple(symmetric_generators()), dim=12, names=symmetric_variables())
    if name.startswith("commuting:n="):
        k = name.split("=", 1)[1]
        if not (k.isascii() and k.isdigit()):
            raise ValueError(f"bad configuration name: {name!r}")
        n = int(k)  # generators(n) refuses n < 2
        return FanConfig(name=name, gens=tuple(generators(n)), dim=2 * n * n, names=matrix_variables(n))
    raise ValueError(f"unknown configuration {name!r}")
