"""Premetrics, polytropes, and commutativity criteria for them.

A premetric has zero diagonal and strictly positive finite off-diagonal
entries; a polytrope is a premetric satisfying the triangle inequality,
equivalently an idempotent premetric (A = A@A), equivalently a Kleene star.
The image of a polytrope in the tropical projective torus is a classically
convex tropical polytope, and the matrix acts on the torus as the projection
onto that image.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    IntGrid,
    TropMatrix,
    TropScalar,
    TropVector,
    _check_sizes,
    _int_grids,
    _int_min,
    _int_mul,
    _int_scalar,
    _int_star,
    kleene_star,
    normalize_tp,
    trop_mul,  # noqa: F401 -- a boundary perfbench/layers.py wraps by name
)

__all__ = [
    "NotPolytropeError",
    "NotInImageError",
    "CommutClassification",
    "PreimageDescription",
    "is_premetric",
    "is_polytrope",
    "commutes",
    "first_difference",
    "classify_polytrope_pair",
    "preimage",
    "image_vertices",
    "star_image_contains",
    "random_premetric",
    "random_polytrope",
]


class NotPolytropeError(ValueError):
    """An operation requiring polytrope inputs received something else."""


class NotInImageError(ValueError):
    """The target vector is not fixed by the matrix, hence not in its image."""


def _int_premetric(x: IntGrid) -> bool:
    return all(
        (e == 0) if i == j else (e is not None and e > 0)
        for i, row in enumerate(x)
        for j, e in enumerate(row)
    )


def _int_polytrope(x: IntGrid) -> bool:
    return _int_premetric(x) and all(
        rik + x[k][j] >= rij for row in x for k, rik in enumerate(row) for j, rij in enumerate(row)
    )


def is_premetric(a: TropMatrix) -> bool:
    """Zero diagonal, strictly positive finite off-diagonal entries."""
    (x,), _ = _int_grids(a.rows)
    return _int_premetric(x)


def is_polytrope(a: TropMatrix) -> bool:
    """Premetric + triangle inequality a[i][j] <= a[i][k] + a[k][j]."""
    (x,), _ = _int_grids(a.rows)
    return _int_polytrope(x)


def first_difference(a: TropMatrix, b: TropMatrix) -> Optional[tuple[int, int]]:
    """First row-major entry where the matrices differ, 1-based; None if equal."""
    _check_sizes(a, b)
    return _first_difference(a.rows, b.rows)


def _first_difference(lhs: Sequence[Sequence], rhs: Sequence[Sequence]) -> Optional[tuple[int, int]]:
    """:func:`first_difference` of two grids of one shape (scalars or ints)."""
    for i, (r, s) in enumerate(zip(lhs, rhs), 1):
        if r != s:
            return i, next(j for j, (p, q) in enumerate(zip(r, s), 1) if p != q)
    return None


def commutes(a: TropMatrix, b: TropMatrix) -> bool:
    """Exact test of A@B == B@A (works for arbitrary real matrices)."""
    _check_sizes(a, b)
    (x, y), _ = _int_grids(a.rows, b.rows)
    return _int_mul(x, y) == _int_mul(y, x)


@dataclass(frozen=True)
class CommutClassification:
    """The four commutativity conditions for a pair of polytropes.

    ``star_condition``  : A+B == (A+B)*          (implies commutes)
    ``commutes``        : A@B == B@A             (implies square_condition)
    ``square_condition``: (A+B)@(A+B) == (A+B)*
    ``product_condition``: A@B == A+B            (one-sided)

    ``witnesses`` maps each failed condition name to the first row-major
    1-based entry where its equality breaks, together with the two differing
    values; ``witness_entry`` is the witness of the first failed condition in
    the order commutes, star, square, product.
    """

    commutes: bool
    star_condition: bool
    square_condition: bool
    product_condition: bool
    witness_entry: Optional[tuple[int, int]]
    witnesses: dict[str, tuple[tuple[int, int], TropScalar, TropScalar]] = field(
        default_factory=dict
    )


def _witness(
    lhs: IntGrid, rhs: IntGrid, d: int
) -> Optional[tuple[tuple[int, int], TropScalar, TropScalar]]:
    at = _first_difference(lhs, rhs)
    if at is None:
        return None
    i, j = at[0] - 1, at[1] - 1
    return at, _int_scalar(lhs[i][j], d), _int_scalar(rhs[i][j], d)


def classify_polytrope_pair(a: TropMatrix, b: TropMatrix) -> CommutClassification:
    """Evaluate all four conditions exactly; record per-condition witnesses.

    The pair is scaled to ints once (see :mod:`tropcomm.core`); scalars are
    built only for the witness values."""
    (x, y), d = _int_grids(a.rows, b.rows)
    if not (_int_polytrope(x) and _int_polytrope(y)):
        raise NotPolytropeError("both inputs must be polytropes")
    _check_sizes(a, b)
    ab = _int_mul(x, y)
    s = _int_min(x, y)
    star = _int_star(s)

    checks = {
        "commutes": _witness(ab, _int_mul(y, x), d),
        "star": _witness(s, star, d),
        "square": _witness(_int_mul(s, s), star, d),
        "product": _witness(ab, s, d),
    }
    witnesses = {k: v for k, v in checks.items() if v is not None}
    head = next((witnesses[k][0] for k in checks if k in witnesses), None)
    return CommutClassification(
        commutes=checks["commutes"] is None,
        star_condition=checks["star"] is None,
        square_condition=checks["square"] is None,
        product_condition=checks["product"] is None,
        witness_entry=head,
        witnesses=witnesses,
    )


@dataclass(frozen=True)
class PreimageDescription:
    """The solution set of A@x = b: {base + sum_{j in free} t_j e_j, t_j >= 0}.

    ``free_directions`` holds 1-based coordinate indices.
    """

    base: TropVector
    free_directions: frozenset[int]


def preimage(a: TropMatrix, b: TropVector) -> PreimageDescription:
    """Describe {x : A@x = b} for a polytrope A and b in im(A).

    Direction j is free exactly when deleting coordinate j still covers b:
    for every row k, min over i != j of (a[k][i] + b[i]) equals b[k].  A and
    b are scaled to ints once; deleting coordinate j is setting b[j] to +inf.
    """
    (x, (v,)), _ = _int_grids(a.rows, (b.entries,))
    if not _int_polytrope(x):
        raise NotPolytropeError("preimage requires a polytrope")
    _check_sizes(a, b)
    col = [[e] for e in v]
    if _int_mul(x, col) != col:
        raise NotInImageError("A @ b != b, so b is not in the image of A")
    free = [j + 1 for j in range(a.n) if _int_mul(x, col[:j] + [[None]] + col[j + 1:]) == col]
    return PreimageDescription(base=b, free_directions=frozenset(free))


def image_vertices(a: TropMatrix) -> list[TropVector]:
    """Normalized columns with exact duplicates removed, in column order."""
    out: list[TropVector] = []
    for j in range(a.n):
        v = normalize_tp(a.column(j))
        if v not in out:
            out.append(v)
    return out


def star_image_contains(star: TropMatrix, x: TropVector) -> bool:
    """Membership in im(M) for a Kleene star M: x_i - x_j <= M[i][j] for all i,j.

    Requires x finite; M must satisfy M == M* (not checked).
    """
    _check_sizes(star, x)
    (m, (v,)), _ = _int_grids(star.rows, (x.entries,))
    if None in v:
        return False
    return all(mij is None or vi - vj <= mij for row, vi in zip(m, v) for mij, vj in zip(row, v))


def random_premetric(rng: random.Random, n: int) -> TropMatrix:
    """Random premetric: off-diagonal entries k/100, 1 <= k <= 1000."""
    return TropMatrix.of([[0 if i == j else Fraction(rng.randint(1, 1000), 100) for j in range(n)] for i in range(n)])


def random_polytrope(rng: random.Random, n: int) -> TropMatrix:
    """Kleene star of a random premetric (always a polytrope)."""
    return kleene_star(random_premetric(rng, n))
