"""Sparse multivariate polynomials with integer coefficients.

A monomial is an exponent tuple over a fixed variable list; a polynomial is
a canonical mapping from monomials to nonzero integer coefficients.  The
variable list itself is carried separately (see :func:`matrix_variables`):
polynomials are plain data, so they hash, compare, and pickle cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

__all__ = [
    "Monomial",
    "SparsePoly",
    "matrix_variables",
    "symmetric_variables",
    "monomial",
    "monomial_str",
    "permute_monomial",
]

Monomial = tuple[int, ...]


def matrix_variables(n: int) -> tuple[str, ...]:
    """Row-major x then y: x11, ..., xnn, y11, ..., ynn.  Indices are one
    digit each, so n > 9 raises ValueError (x111 would be x1,11 and x11,1)."""
    if n > 9:
        raise ValueError(f"n = {n}: variable names have one-digit indices, so n must be <= 9")
    return tuple(
        f"{p}{i}{j}" for p in "xy" for i in range(1, n + 1) for j in range(1, n + 1)
    )


def symmetric_variables() -> tuple[str, ...]:
    """Upper-triangle variables for symmetric 3x3 pairs (12 of them)."""
    return tuple(
        f"{p}{i}{j}" for p in "xy" for i in range(1, 4) for j in range(i, 4)
    )


def monomial(names: tuple[str, ...], *vars_: str) -> Monomial:
    """Exponent tuple of a product of named variables (repeats allowed)."""
    e = [0] * len(names)
    idx = {nm: i for i, nm in enumerate(names)}
    for v in vars_:
        e[idx[v]] += 1
    return tuple(e)


def monomial_str(m: Monomial, names: tuple[str, ...]) -> str:
    """Canonical rendering: ascending variable order, '*' joined, '^k' powers."""
    parts = []
    for i, k in enumerate(m):
        if k == 1:
            parts.append(names[i])
        elif k > 1:
            parts.append(f"{names[i]}^{k}")
    return "*".join(parts) if parts else "1"


def permute_monomial(m: Monomial, perm: tuple[int, ...]) -> Monomial:
    """Relabel variables: the exponent at position i moves to position perm[i]."""
    e = [0] * len(m)
    for pos, k in enumerate(m):
        if k:
            e[perm[pos]] += k
    return tuple(e)


@dataclass(frozen=True)
class SparsePoly:
    """Canonical integer polynomial: sorted (monomial, coefficient) pairs."""

    terms: tuple[tuple[Monomial, int], ...]

    @staticmethod
    def from_terms(terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]]) -> "SparsePoly":
        acc: dict[Monomial, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for m, c in items:
            acc[m] = acc.get(m, 0) + c
        return SparsePoly(tuple(sorted((m, c) for m, c in acc.items() if c != 0)))

    @staticmethod
    def zero() -> "SparsePoly":
        return SparsePoly(())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self.terms)

    def monomials(self) -> tuple[Monomial, ...]:
        return tuple(m for m, _ in self.terms)

    def coefficient(self, m: Monomial) -> int:
        for mm, c in self.terms:
            if mm == m:
                return c
        return 0

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        return SparsePoly.from_terms(self.terms + other.terms)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def mul_monomial(self, m: Monomial) -> "SparsePoly":
        return SparsePoly.from_terms((tuple(a + b for a, b in zip(mm, m)), c) for mm, c in self.terms)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        return SparsePoly.from_terms((tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
                                     for m1, c1 in self.terms for m2, c2 in other.terms)

    def permute_variables(self, perm: tuple[int, ...]) -> "SparsePoly":
        """Relabel variables: position i goes to position perm[i]."""
        return SparsePoly.from_terms((permute_monomial(m, perm), c) for m, c in self.terms)

    def equal_up_to_sign(self, other: "SparsePoly") -> bool:
        """self == other or self == -other (same terms, coefficients up to sign)."""
        return self == other or self == -other

    def render(self, names: tuple[str, ...]) -> str:
        """Deterministic display: x-major terms first (descending exponents)."""
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=lambda t: t[0], reverse=True)
        chunks = []
        for i, (m, c) in enumerate(ordered):
            sign = "-" if c < 0 else ("+" if i else "")
            mag = abs(c)
            body = monomial_str(m, names)
            coeff = "" if mag == 1 and body != "1" else f"{mag}*"
            if body == "1":
                coeff, body = str(mag), ""
                chunk = coeff
            else:
                chunk = f"{coeff}{body}"
            chunks.append(f"{sign} {chunk}".strip() if i else f"{sign}{chunk}")
        return " ".join(chunks)
