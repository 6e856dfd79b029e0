"""Sparse multivariate polynomials with integer coefficients.

A monomial is an exponent tuple over a fixed variable list; a polynomial is
a canonical mapping from monomials to nonzero integer coefficients.  The
variable list itself is carried separately (see :func:`matrix_variables`):
polynomials are plain data, so they hash, compare, and pickle cheaply.
Sum, difference and negation come from :class:`_TermSum`, shared with
the series of :mod:`tropcomm.series`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping

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


def _signed_sum(terms: Iterable[tuple[Any, str]]) -> str:
    """Display of a sum of (coefficient, unit) terms in the given order:
    ``c*unit``, the unit alone for c = +-1, and c alone for the unit "";
    a leading minus, then " + " and " - " between terms; "0" for none."""
    chunks: list[str] = []
    for c, unit in terms:
        mag = abs(c)
        body = f"{mag}*{unit}" if unit and mag != 1 else unit or str(mag)
        sign = "-" if c < 0 else "+" if chunks else ""
        chunks.append(f"{sign} {body}" if chunks else f"{sign}{body}")
    return " ".join(chunks) or "0"


class _TermSum:
    """The algebra of polynomials and series: a frozen dataclass whose one
    field ``terms`` holds (key, coefficient) pairs sorted by key, one per
    key, none with coefficient 0."""

    @classmethod
    def from_terms(cls, terms: Mapping | Iterable[tuple]) -> "_TermSum":
        """Sum the coefficients per key, drop zero sums and sort by key;
        ``terms`` is a mapping or an iterable of (key, coefficient)."""
        acc: dict = {}
        for k, c in terms.items() if isinstance(terms, Mapping) else terms:
            acc[k] = acc.get(k, 0) + c
        return cls(tuple(sorted((k, c) for k, c in acc.items() if c != 0)))

    @classmethod
    def zero(cls) -> "_TermSum":
        return cls(())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "_TermSum") -> "_TermSum":
        return self.from_terms(self.terms + other.terms)

    def __neg__(self) -> "_TermSum":
        return type(self)(tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other: "_TermSum") -> "_TermSum":
        return self + (-other)


@dataclass(frozen=True)
class SparsePoly(_TermSum):
    """Canonical integer polynomial: sorted (monomial, coefficient) pairs."""

    terms: tuple[tuple[Monomial, int], ...]

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
        return _signed_sum((c, monomial_str(m, names) if any(m) else "") for m, c in reversed(self.terms))
