"""Finite series in rational powers of t with rational coefficients.

These are exact elements of the (Puiseux-style) field used to lift tropical
matrices: the valuation of a series is its least exponent, and entrywise
valuation turns a classical matrix into a tropical one.  Arithmetic is exact
polynomial arithmetic on (exponent, coefficient) pairs, with the sum,
difference and negation of :class:`tropcomm.polynomials._TermSum`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .commuting import _commutator_sums, _pair_ints
from .core import INF, SizeMismatchError, TropMatrix, TropScalar, _check_sizes, _fraction, _lcm_scale, _printable, _Square
from .polynomials import _collect, _signed_sum, _TermSum

__all__ = [
    "SeriesPoly",
    "SeriesMatrix",
    "LiftPreconditionError",
    "parse_series",
    "val_matrix",
    "LiftCheck",
    "verify_lift",
    "lift_2x2",
]


class LiftPreconditionError(ValueError):
    """lift_2x2 requires membership in the 2x2 tropical commuting variety."""


@dataclass(frozen=True)
class SeriesPoly(_TermSum):
    """Canonical finite sum of c * t^e, sorted by exponent, no zero c."""

    terms: tuple[tuple[Fraction, Fraction], ...]  # (exponent, coefficient)

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[Fraction, Fraction]]) -> "SeriesPoly":
        return super().from_terms((_fraction(e), _fraction(c)) for e, c in terms)

    @staticmethod
    def term(coeff, exponent) -> "SeriesPoly":
        return SeriesPoly.from_terms(((exponent, coeff),))

    @property
    def valuation(self) -> TropScalar:
        """Least exponent; +inf for the zero series."""
        return INF if not self.terms else TropScalar(self.terms[0][0])

    def __mul__(self, other: "SeriesPoly") -> "SeriesPoly":
        return _sum_of_products(((self, other),))

    def __str__(self) -> str:
        return format_series(self)


def _fmt_exp(e: Fraction) -> str:
    e = _printable(e, "a computed entry")
    return str(e.numerator) if e.denominator == 1 else f"({e})"


def format_series(s: SeriesPoly) -> str:
    return _signed_sum((_printable(c, "a computed entry"), "" if e == 0 else "t" if e == 1 else f"t^{_fmt_exp(e)}")
                       for e, c in s.terms)


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
    (?:(?P<coeff>\d+(?:/0*[1-9]\d*|\.\d+)?)(?:\s*\*?\s*(?=t))?)?
    (?P<t>t(?:\^(?P<open>\()?(?P<exp>-?\d+(?:/0*[1-9]\d*)?)(?(open)\)))?)?""",
    re.VERBOSE | re.ASCII,
)


def parse_series(text: str) -> SeriesPoly:
    """Parse a sum of terms ``c*t^e``: ``1+t``, ``t^4``, ``-2*t^(1/2)``.

    A term is a sign (required after the first term), a magnitude ``p``,
    ``p/q`` or a decimal, and ``t``, ``t^p``, ``t^p/q`` or ``t^(p/q)``; it
    needs a magnitude or t, and a ``*`` may stand only between the two.
    Digits and spaces are ASCII.  The empty string is the zero series.
    Anything else raises ValueError.
    """
    if not isinstance(text, str) or not text.isascii():
        raise ValueError(f"series must be an ASCII string, not {text!r}")
    text = text.strip()
    terms, pos = [], 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not (m["coeff"] or m["t"]) or (terms and not m["sign"]):
            raise ValueError(f"bad series term: {text[pos:]!r}")
        coeff = Fraction(m["coeff"] or 1)
        exp = Fraction(m["exp"] or (1 if m["t"] else 0))
        terms.append((exp, -coeff if m["sign"] == "-" else coeff))
        pos = m.end()
    return SeriesPoly.from_terms(terms)


@dataclass(frozen=True)
class SeriesMatrix(_Square):
    """A square matrix of series; products are classical (ring) products."""

    rows: tuple[tuple[SeriesPoly, ...], ...]

    @staticmethod
    def parse(grid: Iterable[Iterable[str]]) -> "SeriesMatrix":
        return SeriesMatrix(
            tuple(tuple(parse_series(s) for s in row) for row in grid)
        )

    def __mul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        _check_sizes(self, other)
        cols = list(zip(*other.rows))
        return SeriesMatrix(tuple(tuple(_sum_of_products(zip(row, col)) for col in cols) for row in self.rows))

    def to_grid(self) -> list[list[str]]:
        return [[format_series(e) for e in row] for row in self.rows]


def _int_terms(
    polys: list[SeriesPoly], values: Sequence[Optional[Fraction]] = ()
) -> tuple[list[list[tuple[int, int]]], list[Optional[int]], int, int]:
    """Each series' terms as ints: exponents times the lcm De of the
    denominators of all the exponents and ``values``, coefficients times
    the lcm Dc of all the coefficients' denominators; the values times De
    (None, +inf, stays None); De and Dc."""
    exps, de = _lcm_scale([e for p in polys for e, _ in p.terms] + list(values))
    coeffs, dc = _lcm_scale([c for p in polys for _, c in p.terms])
    scaled = iter(zip(exps, coeffs))
    return [[next(scaled) for _ in p.terms] for p in polys], exps[len(coeffs):], de, dc


def _add_products(out: dict[int, int], pairs: Iterable[tuple[list, list]], sign: int = 1) -> None:
    """Add sign * f*g for the pairs of :func:`_int_terms` lists into out
    (scaled exponent -> scaled coefficient)."""
    for f, g in pairs:
        for e1, c1 in f:
            c1 *= sign
            for e2, c2 in g:
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2


def _sum_of_products(pairs: Iterable[tuple[SeriesPoly, SeriesPoly]]) -> SeriesPoly:
    """sum of f*g over the pairs, collected in one dict of :func:`_int_terms`
    ints: the products' exponents are multiples of 1/De and their
    coefficients of 1/Dc^2, so Fractions are built only for the final terms."""
    polys, _, de, dc = _int_terms([p for pair in pairs for p in pair])
    out: dict[int, int] = {}
    _add_products(out, zip(polys[::2], polys[1::2]))
    dc *= dc
    return SeriesPoly(tuple((Fraction(e, de), Fraction(c, dc)) for e, c in _collect(out)))


def val_matrix(x: SeriesMatrix) -> TropMatrix:
    """Entrywise valuation; the zero series maps to +inf."""
    return TropMatrix(tuple(tuple(e.valuation for e in row) for row in x.rows))


@dataclass(frozen=True)
class LiftCheck:
    ok: bool
    failures: tuple[tuple[str, tuple[int, int]], ...]  # (kind, 1-based entry)


def verify_lift(x: SeriesMatrix, y: SeriesMatrix, a: TropMatrix, b: TropMatrix) -> LiftCheck:
    """x*y == y*x exactly, val(x) == a, and val(y) == b; failures pinpointed.

    X, Y, A and B must have one size (SizeMismatchError otherwise).  The
    terms of X and Y are scaled to ints together, their exponents on one
    scale with the entries of A and B, so each entry of XY - YX is one int
    sum, nonzero exactly when the entry fails to commute, and each
    valuation is compared as an int.
    """
    n = x.n
    if not y.n == a.n == b.n == n:
        raise SizeMismatchError(f"size mismatch: X is {n}x{n}, Y {y.n}x{y.n}, A {a.n}x{a.n}, B {b.n}x{b.n}")
    polys, targets, _, _ = _int_terms([e for m in (x, y) for row in m.rows for e in row],
                                      [t.value for m in (a, b) for row in m.rows for t in row])
    fails = _lift_failures(n, polys, targets)
    return LiftCheck(ok=not fails, failures=tuple(fails))


def _lift_failures(n: int, polys: list, targets: list) -> list[tuple[str, tuple[int, int]]]:
    """The failures of :func:`verify_lift`, in its order, for the entries
    of X then Y (row-major) as :func:`_int_terms` lists and the entries of
    A then B scaled like their exponents (None for +inf)."""
    xs, ys = polys[: n * n], polys[n * n :]
    fails: list[tuple[str, tuple[int, int]]] = []
    for i in range(n):
        for j in range(n):
            acc: dict[int, int] = {}
            # row i of one factor against column j of the other
            _add_products(acc, zip(xs[i * n : i * n + n], ys[j::n]))
            _add_products(acc, zip(ys[i * n : i * n + n], xs[j::n]), -1)
            if any(acc.values()):
                fails.append(("commutation", (i + 1, j + 1)))
    for k, (p, t) in enumerate(zip(polys, targets)):
        # the least exponent, None (+inf) for the zero series
        if (p[0][0] if p else None) != t:
            fails.append(("valuation-X" if k < n * n else "valuation-Y", (k // n % n + 1, k % n + 1)))
    return fails


def lift_2x2(a: TropMatrix, b: TropMatrix) -> tuple[SeriesMatrix, SeriesMatrix]:
    """A commuting series lift (X, Y) with val X = a, val Y = b.

    Uses the ansatz Y = alpha*I + t^v * X with X monomial off the diagonal:
    v = b12 - a12 is pinned by the off-diagonal valuations (the exchange
    relation a12 + b21 == a21 + b12 makes the two requirements agree), and
    the diagonal of X carries at most one extra term so cancellation
    against alpha produces the demanded valuations.  With w_i = v + a_ii
    and m_i = min(b_ii, w_i), alpha is 0 when b_ii == w_i for both i and
    t^max(m_1, m_2) otherwise.  An entry with b_ii != w_i forces
    val(alpha) = m_i, and one with b_ii == w_i needs val(alpha) >= w_i (the
    coefficients 1 + 1 never cancel).  On Tpre2 the minimum of {b11, b22,
    w1, w2} is attained twice, which settles the three cases: two forced
    entries have the same m_i (that minimum); a forced m_i is >= the w_j of
    a tied entry (else m_i would be the minimum, attained once); and with
    both entries tied alpha = 0 fits.  Every returned pair passes the check
    of :func:`verify_lift`: XY - YX is zero exactly and the valuations are
    a and b.

    The precondition is :func:`tropcomm.commuting.in_tc2`, i.e. membership
    in the prevariety Tpre2, with its exceptions in its order.  The ansatz
    covers all of Tpre2, so a failed check is a bug (AssertionError).  The
    test, the ansatz and the check run on the entries of a and b scaled to
    ints by one lcm D; Fractions are built for the returned terms only.
    """
    if a.n != 2 or b.n != 2:
        raise SizeMismatchError("lifting is implemented for n = 2")
    (av, bv), targets, d = _pair_ints(a, b)
    if not _commutator_sums(av, bv)[1].ok:
        raise LiftPreconditionError("pair fails the 2x2 variety membership test")

    v = bv[0][1] - av[0][1]
    w = [v + av[0][0], v + av[1][1]]
    diag = [bv[0][0], bv[1][1]]
    # the terms (scaled exponent, coefficient) of alpha
    alpha = [] if diag == w else [(max(map(min, diag, w)), 1)]

    # the diagonal entries u_i of t^v * X; alpha's coefficient is 1, so
    # where diag_i == w_i the entry alpha + u_i never cancels
    u = [[(w[i], -1), (diag[i], 1)] if diag[i] > w[i] else [(w[i], 1)] for i in (0, 1)]

    xs = [[(e - v, c) for e, c in u[0]], [(av[0][1], 1)], [(av[1][0], 1)], [(e - v, c) for e, c in u[1]]]
    # Y = alpha*I + t^v * X
    ys = [_collect(alpha + u[0]), [(av[0][1] + v, 1)], [(av[1][0] + v, 1)], _collect(alpha + u[1])]
    if _lift_failures(2, xs + ys, targets):
        raise AssertionError("the Tpre2 ansatz failed its own check")

    def matrix(polys: list[list[tuple[int, int]]]) -> SeriesMatrix:
        entries = [SeriesPoly(tuple((Fraction(e, d), Fraction(c)) for e, c in p)) for p in polys]
        return SeriesMatrix((tuple(entries[:2]), tuple(entries[2:])))

    return matrix(xs), matrix(ys)
