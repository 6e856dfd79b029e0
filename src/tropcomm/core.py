"""Exact min-plus (tropical) scalar and matrix arithmetic.

Tropical addition is min, tropical multiplication is ordinary +, and the
additive identity is +infinity.  Every finite value is an exact rational
(``fractions.Fraction``), so equality -- in particular "the minimum is
attained twice" -- is decidable.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain
from math import lcm
from operator import add
from typing import Iterable, Iterator, Optional, Sequence, Union

__all__ = [
    "TropScalar",
    "TropMatrix",
    "TropVector",
    "INF",
    "ZERO",
    "SizeMismatchError",
    "NegativeCycleError",
    "AllInfiniteError",
    "MatrixFormatError",
    "trop_add",
    "trop_mul",
    "trop_pow",
    "kleene_star",
    "mat_vec",
    "normalize_tp",
    "scalar_from_text",
    "scalar_to_text",
    "format_rational",
    "matrix_to_json",
    "matrix_from_json",
    "pair_from_json",
    "pair_to_json",
]

ScalarLike = Union["TropScalar", Fraction, int, str, None]


class SizeMismatchError(ValueError):
    """Two matrices of different sizes were combined."""


class NegativeCycleError(ValueError):
    """A cycle of negative total weight exists; the Kleene star diverges."""


class AllInfiniteError(ValueError):
    """A tropical vector with no finite entry cannot be normalized."""


class MatrixFormatError(ValueError):
    """Malformed matrix/pair input (JSON structure or entry syntax)."""


def _exact_number(text: str) -> Fraction:
    """``Fraction(text)``, refused (ValueError) when its numerator or
    denominator has more digits than Python's int-string limit, since no
    output could print it.  The decimal exponent is checked first:
    ``"1e999999999"`` would otherwise build a 415 MB integer."""
    limit = sys.get_int_max_str_digits()
    _, e, exponent = text.upper().partition("E")
    if e and limit:
        try:
            too_large = abs(int(exponent)) > limit
        except ValueError:
            too_large = False  # not an exponent: Fraction reports the syntax
        if too_large:
            raise ValueError(f"decimal exponent beyond the limit of {limit}")
    return _printable(Fraction(text), "the entry")


def _printable(q: Fraction, what: str) -> Fraction:
    """q, or ValueError naming ``what`` when its numerator or denominator
    has more digits than Python's int-string limit lets any output print."""
    limit = sys.get_int_max_str_digits()
    if limit and max(abs(q.numerator), q.denominator) >= _power_of_ten(limit):
        raise ValueError(f"{what} has more than {limit:,} digits, too long to print")
    return q


def _fraction(x: Fraction | int) -> Fraction:
    """x as a plain Fraction: a Fraction (immutable) as it is, anything
    else, a Fraction subclass included, through ``Fraction(x)``."""
    return x if type(x) is Fraction else Fraction(x)


@cache
def _power_of_ten(k: int) -> int:
    return 10 ** k


def scalar_from_text(text: str) -> "TropScalar":
    """Parse ``"4.10"``, ``"41/10"`` or ``"inf"`` into an exact scalar;
    the text is ASCII (MatrixFormatError otherwise)."""
    if not text.isascii():
        raise MatrixFormatError(f"bad entry {text!r}: not ASCII text")
    text = text.strip()
    if text in ("inf", "+inf", "Inf", "INF"):
        return INF
    try:
        return TropScalar(_exact_number(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise MatrixFormatError(f"bad entry {text!r}: {exc}") from None


def scalar_to_text(s: "TropScalar") -> str:
    """Lowest-terms fraction string, or ``"inf"``."""
    return "inf" if s.value is None else str(_printable(s.value, "a computed entry"))


def format_rational(q: Fraction) -> str:
    """Render exactly: as a decimal when the denominator divides 100."""
    _printable(q, "a computed entry")
    if 100 % q.denominator == 0:
        scaled = q * 100
        whole, cents = divmod(abs(scaled.numerator), 100)
        sign = "-" if q < 0 else ""
        if cents == 0:
            return f"{sign}{whole}"
        return f"{sign}{whole}.{cents:02d}".rstrip("0")
    return str(q)


@dataclass(frozen=True, order=False, slots=True)
class TropScalar:
    """An exact rational, or +infinity (``value is None``).

    Slotted, without a per-instance dict, because matrix workloads hold
    many of them.
    """

    value: Fraction | None = None

    @staticmethod
    def of(x: ScalarLike) -> "TropScalar":
        if isinstance(x, TropScalar):
            return x
        if x is None:
            return INF
        if isinstance(x, str):
            return scalar_from_text(x)
        if isinstance(x, bool):  # an int subclass, never a valid entry
            raise MatrixFormatError(f"bad entry {x!r}: not a number")
        return TropScalar(_fraction(x))

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def __add__(self, other: "TropScalar") -> "TropScalar":
        # classical +, i.e. tropical multiplication; inf absorbs
        if self.value is None or other.value is None:
            return INF
        return TropScalar(self.value + other.value)

    def __lt__(self, other: "TropScalar") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __le__(self, other: "TropScalar") -> bool:
        return self == other or self < other

    def min(self, other: "TropScalar") -> "TropScalar":
        # tropical addition
        return self if self <= other else other

    def __str__(self) -> str:
        return scalar_to_text(self)


INF = TropScalar(None)
ZERO = TropScalar(Fraction(0))


@dataclass(frozen=True)
class TropVector:
    """A point of R^n over the min-plus semiring (entries may be +inf)."""

    entries: tuple[TropScalar, ...]

    @staticmethod
    def of(values: Iterable[ScalarLike]) -> "TropVector":
        return TropVector(tuple(TropScalar.of(v) for v in values))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> TropScalar:
        return self.entries[i]

    def __iter__(self) -> Iterator[TropScalar]:
        return iter(self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


class _Square:
    """The shape of tropical and series matrices: a frozen dataclass whose
    one field ``rows`` is an n x n grid, with its size n and 0-based m[i, j]."""

    def __post_init__(self) -> None:
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise SizeMismatchError("matrix is not square")

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij: tuple[int, int]):
        return self.rows[ij[0]][ij[1]]


@dataclass(frozen=True)
class TropMatrix(_Square):
    """A square matrix over the min-plus semiring."""

    rows: tuple[tuple[TropScalar, ...], ...]

    @staticmethod
    def of(rows: Iterable[Iterable[ScalarLike]]) -> "TropMatrix":
        return TropMatrix(tuple(tuple(TropScalar.of(v) for v in row) for row in rows))

    @staticmethod
    def identity(n: int) -> "TropMatrix":
        return TropMatrix.of([[0 if i == j else None for j in range(n)] for i in range(n)])

    def column(self, j: int) -> TropVector:
        return TropVector(tuple(self.rows[i][j] for i in range(self.n)))

    def all_finite(self) -> bool:
        return all(e.is_finite for row in self.rows for e in row)

    def __add__(self, other: "TropMatrix") -> "TropMatrix":
        return trop_add(self, other)

    def __matmul__(self, other: "TropMatrix") -> "TropMatrix":
        return trop_mul(self, other)

    def entrywise_le(self, other: "TropMatrix") -> bool:
        _check_sizes(self, other)
        return all(
            self.rows[i][j] <= other.rows[i][j]
            for i in range(self.n)
            for j in range(self.n)
        )

    def __str__(self) -> str:
        return "\n".join("  ".join(str(e) for e in row) for row in self.rows)


def _check_sizes(a: TropMatrix, b: TropMatrix | TropVector) -> None:
    if a.n != b.n:
        raise SizeMismatchError(f"size mismatch: {a.n} vs {b.n}")


# ---------------------------------------------------------------------------
# integer kernels
#
# Every value inside one call is an exact rational, so the values times the
# lcm D of their denominators are ints with the same sums, minima and ties
# (scaled by D).  The kernels below run on such ints, None standing for
# +inf; results go back through Fraction(v, D), which is in lowest terms.
# ---------------------------------------------------------------------------

IntGrid = list[list[Optional[int]]]


def _lcm_scale(values: Sequence[Optional[Fraction]]) -> tuple[list[Optional[int]], int]:
    """The values times the lcm D of their denominators, as ints (None
    stays None), and D."""
    ratios = [None if v is None else v.as_integer_ratio() for v in values]
    d = lcm(*{r[1] for r in ratios if r is not None})
    return [None if r is None else r[0] * (d // r[1]) for r in ratios], d


def _int_grids(*grids: Sequence[Sequence[TropScalar]]) -> tuple[list[IntGrid], int]:
    """Scalar grids (a matrix's ``rows``, or one row) scaled by one common D."""
    flat, d = _lcm_scale([e.value for g in grids for row in g for e in row])
    it = iter(flat)
    return [[[next(it) for _ in row] for row in g] for g in grids], d


def _int_scalar(v: Optional[int], d: int) -> TropScalar:
    return INF if v is None else TropScalar(Fraction(v, d))


def _from_int_grid(grid: IntGrid, d: int) -> TropMatrix:
    return TropMatrix(tuple(tuple(_int_scalar(v, d) for v in row) for row in grid))


def _int_mul(x: IntGrid, y: IntGrid) -> IntGrid:
    """Min-plus product of int grids; x's rows are as long as y's columns.
    Finite grids take the plain sums; only a grid holding +inf (None) needs
    the loop that skips it."""
    cols = list(zip(*y))
    if None in chain(*x, *y):
        return [[min((p + q for p, q in zip(row, col) if p is not None and q is not None), default=None)
                 for col in cols] for row in x]
    return [[min(map(add, row, col)) for col in cols] for row in x]


def _int_min(x: IntGrid, y: IntGrid) -> IntGrid:
    """Entrywise min of int grids of one shape."""
    return [
        [q if p is None or (q is not None and q < p) else p for p, q in zip(r, s)]
        for r, s in zip(x, y)
    ]


def _int_star(x: IntGrid) -> IntGrid:
    """Kleene star of a square int grid; see :func:`kleene_star`."""
    d = [list(row) for row in x]
    for k, row_k in enumerate(d):
        for row_i in d:
            dik = row_i[k]
            if dik is None:
                continue
            for j, dkj in enumerate(row_k):
                if dkj is not None:
                    alt = dik + dkj
                    if row_i[j] is None or alt < row_i[j]:
                        row_i[j] = alt
    for i, row in enumerate(d):
        if row[i] is not None and row[i] < 0:
            raise NegativeCycleError("negative-weight cycle; star diverges")
        row[i] = 0
    return d


def trop_add(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """Entrywise min."""
    _check_sizes(a, b)
    (x, y), d = _int_grids(a.rows, b.rows)
    return _from_int_grid(_int_min(x, y), d)


def trop_mul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """Min-plus product: out[i][j] = min_s a[i][s] + b[s][j]."""
    _check_sizes(a, b)
    (x, y), d = _int_grids(a.rows, b.rows)
    return _from_int_grid(_int_mul(x, y), d)


def trop_pow(a: TropMatrix, m: int) -> TropMatrix:
    """m-fold min-plus product, m >= 1."""
    if m < 1:
        raise ValueError("exponent must be >= 1")
    (x,), d = _int_grids(a.rows)
    out = x
    for _ in range(m - 1):
        out = _int_mul(out, x)
    return _from_int_grid(out, d)


def mat_vec(a: TropMatrix, x: TropVector) -> TropVector:
    """Min-plus matrix-vector action: out[i] = min_s a[i][s] + x[s]."""
    _check_sizes(a, x)
    (m, (v,)), d = _int_grids(a.rows, (x.entries,))
    return TropVector(tuple(_int_scalar(r[0], d) for r in _int_mul(m, [[e] for e in v])))


def kleene_star(a: TropMatrix) -> TropMatrix:
    """I + a + a^2 + ... + a^n, via an all-pairs shortest-path closure.

    Raises :class:`NegativeCycleError` when some cycle has negative total
    weight (the geometric series diverges).  The closure is the standard
    in-place n^3 relaxation; the result R satisfies R = R@R and has zero
    diagonal.
    """
    (x,), d = _int_grids(a.rows)
    return _from_int_grid(_int_star(x), d)


def normalize_tp(v: TropVector) -> TropVector:
    """Shift so the first finite coordinate becomes 0 (projective rep)."""
    pivot = next((e for e in v if e.is_finite), None)
    if pivot is None:
        raise AllInfiniteError("vector has no finite entry")
    shift = TropScalar(-pivot.value)  # type: ignore[operator]
    return TropVector(tuple(e + shift for e in v))


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def matrix_to_json(a: TropMatrix) -> dict:
    """``{"n": n, "entries": [[...lowest-terms strings...]]}``."""
    return {
        "n": a.n,
        "entries": [[scalar_to_text(e) for e in row] for row in a.rows],
    }


def _entries_from_obj(obj: dict, what: str) -> TropMatrix:
    """The n x n grid ``obj[what]`` of a matrix or pair object."""
    n = obj["n"]
    if type(n) is not int or n < 1:  # JSON true loads as bool, an int
        raise MatrixFormatError("n must be a positive integer")
    entries = obj[what]
    if (
        not isinstance(entries, list)
        or len(entries) != n
        or any(not isinstance(r, list) or len(r) != n for r in entries)
    ):
        raise MatrixFormatError(f"{what}: expected {n}x{n} entry grid")
    try:
        return TropMatrix.of(entries)
    except MatrixFormatError:
        raise
    except Exception as exc:
        raise MatrixFormatError(f"{what}: {exc}") from None


def matrix_from_json(obj: object) -> TropMatrix:
    """Parse the ``{"n": ..., "entries": ...}`` matrix object exactly."""
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise MatrixFormatError('expected {"n": int, "entries": [[...]]}')
    return _entries_from_obj(obj, "entries")


def pair_from_json(obj: object) -> tuple[TropMatrix, TropMatrix]:
    """Parse ``{"n": int, "A": [[...]], "B": [[...]]}``."""
    if not isinstance(obj, dict) or not {"n", "A", "B"} <= set(obj):
        raise MatrixFormatError('expected {"n": int, "A": [[...]], "B": [[...]]}')
    return _entries_from_obj(obj, "A"), _entries_from_obj(obj, "B")


def pair_to_json(a: TropMatrix, b: TropMatrix) -> dict:
    _check_sizes(a, b)
    return {
        "n": a.n,
        "A": matrix_to_json(a)["entries"],
        "B": matrix_to_json(b)["entries"],
    }


def load_json(path: str) -> object:
    """Parse a JSON file; numbers with a fraction part or an exponent are
    read exactly from their text (``0.1`` is 1/10), never through float.
    An integer or an exponent beyond Python's int-string limit, and nesting
    deeper than the interpreter's recursion limit, are refused."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_exact_number)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError includes JSONDecodeError
        raise MatrixFormatError(f"cannot read {path}: {exc}") from None
