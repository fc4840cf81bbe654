"""Exact rational scalars, dense matrices, and polynomials.

Values are ``fractions.Fraction`` (arbitrary-precision rationals).  Matrix
products and elimination work inside on integers over common
denominators and return canonical ``Fraction``s.  The text
form of a rational is ``str(Fraction)``, i.e. "p/q" with "/q" omitted when
q == 1, and ``Fraction("p/q")`` parses it back.  Nothing here rounds to
floating point; callers convert the entries they need.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]


class SingularMatrixError(ArithmeticError):
    """Elimination hit a zero determinant."""


def rat(value: RationalLike, den: int | None = None) -> Fraction:
    """Build an exact rational. Floats are rejected: pass "p/q" instead."""
    if den is not None:
        return Fraction(value, den)
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass int, 'p/q' string, or Fraction")
    return Fraction(value)


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(integer numerators, D) with values[i] = numerators[i] / D, D the lcm."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


class RatMatrix:
    """Dense rational matrix, entries stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[RationalLike]):
        self.rows = rows
        self.cols = cols
        self.entries = [rat(e) if not isinstance(e, Fraction) else e for e in entries]
        if len(self.entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(self.entries)}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> "RatMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        flat = [e for row in rows for e in row]
        return cls(nr, nc, flat)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    @classmethod
    def column(cls, values: Sequence[RationalLike]) -> "RatMatrix":
        return cls(len(values), 1, list(values))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[Fraction]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> list[Fraction]:
        return self.entries[j::self.cols]

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        """Exact product: each entry is one integer dot product, divided once."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        rows = [_over_common_denominator(self.row(i)) for i in range(self.rows)]
        cols = [_over_common_denominator(other.col(j)) for j in range(other.cols)]
        return RatMatrix(self.rows, other.cols,
                         [Fraction(sum(map(mul, r, c)), rd * cd)
                          for r, rd in rows for c, cd in cols])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"RatMatrix({self.rows}x{self.cols}: {body})"


def _scaled_rows(a: RatMatrix, b: RatMatrix | None = None) -> tuple[list[list[int]], int]:
    """Rows of [A | B] each scaled by the lcm of its denominators (A^-1 B is unchanged),
    and the product of the lcms."""
    rows = [_over_common_denominator(a.row(i) + (b.row(i) if b is not None else []))
            for i in range(a.rows)]
    return [row for row, _ in rows], prod(den for _, den in rows)


def _eliminate(rows: list[list[int]], n: int) -> tuple[int, int, list[list[int]]]:
    """Fraction-free Gauss-Jordan elimination of the integer rows [A | B], A n x n.

    Step k replaces every other row i by (p_k * row_i - a_ik * row_k) /
    p_(k-1), with p_k the k-th pivot; by Sylvester's identity the division
    is exact (Bareiss, Math. Comp. 22, 1968).  The pivot is the first
    nonzero entry of the column, as in exact elimination no magnitude-based
    choice is needed.  At the end the left block is p_n * I, so A^-1 B is
    the right block divided by p_n, entry by entry.  The rows are
    overwritten.

    Returns (det A, p_n, right block).  Raises SingularMatrixError when a
    column has no nonzero pivot.
    """
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pivot_row = rows[k]
        p = pivot_row[k]
        tail = pivot_row[k + 1:]
        for i in range(n):
            if i != k:
                row = rows[i]
                f = row[k]
                # columns <= k of the other rows are never read again
                row[k + 1:] = [(p * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = p
    return sign * prev, prev, [row[n:] for row in rows]


def det_exact(a: RatMatrix) -> Fraction:
    """Determinant by fraction-free integer elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant needs a square matrix")
    rows, scale = _scaled_rows(a)
    try:
        det, _, _ = _eliminate(rows, a.rows)
    except SingularMatrixError:
        return Fraction(0)
    return Fraction(det, scale)


def solve_exact(a: RatMatrix, b: RatMatrix | Sequence[RationalLike]) -> RatMatrix:
    """Solve A x = b exactly by fraction-free elimination over the integers.

    Raises SingularMatrixError when det(A) = 0.
    """
    if not isinstance(b, RatMatrix):
        b = RatMatrix.column(list(b))
    if a.rows != a.cols:
        raise ValueError("matrix must be square")
    if b.rows != a.rows:
        raise ValueError("right-hand side has wrong length")
    _, pivot, rhs = _eliminate(_scaled_rows(a, b)[0], a.rows)
    return RatMatrix(a.rows, b.cols, [Fraction(x, pivot) for row in rhs for x in row])


def invert_exact(a: RatMatrix) -> RatMatrix:
    """Return A^-1 with A @ A^-1 = I exactly."""
    return solve_exact(a, RatMatrix.identity(a.rows))


class RatPoly:
    """Polynomial with rational coefficients, ascending powers of x.

    Trailing zero coefficients are trimmed; the zero polynomial is [0].
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike]):
        cs = [rat(c) if not isinstance(c, Fraction) else c for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Horner evaluation; works for Fraction, int, and float arguments."""
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def recentered(self, center: RationalLike) -> "RatPoly":
        """The coefficients about x = center: q with q(u) = p(u + center), exactly."""
        lin = RatPoly([center, 1])
        out = RatPoly([0])
        for c in reversed(self.coeffs):
            out = out * lin + c
        return out

    def __add__(self, other):
        o = other.coeffs if isinstance(other, RatPoly) else (rat(other),)
        n = max(len(self.coeffs), len(o))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(o) + [Fraction(0)] * (n - len(o))
        return RatPoly([x + y for x, y in zip(a, b)])

    def __mul__(self, other):
        if isinstance(other, RatPoly):
            return RatPoly(_poly_mul(list(self.coeffs), list(other.coeffs)))
        f = rat(other) if not isinstance(other, Fraction) else other
        return RatPoly([c * f for c in self.coeffs])

    __rmul__ = __mul__

    def derivative(self) -> "RatPoly":
        if len(self.coeffs) == 1:
            return RatPoly([0])
        return RatPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "RatPoly":
        return RatPoly([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def integral(self, lo: RationalLike, hi: RationalLike) -> Fraction:
        f = self.antiderivative()
        return f(rat(hi)) - f(rat(lo))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        terms = " + ".join(f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c != 0)
        return f"RatPoly({terms or '0'})"


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out
