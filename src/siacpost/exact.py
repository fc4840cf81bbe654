"""Exact rational scalars, matrices, and polynomials.

Scalars are ``fractions.Fraction`` (arbitrary-precision rationals).  The
text form of a rational is ``str(Fraction)``, i.e. "p/q" with "/q" omitted
when q == 1, and ``Fraction("p/q")`` parses it back.  Every exact matrix,
the operators that filter and step DG data included, is a ``RatMatrix``:
an integer array over one denominator, so products and elimination run on
integers.  It is the one place where exact values leave, as reduced
``Fraction``s or as floats, each float the correctly rounded value of one
exact entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

import numpy as np

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
    """Exact rational array: Python-int numerators ``nums``, an object array of
    any shape, over one positive denominator ``den`` (a negative one flips signs).

    Equality and hash go by value, so the denominator an array is held over
    never shows, in them or in any exit: ``entries`` and ``row`` give reduced
    Fractions, and ``floats()``, ``hi_lo()`` and ``apply()`` round each entry
    once.  As a matrix a vector is one column; an array of more than two axes
    has no rows or columns.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("RatMatrix denominator is zero")
        self.nums = np.array(nums, dtype=object) if den > 0 else -np.array(nums, dtype=object)
        self.den = abs(den)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalLike]]) -> "RatMatrix":
        """The matrix of these rows, over the lcm of its denominators.  Ragged rows raise
        ValueError."""
        cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise ValueError(f"rows of unequal lengths {[len(row) for row in rows]}")
        nums, den = _over_common_denominator([rat(e) for row in rows for e in row])
        return cls(np.array(nums, dtype=object).reshape(len(rows), cols), den)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(np.eye(n, dtype=object))

    def _grid(self) -> np.ndarray:
        """nums as a (rows, cols) array."""
        if self.nums.ndim > 2:
            raise ValueError(f"an array of shape {self.nums.shape} has no rows and columns")
        return self.nums.reshape((*self.nums.shape, 1, 1)[:2])

    @property
    def rows(self) -> int:
        return self._grid().shape[0]

    @property
    def cols(self) -> int:
        return self._grid().shape[1]

    @property
    def entries(self) -> list[Fraction]:
        """The entries as reduced Fractions, flat in C order."""
        return [Fraction(v, self.den) for v in self.nums.flat]

    def row(self, i: int) -> list[Fraction]:
        return [Fraction(v, self.den) for v in self._grid()[i]]

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        """Exact product: integer products over the product of the denominators."""
        return RatMatrix(self.nums @ other.nums, self.den * other.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return bool(np.array_equal(self.nums * other.den, other.nums * self.den))

    def __hash__(self):
        r = self.reduced()
        return hash((r.nums.shape, tuple(r.nums.flat), r.den))

    def reduced(self) -> "RatMatrix":
        """The same values over the least common denominator of the entries."""
        g = gcd(self.den, *self.nums.flat)
        return RatMatrix(self.nums // g, self.den // g)

    def floats(self) -> np.ndarray:
        """The entries as floats, each correctly rounded (int / int rounds once)."""
        return np.array([v / self.den for v in self.nums.flat]).reshape(self.nums.shape)

    def hi_lo(self) -> np.ndarray:
        """Floats hi, each entry rounded, and lo, its rounded rest, on a new first axis.

        hi + lo is within 2^-106 of each entry (Dekker, Numer. Math. 18, 1971).
        """
        hi, den = self.floats(), self.den
        lo = [(x * hq - hp * den) / (den * hq) for x, (hp, hq) in
              zip(self.nums.flat, map(float.as_integer_ratio, hi.ravel().tolist()))]
        return np.stack((hi, np.reshape(lo, hi.shape)))

    def apply(self, x) -> np.ndarray:
        """The floats x, raveled to a row vector, times this matrix: exact, each entry
        rounded once.  x is lifted losslessly with ``float.as_integer_ratio`` to integers
        over one power-of-two scale.  A vector of the wrong length raises ValueError."""
        ratios = [v.as_integer_ratio() for v in np.asarray(x, dtype=float).ravel().tolist()]
        scale = max(q for _, q in ratios)  # a power of two: the others divide it
        return (RatMatrix([p * (scale // q) for p, q in ratios], scale) @ self).floats()


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
    """Determinant by fraction-free integer elimination: det(nums) / den^n."""
    if a.rows != a.cols:
        raise ValueError("determinant needs a square matrix")
    try:
        det, _, _ = _eliminate(a._grid().tolist(), a.rows)
    except SingularMatrixError:
        return Fraction(0)
    return Fraction(det, a.den ** a.rows)


def solve_exact(a: RatMatrix, b: RatMatrix | Sequence[RationalLike]) -> RatMatrix:
    """Solve A x = b exactly by fraction-free elimination over the integers.

    Each side's numerators are scaled by the other side's denominator, which
    leaves A^-1 b unchanged.  Raises SingularMatrixError when det(A) = 0.
    """
    if not isinstance(b, RatMatrix):
        b = RatMatrix.from_rows([[v] for v in b])
    if a.rows != a.cols:
        raise ValueError("matrix must be square")
    if b.rows != a.rows:
        raise ValueError("right-hand side has wrong length")
    rows = np.hstack((a._grid() * b.den, b._grid() * a.den)).tolist()
    _, pivot, rhs = _eliminate(rows, a.rows)
    return RatMatrix(np.reshape(np.array(rhs, dtype=object), (a.rows, b.cols)), pivot)


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
