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
SLICE_BITS = 20  # RatMatrix.apply multiplies slices below 2^20: each product is below 2^40
WORD_SLICES = 3  # slices per int64 word of a numerator, cut from |nums| in one object pass


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

    __slots__ = ("nums", "den", "_slices")

    def __init__(self, nums, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("RatMatrix denominator is zero")
        self.nums = np.array(nums, dtype=object) if den > 0 else -np.array(nums, dtype=object)
        self.den = abs(den)
        self._slices = None  # `apply`'s float slices of nums, made on its first call

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

        hi + lo is within 2^-106 of each entry (Dekker, Numer. Math. 18, 1971).  One
        `frexp` of hi gives hi = m 2^e, m an integer of 53 bits; the rest of x / den,
        (x 2^-e - m den) / (den 2^-e) for e < 0 and (x - m den 2^e) / den otherwise, is
        rounded by one int / int division per entry.
        """
        hi = self.floats()
        frac, exp = np.frexp(hi.ravel())
        den = self.den
        lo = [((x << -e) - m * den) / (den << -e) if e < 0 else (x - (m * den << e)) / den
              for x, m, e in zip(self.nums.flat, np.ldexp(frac, 53).astype(np.int64).tolist(),
                                 (exp - 53).tolist())]
        return np.stack((hi, np.reshape(lo, hi.shape)))

    def apply(self, x) -> np.ndarray:
        """Float row vectors times this matrix: exact, each entry rounded once.

        x is one vector (any shape of ``rows`` floats, raveled) or a stack of them
        along its last axis, (..., rows), which gives (..., cols).  BLAS makes the
        product exactly, in slices (the Ozaki scheme: Ozaki, Ogita, Oishi & Rump,
        Numer. Algorithms 59, 2012): the numerators are cut once into signed slices
        below 2^SLICE_BITS, the stack into as many such slices as its bits need
        (`_float_slices`), and one float matmul multiplies every pair.  A product
        entry sums ``rows`` integers below 2^40; pairs at the same power of two, at
        most one per numerator slice, are summed next, so every sum stays below
        rows * slices * 2^40 < 2^53 and is exact.  The sums are joined into one
        Python int per output entry, and one int / int division by the
        denominator rounds it correctly.  Wrong lengths and non-finite values raise
        ValueError.
        """
        q, count = self._sliced_numerators()
        rows, cols = self.rows, self.cols
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (rows,):
            x = x.reshape(rows)
        stack = x.reshape(-1, rows)
        slices, low = _float_slices(stack)
        n = len(slices)
        prod = (np.concatenate(slices) @ q).reshape(n, len(stack), count, cols)
        # slice a of x times slice b of nums is at 2^(low + SLICE_BITS (n - 1 - a + b))
        sums = np.zeros((n + count - 1, len(stack), cols))
        for a in range(n):
            sums[n - 1 - a:n - 1 - a + count] += prod[a].transpose(1, 0, 2)
        parts = sums.astype(np.int64).astype(object)
        acc = parts[-1]
        for part in parts[-2::-1]:
            acc = (acc << SLICE_BITS) + part
        out = acc * (1 << max(low, 0)) / (self.den << max(-low, 0))
        return out.astype(float).reshape(x.shape[:-1] + (cols,))

    def _sliced_numerators(self) -> tuple[np.ndarray, int]:
        """(slices, count): nums = sum_b slice_b * 2^(SLICE_BITS b), b < count, each
        slice signed and below 2^SLICE_BITS, as (rows, count * cols) floats with slice b
        of column j at b * cols + j.  |nums| is cut into words of WORD_SLICES slices, one
        object pass per word, and the words into slices on int64.  Made on the first call;
        raises ValueError when rows * count * 2^(2 SLICE_BITS) reaches 2^53, past which
        `apply` is not exact.
        """
        if self._slices is None:
            grid = self._grid()
            mags = np.abs(grid)
            count = max(1, -(-max(mags.flat).bit_length() // SLICE_BITS))
            if grid.shape[0] * count << 2 * SLICE_BITS >= 1 << 53:
                raise ValueError(f"{grid.shape[0]} rows of {count} slices each are too many "
                                 f"to sum exactly in floats")
            bits = WORD_SLICES * SLICE_BITS
            words = np.array([mags >> bits * w & (1 << bits) - 1
                              for w in range(-(-count // WORD_SLICES))]).astype(np.int64)
            cuts = words[:, None] >> np.arange(0, bits, SLICE_BITS)[:, None, None]
            parts = (cuts & (1 << SLICE_BITS) - 1).reshape(-1, *grid.shape)[:count]
            self._slices = np.hstack(parts * np.where(grid < 0, -1, 1)).astype(float), count
        return self._slices


def _float_slices(stack: np.ndarray) -> tuple[list[np.ndarray], int]:
    """(slices, low): the floats stack cut top-down into integer slices below 2^SLICE_BITS.

    With |stack| < 2^e, stack = sum_a slices[a] * 2^s_a, s_a = e - SLICE_BITS (a + 1):
    slice a is trunc(rest / 2^s_a), which leaves rest below 2^s_a, until every rest
    is zero; low = e - SLICE_BITS * len(slices).  Truncating keeps each rest the tail
    of its float's own bits, so every cut is exact; flooring would leave 2^s_a - |rest|
    for a negative entry, which needs more than 53 bits.  Cutting from the top never
    scales past the float range, as scaling to integers would with a subnormal
    beside 1e280.  Non-finite values raise ValueError.
    """
    if not np.isfinite(stack).all():
        raise ValueError("cannot apply an exact operator to a non-finite value")
    top = int(np.frexp(np.max(np.abs(stack), initial=0.0))[1])
    rest, slices = stack.copy(), []
    while not slices or rest.any():
        shift = top - SLICE_BITS * (len(slices) + 1)
        part = np.trunc(np.ldexp(rest, -shift))
        rest -= np.ldexp(part, shift)
        slices.append(part)
    return slices, top - SLICE_BITS * len(slices)


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
