"""B-spline and Bernstein primitives over exact rational knots.

Conventions:
  * B(x|t) is the *unit-integral* B-spline over the k+2 knots t, related to
    the recursive (partition-of-unity) B-spline N by
    B = (k+1)/(t_{k+1} - t_0) * N.
  * Evaluation is right-continuous at interior knots; at the global right
    end the value is the limit from the left, so stacked end knots still
    give a usable boundary value.  The convention never affects integrals.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .exact import RatPoly, _over_common_denominator, rat


class DegenerateSupportError(ValueError):
    """Knot window has zero width."""


def as_knots(seq: Iterable) -> tuple[Fraction, ...]:
    """Normalize a knot sequence to exact rationals, checking monotonicity."""
    ks = tuple(rat(t) if not isinstance(t, Fraction) else t for t in seq)
    for a, b in zip(ks, ks[1:]):
        if b < a:
            raise ValueError("knots must be nondecreasing")
    return ks


def _check_window(knots: Sequence[Fraction], k: int) -> None:
    if len(knots) != k + 2:
        raise ValueError(f"degree-{k} B-spline needs {k + 2} knots, got {len(knots)}")
    if knots[-1] == knots[0]:
        raise DegenerateSupportError("zero-width support")


def eval_unit_bspline(knots, k: int, x):
    """Evaluate the unit-integral B-spline B(x|t) of degree k.

    Cox-de Boor recursion with the 0/0 := 0 convention.  Accepts float or
    Fraction x and preserves exactness for Fraction input.
    """
    t = as_knots(knots)
    _check_window(t, k)
    if x < t[0] or x > t[-1]:
        return 0
    last = t[-1]
    # degree-0 seeds: [t_i, t_{i+1}) half-open, except the last nonempty
    # interval which is closed (left limit at the global right end)
    n = []
    for i in range(k + 1):
        lo, hi = t[i], t[i + 1]
        if lo <= x < hi or (x == hi == last and lo < hi):
            n.append(1)
        else:
            n.append(0)
    for j in range(1, k + 1):
        nxt = []
        for i in range(k + 1 - j):
            acc = 0
            d1 = t[i + j] - t[i]
            if d1 != 0 and n[i]:
                acc += (x - t[i]) / d1 * n[i]
            d2 = t[i + j + 1] - t[i + 1]
            if d2 != 0 and n[i + 1]:
                acc += (t[i + j + 1] - x) / d2 * n[i + 1]
            nxt.append(acc)
        n = nxt
    return Fraction(k + 1, 1) / (t[-1] - t[0]) * n[0]


class PiecewisePolynomial:
    """Exact piecewise polynomial: one RatPoly per breakpoint interval.

    Value is 0 outside [breakpoints[0], breakpoints[-1]].  Pieces are
    polynomials in the global variable (center 0).
    """

    __slots__ = ("breakpoints", "pieces")

    def __init__(self, breakpoints: Iterable, pieces: Sequence[RatPoly]):
        self.breakpoints = as_knots(breakpoints)
        self.pieces = tuple(pieces)
        if len(self.pieces) != len(self.breakpoints) - 1:
            raise ValueError("need one piece per interval")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if b <= a:
                raise ValueError("breakpoints must be strictly increasing")

    def piece_index(self, x) -> int | None:
        bp = self.breakpoints
        if x < bp[0] or x > bp[-1]:
            return None
        if x == bp[-1]:
            return len(self.pieces) - 1
        lo, hi = 0, len(self.pieces)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if x < bp[mid]:
                hi = mid
            else:
                lo = mid
        return lo

    def __call__(self, x):
        i = self.piece_index(x)
        return 0 if i is None else self.pieces[i](x)

    def integral(self, lo=None, hi=None) -> Fraction:
        lo = self.breakpoints[0] if lo is None else rat(lo)
        hi = self.breakpoints[-1] if hi is None else rat(hi)
        return self.integrate_against(RatPoly([1]), lo, hi)

    def integrate_against(self, poly: RatPoly, lo, hi) -> Fraction:
        """Exact integral of self * poly over [lo, hi] (clipped to support)."""
        lo, hi = rat(lo), rat(hi)
        total = Fraction(0)
        bp = self.breakpoints
        for i, piece in enumerate(self.pieces):
            a = max(bp[i], lo)
            b = min(bp[i + 1], hi)
            if b > a:
                total += (piece * poly).integral(a, b)
        return total

    def __add__(self, other: "PiecewisePolynomial") -> "PiecewisePolynomial":
        cuts = sorted(set(self.breakpoints) | set(other.breakpoints))
        pieces = []
        for a, b in zip(cuts, cuts[1:]):
            mid = (a + b) / 2
            i = self.piece_index(mid)
            q = other.piece_index(mid)
            acc = RatPoly([0])
            if i is not None:
                acc = acc + self.pieces[i]
            if q is not None:
                acc = acc + other.pieces[q]
            pieces.append(acc)
        return PiecewisePolynomial(cuts, pieces)

    def scaled(self, factor) -> "PiecewisePolynomial":
        f = rat(factor) if not isinstance(factor, Fraction) else factor
        return PiecewisePolynomial(self.breakpoints, [p * f for p in self.pieces])


def unit_bspline_piecewise(knots, k: int) -> PiecewisePolynomial:
    """Exact piecewise-polynomial form of the unit-integral B-spline."""
    t = as_knots(knots)
    _check_window(t, k)
    distinct = sorted(set(t))
    # index of the interval [distinct[i], distinct[i+1]) containing each knot span
    def span_interval(lo: Fraction) -> int:
        return distinct.index(lo)

    # level-0: indicator of each nondegenerate knot span
    nil = RatPoly([0])
    levels: list[list[RatPoly]] = []
    cur = []
    for i in range(k + 1):
        row = [nil] * (len(distinct) - 1)
        if t[i] < t[i + 1]:
            row[span_interval(t[i])] = RatPoly([1])
        cur.append(row)
    for j in range(1, k + 1):
        nxt = []
        for i in range(k + 1 - j):
            row = [nil] * (len(distinct) - 1)
            d1 = t[i + j] - t[i]
            d2 = t[i + j + 1] - t[i + 1]
            for s in range(len(distinct) - 1):
                acc = RatPoly([0])
                if d1 != 0 and cur[i][s].coeffs != (Fraction(0),):
                    acc = acc + RatPoly([-t[i] / d1, 1 / d1]) * cur[i][s]
                if d2 != 0 and cur[i + 1][s].coeffs != (Fraction(0),):
                    acc = acc + RatPoly([t[i + j + 1] / d2, -1 / d2]) * cur[i + 1][s]
                row[s] = acc
            nxt.append(row)
        cur = nxt
    scale = Fraction(k + 1) / (t[-1] - t[0])
    return PiecewisePolynomial(distinct, [p * scale for p in cur[0]])


def _complete_homogeneous(values: Sequence[Fraction], m: int) -> Fraction:
    """Sum of all degree-m monomials in the given values (h_m)."""
    h = [Fraction(1)] + [Fraction(0)] * m
    for v in values:
        for i in range(1, m + 1):
            h[i] += v * h[i - 1]
    return h[m]


def bspline_moment(knots, k: int, m: int) -> Fraction:
    """Exact moment: integral of B(s|t) s^m ds = h_m(t) / C(m+k+1, m)."""
    t = as_knots(knots)
    _check_window(t, k)
    if m < 0:
        raise ValueError("moment exponent must be nonnegative")
    return _complete_homogeneous(t, m) / comb(m + k + 1, m)


def bspline_moments(knots, k: int, r: int) -> tuple[Fraction, ...]:
    """Moments 0..r of B(s|t), from one sweep of the sums h_0..h_r.

    The knots are scaled to integers over their common denominator D, so
    the sweep runs on integers and moment m is h_m / (D^m C(m+k+1, m)).
    """
    t = as_knots(knots)
    _check_window(t, k)
    if r < 0:
        raise ValueError("moment exponent must be nonnegative")
    ints, den = _over_common_denominator(t)
    h = [1] + [0] * r
    for p in ints:
        for i in range(1, r + 1):
            h[i] += p * h[i - 1]
    return tuple(Fraction(h[m], den ** m * comb(m + k + 1, m)) for m in range(r + 1))


def bernstein_poly(d: int, ell: int) -> RatPoly:
    """Bernstein basis polynomial C(d,ell) u^ell (1-u)^(d-ell) on [0,1]."""
    if not 0 <= ell <= d:
        raise ValueError("basis index out of range")
    c = comb(d, ell)
    coeffs = [Fraction(0)] * ell + [Fraction(c * comb(d - ell, i) * (-1) ** i)
                                    for i in range(d - ell + 1)]
    return RatPoly(coeffs)
