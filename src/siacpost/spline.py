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

from bisect import bisect_right
from fractions import Fraction
from functools import cache
from math import comb, gcd, isfinite, lcm
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
    """Evaluate the unit-integral B-spline B(x|t) of degree k (see `bspline_evaluator`)."""
    return bspline_evaluator(knots, k)(x)


def bspline_evaluator(knots, k: int):
    """x -> B(x|t), by Cox-de Boor with the 0/0 := 0 convention; knot work done once.

    Knots are compared with x exactly.  The arithmetic is exact for
    rational x.  For a float x the knot positions and differences are
    taken as floats, converted once, so x gets bit for bit what the
    rational knots give it: Python rounds each mixed Fraction/float
    operation through float.
    """
    t = as_knots(knots)
    _check_window(t, k)

    @cache  # built on the first x of each kind that falls in the support
    def tables(floats: bool):
        num = float if floats else (lambda v: v)
        # width[j][i] = t_(i+j) - t_i, the denominators of recursion level j
        width = [[num(t[i + j] - t[i]) for i in range(k + 2 - j)] for j in range(k + 1)]
        # at the global right end the seed is the last nonempty span (left limit)
        last_span = max(i for i in range(k + 1) if t[i] < t[i + 1])
        return [num(v) for v in t], width, num(Fraction(k + 1) / (t[-1] - t[0])), last_span

    def value(x):
        floats = isinstance(x, float)
        if floats and not isfinite(x):
            return 0  # NaN and the infinities lie on no support
        xq = Fraction(x) if floats else x
        if xq < t[0] or xq > t[-1]:
            return 0
        at, width, scale, last_span = tables(floats)
        seed = min(bisect_right(t, xq) - 1, last_span)
        n = [int(i == seed) for i in range(k + 1)]
        for j in range(1, k + 1):
            nxt = []
            for i in range(k + 1 - j):
                acc = 0
                d1, d2 = width[j][i], width[j][i + 1]
                if d1 != 0 and n[i]:
                    acc += (x - at[i]) / d1 * n[i]
                if d2 != 0 and n[i + 1]:
                    acc += (at[i + j + 1] - x) / d2 * n[i + 1]
                nxt.append(acc)
            n = nxt
        return scale * n[0]

    return value


class PiecewisePolynomial:
    """Exact piecewise polynomial: one RatPoly per breakpoint interval.

    Value is 0 outside [breakpoints[0], breakpoints[-1]].  Pieces are
    polynomials in the global variable.
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


def bspline_pieces(ts: Sequence[int], scale: int, k: int
                   ) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int]:
    """Unit-integral B-spline on the knots ts / scale as integer polynomials over one denominator.

    ts are nondecreasing integers.  Returns (breakpoints, pieces, den): on
    the span [breakpoints[s], breakpoints[s+1]] / scale, B(x|t) is
    sum_p pieces[s][p] X^p / den in X = scale * x.  Cox-de Boor runs on
    integers; each level keeps one denominator per function, the lcm of
    its two terms' denominators.
    """
    _check_window(ts, k)
    bps = sorted(set(ts))
    spans = range(len(bps) - 1)
    # level 0: the indicator of each nonempty knot span; k + 1 coefficients per span
    cur = [([[int(bps[s] == ts[i] < ts[i + 1])] + [0] * k for s in spans], 1)
           for i in range(k + 1)]
    for j in range(1, k + 1):
        nxt = []
        for i in range(k + 1 - j):
            # (X - T_i)/d1 N_i + (T_(i+j+1) - X)/d2 N_(i+1); a zero width means N is zero
            terms = [(d, *f, c0, c1) for d, f, c0, c1 in
                     ((ts[i + j] - ts[i], cur[i], -ts[i], 1),
                      (ts[i + j + 1] - ts[i + 1], cur[i + 1], ts[i + j + 1], -1)) if d]
            den = lcm(*(d * fden for d, _, fden, _, _ in terms))
            row = [[0] * (k + 1) for _ in spans]
            for d, polys, fden, c0, c1 in terms:
                f = den // (d * fden)
                for out, poly in zip(row, polys):
                    for p, v in enumerate(poly[:k]):  # degree < j <= k
                        out[p] += c0 * f * v
                        out[p + 1] += c1 * f * v
            nxt.append((row, den))
        cur = nxt
    polys, den = cur[0]
    unit = (k + 1) * scale  # B = (k+1)/(t_last - t_0) N, and N is a polynomial in X = D x
    den *= ts[-1] - ts[0]
    g = gcd(den, *(unit * v for poly in polys for v in poly))
    return tuple(bps), tuple(tuple(unit * v // g for v in poly) for poly in polys), den // g


def unit_bspline_piecewise(knots, k: int) -> PiecewisePolynomial:
    """Exact piecewise-polynomial form of the unit-integral B-spline (`bspline_pieces`)."""
    ts, scale = _over_common_denominator(as_knots(knots))
    bps, pieces, den = bspline_pieces(ts, scale, k)
    return PiecewisePolynomial([Fraction(b, scale) for b in bps],
                               [RatPoly([Fraction(c * scale ** p, den) for p, c in enumerate(poly)])
                                for poly in pieces])


def bspline_moment_sums(knots, k: int, r: int) -> tuple[list[int], int]:
    """(h_0..h_r, D): moment m of B(s|t) is h_m / (D^m C(m+k+1, m)).

    The knots are scaled to integers over their common denominator D, so
    the sweep of the complete homogeneous sums h_m runs on integers.
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
    return h, den


def bspline_moments(knots, k: int, r: int) -> tuple[Fraction, ...]:
    """Moments 0..r of B(s|t), from one integer sweep of h_0..h_r."""
    h, den = bspline_moment_sums(knots, k, r)
    return tuple(Fraction(h[m], den ** m * comb(m + k + 1, m)) for m in range(r + 1))


def bspline_moment(knots, k: int, m: int) -> Fraction:
    """Exact moment: integral of B(s|t) s^m ds = h_m(t) / C(m+k+1, m)."""
    return bspline_moments(knots, k, m)[m]


def bernstein_poly(d: int, ell: int) -> RatPoly:
    """Bernstein basis polynomial C(d,ell) u^ell (1-u)^(d-ell) on [0,1]."""
    if not 0 <= ell <= d:
        raise ValueError("basis index out of range")
    c = comb(d, ell)
    coeffs = [Fraction(0)] * ell + [Fraction(c * comb(d - ell, i) * (-1) ** i)
                                    for i in range(d - ell + 1)]
    return RatPoly(coeffs)
