import random
from fractions import Fraction as F
from math import comb, inf, nextafter

import pytest

from siacpost.exact import RatPoly
from siacpost.spline import (DegenerateSupportError, bernstein_poly, bspline_evaluator,
                             bspline_moment, bspline_moments, unit_bspline_piecewise)

from oracles import (bspline_piecewise_reference, eval_unit_bspline, kernel_windows,
                     moment_reference, piecewise_value)


def bernstein_basis(d: int, i: int, ell: int, x, h=1):
    """Value of the element Bernstein function on [i*h, (i+1)*h], else 0.

    Normalized so the scaling relation phi(h*x | h*s) = phi(x | s) holds;
    the integral over its element is h/(d+1).
    """
    lo = i * h
    hi = (i + 1) * h
    if x < lo or x > hi:
        return 0
    u = (x - lo) / h
    return comb(d, ell) * u ** ell * (1 - u) ** (d - ell)


def test_eval_examples():
    assert bspline_evaluator([0, 1], 0)(0.5) == 1
    assert bspline_evaluator([-1, 0, 1], 1)(0) == 1          # unit-integral hat apex
    assert bspline_evaluator([0, 0, 1], 1)(0.25) == 1.5      # 2*(1 - 0.25)
    assert bspline_evaluator([0, 0, 1], 1)(F(1, 4)) == F(3, 2)


def test_eval_boundary_conventions():
    # right-continuous at interior knots, left limit at the right end
    assert bspline_evaluator([0, 1], 0)(0) == 1
    assert bspline_evaluator([0, 1], 0)(1) == 1
    assert bspline_evaluator([0, 1, 1], 1)(1) == 2  # 2x at the stacked end
    assert bspline_evaluator([0, 1, 1], 1)(1.0) == 2
    assert bspline_evaluator([0, 0, 1], 1)(1) == 0
    assert bspline_evaluator([0, 1], 0)(1.5) == 0
    assert bspline_evaluator([0, 1], 0)(F(-1, 10 ** 30)) == 0
    assert bspline_evaluator([0, 1], 0)(1 + 2.0 ** -52) == 0
    for x in (float("inf"), float("-inf"), float("nan")):
        assert bspline_evaluator([0, 1, 2], 1)(x) == 0


def test_degenerate_support():
    with pytest.raises(DegenerateSupportError):
        bspline_evaluator([2, 2], 0)
    with pytest.raises(DegenerateSupportError):
        unit_bspline_piecewise([1, 1, 1], 1)


def test_piecewise_examples():
    box = unit_bspline_piecewise([0, 1], 0)
    assert len(box.pieces) == 1 and box.pieces[0] == RatPoly([1])

    hat = unit_bspline_piecewise([-1, 0, 1], 1)
    assert hat.pieces[0] == RatPoly([1, 1])   # 1 + x on [-1, 0]
    assert hat.pieces[1] == RatPoly([1, -1])  # 1 - x on [0, 1]

    quad = unit_bspline_piecewise([0, 1, 2, 3], 2)
    assert len(quad.pieces) == 3
    assert all(p.degree == 2 for p in quad.pieces)
    assert quad.integrate_against(RatPoly([1]), 0, 3) == 1


def test_piecewise_matches_pointwise():
    rng = random.Random(11)
    for knots, k in (((-2, -1), 0), ((-1, 0, 1), 1), ((0, 1, 2, 3), 2),
                     ((0, 0, 1, 2), 2), ((F(-5, 2), F(-3, 2), F(-1, 2)), 1),
                     ((0, 0, 0, 0, 1), 3)):
        pp = unit_bspline_piecewise(knots, k)
        ref = bspline_piecewise_reference(knots, k)
        assert (pp.breakpoints, pp.pieces) == (ref.breakpoints, ref.pieces)
        lo, hi = float(pp.breakpoints[0]), float(pp.breakpoints[-1])
        for _ in range(100):
            x = lo + (hi - lo) * rng.random()
            assert abs(float(piecewise_value(pp, x)) - eval_unit_bspline(knots, k, x)) < 1e-13


def test_evaluator_is_correctly_rounded_on_every_kernel_window():
    """At a float x the value is the exact B(x) rounded once, and at a rational x
    it is exact: 200 random points per window, each knot's float and its two
    float neighbours, and the knots and span midpoints themselves."""
    rng = random.Random(5)
    for w, k in kernel_windows():
        value = bspline_evaluator(w, k)
        lo, hi = float(w[0]), float(w[-1])
        xs = [lo + (hi - lo) * rng.random() for _ in range(200)]
        xs += [y for t in map(float, w) for y in (nextafter(t, -inf), t, nextafter(t, inf))]
        for x in xs:
            assert value(x) == float(eval_unit_bspline(w, k, F(x))), (w, k, x)
        for x in set(w) | {(a + b) / 2 for a, b in zip(w, w[1:])}:
            assert value(x) == eval_unit_bspline(w, k, x), (w, k, x)


def test_moment_examples():
    assert bspline_moment([2, 5], 0, 0) == 1
    assert bspline_moment([-1, 0, 1], 1, 1) == 0
    assert bspline_moment([-1, 0, 1], 1, 2) == F(1, 6)


def test_moment_against_piecewise_integration():
    for knots, k in (((-2, -1), 0), ((-1, 0, 1), 1), ((0, 1, 2, 3), 2),
                     ((F(1, 2), 1, 2, 2, 2), 3)):
        pp = unit_bspline_piecewise(knots, k)
        for m in range(5 * k + 3):
            mono = RatPoly([0] * m + [1])
            assert bspline_moment(knots, k, m) == pp.integrate_against(mono, knots[0], knots[-1])


def test_moment_translation_covariance():
    knots = (F(-3, 2), 0, 1, 3)
    c = F(7, 3)
    shifted = tuple(t + c for t in knots)
    assert bspline_moment(shifted, 2, 1) == bspline_moment(knots, 2, 1) + c


def test_partition_of_unity_clamped():
    # normalized (recursive) B-splines over a clamped knot vector sum to 1
    k = 2
    knots = (0, 0, 0, 1, 2, 3, 3, 3)
    for x in (0.0, 0.3, 1.0, 1.7, 2.2, 2.9):
        total = 0.0
        for i in range(len(knots) - k - 1):
            w = knots[i:i + k + 2]
            if w[-1] == w[0]:
                continue
            total += (w[-1] - w[0]) / (k + 1) * bspline_evaluator(w, k)(x)
        assert abs(total - 1.0) < 1e-13


def test_unit_integral_invariant():
    for knots, k in (((-1, 0, 1), 1), ((0, 1, 2, 3), 2), ((0, 0, 0, 1), 2)):
        assert bspline_moment(knots, k, 0) == 1
        assert unit_bspline_piecewise(knots, k).integrate_against(RatPoly([1]), knots[0],
                                                                  knots[-1]) == 1


def test_bernstein_values():
    assert bernstein_basis(1, 0, 0, 0.0) == 1
    assert bernstein_basis(2, 0, 1, 0.5) == 0.5
    assert bernstein_basis(2, 3, 1, 0.5) == 0  # outside element 3


def test_bernstein_integral_and_scaling():
    # integral over the element is h/(d+1)
    for d in (1, 2, 3):
        for ell in range(d + 1):
            p = bernstein_poly(d, ell)
            assert p.integral(0, 1) == F(1, d + 1)
    # scaling relation: value depends on the local coordinate only
    assert bernstein_basis(2, 1, 1, 0.3, h=0.2) == pytest.approx(
        bernstein_basis(2, 1, 1, 1.5, h=1.0), abs=1e-15)


def test_bernstein_poly_matches_basis():
    for d in (1, 2, 3):
        for ell in range(d + 1):
            p = bernstein_poly(d, ell)
            for u in (0.0, 0.25, 0.7, 1.0):
                direct = comb(d, ell) * u ** ell * (1 - u) ** (d - ell)
                assert abs(float(p(u)) - direct) < 1e-14


def test_bspline_moments_match_single_moment():
    """The one-sweep moments 0..r equal r+1 single moments, each summed on its own."""
    rng = random.Random(11)
    for _ in range(40):
        k = rng.randint(0, 4)
        den = rng.randint(1, 6)
        knots = sorted(F(rng.randint(-20, 20), den) for _ in range(k + 2))
        if knots[0] == knots[-1]:
            continue
        r = rng.randint(0, 9)
        assert bspline_moments(knots, k, r) == tuple(moment_reference(knots, k, m)
                                                     for m in range(r + 1))
        assert bspline_moment(knots, k, r) == moment_reference(knots, k, r)
    with pytest.raises(ValueError):
        bspline_moments([0, 1], 0, -1)
