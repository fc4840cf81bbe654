import random
from fractions import Fraction as F
from math import comb

import pytest

from siacpost import filters
from siacpost.exact import RatMatrix, RatPoly
from siacpost.filters import (FilterSpec, SingularReproductionError,
                              UnsupportedFamilySideError, build_spec, custom_spec,
                              reproduction_matrix, shifted_coefficient_polynomials,
                              static_coefficients)
from siacpost.spline import bspline_moment, unit_bspline_piecewise

from oracles import complete_homogeneous, matrix_rows

EX27 = custom_spec([-2, -1, 0], 0, (0, 1))


def _uniform_degree(spec: FilterSpec) -> int | None:
    """The kernel degree shared by every spline, or None for mixed degrees."""
    ks = set(spec.degrees)
    return ks.pop() if len(ks) == 1 else None


def power_reproduction_matrix(spec: FilterSpec) -> RatMatrix:
    """Power-sum form: M[delta][j] = sum over |omega| = delta of window^omega.

    Only defined for uniform per-spline degree; equals the moment form
    scaled row-wise by C(delta + k + 1, delta).
    """
    k = _uniform_degree(spec)
    if k is None:
        raise ValueError("power-sum form needs a uniform kernel degree")
    return RatMatrix.from_rows([
        [complete_homogeneous(w, delta) for w in spec.windows]
        for delta in range(spec.r + 1)
    ])


def np0_reproduction_matrix(spec: FilterSpec) -> RatMatrix:
    """Closed geometric form for k = 0: (t1^{d+1} - t0^{d+1})/(t1 - t0)."""
    if _uniform_degree(spec) != 0:
        raise ValueError("closed form applies to piecewise-constant kernels only")
    rows = []
    for delta in range(spec.r + 1):
        rows.append([(w[1] ** (delta + 1) - w[0] ** (delta + 1)) / (w[1] - w[0])
                     for w in spec.windows])
    return RatMatrix.from_rows(rows)

ALL_SPECS = [build_spec("symmetric", d) for d in (1, 2, 3)] + [
    build_spec(fam, d, side)
    for fam in ("rs", "srv", "rlkv", "np0")
    for d in (1, 2, 3)
    for side in ("left", "right")
] + [build_spec("npk", d, side, k=1) for d in (1, 2) for side in ("left", "right")]


def test_build_symmetric_d1():
    s = build_spec("symmetric", 1)
    assert s.r == 2 and s.mu == 2
    assert s.knots == tuple(F(t) for t in (-2, -1, 0, 1, 2))


def test_build_np0_d3_left():
    s = build_spec("np0", 3, "left")
    assert s.degrees == (0,) * 10 and s.r == 9
    assert s.knots == tuple(F(t) for t in range(-5, 6))
    assert len(s.windows) == 10 and s.lam == 5


def test_build_np0_d2_half_integer_knots():
    s = build_spec("np0", 2, "left")
    assert s.mu == F(7, 2)
    assert s.knots == tuple(F(2 * t - 7, 2) for t in range(8))
    assert len(s.windows) == 7


def test_build_rlkv_structure():
    s = build_spec("rlkv", 2, "left")
    assert s.r == 2 * 2 + 1
    assert len(s.windows) == 6
    assert s.degrees == (2, 2, 2, 2, 2, 5)
    # extra spline stacked against the +mu end
    assert s.windows[-1] == (s.mu - 1,) + (s.mu,) * 6
    r = build_spec("rlkv", 2, "right")
    assert r.windows[-1] == (-r.mu,) * 6 + (-r.mu + 1,)


def test_build_npk_reduces_to_np0():
    a = build_spec("npk", 2, "left", k=0)
    b = build_spec("np0", 2, "left")
    assert a.windows == b.windows and a.r == b.r


def test_build_spec_validation():
    with pytest.raises(UnsupportedFamilySideError):
        build_spec("symmetric", 1, "left")
    with pytest.raises(UnsupportedFamilySideError):
        build_spec("np0", 2, "interior")
    with pytest.raises(UnsupportedFamilySideError):
        build_spec("nonsense", 1, "left")
    with pytest.raises(ValueError):
        build_spec("np0", 0, "left")
    with pytest.raises(ValueError):
        build_spec("npk", 1, "left")  # k missing


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.family}-d{s.d}-{s.side}")
def test_spec_invariants(spec):
    assert len(spec.windows) == spec.r + 1
    for w in spec.windows:
        assert w[-1] > w[0]
    if spec.family in ("symmetric", "rs", "srv", "np0"):
        assert all(a + b == 0 for a, b in zip(spec.knots, reversed(spec.knots)))


def test_reproduction_matrix_ex27():
    m = reproduction_matrix(EX27)
    assert matrix_rows(m) == [[F(1), F(1)], [F(-3, 2), F(-1, 2)]]


def test_power_matrix_symmetric_d1():
    m = power_reproduction_matrix(build_spec("symmetric", 1))
    assert matrix_rows(m) == [[1, 1, 1], [-3, 0, 3], [7, 1, 7]]


def test_np0_closed_form_d1():
    s = build_spec("np0", 1, "left")
    m = np0_reproduction_matrix(s)
    assert matrix_rows(m) == [[1, 1, 1, 1], [-3, -1, 1, 3], [7, 1, 1, 7], [-15, -1, 1, 15]]
    assert m == power_reproduction_matrix(s)


@pytest.mark.parametrize("spec", [s for s in ALL_SPECS if _uniform_degree(s) is not None],
                         ids=lambda s: f"{s.family}-d{s.d}-{s.side}")
def test_moment_vs_power_paths(spec):
    """Moment form equals power-sum form after row rescaling by C(m+k+1, m)."""
    k = _uniform_degree(spec)
    mom = reproduction_matrix(spec)
    pw = power_reproduction_matrix(spec)
    for m in range(spec.r + 1):
        scale = comb(m + k + 1, m)
        assert [scale * e for e in mom.row(m)] == pw.row(m)


def test_static_examples():
    assert static_coefficients(build_spec("symmetric", 1)) == (F(-1, 12), F(7, 6), F(-1, 12))
    assert static_coefficients(build_spec("np0", 1, "left")) == \
        (F(-1, 12), F(7, 12), F(7, 12), F(-1, 12))
    assert static_coefficients(EX27) == (F(-1, 2), F(3, 2))


def test_shifted_polys_ex27():
    cp = shifted_coefficient_polynomials(EX27)
    assert cp.poly(0) == RatPoly([F(-1, 2), 1])   # (2 xi - 1)/2
    assert cp.poly(1) == RatPoly([F(3, 2), -1])   # (3 - 2 xi)/2


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.family}-d{s.d}-{s.side}")
def test_shifted_polys_at_zero_match_static(spec):
    cp = shifted_coefficient_polynomials(spec)
    assert tuple(cp.evaluate(F(0))) == static_coefficients(spec)
    # column m=0 of the coefficient matrix is the static vector
    assert tuple(row[0] for row in matrix_rows(cp.exact)) == static_coefficients(spec)


@pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s.d <= 2],
                         ids=lambda s: f"{s.family}-d{s.d}-{s.side}")
def test_shift_equivariance_via_moments(spec):
    """c(xi) are the moment-matched coefficients of the kernel over t + xi."""
    rng = random.Random(hash((spec.family, spec.d, spec.side)) & 0xFFFF)
    cp = shifted_coefficient_polynomials(spec)
    for _ in range(20):
        xi = F(rng.randint(-12, 12), rng.randint(1, 8))
        c = cp.evaluate(xi)
        for m in range(spec.r + 1):
            total = sum(cj * bspline_moment([t + xi for t in w], k, m)
                        for cj, w, k in zip(c, spec.windows, spec.degrees))
            assert total == (1 if m == 0 else 0)


def test_shift_equivariance_explicit_spec():
    """static_coefficients of an explicitly shifted spec equals c(xi)."""
    rng = random.Random(99)
    base = build_spec("np0", 2, "left")
    cp = shifted_coefficient_polynomials(base)
    for _ in range(20):
        xi = F(rng.randint(-9, 9), rng.randint(1, 6))
        shifted = custom_spec([t + xi for t in base.knots], 0, range(base.r + 1))
        assert static_coefficients(shifted) == tuple(cp.evaluate(xi))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.family}-d{s.d}-{s.side}")
def test_reproduction_identity(spec):
    """Convolving the kernel with (x-s)^delta returns x^delta exactly.

    Independent oracle: spline moments via exact piecewise integration
    rather than the closed form that built the matrix.
    """
    c = static_coefficients(spec)
    pps = [unit_bspline_piecewise(w, k) for w, k in zip(spec.windows, spec.degrees)]
    kernel_moments = [sum(cj * pp.integrate_against(RatPoly([0] * m + [1]), pp.breakpoints[0],
                                                  pp.breakpoints[-1]) for cj, pp in zip(c, pps))
                      for m in range(spec.r + 1)]
    for delta in range(spec.r + 1):
        # integral of K(s) (x-s)^delta ds expanded in powers of x
        coeffs = [F(0)] * (delta + 1)
        for m in range(delta + 1):
            coeffs[delta - m] += comb(delta, m) * (-1) ** m * kernel_moments[m]
        target = [F(0)] * (delta + 1)
        target[delta] = F(1)
        assert coeffs == target


def test_symmetric_coefficients_palindromic():
    for d in (1, 2, 3):
        c = static_coefficients(build_spec("symmetric", d))
        assert c == tuple(reversed(c))


def test_spec_needs_one_degree_per_window():
    """r is len(windows) - 1, so a degree list of another length is refused, not zipped short."""
    with pytest.raises(ValueError, match="one degree per window"):
        filters.FilterSpec(family="custom", d=1, side="left", degrees=(0,),
                           windows=((F(0), F(1)), (F(1), F(2))),
                           knots=(F(0), F(1), F(2)), mu=F(1), lam=F(2))


def test_singular_reproduction_detected():
    # two k=0 windows with the same mean make the 2x2 moment matrix singular
    bad = filters.FilterSpec(
        family="custom", d=1, side="left", degrees=(0, 0),
        windows=((F(0), F(2)), (F(1, 2), F(3, 2))),
        knots=(F(0), F(1, 2), F(3, 2), F(2)), mu=F(1), lam=F(2))
    with pytest.raises(SingularReproductionError):
        reproduction_matrix(bad)
    # the builders eliminate M themselves and must map the singular case too
    with pytest.raises(SingularReproductionError):
        shifted_coefficient_polynomials(bad)
    with pytest.raises(SingularReproductionError):
        static_coefficients(bad)
