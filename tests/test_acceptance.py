"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The rate study (criterion 4) samples a short final-time series
0.3, 0.65, 1.0 of the T-grid behind the reference rate figures; the
RLKV sub-criterion is asserted at the generic times 0.3 and 0.65 because
at exactly T = 1 the advected sine vanishes at both domain ends and the
filter's suboptimal boundary term vanishes with it (measured rate there
is ~3; values are printed).  See notes in the repository history for the
full analysis.
"""

import math
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
import pytest

from siacpost import dg, psiac
from siacpost.exact import RatPoly
from siacpost.filters import (build_spec, custom_spec,
                              shifted_coefficient_polynomials)
from siacpost.harness import RunConfig, time_series_experiment

from oracles import compose_affine, legendre_coeffs_of_poly, np0_t_matrix, t_matrix


@contextmanager
def criterion(label: str, detail: str = ""):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL {detail}")
        raise
    print(f"ACCEPTANCE {label}: PASS {detail}")


# ---------------------------------------------------------------------------
# shared computations


@pytest.fixture(scope="module")
def rate_study():
    """TP1 rate experiment for d = 1, 2 (asserted) and d = 3 (reported)."""
    out = {}
    for d in (1, 2, 3):
        cfg = RunConfig(problem="tp1", d=d,
                        filters=("dg", "symmetric", "np0", "rlkv"),
                        mesh_sizes=(20, 40, 80, 160),
                        final_times=(0.3, 0.65, 1.0))
        out[d] = time_series_experiment(cfg)
    return out


@pytest.fixture(scope="module")
def tp1_field_d2():
    tp1 = dg.get_problem("tp1")
    return dg.dg_solve(tp1, dg.Mesh(0.0, 1.0, 20), 2, 0.5)


def rates_of(study, d, name, norm=None, region=None, finest_only=False, times=None):
    rates = study[d][1]
    out = []
    for r in rates:
        if r.filter != name:
            continue
        if norm and r.norm != norm:
            continue
        if region and r.region != region:
            continue
        if finest_only and r.n != 160:
            continue
        if times and r.t not in times:
            continue
        out.append(r)
    return out


# ---------------------------------------------------------------------------
# criterion 1: exact-example regressions


def test_criterion_1a_shifted_coefficients_exact():
    with criterion("1a", "- two-spline kernel coefficient polynomials"):
        spec = custom_spec([-2, -1, 0], 0, (0, 1))
        cp = shifted_coefficient_polynomials(spec)
        assert cp.poly(0) == RatPoly([F(-1, 2), F(1)])    # (2 xi - 1)/2
        assert cp.poly(1) == RatPoly([F(3, 2), F(-1)])    # (3 - 2 xi)/2


def test_criterion_1b_two_indicator_filtered_output():
    with criterion("1b", "- filtered step data is (3 - 2x)/2 on [0, 2], exact"):
        spec = custom_spec([-2, -1, 0], 0, (0, 1))
        qm = psiac.q_matrix(spec, 0)
        exact = qm.contract_exact([[F(1)], [F(0)]])
        assert exact == RatPoly([F(3, 2), F(-1)])
        coeffs = np.zeros((7, 1))
        coeffs[0, 0] = coeffs[3, 0] = 1.0
        field = dg.DGField(d=0, mesh=dg.Mesh(0.0, 7.0, 7), coeffs=coeffs)  # P_0 = 1
        poly = psiac.filter_boundary(field, spec)
        assert poly.region == (0.0, 2.0)
        xs = np.linspace(0.0, 2.0, 11)
        assert np.array_equal(poly(xs), (3 - 2 * xs) / 2)


def test_criterion_1c_np0_t_matrix():
    with criterion("1c", "- piecewise-constant filter T = I (x) ones/(d+1), d=1,2,3"):
        for d in (1, 2, 3):
            spec = build_spec("np0", d, "left")
            assert t_matrix(spec) == np0_t_matrix(d)


def test_criterion_1d_np0_endpoint_vector():
    with criterion("1d", "- d=3 endpoint vector central entries "
                         "(70381, 70381, -56627, -56627)/10080"):
        v = psiac.endpoint_vector(build_spec("np0", 3, "left"))
        assert len(v) == 40
        # natural element-major Bernstein ordering; no permutation needed
        assert v[18:22] == [F(70381, 10080), F(70381, 10080),
                            F(-56627, 10080), F(-56627, 10080)]
        assert all(10080 % e.denominator == 0 for e in v)


# ---------------------------------------------------------------------------
# criterion 2: reproduction through the full pipeline


def _reproduction_cases():
    for d in (1, 2, 3):
        yield build_spec("symmetric", d)
        for side in ("left", "right"):
            for fam in ("rs", "srv", "rlkv", "np0"):
                yield build_spec(fam, d, side)
            yield build_spec("npk", d, side, k=1)


def test_criterion_2_reproduction_suite():
    rng = np.random.default_rng(2)
    checked = 0
    with criterion("2", "- polynomial data of every degree <= r is reproduced "
                        "(exact rational path; <= 1e-11 float path)"):
        for spec in _reproduction_cases():
            n = int(spec.support_width) + 2
            h = F(1, n)
            qm = psiac.q_matrix(spec, spec.r)
            side = "right" if spec.side == "right" else "left"
            for delta in range(spec.r + 1):
                p = compose_affine(RatPoly([F(0)] * delta + [F(1)]), F(2), F(-1))
                rows = legendre_coeffs_of_poly(p, F(0), h, n, spec.r)
                if side == "left":
                    window, lam_g = rows[:qm.n_elements], spec.knots[-1]
                else:
                    window, lam_g = rows[-qm.n_elements:], F(n) + spec.knots[0]
                assert qm.contract_exact(window) == compose_affine(p, h, h * lam_g)
                checked += 1
            # float path at the top degree
            p = RatPoly([F(1), F(-2), F(1, 3)] + [F(0)] * (spec.r - 3) + [F(1, 2)]
                        if spec.r >= 3 else [F(1), F(1, 2)])
            rows = legendre_coeffs_of_poly(p, F(0), h, n, spec.r)
            field = dg.DGField(d=spec.r, mesh=dg.Mesh(0.0, 1.0, n),
                               coeffs=np.array([[float(c) for c in r] for r in rows]))
            if spec.family == "symmetric":
                mu = float(spec.mu) / n
                pf = [float(c) for c in p.coeffs]
                for x in np.linspace(mu, 1 - mu, 7):
                    want = sum(c * float(x) ** i for i, c in enumerate(pf))
                    got = psiac.symmetric_filter_eval(field, float(x),
                                                      filter_degree=spec.d)
                    assert abs(got - want) < 1e-11
            else:
                poly = psiac.filter_boundary(field, spec)
                xs = np.linspace(poly.region[0], poly.region[1], 9)
                pv = np.zeros_like(xs)
                for c in reversed([float(c) for c in p.coeffs]):
                    pv = pv * xs + c
                assert np.max(np.abs(poly(xs) - pv)) < 1e-11 * max(1.0, np.abs(pv).max())
        assert checked > 200


# ---------------------------------------------------------------------------
# criterion 3: polynomial-output property on solver data


def test_criterion_3_polynomial_output(tp1_field_d2):
    field = tp1_field_d2
    with criterion("3", "- convolution oracle matches the single boundary "
                        "polynomial to 1e-9 relative"):
        for fam in ("np0", "rlkv", "srv"):
            for side in ("left", "right"):
                spec = build_spec(fam, 2, side)
                poly = psiac.filter_boundary(field, spec)
                for x in np.linspace(poly.region[0], poly.region[1], 10):
                    kernel = psiac.psiac_kernel_at(spec, field.mesh, float(x))
                    ref = psiac.reference_convolve(kernel, field, float(x))
                    assert abs(ref - poly(float(x))) <= 1e-9 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# criterion 4: superconvergence rates


def test_criterion_4a_np0_superconvergence(rate_study):
    with criterion("4a", "- piecewise-constant filter boundary rates >= 2d+0.5 "
                         "for d=1,2"):
        for d in (1, 2):
            rs = rates_of(rate_study, d, "np0")
            assert len(rs) == 36
            for r in rs:
                assert r.value >= 2 * d + 0.5, (d, r)


def test_criterion_4b_symmetric_rates(rate_study):
    with criterion("4b", "- symmetric interior rates 2d+1 +/- 0.5 for d=1,2"):
        for d in (1, 2):
            rs = rates_of(rate_study, d, "symmetric", finest_only=True)
            assert len(rs) == 6
            for r in rs:
                assert abs(r.value - (2 * d + 1)) <= 0.5, (d, r)


def test_criterion_4c_rlkv_rate(rate_study):
    detail = ("- boundary-stacked filter max-norm rate 2 +/- 0.5 (d=1) at the "
              "generic final times; the T=1 rates are printed, not asserted "
              "(the suboptimal term vanishes there with sin(2 pi T))")
    with criterion("4c", detail):
        generic = rates_of(rate_study, 1, "rlkv", norm="Linf", times=(0.3, 0.65))
        assert len(generic) == 12
        for r in generic:
            assert abs(r.value - 2.0) <= 0.5, r
        for r in rates_of(rate_study, 1, "rlkv", times=(1.0,), finest_only=True):
            print(f"    [report] rlkv d=1 {r.region} {r.norm} N={r.n} T=1: "
                  f"rate {r.value:.3f}")
        for r in rates_of(rate_study, 1, "rlkv", norm="L2", times=(0.3,),
                          finest_only=True):
            print(f"    [report] rlkv d=1 {r.region} L2 T=0.3: rate {r.value:.3f}")


def test_criterion_4d_dg_rates(rate_study):
    with criterion("4d", "- raw DG rates d+1 +/- 0.5 for d=1,2"):
        for d in (1, 2):
            for r in rates_of(rate_study, d, "dg"):
                assert abs(r.value - (d + 1)) <= 0.5, (d, r)


def test_criterion_4_report_d3(rate_study):
    with criterion("4(report)", "- d=3 rates reported, not asserted"):
        for r in rates_of(rate_study, 3, "np0", finest_only=True):
            print(f"    [report] np0 d=3 {r.region} {r.norm} T={r.t}: "
                  f"rate {r.value:.3f}")
        for r in rates_of(rate_study, 3, "symmetric", finest_only=True):
            print(f"    [report] symmetric d=3 {r.region} {r.norm} T={r.t}: "
                  f"rate {r.value:.3f}")


# ---------------------------------------------------------------------------
# criterion 5: error ordering at N = 80


def test_criterion_5_error_ordering(rate_study):
    with criterion("5", "- at T=1, N=80: np0 max boundary error <= 2x symmetric "
                        "interior and <= rlkv boundary (d=1,2)"):
        for d in (1, 2):
            errs = {(r.filter, r.region): r.value for r in rate_study[d][0]
                    if r.n == 80 and r.t == 1.0 and r.norm == "Linf"}
            np0 = max(errs[("np0", "left")], errs[("np0", "right")])
            rlkv = max(errs[("rlkv", "left")], errs[("rlkv", "right")])
            sym = errs[("symmetric", "interior")]
            assert np0 <= 2.0 * sym, (d, np0, sym)
            assert np0 <= rlkv, (d, np0, rlkv)


# ---------------------------------------------------------------------------
# criterion 6: published filtered-polynomial constant coefficient


def test_criterion_6_rlkv_constant_coefficient():
    with criterion("6", "- d=3, N=20, T=1 boundary polynomial a0 matches the "
                        "published 0.999999901... to 1e-5"):
        tp1 = dg.get_problem("tp1")
        field = dg.dg_solve(tp1, dg.Mesh(0.0, 1.0, 20), 3, 1.0)
        poly = psiac.filter_boundary(field, build_spec("rlkv", 3, "left"))
        a = poly.physical_coefficients()[0]  # its one piece
        assert abs(a[0] - 0.999999901374753) < 1e-5
        # even-order coefficients are solution-dominated; spot-check loosely
        assert abs(a[2] - (-19.738996791744032)) < 1e-2
        assert abs(a[4] - 64.88630724285224) < 1.0


# ---------------------------------------------------------------------------
# criterion 7: explicit derivative vs finite differences


def test_criterion_7_derivative(tp1_field_d2):
    with criterion("7", "- analytic derivative of the filtered polynomial "
                        "matches central differences to 1e-6 relative"):
        for fam in ("np0", "rlkv"):
            spec = build_spec(fam, 2, "left")
            poly = psiac.filter_boundary(tp1_field_d2, spec)
            dpoly = poly.derivative(1)
            d2poly = dpoly.derivative(1)
            delta = 1e-5
            for x in np.linspace(0.02, poly.region[1] - 0.02, 8):
                fd1 = (poly(x + delta) - poly(x - delta)) / (2 * delta)
                assert abs(dpoly(x) - fd1) <= 1e-6 * max(1.0, abs(fd1))
                fd2 = (poly(x + delta) - 2 * poly(x) + poly(x - delta)) / delta ** 2
                assert abs(d2poly(x) - fd2) <= 1e-5 * max(1.0, abs(fd2))


# ---------------------------------------------------------------------------
# criterion 8: blending Hermite property


def test_criterion_8_blend_hermite():
    with criterion("8", "- blended evaluator matches each side in value and "
                        "first rho derivatives at the overlap ends"):
        tp1 = dg.get_problem("tp1")
        field = dg.dg_solve(tp1, dg.Mesh(0.0, 1.0, 80), 2, 0.5)
        spec = build_spec("np0", 2, "left")
        poly = psiac.filter_boundary(field, spec)
        h = field.mesh.h
        a1 = float(spec.lam) * h
        a2 = a1 + 2 * h
        rho = 2
        interior = psiac.filter_interior(field)
        blended = lambda x: poly(x, ([interior], [(a1, a2)], rho))

        def centered_fd(fn, x0, order, delta):
            return sum((-1) ** (order - i) * math.comb(order, i)
                       * fn(x0 + (i - order / 2) * delta)
                       for i in range(order + 1)) / delta ** order

        delta = 1e-4
        for x0, side_fn in ((a1, poly), (a2, interior)):
            for order in range(rho + 1):
                got = centered_fd(blended, x0, order, delta)
                want = centered_fd(side_fn, x0, order, delta)
                assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), (x0, order)
