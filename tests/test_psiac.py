import random
from fractions import Fraction as F

import numpy as np
import pytest

from siacpost import dg, filters, psiac
from siacpost.exact import RatPoly
from siacpost.filters import build_spec, custom_spec
from siacpost.psiac import (MeshTooCoarseError, OutsideInteriorRegionError,
                            blend_transition, blend_weight, endpoint_vector,
                            filter_boundary, filter_boundary_derivative,
                            np0_t_matrix, q_matrix, reference_convolve,
                            symmetric_filter_eval, t_matrix)
from siacpost.spline import eval_unit_bspline

EX27 = custom_spec([-2, -1, 0], 0, (0, 1))


def two_indicator_field():
    """Ex-style data: indicator of [0,1] plus indicator of [3,4] on [0,7]."""
    coeffs = np.zeros((7, 1))
    coeffs[0, 0] = 1.0
    coeffs[3, 0] = 1.0
    return dg.DGField(d=0, mesh=dg.Mesh(0.0, 7.0, 7), coeffs=coeffs, basis="bernstein")


# ---------------------------------------------------------------------------
# T and Q matrices


@pytest.mark.parametrize("d", (1, 2, 3))
def test_np0_t_matrix_closed_form(d):
    spec = build_spec("np0", d, "left")
    assert t_matrix(spec) == np0_t_matrix(d)


def test_np0_d1_t_shape_and_entries():
    spec = build_spec("np0", 1, "left")
    t = t_matrix(spec)
    assert (t.rows, t.cols) == (8, 4)
    for j in range(4):
        col = t.col(j)
        assert sorted(col, reverse=True)[:2] == [F(1, 2), F(1, 2)]
        assert sum(1 for e in col if e != 0) == 2


@pytest.mark.parametrize("spec", [
    build_spec("symmetric", 1), build_spec("np0", 2, "left"),
    build_spec("rlkv", 1, "right"), build_spec("srv", 1, "left"),
    build_spec("npk", 1, "left", k=2),
], ids=lambda s: f"{s.family}-d{s.d}-{s.side}")
def test_t_column_sums_are_one(spec):
    """Each spline integrates the Bernstein partition of unity to 1."""
    t = t_matrix(spec)
    for j in range(t.cols):
        assert sum(t.col(j)) == 1


@pytest.mark.parametrize("spec", [
    build_spec("np0", 1, "left"), build_spec("rlkv", 2, "left"),
    build_spec("srv", 1, "right"), build_spec("symmetric", 2),
], ids=lambda s: f"{s.family}-d{s.d}-{s.side}")
def test_constant_data_reproduced(spec):
    qm = q_matrix(spec)
    ones = [[F(1)] * (spec.d + 1) for _ in range(qm.n_elements)]
    assert qm.contract_exact(ones) == RatPoly([1])


CONTRACT_SPECS = [build_spec(fam, d, side, k=1 if fam == "npk" else None)
                  for fam in ("srv", "rlkv", "np0", "rs", "npk")
                  for d in (1, 2, 3, 4) for side in ("left", "right")] + \
    [build_spec("symmetric", d) for d in (1, 2, 3, 4)]


@pytest.mark.parametrize("spec", CONTRACT_SPECS,
                         ids=lambda s: f"{s.family}-d{s.d}-{s.side}")
def test_contract_is_exact_contraction_rounded(spec):
    """The integer contraction rounds exactly like the Fraction one, bit for bit."""
    qm = q_matrix(spec)
    rng = np.random.default_rng(spec.r * 10 + spec.d)
    shape = (qm.n_elements, spec.d + 1)
    random_window = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    sparse = random_window.copy()
    sparse[rng.random(shape) < 0.5] = 0.0
    windows = [random_window, np.zeros(shape), -np.abs(random_window), sparse,
               random_window * 1e-200, np.where(sparse != 0, sparse * 1e-200, 3.0)]
    for window in windows:
        got = qm.contract(window)
        lifted = [[F(v) for v in row] for row in window]
        exact = qm.contract_exact(lifted).to_float()
        want = np.zeros(qm.q.cols)
        want[:len(exact)] = exact
        assert got.tobytes() == want.tobytes()


def test_contract_rejects_wrong_window():
    qm = q_matrix(build_spec("np0", 1, "left"))
    with pytest.raises(ValueError):
        qm.contract(np.ones((qm.n_elements - 1, 2)))


# ---------------------------------------------------------------------------
# boundary filtering


def test_ex210_filtered_polynomial():
    poly = filter_boundary(two_indicator_field(), EX27)
    assert poly.region == (0.0, 2.0)
    xs = np.linspace(0.0, 2.0, 9)
    assert np.allclose(poly(xs), (3 - 2 * xs) / 2, atol=1e-15)
    exact = q_matrix(EX27, 0).contract_exact([[F(1)], [F(0)]])
    assert exact == RatPoly([F(3, 2), -1])


def test_ex210_derivatives():
    field = two_indicator_field()
    d1 = filter_boundary_derivative(field, EX27, order=1)
    xs = np.linspace(0.0, 2.0, 5)
    assert np.allclose(d1(xs), -1.0, atol=1e-15)
    d2 = filter_boundary_derivative(field, EX27, order=0)
    assert np.allclose(d2(xs), (3 - 2 * xs) / 2, atol=1e-15)
    dd = filter_boundary_derivative(field, EX27, order=EX27.r)
    assert np.allclose(dd(xs), -1.0, atol=1e-15)  # r = 1 here


def exact_poly_field(p: RatPoly, n: int, d: int):
    rows = dg.bernstein_coeffs_of_poly(p, F(0), F(1, n), n, d)
    coeffs = np.array([[float(c) for c in row] for row in rows])
    return rows, dg.DGField(d=d, mesh=dg.Mesh(0.0, 1.0, n), coeffs=coeffs,
                            basis="bernstein")


@pytest.mark.parametrize("spec", [
    build_spec("np0", 1, "left"), build_spec("np0", 2, "right"),
    build_spec("rlkv", 1, "left"), build_spec("rlkv", 2, "right"),
    build_spec("srv", 1, "left"), build_spec("rs", 2, "right"),
], ids=lambda s: f"{s.family}-d{s.d}-{s.side}")
def test_pipeline_reproduction(spec):
    """Global polynomials of degree <= r pass through filter_boundary unchanged."""
    rng = random.Random(spec.r)
    n = 2 * int(spec.support_width) + 3
    h = F(1, n)
    p = RatPoly([F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(spec.r + 1)])
    rows, field = exact_poly_field(p, n, spec.r)
    qm = q_matrix(spec, spec.r)
    if spec.side == "left":
        window, lam_g = rows[:qm.n_elements], spec.knots[-1]
    else:
        window, lam_g = rows[-qm.n_elements:], F(n) + spec.knots[0]
    got = qm.contract_exact(window)
    assert got == p.compose_affine(h, h * lam_g)
    # float path
    poly = filter_boundary(field, spec)
    xs = np.linspace(poly.region[0], poly.region[1], 25)
    pv = np.zeros_like(xs)
    for c in reversed([float(c) for c in p.coeffs]):
        pv = pv * xs + c
    assert np.max(np.abs(poly(xs) - pv)) < 1e-11 * max(1.0, np.abs(pv).max())


def test_mesh_too_coarse():
    field = dg.l2_project(lambda x: np.sin(x), dg.Mesh(0.0, 1.0, 4), 2)
    with pytest.raises(MeshTooCoarseError):
        filter_boundary(field, build_spec("np0", 2, "left"))


def test_mirror_symmetry():
    """Filtering mirrored data with the opposite-side filter mirrors the output."""
    rng = np.random.default_rng(7)
    mesh = dg.Mesh(0.0, 1.0, 12)
    coeffs = rng.standard_normal((12, 3))
    fld = dg.DGField(d=2, mesh=mesh, coeffs=coeffs, basis="bernstein")
    mirrored = dg.DGField(d=2, mesh=mesh, coeffs=coeffs[::-1, ::-1].copy(),
                          basis="bernstein")
    for fam in ("np0", "rlkv"):
        pl = filter_boundary(fld, build_spec(fam, 2, "left"))
        pr = filter_boundary(mirrored, build_spec(fam, 2, "right"))
        for y in np.linspace(0.0, pl.region[1], 9):
            assert pl(y) == pytest.approx(pr(1.0 - y), abs=1e-12)
        # coefficient sign rule for plain mirroring: a_k -> (-1)^k a_k
        al, ar = pl.physical_coefficients(), pr.physical_coefficients()
        signs = np.array([(-1.0) ** k for k in range(len(al))])
        assert np.allclose(ar, signs * al, atol=1e-9 * np.abs(al).max())


def test_filter_boundary_side_override():
    rng = np.random.default_rng(3)
    mesh = dg.Mesh(0.0, 1.0, 10)
    fld = dg.DGField(d=1, mesh=mesh, coeffs=rng.standard_normal((10, 2)),
                     basis="bernstein")
    left_spec = build_spec("np0", 1, "left")
    via_override = filter_boundary(fld, left_spec, side="right")
    direct = filter_boundary(fld, build_spec("np0", 1, "right"))
    assert via_override.side == "right"
    xs = np.linspace(direct.region[0], direct.region[1], 5)
    assert np.allclose(via_override(xs), direct(xs), atol=1e-14)


def test_psiac_kernel_anchor():
    spec = build_spec("np0", 1, "left")
    mesh = dg.Mesh(0.0, 1.0, 10)
    kernel = psiac.psiac_kernel_at(spec, mesh, 0.05)
    # at sigma = 1/2 the prototype knots -2..2 shift by 1/2 - lam = -3/2
    assert kernel.breakpoints == pytest.approx([0.1 * (t - 1.5) for t in range(-2, 3)])


def test_endpoint_vector_np0_d3():
    spec = build_spec("np0", 3, "left")
    v = endpoint_vector(spec)
    assert len(v) == 40
    assert v[18:22] == [F(70381, 10080), F(70381, 10080),
                        F(-56627, 10080), F(-56627, 10080)]
    assert all(10080 % x.denominator == 0 for x in v)


def test_endpoint_vector_srv_magnitude():
    srv = max(abs(x) for x in endpoint_vector(build_spec("srv", 3, "left")))
    np0 = max(abs(x) for x in endpoint_vector(build_spec("np0", 3, "left")))
    assert srv / np0 > 50  # the two orders of magnitude gap


# ---------------------------------------------------------------------------
# interior filtering and the convolution oracle


def test_symmetric_reproduces_quadratic():
    mesh = dg.Mesh(0.0, 1.0, 20)
    field = dg.l2_project(lambda x: x ** 2, mesh, 2)
    for x in (0.2, 0.3511, 0.5, 0.77, 0.825):
        assert abs(symmetric_filter_eval(field, x) - x * x) < 1e-12


def test_symmetric_constant_field():
    mesh = dg.Mesh(0.0, 1.0, 16)
    field = dg.l2_project(lambda x: np.ones_like(x), mesh, 1)
    for x in (0.2, 0.5, 0.8):
        assert abs(symmetric_filter_eval(field, x) - 1.0) < 1e-13


@pytest.mark.parametrize("d", (1, 2, 3))
def test_symmetric_eval_local_batched_matches_scalar(d):
    tp2 = dg.get_problem("tp2")
    field = dg.to_bernstein(dg.dg_solve(tp2, dg.Mesh(tp2.a, tp2.b, 24), d, 0.3))
    mu = (3 * d + 1) // 2 + 1
    elements = np.arange(mu, 24 - mu)
    for frac in (F(0), F(1, 5), F(1, 2), 0.3, 0.9930446604745877):
        batched = psiac.symmetric_filter_eval_local(field, elements, frac)
        scalar = [psiac.symmetric_filter_eval_local(field, int(e), frac) for e in elements]
        assert all(isinstance(v, float) for v in scalar)
        assert batched.tolist() == scalar


def test_symmetric_eval_local_window_check():
    field = dg.to_bernstein(dg.l2_project(np.sin, dg.Mesh(0.0, 1.0, 16), 1))
    for elements in (-10, 0, 15, np.array([1, 8]), np.array([8, 15])):
        with pytest.raises(OutsideInteriorRegionError):
            psiac.symmetric_filter_eval_local(field, elements, 0.5)


def test_symmetric_outside_region_raises():
    field = dg.l2_project(lambda x: np.ones_like(x), dg.Mesh(0.0, 1.0, 16), 1)
    with pytest.raises(OutsideInteriorRegionError):
        symmetric_filter_eval(field, 0.05)


def test_interior_convolution_two_indicators():
    """Convolving the two-indicator data with 0.5*1_{[-1,1]} gives
    0.5 B(x|2:4) + 0.5 B(x|3:5) on [2,5]."""
    field = two_indicator_field()
    kernel = psiac.FloatKernel([-1.0, 0.0, 1.0],
                               lambda s: 0.5 if -1 <= s <= 1 else 0.0)
    for x in (2.0, 2.5, 3.0, 3.9, 4.5, 5.0):
        got = reference_convolve(kernel, field, x)
        want = 0.5 * float(eval_unit_bspline([2, 3, 4], 1, x)) + \
            0.5 * float(eval_unit_bspline([3, 4, 5], 1, x))
        assert abs(got - want) < 1e-12


def test_reference_convolve_trivial():
    field = dg.l2_project(lambda x: np.ones_like(x), dg.Mesh(0.0, 4.0, 8), 1)
    kernel = psiac.FloatKernel([-1.0, 1.0], lambda s: 0.5)
    assert abs(reference_convolve(kernel, field, 2.0) - 1.0) < 1e-14


def test_reference_convolve_window_check():
    field = dg.l2_project(lambda x: np.ones_like(x), dg.Mesh(0.0, 4.0, 8), 1)
    kernel = psiac.FloatKernel([-1.0, 1.0], lambda s: 0.5)
    with pytest.raises(psiac.WindowOutOfDomainError):
        reference_convolve(kernel, field, -0.5)


def test_reference_matches_symmetric_eval():
    mesh = dg.Mesh(0.0, 1.0, 20)
    field = dg.l2_project(lambda x: x ** 2 - 0.3 * x, mesh, 2)
    kernel = psiac.symmetric_kernel_at(2, mesh.h)
    for x in (0.3, 0.45, 0.62):
        ref = reference_convolve(kernel, field, x)
        assert abs(ref - symmetric_filter_eval(field, x)) < 1e-12


def test_polynomial_output_property():
    """Oracle samples in the boundary region lie on one degree-r polynomial."""
    tp1 = dg.get_problem("tp1")
    field = dg.dg_solve(tp1, dg.Mesh(0.0, 1.0, 20), 1, 0.25)
    spec = build_spec("np0", 1, "left")
    poly = filter_boundary(field, spec)
    for x in np.linspace(0.0, poly.region[1], 12):
        kernel = psiac.psiac_kernel_at(spec, field.mesh, float(x))
        ref = reference_convolve(kernel, field, float(x))
        assert abs(ref - poly(float(x))) < 1e-10 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# transition blending


def test_blend_weight_values():
    assert blend_weight(0.0, 1) == 0.0
    assert blend_weight(1.0, 1) == 1.0
    assert blend_weight(0.5, 1) == pytest.approx(0.5)  # cubic smoothstep
    assert blend_weight(0.5, 2) == pytest.approx(0.5)
    # symmetric Hermite runs: beta(z) + beta(1-z) = 1
    for rho in (1, 2, 3):
        for z in (0.1, 0.3, 0.7):
            assert blend_weight(z, rho) + blend_weight(1 - z, rho) == pytest.approx(1.0)


def test_blend_endpoints():
    left = lambda x: 2.0 + 0 * x

    def interior(x):
        raise AssertionError("interior side must not be touched at z = 0")

    blended = blend_transition(left, interior, (0.0, 1.0), rho=1)
    assert blended(0.0) == 2.0
    blended2 = blend_transition(left, lambda x: -1.0, (0.0, 1.0), rho=1)
    assert blended2(1.0) == -1.0
    assert blended2(0.5) == pytest.approx(0.5 * 2.0 + 0.5 * (-1.0))


def test_blend_empty_overlap():
    with pytest.raises(psiac.EmptyOverlapError):
        blend_transition(lambda x: x, lambda x: x, (1.0, 1.0), rho=1)


def test_blend_hermite_orders_exact():
    """beta has exactly vanishing derivatives of orders 1..rho at both ends."""
    from siacpost.spline import bernstein_poly
    for rho in (1, 2, 3):
        n = 2 * rho + 1
        beta = RatPoly([0])
        for i in range(rho + 1, n + 1):
            beta = beta + bernstein_poly(n, i)
        assert beta(F(0)) == 0 and beta(F(1)) == 1
        assert float(beta(F(1, 3))) == pytest.approx(blend_weight(1 / 3, rho), abs=1e-14)
        der = beta
        for _ in range(rho):
            der = der.derivative()
            assert der(F(0)) == 0 and der(F(1)) == 0
