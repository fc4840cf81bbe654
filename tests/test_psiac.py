import random
from dataclasses import replace
from fractions import Fraction as F
from math import ceil, comb, factorial, floor

import numpy as np
import pytest

from siacpost import dg, filters, psiac
from siacpost.exact import RatMatrix, RatPoly, _over_common_denominator
from siacpost.filters import build_spec, custom_spec
from siacpost.psiac import (MeshTooCoarseError, OutsideInteriorRegionError,
                            blend_transition, blend_weight, endpoint_vector,
                            filter_boundary, filter_boundary_derivative,
                            q_matrix, reference_convolve,
                            symmetric_filter_eval)
from siacpost.spline import eval_unit_bspline

import oracles
from oracles import np0_t_matrix, t_matrix

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
    """Both integer contractions match the Fraction reference: exactly, and
    rounded bit for bit."""
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
        reference = oracles.contract_reference(qm.q, lifted)
        assert qm.contract_exact(lifted) == reference
        exact = [float(c) for c in reference.coeffs]
        want = np.zeros(qm.q.cols)
        want[:len(exact)] = exact
        assert got.tobytes() == want.tobytes()
    rational = [[F(int(rng.integers(-9, 10)), int(rng.integers(1, 12))) for _ in row]
              for row in random_window]
    assert qm.contract_exact(rational) == oracles.contract_reference(qm.q, rational)


ORACLE_SPECS = (
    [build_spec(fam, d, side, k=1 if fam == "npk" else None)
     for fam in ("rs", "srv", "rlkv", "np0", "npk") for d in (1, 2, 3, 4)
     for side in ("left", "right")]
    + [build_spec("symmetric", d) for d in (1, 2, 3, 4)]
    + [build_spec("npk", d, side, k=k) for k in (0, 2) for d in (1, 2)
       for side in ("left", "right")]
    + [EX27,
       custom_spec([0, F(1, 2), F(3, 2), 2], 0, (0, 1, 2)),
       custom_spec([0, F(1, 2), F(3, 2), 2], 1, (0, 1), side="right"),
       custom_spec([0, F(1, 3), 1, F(7, 4), F(5, 2), 3], 1, (0, 1, 2, 3)),
       custom_spec([0, F(1, 3), 1, F(7, 4), F(5, 2), 3], 2, (0, 1, 2)),
       custom_spec([0, 0, F(1, 3), 1, F(5, 3), 3, 3], 2, (0, 1, 2, 3)),
       custom_spec([0, 0, F(1, 3), 1, F(5, 3), 3, 3], 2, (0, 1, 2, 3), side="right")])


@pytest.mark.parametrize("spec", ORACLE_SPECS,
                         ids=lambda s: f"{s.family}-d{s.d}-{s.side}-k{s.degrees[-1]}"
                                       f"-r{s.r}")
def test_assembly_matches_fraction_reference(spec):
    """Every exact operator equals its plain Fraction construction exactly.

    The reference builds M one moment at a time, inverts it by Fraction
    Gauss-Jordan, integrates T entry by entry and forms Q = T C in full.
    The custom specs have knots off the element grid, so spline pieces
    cover only part of an element.
    """
    coeff = oracles.coefficient_matrix_reference(spec)
    assert filters.shifted_coefficient_polynomials(spec).matrix == coeff
    assert filters.static_coefficients(spec) == tuple(coeff.col(0))
    for dg_degree in (spec.d,) if spec.d > 2 else (0, 1, 2):
        nat = oracles.t_matrix_natural_reference(spec, dg_degree)
        ncol = nat.cols
        assert t_matrix(spec, dg_degree) == RatMatrix.from_rows(
            [[row[ncol - 1 - j] for j in range(ncol)] for row in oracles.matrix_rows(nat)])
        q = oracles.matmul_reference(nat, coeff)
        assert q_matrix(spec, dg_degree).q == q
        xi = -spec.lam if spec.side != "right" else spec.lam
        powers = RatMatrix.column([xi ** m for m in range(q.cols)])
        assert endpoint_vector(spec, dg_degree) == oracles.matmul_reference(q, powers).col(0)


@pytest.mark.parametrize("spec", ORACLE_SPECS,
                         ids=lambda s: f"{s.family}-d{s.d}-{s.side}-k{s.degrees[-1]}"
                                       f"-r{s.r}")
def test_integer_assembly_matches_fraction_path(spec):
    """The integer operators equal the Fraction construction they replace.

    That construction: RatPoly B-spline pieces recentred per element
    against Fraction Bernstein moments for T, C by inverting the Fraction
    moment matrix, and RatMatrix products for Q and the endpoint vector.
    Q's integer columns are over the least common denominator of its
    entries.  DG degrees both equal to and other than the spec's are
    checked.
    """
    coeff = oracles.coefficient_matrix_reference(spec)
    assert filters.shifted_coefficient_polynomials(spec).matrix == coeff
    for dg_degree in (spec.d, 1 if spec.d == 2 else 2):
        nat = oracles.t_matrix_by_elements(spec, dg_degree)
        assert oracles.t_matrix_natural(spec, dg_degree) == nat
        q = nat @ coeff
        qm = q_matrix(spec, dg_degree)
        assert qm.q == q
        nums, den = _over_common_denominator(q.entries)
        assert (qm.columns, qm.den) == (tuple(tuple(nums[m::q.cols]) for m in range(q.cols)),
                                        den)
        xi = -spec.lam if spec.side != "right" else spec.lam
        powers = RatMatrix.column([xi ** m for m in range(q.cols)])
        assert endpoint_vector(spec, dg_degree) == (nat @ (coeff @ powers)).col(0)


@pytest.mark.parametrize("dg_degree", [0, 1, 2, 4])
def test_bernstein_moment_table(dg_degree):
    """Over a whole element the table is the Beta integral, for any knot scale D."""
    top = 5
    for scale in (1, 3, 12):
        beta, den = psiac._bernstein_moments(dg_degree, top, 0, scale, scale)
        for i in range(top + 1):
            for ell in range(dg_degree + 1):
                assert F(beta[i][ell], den * scale ** i) == F(
                    comb(dg_degree, ell) * factorial(ell + i) * factorial(dg_degree - ell),
                    factorial(dg_degree + i + 1))


def test_bernstein_moment_table_on_part_of_an_element():
    """On [lo, hi] / D the integer table equals the Fraction moments there."""
    for lo, hi, scale in ((0, 1, 3), (1, 2, 3), (5, 12, 12), (0, 7, 4)):
        beta, den = psiac._bernstein_moments(2, 3, lo, hi, scale)
        want = oracles.bernstein_moments_reference(2, 3, F(lo, scale), F(hi, scale))
        assert [[F(v, den * scale ** i) for v in row] for i, row in enumerate(beta)] == want


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
    rows = oracles.bernstein_coeffs_of_poly(p, F(0), F(1, n), n, d)
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
    assert got == oracles.compose_affine(p, h, h * lam_g)
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


def _tp2_field(d, n):
    tp2 = dg.get_problem("tp2")
    return dg.dg_solve(tp2, dg.Mesh(tp2.a, tp2.b, n), d, 0.3)


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_interior_weights_match_quadrature_oracle(d):
    """The exact operator at seeded random fractions and at piece ends gives the
    quadrature weights to roundoff, for the field degree d and a higher one."""
    fracs = list(np.random.default_rng(10 + d).random(6)) + [0.0, 0.5, 1.0]
    for dg_degree in (d, 2 * d):
        for frac in fracs:
            e0, w = psiac.symmetric_filter_weights(d, dg_degree, frac)
            r0, ref = oracles.symmetric_weights_reference(d, dg_degree, frac)
            lo, hi = min(e0, r0), max(e0 + len(w), r0 + len(ref))
            got, want = np.zeros((2, hi - lo, dg_degree + 1))
            got[e0 - lo:e0 - lo + len(w)] = w
            want[r0 - lo:r0 - lo + len(ref)] = ref
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).sum(), (dg_degree, frac)


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_interior_operator_reproduces_polynomials_exactly(d):
    """Exact Bernstein data of a polynomial of degree <= d maps, in rationals, to
    the Bernstein coefficients of the same polynomial on every output piece."""
    op = psiac.interior_operator(d, d)
    width = 3 * d + 2
    rng = random.Random(d)
    for degree in range(d + 1):
        p = RatPoly([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree)] + [F(1)])
        data = [c for row in oracles.bernstein_coeffs_of_poly(p, F(0), F(1), width, d) for c in row]
        for q, offset in enumerate(op.offsets):
            # the window starts at element 0, so the piece lies in element -offset
            got = [sum(num[k] * u for num, u in zip(op.numerators[q], data)) / op.den
                   for k in range(op.degree + 1)]
            want = oracles.bernstein_coeffs_of_poly(p, F(-offset) + F(q, op.pieces),
                                               F(1, op.pieces), 1, op.degree)[0]
            assert got == want, (degree, q)


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_interior_output_continuous_across_pieces(d):
    out = psiac.filter_interior(_tp2_field(d, 24))
    assert len(out.coeffs) == (1 if d % 2 else 2) * (24 - (3 * d + 1))
    jumps = out.coeffs[1:, 0] - out.coeffs[:-1, -1]  # end values of neighbouring pieces
    assert np.abs(jumps).max() <= 1e-13 * np.abs(out.coeffs).max()


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_interior_output_matches_reference_convolution(d):
    """filter_interior and symmetric_filter_eval against the convolution oracle at
    seeded random points, at element ends and at half-element ends, including
    both ends of the interior region."""
    n = 3 * d + 8
    field = _tp2_field(d, n)
    mesh = field.mesh
    mu = (3 * d + 1) / 2
    sigmas = list(mu + (n - 2 * mu) * np.random.default_rng(d).random(3))
    sigmas += [mu, n - mu, np.ceil(mu), np.ceil(mu) + 1]
    if d % 2 == 0:
        sigmas += [np.ceil(mu) + 0.5, n - mu - 1]
    out = psiac.filter_interior(field)
    kernel = psiac.symmetric_kernel_at(d, mesh.h)
    for sigma in sigmas:
        x = mesh.a + sigma * mesh.h
        ref = reference_convolve(kernel, field, x)
        assert abs(out(x) - ref) < 1e-12, sigma
        assert abs(symmetric_filter_eval(field, x) - ref) < 1e-12, sigma


def test_interior_output_outside_region_raises():
    out = psiac.filter_interior(_tp2_field(2, 16))
    lo, hi = out.region
    out(np.array([lo, hi]))
    for x in (lo - 0.01, hi + 0.01):
        with pytest.raises(OutsideInteriorRegionError):
            out(x)
    with pytest.raises(MeshTooCoarseError):
        psiac.filter_interior(_tp2_field(2, 7))


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
                               lambda s: np.where(np.abs(s) <= 1, 0.5, 0.0))
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


@pytest.mark.parametrize("d", (1, 2, 3))
def test_float_kernel_bit_identical_to_exact_pieces(d, monkeypatch):
    """The float spline tables give the exact pieces' values at float points, bit
    for bit: at and between the knots, off the support, and through
    reference_convolve for every boundary family, both sides, and the
    symmetric kernel."""
    field = _tp2_field(d, 24)
    mesh = field.mesh
    specs = [build_spec(fam, d, side, k=1 if fam == "npk" else None)
             for fam in ("srv", "rlkv", "np0", "rs", "npk") for side in ("left", "right")]
    sym = build_spec("symmetric", d)
    for spec in specs + [sym]:
        c = filters.static_coefficients(spec)
        lo, hi = float(spec.knots[0]), float(spec.knots[-1])
        s = np.concatenate(([lo - 1.0, hi + 0.5], np.linspace(lo, hi, 8 * int(hi - lo) + 1),
                            np.random.default_rng(d).uniform(lo, hi, 50)))
        got = psiac._float_kernel(spec, c, 0.0, 1.0)(s)
        assert got.tobytes() == oracles.float_kernel_reference(spec, c, 0.0, 1.0)(s).tobytes()

    mids = [(spec, sum(filter_boundary(field, spec).region) / 2) for spec in specs]
    sym_kernel = psiac.symmetric_kernel_at(d, mesh.h)
    got = [reference_convolve(psiac.psiac_kernel_at(spec, mesh, x), field, x) for spec, x in mids]
    got += [reference_convolve(sym_kernel, field, x) for x in (2.9, 3.3)]
    monkeypatch.setattr(psiac, "_float_kernel", oracles.float_kernel_reference)
    sym_kernel = psiac.symmetric_kernel_at(d, mesh.h)
    want = [oracles.convolve_reference(psiac.psiac_kernel_at(spec, mesh, x), field, x)
            for spec, x in mids]
    want += [oracles.convolve_reference(sym_kernel, field, x) for x in (2.9, 3.3)]
    assert got == want


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_float_kernel_accuracy_against_exact_kernel(d):
    """The float kernel at float points more than 1e-9 from any knot is within
    5e-15 max|K| of the exact kernel, evaluated in Fractions at the same points,
    for every family and side at shifts xi in {0, 1/3, -7/2, 5}."""
    specs = [build_spec(fam, d, side, k=1 if fam == "npk" else None)
             for fam in ("srv", "rlkv", "np0", "rs", "npk") for side in ("left", "right")]
    for spec in specs + [build_spec("symmetric", d)]:
        lo, hi = float(spec.knots[0]), float(spec.knots[-1])
        z = np.random.default_rng(d).uniform(lo, hi, 60)
        z = z[np.min(np.abs(z[:, None] - np.array(spec.knots, dtype=float)), axis=1) > 1e-9]
        for xi in (F(0), F(1, 3), F(-7, 2), F(5)):
            c = filters.shifted_coefficient_polynomials(spec).evaluate(xi)
            got = psiac._float_kernel(spec, c, 0.0, 1.0)(z)
            exact = [sum(cj * eval_unit_bspline(w, k, F(s))
                         for cj, w, k in zip(c, spec.windows, spec.degrees)) for s in z]
            scale = max(abs(v) for v in exact)
            worst = float(max(abs(F(g) - v) for g, v in zip(got, exact)) / scale)
            assert worst < 5e-15, (spec.family, spec.side, xi, worst)


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


# ---------------------------------------------------------------------------
# evaluation of a stack of fields


def _stack(outputs):
    return replace(outputs[0], coeffs=np.stack([o.coeffs for o in outputs]))


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_stacked_evaluation_equals_single(d):
    """Outputs of several fields, coefficients stacked on a leading axis, evaluate to
    one row per field equal bit for bit to that field's own output, at arrays of
    points and at a float: the boundary polynomial, the interior pieces and the blend."""
    tp2, n = dg.get_problem("tp2"), 28
    mesh = dg.Mesh(tp2.a, tp2.b, n)
    fields = [dg.to_bernstein(dg.dg_solve(tp2, mesh, d, t)) for t in (0.0, 0.2, 0.45, 0.7)]
    rng = np.random.default_rng(d)
    at = lambda lo, hi: mesh.a + mesh.h * np.concatenate(
        ([lo, hi], rng.uniform(lo, hi, 40), np.arange(ceil(lo), floor(hi) + 1)))
    mu = F(3 * d + 1, 2)
    interiors = [psiac.filter_interior(f) for f in fields]
    for side in ("left", "right"):
        spec = build_spec("srv", d, side)
        polys = [filter_boundary(f, spec) for f in fields]
        edge = spec.lam if side == "left" else n - spec.lam
        overlap = tuple(mesh.a + float(s) * mesh.h
                        for s in (edge, edge + (2 if side == "left" else -2)))
        blends = [blend_transition(p, i, overlap, 2) for p, i in zip(polys, interiors)]
        cases = [(_stack(polys), polys, at(0, n)),
                 (_stack(interiors), interiors, at(float(mu), float(n - mu))),
                 (blend_transition(_stack(polys), _stack(interiors), overlap, 2), blends,
                  at(*sorted(map(float, (edge - 3, edge + 3)))))]
        for stacked, singles, xs in cases:
            got = stacked(xs)
            assert got.shape == (len(fields), len(xs))
            for row, single in zip(got, singles):
                assert row.tobytes() == single(xs).tobytes()
            x = float(xs[2])
            assert stacked(x).tobytes() == np.array([s(x) for s in singles]).tobytes()
