import random
from dataclasses import replace
from fractions import Fraction as F
from math import ceil, comb, factorial, floor

import numpy as np
import pytest

from siacpost import dg, filters, psiac
from siacpost.exact import RatMatrix, RatPoly, _over_common_denominator
from siacpost.filters import build_spec, custom_spec
from siacpost.psiac import (MeshTooCoarseError, OutsideInteriorRegionError, blend_weight,
                            endpoint_vector, filter_boundary, q_matrix, reference_convolve,
                            symmetric_filter_eval)

import oracles
from oracles import eval_unit_bspline, np0_t_matrix, t_matrix

EX27 = custom_spec([-2, -1, 0], 0, (0, 1))


def two_indicator_field():
    """Ex-style data: indicator of [0,1] plus indicator of [3,4] on [0,7] (P_0 = 1)."""
    coeffs = np.zeros((7, 1))
    coeffs[0, 0] = 1.0
    coeffs[3, 0] = 1.0
    return dg.DGField(d=0, mesh=dg.Mesh(0.0, 7.0, 7), coeffs=coeffs)


def one_piece(coeffs, width, start, region=(0.0, 1.0)):
    """An output as filter_boundary makes one: coeffs (..., m) the one piece in
    (x - start)/width, sampled anywhere."""
    return psiac.MonomialPieces(coeffs=np.asarray(coeffs)[..., None, :], start=start,
                                width=width, region=region, checked=(-np.inf, np.inf))


def blended(output, interior, overlap, rho=2):
    """The output joined to the interior across overlap: its own `sample` blend."""
    return lambda x: output(x, ([interior], [overlap], rho))


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
    for col in zip(*oracles.matrix_rows(t)):
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
    for col in zip(*oracles.matrix_rows(t)):
        assert sum(col) == 1


@pytest.mark.parametrize("spec", [
    build_spec("np0", 1, "left"), build_spec("rlkv", 2, "left"),
    build_spec("srv", 1, "right"), build_spec("symmetric", 2),
], ids=lambda s: f"{s.family}-d{s.d}-{s.side}")
def test_constant_data_reproduced(spec):
    qm = q_matrix(spec)
    ones = [[F(1)] + [F(0)] * spec.d for _ in range(qm.n_elements)]  # 1 = P_0
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


@pytest.mark.parametrize("spec", CONTRACT_SPECS,
                         ids=lambda s: f"{s.family}-d{s.d}-{s.side}")
def test_stacked_contract_matches_rows_and_reference(spec):
    """One contraction of a stack of windows is, byte for byte, the contraction of each
    window and the rounded Fraction reference: values from 1e-300 to 1e300, 5e-324 beside
    O(1) values, +-0, an all-zero window and the negated stack."""
    qm = q_matrix(spec)
    rng = np.random.default_rng(spec.r * 100 + spec.d * 10 + (spec.side == "right"))
    shape = (qm.n_elements, spec.d + 1)
    wide = rng.choice((-1.0, 1.0), shape) * 10.0 ** rng.integers(-300, 301, shape)
    tiny = np.where(rng.random(shape) < 0.5, 5e-324, rng.standard_normal(shape))
    zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    zeros[0, 0] = 1.5
    stack = np.stack([wide, tiny, zeros, np.zeros(shape), rng.standard_normal(shape)])
    stack = np.concatenate((stack, -stack))
    got = qm.contract(stack)
    assert got.shape == (len(stack), qm.q.cols)
    for row, window in zip(got, stack):
        assert row.tobytes() == qm.contract(window).tobytes()
        reference = oracles.contract_reference(qm.q, [[F(v) for v in w] for w in window])
        want = np.zeros(qm.q.cols)
        want[:len(reference.coeffs)] = [float(c) for c in reference.coeffs]
        assert row.tobytes() == want.tobytes()
    assert qm.contract(stack.reshape(2, 5, *shape)).tobytes() == got.tobytes()


def test_d4_boundary_operators_have_numerators_past_double_precision():
    """The stacked-contraction tests reach numerators wider than a double: the d=4 srv,
    rlkv and npk boundary Q numerators have 67-79 bits, four 20-bit slices each."""
    bits = [max(abs(v) for v in q_matrix(spec).q.nums.flat).bit_length()
            for spec in CONTRACT_SPECS if spec.d == 4 and spec.family in ("srv", "rlkv", "npk")]
    assert len(bits) == 6 and min(bits) > 60


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
    Gauss-Jordan, integrates T entry by entry, forms Q = T C in full and
    takes its rows to Legendre ones, entry by entry.
    The custom specs have knots off the element grid, so spline pieces
    cover only part of an element.
    """
    coeff = oracles.coefficient_matrix_reference(spec)
    assert filters.shifted_coefficient_polynomials(spec).exact == coeff
    assert filters.static_coefficients(spec) == tuple(row[0] for row in oracles.matrix_rows(coeff))
    for dg_degree in (spec.d,) if spec.d > 2 else (0, 1, 2):
        nat = oracles.t_matrix_natural_reference(spec, dg_degree)
        ncol = nat.cols
        assert t_matrix(spec, dg_degree) == RatMatrix.from_rows(
            [[row[ncol - 1 - j] for j in range(ncol)] for row in oracles.matrix_rows(nat)])
        q = oracles.matmul_reference(nat, coeff)
        assert q_matrix(spec, dg_degree).q == oracles.legendre_rows(q, dg_degree)
        if spec.side == "interior":  # the symmetric prototype has no endpoint vector
            continue
        xi = -spec.lam if spec.side == "left" else spec.lam
        powers = RatMatrix.from_rows([[xi ** m] for m in range(q.cols)])
        assert endpoint_vector(spec, dg_degree) == oracles.matmul_reference(q, powers).entries


@pytest.mark.parametrize("spec", ORACLE_SPECS,
                         ids=lambda s: f"{s.family}-d{s.d}-{s.side}-k{s.degrees[-1]}"
                                       f"-r{s.r}")
def test_integer_assembly_matches_fraction_path(spec):
    """The integer operators equal the Fraction construction they replace.

    That construction: RatPoly B-spline pieces recentred per element
    against Fraction Bernstein moments for T, C by inverting the Fraction
    moment matrix, RatMatrix products for Q and the endpoint vector, and Q's
    rows taken to Legendre ones by Fraction multiply-adds.  Q_L's integers
    are over the least common denominator of its entries.  DG degrees both equal
    to and other than the spec's are checked.
    """
    coeff = oracles.coefficient_matrix_reference(spec)
    assert filters.shifted_coefficient_polynomials(spec).exact == coeff
    for dg_degree in (spec.d, 1 if spec.d == 2 else 2):
        nat = oracles.t_matrix_by_elements(spec, dg_degree)
        assert oracles.t_matrix_natural(spec, dg_degree) == nat
        q = nat @ coeff
        qm = q_matrix(spec, dg_degree)
        assert qm.q == oracles.legendre_rows(q, dg_degree)
        nums, den = _over_common_denominator(oracles.legendre_rows(q, dg_degree).entries)
        assert (qm.q.nums.ravel().tolist(), qm.q.den) == (nums, den)
        if spec.side == "interior":  # the symmetric prototype has no endpoint vector
            continue
        xi = -spec.lam if spec.side == "left" else spec.lam
        powers = RatMatrix.from_rows([[xi ** m] for m in range(q.cols)])
        assert endpoint_vector(spec, dg_degree) == (nat @ (coeff @ powers)).entries


LEGENDRE_SPECS = [build_spec(fam, d, side, k=k)
                  for fam, k in (("srv", None), ("rlkv", None), ("np0", None), ("rs", None),
                                 ("npk", 1), ("npk", 2))
                  for d in (1, 2, 3, 4) for side in ("left", "right")]


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_legendre_operators_are_the_bernstein_ones_composed(d):
    """As RatMatrix equality: Q_L = blockdiag(L2B^T) . Q for srv, rlkv, np0, rs and npk
    (k = 1, 2), left and right, with Q = T C the Bernstein operator and L2B by exact
    inversion; and each piece of the interior operator is blockdiag(L2B^T) times the
    Bernstein interior operator times the exact Bernstein -> monomial map."""
    for spec in (s for s in LEGENDRE_SPECS if s.d == d):
        q = psiac._t_integers(spec, d) @ filters.shifted_coefficient_polynomials(spec).exact
        assert q_matrix(spec, d).q == oracles.legendre_rows(q, d), (spec.family, spec.side)
    op = psiac.interior_operator(d, d)
    offsets, bern = oracles.bernstein_interior_operator(d, d)
    to_monomial = oracles.bernstein_to_monomial(op.degree)
    assert op.offsets == offsets and op.exact.nums.shape == bern.nums.shape
    for q in range(op.pieces):
        assert RatMatrix(op.exact.nums[q], op.exact.den) == \
            oracles.legendre_rows(RatMatrix(bern.nums[q], bern.den), d) @ to_monomial


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
    with pytest.raises(ValueError):
        qm.contract(np.ones((3, qm.n_elements - 1, 2)))
    for bad in (float("nan"), float("inf"), -float("inf")):
        window = np.ones((2, qm.n_elements, 2))
        window[1, -1, 0] = bad
        with pytest.raises(ValueError):
            qm.contract(window)


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
    poly = filter_boundary(two_indicator_field(), EX27)
    d1 = poly.derivative(1)
    xs = np.linspace(0.0, 2.0, 5)
    assert np.allclose(d1(xs), -1.0, atol=1e-15)
    d2 = poly.derivative(0)
    assert np.allclose(d2(xs), (3 - 2 * xs) / 2, atol=1e-15)
    dd = poly.derivative(EX27.r)
    assert np.allclose(dd(xs), -1.0, atol=1e-15)  # r = 1 here
    assert np.allclose(poly.derivative(EX27.r + 1)(xs), 0.0)
    with pytest.raises(ValueError, match="order"):
        poly.derivative(-1)


def test_stacked_boundary_polynomial_is_per_field():
    """Derivatives and physical coefficients of a (fields, 1, m) stack are those of each field."""
    stack = one_piece([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], 0.5, 0.25)
    fields = [replace(stack, coeffs=row) for row in stack.coeffs]
    assert stack.derivative(1).coeffs.tolist() == [[[4.0, 12.0]], [[10.0, 24.0]]]
    for order in (0, 1, 2, 3, 4):
        got = stack.derivative(order)
        assert got.coeffs.tolist() == [f.derivative(order).coeffs.tolist() for f in fields]
    assert stack.physical_coefficients().tolist() == \
        [f.physical_coefficients().tolist() for f in fields]


def exact_poly_field(p: RatPoly, n: int, d: int):
    rows = oracles.legendre_coeffs_of_poly(p, F(0), F(1, n), n, d)
    coeffs = np.array([[float(c) for c in row] for row in rows])
    return rows, dg.DGField(d=d, mesh=dg.Mesh(0.0, 1.0, n), coeffs=coeffs)


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
    """Filtering mirrored data with the opposite-side filter mirrors the output.
    P_l(2(1 - u) - 1) = (-1)^l P_l(2u - 1) mirrors each element."""
    rng = np.random.default_rng(7)
    mesh = dg.Mesh(0.0, 1.0, 12)
    coeffs = rng.standard_normal((12, 3))
    fld = dg.DGField(d=2, mesh=mesh, coeffs=coeffs)
    mirrored = dg.DGField(d=2, mesh=mesh, coeffs=coeffs[::-1] * (-1.0) ** np.arange(3))
    for fam in ("np0", "rlkv"):
        pl = filter_boundary(fld, build_spec(fam, 2, "left"))
        pr = filter_boundary(mirrored, build_spec(fam, 2, "right"))
        for y in np.linspace(0.0, pl.region[1], 9):
            assert pl(y) == pytest.approx(pr(1.0 - y), abs=1e-12)
        # coefficient sign rule for plain mirroring: a_k -> (-1)^k a_k
        (al,), (ar,) = pl.physical_coefficients(), pr.physical_coefficients()
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


def test_endpoint_vector_refuses_non_boundary_sides():
    """The symmetric prototype has no endpoint, nor has a spec of any other side."""
    for spec in (build_spec("symmetric", 2), replace(build_spec("np0", 1, "left"), side="center")):
        with pytest.raises(filters.UnsupportedFamilySideError, match="not a boundary side"):
            endpoint_vector(spec)


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
    """Exact Legendre data of a polynomial of degree <= d maps, in rationals, to
    the monomial coefficients in t in [0, 1] of the same polynomial on every output piece."""
    op = psiac.interior_operator(d, d)
    width = 3 * d + 2
    rng = random.Random(d)
    for degree in range(d + 1):
        p = RatPoly([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree)] + [F(1)])
        data = [c for row in oracles.legendre_coeffs_of_poly(p, F(0), F(1), width, d) for c in row]
        for q, offset in enumerate(op.offsets):
            # the window starts at element 0, so the piece lies in element -offset
            got = RatPoly([sum(num[k] * u for num, u in zip(op.exact.nums[q], data)) / op.exact.den
                           for k in range(op.degree + 1)])
            assert got == oracles.compose_affine(p, F(1, op.pieces),
                                                 F(-offset) + F(q, op.pieces)), (degree, q)


def test_interior_operator_fraction_view():
    """The (pieces, rows, m) interior operator gives its Fractions flat in C order, and
    refuses a row and column view, naming its shape."""
    op = psiac.interior_operator(2, 2)
    assert op.exact.nums.shape == (2, 24, 6)
    entries = op.exact.entries
    assert len(entries) == 288
    assert entries == [F(v, op.exact.den) for v in op.exact.nums.ravel().tolist()]
    assert entries[6 * 24 + 6 + 1] == F(op.exact.nums[1, 1, 1], op.exact.den)
    for view in (lambda m: m.rows, lambda m: m.cols, lambda m: m.row(0)):
        with pytest.raises(ValueError, match=r"\(2, 24, 6\)"):
            view(op.exact)


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_interior_output_continuous_across_pieces(d):
    out = psiac.filter_interior(_tp2_field(d, 24))
    assert len(out.coeffs) == (1 if d % 2 else 2) * (24 - (3 * d + 1))
    jumps = out.coeffs[1:, 0] - out.coeffs[:-1].sum(axis=-1)  # at t = 0 and 1 of neighbours
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


@pytest.mark.parametrize("basis", ("legendre", "bernstein"))
@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_stacked_interior_and_evaluate_match_per_field(d, basis):
    """filter_interior and DGField.evaluate of a (2, 3, n, d+1) stack of fields give each
    field's own output, byte for byte: one-piece (odd d) and two-piece (even d) interior
    operators, on Legendre coefficients; a Bernstein stack evaluates so too, and the filter
    refuses it.  At N = 40 a stack whose windows were fused into one matmul would differ
    in the last bits at d = 4."""
    mesh = dg.Mesh(0.0, 2.0, 40)
    coeffs = np.random.default_rng(d).standard_normal((2, 3, mesh.n, d + 1))
    stack = dg.DGField(d=d, mesh=mesh, coeffs=coeffs, basis=basis, time=np.zeros((2, 3)))
    fields = [replace(stack, coeffs=c, time=0.0) for c in coeffs.reshape(6, mesh.n, d + 1)]
    for x in (np.linspace(-0.1, 2.1, 61), np.linspace(0.5, 1.5, 35).reshape(5, 7), np.array(0.7)):
        values = stack.evaluate(x)
        assert values.shape == (2, 3) + x.shape
        assert values.tobytes() == np.stack([f.evaluate(x) for f in fields]).tobytes()
    assert isinstance(fields[0].evaluate(0.7), float)
    if basis == "bernstein":
        with pytest.raises(ValueError, match="Legendre"):
            psiac.filter_interior(stack)
        return
    out = psiac.filter_interior(stack)
    per_field = [psiac.filter_interior(f) for f in fields]
    assert out.coeffs.shape == (2, 3) + per_field[0].coeffs.shape
    assert out.coeffs.tobytes() == np.stack([o.coeffs for o in per_field]).tobytes()
    assert (out.start, out.width) == (per_field[0].start, per_field[0].width)
    lo, hi = out.region
    xs = np.linspace(lo, hi, 35).reshape(5, 7)
    assert out(xs).tobytes() == np.stack([o(xs) for o in per_field]).tobytes()


@pytest.mark.parametrize("d", (1, 2, 3))
def test_symmetric_eval_local_batched_matches_scalar(d):
    tp2 = dg.get_problem("tp2")
    field = dg.dg_solve(tp2, dg.Mesh(tp2.a, tp2.b, 24), d, 0.3)
    mu = (3 * d + 1) // 2 + 1
    elements = np.arange(mu, 24 - mu)
    for frac in (F(0), F(1, 5), F(1, 2), 0.3, 0.9930446604745877):
        batched = psiac.symmetric_filter_eval_local(field, elements, frac)
        scalar = [psiac.symmetric_filter_eval_local(field, int(e), frac) for e in elements]
        assert all(isinstance(v, float) for v in scalar)
        assert batched.tolist() == scalar


def test_symmetric_eval_local_window_check():
    field = dg.l2_project(np.sin, dg.Mesh(0.0, 1.0, 16), 1)
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


def test_float_spline_tables_match_the_fraction_view():
    """The float tables, built on integers from `bspline_pieces`, are byte for byte
    those of the Fraction pieces recentred by RatPoly, on every kernel window."""
    for w, k in oracles.kernel_windows():
        for got, want in zip(psiac._float_spline(w, k), oracles.float_spline_reference(w, k)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (w, k)


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
    left = one_piece([2.0], 1.0, 0.0)

    def interior(x):
        raise AssertionError("interior side must not be touched at z = 0")

    assert blended(left, interior, (0.0, 1.0), rho=1)(0.0) == 2.0
    blended2 = blended(left, lambda x: -1.0, (0.0, 1.0), rho=1)
    assert blended2(1.0) == -1.0
    assert blended2(0.5) == pytest.approx(0.5 * 2.0 + 0.5 * (-1.0))


def test_blend_empty_overlap():
    with pytest.raises(psiac.EmptyOverlapError):
        blended(one_piece([0.0, 1.0], 1.0, 0.0), lambda x: x, (1.0, 1.0), rho=1)(0.5)


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
            der = oracles.poly_derivative(der)
            assert der(F(0)) == 0 and der(F(1)) == 0


def _horner_rows(coeffs, z):
    """The single-polynomial rule: acc = acc * z + c from a zero acc, top coefficient first."""
    acc = np.zeros(coeffs.shape[:-1] + z.shape)
    for c in np.moveaxis(coeffs, -1, 0)[::-1]:
        acc = acc * z + c[:, None]
    return acc


def test_boundary_values_of_unequal_lengths_are_each_polynomials_own():
    """Boundary polynomials of different lengths over one stack of fields, zero-padded to
    one Horner pass, give each polynomial's own values byte for byte: at negative z, at
    z = +0 and -0, with signed-zero coefficients, and for an all-zero polynomial."""
    rng = np.random.default_rng(11)
    fields = 8

    def signed(m):
        c = np.where(rng.random((fields, m)) < 0.5, -0.0, 0.0)
        c[::2, -1] = -0.0  # a top coefficient of -0 in every other row
        return c

    tables = [rng.standard_normal((fields, 9)), signed(3), np.zeros((fields, 6)),
              rng.standard_normal((fields, 1)), signed(4), signed(5),
              np.where(rng.random((fields, 7)) < 0.3, -0.0, rng.standard_normal((fields, 7)))]
    # an anchor at 0 and h > 2 make z = -0 at x = -5e-324 and +0 at x = 0
    hs, anchors = (0.3, 2.5, 3.0, 0.7, 2.25, 2.75, 0.1), (0.5, 0.0, 0.0, -1.5, 0.0, 0.0, 0.25)
    polys = [one_piece(c, h, a) for c, h, a in zip(tables, hs, anchors)]
    points = [np.concatenate((p.start + p.width * rng.uniform(-3.0, 3.0, 200),
                              [p.start, p.start - 5e-324, p.start + 5e-324])) for p in polys]
    zs = [(x - p.start) / p.width for p, x in zip(polys, points)]
    for z in zs[1:3] + zs[4:6]:
        assert (z == 0).sum() == 3 and np.signbit(z[z == 0]).sum() == 1 and (z < 0).any()
    got = psiac.sample(polys, points)
    assert got.shape == (fields, sum(map(len, points)))
    start = 0
    for c, p, x, z in zip(tables, polys, points, zs):
        want = _horner_rows(c, z)
        assert got[:, start:start + len(x)].tobytes() == want.tobytes()
        assert p(x).tobytes() == want.tobytes()
        start += len(x)
    assert not np.signbit(psiac.sample(polys[2:3], points[2:3])).any()


def test_one_output_boundary_values_is_blend_transition():
    """A boundary output (one piece, sampled past its region) and an interior output (the
    pieces of a two-field stack, tp2 d = 2, N = 16), in one run-level `sample` call, give
    each output's own __call__ byte for byte, unblended and blended across an overlap in
    either direction; blended, both are (1 - beta) p + beta i where the weight beta is
    positive and p elsewhere."""
    rng = np.random.default_rng(4)
    poly = one_piece(rng.standard_normal((2, 7)), 0.1, -0.3, region=(0.0, 0.6))
    inner = psiac.filter_interior(_time_stack(dg.get_problem("tp2"), 16, 2, (0.1, 0.4)))
    lo, hi = inner.region
    interior = lambda x: np.stack((np.cos(x), np.sin(3 * x)))
    cases = [(poly, (0.0, 0.6), (0.2, 0.4)), (inner, (lo, hi), (lo + 1.0, lo + 2.0))]
    outputs = [out for out, _, _ in cases]
    points = [np.concatenate((np.linspace(a, b, 31), rng.uniform(a, b, 20)))
              for _, (a, b), _ in cases]
    for flip in (1, -1):
        overlaps = [overlap[::flip] for _, _, overlap in cases]
        for blend in (None, ([interior] * 2, overlaps, 2)):
            got = np.split(psiac.sample(outputs, points, blend), [len(points[0])], axis=-1)
            for k, (out, xs, overlap) in enumerate(zip(outputs, points, overlaps)):
                own = out(xs, blend and ([interior], [overlap], 2))
                assert own.shape == (2, len(xs)) and got[k].tobytes() == own.tobytes()
                if not blend:
                    continue
                beta = blend_weight(np.clip((xs - overlap[0]) / (overlap[1] - overlap[0]),
                                            0.0, 1.0), 2)
                mix = beta > 0
                want = out(xs)
                want[:, mix] = (1 - beta[mix]) * want[:, mix] + beta[mix] * interior(xs[mix])
                assert own.tobytes() == want.tobytes()
                assert 0 < mix.sum() < len(xs)
    xs = points[0]
    with pytest.raises(psiac.EmptyOverlapError):
        psiac.sample([poly], [xs], ([interior], [(0.2, 0.4), (0.3, 0.3)], 2))
    with pytest.raises(ValueError, match="rho"):
        poly(xs, ([interior], [(0.2, 0.4)], 0))
    with pytest.raises(OutsideInteriorRegionError):
        psiac.sample(outputs, [points[0], points[0]])


def _time_stack(problem, n, d, times):
    """One DG field of coeffs (times, n, d + 1): problem solved to each time on n elements."""
    fields = [dg.dg_solve(problem, dg.Mesh(problem.a, problem.b, n), d, t) for t in times]
    return replace(fields[0], coeffs=np.stack([f.coeffs for f in fields]))


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_cross_mesh_contraction_is_each_meshs_own(d):
    """filter_boundary on a sequence of stacks (N = 24, 48, 96 at three times each, and the
    first scaled by 2^600) contracts all of their windows in one QMatrix.contract call and
    gives, bit for bit, each stack's own filter_boundary output (coefficients, start, width,
    region, checked range): every boundary family (npk with k = 1), both sides.  One field
    is still one output; a sequence of one, a list.  A sequence holding a Bernstein field is
    refused."""
    tp2 = dg.get_problem("tp2")
    stacks = [_time_stack(tp2, n, d, (0.0, 0.2, 0.45)) for n in (24, 48, 96)]
    stacks.append(replace(stacks[0], coeffs=stacks[0].coeffs * 2.0 ** 600))
    calls, contract = [], psiac.QMatrix.contract
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(psiac.QMatrix, "contract",
                   lambda self, rows: calls.append(rows.shape) or contract(self, rows))
        for spec in (s for s in CONTRACT_SPECS if s.d == d and s.family != "symmetric"):
            calls.clear()
            got = filter_boundary(stacks, spec)
            qm = q_matrix(spec, d)
            assert calls == [(4, 3, qm.n_elements, d + 1)] and len(got) == 4
            for poly, field in zip(got, stacks):
                own = filter_boundary(field, spec)
                assert isinstance(own, psiac.MonomialPieces)
                assert poly.coeffs.shape == own.coeffs.shape == (3, 1, qm.q.cols)
                assert poly.coeffs.tobytes() == own.coeffs.tobytes()
                assert (poly.start, poly.width, poly.region, poly.checked) == \
                    (own.start, own.width, own.region, own.checked)
            one = filter_boundary(stacks[:1], spec)
            assert isinstance(one, list) and one[0].coeffs.tobytes() == got[0].coeffs.tobytes()
            with pytest.raises(ValueError, match="not a bernstein field"):
                filter_boundary(stacks[:2] + [dg.to_bernstein(stacks[2])], spec)


def test_boundary_values_with_per_output_interiors_is_per_mesh_calls():
    """One sample call over the blended boundary outputs of three meshes, each
    output with its own mesh's interior evaluator, equals byte for byte the per-mesh calls
    with one evaluator each.  Each evaluator is called once, on the positive-weight strip
    points of its own mesh's outputs, in their order (tp2, d = 3, N = 20, 40, 80, srv, rlkv
    and np0 on both sides, a stack of four times)."""
    tp2, d, rng = dg.get_problem("tp2"), 3, np.random.default_rng(5)
    meshes = []
    for n in (20, 40, 80):
        stack = _time_stack(tp2, n, d, (0.1, 0.3, 0.5, 0.7))
        mesh, polys, points, overlaps = stack.mesh, [], [], []
        for family in ("srv", "rlkv", "np0"):
            for side in ("left", "right"):
                spec = build_spec(family, d, side)
                edge = spec.lam if side == "left" else n - spec.lam
                inner = edge + 2 if side == "left" else edge - 2
                polys.append(filter_boundary(stack, spec))
                overlaps.append((mesh.a + float(edge) * mesh.h, mesh.a + float(inner) * mesh.h))
                span = (0.0, float(inner)) if side == "left" else (float(inner), n)
                points.append(mesh.a + mesh.h * rng.uniform(*span, 60))
        meshes.append((psiac.filter_interior(stack), polys, points, overlaps))
    seen = []
    evals = [lambda x, k=k, f=interior: seen.append((k, x.copy())) or f(x)
             for k, (interior, *_) in enumerate(meshes)]
    got = psiac.sample(
        [p for _, polys, _, _ in meshes for p in polys],
        [x for _, _, points, _ in meshes for x in points],
        ([evals[k] for k, (_, polys, _, _) in enumerate(meshes) for _ in polys],
         [o for *_, overlaps in meshes for o in overlaps], 2))
    want = [psiac.sample(polys, points, ([interior] * len(polys), overlaps, 2))
            for interior, polys, points, overlaps in meshes]
    assert got.tobytes() == np.concatenate(want, axis=-1).tobytes()
    assert [k for k, _ in seen] == [0, 1, 2]
    for (_, x), (_, _, points, overlaps) in zip(seen, meshes):
        strips = [xs[blend_weight(np.clip((xs - a1) / (a2 - a1), 0.0, 1.0), 2) > 0]
                  for xs, (a1, a2) in zip(points, overlaps)]
        assert all(len(s) for s in strips) and x.tobytes() == np.concatenate(strips).tobytes()


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
    fields = [dg.dg_solve(tp2, mesh, d, t) for t in (0.0, 0.2, 0.45, 0.7)]
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
        blends = [blended(p, i, overlap) for p, i in zip(polys, interiors)]
        cases = [(_stack(polys), polys, at(0, n)),
                 (_stack(interiors), interiors, at(float(mu), float(n - mu))),
                 (blended(_stack(polys), _stack(interiors), overlap), blends,
                  at(*sorted(map(float, (edge - 3, edge + 3)))))]
        for stacked, singles, xs in cases:
            got = stacked(xs)
            assert got.shape == (len(fields), len(xs))
            for row, single in zip(got, singles):
                assert row.tobytes() == single(xs).tobytes()
            x = float(xs[2])
            assert stacked(x).tobytes() == np.array([s(x) for s in singles]).tobytes()
