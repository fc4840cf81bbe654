"""Reference implementations the tests compare the library against.

These are the straightforward forms of what the library computes by
faster kernels: Fraction Gauss-Jordan elimination, the moment matrix built
one moment at a time from complete homogeneous sums, T integrated entry by
entry through ``PiecewisePolynomial.integrate_against``, the closed-form T
of the piecewise-constant filter, the boundary contraction entry by entry,
the Legendre-Bernstein conversion by exact inversion of monomial
matrices, the reference kernel evaluated spline by spline through
``PiecewisePolynomial`` and integrated one interval at a time, and the
interior filter weights by Gauss quadrature.  They are kept deliberately plain; the library must agree
with the exact ones exactly, and with the quadrature to roundoff.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb, floor

import numpy as np

from siacpost.exact import RatMatrix, RatPoly, SingularMatrixError, invert_exact
from siacpost.filters import FilterSpec, build_spec, static_coefficients
from siacpost.psiac import FloatKernel, _t_matrix_natural
from siacpost.spline import (PiecewisePolynomial, as_knots, bernstein_poly,
                             unit_bspline_piecewise)


def matrix_rows(a: RatMatrix) -> list[list[Fraction]]:
    """The entries of a matrix as a list of rows."""
    return [a.row(i) for i in range(a.rows)]


def compose_affine(p: RatPoly, scale, offset) -> RatPoly:
    """q with q(x) = p(scale*x + offset)."""
    lin = RatPoly([offset, scale])
    out = RatPoly([0])
    for c in reversed(p.coeffs):
        out = out * lin + c
    return out


def complete_homogeneous(values, m: int) -> Fraction:
    """Sum of all degree-m monomials in the given values (h_m)."""
    h = [Fraction(1)] + [Fraction(0)] * m
    for v in values:
        for i in range(1, m + 1):
            h[i] += v * h[i - 1]
    return h[m]


def moment_reference(knots, k: int, m: int) -> Fraction:
    """Integral of B(s|t) s^m ds = h_m(t) / C(m+k+1, m), one moment on its own."""
    return complete_homogeneous(as_knots(knots), m) / comb(m + k + 1, m)


def matmul_reference(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Product by Fraction multiply-adds."""
    return RatMatrix(a.rows, b.cols, [sum((x * y for x, y in zip(a.row(i), b.col(j))),
                                          Fraction(0))
                                      for i in range(a.rows) for j in range(b.cols)])


def det_reference(a: RatMatrix) -> Fraction:
    """Determinant by Fraction elimination (first-nonzero pivot per column)."""
    n = a.rows
    m = matrix_rows(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def solve_reference(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """A^-1 B by Fraction Gauss-Jordan elimination with back substitution."""
    n = a.rows
    m = [a.row(i) + b.row(i) for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(col + 1, n):
            f = m[r][col]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    for col in range(n - 1, -1, -1):
        for r in range(col):
            f = m[r][col]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return RatMatrix(n, b.cols, [m[i][n + j] for i in range(n) for j in range(b.cols)])


def moment_matrix_reference(spec: FilterSpec) -> RatMatrix:
    """M[m][j] = integral of B_j(s) s^m ds, one moment_reference call per entry."""
    return RatMatrix.from_rows([
        [moment_reference(w, k, mm) for w, k in zip(spec.windows, spec.degrees)]
        for mm in range(spec.r + 1)
    ])


def coefficient_matrix_reference(spec: FilterSpec) -> RatMatrix:
    """C = M^-1 diag((-1)^m), the coefficient polynomials c(xi) = C [xi^m]."""
    n = spec.r + 1
    minv = solve_reference(moment_matrix_reference(spec), RatMatrix.identity(n))
    return RatMatrix(n, n, [minv[i, j] * (-1) ** j for i in range(n) for j in range(n)])


def t_matrix_natural_reference(spec: FilterSpec, dg_degree: int) -> RatMatrix:
    """T entry by entry: each reflected spline against each element Bernstein function."""
    lam = spec.knots[-1]
    splines = [unit_bspline_piecewise(tuple(lam - t for t in reversed(w)), k)
               for w, k in zip(spec.windows, spec.degrees)]
    bern = [bernstein_poly(dg_degree, ell) for ell in range(dg_degree + 1)]
    rows = []
    for e in range(int(spec.support_width)):
        for ell in range(dg_degree + 1):
            phi = compose_affine(bern[ell], 1, -e)  # phi(sigma) on [e, e+1]
            rows.append([pp.integrate_against(phi, e, e + 1) for pp in splines])
    return RatMatrix.from_rows(rows)


def t_matrix(spec: FilterSpec, dg_degree: int | None = None) -> RatMatrix:
    """The library's T (``psiac._t_matrix_natural``) in the paper's column order.

    Column j holds the reflected spline of kernel component r - j: the
    order under which the piecewise-constant filter's T is block diagonal.
    """
    nat = _t_matrix_natural(spec, spec.d if dg_degree is None else dg_degree)
    return RatMatrix.from_rows([row[::-1] for row in matrix_rows(nat)])


def np0_t_matrix(d: int) -> RatMatrix:
    """Closed form for the piecewise-constant filter: I_{3d+1} (x) ones/(d+1)."""
    n = 3 * d + 1
    rows = []
    for i in range(n):
        for _ in range(d + 1):
            rows.append([Fraction(int(i == j), d + 1) for j in range(n)])
    return RatMatrix.from_rows(rows)


def contract_reference(q: RatMatrix, coeff_rows) -> RatPoly:
    """Output polynomial of a boundary operator Q by Fraction multiply-adds.

    coeff_rows: per-element Bernstein coefficients across the window,
    element-major like the rows of Q.
    """
    flat = [Fraction(c) for row in coeff_rows for c in row]
    if len(flat) != q.rows:
        raise ValueError("coefficient count does not match window")
    acc = [Fraction(0)] * q.cols
    for i, u in enumerate(flat):
        if u:
            row = q.row(i)
            for m in range(q.cols):
                acc[m] += u * row[m]
    return RatPoly(acc)


def symmetric_weights_reference(d: int, dg_degree: int, frac: float) -> tuple[int, np.ndarray]:
    """Interior weights at sigma = e + frac by composite Gauss quadrature.

    The filtered value is sum over (de, ell) of W[de, ell] times the
    Bernstein coefficient ell of element e + e0 + de; (e0, W) is returned.
    Each element is cut at the kernel breakpoints, so the quadrature is
    exact for the polynomial integrands up to roundoff; elements the
    kernel meets over less than 1e-11 are left out.
    """
    spec = build_spec("symmetric", d)
    kernel = _piecewise_sum([(c, unit_bspline_piecewise(w, k)) for c, w, k in
                             zip(static_coefficients(spec), spec.windows, spec.degrees)])
    f = float(frac)
    mu = float(kernel.breakpoints[-1])
    snap = 1e-11
    e0 = floor(f - mu + snap)
    e1 = ceil(f + mu - snap)
    kernel_breaks = [f - float(b) for b in kernel.breakpoints]
    bern = [[float(c) for c in bernstein_poly(dg_degree, ell).coeffs]
            for ell in range(dg_degree + 1)]
    gx, gw = np.polynomial.legendre.leggauss((dg_degree + 2 * d + 2) // 2 + 1)
    weights = np.zeros((e1 - e0, dg_degree + 1))
    for de, e in enumerate(range(e0, e1)):
        cuts = sorted({max(e, f - mu), min(e + 1, f + mu)}
                      | {b for b in kernel_breaks if e < b < e + 1 and f - mu < b < f + mu})
        cuts = [c for c in cuts if e <= c <= e + 1]
        for lo, hi in zip(cuts, cuts[1:]):
            if hi <= lo:
                continue
            mid, rad = (lo + hi) / 2, (hi - lo) / 2
            nodes = mid + rad * gx
            kv = np.array([kernel(f - s) for s in nodes])
            for ell in range(dg_degree + 1):
                bv = np.zeros_like(nodes)
                for c in reversed(bern[ell]):
                    bv = bv * (nodes - e) + c
                weights[de, ell] += rad * np.dot(gw, kv * bv)
    return e0, weights


def bernstein_coeffs_of_poly(poly: RatPoly, mesh_a: Fraction, h: Fraction,
                             n: int, d: int) -> list[list[Fraction]]:
    """Exact degree-d Bernstein coefficients of a global polynomial on n elements.

    Element i is [mesh_a + i h, mesh_a + (i+1) h]; the polynomial degree
    must not exceed d.
    """
    if poly.degree > d:
        raise ValueError("polynomial degree exceeds the element degree")
    rows = []
    for i in range(n):
        mono = list(compose_affine(poly, h, mesh_a + i * h).coeffs)  # p(a + (i+u)h)
        mono += [Fraction(0)] * (d + 1 - len(mono))
        rows.append([sum((mono[p] * Fraction(comb(l, p), comb(d, p)) for p in range(l + 1)),
                         Fraction(0)) for l in range(d + 1)])
    return rows


def _piecewise_sum(terms) -> PiecewisePolynomial:
    """sum of c * pp over (c, pp) terms, exactly, on the union of the breakpoints."""
    cuts = sorted({b for _, pp in terms for b in pp.breakpoints})
    pieces = []
    for a, b in zip(cuts, cuts[1:]):
        acc = RatPoly([0])
        for c, pp in terms:
            i = pp.piece_index((a + b) / 2)
            if i is not None:
                acc = acc + pp.pieces[i] * c
        pieces.append(acc)
    return PiecewisePolynomial(cuts, pieces)


def _legendre_shifted_polys(d: int) -> list[RatPoly]:
    """P_n(2u - 1) as exact polynomials in u on [0, 1], by the three-term recursion."""
    polys = [RatPoly([1]), RatPoly([-1, 2])]
    for n in range(1, d):
        polys.append((RatPoly([-1, 2]) * polys[n] * (2 * n + 1)
                      + polys[n - 1] * (-n)) * Fraction(1, n + 1))
    return polys[:d + 1]


def legendre_bernstein_reference(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(Legendre -> Bernstein, Bernstein -> Legendre) as float arrays, by exact inversion.

    Columns of the two monomial matrices are the shifted Legendre and the
    Bernstein polynomials of degree d; each conversion is one inverse times
    the other.
    """
    def monomials(polys):
        return RatMatrix.from_rows([[p.coeffs[i] if i < len(p.coeffs) else 0 for p in polys]
                                    for i in range(d + 1)])

    leg = monomials(_legendre_shifted_polys(d))
    bern = monomials([bernstein_poly(d, ell) for ell in range(d + 1)])
    l2b = invert_exact(bern) @ leg
    b2l = invert_exact(leg) @ bern
    return np.array(l2b.to_float()), np.array(b2l.to_float())


def float_kernel_reference(spec: FilterSpec, coeffs, offset: float, h: float) -> FloatKernel:
    """sum_j c_j B_j((s - offset)/h) / h, point by point through each spline's exact pieces."""
    cs = [float(c) for c in coeffs]
    pps = [unit_bspline_piecewise(w, k) for w, k in zip(spec.windows, spec.degrees)]

    def fn(s):
        z = (s - offset) / h
        return sum(c * float(pp(z)) for c, pp in zip(cs, pps)) / h

    return FloatKernel([offset + h * float(t) for t in spec.knots],
                       lambda s: np.reshape([fn(v) for v in np.ravel(s)], np.shape(s)))


def convolve_reference(kernel: FloatKernel, field, x: float, quad_points: int = 10) -> float:
    """(u * kernel)(x) by composite Gauss quadrature, one cut interval at a time.

    The cuts are those of ``psiac.reference_convolve``: the kernel's
    breakpoints and the mesh breakpoints of u(x - s) inside its support.
    """
    lo, hi = kernel.breakpoints[0], kernel.breakpoints[-1]
    cuts = sorted(set(kernel.breakpoints) | {float(x - b) for b in field.mesh.breakpoints()
                                             if lo < x - b < hi})
    gx, gw = np.polynomial.legendre.leggauss(quad_points)
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        mid, rad = (a + b) / 2, (b - a) / 2
        nodes = mid + rad * gx
        total += rad * np.dot(gw, kernel(nodes) * field.evaluate(x - nodes))
    return float(total)
