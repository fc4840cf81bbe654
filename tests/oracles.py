"""Reference implementations the tests compare the library against.

These are the straightforward forms of what the library computes by
faster kernels: Fraction Gauss-Jordan elimination, the moment matrix built
one moment at a time, T integrated entry by entry through
``PiecewisePolynomial.integrate_against``, the closed-form T of the
piecewise-constant filter, and the interior filter weights by Gauss
quadrature.  They are kept deliberately plain; the library must agree
with the exact ones exactly, and with the quadrature to roundoff.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb, floor

import numpy as np

from siacpost.exact import RatMatrix, RatPoly, SingularMatrixError
from siacpost.filters import FilterSpec, build_spec, static_coefficients
from siacpost.psiac import _t_matrix_natural
from siacpost.spline import bernstein_poly, bspline_moment, unit_bspline_piecewise


def matmul_reference(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Product by Fraction multiply-adds."""
    return RatMatrix(a.rows, b.cols, [sum((x * y for x, y in zip(a.row(i), b.col(j))),
                                          Fraction(0))
                                      for i in range(a.rows) for j in range(b.cols)])


def det_reference(a: RatMatrix) -> Fraction:
    """Determinant by Fraction elimination (first-nonzero pivot per column)."""
    n = a.rows
    m = a.to_rows()
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
    """M[m][j] = integral of B_j(s) s^m ds, one bspline_moment call per entry."""
    return RatMatrix.from_rows([
        [bspline_moment(w, k, mm) for w, k in zip(spec.windows, spec.degrees)]
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
            phi = bern[ell].compose_affine(1, -e)  # phi(sigma) on [e, e+1]
            rows.append([pp.integrate_against(phi, e, e + 1) for pp in splines])
    return RatMatrix.from_rows(rows)


def t_matrix(spec: FilterSpec, dg_degree: int | None = None) -> RatMatrix:
    """The library's T (``psiac._t_matrix_natural``) in the paper's column order.

    Column j holds the reflected spline of kernel component r - j: the
    order under which the piecewise-constant filter's T is block diagonal.
    """
    nat = _t_matrix_natural(spec, spec.d if dg_degree is None else dg_degree)
    return RatMatrix.from_rows([row[::-1] for row in nat.to_rows()])


def np0_t_matrix(d: int) -> RatMatrix:
    """Closed form for the piecewise-constant filter: I_{3d+1} (x) ones/(d+1)."""
    n = 3 * d + 1
    rows = []
    for i in range(n):
        for _ in range(d + 1):
            rows.append([Fraction(int(i == j), d + 1) for j in range(n)])
    return RatMatrix.from_rows(rows)


def symmetric_weights_reference(d: int, dg_degree: int, frac: float) -> tuple[int, np.ndarray]:
    """Interior weights at sigma = e + frac by composite Gauss quadrature.

    The filtered value is sum over (de, ell) of W[de, ell] times the
    Bernstein coefficient ell of element e + e0 + de; (e0, W) is returned.
    Each element is cut at the kernel breakpoints, so the quadrature is
    exact for the polynomial integrands up to roundoff; elements the
    kernel meets over less than 1e-11 are left out.
    """
    spec = build_spec("symmetric", d)
    kernel = None
    for c, w, k in zip(static_coefficients(spec), spec.windows, spec.degrees):
        pp = unit_bspline_piecewise(w, k).scaled(c)
        kernel = pp if kernel is None else kernel + pp
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
        mono = list(poly.compose_affine(h, mesh_a + i * h).monomial_coeffs())  # p(a + (i+u)h)
        mono += [Fraction(0)] * (d + 1 - len(mono))
        rows.append([sum((mono[p] * Fraction(comb(l, p), comb(d, p)) for p in range(l + 1)),
                         Fraction(0)) for l in range(d + 1)])
    return rows
