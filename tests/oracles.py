"""Reference implementations the tests compare the library against.

These are the straightforward forms of what the library computes by
faster kernels: Fraction Gauss-Jordan elimination, the moment matrix built
one moment at a time, T integrated entry by entry through
``PiecewisePolynomial.integrate_against``, and the closed-form T of the
piecewise-constant filter.  They are kept deliberately plain; the library
must agree with them exactly.
"""

from __future__ import annotations

from fractions import Fraction

from siacpost.exact import RatMatrix, SingularMatrixError
from siacpost.filters import FilterSpec
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


def np0_t_matrix(d: int) -> RatMatrix:
    """Closed form for the piecewise-constant filter: I_{3d+1} (x) ones/(d+1)."""
    n = 3 * d + 1
    rows = []
    for i in range(n):
        for _ in range(d + 1):
            rows.append([Fraction(int(i == j), d + 1) for j in range(n)])
    return RatMatrix.from_rows(rows)
