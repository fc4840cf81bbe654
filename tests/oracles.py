"""Reference implementations the tests compare the library against.

These are the straightforward forms of what the library computes by
faster kernels: Fraction Gauss-Jordan elimination, the moment matrix built
one moment at a time from complete homogeneous sums, B-spline pieces by
Cox-de Boor on RatPoly pieces, T integrated entry by entry through
``PiecewisePolynomial.integrate_against`` and element by element on
Fraction Bernstein moments (the library works on integers), the closed-form T
of the piecewise-constant filter, the boundary contraction entry by entry,
the Legendre-Bernstein conversion by exact inversion of monomial
matrices, the reference kernel evaluated spline by spline through
``PiecewisePolynomial`` and integrated one interval at a time, the
interior filter weights by Gauss quadrature, and RK4 of upwind DG stage by
stage in 128-bit fixed point: unit speed, and tp3's variable speed and
source with sines by integer Taylor series.  They are kept deliberately
plain; the library must agree with the exact ones exactly, with the
quadrature to roundoff, and with the fixed-point steppers about as
closely as the float per-stage stepper does.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, floor
from operator import mul

import numpy as np

from siacpost.exact import RatMatrix, RatPoly, SingularMatrixError, invert_exact
from siacpost.filters import FilterSpec, build_spec, static_coefficients
from siacpost.psiac import FloatKernel, _t_integers
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


def bspline_piecewise_reference(knots, k: int) -> PiecewisePolynomial:
    """Unit-integral B-spline by Cox-de Boor on RatPoly pieces, span by span."""
    t = as_knots(knots)
    distinct = sorted(set(t))
    nil = RatPoly([0])
    cur = []
    for i in range(k + 1):
        row = [nil] * (len(distinct) - 1)
        if t[i] < t[i + 1]:
            row[distinct.index(t[i])] = RatPoly([1])
        cur.append(row)
    for j in range(1, k + 1):
        nxt = []
        for i in range(k + 1 - j):
            d1 = t[i + j] - t[i]
            d2 = t[i + j + 1] - t[i + 1]
            row = []
            for s in range(len(distinct) - 1):
                acc = RatPoly([0])
                if d1 != 0:
                    acc = acc + RatPoly([-t[i] / d1, 1 / d1]) * cur[i][s]
                if d2 != 0:
                    acc = acc + RatPoly([t[i + j + 1] / d2, -1 / d2]) * cur[i + 1][s]
                row.append(acc)
            nxt.append(row)
        cur = nxt
    scale = Fraction(k + 1) / (t[-1] - t[0])
    return PiecewisePolynomial(distinct, [p * scale for p in cur[0]])


def bernstein_moments_reference(dg_degree: int, top: int, lo: Fraction, hi: Fraction
                                ) -> list[list[Fraction]]:
    """beta[i][ell] = integral over [lo, hi] of u^i phi_ell(u) du, in Fractions."""
    bern = [bernstein_poly(dg_degree, ell) for ell in range(dg_degree + 1)]
    return [[(RatPoly([0] * i + [1]) * b).integral(lo, hi) for b in bern]
            for i in range(top + 1)]


def element_integrals_reference(knots, k: int, dg_degree: int
                                ) -> list[tuple[int, list[Fraction]]]:
    """(e, integral over [e, e+1] of B(sigma | knots) phi_ell(sigma - e) per ell), per element.

    Each RatPoly piece is recentred on each element it meets and
    integrated against the Bernstein moments of the part it covers.
    """
    pp = bspline_piecewise_reference(knots, k)
    bp = pp.breakpoints
    out: dict[int, list[Fraction]] = {}
    for piece, a, b in zip(pp.pieces, bp, bp[1:]):
        for e in range(floor(a), ceil(b)):
            q = piece.recentered(e).coeffs
            beta = bernstein_moments_reference(dg_degree, k, max(a, e) - e, min(b, e + 1) - e)
            acc = out.setdefault(e, [Fraction(0)] * (dg_degree + 1))
            for ell in range(dg_degree + 1):
                acc[ell] += sum(c * beta[i][ell] for i, c in enumerate(q))
    return sorted(out.items())


def t_matrix_by_elements(spec: FilterSpec, dg_degree: int) -> RatMatrix:
    """T in kernel B-spline order, each column from ``element_integrals_reference``."""
    nb = dg_degree + 1
    lam = spec.knots[-1]
    cols = []
    for w, k in zip(spec.windows, spec.degrees):
        col = [Fraction(0)] * (int(spec.support_width) * nb)
        for e, vals in element_integrals_reference([lam - t for t in reversed(w)], k, dg_degree):
            col[e * nb:(e + 1) * nb] = vals
        cols.append(col)
    return RatMatrix.from_rows([list(row) for row in zip(*cols)])


def t_matrix_natural_reference(spec: FilterSpec, dg_degree: int) -> RatMatrix:
    """T entry by entry: each reflected spline against each element Bernstein function."""
    lam = spec.knots[-1]
    splines = [bspline_piecewise_reference(tuple(lam - t for t in reversed(w)), k)
               for w, k in zip(spec.windows, spec.degrees)]
    bern = [bernstein_poly(dg_degree, ell) for ell in range(dg_degree + 1)]
    rows = []
    for e in range(int(spec.support_width)):
        for ell in range(dg_degree + 1):
            phi = compose_affine(bern[ell], 1, -e)  # phi(sigma) on [e, e+1]
            rows.append([pp.integrate_against(phi, e, e + 1) for pp in splines])
    return RatMatrix.from_rows(rows)


def t_matrix_natural(spec: FilterSpec, dg_degree: int) -> RatMatrix:
    """The library's T (``psiac._t_integers``) as Fractions, in kernel B-spline order."""
    rows, den = _t_integers(spec, dg_degree)
    return RatMatrix.from_rows([[Fraction(v, den) for v in row] for row in rows])


def t_matrix(spec: FilterSpec, dg_degree: int | None = None) -> RatMatrix:
    """The library's T in the paper's column order.

    Column j holds the reflected spline of kernel component r - j: the
    order under which the piecewise-constant filter's T is block diagonal.
    """
    nat = t_matrix_natural(spec, spec.d if dg_degree is None else dg_degree)
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
    return tuple(np.array([float(e) for e in m.entries]).reshape(m.rows, m.cols)
                 for m in (l2b, b2l))


def float_kernel_reference(spec: FilterSpec, coeffs, offset: float, h: float) -> FloatKernel:
    """sum_j c_j B_j((s - offset)/h) / h, point by point through each spline's exact pieces.

    The piece that holds z is recentered about its left breakpoint b
    exactly, then evaluated at the float z - b.
    """
    cs = [float(c) for c in coeffs]
    pps = [unit_bspline_piecewise(w, k) for w, k in zip(spec.windows, spec.degrees)]

    def piece_value(pp, z):
        i = pp.piece_index(z)
        if i is None:
            return 0.0
        b = pp.breakpoints[i]
        return float(pp.pieces[i].recentered(b)(z - float(b)))

    def fn(s):
        z = (s - offset) / h
        return sum(c * piece_value(pp, z) for c, pp in zip(cs, pps)) / h

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


FIXED_POINT = 2 ** 128


def upwind_blocks_reference(d: int) -> tuple[list[list[int]], list[list[int]]]:
    """Diagonal and sub-diagonal blocks of h A, A the unit-speed upwind DG operator.

    Row n is the weak form against P_n times the inverse mass (2n + 1):
    the volume term int P_l P_n' (2 when n > l and n + l is odd, else 0)
    minus the outflow P_l(1) = 1 on the diagonal, and the inflow
    P_n(-1) P_l(1) = (-1)^n from the upwind element below it.
    """
    volume = lambda l, n: 2 if n > l and (n + l) % 2 else 0
    diag = [[(2 * n + 1) * (volume(l, n) - 1) for l in range(d + 1)] for n in range(d + 1)]
    sub = [[(2 * n + 1) * (-1) ** n for _ in range(d + 1)] for n in range(d + 1)]
    return diag, sub


def rk4_fixed_point(coeffs, nu: Fraction, steps: int, inflow=None) -> list[list[int]]:
    """Classical RK4 of u' = A u (+ Dirichlet inflow), on integers scaled by FIXED_POINT.

    coeffs are the float Legendre coefficients (n, d + 1), nu = dt / h
    exactly.  inflow is None for a periodic mesh, else one (g(t_k),
    g(t_k + dt/2), g(t_k + dt)) float triple per step, which enters as a
    ghost element below element 0 holding the constant g.  Each stage
    rounds once to 2^-128.
    """
    n, m = len(coeffs), len(coeffs[0])
    diag, sub = upwind_blocks_reference(m - 1)
    fixed = lambda x: round(Fraction(x) * FIXED_POINT)
    u = [[fixed(c) for c in row] for row in coeffs]

    def dt_a(v, g):
        out = []
        for i in range(n):
            below = [fixed(g)] + [0] * (m - 1) if i == 0 and g is not None else v[i - 1]
            out.append([nu.numerator * (sum(a * x for a, x in zip(diag[r], v[i]))
                                        + sum(a * x for a, x in zip(sub[r], below)))
                        // nu.denominator for r in range(m)])
        return out

    plus = lambda v, k, div: [[x + y // div for x, y in zip(r, s)] for r, s in zip(v, k)]
    for step in range(steps):
        g0, gh, g1 = inflow[step] if inflow is not None else (None, None, None)
        k1 = dt_a(u, g0)
        k2 = dt_a(plus(u, k1, 2), gh)
        k3 = dt_a(plus(u, k2, 2), gh)
        k4 = dt_a(plus(u, k3, 1), g1)
        u = [[x + (a + 2 * b + 2 * c + e) // 6 for x, a, b, c, e in zip(*rows)]
             for rows in zip(u, k1, k2, k3, k4)]
    return u


def fixed_point_error(coeffs, reference: list[list[int]]) -> float:
    """Largest |coefficient - reference / FIXED_POINT|, computed exactly and rounded once."""
    return float(max(abs(Fraction(c) - Fraction(r, FIXED_POINT))
                     for row, ref in zip(coeffs, reference) for c, r in zip(row, ref)))


def sin_cos_fixed(x: Fraction) -> tuple[int, int]:
    """(sin x, cos x) scaled by FIXED_POINT and rounded, |x| < 4 pi, by Taylor series on integers.

    The terms x^k / k! are summed with 64 guard bits until they vanish.
    At |x| < 4 pi the largest term is below 2^15, so the guard bits
    absorb the cancellation and no argument reduction is needed.
    """
    one = FIXED_POINT << 64
    xs = round(abs(x) * one)
    sums = [0, 0, 0, 0]  # of the terms by k mod 4
    term, k = one, 0
    while term:
        sums[k % 4] += term
        k += 1
        term = term * xs // (one * k)
    sin, cos = ((a - b + (1 << 63)) >> 64 for a, b in ((sums[1], sums[3]), (sums[0], sums[2])))
    return (sin if x >= 0 else -sin), cos


def _legendre_exact(x: Fraction, d: int) -> tuple[list[Fraction], list[Fraction]]:
    """P_l(x) and P_l'(x), l = 0..d, exactly, by the three-term recursions."""
    p, dp = [Fraction(1), x], [Fraction(0), Fraction(1)]
    for l in range(1, d):
        p.append(((2 * l + 1) * x * p[l] - l * p[l - 1]) / (l + 1))
        dp.append(dp[l - 1] + (2 * l + 1) * p[l])
    return p[:d + 1], dp[:d + 1]


def rk4_tp3_fixed_point(coeffs, h: float, nodes, faces, gx, gw, dt: float, times,
                        periodic: bool) -> list[list[int]]:
    """Classical RK4 of upwind DG for tp3's equation, on integers scaled by FIXED_POINT.

    u_t + (kappa u)_x = rho with kappa = 2 + sin(x + t), rho = cos(x - t)
    + sin(2x) and, when not periodic, the inflow g(t) = sin(faces[0] - t).
    coeffs are the float Legendre coefficients (n, d + 1).  The element
    width h, the quadrature points nodes (n, q), the faces (n + 1), the
    Gauss nodes gx and weights gw, dt and the per-step time levels
    (t_k, t_k + dt/2, t_k + dt) are the floats of the scheme, each lifted
    exactly.  On element i, with nu = dt / h and u^- the trace from the
    left,

        dt u_l' = nu (2l + 1) [sum_j gw_j kappa u P_l'(gx_j) - kappa u^-(x_(i+1))
                              + (-1)^l kappa u^-(x_i)] + dt (2l + 1) / 2 sum_j gw_j rho P_l(gx_j),

    where u^-(x_0) is the last element's right trace (periodic) or g.
    kappa, rho and g are evaluated to 2^-128 by angle addition from
    `sin_cos_fixed` of each point and each time; each stage rounds its
    products to 2^-128.
    """
    s = FIXED_POINT
    fixed = lambda x: round(Fraction(x) * s)
    n, m = len(coeffs), len(coeffs[0])
    legendre = [_legendre_exact(Fraction(float(x)), m - 1) for x in gx]
    pv = [[fixed(v) for v in p] for p, _ in legendre]              # [j][l] P_l(gx_j)
    dv = [[fixed(dp[l]) for _, dp in legendre] for l in range(m)]  # [l][j] P_l'(gx_j)
    wp = [[fixed(Fraction(float(w)) * p[l]) for w, (p, _) in zip(gw, legendre)]
          for l in range(m)]                                       # [l][j] gw_j P_l(gx_j)
    wq = [fixed(float(w)) for w in gw]
    nu, dt = Fraction(dt) / Fraction(h), Fraction(dt)
    flux = [((2 * l + 1) * nu.numerator, nu.denominator * s) for l in range(m)]
    source = [((2 * l + 1) * dt.numerator, 2 * dt.denominator * s) for l in range(m)]
    at_nodes = [[sin_cos_fixed(Fraction(float(x))) for x in row] for row in nodes]
    sin_2x = [[sin_cos_fixed(2 * Fraction(float(x)))[0] for x in row] for row in nodes]
    at_faces = [sin_cos_fixed(Fraction(float(x))) for x in faces]

    @lru_cache(maxsize=None)
    def level(t: float):
        """kappa gw at the nodes, kappa at the faces and dt times the source, at time t."""
        st, ct = sin_cos_fixed(Fraction(t))
        kappa = lambda sx, cx: 2 * s + (sx * ct + cx * st) // s  # 2 + sin(x + t)
        kw = [[kappa(*sc) * w // s for sc, w in zip(row, wq)] for row in at_nodes]
        kf = [kappa(*sc) for sc in at_faces]
        rho = [[(cx * ct + sx * st) // s + sin2 for (sx, cx), sin2 in zip(row, sin2_row)]
               for row, sin2_row in zip(at_nodes, sin_2x)]
        src = [[num * sum(map(mul, row, wp_l)) // den for wp_l, (num, den) in zip(wp, source)]
               for row in rho]
        if not periodic:  # (-1)^l kappa(x_0) g(t) enters element 0
            sa, ca = at_faces[0]
            g = (sa * ct - ca * st) // s  # sin(x_0 - t)
            src[0] = [x + (-1) ** l * num * kf[0] * g // den
                      for l, (x, (num, den)) in enumerate(zip(src[0], flux))]
        return kw, kf, src

    def dt_rhs(v, t):
        kw, kf, src = level(t)
        right = [k * sum(row) for k, row in zip(kf[1:], v)]
        left = [right[-1] if periodic else 0] + right[:-1]
        out = []
        for row, kw_row, src_row, fr, fl in zip(v, kw, src, right, left):
            w = [k * sum(map(mul, row, pj)) // s2 for k, pj in zip(kw_row, pv)]
            out.append([num * (sum(map(mul, w, dv_l)) - fr + sign * fl) // den + x
                        for dv_l, sign, (num, den), x in zip(dv, signs, flux, src_row)])
        return out

    s2, signs = s * s, [(-1) ** l for l in range(m)]
    plus = lambda v, k, div: [[x + y // div for x, y in zip(r, q)] for r, q in zip(v, k)]
    u = [[fixed(c) for c in row] for row in coeffs]
    for t0, th, t1 in times:
        k1 = dt_rhs(u, t0)
        k2 = dt_rhs(plus(u, k1, 2), th)
        k3 = dt_rhs(plus(u, k2, 2), th)
        k4 = dt_rhs(plus(u, k3, 1), t1)
        u = [[x + (a + 2 * b + 2 * c + e) // 6 for x, a, b, c, e in zip(*rows)]
             for rows in zip(u, k1, k2, k3, k4)]
    return u
