"""Reference implementations the tests compare the library against.

These are the straightforward forms of what the library computes by
faster kernels: Fraction Gauss-Jordan elimination, the moment matrix built
one moment at a time from complete homogeneous sums, B-spline pieces by
Cox-de Boor on RatPoly pieces, T integrated entry by entry through
``PiecewisePolynomial.integrate_against`` and element by element on
Fraction Bernstein moments (the library works on integers), the closed-form T
of the piecewise-constant filter, the boundary contraction entry by entry,
the Legendre-Bernstein conversion by exact inversion of monomial
matrices (and with it a Bernstein-row operator made to read Legendre
coefficients, entry by entry), the interior operator assembled in the
Bernstein basis on both sides, which the library's Legendre-to-monomial
operator must equal once composed with the exact basis maps, element
Legendre coefficients of a polynomial by exact integration, the
reference kernel evaluated spline by spline through
``PiecewisePolynomial`` and integrated one interval at a time, the
interior filter weights by Gauss quadrature, and RK4 of upwind DG stage by
stage in 128-bit fixed point: unit speed, and tp3's variable speed and
source with sines by integer Taylor series.  They are kept deliberately
plain; the library must agree with the exact ones exactly, with the
quadrature to roundoff, and with the fixed-point steppers about as
closely as the float per-stage stepper does.  The unit-speed increment
operator, every entry split by Fraction, the hi + lo split of a
``RatMatrix`` entry by entry, and the unit-speed stepper by a fancy-index
gather and two matmuls per step, and tp3's harmonic stepper with its
phase tables built afresh per block are the float forms the library must
match byte for byte.  The unit-integral B-spline at one point by
Cox-de Boor on Fractions is the reference the library's evaluator of the
integer pieces must match exactly, or rounded once at a float; the float
spline tables built from the ``Fraction`` view of the pieces are the ones
the library's integer-built tables must match byte for byte.  Helpers
only the tests call live here as well: a ``PiecewisePolynomial``
evaluated at one point, the kernel windows the B-spline tests sweep, and
the derivative of a ``RatPoly``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, factorial, floor, isfinite, lcm
from operator import mul

import numpy as np

from siacpost import dg, rk4
from siacpost.exact import (RatMatrix, RatPoly, SingularMatrixError, _over_common_denominator,
                            invert_exact)
from siacpost.filters import FilterSpec, build_spec, static_coefficients
from siacpost.psiac import FloatKernel, _bernstein_moments, _t_integers
from siacpost.spline import PiecewisePolynomial, as_knots, bernstein_poly, unit_bspline_piecewise


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
    cols = list(zip(*matrix_rows(b)))
    return RatMatrix.from_rows([[sum((x * y for x, y in zip(row, col)), Fraction(0))
                                 for col in cols] for row in matrix_rows(a)])


def hi_lo_reference(a: RatMatrix) -> np.ndarray:
    """The per-entry form of ``RatMatrix.hi_lo`` (Dekker, Numer. Math. 18, 1971): hi =
    x / den rounded once, p / q = hi exactly by ``float.as_integer_ratio``, and lo =
    (x q - p den) / (den q) rounded once; hi and lo on a new first axis."""
    his = [x / a.den for x in a.nums.flat]
    los = [(x * q - p * a.den) / (a.den * q)
           for x, (p, q) in zip(a.nums.flat, map(float.as_integer_ratio, his))]
    return np.array([his, los]).reshape((2,) + a.nums.shape)


def sliced_numerators_reference(a: RatMatrix, slice_bits: int) -> tuple[np.ndarray, int]:
    """The object-array form of ``RatMatrix._sliced_numerators``: slice b of every entry is
    (|x| >> slice_bits b) & (2^slice_bits - 1) times sign(x), each an object pass; the
    slices side by side as (rows, count * cols) floats."""
    grid = a.nums.reshape((*a.nums.shape, 1, 1)[:2])
    count = max(1, -(-max(abs(v).bit_length() for v in grid.flat) // slice_bits))
    mask = (1 << slice_bits) - 1
    parts = [((np.abs(grid) >> slice_bits * b) & mask) * np.sign(grid) for b in range(count)]
    return np.hstack(parts).astype(float), count


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
    return RatMatrix.from_rows([row[n:] for row in m])


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
    return RatMatrix.from_rows([[x * (-1) ** j for j, x in enumerate(row)]
                                for row in matrix_rows(minv)])


def poly_derivative(p: RatPoly) -> RatPoly:
    """p' exactly."""
    if len(p.coeffs) == 1:
        return RatPoly([0])
    return RatPoly([i * c for i, c in enumerate(p.coeffs)][1:])


def eval_unit_bspline(knots, k: int, x):
    """B(x|t) of degree k at one point, by Cox-de Boor on Fractions with 0/0 := 0.

    A float x is taken exactly, so the value is the exact Fraction.  The
    seed is the nonempty knot span that holds x: right-continuous at
    interior knots, the last one at the right end; 0 off the support and
    at NaN and the infinities.
    """
    t = as_knots(knots)
    if isinstance(x, float) and not isfinite(x):
        return 0
    x = Fraction(x)
    if x < t[0] or x > t[-1]:
        return 0
    seed = max(i for i in range(k + 1) if t[i] < t[i + 1] and t[i] <= x)
    n = [Fraction(i == seed) for i in range(k + 1)]
    for j in range(1, k + 1):
        n = [((x - t[i]) / (t[i + j] - t[i]) * n[i] if t[i + j] > t[i] else 0)
             + ((t[i + j + 1] - x) / (t[i + j + 1] - t[i + 1]) * n[i + 1]
                if t[i + j + 1] > t[i + 1] else 0)
             for i in range(k + 1 - j)]
    return (k + 1) / (t[-1] - t[0]) * n[0]


def kernel_windows() -> list[tuple[tuple[Fraction, ...], int]]:
    """The distinct (window, k) of srv, rlkv, np0, rs, npk (k = 1) and symmetric at
    d = 1..4, both sides, each window shifted by xi in {0, 1/3, -7/2}."""
    specs = [build_spec("symmetric", d) for d in range(1, 5)]
    specs += [build_spec(fam, d, side, k=1 if fam == "npk" else None)
              for fam in ("srv", "rlkv", "np0", "rs", "npk")
              for d in range(1, 5) for side in ("left", "right")]
    return sorted({(tuple(t + xi for t in w), k) for xi in (Fraction(0), Fraction(1, 3),
                                                             Fraction(-7, 2))
                   for spec in specs for w, k in zip(spec.windows, spec.degrees)})


def float_spline_reference(window, k: int) -> tuple[np.ndarray, np.ndarray]:
    """`psiac._float_spline`'s tables from the Fraction view: each piece of
    `unit_bspline_piecewise` recentred on its left breakpoint by `RatPoly`."""
    pp = unit_bspline_piecewise(window, k)
    pieces = [p.recentered(b).coeffs for p, b in zip(pp.pieces, pp.breakpoints)]
    rows = [[0.0] * (k + 1 - len(p)) + [float(c) for c in reversed(p)]
            for p in pieces] + [[0.0] * (k + 1)]
    return np.array([float(b) for b in pp.breakpoints]), np.array(rows)


def piece_index(pp: PiecewisePolynomial, x) -> int | None:
    """The piece of pp that holds x (the last one at the right end); None off the support."""
    bp = pp.breakpoints
    if x < bp[0] or x > bp[-1]:
        return None
    if x == bp[-1]:
        return len(pp.pieces) - 1
    lo, hi = 0, len(pp.pieces)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if x < bp[mid]:
            hi = mid
        else:
            lo = mid
    return lo


def piecewise_value(pp: PiecewisePolynomial, x):
    """pp at x: its piece's value there, 0 off the support."""
    i = piece_index(pp, x)
    return 0 if i is None else pp.pieces[i](x)


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
    """The library's T (``psiac._t_integers``), in kernel B-spline order."""
    return _t_integers(spec, dg_degree)


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

    coeff_rows: per-element coefficients across the window, in the basis and
    element-major order of the rows of Q.
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
    Legendre coefficient ell of element e + e0 + de; (e0, W) is returned.
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
            kv = np.array([piecewise_value(kernel, f - s) for s in nodes])
            basis = np.polynomial.legendre.legvander(2 * (nodes - e) - 1, dg_degree)
            weights[de] += rad * (gw * kv) @ basis
    return e0, weights


def _bernstein_element_convolutions(d: int, dg_degree: int) -> list[list[list[int]]]:
    """[k][ell]: d! n! G_ell(k + p) in monomials of p in [0, 1], n = d + dg_degree + 1, for
    phi_ell the element Bernstein basis (`psiac._element_convolutions` reads Legendre)."""
    g, n = dg_degree, d + dg_degree + 1
    nf = factorial(n)
    phi = [[int(b) for b in bernstein_poly(g, ell).coeffs] for ell in range(g + 1)]
    beta, den = _bernstein_moments(g, d, 0, 1)  # int_0^1 v^m phi_ell(v) dv = beta / den
    moments = [[beta[m][ell] * nf // den for m in range(d + 1)] for ell in range(g + 1)]
    tails = [nf // factorial(d + c + 1) * factorial(d) * factorial(c) for c in range(g + 1)]
    out = []
    for k in range(d + 2):
        alpha = [sum((-1) ** i * comb(d + 1, i) * comb(d, a) * (k - i) ** (d - a)
                     for i in range(k)) for a in range(d + 1)]
        jump = (-1) ** k * comb(d + 1, k)
        pieces = []
        for row, mom in zip(phi, moments):
            poly = [0] * (n + 1)
            for a, al in enumerate(alpha):
                for s in range(a + 1):
                    poly[s] += al * comb(a, s) * (-1) ** (a - s) * mom[a - s]
            for c, f in enumerate(row):
                poly[d + c + 1] += jump * f * tails[c]
            pieces.append(poly)
        out.append(pieces)
    return out


def bernstein_interior_operator(d: int, dg_degree: int) -> tuple[tuple[int, ...], RatMatrix]:
    """(offsets, exact) of the interior operator from element Bernstein coefficients to
    the output's Bernstein coefficients on each piece: the operator in the Bernstein
    basis on both sides, assembled on integers as `psiac.interior_operator` is."""
    spec = build_spec("symmetric", d)
    cs, dc = _over_common_denominator(static_coefficients(spec))
    conv = _bernstein_element_convolutions(d, dg_degree)
    n = d + dg_degree + 1
    pieces = 1 if d % 2 else 2
    # monomial coefficients in t -> n! times the Bernstein coefficients on [0, 1]
    to_bern = [[comb(kb, i) * factorial(i) * factorial(n - i) if i <= kb else 0
                for i in range(n + 1)] for kb in range(n + 1)]
    offsets, numerators = [], []
    for q in range(pieces):
        theta = int(pieces * spec.mu + q) % pieces
        # pieces^n p^i = pieces^(n-i) (theta + t)^i
        change = [[sum(to_bern[kb][s] * pieces ** (n - i) * comb(i, s) * theta ** (i - s)
                       for s in range(i + 1)) for i in range(n + 1)] for kb in range(n + 1)]
        bern = [[[sum(map(mul, row, poly)) for row in change] for poly in piece]
                for piece in conv]
        rows = []
        for i in range(3 * d + 2):
            terms = [(c, bern[3 * d + 1 - j - i]) for j, c in enumerate(cs)
                     if 0 <= 3 * d + 1 - j - i <= d + 1]
            for ell in range(dg_degree + 1):
                rows.append(tuple(sum(c * b[ell][kb] for c, b in terms) for kb in range(n + 1)))
        offsets.append(floor(spec.mu + Fraction(q, pieces)) - 3 * d - 1)
        numerators.append(tuple(rows))
    den = factorial(d) * factorial(n) ** 2 * pieces ** n * dc
    return tuple(offsets), RatMatrix(numerators, den)


@lru_cache(maxsize=None)
def _element_legendre_map(mesh_a: Fraction, h: Fraction, n: int, d: int
                          ) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], int]:
    """(nums, den): nums[i][l][k] / den is the l-th Legendre coefficient, on element i, of x^k.

    On element i, x = x0 + h u with x0 = mesh_a + i h, so x^k = sum_j C(k, j) x0^(k-j) h^j u^j,
    and (2l + 1) int_0^1 u^j P_l(2u - 1) du = (2l + 1) j!^2 / ((j + l + 1)! (j - l)!), zero for
    j < l.  With mesh_a = A / D and h = H / D, D^d (2d + 1)! clears every denominator.
    """
    scale = lcm(mesh_a.denominator, h.denominator)
    a, step = int(mesh_a * scale), int(h * scale)
    top = factorial(2 * d + 1)
    moment = [[(2 * l + 1) * top * factorial(j) ** 2 // (factorial(j + l + 1) * factorial(j - l))
               if j >= l else 0 for l in range(d + 1)] for j in range(d + 1)]
    nums = tuple(tuple(tuple(sum(comb(k, j) * (a + i * step) ** (k - j) * step ** j
                                 * scale ** (d - k) * moment[j][l] for j in range(k + 1))
                             for k in range(d + 1)) for l in range(d + 1)) for i in range(n))
    return nums, scale ** d * top


def legendre_coeffs_of_poly(poly: RatPoly, mesh_a: Fraction, h: Fraction,
                            n: int, d: int) -> list[list[Fraction]]:
    """Exact degree-d Legendre coefficients of a global polynomial on n elements.

    Element i is [mesh_a + i h, mesh_a + (i+1) h]; coefficient l is (2l + 1) times the
    integral over [0, 1] of p(mesh_a + (i + u) h) P_l(2u - 1) du, one integer map per
    mesh and degree applied to the polynomial's coefficients over their common denominator.
    """
    if poly.degree > d:
        raise ValueError("polynomial degree exceeds the element degree")
    nums, den = _element_legendre_map(Fraction(mesh_a), Fraction(h), n, d)
    cs = [Fraction(c) for c in poly.coeffs] + [Fraction(0)] * (d + 1 - len(poly.coeffs))
    cden = lcm(*(c.denominator for c in cs))
    ints = [int(c * cden) for c in cs]
    return [[Fraction(sum(map(mul, ints, row)), den * cden) for row in element]
            for element in nums]


def _piecewise_sum(terms) -> PiecewisePolynomial:
    """sum of c * pp over (c, pp) terms, exactly, on the union of the breakpoints."""
    cuts = sorted({b for _, pp in terms for b in pp.breakpoints})
    pieces = []
    for a, b in zip(cuts, cuts[1:]):
        acc = RatPoly([0])
        for c, pp in terms:
            i = piece_index(pp, (a + b) / 2)
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


def _monomials(polys, d: int) -> RatMatrix:
    """Row i, column j: the coefficient of u^i of polys[j], up to degree d."""
    return RatMatrix.from_rows([[p.coeffs[i] if i < len(p.coeffs) else 0 for p in polys]
                                for i in range(d + 1)])


@lru_cache(maxsize=None)
def legendre_bernstein_exact(d: int) -> tuple[RatMatrix, RatMatrix]:
    """(Legendre -> Bernstein, Bernstein -> Legendre) exactly, by exact inversion.

    Columns of the two monomial matrices are the shifted Legendre and the
    Bernstein polynomials of degree d; each conversion is one inverse times
    the other.
    """
    leg = _monomials(_legendre_shifted_polys(d), d)
    bern = _monomials([bernstein_poly(d, ell) for ell in range(d + 1)], d)
    return invert_exact(bern) @ leg, invert_exact(leg) @ bern


def legendre_bernstein_reference(d: int) -> tuple[np.ndarray, np.ndarray]:
    """`legendre_bernstein_exact` as float arrays, each entry rounded once."""
    return tuple(np.array([float(e) for e in m.entries]).reshape(m.rows, m.cols)
                 for m in legendre_bernstein_exact(d))


def legendre_rows(m: RatMatrix, dg_degree: int) -> RatMatrix:
    """blockdiag(L2B^T) . m by Fraction multiply-adds: an operator whose rows are
    element-major Bernstein indices, made to read Legendre coefficients instead."""
    l2b, nb = legendre_bernstein_exact(dg_degree)[0], dg_degree + 1
    rows = matrix_rows(m)
    return RatMatrix.from_rows([[sum(l2b.row(j)[k] * rows[e * nb + j][c] for j in range(nb))
                                 for c in range(m.cols)]
                                for e in range(m.rows // nb) for k in range(nb)])


def bernstein_to_monomial(n: int) -> RatMatrix:
    """Row k: the monomial coefficients of the degree-n Bernstein polynomial k, so that
    Bernstein coefficients b (a row) have the monomial coefficients b . M."""
    polys = [bernstein_poly(n, k).coeffs for k in range(n + 1)]
    return RatMatrix.from_rows([[c[i] if i < len(c) else 0 for i in range(n + 1)] for c in polys])


def float_kernel_reference(spec: FilterSpec, coeffs, offset: float, h: float) -> FloatKernel:
    """sum_j c_j B_j((s - offset)/h) / h, point by point through each spline's exact pieces.

    The piece that holds z is recentered about its left breakpoint b
    exactly, then evaluated at the float z - b.
    """
    cs = [float(c) for c in coeffs]
    pps = [unit_bspline_piecewise(w, k) for w, k in zip(spec.windows, spec.degrees)]

    def piece_value(pp, z):
        i = piece_index(pp, z)
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


def increment_operator_reference(d: int, nu: Fraction) -> tuple[np.ndarray, np.ndarray]:
    """The plain form of rk4._increment_operators for one nu: every block of every power of
    h A, by Fraction.

    M[k, j] is the block on block sub-diagonal j of (h A)^k, k, j = 0..4,
    from `upwind_blocks_reference`.  Row j*m + l, column n of the blocks
    is entry (n, l) of B_j = sum_k nu^k / k! M[k, j], k = 1..4; the
    inflow rows are 6 c1, 6 c2 and 6 c4 of the Dirichlet step, as
    documented there.  Every entry is an integer over 24 q^4 (nu = p/q),
    split into its correctly rounded float hi and the correctly rounded
    remainder lo.
    """
    m, p, q = d + 1, nu.numerator, nu.denominator
    diag, sub = (np.array(block, dtype=object) for block in upwind_blocks_reference(d))
    powers = np.zeros((5, 5, m, m), dtype=object)
    powers[0, 0] = np.eye(m, dtype=int).astype(object)
    for k in range(1, 5):
        powers[k] = diag @ powers[k - 1]
        powers[k, 1:] += sub @ powers[k - 1, :-1]
    blocks = sum(24 // factorial(k) * p ** k * q ** (4 - k) * powers[k] for k in range(1, 5))
    b = (2 * np.arange(m) + 1) * (-1) ** np.arange(m)
    inflow = [sum(w * p ** (k + 1) * q ** (3 - k) * (powers[k, :4] @ b) for k, w in enumerate(ws))
              for ws in ((4, 4, 2, 1), (16, 8, 2), (4,))]

    def hi_lo(nums):
        exact = [Fraction(int(x), 24 * q ** 4) for x in nums.ravel()]
        his = [float(x) for x in exact]
        los = [float(x - Fraction(hi)) for x, hi in zip(exact, his)]
        return np.array([his, los]).reshape((2,) + nums.shape)

    return (hi_lo(blocks.transpose(0, 2, 1)).reshape(2, 5 * m, m),
            hi_lo(np.array(inflow)).reshape(2, 3, 4 * m))


def increment_steps_reference(field, problem, dt: float, steps: int):
    """The plain form of dg._increment_steps: per step a fancy-index gather of the
    five-element windows, two matmuls and an add; yields (step, u)."""
    n, m, periodic = field.mesh.n, field.d + 1, problem.bc == "periodic"
    (hi, lo), inflow = increment_operator_reference(field.d,
                                                    Fraction(dt) / Fraction(field.mesh.h))
    pad = 0 if periodic else 4  # zero rows: the missing upwind neighbours of an inflow
    padded = np.zeros((n + pad, m))
    u = padded[:n]
    u[:] = field.coeffs
    windows = (np.arange(n)[:, None] - np.arange(5)) % (n + pad)
    for start, times in dg._time_blocks(field.time, dt, steps, dg._TABLE_FLOATS // (4 * m)):
        if not periodic:
            g = problem.inflow(times).reshape(-1, 3)
            corrections = (g @ inflow[0] + g @ inflow[1]).reshape(len(g), 4, m)[:, :n]
        for k in range(len(times) // 3):
            window = padded[windows].reshape(n, 5 * m)
            increment = window @ hi
            increment += window @ lo
            if not periodic:
                increment[:4] += corrections[k]
            u += increment
            yield start + k, u


def _compose_reference(stage, x, shift, lo: int, hi: int):
    """The single-operator form of rk4._compose: harmonics lo..hi of the stage applied after
    the operator x.

    stage: (own, inflow, v), for harmonics j2 = -1, 0, 1 of the element
    phase: the block on the element itself, (re, im) each (3, m, m), and
    the weight of the upwind neighbour's trace, (re, im) each (3,), which
    enters row l times v_l.  x: (x_lo, re, im), each (J, K, m, c), for
    harmonics x_lo .. x_lo + J - 1 and shifts 0 .. K - 1.  Harmonic j1 of
    the neighbour gains e^{-i j1 h}.
    """
    (own, inflow, v), (x_lo, xr, xi) = stage, x
    size, shifts = xr.shape[:2]
    out = [np.zeros((hi - lo + 1, shifts + 1) + xr.shape[2:], dtype=object) for _ in range(2)]
    phases = tuple(part[x_lo + 5:x_lo + 5 + size] for part in shift)
    traces = xr.sum(axis=2, keepdims=True), xi.sum(axis=2, keepdims=True)
    for j2 in (-1, 0, 1):
        j1_lo, j1_hi = max(x_lo, lo - j2), min(x_lo + size - 1, hi - j2)
        if j1_lo > j1_hi:
            continue
        rows = slice(j1_lo - x_lo, j1_hi - x_lo + 1)
        to = slice(j1_lo + j2 - lo, j1_hi + j2 - lo + 1)
        (ar, ai), br, bi = (own[0][j2 + 1], own[1][j2 + 1]), xr[rows], xi[rows]
        if j2:  # three real products (Gauss)
            t = ar @ (br + bi)
            on_own = (t - (ar + ai) @ bi) >> 128, (t + (ai - ar) @ br) >> 128
        else:  # kappa's constant 2: a real block
            on_own = (ar @ br) >> 128, (ar @ bi) >> 128
        weight = rk4._cprod((inflow[0][j2 + 1], inflow[1][j2 + 1]),
                           (phases[0][rows], phases[1][rows]))
        entering = rk4._cprod(weight, (traces[0][rows], traces[1][rows]))
        for part, a, b in zip(out, on_own, entering):
            part[to, :shifts] += a
            part[to, 1:] += v * b
    return (lo, *out)


def harmonic_operator_reference(d: int, h: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The single-pair form of rk4._harmonic_operators, composed for one (h, dt) and rounded
    by `RatMatrix.hi_lo`: tp3's RK4 increment on a periodic mesh of length 2 pi, entries as
    floats hi + lo.

    Returns (w, g).  w (5m, 18m): a step adds (phi(s_e), phi(s_e))
    [u_(e-4) ... u_e] [w_hi | w_lo], phi = (1, cos s, sin s, ..., cos 4s,
    sin 4s), s_e = x_e + t_k.  g (2, 22, m): the source adds (phi5(s_e),
    phi5(s_e)) (cos 2t_k g[0] + sin 2t_k g[1]), phi5 with harmonics up to
    5, rows 0-10 of g the hi parts and 11-21 the lo parts.  The stages
    are composed in the basis e^{ijs}: u's operator for j >= 0 only (the
    rest are conjugates), the source's for all j, without the factor
    e^{-2it_k} that every term of it shares.
    """
    own, inflow, beta, shift = rk4._harmonic_tables(d, h)
    m, dt_fixed = d + 1, rk4._lift(dt)[()]
    nu = (dt_fixed << 128) // rk4._lift(h)[()]
    v = np.array([[(2 * l + 1) * (-1) ** l] for l in range(m)], dtype=object)

    def harmonics(part, turn):  # nu times a stage part's harmonics -1, 0, 1, the 1 turned
        (re, im), (re1, im1) = part, rk4._cprod(turn, (part[0][1], part[1][1]))
        return (nu * np.array([re1, re[0], re1], dtype=object) >> 128,
                nu * np.array([-im1, im[0], im1], dtype=object) >> 128)

    stages, sources = [], []
    for tau in (0.0, 0.5 * dt, dt):
        turn = tuple(rk4._lift([np.cos(tau), np.sin(tau)]))  # e^{i tau}
        stages.append((harmonics(own, turn), harmonics(inflow, turn), v))
        first = rk4._cprod((turn[0], -turn[1]), (beta[0][0], beta[1][0]))  # e^{-i tau}
        sources.append(tuple((dt_fixed * np.array([a, b])[:, None, :, None]) >> 128
                             for a, b in zip(first, (beta[0][1], beta[1][1]))))

    def after(stage, x, halve):  # stage (I + x / 2^halve), x given for j >= 0
        _, r, i = x
        r, i = np.concatenate((r[:0:-1], r)) >> halve, np.concatenate((-i[:0:-1], i)) >> halve
        r[len(x[1]) - 1, 0] += np.eye(m, dtype=object) * rk4._ONE
        return _compose_reference(stage, (1 - len(x[1]), r, i), shift, 0, len(x[1]))

    def source_after(stage, x, source, halve):  # stage x / 2^halve + source, shifts summed
        lo, r, i = _compose_reference(stage, (x[0], x[1] >> halve, x[2] >> halve), shift,
                                      x[0] - 1, x[0] + len(x[1]))
        r, i = r.sum(axis=1, keepdims=True), i.sum(axis=1, keepdims=True)
        r[1 - lo:3 - lo] += source[0]
        i[1 - lo:3 - lo] += source[1]
        return lo, r, i

    p = [after(stages[0], (0, *np.zeros((2, 1, 1, m, m), dtype=object)), 0)]
    s = [(1, *sources[0])]
    for level, halve in ((1, 1), (1, 1), (2, 0)):  # K2 and K3 at t_k + dt/2, K4 at t_k + dt
        p.append(after(stages[level], p[-1], halve))
        s.append(source_after(stages[level], s[-1], sources[level], halve))
    def slots(re, im):  # of Re sum_j C_j e^{ijs} in phi: Re C_0, then 2 Re C_j, -2 Im C_j
        return np.concatenate((re[:1], np.stack((2 * re[1:], -2 * im[1:]), 1).reshape(
            (-1,) + re.shape[1:])))

    c = np.zeros((2, 5, 5, m, m), dtype=object)
    for weight, (_, r, i) in zip((1, 2, 2, 1), p):
        c[:, :len(r), :r.shape[1]] += weight * np.array([r, i])
    w = RatMatrix(slots(*c)[:, ::-1] // 6, rk4._ONE).hi_lo()
    w = w.transpose(2, 4, 0, 1, 3).reshape(5 * m, 18 * m)
    g = np.zeros((2, 8, m), dtype=object)  # harmonics -2..5 of the part with e^{-2it_k}
    for weight, (lo, r, i) in zip((1, 2, 2, 1), s):
        g[:, lo + 2:lo + 2 + len(r)] += weight * np.array([r[:, 0, :, 0], i[:, 0, :, 0]])
    # e^{-2it} g_j + conj(e^{-2it} g_(-j))
    #     = cos 2t (g_j + conj g_(-j)) - i sin 2t (g_j - conj g_(-j))
    (pos_r, pos_i), neg = g[:, 2:], np.zeros((2, 6, m), dtype=object)
    neg[:, :3] = g[:, 2::-1]
    g = np.array([slots(pos_r + neg[0], pos_i - neg[1]), slots(pos_i + neg[1], neg[0] - pos_r)])
    return w, RatMatrix(g // 6, rk4._ONE).hi_lo().transpose(1, 0, 2, 3).reshape(2, 22, m)


def harmonic_steps_reference(field, problem, dt: float, steps: int, operator):
    """The plain form of dg._harmonic_steps with the operator (w, g) given: the phase and
    source rows of each block built by `concatenate`, and the wrapped rows, the flat terms
    and the increment row taken afresh at each step; yields (step, u)."""
    n, m = field.mesh.n, field.d + 1
    w, g = operator
    padded = np.empty((n + 4, m))
    u = padded[4:]
    u[:] = field.coeffs
    windows = np.lib.stride_tricks.as_strided(padded, (n, 5 * m), padded.strides, writeable=False)
    wrap = slice(n - 4, n) if n >= 4 else np.arange(-4, 0) % n
    terms, increment = np.empty((n, 18, m)), np.empty((n, 1, m))
    mids = field.mesh.a + (np.arange(n) + 0.5) * field.mesh.h
    cx, sx = np.cos(mids), np.sin(mids)
    for start, times in dg._time_blocks(field.time, dt, steps,
                                        max(1, dg._TABLE_FLOATS // (18 * n))):
        t = times[::3, None]
        ct, st = np.cos(t), np.sin(t)
        powers = np.empty((len(t), n, 5), dtype=complex)  # e^{ijs}, j = 1..5, s = x_e + t_k
        powers[..., 0] = (cx * ct - sx * st) + 1j * (sx * ct + cx * st)
        for j in range(1, 5):
            np.multiply(powers[..., j - 1], powers[..., 0], out=powers[..., j])
        phi = np.concatenate((np.ones((len(t), n, 1)), powers.view(float)), axis=-1)
        rows = np.concatenate((phi[..., :9], phi[..., :9]), axis=-1)[:, :, None, :]
        turn = (ct * ct - st * st)[:, :, None] * g[0] + (2 * st * ct)[:, :, None] * g[1]
        sources = np.concatenate((phi, phi), axis=-1) @ turn
        for k in range(len(t)):
            padded[:4] = u[wrap]
            np.matmul(windows, w, out=terms.reshape(n, 18 * m))
            np.matmul(rows[k], terms, out=increment)
            increment[:, 0] += sources[k]
            u += increment[:, 0]
            yield start + k, u


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
