"""Position-dependent filtering of DG output.

Geometry and orientation conventions (all in prototype coordinates
sigma = (x - a)/h, where elements are the unit intervals [e, e+1]):

  * A boundary kernel evaluated at sigma has knots t + sigma - lam_g,
    where lam_g = t_n for the left side and lam_g = N + t_0 for the right
    side.  The data window it reads is then sigma-independent:
    [lam_g - t_n, lam_g - t_0], i.e. the first or last (t_n - t_0)
    elements of the mesh.
  * Inside the convolution integral the j-th kernel B-spline appears, as
    a function of the data variable, as the B-spline over the reflected
    window lam_g - reverse(W_j).  The T matrix integrates each element
    Bernstein function against these reflected splines; everything is
    exact rational.
  * The filtered output over the boundary region is the single polynomial
    u_I . Q . [xihat^m], xihat = sigma - lam_g = x/h - lambda.

Q = T . M^-1 . diag((-1)^m) is assembled exactly once per (spec, DG
degree); floats appear only when results are contracted with DG data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, ceil, floor, lcm
from operator import mul

import numpy as np

from .exact import RatMatrix, RatPoly, rat
from .filters import (FilterSpec, build_spec, shifted_coefficient_polynomials,
                      static_coefficients)
from .spline import PiecewisePolynomial, bernstein_poly, unit_bspline_piecewise


class WindowOutOfDomainError(ValueError):
    """Kernel data window does not fit inside the data domain."""


class MeshTooCoarseError(WindowOutOfDomainError):
    """Mesh has fewer elements than the kernel window spans."""


class OutsideInteriorRegionError(ValueError):
    """Symmetric filtering requested outside [a + mu h, b - mu h]."""


class EmptyOverlapError(ValueError):
    """Blend overlap interval is empty."""


# ---------------------------------------------------------------------------
# exact operator assembly


def _reflected_splines(spec: FilterSpec) -> list[PiecewisePolynomial]:
    """Kernel B-splines as seen by the data variable, in local coordinates.

    Local frame: the data window is [0, w], w = t_n - t_0.  Spline j maps
    to the B-spline over t_n - reverse(W_j).
    """
    lam = spec.knots[-1]
    out = []
    for w, k in zip(spec.windows, spec.degrees):
        refl = tuple(lam - t for t in reversed(w))
        out.append(unit_bspline_piecewise(refl, k))
    return out


@lru_cache(maxsize=None)
def _local_window_elements(spec: FilterSpec) -> int:
    width = spec.support_width
    if width.denominator != 1:
        raise ValueError("kernel span must be a whole number of elements")
    return int(width)


@lru_cache(maxsize=None)
def _t_matrix_natural(spec: FilterSpec, dg_degree: int) -> RatMatrix:
    """T with columns in kernel B-spline order (not the reversed paper order)."""
    splines = _reflected_splines(spec)
    n_el = _local_window_elements(spec)
    rows = []
    bern = [bernstein_poly(dg_degree, ell) for ell in range(dg_degree + 1)]
    for e in range(n_el):
        for ell in range(dg_degree + 1):
            phi = bern[ell].compose_affine(1, -e)  # phi(sigma) on [e, e+1]
            rows.append([pp.integrate_against(phi, e, e + 1) for pp in splines])
    return RatMatrix.from_rows(rows)


def t_matrix(spec: FilterSpec, dg_degree: int | None = None) -> RatMatrix:
    """Exact inner-product matrix of element basis against kernel splines.

    Columns follow the reversal convention under which the piecewise-
    constant filter's T is block diagonal: column j holds the reflected
    spline of kernel component r - j.
    """
    dg = spec.d if dg_degree is None else dg_degree
    nat = _t_matrix_natural(spec, dg)
    ncol = nat.cols
    return RatMatrix.from_rows([[row[ncol - 1 - j] for j in range(ncol)]
                                for row in nat.to_rows()])


def np0_t_matrix(d: int) -> RatMatrix:
    """Closed form for the piecewise-constant filter: I_{3d+1} (x) ones/(d+1)."""
    n = 3 * d + 1
    rows = []
    for i in range(n):
        for _ in range(d + 1):
            rows.append([Fraction(int(i == j), d + 1) for j in range(n)])
    return RatMatrix.from_rows(rows)


@dataclass(frozen=True)
class QMatrix:
    """Exact filtered-output operator for one spec and DG degree.

    Rows are element-major DG Bernstein indices over the kernel window
    (n_elements * (dg_degree+1)); column m gives the coefficient of
    xihat^m of the output polynomial.
    """

    spec: FilterSpec
    dg_degree: int
    q: RatMatrix
    n_elements: int

    def contract_exact(self, coeff_rows) -> RatPoly:
        """Output polynomial (exact) for rational window coefficients.

        coeff_rows: per-element sequences of dg_degree+1 Bernstein
        coefficients, elements ordered left to right across the window.
        """
        flat = [rat(c) if not isinstance(c, Fraction) else c
                for row in coeff_rows for c in row]
        if len(flat) != self.q.rows:
            raise ValueError("coefficient count does not match window")
        cols = self.q.cols
        acc = [Fraction(0)] * cols
        for u, i in zip(flat, range(self.q.rows)):
            if u:
                row = self.q.row(i)
                for m in range(cols):
                    acc[m] += u * row[m]
        return RatPoly(acc)

    @cached_property
    def _integer_columns(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(columns of Q as integer numerators, their one common denominator)."""
        den = lcm(*(e.denominator for e in self.q.entries))
        cols = tuple(tuple(e.numerator * (den // e.denominator) for e in self.q.col(m))
                     for m in range(self.q.cols))
        return cols, den

    def contract(self, coeff_rows: np.ndarray) -> np.ndarray:
        """Float coefficient vector of the output polynomial.

        The contraction is exact and runs on integers.  The window floats
        are lifted losslessly with ``float.as_integer_ratio`` to integers
        over one power-of-two scale S; Q is held (cached on first use) as
        integer columns over one common denominator D.  Each output
        coefficient is then one big-integer dot product divided once by
        D*S, and int / int rounds correctly, so the result is bit for bit
        ``contract_exact(...).to_float()`` zero-padded to ``q.cols``.
        Large-coefficient kernels stay stable; only the final
        coefficients are rounded.
        """
        flat = np.asarray(coeff_rows, dtype=float).reshape(-1)
        if flat.size != self.q.rows:
            raise ValueError("coefficient count does not match window")
        ratios = [v.as_integer_ratio() for v in flat.tolist()]
        scale = max(q for _, q in ratios)
        window = [p * (scale // q) for p, q in ratios]
        cols, den = self._integer_columns
        den *= scale
        return np.array([sum(map(mul, window, col)) / den for col in cols])


@lru_cache(maxsize=None)
def q_matrix(spec: FilterSpec, dg_degree: int | None = None) -> QMatrix:
    """Assemble Q = T . M^-1 . diag((-1)^m) exactly."""
    dg = spec.d if dg_degree is None else dg_degree
    nat = _t_matrix_natural(spec, dg)
    coeff = shifted_coefficient_polynomials(spec)
    q = nat @ coeff.matrix
    return QMatrix(spec=spec, dg_degree=dg, q=q, n_elements=_local_window_elements(spec))


def endpoint_vector(spec: FilterSpec, dg_degree: int | None = None) -> list[Fraction]:
    """Assembled filter vector for evaluation at the domain endpoint.

    This is Q applied to the shift powers at the endpoint (xihat = -lam
    for a left filter, +lam for a right one): one exact rational weight
    per DG Bernstein coefficient in the window.
    """
    qm = q_matrix(spec, dg_degree)
    xi = -spec.lam if spec.side != "right" else spec.lam
    powers = [xi ** m for m in range(qm.q.cols)]
    return [sum(c * p for c, p in zip(qm.q.row(i), powers)) for i in range(qm.q.rows)]


# ---------------------------------------------------------------------------
# boundary filtering of DG fields


@dataclass
class BoundaryPolynomial:
    """Filtered DG output over a boundary region: a single polynomial.

    Coefficients are ascending in the scaled variable (x - anchor)/h;
    anchor is the physical position where the variable vanishes.
    """

    coeffs: np.ndarray
    h: float
    anchor: float
    region: tuple[float, float]
    side: str

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        z = (np.asarray(x, dtype=float) - self.anchor) / self.h
        acc = np.zeros_like(z)
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc if acc.shape else float(acc)

    def derivative(self, order: int = 1) -> "BoundaryPolynomial":
        cs = np.asarray(self.coeffs, dtype=float)
        for _ in range(order):
            cs = np.array([m * cs[m] for m in range(1, len(cs))]) / self.h
            if len(cs) == 0:
                cs = np.zeros(1)
        return BoundaryPolynomial(coeffs=cs, h=self.h, anchor=self.anchor,
                                  region=self.region, side=self.side)

    def physical_coefficients(self) -> np.ndarray:
        """Coefficients a_k of sum a_k (x - anchor)^k."""
        return np.array([c / self.h ** k for k, c in enumerate(self.coeffs)])


def _window_placement(spec: FilterSpec, n_elements: int):
    """(first window element, lam_global, region in sigma units)."""
    width = _local_window_elements(spec)
    if n_elements < width:
        raise MeshTooCoarseError(
            f"kernel window spans {width} elements but the mesh has {n_elements}")
    lam = spec.lam
    if spec.side == "right":
        return n_elements - width, Fraction(n_elements) + spec.knots[0], \
            (Fraction(n_elements) - lam, Fraction(n_elements))
    return 0, spec.knots[-1], (Fraction(0), lam)


def filter_boundary(field, spec: FilterSpec, side: str | None = None) -> BoundaryPolynomial:
    """Filter a DG field near one domain end into a BoundaryPolynomial.

    ``side`` defaults to the spec's own side.  The field is converted to
    the Bernstein element basis if needed.
    """
    from .dg import to_bernstein
    if side is not None and side != spec.side:
        spec = build_spec(spec.family, spec.d, side,
                          k=None if spec.family != "npk" else spec.degrees[0])
    fld = to_bernstein(field)
    mesh = fld.mesh
    first, lam_g, (s_lo, s_hi) = _window_placement(spec, mesh.n)
    qm = q_matrix(spec, fld.d)
    window = fld.coeffs[first:first + qm.n_elements]
    coeffs = qm.contract(window)
    h = mesh.h
    return BoundaryPolynomial(
        coeffs=coeffs, h=h, anchor=mesh.a + float(lam_g) * h,
        region=(mesh.a + float(s_lo) * h, mesh.a + float(s_hi) * h),
        side=spec.side)


def filter_boundary_derivative(field, spec: FilterSpec, side: str | None = None,
                               order: int = 1) -> BoundaryPolynomial:
    """Derivative of the filtered polynomial, via the explicit coefficients."""
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    if order > spec.r:
        raise ValueError("derivative order exceeds the polynomial degree")
    poly = filter_boundary(field, spec, side)
    return poly.derivative(order) if order else poly


# ---------------------------------------------------------------------------
# interior (symmetric) filtering


@lru_cache(maxsize=None)
def _symmetric_kernel_pp(d: int) -> PiecewisePolynomial:
    """The symmetric kernel as one exact piecewise polynomial (prototype)."""
    spec = build_spec("symmetric", d)
    coeffs = static_coefficients(spec)
    acc = None
    for c, w, k in zip(coeffs, spec.windows, spec.degrees):
        pp = unit_bspline_piecewise(w, k).scaled(c)
        acc = pp if acc is None else acc + pp
    return acc


_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(n: int):
    if n not in _GAUSS_CACHE:
        _GAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GAUSS_CACHE[n]


@lru_cache(maxsize=None)
def symmetric_filter_weights(d: int, dg_degree: int, frac) -> tuple[int, np.ndarray]:
    """Contraction weights for one fractional position inside an element.

    For evaluation at sigma = e + frac the filtered value is
    sum over (de, ell) of W[de, ell] * bernstein_coeffs[e + e0 + de, ell],
    where (e0, W) is the return value.  Quadrature is exact for the
    polynomial integrands, so the weights are exact up to roundoff.
    """
    kernel = _symmetric_kernel_pp(d)
    f = float(frac)
    mu = float(kernel.breakpoints[-1])
    snap = 1e-11  # guards against float fuzz at element-aligned points
    e0 = floor(f - mu + snap)
    e1 = ceil(f + mu - snap)
    kernel_breaks = [f - float(b) for b in kernel.breakpoints]  # descending
    bern = [[float(c) for c in bernstein_poly(dg_degree, ell).coeffs]
            for ell in range(dg_degree + 1)]
    npts = (dg_degree + 2 * d + 2) // 2 + 1
    gx, gw = _gauss(npts)
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
                u = nodes - e
                bv = np.zeros_like(u)
                for c in reversed(bern[ell]):
                    bv = bv * u + c
                weights[de, ell] += rad * np.dot(gw, kv * bv)
    return e0, weights


def symmetric_filter_eval(field, x, filter_degree: int | None = None) -> float:
    """Convolve the DG field with the symmetric kernel at one point.

    Only valid for x in [a + mu h, b - mu h]; uses exact piecewise
    integration of the kernel against the local element polynomials.
    The kernel degree defaults to the field degree.
    """
    from .dg import to_bernstein
    fld = to_bernstein(field)
    mesh = fld.mesh
    d = fld.d if filter_degree is None else filter_degree
    mu = float(Fraction(3 * d + 1, 2))
    sigma = (x - mesh.a) / mesh.h
    tol = 1e-12 * max(1.0, mesh.n)
    if sigma < mu - tol or sigma > mesh.n - mu + tol:
        raise OutsideInteriorRegionError(
            f"x={x} outside the interior region [{mesh.a + mu * mesh.h}, {mesh.b - mu * mesh.h}]")
    e = min(int(floor(sigma)), mesh.n - 1)
    frac = sigma - e
    return symmetric_filter_eval_local(fld, e, frac, d)


def symmetric_filter_eval_local(bernstein_field, element, frac,
                                filter_degree: int | None = None):
    """Symmetric-filter value at sigma = element + frac (frac is the cache key).

    ``element`` is an int, giving a float, or an integer array, giving one
    value per entry: all share the weights of one frac and are contracted
    in one sliding-window einsum.
    """
    d = bernstein_field.d if filter_degree is None else filter_degree
    e0, w = symmetric_filter_weights(d, bernstein_field.d, frac)
    coeffs = bernstein_field.coeffs
    lo = np.asarray(element) + e0
    width = w.shape[0]
    if lo.size and (lo.min() < 0 or lo.max() + width > coeffs.shape[0]):
        raise OutsideInteriorRegionError("kernel window leaves the mesh")
    windows = coeffs[lo[..., None] + np.arange(width)]  # (..., de, ell)
    values = np.einsum("...kl,kl->...", windows, w)
    return float(values) if values.ndim == 0 else values


# ---------------------------------------------------------------------------
# reference convolution oracle


class FloatKernel:
    """A sampled-exactly convolution kernel: piecewise polynomial, float eval.

    ``breakpoints`` bound its support; between them the function is a
    polynomial, which composite Gauss quadrature integrates exactly.
    """

    def __init__(self, breakpoints, fn):
        self.breakpoints = sorted(float(b) for b in breakpoints)
        self._fn = fn

    def __call__(self, s):
        return self._fn(s)


def psiac_kernel_at(spec: FilterSpec, mesh, x: float) -> FloatKernel:
    """The position-dependent kernel at evaluation point x, physical units."""
    h = mesh.h
    _, lam_g, _ = _window_placement(spec, mesh.n)
    offset = x - float(lam_g) * h - mesh.a  # physical knots are h*t + offset
    xihat = (x - mesh.a) / h - float(lam_g)
    coeffs = [float(c) for c in
              shifted_coefficient_polynomials(spec).evaluate(Fraction(xihat))]
    pps = [unit_bspline_piecewise(w, k) for w, k in zip(spec.windows, spec.degrees)]

    def fn(s):
        z = (s - offset) / h
        return sum(c * float(pp(z)) for c, pp in zip(coeffs, pps)) / h

    breaks = [offset + h * float(t) for t in spec.knots]
    return FloatKernel(breaks, fn)


def symmetric_kernel_at(d: int, h: float) -> FloatKernel:
    """The interior kernel in the convolution variable (centered at 0)."""
    pp = _symmetric_kernel_pp(d)

    def fn(t):
        return float(pp(t / h)) / h

    return FloatKernel([h * float(b) for b in pp.breakpoints], fn)


def reference_convolve(kernel: FloatKernel, field, x: float, quad_points: int = 10) -> float:
    """Brute-force (u * kernel)(x) by composite Gauss quadrature.

    Subdivides at kernel breakpoints and at mesh breakpoints of u(x - s);
    used only as a test oracle.
    """
    mesh = field.mesh
    lo, hi = kernel.breakpoints[0], kernel.breakpoints[-1]
    if x - hi < mesh.a - 1e-9 * (1 + abs(mesh.a)) or x - lo > mesh.b + 1e-9 * (1 + abs(mesh.b)):
        raise WindowOutOfDomainError("kernel window reaches outside the data domain")
    cuts = set(kernel.breakpoints)
    for b in np.linspace(mesh.a, mesh.b, mesh.n + 1):
        s = x - b
        if lo < s < hi:
            cuts.add(float(s))
    cuts = sorted(cuts)
    gx, gw = _gauss(quad_points)
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        if b <= a:
            continue
        mid, rad = (a + b) / 2, (b - a) / 2
        nodes = mid + rad * gx
        vals = np.array([kernel(s) for s in nodes]) * field.evaluate(x - nodes)
        total += rad * np.dot(gw, vals)
    return float(total)


# ---------------------------------------------------------------------------
# boundary/interior transition


def blend_weight(z, rho: int):
    """Transition weight: Bernstein coefficients 0 (i <= rho), 1 above.

    Degree 2*rho+1 makes the blend Hermite-interpolate *both* sides up to
    order rho (value and first rho derivatives at z = 0 and z = 1).
    """
    n = 2 * rho + 1
    z = np.asarray(z, dtype=float)
    acc = np.zeros_like(z)
    for i in range(rho + 1, n + 1):
        acc = acc + comb(n, i) * z ** i * (1 - z) ** (n - i)
    return acc if acc.shape else float(acc)


def blend_transition(boundary_poly, interior_eval, overlap: tuple[float, float], rho: int):
    """Evaluator joining boundary-filtered and interior-filtered output.

    Matches the boundary side (value and rho derivatives) at overlap[0]
    and the interior side likewise at overlap[1].
    """
    a1, a2 = overlap
    if not a2 > a1:
        raise EmptyOverlapError("overlap interval is empty")
    if rho < 1:
        raise ValueError("smoothness order rho must be >= 1")

    def blended(x):
        z = (x - a1) / (a2 - a1)
        z = min(1.0, max(0.0, z))
        beta = blend_weight(z, rho)
        left = boundary_poly(x)
        if beta == 0.0:
            return float(left)
        return float((1 - beta) * left + beta * interior_eval(x))

    return blended
