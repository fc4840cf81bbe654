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
    Bernstein function against these reflected splines.
  * The filtered output over the boundary region is the single polynomial
    u_I . Q . [xihat^m], xihat = sigma - lam_g = x/h - lambda.
  * On [mu, N - mu] the symmetric filter's output is one polynomial per
    element (odd d) or half-element (even d), linear in the 3d+2 elements
    around it: the interior operator.

Q = T . M^-1 . diag((-1)^m) and the interior operator are assembled
exactly once per (filter, DG degree), as integer numerators over one
denominator; Fractions are made only where a value leaves this layer
(`QMatrix.q`, the endpoint vector), and floats only when an operator is
applied to DG data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, floor, gcd, lcm
from operator import mul

import numpy as np

from .errors import UsageError
from .exact import RatMatrix, RatPoly, _over_common_denominator, rat
from .filters import (FilterSpec, build_spec, shifted_coefficient_polynomials,
                      static_coefficients)
from .spline import bernstein_poly, bspline_pieces, unit_bspline_piecewise


class WindowOutOfDomainError(ValueError):
    """Kernel data window does not fit inside the data domain."""


class MeshTooCoarseError(WindowOutOfDomainError, UsageError):
    """Mesh has fewer elements than the kernel window spans."""


class OutsideInteriorRegionError(ValueError):
    """Symmetric filtering requested outside [a + mu h, b - mu h]."""


class EmptyOverlapError(ValueError):
    """Blend overlap interval is empty."""


# ---------------------------------------------------------------------------
# exact operator assembly


@lru_cache(maxsize=None)
def _local_window_elements(spec: FilterSpec) -> int:
    width = spec.support_width
    if width.denominator != 1:
        raise ValueError("kernel span must be a whole number of elements")
    return int(width)


@lru_cache(maxsize=None)
def _bernstein_moments(dg_degree: int, top: int, lo: int, hi: int, scale: int = 1
                       ) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(beta, den): beta[i][ell] / den = D^i int u^i phi_ell(u) du over [lo/D, hi/D], i <= top.

    phi_ell = C(d,ell) u^ell (1-u)^(d-ell) is the element Bernstein basis
    on [0, 1], D = scale, and [lo, hi] / D the part of the element a
    spline piece covers.  The u^j term of phi_ell gives (hi^(p+1) -
    lo^(p+1)) / ((p+1) D^(j+1)), p = i + j, so one denominator,
    lcm(1..top+d+1) D^(d+1), serves every entry and every [lo, hi].
    """
    bern = [[int(b) for b in bernstein_poly(dg_degree, ell).coeffs]
            for ell in range(dg_degree + 1)]
    span = lcm(*range(1, top + dg_degree + 2))
    power = [hi ** (p + 1) - lo ** (p + 1) for p in range(top + dg_degree + 1)]
    beta = tuple(tuple(sum(b * power[i + j] * (span // (i + j + 1)) * scale ** (dg_degree - j)
                           for j, b in enumerate(bc)) for bc in bern)
                 for i in range(top + 1))
    return beta, span * scale ** (dg_degree + 1)


def _recentred(poly: tuple[int, ...], x0: int) -> list[int]:
    """Integer coefficients q with sum q_i y^i = poly(x0 + y) (Horner in x0 + y)."""
    out = [0] * len(poly)
    for c in reversed(poly):
        for i in range(len(out) - 1, 0, -1):
            out[i] = out[i] * x0 + out[i - 1]
        out[0] = out[0] * x0 + c
    return out


@lru_cache(maxsize=None)
def _element_integrals(knots: tuple[int, ...], scale: int, k: int, dg_degree: int
                       ) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """Integrals of B(sigma | knots / scale) against the Bernstein basis of each element.

    Returns (den, ((e, numerators)...)): the integral over [e, e+1] of
    B * phi_ell is numerators[ell] / den, for every element e the support
    meets.  Each piece P(X) / den_B, X = D sigma, is recentred once on
    each element it meets, P(D e + Y) = sum_i q_i Y^i, Y = D (sigma - e),
    and adds sum_i q_i beta[i][ell] over the part of the element it covers.
    Callers pass the knots translated to start in [0, 1), so splines that
    are integer translates share one entry.
    """
    nb = dg_degree + 1
    bps, pieces, bden = bspline_pieces(knots, scale, k)
    out: dict[int, list[int]] = {}
    for piece, a, b in zip(pieces, bps, bps[1:]):
        for e in range(a // scale, -(-b // scale)):
            x0 = e * scale
            q = _recentred(piece, x0)
            beta, den = _bernstein_moments(dg_degree, k, max(a, x0) - x0,
                                           min(b, x0 + scale) - x0, scale)
            acc = out.setdefault(e, [0] * nb)
            for ell in range(nb):
                acc[ell] += sum(c * beta[i][ell] for i, c in enumerate(q))
    # den is the same for every [lo, hi] (see _bernstein_moments)
    return bden * den, tuple((e, tuple(v)) for e, v in sorted(out.items()))


@lru_cache(maxsize=None)
def _t_integers(spec: FilterSpec, dg_degree: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(rows, den): T = rows / den, columns in kernel B-spline order (not the reversed
    paper order).

    Local frame: the data window is [0, w], w = t_n - t_0, and spline j
    is seen by the data variable as the B-spline over t_n - reverse(W_j).
    Rows are element-major DG Bernstein indices.
    """
    if dg_degree < 0:
        raise UsageError(f"DG degree must be >= 0, got {dg_degree}")
    nb = dg_degree + 1
    # every knot as an integer over one denominator D; lam = t_n last
    flat, scale = _over_common_denominator([t for w in spec.windows for t in w] + [spec.knots[-1]])
    lam = flat.pop()
    cols, start = [], 0
    for w, k in zip(spec.windows, spec.degrees):
        refl = [lam - t for t in reversed(flat[start:start + len(w)])]
        start += len(w)
        shift = refl[0] // scale
        cols.append((shift, *_element_integrals(tuple(t - shift * scale for t in refl), scale,
                                                k, dg_degree)))
    den = lcm(*(cden for _, cden, _ in cols))
    rows = [[0] * len(cols) for _ in range(_local_window_elements(spec) * nb)]
    for j, (shift, cden, parts) in enumerate(cols):
        for e, vals in parts:
            for ell, v in enumerate(vals):
                rows[(e + shift) * nb + ell][j] = v * (den // cden)
    return tuple(map(tuple, rows)), den


@dataclass(frozen=True)
class QMatrix:
    """Exact filtered-output operator for one spec and DG degree.

    Rows are element-major DG Bernstein indices over the kernel window
    (n_elements * (dg_degree+1)); column m gives the coefficient of
    xihat^m of the output polynomial.  Q = columns / den, with den the
    least common denominator of the entries.
    """

    spec: FilterSpec
    dg_degree: int
    n_elements: int
    columns: tuple[tuple[int, ...], ...]
    den: int

    @cached_property
    def q(self) -> RatMatrix:
        """Q as reduced Fractions."""
        return RatMatrix.from_rows([[Fraction(v, self.den) for v in row]
                                    for row in zip(*self.columns)])

    def _contract_integers(self, window: list[int], scale: int) -> tuple[list[int], int]:
        """(numerators, denominator) of the output for window / scale: integer dot products."""
        if len(window) != len(self.columns[0]):
            raise ValueError("coefficient count does not match window")
        return [sum(map(mul, window, col)) for col in self.columns], self.den * scale

    def contract_exact(self, coeff_rows) -> RatPoly:
        """Output polynomial (exact) for rational window coefficients.

        coeff_rows: per-element sequences of dg_degree+1 Bernstein
        coefficients, elements ordered left to right across the window.
        """
        window, scale = _over_common_denominator([rat(c) for row in coeff_rows for c in row])
        nums, den = self._contract_integers(window, scale)
        return RatPoly([Fraction(v, den) for v in nums])

    def contract(self, coeff_rows: np.ndarray) -> np.ndarray:
        """Float coefficient vector of the output polynomial.

        The contraction is exact and runs on integers, as in
        ``contract_exact``.  The window floats are lifted losslessly with
        ``float.as_integer_ratio`` to integers over one power-of-two scale;
        each output coefficient is one integer dot product divided once by
        its denominator, and int / int rounds correctly, so the result is
        bit for bit the float of each coefficient of ``contract_exact``,
        zero-padded to the column count.  Large-coefficient kernels stay stable;
        only the final coefficients are rounded.
        """
        flat = np.asarray(coeff_rows, dtype=float).ravel()
        ratios = [v.as_integer_ratio() for v in flat.tolist()]
        scale = max(q for _, q in ratios)
        nums, den = self._contract_integers([p * (scale // q) for p, q in ratios], scale)
        return np.array([v / den for v in nums])


@lru_cache(maxsize=None)
def q_matrix(spec: FilterSpec, dg_degree: int | None = None) -> QMatrix:
    """Assemble Q = T . M^-1 . diag((-1)^m) exactly, as one integer product.

    One gcd then reduces the product's denominator to the least common one.
    """
    dg = spec.d if dg_degree is None else dg_degree
    rows, tden = _t_integers(spec, dg)
    coeff = shifted_coefficient_polynomials(spec)
    columns = [[sum(map(mul, row, col)) for row in rows] for col in zip(*coeff.numerators)]
    den = tden * coeff.den
    g = gcd(den, *(v for col in columns for v in col))
    return QMatrix(spec=spec, dg_degree=dg, n_elements=_local_window_elements(spec),
                   columns=tuple(tuple(v // g for v in col) for col in columns), den=den // g)


def endpoint_vector(spec: FilterSpec, dg_degree: int | None = None) -> list[Fraction]:
    """Assembled filter vector for evaluation at the domain endpoint.

    This is Q applied to the shift powers at the endpoint (xihat = -lam
    for a left filter, +lam for a right one): one exact rational weight
    per DG Bernstein coefficient in the window.  It is computed as
    T . c(xihat) on integers, without forming Q, with one Fraction per
    entry at the end.
    """
    dg = spec.d if dg_degree is None else dg_degree
    xi = -spec.lam if spec.side != "right" else spec.lam
    c, cden = shifted_coefficient_polynomials(spec).at(xi)
    rows, tden = _t_integers(spec, dg)
    return [Fraction(sum(map(mul, row, c)), tden * cden) for row in rows]


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

    def __call__(self, x):
        """Values at x; coefficients (fields, m) give one row of values per field."""
        z = (np.asarray(x, dtype=float) - self.anchor) / self.h
        coeffs = np.asarray(self.coeffs, dtype=float)
        acc = np.zeros(coeffs.shape[:-1] + z.shape)
        for c in np.moveaxis(coeffs, -1, 0)[::-1]:
            acc = acc * z + np.reshape(c, c.shape + (1,) * z.ndim)
        return acc if acc.shape else float(acc)

    def derivative(self, order: int = 1) -> "BoundaryPolynomial":
        cs = np.asarray(self.coeffs, dtype=float)
        for _ in range(order):
            cs = np.array([m * cs[m] for m in range(1, len(cs))]) / self.h
            if len(cs) == 0:
                cs = np.zeros(1)
        return BoundaryPolynomial(coeffs=cs, h=self.h, anchor=self.anchor, region=self.region)

    def physical_coefficients(self) -> np.ndarray:
        """Coefficients a_k of sum a_k (x - anchor)^k."""
        return np.array([c / self.h ** k for k, c in enumerate(self.coeffs)])


def window_placement(spec: FilterSpec, n_elements: int):
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


def boundary_window(field, spec: FilterSpec) -> tuple[QMatrix, np.ndarray]:
    """Q of the spec at the field's degree, and the Bernstein coefficient rows it reads.

    The rows are those of the first or last Q.n_elements elements, by the spec's side.
    """
    from .dg import to_bernstein
    fld = to_bernstein(field)
    first, _, _ = window_placement(spec, fld.mesh.n)
    qm = q_matrix(spec, fld.d)
    return qm, fld.coeffs[first:first + qm.n_elements]


def filter_boundary(field, spec: FilterSpec) -> BoundaryPolynomial:
    """Filter a DG field near the spec's domain end into a BoundaryPolynomial."""
    qm, window = boundary_window(field, spec)
    mesh = field.mesh
    _, lam_g, (s_lo, s_hi) = window_placement(spec, mesh.n)
    h = mesh.h
    return BoundaryPolynomial(
        coeffs=qm.contract(window), h=h, anchor=mesh.a + float(lam_g) * h,
        region=(mesh.a + float(s_lo) * h, mesh.a + float(s_hi) * h))


def filter_boundary_derivative(field, spec: FilterSpec, order: int = 1) -> BoundaryPolynomial:
    """Derivative of the filtered polynomial, via the explicit coefficients."""
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    if order > spec.r:
        raise ValueError("derivative order exceeds the polynomial degree")
    poly = filter_boundary(field, spec)
    return poly.derivative(order) if order else poly


# ---------------------------------------------------------------------------
# interior (symmetric) filtering


def _element_convolutions(d: int, dg_degree: int) -> list[list[list[int]]]:
    """[k][ell]: d! n! G_ell(k + p) in monomials of p in [0, 1], n = d + dg_degree + 1.

    G_ell(z) = int_0^1 B(z - v) phi_ell(v) dv, with B the degree-d cardinal
    B-spline on the knots 0..d+1 and phi_ell the element Bernstein basis.
    From d! B(x) = sum_i (-1)^i C(d+1, i) (x - i)_+^d:
        d! G_ell(k + p) = int_0^1 A_k(p - v) phi_ell(v) dv
                          + (-1)^k C(d+1, k) int_0^p (p - v)^d phi_ell(v) dv,
    A_k(y) = sum_{i<k} (-1)^i C(d+1, i) (k - i + y)^d; n! makes both
    integrals (sums of Beta integrals) integers.
    """
    g, n = dg_degree, d + dg_degree + 1
    nf = factorial(n)
    phi = [[int(b) for b in bernstein_poly(g, ell).coeffs] for ell in range(g + 1)]
    beta, den = _bernstein_moments(g, d, 0, 1)  # int_0^1 v^m phi_ell(v) dv = beta / den
    moments = [[beta[m][ell] * nf // den for m in range(d + 1)] for ell in range(g + 1)]
    # n! d! c! / (d+c+1)! = n! int_0^p (p-v)^d v^c dv / p^(d+c+1)
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


@dataclass(frozen=True)
class InteriorOperator:
    """Exact symmetric-filter operator of kernel degree d on a uniform mesh.

    Element e has `pieces` output pieces (2 for even d, whose knots are
    half-integers), sigma in [e + q/pieces, e + (q+1)/pieces].  Piece q
    reads the 3d+2 elements from e + offsets[q]; row i (element-major)
    of numerators[q], over den, is their contribution to the output's
    Bernstein coefficients on the piece.
    """

    d: int
    dg_degree: int
    degree: int  # of the output polynomials, d + dg_degree + 1
    pieces: int
    offsets: tuple[int, ...]
    numerators: tuple[tuple[tuple[int, ...], ...], ...]
    den: int

    @cached_property
    def matrix(self) -> np.ndarray:
        """numerators / den as floats, each entry correctly rounded."""
        return np.array([[[v / self.den for v in row] for row in rows]
                         for rows in self.numerators])


@lru_cache(maxsize=None)
def interior_operator(d: int, dg_degree: int) -> InteriorOperator:
    """Assemble the interior operator exactly, on integers.

    Kernel spline j (knots -mu + j ..) meets window element i of piece q
    through G at k = 3d + 1 - j - i, at p = (theta + t)/pieces with t in
    [0, 1] along the piece; each entry is sum_j c_j G[k] in Bernstein form.
    """
    spec = build_spec("symmetric", d)
    cs, dc = _over_common_denominator(static_coefficients(spec))
    conv = _element_convolutions(d, dg_degree)
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
    return InteriorOperator(d=d, dg_degree=dg_degree, degree=n, pieces=pieces,
                            offsets=tuple(offsets), numerators=tuple(numerators), den=den)


def _bernstein_values(n: int, t) -> np.ndarray:
    """Degree-n Bernstein basis at t (any shape), along a new first axis."""
    t = np.asarray(t, dtype=float)
    out = np.empty((n + 1,) + t.shape)
    out[0] = 1.0
    for k in range(1, n + 1):
        out[k] = out[k - 1] * t
    rest = 1 - t
    for k in range(n - 1, -1, -1):
        out[k] *= comb(n, k) * rest
        rest = rest * (1 - t)
    return out


@dataclass
class PiecewiseBernstein:
    """Filtered output on equal consecutive pieces, in Bernstein form.

    coeffs[g] are the Bernstein coefficients on piece g, the physical
    interval [start + g*width, start + (g+1)*width]; coefficients
    (fields, pieces, m) give one row of values per field.
    """

    coeffs: np.ndarray
    start: float
    width: float

    @property
    def region(self) -> tuple[float, float]:
        return self.start, self.start + self.coeffs.shape[-2] * self.width

    def __call__(self, x):
        s = (np.asarray(x, dtype=float) - self.start) / self.width
        count = self.coeffs.shape[-2]
        if s.size and not (s.min() >= -1e-9 and s.max() <= count + 1e-9):
            raise OutsideInteriorRegionError(f"x outside the filtered region {self.region}")
        g = np.clip(np.floor(s).astype(int), 0, count - 1)
        coeffs = np.take(self.coeffs, g, axis=-2)
        basis = _bernstein_values(coeffs.shape[-1] - 1, s - g)
        values = sum(coeffs[..., k] * b for k, b in enumerate(basis))  # same order at any shape
        return float(values) if values.ndim == 0 else values


def interior_region(d: int, n_elements: int) -> tuple[Fraction, Fraction]:
    """[mu, N - mu] in sigma units, mu = (3d+1)/2: where the degree-d symmetric filter applies."""
    mu = Fraction(3 * d + 1, 2)
    if not n_elements - mu > mu:
        raise MeshTooCoarseError(f"no interior region left at {n_elements} elements")
    return mu, n_elements - mu


def filter_interior(field, filter_degree: int | None = None) -> PiecewiseBernstein:
    """Symmetric-filter a DG field on the whole interior [a + mu h, b - mu h].

    Each output piece is one product of its (3d+2)-element data window
    with the interior operator.  The kernel degree defaults to the field
    degree.
    """
    from .dg import to_bernstein
    fld = to_bernstein(field)
    mesh = fld.mesh
    op = interior_operator(fld.d if filter_degree is None else filter_degree, fld.d)
    per = op.pieces
    first, stop = (int(per * s) for s in interior_region(op.d, mesh.n))
    g = np.arange(first, stop)
    q = g % per
    rows = (g // per + np.array(op.offsets)[q])[:, None] + np.arange(3 * op.d + 2)
    windows = fld.coeffs[rows].reshape(len(g), -1)
    coeffs = np.empty((len(g), op.degree + 1))
    for piece in range(per):
        coeffs[q == piece] = windows[q == piece] @ op.matrix[piece]
    width = mesh.h / per
    return PiecewiseBernstein(coeffs=coeffs, start=mesh.a + first * width, width=width)


@lru_cache(maxsize=1024)
def symmetric_filter_weights(d: int, dg_degree: int, frac) -> tuple[int, np.ndarray]:
    """Contraction weights for one fractional position inside an element.

    For evaluation at sigma = e + frac the filtered value is
    sum over (de, ell) of W[de, ell] * bernstein_coeffs[e + e0 + de, ell],
    where (e0, W) is the return value: the interior operator's piece
    containing frac (the later one at frac = 1/2 for even d), evaluated there.
    """
    op = interior_operator(d, dg_degree)
    s = float(frac) * op.pieces
    q = min(int(s), op.pieces - 1)
    w = op.matrix[q] @ _bernstein_values(op.degree, s - q)
    return op.offsets[q], w.reshape(-1, dg_degree + 1)


def symmetric_filter_eval(field, x, filter_degree: int | None = None):
    """Convolve the DG field with the symmetric kernel at x (a float or an array).

    Only valid for x in [a + mu h, b - mu h]: `filter_interior` evaluated
    at x.  The kernel degree defaults to the field degree.
    """
    return filter_interior(field, filter_degree)(x)


def symmetric_filter_eval_local(bernstein_field, element, frac,
                                filter_degree: int | None = None):
    """Symmetric-filter value at sigma = element + frac.

    ``element`` is an int, giving a float, or an integer array, giving one
    value per entry.
    """
    mesh = bernstein_field.mesh
    sigma = np.asarray(element) + float(frac)
    return symmetric_filter_eval(bernstein_field, mesh.a + sigma * mesh.h, filter_degree)


# ---------------------------------------------------------------------------
# reference convolution oracle


class FloatKernel:
    """A sampled-exactly convolution kernel: piecewise polynomial, float eval.

    ``breakpoints`` bound its support; between them the function is a
    polynomial, which composite Gauss quadrature integrates exactly.  It
    is called on a float or on an array of them.
    """

    def __init__(self, breakpoints, fn):
        self.breakpoints = sorted(float(b) for b in breakpoints)
        self._fn = fn

    def __call__(self, s):
        return self._fn(s)


@lru_cache(maxsize=None)
def _float_spline(window: tuple[Fraction, ...], k: int) -> tuple[np.ndarray, np.ndarray]:
    """(breakpoints, pieces) of B(z | window) as floats, converted once per spline.

    Row i holds piece i's coefficients about its left breakpoint, top
    first, zero-padded to degree k; a last zero row stands for z off the
    support.
    """
    pp = unit_bspline_piecewise(window, k)
    pieces = [p.recentered(b).coeffs for p, b in zip(pp.pieces, pp.breakpoints)]
    rows = [[0.0] * (k + 1 - len(p)) + [float(c) for c in reversed(p)]
            for p in pieces] + [[0.0] * (k + 1)]
    return np.array([float(b) for b in pp.breakpoints]), np.array(rows)


def _float_kernel(spec: FilterSpec, coeffs, offset: float, h: float) -> FloatKernel:
    """sum_j c_j B_j((s - offset)/h) / h: the spec's splines with physical knots h*t + offset.

    A piece is evaluated in u = z - bp[i], its offset from its left
    breakpoint, by Horner's rule from its top coefficient, as `RatPoly`
    evaluates at a float.  About the breakpoint the terms are of the size
    of the value, so no cancellation loses digits far from the origin.
    """
    cs = [float(c) for c in coeffs]
    tables = [_float_spline(w, k) for w, k in zip(spec.windows, spec.degrees)]

    def fn(s):
        z = (np.asarray(s, dtype=float) - offset) / h
        total = 0
        for c, (bp, rows) in zip(cs, tables):
            i = np.clip(np.searchsorted(bp, z, side="right") - 1, 0, len(bp) - 2)
            i = np.where((z >= bp[0]) & (z <= bp[-1]), i, len(bp) - 1)
            table, u = rows[i], z - bp[i]
            acc = table[..., 0]
            for col in range(1, table.shape[-1]):
                acc = acc * u + table[..., col]
            total = total + c * acc
        out = total / h
        return out if out.ndim else float(out)

    return FloatKernel([offset + h * float(t) for t in spec.knots], fn)


def psiac_kernel_at(spec: FilterSpec, mesh, x: float) -> FloatKernel:
    """The position-dependent kernel at evaluation point x, physical units."""
    _, lam_g, _ = window_placement(spec, mesh.n)
    xihat = (x - mesh.a) / mesh.h - float(lam_g)
    coeffs = shifted_coefficient_polynomials(spec).evaluate(Fraction(xihat))
    return _float_kernel(spec, coeffs, x - float(lam_g) * mesh.h - mesh.a, mesh.h)


def symmetric_kernel_at(d: int, h: float) -> FloatKernel:
    """The interior kernel in the convolution variable (centered at 0)."""
    spec = build_spec("symmetric", d)
    return _float_kernel(spec, static_coefficients(spec), 0.0, h)


def reference_convolve(kernel: FloatKernel, field, x: float) -> float:
    """Brute-force (u * kernel)(x) by 10-point composite Gauss quadrature.

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
    gx, gw = np.polynomial.legendre.leggauss(10)
    mid = np.array([(a + b) / 2 for a, b in zip(cuts, cuts[1:])])
    rad = np.array([(b - a) / 2 for a, b in zip(cuts, cuts[1:])])
    nodes = mid[:, None] + rad[:, None] * gx
    vals = kernel(nodes) * field.evaluate(x - nodes)
    total = 0.0
    for r, v in zip(rad.tolist(), vals):
        total += r * np.dot(gw, v)
    return float(total)


# ---------------------------------------------------------------------------
# boundary/interior transition


def blend_weight(z, rho: int):
    """Transition weight: Bernstein coefficients 0 (i <= rho), 1 above.

    Degree 2*rho+1 makes the blend Hermite-interpolate *both* sides up to
    order rho (value and first rho derivatives at z = 0 and z = 1).
    """
    acc = _bernstein_values(2 * rho + 1, z)[rho + 1:].sum(axis=0)
    return acc if acc.shape else float(acc)


def blend_transition(boundary_poly, interior_eval, overlap: tuple[float, float], rho: int):
    """Evaluator (of a float or an array) joining boundary and interior output.

    Matches the boundary side (value and rho derivatives) at overlap[0],
    the end toward the boundary (the larger one on the right), and the
    interior side likewise at overlap[1]; interior_eval is called only
    where its weight is positive.  Evaluators of a stack of fields, one
    row of values per field, give the blend of each.
    """
    a1, a2 = overlap
    if a2 == a1:
        raise EmptyOverlapError("overlap interval is empty")
    if rho < 1:
        raise ValueError("smoothness order rho must be >= 1")

    def blended(x):
        x = np.asarray(x, dtype=float)
        beta = np.asarray(blend_weight(np.clip((x - a1) / (a2 - a1), 0.0, 1.0), rho))
        out = np.array(boundary_poly(x), dtype=float)
        mix = beta > 0.0
        if mix.any():
            b = beta[mix]
            out[..., mix] = (1 - b) * out[..., mix] + b * interior_eval(x[mix])
        return out if out.ndim else float(out)

    return blended
