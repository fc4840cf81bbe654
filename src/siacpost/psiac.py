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

Q = T . M^-1 . diag((-1)^m), composed with Farouki's integer map from element
Legendre to the Bernstein coefficients T reads, and the interior operator, built
on the shifted Legendre basis, are each an `exact.RatMatrix` (integers over one
denominator) made once per (filter, DG degree).  Both read the solver's
coefficients and write one output type, `MonomialPieces` (the boundary output is its
one-piece case, in xihat), which one sampler, `sample`, evaluates with the blend.  Fractions
leave this layer only as the entries of `QMatrix.q`, of the (Bernstein) endpoint
vector and of the `RatPoly` that `QMatrix.contract_exact` returns, and floats
only when an operator is applied to DG data.  DG data is a Legendre field or a
stack (another basis is refused); boundary filtering also takes a sequence of
fields of any meshes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, floor, lcm
from operator import mul

import numpy as np

from . import dg
from .errors import UsageError
from .exact import RatMatrix, RatPoly, _over_common_denominator, rat
from .filters import (FilterSpec, UnsupportedFamilySideError, build_spec,
                      shifted_coefficient_polynomials, static_coefficients)
from .spline import bernstein_poly, bspline_pieces
# Unused here; perfbench/tracer.py patches psiac.unit_bspline_piecewise.
from .spline import unit_bspline_piecewise  # noqa: F401


class WindowOutOfDomainError(ValueError):
    """Kernel data window does not fit inside the data domain."""


class MeshTooCoarseError(WindowOutOfDomainError, UsageError):
    """Mesh has fewer elements than the kernel window spans."""


class OutsideInteriorRegionError(ValueError):
    """An output sampled outside its checked range: the interior [a + mu h, b - mu h]."""


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
def _t_integers(spec: FilterSpec, dg_degree: int) -> RatMatrix:
    """T exactly, columns in kernel B-spline order (not the reversed paper order).

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
    rows = np.zeros((_local_window_elements(spec) * nb, len(cols)), dtype=object)
    for j, (shift, cden, parts) in enumerate(cols):
        for e, vals in parts:
            rows[(e + shift) * nb:(e + shift + 1) * nb, j] = [v * (den // cden) for v in vals]
    return RatMatrix(rows, den)


@dataclass(frozen=True)
class QMatrix:
    """Exact filtered-output operator for one spec and DG degree: q is Q_L, exact over the
    least common denominator of its entries.  Rows are element-major DG Legendre indices
    over the kernel window (n_elements * (dg_degree+1)); column m gives the coefficient of
    xihat^m of the output polynomial, the one piece of `filter_boundary`'s output."""

    n_elements: int
    q: RatMatrix

    def contract_exact(self, coeff_rows) -> RatPoly:
        """Output polynomial (exact) for rational window coefficients.

        coeff_rows: per-element sequences of dg_degree+1 Legendre
        coefficients, elements ordered left to right across the window.
        """
        window = RatMatrix(*_over_common_denominator([rat(c) for row in coeff_rows for c in row]))
        return RatPoly((window @ self.q).entries)

    def contract(self, coeff_rows: np.ndarray) -> np.ndarray:
        """Float coefficients (..., Q.cols) of the output polynomials of windows (...,
        n_elements, dg_degree+1), any leading axes a stack of fields.  The contraction is
        exact (`RatMatrix.apply`: one float matmul of 20-bit slices, every partial sum below
        2^53), so each row is bit for bit the float of ``contract_exact``'s coefficients,
        zero-padded: large-coefficient kernels stay stable, as only the results are rounded.
        """
        window = np.asarray(coeff_rows, dtype=float)
        return self.q.apply(window.reshape(window.shape[:-2] + (-1,)))


@lru_cache(maxsize=None)
def q_matrix(spec: FilterSpec, dg_degree: int | None = None) -> QMatrix:
    """Assemble Q_L = blockdiag(L2B^T) . T . M^-1 . diag((-1)^m) exactly, on integers, over
    the least common denominator: L2B (`dg.legendre_to_bernstein`) takes an element's
    Legendre coefficients to the Bernstein ones that T reads."""
    degree = spec.d if dg_degree is None else dg_degree
    l2b = dg.legendre_to_bernstein(degree)
    q = _t_integers(spec, degree) @ shifted_coefficient_polynomials(spec).exact
    blocks = l2b.nums.T @ q.nums.reshape(-1, degree + 1, q.cols)  # one per window element
    q = RatMatrix(blocks.reshape(q.nums.shape), l2b.den * q.den).reduced()
    return QMatrix(n_elements=_local_window_elements(spec), q=q)


def endpoint_vector(spec: FilterSpec, dg_degree: int | None = None) -> list[Fraction]:
    """Assembled filter vector for evaluation at the domain endpoint.

    This is Q applied to the shift powers at the endpoint (xihat = -lam
    for a left filter, +lam for a right one): one exact rational weight
    per DG Bernstein coefficient in the window.  It is computed as
    T . c(xihat) on integers, without forming Q, with one Fraction per
    entry at the end.  A spec of any other side than left or right raises
    UnsupportedFamilySideError.
    """
    if spec.side not in ("left", "right"):
        raise UnsupportedFamilySideError(f"side {spec.side!r} is not a boundary side")
    degree = spec.d if dg_degree is None else dg_degree
    xi = -spec.lam if spec.side != "right" else spec.lam
    c = shifted_coefficient_polynomials(spec).at(xi)
    return (_t_integers(spec, degree) @ c).entries


# ---------------------------------------------------------------------------
# filter outputs: one type, one sampler, one blend


@dataclass
class MonomialPieces:
    """Filtered output on equal pieces [start + g*width, start + (g+1)*width]: coeffs (...,
    pieces, m) are piece g's ascending monomial coefficients in t = (x - start)/width - g,
    leading axes a stack of fields.  It is measured on region and sampled only in
    `checked` (to 1e-9 of a width): the interior on its pieces, a boundary output anywhere.
    """

    coeffs: np.ndarray
    start: float
    width: float
    region: tuple[float, float]
    checked: tuple[float, float]

    def __call__(self, x, blend=None):
        """`sample` of this output at x of any shape: (..., *x.shape), or a float at a float;
        blend = ([interior_eval], [overlap], rho) joins it to the interior across overlap."""
        x = np.asarray(x, dtype=float)
        out = sample([self], [x.ravel()], blend).reshape(self.coeffs.shape[:-2] + x.shape)
        return out if out.ndim else float(out)

    def derivative(self, order: int = 1) -> "MonomialPieces":
        """The order-th derivative in x of every piece (along the last axis)."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        cs = np.asarray(self.coeffs, dtype=float)
        for _ in range(order):  # past the degree no coefficient is left, and sample gives 0
            cs = cs[..., 1:] * np.arange(1, cs.shape[-1]) / self.width
        return replace(self, coeffs=cs)

    def physical_coefficients(self) -> np.ndarray:
        """Coefficients a_k of each piece's sum a_k (x - start - g*width)^k, along the last axis."""
        cs = np.asarray(self.coeffs, dtype=float)
        return cs / np.array([self.width ** k for k in range(cs.shape[-1])])


def blend_weight(z, rho: int):
    """Transition weight: Bernstein coefficients 0 (i <= rho), 1 above.

    Degree 2*rho+1 makes the blend Hermite-interpolate *both* sides up to
    order rho (value and first rho derivatives at z = 0 and z = 1).
    """
    acc = dg.bernstein_values(2 * rho + 1, z)[rho + 1:].sum(axis=0)
    return acc if acc.shape else float(acc)


def sample(outputs, points, blend=None) -> np.ndarray:
    """Values (..., total points) of outputs of one stack shape (..., pieces, m), pieces and m
    free, each at its own 1-D array of points, each in its `checked` range.

    A point reads piece g = floor(s), clipped to its output's pieces, at t = s - g, s = (x -
    start)/width: one Horner pass from a zero start over every output's pieces, zero-padded
    at the top (+0 t + 0 = +0 keeps every value's bytes).  blend = (interior_evals, overlaps,
    rho) makes each output (1 - beta) p + beta i across its overlap, beta = blend_weight(z,
    rho) at z the clipped place in it: p (value and rho derivatives) at overlap[0], the end
    toward the boundary, and i at overlap[1].  Each distinct interior_eval (say, each
    mesh's own) is called once, on the positive-weight points of its outputs' strips.
    """
    x, counts = np.concatenate(points), [len(p) for p in points]
    start, width, lo, hi = np.repeat([(o.start, o.width, *o.checked) for o in outputs], counts,
                                     axis=0).T
    inside = (x >= lo - 1e-9 * width) & (x <= hi + 1e-9 * width)
    if not inside.all():
        k = np.searchsorted(np.cumsum(counts), np.argmin(inside), side="right")
        raise OutsideInteriorRegionError(f"x outside the filtered region {outputs[k].region}")
    sizes = [o.coeffs.shape[-2] for o in outputs]
    first = np.cumsum([0] + sizes[:-1])
    s = (x - start) / width
    g = np.clip(np.floor(s).astype(int), 0, np.repeat(np.array(sizes) - 1, counts))
    piece, t = np.repeat(first, counts) + g, s - g
    coeffs = [np.moveaxis(np.asarray(o.coeffs, dtype=float), -1, 0) for o in outputs]
    table = np.zeros((max(map(len, coeffs)),) + coeffs[0].shape[1:-1] + (sum(sizes),))
    for c, a in zip(coeffs, first):
        table[:len(c), ..., a:a + c.shape[-1]] = c
    out = np.zeros(table.shape[1:-1] + t.shape)
    for c in table[::-1]:
        out *= t
        out += np.take(c, piece, axis=-1)
    if blend:
        interior_evals, overlaps, rho = blend
        if any(a1 == a2 for a1, a2 in overlaps):
            raise EmptyOverlapError("overlap interval is empty")
        if rho < 1:
            raise ValueError("smoothness order rho must be >= 1")
        a1, a2 = np.repeat(np.array(overlaps, dtype=float).T, counts, axis=-1)
        beta = blend_weight(np.clip((x - a1) / (a2 - a1), 0.0, 1.0), rho)
        for f in {id(f): f for f in interior_evals}.values():
            mix = (beta > 0.0) & np.repeat([e is f for e in interior_evals], counts)
            if mix.any():
                b = beta[mix]
                out[..., mix] = (1 - b) * out[..., mix] + b * f(x[mix])
    return out


# ---------------------------------------------------------------------------
# boundary filtering of DG fields


def window_placement(spec: FilterSpec, n_elements: int):
    """(first window element, lam_global, region in sigma units) of a left or right spec."""
    if spec.side not in ("left", "right"):
        raise UnsupportedFamilySideError(f"side {spec.side!r} is not a boundary side")
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
    """Q of the spec at the field's degree, and the Legendre coefficient rows it reads: those
    of the first or last Q.n_elements elements, by side; a stack of fields gives a stack."""
    if field.basis != "legendre":  # every operator here reads the solver's coefficients
        raise ValueError(f"filters read Legendre coefficients, not a {field.basis} field")
    first, _, _ = window_placement(spec, field.mesh.n)
    qm = q_matrix(spec, field.d)
    return qm, field.coeffs[..., first:first + qm.n_elements, :]


def filter_boundary(field, spec: FilterSpec):
    """Filter a DG field near the spec's domain end: one piece in t = (x - a)/h - lam_g.

    A stack of fields, coeffs (..., n, d+1), gives coefficients (..., 1, m); a sequence
    of fields of one degree and stack shape, on any meshes, a list of their outputs.  All
    windows are contracted in one `QMatrix.contract` call: a row's exact product does not
    depend on the rest.
    """
    fields = [field] if isinstance(field, dg.DGField) else field
    windows = [boundary_window(f, spec) for f in fields]
    coeffs = windows[0][0].contract(np.stack([window for _, window in windows]))
    outputs = []
    for f, c in zip(fields, coeffs):
        _, lam_g, region = window_placement(spec, f.mesh.n)
        a, h = f.mesh.a, f.mesh.h
        outputs.append(MonomialPieces(coeffs=c[..., None, :], start=a + float(lam_g) * h, width=h,
                                      region=tuple(a + float(s) * h for s in region),
                                      checked=(-np.inf, np.inf)))
    return outputs if fields is field else outputs[0]


# ---------------------------------------------------------------------------
# interior (symmetric) filtering


def _element_convolutions(d: int, dg_degree: int) -> list[list[list[int]]]:
    """[k][ell]: d! n! G_ell(k + p) in monomials of p in [0, 1], n = d + dg_degree + 1.

    G_ell(z) = int_0^1 B(z - v) phi_ell(v) dv, with B the degree-d cardinal
    B-spline on the knots 0..d+1 and phi_ell(v) = P_ell(2v - 1) the element
    Legendre basis, sum_j (-1)^(ell+j) C(ell, j) C(ell+j, j) v^j on integers.
    From d! B(x) = sum_i (-1)^i C(d+1, i) (x - i)_+^d:
        d! G_ell(k + p) = int_0^1 A_k(p - v) phi_ell(v) dv
                          + (-1)^k C(d+1, k) int_0^p (p - v)^d phi_ell(v) dv,
    A_k(y) = sum_{i<k} (-1)^i C(d+1, i) (k - i + y)^d; n! makes both
    integrals (sums of Beta integrals) integers.
    """
    g, n = dg_degree, d + dg_degree + 1
    nf = factorial(n)
    phi = [[(-1) ** (ell + j) * comb(ell, j) * comb(ell + j, j) for j in range(ell + 1)]
           for ell in range(g + 1)]
    moments = [[sum(c * nf // (m + j + 1) for j, c in enumerate(row)) for m in range(d + 1)]
               for row in phi]  # n! int_0^1 v^m phi_ell(v) dv
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
    reads the 3d+2 elements from e + offsets[q]; row i (element-major
    Legendre index) of exact[q] is their contribution to the output's
    monomial coefficients in t in [0, 1] along the piece.
    """

    d: int
    degree: int  # of the output polynomials, d + dg_degree + 1
    pieces: int
    offsets: tuple[int, ...]
    exact: RatMatrix  # (pieces, rows, degree + 1)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The operator as floats, each entry correctly rounded."""
        return self.exact.floats()


@lru_cache(maxsize=None)
def interior_operator(d: int, dg_degree: int) -> InteriorOperator:
    """Assemble the interior operator exactly, on integers.

    Kernel spline j (knots -mu + j ..) meets window element i of piece q
    through G at k = 3d + 1 - j - i, at p = (theta + t)/pieces with t in
    [0, 1] along the piece; each entry is sum_j c_j G[k] in monomials of t.
    """
    spec = build_spec("symmetric", d)
    cs, dc = _over_common_denominator(static_coefficients(spec))
    conv = _element_convolutions(d, dg_degree)
    n = d + dg_degree + 1
    pieces = 1 if d % 2 else 2
    offsets, numerators = [], []
    for q in range(pieces):
        theta = int(pieces * spec.mu + q) % pieces
        # pieces^n p^i = pieces^(n-i) (theta + t)^i, row s the coefficients of t^s
        change = [[pieces ** (n - i) * comb(i, s) * theta ** (i - s) if s <= i else 0
                   for i in range(n + 1)] for s in range(n + 1)]
        mono = [[[sum(map(mul, row, poly)) for row in change] for poly in piece]
                for piece in conv]
        rows = []
        for i in range(3 * d + 2):
            terms = [(c, mono[3 * d + 1 - j - i]) for j, c in enumerate(cs)
                     if 0 <= 3 * d + 1 - j - i <= d + 1]
            for ell in range(dg_degree + 1):
                rows.append(tuple(sum(c * b[ell][s] for c, b in terms) for s in range(n + 1)))
        offsets.append(floor(spec.mu + Fraction(q, pieces)) - 3 * d - 1)
        numerators.append(tuple(rows))
    den = factorial(d) * factorial(n) * pieces ** n * dc
    return InteriorOperator(d=d, degree=n, pieces=pieces, offsets=tuple(offsets),
                            exact=RatMatrix(numerators, den))


def interior_region(d: int, n_elements: int) -> tuple[Fraction, Fraction]:
    """[mu, N - mu] in sigma units, mu = (3d+1)/2: where the degree-d symmetric filter applies."""
    mu = Fraction(3 * d + 1, 2)
    if not n_elements - mu > mu:
        raise MeshTooCoarseError(f"no interior region left at {n_elements} elements")
    return mu, n_elements - mu


def filter_interior(field, filter_degree: int | None = None) -> MonomialPieces:
    """Symmetric-filter a DG field on the whole interior [a + mu h, b - mu h].

    Each output piece is one product of its (3d+2)-element data window
    with the interior operator.  A stack of fields, coeffs (..., n, d+1),
    takes one batched matmul per piece parity, each field's windows reaching
    BLAS as its own would.  The kernel degree defaults to the field degree.
    """
    if field.basis != "legendre":
        raise ValueError(f"filters read Legendre coefficients, not a {field.basis} field")
    mesh = field.mesh
    op = interior_operator(field.d if filter_degree is None else filter_degree, field.d)
    per = op.pieces
    first, stop = (int(per * s) for s in interior_region(op.d, mesh.n))
    g = np.arange(first, stop)
    q = g % per
    rows = (g // per + np.array(op.offsets)[q])[:, None] + np.arange(3 * op.d + 2)
    coeffs = np.empty(field.coeffs.shape[:-2] + (len(g), op.degree + 1))
    for piece in range(per):
        windows = field.coeffs[..., rows[q == piece], :]  # gathered once, C order
        coeffs[..., q == piece, :] = windows.reshape(windows.shape[:-2] + (-1,)) @ op.matrix[piece]
    width = mesh.h / per
    start = mesh.a + first * width
    region = (start, start + len(g) * width)
    return MonomialPieces(coeffs=coeffs, start=start, width=width, region=region, checked=region)


@lru_cache(maxsize=1024)
def symmetric_filter_weights(d: int, dg_degree: int, frac) -> tuple[int, np.ndarray]:
    """Contraction weights for one fractional position inside an element.

    For evaluation at sigma = e + frac the filtered value is
    sum over (de, ell) of W[de, ell] * legendre_coeffs[e + e0 + de, ell],
    where (e0, W) is the return value: the interior operator's piece
    containing frac (the later one at frac = 1/2 for even d), evaluated there.
    """
    op = interior_operator(d, dg_degree)
    s = float(frac) * op.pieces
    q = min(int(s), op.pieces - 1)
    w = op.matrix[q] @ (s - q) ** np.arange(op.degree + 1)
    return op.offsets[q], w.reshape(-1, dg_degree + 1)


def symmetric_filter_eval(field, x, filter_degree: int | None = None):
    """Convolve the DG field with the symmetric kernel at x (a float or an array).

    Only valid for x in [a + mu h, b - mu h]: `filter_interior` evaluated
    at x.  The kernel degree defaults to the field degree.
    """
    return filter_interior(field, filter_degree)(x)


def symmetric_filter_eval_local(field, element, frac, filter_degree: int | None = None):
    """Symmetric-filter value at sigma = element + frac: a float at an int ``element``, one
    value per entry of an integer array."""
    sigma = np.asarray(element) + float(frac)
    return symmetric_filter_eval(field, field.mesh.a + sigma * field.mesh.h, filter_degree)


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
    first: the exact piece of `bspline_pieces` recentred on integers, each
    coefficient rounded once.  A last zero row stands for z off the support.
    """
    ts, scale = _over_common_denominator(window)
    bps, pieces, den = bspline_pieces(ts, scale, k)
    rows = [[q * scale ** i / den for i, q in enumerate(_recentred(p, b))][::-1]
            for p, b in zip(pieces, bps)] + [[0.0] * (k + 1)]
    return np.array([b / scale for b in bps]), np.array(rows)


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
