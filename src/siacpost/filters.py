"""Construction of spline-filter families and their exact coefficients.

A filter kernel is a linear combination of unit-integral B-splines over a
prototype rational knot sequence.  Coefficients are fixed by moment
matching: the kernel must have zeroth moment 1 and vanishing moments
1..r, which makes convolution reproduce all polynomials up to degree r.

Shipped families (d = degree of the DG data the filter targets):

  symmetric  2d+1 degree-d splines on integer-step knots -mu..mu,
             mu = (3d+1)/2; interior use only, r = 2d.
  rs         the same prototype applied one-sided with a moving shift.
  srv        wide variant: r = 4d, mu = (5d+1)/2.
  np0        3d+1 piecewise-constant splines (k = 0) on -mu..mu,
             mu = (3d+1)/2, r = 3d.
  npk        np0 generalized to degree k with the two boundary-most knots
             raised to multiplicity k+1; r = 3d+k.  npk(k=0) == np0.
  rlkv       the 2d+1 degree-d splines of the symmetric kernel plus one
             boundary-stacked spline of degree 2d+1, r = 2d+1.

All knots are exact rationals (half-integers appear for even d).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, lcm

from .errors import UsageError
from .exact import RatMatrix, RatPoly, SingularMatrixError, _eliminate, rat
from .spline import as_knots, bspline_moment_sums, bspline_moments

# Unused here, but perfbench/tracer.py patches filters.invert_exact, filters.det_exact,
# filters.solve_exact and filters.bspline_moment, so the names must stay importable
# from this module.
from .exact import det_exact, invert_exact, solve_exact  # noqa: F401
from .spline import bspline_moment  # noqa: F401

FAMILIES = ("symmetric", "rs", "srv", "rlkv", "np0", "npk")
SIDES = ("left", "right", "interior")
# (r / d, k / d) of the families whose r + 1 splines of one degree k sit on the
# r + k + 2 integer-step knots from -mu, mu = (r + k + 1)/2
UNIFORM = {"symmetric": (2, 1), "rs": (2, 1), "srv": (4, 1), "np0": (3, 0)}


class UnsupportedFamilySideError(UsageError):
    """Family/side combination is not defined."""


class FilterParameterError(UsageError):
    """A filter parameter (DG degree, kernel degree k) is out of range or does not apply."""


class SingularReproductionError(ArithmeticError):
    """Moment-matching matrix is singular (malformed spec)."""


@dataclass(frozen=True)
class FilterSpec:
    """A fully derived filter prototype.

    windows[j] holds the knots of the j-th B-spline (degrees[j] + 2 of
    them); the kernel has r+1 = len(windows) coefficients.  ``mu`` is the
    half-support of the prototype and ``lam`` the width, in mesh units, of
    the boundary region the filter is meant to cover.
    """

    family: str
    d: int
    side: str
    degrees: tuple[int, ...]
    windows: tuple[tuple[Fraction, ...], ...]
    knots: tuple[Fraction, ...]
    mu: Fraction
    lam: Fraction

    def __post_init__(self):
        if len(self.degrees) != len(self.windows):
            raise ValueError("need one degree per window")
        for w, k in zip(self.windows, self.degrees):
            if len(w) != k + 2:
                raise ValueError("window size inconsistent with degree")
            if w[-1] == w[0]:
                raise ValueError("degenerate B-spline window")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # specs key the operator caches; hashing their Fractions once keeps lookups cheap
        return hash((self.family, self.d, self.side, self.degrees, self.windows, self.knots,
                     self.mu, self.lam))

    @property
    def r(self) -> int:
        """Reproduction degree: the kernel reproduces polynomials up to degree r."""
        return len(self.windows) - 1

    @property
    def support_width(self) -> Fraction:
        """Knot-span width t_n - t_0 of the whole kernel, in mesh units."""
        return self.knots[-1] - self.knots[0]


def _steps(lo: Fraction, n: int) -> list[Fraction]:
    return [lo + i for i in range(n)]


def _consecutive(knots: tuple[Fraction, ...], k: int, count: int):
    return tuple(tuple(knots[j:j + k + 2]) for j in range(count))


def family_name(family: str) -> str:
    """The family a spelling names: any case, '_' ignored, sym or symm for symmetric."""
    fam = family.strip().lower().replace("_", "")
    return "symmetric" if fam in ("sym", "symm") else fam


@lru_cache(maxsize=None)
def build_spec(family: str, d: int, side: str = "interior", k: int | None = None) -> FilterSpec:
    """Derive knots, windows, and reproduction degree for a filter family (cached)."""
    fam = family_name(family)
    sd = side.strip().lower()
    if fam not in FAMILIES:
        raise UnsupportedFamilySideError(f"unknown family {family!r}")
    if sd not in SIDES:
        raise UnsupportedFamilySideError(f"unknown side {side!r}")
    if d < 1:
        raise FilterParameterError("DG degree must be >= 1")
    if fam == "symmetric" and sd != "interior":
        raise UnsupportedFamilySideError("symmetric filter is interior-only")
    if fam != "symmetric" and sd == "interior":
        raise UnsupportedFamilySideError(f"{fam} is a boundary filter; pick left/right")
    if fam == "npk":
        if k is None or k < 0:
            raise FilterParameterError("npk needs a kernel degree k >= 0")
    elif k is not None:
        raise FilterParameterError("k applies to the npk family only")

    if fam in UNIFORM:
        r, deg = (m * d for m in UNIFORM[fam])
        mu = Fraction(r + deg + 1, 2)
        knots = tuple(_steps(-mu, r + deg + 2))
        windows = _consecutive(knots, deg, r + 1)
        degrees = (deg,) * (r + 1)
    elif fam == "npk":
        r = 3 * d + k
        mu = Fraction(3 * d + 1, 2)
        if sd == "left":
            knots = tuple(_steps(-mu, 3 * d) + [mu - 1] * (k + 1) + [mu] * (k + 1))
        else:
            knots = tuple([-mu] * (k + 1) + [-mu + 1] * (k + 1) + _steps(-mu + 2, 3 * d))
        windows = _consecutive(knots, k, r + 1)
        degrees = (k,) * (r + 1)
    else:  # rlkv
        mu = Fraction(3 * d + 1, 2)
        base = tuple(_steps(-mu, 3 * d + 2))
        windows = list(_consecutive(base, d, 2 * d + 1))
        if sd == "left":
            extra = (mu - 1,) + (mu,) * (2 * d + 2)
            knots = tuple(sorted(base + (mu,) * (2 * d + 1)))
        else:
            extra = (-mu,) * (2 * d + 2) + (-mu + 1,)
            knots = tuple(sorted(base + (-mu,) * (2 * d + 1)))
        windows.append(extra)
        windows = tuple(windows)
        degrees = (d,) * (2 * d + 1) + (2 * d + 1,)

    spec = FilterSpec(family=fam, d=d, side=sd, degrees=degrees, windows=windows,
                      knots=knots, mu=mu, lam=mu)
    _check_symmetry(spec)
    return spec


def _check_symmetry(spec: FilterSpec) -> None:
    if spec.family in UNIFORM:
        ks = spec.knots
        assert all(a + b == 0 for a, b in zip(ks, reversed(ks))), "prototype not symmetric"


def custom_spec(knots, k: int, index_set, side: str = "left",
                lam: Fraction | None = None, family: str = "custom") -> FilterSpec:
    """Build a one-off spec from explicit knots, degree, and index set.

    Window j covers knots[j : j+k+2].  The default boundary-region width
    is the full knot span.
    """
    ks = as_knots(knots)
    windows = tuple(tuple(ks[j:j + k + 2]) for j in index_set)
    width = ks[-1] - ks[0]
    return FilterSpec(family=family, d=max(k, 1), side=side, degrees=(k,) * len(windows),
                      windows=windows, knots=ks, mu=width / 2,
                      lam=width if lam is None else rat(lam))


def reproduction_matrix(spec: FilterSpec) -> RatMatrix:
    """Moment-form matching matrix: M[m][j] = integral of B_j(s) s^m ds.

    This form is valid for mixed per-spline degrees (rlkv).  Raises
    SingularReproductionError when the spline moments are dependent, as
    found by the cached elimination of `shifted_coefficient_polynomials`.
    """
    shifted_coefficient_polynomials(spec)
    cols = [bspline_moments(w, k, spec.r) for w, k in zip(spec.windows, spec.degrees)]
    return RatMatrix.from_rows([list(row) for row in zip(*cols)])


def static_coefficients(spec: FilterSpec) -> tuple[Fraction, ...]:
    """Kernel coefficients of the unshifted prototype.

    Solves M c = e0 (zeroth moment one, moments 1..r zero): c is c(0),
    column 0 of the coefficient polynomials.
    """
    return tuple(shifted_coefficient_polynomials(spec).evaluate(0))


@dataclass(frozen=True)
class CoefficientPolynomials:
    """Kernel coefficients as exact polynomials in the shift.

    c_j(xi) = sum_m C[j][m] xi^m gives the coefficients of the kernel over
    knots t + xi, with xi in mesh units.  C = M^-1 diag((-1)^m) is held
    exactly.
    """

    spec: FilterSpec
    exact: RatMatrix

    def poly(self, j: int) -> RatPoly:
        return RatPoly(self.exact.row(j))

    def at(self, xi) -> RatMatrix:
        """c(xi) = C [xi^m] for a rational xi = p/q, as one integer product."""
        xi, r = Fraction(xi), self.spec.r
        p, q = xi.numerator, xi.denominator
        return self.exact @ RatMatrix([p ** m * q ** (r - m) for m in range(r + 1)], q ** r)

    def evaluate(self, xi) -> list[Fraction]:
        """Coefficient vector at a given rational shift, exactly."""
        return self.at(xi).entries


@lru_cache(maxsize=None)
def shifted_coefficient_polynomials(spec: FilterSpec) -> CoefficientPolynomials:
    """Exact coefficient polynomials c_j(xi) for the shifted kernel.

    Derivation: shifting every knot by xi multiplies the moment matrix by
    the Pascal matrix L(xi), whose inverse maps e0 to [(-xi)^m], so
    c(xi) = M^-1 [(-xi)^m].  This covers mixed-degree kernels; for a
    uniform degree k it reduces to the familiar closed form
    M_power^-1 diag((-1)^m C(m+k+1, m)) [xi^m].

    M is eliminated once, here, on integers: moment row m, M[m][j] =
    h_m(W_j) / (D_j^m C(m+k_j+1, m)), is scaled by the lcm S_m of its
    denominators, and so is row m of the right-hand side diag((-1)^m), so
    that the solution stays M^-1 diag((-1)^m).  A singular M raises
    SingularReproductionError.
    """
    n = spec.r + 1
    sums = [bspline_moment_sums(w, k, spec.r) for w, k in zip(spec.windows, spec.degrees)]
    rows = []
    for m in range(n):
        dens = [den ** m * comb(m + k + 1, m) for (_, den), k in zip(sums, spec.degrees)]
        scale = lcm(*dens)
        rows.append([h[m] * (scale // den) for (h, _), den in zip(sums, dens)]
                    + [(-1) ** m * scale * (i == m) for i in range(n)])
    try:
        _, pivot, right = _eliminate(rows, n)
    except SingularMatrixError as exc:
        raise SingularReproductionError(
            f"singular reproduction matrix for {spec.family}") from exc
    return CoefficientPolynomials(spec=spec, exact=RatMatrix(right, pivot))
