"""1D discontinuous-Galerkin solver for variable-coefficient advection.

Solves du/dt + d/dx(kappa(x,t) u) = rho(x,t) on a uniform mesh with
periodic or Dirichlet-inflow boundary conditions, upwind flux (kappa > 0),
and classical RK4 in time.  Elements carry Legendre modal coefficients
internally; filtering converts to the Bernstein element basis.

The parts of the semi-discrete operator that do not depend on u (kappa at
the quadrature nodes and faces, the projected source, the Dirichlet inflow
flux) are evaluated as tables over time levels: `advance` builds one table
per block of RK4 steps, about 16k floats each, and every stage reads its
own row.  The time levels and the order of operations are those of a
per-stage evaluation, so the result does not depend on the block size.
Before stepping, `advance` rejects a CFL number that is not positive or
exceeds the RK4 stability limit of the upwind operator, and it checks each
block's kappa table against 0 < kappa <= kappa_max.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb
from typing import Callable, NamedTuple

import numpy as np

from .exact import RatMatrix, RatPoly, invert_exact
from .spline import bernstein_poly


class UnstableBlowupError(RuntimeError):
    """Solution magnitude exploded or went non-finite; the CFL number is too large."""


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh of n elements on [a, b]."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if self.n < 1 or not self.b > self.a:
            raise ValueError("need b > a and at least one element")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    def breakpoints(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n + 1)


@dataclass
class DGField:
    """Element-wise polynomial data: coeffs[i, l] for element i, basis l."""

    d: int
    mesh: Mesh
    coeffs: np.ndarray
    basis: str = "legendre"
    time: float = 0.0

    def copy(self) -> "DGField":
        return replace(self, coeffs=self.coeffs.copy())

    def evaluate(self, x) -> np.ndarray:
        """Field values at physical points (clamped into the domain)."""
        x = np.asarray(x, dtype=float)
        sigma = (x - self.mesh.a) / self.mesh.h
        e = np.clip(np.floor(sigma).astype(int), 0, self.mesh.n - 1)
        u = sigma - e
        vals = _basis_values(self.d, self.basis, u)
        out = np.einsum("pl,pl->p", self.coeffs[e.ravel()], vals.reshape(-1, self.d + 1))
        return out.reshape(x.shape) if x.shape else float(out[0])


def _basis_values(d: int, basis: str, u: np.ndarray) -> np.ndarray:
    """Values of all element basis functions at local coordinates u in [0,1]."""
    u = np.asarray(u, dtype=float)
    if basis == "legendre":
        return np.polynomial.legendre.legvander(2.0 * u - 1.0, d)
    if basis == "bernstein":
        cols = [comb(d, l) * u ** l * (1 - u) ** (d - l) for l in range(d + 1)]
        return np.stack(cols, axis=-1)
    raise ValueError(f"unknown basis {basis!r}")


@dataclass(frozen=True)
class TestProblem:
    """One instance of the canonical advection equation."""

    __test__ = False  # not a pytest class, despite the name

    name: str
    a: float
    b: float
    kappa: Callable[[np.ndarray, float], np.ndarray]
    rho: Callable[[np.ndarray, float], np.ndarray]
    u0: Callable[[np.ndarray], np.ndarray]
    bc: str  # "periodic" | "dirichlet"
    exact: Callable[[np.ndarray, float], np.ndarray]
    kappa_max: float

    def inflow(self, t):
        """Prescribed value at the inflow end (kappa > 0: the left end) at time(s) t."""
        t = np.asarray(t, dtype=float)
        return self.exact(np.full(t.shape, self.a), t)


PROBLEMS = {
    "tp1": TestProblem(
        name="tp1", a=0.0, b=1.0,
        kappa=lambda x, t: np.ones_like(x),
        rho=lambda x, t: np.zeros_like(x),
        u0=lambda x: np.sin(2 * np.pi * x),
        bc="periodic",
        exact=lambda x, t: np.sin(2 * np.pi * (x - t)),
        kappa_max=1.0),
    "tp2": TestProblem(
        name="tp2", a=0.0, b=2 * np.pi,
        kappa=lambda x, t: np.ones_like(x),
        rho=lambda x, t: np.zeros_like(x),
        u0=np.sin,
        bc="dirichlet",
        exact=lambda x, t: np.sin(x - t),
        kappa_max=1.0),
    "tp3": TestProblem(
        name="tp3", a=0.0, b=2 * np.pi,
        kappa=lambda x, t: 2.0 + np.sin(x + t),
        rho=lambda x, t: np.cos(x - t) + np.sin(2 * x),
        u0=np.sin,
        bc="periodic",
        exact=lambda x, t: np.sin(x - t),
        kappa_max=3.0),
}


def get_problem(name: str) -> TestProblem:
    key = name.strip().lower()
    if key not in PROBLEMS:
        raise KeyError(f"unknown problem {name!r}; choose from {sorted(PROBLEMS)}")
    return PROBLEMS[key]


# ---------------------------------------------------------------------------
# projection


def l2_project(u0: Callable, mesh: Mesh, d: int) -> DGField:
    """Element-wise L2 projection onto Legendre modal coefficients.

    Gauss-Legendre with d+2 points per element: exact for polynomial data
    up to degree d (and beyond).
    """
    gx, gw = np.polynomial.legendre.leggauss(d + 2)
    mids = mesh.a + (np.arange(mesh.n) + 0.5) * mesh.h
    x = mids[:, None] + 0.5 * mesh.h * gx[None, :]
    p = np.polynomial.legendre.legvander(gx, d)
    vals = u0(x)
    scale = (2 * np.arange(d + 1) + 1) / 2.0
    coeffs = (vals * gw[None, :]) @ p * scale[None, :]
    return DGField(d=d, mesh=mesh, coeffs=coeffs, basis="legendre", time=0.0)


# ---------------------------------------------------------------------------
# semi-discrete operator


class _RhsWorkspace:
    """Precomputed quadrature and basis tables for one (mesh, d)."""

    def __init__(self, mesh: Mesh, d: int):
        self.mesh = mesh
        self.d = d
        q = max(2 * d + 2, d + 4)
        gx, gw = np.polynomial.legendre.leggauss(q)
        self.gw = gw
        mids = mesh.a + (np.arange(mesh.n) + 0.5) * mesh.h
        self.xq = mids[:, None] + 0.5 * mesh.h * gx[None, :]
        self.p = np.polynomial.legendre.legvander(gx, d)
        self.p_t = self.p.T
        pd = np.zeros_like(self.p)
        for n in range(1, d + 1):
            c = np.zeros(n + 1)
            c[n] = 1.0
            pd[:, n] = np.polynomial.legendre.legval(gx, np.polynomial.legendre.legder(c))
        self.pd = pd  # dP_n/dxi at quad nodes
        self.par = (-1.0) ** np.arange(d + 1)  # P_n(-1)
        self.faces = mesh.breakpoints()
        self.mass_inv = (2 * np.arange(d + 1) + 1) / mesh.h


class _Coefficients(NamedTuple):
    """The u-independent parts of the operator, one row per time level."""

    kap_q: np.ndarray      # (levels, n, q) kappa at the quadrature nodes
    kap_faces: np.ndarray  # (levels, n + 1) kappa at the faces
    src: np.ndarray        # (levels, n, d + 1) projected source
    inflow: np.ndarray | None  # (levels,) Dirichlet inflow flux


def _coefficient_tables(ws: _RhsWorkspace, problem: TestProblem,
                        times: np.ndarray) -> _Coefficients:
    """Evaluate kappa, rho and the inflow once for all time levels `times`.

    The coefficient functions are called once each over a (levels, 1, 1)
    time array; broadcast_to covers those that ignore t (np.ones_like(x)).
    """
    t = times[:, None, None]
    levels = times.shape
    kap_q = np.broadcast_to(problem.kappa(ws.xq, t), levels + ws.xq.shape)
    kap_faces = np.broadcast_to(problem.kappa(ws.faces, t[:, 0]), levels + ws.faces.shape)
    rho = np.broadcast_to(problem.rho(ws.xq, t), levels + ws.xq.shape)
    src = (rho * ws.gw) @ ws.p * (ws.mesh.h / 2.0)
    inflow = None if problem.bc == "periodic" else kap_faces[:, 0] * problem.inflow(times)
    return _Coefficients(kap_q, kap_faces, src, inflow)


def dg_rhs(field: DGField, t: float, problem: TestProblem,
           workspace: _RhsWorkspace | None = None,
           coefficients: _Coefficients | None = None, level: int = 0) -> np.ndarray:
    """Time derivative of the Legendre modal coefficients (weak form).

    Volume term integrates kappa*u against test-function derivatives;
    interfaces use the upwind flux kappa(x_f, t) * u^- (trace from the
    left, valid for kappa > 0).  Dirichlet inflow takes the prescribed
    boundary value; periodic wraps the last trace around.  The
    coefficients at t are row `level` of the given tables, or are
    evaluated here when none are given.
    """
    ws = workspace or _RhsWorkspace(field.mesh, field.d)
    if coefficients is None:
        coefficients, level = _coefficient_tables(ws, problem, np.array([t], dtype=float)), 0
    c = field.coeffs
    u_q = c @ ws.p_t
    vol = (coefficients.kap_q[level] * u_q * ws.gw) @ ws.pd  # dxi/dx and h/2 cancel
    u_right = c.sum(axis=1)  # P_n(1) = 1
    flux_right = coefficients.kap_faces[level, 1:] * u_right
    flux_left = np.empty_like(flux_right)
    flux_left[1:] = flux_right[:-1]
    if coefficients.inflow is None:
        flux_left[0] = flux_right[-1]
    else:
        flux_left[0] = coefficients.inflow[level]
    vol -= flux_right[:, None]
    vol += flux_left[:, None] * ws.par
    vol += coefficients.src[level]
    vol *= ws.mass_inv
    return vol


# ---------------------------------------------------------------------------
# time stepping


def default_cfl(d: int) -> float:
    return 0.1 / (2 * d + 1)


# RK4 stability limits of the periodic upwind operator in units of
# h / kappa_max, for d = 0..8: the eigenvalue limits (1.3926, 0.4642, 0.2352,
# 0.1454, 0.1000, 0.0736, 0.0568, 0.0453, 0.0371) rounded down; see Cockburn
# & Shu, J. Sci. Comput. 16 (2001).  tests/test_dg.py recomputes them.
RK4_CFL_LIMITS = (1.392, 0.464, 0.235, 0.145, 0.100, 0.073, 0.056, 0.045, 0.037)

# floats per coefficient table: sets how many RK4 steps share one table
_TABLE_FLOATS = 16384


def max_stable_cfl(d: int) -> float:
    """Largest CFL number `advance` accepts at degree d."""
    if d < len(RK4_CFL_LIMITS):
        return RK4_CFL_LIMITS[d]
    # beyond the table the spectral radius grows like (d + 1)^2
    return RK4_CFL_LIMITS[-1] * (len(RK4_CFL_LIMITS) / (d + 1)) ** 2


def check_cfl(cfl: float | None, d: int) -> float:
    """The CFL number `advance` uses at degree d: cfl, or the default when None.

    Raises ValueError unless it is positive and finite, UnstableBlowupError
    above the RK4 stability limit `max_stable_cfl(d)`.
    """
    c = cfl if cfl is not None else default_cfl(d)
    if not (np.isfinite(c) and c > 0):
        raise ValueError(f"CFL number must be positive and finite, got {c}")
    if c > max_stable_cfl(d):
        raise UnstableBlowupError(
            f"CFL number {c} exceeds the RK4 stability limit {max_stable_cfl(d)} for d={d}")
    return c


def _check_bounded(u: np.ndarray) -> None:
    # NaN compares False, so test for the bound holding rather than failing
    if not np.abs(u).max() <= 1e10:
        raise UnstableBlowupError(
            "coefficients exceeded 1e10 or are not finite; reduce the CFL number")


def _check_kappa(tables: _Coefficients, problem: TestProblem) -> None:
    lo = min(tables.kap_q.min(), tables.kap_faces.min())
    hi = max(tables.kap_q.max(), tables.kap_faces.max())
    if not (lo > 0 and hi <= problem.kappa_max):
        raise ValueError(
            f"kappa of {problem.name} takes values in [{lo}, {hi}]; the upwind flux "
            f"and the step size need 0 < kappa <= kappa_max = {problem.kappa_max}")


def advance(field: DGField, problem: TestProblem, t_end: float,
            cfl: float | None = None) -> DGField:
    """March the field to t_end with classical RK4 (integer step count).

    Step k starts at t_k = field.time + k*dt; its stages see t_k,
    t_k + dt/2 (twice) and t_k + dt.  The coefficient tables cover those
    three levels for a block of steps at a time.
    """
    c = check_cfl(cfl, field.d)
    if t_end < field.time - 1e-14:
        raise ValueError("cannot integrate backwards")
    span = t_end - field.time
    out = field.copy()
    if span <= 0:
        out.time = t_end
        return out
    dt_max = c * field.mesh.h / problem.kappa_max
    steps = max(1, ceil(span / dt_max))
    dt = span / steps
    ws = _RhsWorkspace(field.mesh, field.d)
    block = max(1, _TABLE_FLOATS // (3 * ws.xq.size))
    u = out.coeffs
    stage = out.copy()  # its coeffs are replaced at every stage
    for start in range(0, steps, block):
        t_k = field.time + np.arange(start, min(start + block, steps)) * dt
        times = np.stack((t_k, t_k + 0.5 * dt, t_k + dt), axis=1).ravel()
        tables = _coefficient_tables(ws, problem, times)
        _check_kappa(tables, problem)
        for lv in range(0, len(times), 3):
            stage.coeffs = u
            k1 = dg_rhs(stage, times[lv], problem, ws, tables, lv)
            stage.coeffs = u + 0.5 * dt * k1
            k2 = dg_rhs(stage, times[lv + 1], problem, ws, tables, lv + 1)
            stage.coeffs = u + 0.5 * dt * k2
            k3 = dg_rhs(stage, times[lv + 1], problem, ws, tables, lv + 1)
            stage.coeffs = u + dt * k3
            k4 = dg_rhs(stage, times[lv + 2], problem, ws, tables, lv + 2)
            u += (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if (start + lv // 3) % 64 == 0:
                _check_bounded(u)
    _check_bounded(u)
    out.coeffs = u
    out.time = t_end
    return out


def dg_solve(problem: TestProblem, mesh: Mesh, d: int, t_end: float,
             cfl: float | None = None) -> DGField:
    """Project the initial condition and march to the final time."""
    if t_end < 0:
        raise ValueError("final time must be nonnegative")
    if not (np.isclose(mesh.a, problem.a) and np.isclose(mesh.b, problem.b)):
        raise ValueError("mesh does not match the problem domain")
    field = l2_project(problem.u0, mesh, d)
    return advance(field, problem, t_end, cfl)


# ---------------------------------------------------------------------------
# element-basis conversion


@lru_cache(maxsize=None)
def _legendre_shifted_polys(d: int) -> tuple:
    """P_n(2u - 1) as exact polynomials in u on [0, 1]."""
    polys = [RatPoly([1]), RatPoly([-1, 2])]
    for n in range(1, d):
        nxt = (RatPoly([-1, 2]) * polys[n] * Fraction(2 * n + 1) -
               polys[n - 1] * Fraction(n)) * Fraction(1, n + 1)
        polys.append(nxt)
    return tuple(polys[:d + 1])


@lru_cache(maxsize=None)
def _conversion_matrices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(legendre->bernstein, bernstein->legendre) exact, as float arrays."""
    # monomial coefficients of each basis, columns = basis functions
    leg = RatMatrix.from_rows([[_pad(p.coeffs, d + 1)[i] for p in _legendre_shifted_polys(d)]
                               for i in range(d + 1)])
    bern = RatMatrix.from_rows([[_pad(bernstein_poly(d, l).coeffs, d + 1)[i]
                                 for l in range(d + 1)]
                                for i in range(d + 1)])
    l2b = invert_exact(bern) @ leg
    b2l = invert_exact(leg) @ bern
    return np.array(l2b.to_float()), np.array(b2l.to_float())


def _pad(coeffs, n):
    return list(coeffs) + [Fraction(0)] * (n - len(coeffs))


def to_bernstein(field: DGField) -> DGField:
    """Change of element basis to Bernstein coefficients."""
    if field.basis == "bernstein":
        return field
    l2b, _ = _conversion_matrices(field.d)
    return DGField(d=field.d, mesh=field.mesh, coeffs=field.coeffs @ l2b.T,
                   basis="bernstein", time=field.time)
