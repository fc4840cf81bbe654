"""1D discontinuous-Galerkin solver for variable-coefficient advection.

Solves du/dt + d/dx(kappa(x,t) u) = rho(x,t) on a uniform mesh with
periodic or Dirichlet-inflow boundary conditions, upwind flux (kappa > 0),
and classical RK4 in time.  Elements carry Legendre modal coefficients, which
the filters read as they are; `to_bernstein` gives the Bernstein element basis.

`advance` picks one of three RK4 steppers from the problem itself:

- kappa and rho are this module's `_unit_speed` and `_no_source` (tp1,
  tp2): a step is u <- u + (R - I) u, R - I = sum_k (dt A)^k / k! over
  k = 1..4, A the upwind operator.  h A has integer Legendre blocks, so
  R - I has five block diagonals, rational in nu = dt / h; a Dirichlet
  step also adds three inflow terms on elements 0-3.  Each entry is an
  integer over one common denominator, split into floats hi + lo by
  `exact.RatMatrix.hi_lo`: a step is one `take` of the windows into a
  buffer, one batched matmul by hi and lo and an add, and rounds no worse
  than the stages of `dg_rhs`.
- kappa and rho are tp3's `_tp3_kappa` and `_tp3_rho`, periodic, on a
  mesh of length 2 pi: one harmonic increment operator per call.  In
  element e the scheme reads kappa = 2 + sin(x + t) only at points
  x_e + delta + t, x_e the element's midpoint, so a stage is a
  trigonometric polynomial of degree 1 in the phase s = x_e + t; a
  neighbour's phase is s - h and a later stage's s + dt/2 or s + dt.
  The four stages compose into u_e <- u_e + sum_j phi_j(s_e) W_j
  [u_(e-4) ... u_e] + sum_j phi_j(s_e) G_j (cos 2t_k, sin 2t_k), phi =
  (1, cos s, sin s, cos 2s, ...), s_e = x_e + t_k: degree 4 in u's part,
  as each stage multiplies by kappa once, and degree 5 in the source
  cos(x - t) + sin 2x, which has degree 2 and is linear in e^(-2it_k).
  W and G are the same for every element and step of a call.  They are
  composed once per call in the basis e^{ijs} on integers in fixed point
  2^-128, from the scheme's float Gauss rule, the cosines and sines of
  the node offsets, h/2, h, dt/2 and dt, and nu = dt / h, each lifted
  exactly, and each entry is rounded once into hi + lo.  A step is one
  matmul of a strided window view, one batched contraction with the
  step's phase row and two adds; the phase and source rows are tabulated
  per block of steps by angle addition, in place, into buffers made once
  per call, and a step only indexes its rows.
- any other problem (Dirichlet tp3, custom ones): four calls of the
  plain weak form `dg_rhs` per step, kappa checked at each step's levels.

Before stepping, `advance` rejects a final time that is not finite or lies
before the field's time and a CFL number that is not positive or exceeds
the RK4 stability limit, and it checks kappa against 0 < kappa <= kappa_max.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from fractions import Fraction
from math import ceil, comb, factorial, lcm
from typing import Callable

import numpy as np

from .errors import UsageError
from .exact import RatMatrix
# Unused here, but perfbench/tracer.py patches dg.invert_exact, so the name must resolve.
from .exact import invert_exact  # noqa: F401


class UnstableBlowupError(RuntimeError):
    """Solution magnitude exploded or went non-finite; the CFL number is too large."""


class CflLimitError(UnstableBlowupError, UsageError):
    """The requested CFL number is above the RK4 stability limit."""


class UnknownProblemError(UsageError, KeyError):
    """No test problem has that name; a KeyError that prints its message unquoted."""
    __str__ = UsageError.__str__


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh of n elements on [a, b]."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if self.n < 1 or not self.b > self.a:
            raise UsageError("need b > a and at least one element")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    def breakpoints(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n + 1)


@dataclass
class DGField:
    """Element-wise polynomial data: coeffs[..., i, l] for element i, basis l.

    Leading axes stack fields on one mesh, such as a time series, whose time is an array.
    """

    d: int
    mesh: Mesh
    coeffs: np.ndarray
    basis: str = "legendre"
    time: float = 0.0

    def copy(self) -> "DGField":
        return replace(self, coeffs=self.coeffs.copy())

    def evaluate(self, x) -> np.ndarray:
        """Field values at physical points (clamped into the domain), shape (..., *x.shape).

        Stacked fields each get their own values; one field at a scalar x gives a float.
        """
        x = np.asarray(x, dtype=float)
        sigma = (x - self.mesh.a) / self.mesh.h
        e = np.clip(np.floor(sigma).astype(int), 0, self.mesh.n - 1)
        vals = _basis_values(self.d, self.basis, sigma - e).reshape(-1, self.d + 1)
        out = np.einsum("...pl,pl->...p", self.coeffs[..., e.ravel(), :], vals)
        out = out.reshape(self.coeffs.shape[:-2] + x.shape)
        return out if out.shape else float(out)


def bernstein_values(n: int, t) -> np.ndarray:
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


def _basis_values(d: int, basis: str, u: np.ndarray) -> np.ndarray:
    """Values of all element basis functions at local coordinates u in [0,1], along a last axis."""
    if basis == "legendre":
        return np.polynomial.legendre.legvander(2.0 * np.asarray(u, dtype=float) - 1.0, d)
    if basis == "bernstein":
        return np.moveaxis(bernstein_values(d, u), 0, -1)
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


def _unit_speed(x, t):  # kappa = 1
    return np.ones_like(x)


def _no_source(x, t):  # rho = 0
    return np.zeros_like(x)


# tp3's 2 + sin(x + t) and cos(x - t) + sin(2x) by angle addition, as the
# fixed-point oracle evaluates them; the closed form would round x +- t first
def _tp3_kappa(x, t):
    return 2.0 + (np.sin(x) * np.cos(t) + np.cos(x) * np.sin(t))


def _tp3_rho(x, t):
    return (np.cos(x) * np.cos(t) + np.sin(x) * np.sin(t)) + np.sin(2 * x)


PROBLEMS = {
    "tp1": TestProblem(
        name="tp1", a=0.0, b=1.0,
        kappa=_unit_speed,
        rho=_no_source,
        u0=lambda x: np.sin(2 * np.pi * x),
        bc="periodic",
        exact=lambda x, t: np.sin(2 * np.pi * (x - t)),
        kappa_max=1.0),
    "tp2": TestProblem(
        name="tp2", a=0.0, b=2 * np.pi,
        kappa=_unit_speed,
        rho=_no_source,
        u0=np.sin,
        bc="dirichlet",
        exact=lambda x, t: np.sin(x - t),
        kappa_max=1.0),
    "tp3": TestProblem(
        name="tp3", a=0.0, b=2 * np.pi,
        kappa=_tp3_kappa,
        rho=_tp3_rho,
        u0=np.sin,
        bc="periodic",
        exact=lambda x, t: np.sin(x - t),
        kappa_max=3.0),
}


def get_problem(name: str) -> TestProblem:
    key = name.strip().lower()
    if key not in PROBLEMS:
        raise UnknownProblemError(f"unknown problem {name!r}; choose from {sorted(PROBLEMS)}")
    return PROBLEMS[key]


# ---------------------------------------------------------------------------
# projection


def l2_project(u0: Callable, mesh: Mesh, d: int) -> DGField:
    """Element-wise L2 projection onto Legendre modal coefficients.

    Gauss-Legendre with d+2 points per element: exact for polynomial data
    up to degree d (and beyond).
    """
    if d < 0:
        raise UsageError(f"DG degree must be >= 0, got {d}")
    gx, gw, p = _projection_rule(d)
    mids = mesh.a + (np.arange(mesh.n) + 0.5) * mesh.h
    x = mids[:, None] + 0.5 * mesh.h * gx[None, :]
    vals = u0(x)
    scale = (2 * np.arange(d + 1) + 1) / 2.0
    coeffs = (vals * gw[None, :]) @ p * scale[None, :]
    return DGField(d=d, mesh=mesh, coeffs=coeffs, basis="legendre", time=0.0)


@lru_cache(maxsize=None)
def _projection_rule(d: int) -> tuple[np.ndarray, ...]:
    """l2_project's d + 2 Gauss nodes and weights, and P_n at the nodes, read-only."""
    gx, gw = np.polynomial.legendre.leggauss(d + 2)
    rule = gx, gw, np.polynomial.legendre.legvander(gx, d)
    for a in rule:
        a.flags.writeable = False
    return rule


# ---------------------------------------------------------------------------
# semi-discrete operator


@lru_cache(maxsize=None)
def _gauss_rule(d: int) -> tuple[np.ndarray, ...]:
    """The scheme's Gauss nodes and weights and P_n, P_n' at the nodes (q, d + 1)."""
    gx, gw = np.polynomial.legendre.leggauss(max(2 * d + 2, d + 4))
    p = np.polynomial.legendre.legvander(gx, d)
    pd = np.polynomial.legendre.legval(gx, np.polynomial.legendre.legder(np.eye(d + 1))).T
    return gx, gw, p, pd


@lru_cache(maxsize=32)
def _nodes(mesh: Mesh, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss nodes of every element (n, q) and the faces (n + 1), read-only."""
    mids = mesh.a + (np.arange(mesh.n) + 0.5) * mesh.h
    out = mids[:, None] + 0.5 * mesh.h * _gauss_rule(d)[0][None, :], mesh.breakpoints()
    for a in out:
        a.flags.writeable = False
    return out


def dg_rhs(field: DGField, t: float, problem: TestProblem) -> np.ndarray:
    """Time derivative of the Legendre modal coefficients (weak form).

    Volume term integrates kappa*u against test-function derivatives;
    interfaces use the upwind flux kappa(x_f, t) * u^- (trace from the
    left, valid for kappa > 0).  Dirichlet inflow takes the prescribed
    boundary value; periodic wraps the last trace around.
    """
    mesh, c = field.mesh, field.coeffs
    _, gw, p, pd = _gauss_rule(field.d)
    xq, faces = _nodes(mesh, field.d)
    volume = (problem.kappa(xq, t) * (c @ p.T) * gw) @ pd  # dxi/dx and h/2 cancel
    source = (problem.rho(xq, t) * gw) @ p * (0.5 * mesh.h)
    kap_faces = problem.kappa(faces, t)
    outflow = kap_faces[1:] * c.sum(axis=1)  # P_n(1) = 1
    inflow = np.empty_like(outflow)
    inflow[1:] = outflow[:-1]
    inflow[0] = outflow[-1] if problem.bc == "periodic" else kap_faces[0] * problem.inflow(t)
    rhs = volume - outflow[:, None] + inflow[:, None] * (-1.0) ** np.arange(field.d + 1) + source
    return rhs * ((2 * np.arange(field.d + 1) + 1) / mesh.h)


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

    Raises UsageError unless it is positive and finite, and CflLimitError
    (a UsageError and an UnstableBlowupError) above the RK4 stability limit
    `max_stable_cfl(d)`.
    """
    c = cfl if cfl is not None else default_cfl(d)
    if not (np.isfinite(c) and c > 0):
        raise UsageError(f"CFL number must be positive and finite, got {c}")
    if c > max_stable_cfl(d):
        raise CflLimitError(
            f"CFL number {c} exceeds the RK4 stability limit {max_stable_cfl(d)} for d={d}")
    return c


def _check_bounded(u: np.ndarray) -> None:
    # NaN compares False, so test for the bound holding rather than failing
    if not np.abs(u).max() <= 1e10:
        raise UnstableBlowupError(
            "coefficients exceeded 1e10 or are not finite; reduce the CFL number")


def _check_kappa(problem: TestProblem, lo: float, hi: float) -> None:
    if not (lo > 0 and hi <= problem.kappa_max):
        raise UsageError(
            f"kappa of {problem.name} takes values in [{lo}, {hi}]; the upwind flux "
            f"and the step size need 0 < kappa <= kappa_max = {problem.kappa_max}")


def _time_blocks(t0: float, dt: float, steps: int, block: int):
    """(first step, levels) per block of steps; step k has levels t_k, t_k + dt/2, t_k + dt."""
    for start in range(0, steps, block):
        t_k = t0 + np.arange(start, min(start + block, steps)) * dt
        yield start, np.stack((t_k, t_k + 0.5 * dt, t_k + dt), axis=1).ravel()


def _rhs_steps(field: DGField, problem: TestProblem, dt: float, steps: int):
    """RK4 stages through the module-global `dg_rhs`; yields (step, u).

    Before each step, kappa is checked at the nodes and the faces at the
    step's three time levels t_k, t_k + dt/2 and t_k + dt.
    """
    xq, faces = _nodes(field.mesh, field.d)
    u = field.coeffs
    stage = lambda c: replace(field, coeffs=c)
    for k in range(steps):
        levels = field.time + k * dt + np.array([0.0, 0.5 * dt, dt])
        kappa = np.concatenate((problem.kappa(xq, levels[:, None, None]),
                                problem.kappa(faces, levels[:, None])), axis=None)
        _check_kappa(problem, kappa.min(), kappa.max())
        k1 = dg_rhs(stage(u), levels[0], problem)
        k2 = dg_rhs(stage(u + 0.5 * dt * k1), levels[1], problem)
        k3 = dg_rhs(stage(u + 0.5 * dt * k2), levels[1], problem)
        k4 = dg_rhs(stage(u + dt * k3), levels[2], problem)
        u += (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        yield k, u


@lru_cache(maxsize=None)
def _upwind_powers(d: int) -> np.ndarray:
    """M[k, j], k, j = 0..4: the block on block sub-diagonal j of (h A)^k, in integers.

    h A has the diagonal block (2n + 1)(V[l, n] - 1), V[l, n] = int P_l P_n'
    = 2 if n > l and n + l is odd, else 0, and the sub-diagonal block
    (2n + 1)(-1)^n (Hesthaven & Warburton, Nodal DG Methods, 2008, ch. 4).
    """
    n, l = np.indices((d + 1, d + 1))
    m = np.zeros((5, 5, d + 1, d + 1), dtype=np.int64)
    m[0, 0] = np.eye(d + 1)
    for k in range(1, 5):
        m[k] = (2 * n + 1) * (2 * ((n > l) & ((n + l) % 2 == 1)) - 1) @ m[k - 1]
        m[k, 1:] += (2 * n + 1) * (-1) ** n @ m[k - 1, :-1]
    return m.astype(object)  # Python integers: the operator's entries outgrow int64


@lru_cache(maxsize=None)
def _inflow_traces(d: int) -> np.ndarray:
    """M[k, :4] b, k = 0..3, b = (2n + 1)(-1)^n: what the inflow on element 0 adds to
    elements 0-3 through (h A)^k, as (4, 4, d + 1) integers."""
    b = (2 * np.arange(d + 1) + 1) * (-1) ** np.arange(d + 1)
    return _upwind_powers(d)[:4, :4] @ b


@lru_cache(maxsize=64)  # equally spaced final times repeat nu from call to call
def _increment_operator(d: int, nu: Fraction) -> tuple[np.ndarray, np.ndarray]:
    """The blocks and inflow terms of an RK4 step at nu = dt / h, each entry as floats hi, lo.

    Row j*m + l, column n of the blocks is entry (n, l) of
    B_j = sum_k nu^k / k! M[k, j], k = 1..4, so a step is u_i += sum_j B_j u_(i-j).
    A Dirichlet step also adds g(t_k) c1 + g(t_k + dt/2) c2 + g(t_k + dt) c4,
    6 c1 = (I + a + a^2/2 + a^3/4) b, 6 c2 = (4I + 2a + a^2/2) b, 6 c4 = b,
    with a = dt A and b = nu (2n + 1)(-1)^n on element 0.
    """
    m, p, q = d + 1, nu.numerator, nu.denominator
    powers, traces = _upwind_powers(d), _inflow_traces(d)
    blocks = np.zeros((5, m, m), dtype=object)
    for k in range(1, 5):  # M[k, j] = 0 for j > k
        blocks[:k + 1] += 24 // factorial(k) * p ** k * q ** (4 - k) * powers[k, :k + 1]
    inflow = [sum(w * p ** (k + 1) * q ** (3 - k) * traces[k] for k, w in enumerate(ws))
              for ws in ((4, 4, 2, 1), (16, 8, 2), (4,))]
    den = 24 * q ** 4  # of every entry above
    return (RatMatrix(blocks.transpose(0, 2, 1), den).hi_lo().reshape(2, 5 * m, m),
            RatMatrix(inflow, den).hi_lo().reshape(2, 3, 4 * m))


def _increment_steps(field: DGField, problem: TestProblem, dt: float, steps: int):
    """RK4 of a unit-speed, source-free problem, one exact increment per step; yields (step, u).

    A step takes each window [u_i, ..., u_(i-4)] into one buffer and multiplies it by hi and
    lo in one batched matmul (one BLAS call each, as two matmuls would), then adds the two.
    Every buffer and view a step uses is made once per call.
    """
    _check_kappa(problem, 1.0, 1.0)
    n, m, periodic = field.mesh.n, field.d + 1, problem.bc == "periodic"
    blocks, inflow = _increment_operator(field.d, Fraction(dt) / Fraction(field.mesh.h))
    pad = 0 if periodic else 4  # zero rows: the missing upwind neighbours of an inflow
    padded = np.zeros((n + pad, m))
    u = padded[:n]
    u[:] = field.coeffs
    windows = np.arange(n)[:, None] - np.arange(5)  # `take` wraps them modulo n + pad
    window, products, increment = np.empty((n, 5, m)), np.empty((2, n, m)), np.empty((n, m))
    flat, (hi, lo), inflowing = window.reshape(n, 5 * m), products, increment[:4]
    take = padded.take  # the bound method skips np.take's dispatch, 1.5 us a step
    for start, times in _time_blocks(field.time, dt, steps, _TABLE_FLOATS // (4 * m)):
        if not periodic:
            g = problem.inflow(times).reshape(-1, 3)
            corrections = (g @ inflow[0] + g @ inflow[1]).reshape(len(g), 4, m)[:, :n]
        for k in range(len(times) // 3):
            take(windows, axis=0, out=window, mode="wrap")
            np.matmul(flat, blocks, out=products)
            np.add(hi, lo, out=increment)
            if not periodic:
                inflowing += corrections[k]
            u += increment
            yield start + k, u


_ONE = 1 << 128  # the harmonic operator is composed in fixed point 2^-128, as tests/oracles.py


def _lift(x) -> np.ndarray:
    """Floats as integer multiples of 2^-128 (exact down to 2^-75), in an object array."""
    x = np.asarray(x, dtype=float)
    return np.array([int(v) for v in np.ldexp(x, 128).ravel()], dtype=object).reshape(x.shape)


def _cprod(a, b):
    """Product of complex fixed-point values or arrays, each a pair (re, im), rounded down."""
    (ar, ai), (br, bi) = a, b
    return (ar * br - ai * bi) >> 128, (ar * bi + ai * br) >> 128


def _legendre_fixed(x: float, d: int) -> tuple[list[int], list[int]]:
    """P_l(x) and P_l'(x), l = 0..d, exactly from the float x, then rounded to 2^-128."""
    x = Fraction(x)
    p, dp = [Fraction(1), x], [Fraction(0), Fraction(1)]
    for l in range(1, d):
        p.append(((2 * l + 1) * x * p[l] - l * p[l - 1]) / (l + 1))
        dp.append(dp[l - 1] + (2 * l + 1) * p[l])
    return [round(v * _ONE) for v in p[:d + 1]], [round(v * _ONE) for v in dp[:d + 1]]


@lru_cache(maxsize=None)
def _harmonic_tables(d: int, h: float):
    """The dt-free parts of tp3's stage on a periodic mesh of element width h, in fixed point.

    At the element phase s = x_e + t, x_e the element's midpoint, and a
    point delta from it, kappa = 2 + e^{is} e^{i delta} / 2i + conj.
    Returns (own, inflow, beta, shift), each a pair (re, im) of object
    arrays, from the scheme's Gauss rule and the cosines and sines of the
    node offsets h gx / 2, of h / 2 and of h: own (2, m, m) is h times
    the stage's block on the element itself for kappa's harmonics
    e^{ijs}, j = 0, 1 (volume term, minus the outflow at delta = h / 2);
    inflow (2,) is kappa's harmonics at the inflow face, delta = -h / 2;
    beta (2, m) is the projected source (2l + 1) / 2 sum_q gw_q rho_q
    P_l(gx_q) of its harmonics e^{-2it_k} e^{is} (at tau = 0) and
    e^{-2it_k} e^{2is}; shift (11, 1, 1, 1) is e^{-ijh}, j = -5..5, the
    phase of an element's upwind neighbour.
    """
    m = d + 1
    gx, gw = _gauss_rule(d)[:2]
    p, dp = (np.array(v, dtype=object) for v in zip(*(_legendre_fixed(x, d) for x in gx.tolist())))
    w, odd = _lift(gw), np.array([2 * l + 1 for l in range(m)], dtype=object)
    terms = (dp[:, :, None] * p[:, None, :]) >> 128  # [q, l, n] P_l'(gx_q) P_n(gx_q)
    c, s = _lift(np.cos(0.5 * h * gx)), _lift(np.sin(0.5 * h * gx))
    (cf, sf, ch, sh) = _lift([np.cos(0.5 * h), np.sin(0.5 * h), np.cos(h), np.sin(h)])
    volume = lambda f: odd[:, None] * (np.tensordot(w * f, terms, axes=1) >> 256)
    own = (np.array([2 * (volume(np.full(len(gx), _ONE, dtype=object)) - odd[:, None] * _ONE),
                     (volume(s) - odd[:, None] * sf) >> 1]),  # e^{i delta} / 2i
           np.array([np.zeros((m, m), dtype=object), (odd[:, None] * cf - volume(c)) >> 1]))
    inflow = (np.array([2 * _ONE, -sf >> 1], dtype=object), np.array([0, -cf >> 1], dtype=object))
    # rho = Re(e^{-2it_k} e^{is} e^{i(delta - tau)}) + Im(e^{-2it_k} e^{2is} e^{2i delta})
    c2, s2 = (c * c - s * s) >> 128, (2 * c * s) >> 128
    project = lambda f: odd * ((p.T @ (w * f)) >> 256) >> 2
    beta = (np.array([project(c), project(s2)]), np.array([project(s), -project(c2)]))
    shift = [(_ONE, 0)]
    for _ in range(5):
        shift.append(_cprod(shift[-1], (ch, -sh)))
    shift = [(re, -im) for re, im in shift[:0:-1]] + shift
    return own, inflow, beta, tuple(np.array(part, dtype=object)[:, None, None, None]
                                    for part in zip(*shift))


def _compose(stage, x, shift, lo: int, hi: int):
    """Harmonics lo..hi of the stage applied after the operator x.

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
        weight = _cprod((inflow[0][j2 + 1], inflow[1][j2 + 1]), (phases[0][rows], phases[1][rows]))
        entering = _cprod(weight, (traces[0][rows], traces[1][rows]))
        for part, a, b in zip(out, on_own, entering):
            part[to, :shifts] += a
            part[to, 1:] += v * b
    return (lo, *out)


@lru_cache(maxsize=64)  # equally spaced final times repeat dt from call to call
def _harmonic_operator(d: int, h: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """tp3's RK4 increment on a periodic mesh of length 2 pi, entries as floats hi + lo.

    Returns (w, g).  w (5m, 18m): a step adds (phi(s_e), phi(s_e))
    [u_(e-4) ... u_e] [w_hi | w_lo], phi = (1, cos s, sin s, ..., cos 4s,
    sin 4s), s_e = x_e + t_k.  g (2, 22, m): the source adds (phi5(s_e),
    phi5(s_e)) (cos 2t_k g[0] + sin 2t_k g[1]), phi5 with harmonics up to
    5, rows 0-10 of g the hi parts and 11-21 the lo parts.  The stages
    are composed in the basis e^{ijs}: u's operator for j >= 0 only (the
    rest are conjugates), the source's for all j, without the factor
    e^{-2it_k} that every term of it shares.
    """
    own, inflow, beta, shift = _harmonic_tables(d, h)
    m, dt_fixed = d + 1, _lift(dt)[()]
    nu = (dt_fixed << 128) // _lift(h)[()]
    v = np.array([[(2 * l + 1) * (-1) ** l] for l in range(m)], dtype=object)

    def harmonics(part, turn):  # nu times a stage part's harmonics -1, 0, 1, the 1 turned
        (re, im), (re1, im1) = part, _cprod(turn, (part[0][1], part[1][1]))
        return (nu * np.array([re1, re[0], re1], dtype=object) >> 128,
                nu * np.array([-im1, im[0], im1], dtype=object) >> 128)

    stages, sources = [], []
    for tau in (0.0, 0.5 * dt, dt):
        turn = tuple(_lift([np.cos(tau), np.sin(tau)]))  # e^{i tau}
        stages.append((harmonics(own, turn), harmonics(inflow, turn), v))
        first = _cprod((turn[0], -turn[1]), (beta[0][0], beta[1][0]))  # e^{-i tau}
        sources.append(tuple((dt_fixed * np.array([a, b])[:, None, :, None]) >> 128
                             for a, b in zip(first, (beta[0][1], beta[1][1]))))

    def after(stage, x, halve):  # stage (I + x / 2^halve), x given for j >= 0
        _, r, i = x
        r, i = np.concatenate((r[:0:-1], r)) >> halve, np.concatenate((-i[:0:-1], i)) >> halve
        r[len(x[1]) - 1, 0] += np.eye(m, dtype=object) * _ONE
        return _compose(stage, (1 - len(x[1]), r, i), shift, 0, len(x[1]))

    def source_after(stage, x, source, halve):  # stage x / 2^halve + source, shifts summed
        lo, r, i = _compose(stage, (x[0], x[1] >> halve, x[2] >> halve), shift,
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
    w = RatMatrix(slots(*c)[:, ::-1] // 6, _ONE).hi_lo()
    w = w.transpose(2, 4, 0, 1, 3).reshape(5 * m, 18 * m)
    g = np.zeros((2, 8, m), dtype=object)  # harmonics -2..5 of the part with e^{-2it_k}
    for weight, (lo, r, i) in zip((1, 2, 2, 1), s):
        g[:, lo + 2:lo + 2 + len(r)] += weight * np.array([r[:, 0, :, 0], i[:, 0, :, 0]])
    # e^{-2it} g_j + conj(e^{-2it} g_(-j))
    #     = cos 2t (g_j + conj g_(-j)) - i sin 2t (g_j - conj g_(-j))
    (pos_r, pos_i), neg = g[:, 2:], np.zeros((2, 6, m), dtype=object)
    neg[:, :3] = g[:, 2::-1]
    g = np.array([slots(pos_r + neg[0], pos_i - neg[1]), slots(pos_i + neg[1], neg[0] - pos_r)])
    return w, RatMatrix(g // 6, _ONE).hi_lo().transpose(1, 0, 2, 3).reshape(2, 22, m)


def _harmonic_steps(field: DGField, problem: TestProblem, dt: float, steps: int):
    """RK4 of periodic tp3 (mesh length 2 pi), one harmonic increment per step; yields (step, u).

    u sits below its last four rows, wrapped round, so that a fixed
    strided view holds every window [u_(e-4) ... u_e].  A step is one
    matmul of that view by [w_hi | w_lo], one batched contraction of each
    element's (18, m) terms with its phase row, and two adds: the
    source row, then the increment.  The phase and source rows are
    tabulated per block of steps by angle addition from the midpoints and
    t_k, in place: every buffer and view is made once per call, and the
    phase tables hold their constant columns from the start, so a step
    only indexes its rows (and, on 1-3 elements, gathers the wrapped ones).
    """
    _check_kappa(problem, 1.0, 3.0)  # 2 + sin(x + t)
    n, m = field.mesh.n, field.d + 1
    w, g = _harmonic_operator(field.d, field.mesh.h, dt)
    padded = np.empty((n + 4, m))
    u, head = padded[4:], padded[:4]
    u[:] = field.coeffs
    windows = np.lib.stride_tricks.as_strided(padded, (n, 5 * m), padded.strides, writeable=False)
    tail = u[n - 4:] if n >= 4 else None
    wrap = np.arange(-4, 0) % n  # on 1-3 elements the window wraps onto itself
    terms, increment = np.empty((n, 18, m)), np.empty((n, 1, m))
    flat, du = terms.reshape(n, 18 * m), increment[:, 0]
    mids = field.mesh.a + (np.arange(n) + 0.5) * field.mesh.h  # as the scheme's nodes
    cx, sx = np.cos(mids), np.sin(mids)
    block = max(1, min(steps, _TABLE_FLOATS // (18 * n)))  # steps per table, at most the call's
    phases = np.empty((block, n, 22))  # (phi, phi), phi = (1, cos s, sin s, ..., sin 5s)
    phases[..., ::11] = 1.0
    powers = phases[..., 1:11].view(complex)  # e^{ijs}, j = 1..5, s = x_e + t_k, in place
    rows = np.empty((block, n, 1, 18))  # (phi, phi) up to sin 4s, for u's part
    rows[..., ::9] = 1.0
    a, b = np.empty((2, block, n))
    for start in range(0, steps, block):
        t = field.time + np.arange(start, min(start + block, steps))[:, None] * dt  # t_k
        size = len(t)
        ct, st = np.cos(t), np.sin(t)
        p, x, y = powers[:size], a[:size], b[:size]
        np.subtract(np.multiply(cx, ct, out=x), np.multiply(sx, st, out=y), out=p[..., 0].real)
        np.add(np.multiply(sx, ct, out=x), np.multiply(cx, st, out=y), out=p[..., 0].imag)
        for j in range(1, 5):
            np.multiply(p[..., j - 1], p[..., 0], out=p[..., j])
        phases[:size, :, 12:] = phases[:size, :, 1:11]
        rows[:size, :, 0, 1:9] = rows[:size, :, 0, 10:] = phases[:size, :, 1:9]
        turn = (ct * ct - st * st)[:, :, None] * g[0] + (2 * st * ct)[:, :, None] * g[1]
        sources = phases[:size] @ turn
        for k in range(size):
            head[:] = tail if tail is not None else u[wrap]
            np.matmul(windows, w, out=flat)
            np.matmul(rows[k], terms, out=increment)
            du += sources[k]
            u += du
            yield start + k, u


def _stepper(problem: TestProblem, mesh: Mesh):
    """The RK4 stepper for the problem on the mesh, chosen from the problem itself."""
    if problem.kappa is _unit_speed and problem.rho is _no_source:
        return _increment_steps
    # the element phase x_e + t wraps by whole turns only on a mesh of length 2 pi
    if (problem.bc == "periodic" and problem.kappa is _tp3_kappa and problem.rho is _tp3_rho
            and np.isclose(mesh.b - mesh.a, 2 * np.pi, rtol=1e-15, atol=0)):
        return _harmonic_steps
    return _rhs_steps


def advance(field: DGField, problem: TestProblem, t_end: float,
            cfl: float | None = None) -> DGField:
    """March the field to t_end with classical RK4 (integer step count).

    Step k starts at t_k = field.time + k*dt; its stages see t_k,
    t_k + dt/2 (twice) and t_k + dt.  Unit-speed, source-free problems
    (tp1, tp2) take the exact increment stepper, periodic tp3 on a mesh
    of length 2 pi the harmonic one, all others `dg_rhs`.
    """
    if not (np.isfinite(t_end) and t_end >= field.time - 1e-14):
        raise UsageError(f"final time must be finite and not before {field.time}, got {t_end}")
    c = check_cfl(cfl, field.d)
    span = t_end - field.time
    out = field.copy()
    if span <= 0:
        out.time = t_end
        return out
    dt_max = c * field.mesh.h / problem.kappa_max
    steps = max(1, ceil(span / dt_max))
    for k, u in _stepper(problem, field.mesh)(out, problem, span / steps, steps):
        if k % 64 == 0:
            _check_bounded(u)
    _check_bounded(u)
    out.coeffs = u
    out.time = t_end
    return out


def dg_solve(problem: TestProblem, mesh: Mesh, d: int, t_end: float,
             cfl: float | None = None) -> DGField:
    """Project the initial condition and march to the final time."""
    if not (np.isclose(mesh.a, problem.a) and np.isclose(mesh.b, problem.b)):
        raise UsageError("mesh does not match the problem domain")
    field = l2_project(problem.u0, mesh, d)
    return advance(field, problem, t_end, cfl)


# ---------------------------------------------------------------------------
# element-basis conversion


@lru_cache(maxsize=None)
def legendre_to_bernstein(d: int) -> RatMatrix:
    """Bernstein coefficients (rows) of each shifted Legendre P_k(2u - 1) (columns), exactly:
    Farouki's closed form, J. Comput. Appl. Math. 119 (2000),
    M[j][k] = sum_i (-1)^(k+i) C(k,i)^2 C(d-k, j-i) / C(d,j), over lcm_j C(d,j)."""
    den = lcm(*(comb(d, j) for j in range(d + 1)))
    return RatMatrix([[sum((-1) ** (k + i) * comb(k, i) ** 2 * comb(d - k, j - i)
                           for i in range(min(j, k) + 1)) * (den // comb(d, j))
                       for k in range(d + 1)] for j in range(d + 1)], den)


def to_bernstein(field: DGField) -> DGField:
    """Change of element basis to Bernstein coefficients, of one field or of a stack."""
    if field.basis == "bernstein":
        return field
    return replace(field, coeffs=field.coeffs @ legendre_to_bernstein(field.d).floats().T,
                   basis="bernstein")
