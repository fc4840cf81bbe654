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
  integer over one common denominator, split into floats hi + lo
  (`rk4`): a step is one `take` of the windows into a
  buffer, one batched matmul by hi and lo and an add, and rounds no worse
  than the stages of `dg_rhs`.
- kappa and rho are tp3's `_tp3_kappa` and `_tp3_rho`, periodic, on a
  mesh of length 2 pi: one harmonic increment operator per segment.  In
  element e the scheme reads kappa = 2 + sin(x + t) only at points
  x_e + delta + t, x_e the element's midpoint, so a stage is a
  trigonometric polynomial of degree 1 in the phase s = x_e + t; a
  neighbour's phase is s - h and a later stage's s + dt/2 or s + dt.
  The four stages compose into u_e <- u_e + sum_j phi_j(s_e) W_j
  [u_(e-4) ... u_e] + sum_j phi_j(s_e) G_j (cos 2t_k, sin 2t_k), phi =
  (1, cos s, sin s, cos 2s, ...), s_e = x_e + t_k: degree 4 in u's part,
  as each stage multiplies by kappa once, and degree 5 in the source
  cos(x - t) + sin 2x, which has degree 2 and is linear in e^(-2it_k).
  W and G are the same for every element and step of a segment; `rk4`
  composes them exactly, each entry rounded once into hi + lo.  A step is
  one matmul of a strided window view, one batched contraction with the
  step's phase row and two adds; the phase and source rows are tabulated
  per block of steps by angle addition, in place, into buffers made once
  per segment, and a step only indexes its rows.
- any other problem (Dirichlet tp3, custom ones): four calls of the
  plain weak form `dg_rhs` per step, kappa checked at each step's levels.

`advance` takes one field to one final time, or a whole run: one field per
mesh through the sorted final times.  It plans every (mesh, segment) first,
then composes each distinct operator of the run once, in batched exact
passes of at most `_PASS` operators (`rk4`), and then steps each segment
with its operator.  Before stepping, it rejects a
final time that is not finite or lies before the segment's start and a CFL
number that is not positive or exceeds the RK4 stability limit, and it
checks kappa against 0 < kappa <= kappa_max.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from fractions import Fraction
from math import ceil, comb, lcm
from typing import Callable

import numpy as np

from .errors import UsageError
from .exact import RatMatrix
from .rk4 import _harmonic_operators, _increment_operators, gauss_rule, scheme_rule
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
    gx, gw, p, _ = gauss_rule(d + 2, d)
    mids = mesh.a + (np.arange(mesh.n) + 0.5) * mesh.h
    x = mids[:, None] + 0.5 * mesh.h * gx[None, :]
    vals = u0(x)
    scale = (2 * np.arange(d + 1) + 1) / 2.0
    coeffs = (vals * gw[None, :]) @ p * scale[None, :]
    return DGField(d=d, mesh=mesh, coeffs=coeffs, basis="legendre", time=0.0)


# ---------------------------------------------------------------------------
# semi-discrete operator


@lru_cache(maxsize=32)
def _nodes(mesh: Mesh, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss nodes of every element (n, q) and the faces (n + 1), read-only."""
    mids = mesh.a + (np.arange(mesh.n) + 0.5) * mesh.h
    out = mids[:, None] + 0.5 * mesh.h * scheme_rule(d)[0][None, :], mesh.breakpoints()
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
    _, gw, p, pd = scheme_rule(field.d)
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


def _increment_steps(field: DGField, problem: TestProblem, dt: float, steps: int, operator):
    """RK4 of a unit-speed, source-free problem, one exact increment per step; yields (step, u).

    operator is `_increment_operators`' pair for nu = dt / h.  A step takes each window
    [u_i, ..., u_(i-4)] into one buffer and multiplies it by hi and lo in one batched matmul
    (one BLAS call each, as two matmuls would), then adds the two.  Every buffer and view a
    step uses is made once per call.
    """
    _check_kappa(problem, 1.0, 1.0)
    n, m, periodic = field.mesh.n, field.d + 1, problem.bc == "periodic"
    blocks, inflow = operator
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


def _harmonic_steps(field: DGField, problem: TestProblem, dt: float, steps: int, operator):
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
    operator is `_harmonic_operators`' (w, g) for the mesh's h and dt.
    """
    _check_kappa(problem, 1.0, 3.0)  # 2 + sin(x + t)
    n, m = field.mesh.n, field.d + 1
    w, g = operator
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
    halves = rows.reshape(block, n, 2, 9)  # a view: both phi of a row
    halves[..., 0] = 1.0
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
        halves[:size, :, :, 1:] = phases[:size, :, None, 1:9]
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
    """(stepper, key, build) for the problem on the mesh, chosen from the problem itself:
    key(dt) names a segment's operator and build(d, keys) composes a batch of them, both
    None on the `dg_rhs` path."""
    if problem.kappa is _unit_speed and problem.rho is _no_source:
        return _increment_steps, lambda dt: Fraction(dt) / Fraction(mesh.h), _increment_operators
    # the element phase x_e + t wraps by whole turns only on a mesh of length 2 pi
    if (problem.bc == "periodic" and problem.kappa is _tp3_kappa and problem.rho is _tp3_rho
            and np.isclose(mesh.b - mesh.a, 2 * np.pi, rtol=1e-15, atol=0)):
        return _harmonic_steps, lambda dt: (mesh.h, dt), _harmonic_operators
    return _rhs_steps, None, None


# operators composed per batched pass: a pass's exact arrays grow by about 140 KB per
# tp3 operator at d = 2, and peak RSS with them
_PASS = 4


def advance(field, problem: TestProblem, t_end, cfl: float | None = None):
    """March a field to t_end, or a run's fields through its final times, with classical RK4.

    One field and one t_end give the field at t_end.  A run is a sequence of
    fields, one per mesh, of one degree, and the sorted final times: each
    field advances through them in turn and comes back as its stacked
    series, coeffs (times, n, d + 1) and time the array of final times.
    Each segment, from the field's time or the previous final time, takes
    steps = max(1, ceil(span / dt_max)) steps of dt = span / steps; step k
    starts at t_k = start + k*dt, and its stages see t_k, t_k + dt/2 (twice)
    and t_k + dt.  Unit-speed, source-free problems (tp1, tp2) take the exact
    increment stepper, periodic tp3 on a mesh of length 2 pi the harmonic
    one, all others `dg_rhs`.  Every (mesh, segment) is planned first; then
    each distinct operator of the run is composed once, in balanced batched
    passes of at most `_PASS`, and every segment steps with its own.
    """
    run = not isinstance(field, DGField)
    fields, times = (list(field), list(t_end)) if run else ([field], [t_end])
    for f in fields:
        start = f.time
        for t in times:
            if not (np.isfinite(t) and t >= start - 1e-14):
                raise UsageError(f"final time must be finite and not before {start}, got {t}")
            start = t
    if len({f.d for f in fields}) != 1:
        raise UsageError("the fields of a run must share one degree")
    d = fields[0].d
    c = check_cfl(cfl, d)
    plans, wanted = [], {}  # wanted: {build: {key: None}}, the run's distinct operators
    for f in fields:
        stepper, key, build = _stepper(problem, f.mesh)
        dt_max = c * f.mesh.h / problem.kappa_max
        segments = []
        for start, t in zip([f.time] + times, times):
            span = t - start
            steps = max(1, ceil(span / dt_max)) if span > 0 else 0
            dt = span / steps if steps else 0.0
            segments.append((start, dt, steps))
            if steps and key:
                wanted.setdefault(build, {})[key(dt)] = None
        plans.append((stepper, key, segments))
    operators = {}
    for build, keys in wanted.items():
        keys = list(keys)
        size = ceil(len(keys) / ceil(len(keys) / _PASS))
        for i in range(0, len(keys), size):
            operators.update(zip(keys[i:i + size], build(d, keys[i:i + size])))
    out = []
    for f, (stepper, key, segments) in zip(fields, plans):
        series = np.empty((len(times),) + f.coeffs.shape)
        previous = f.coeffs
        for coeffs, (start, dt, steps) in zip(series, segments):
            coeffs[...] = previous  # the dg_rhs stepper steps it in place
            if steps:
                operator = (operators[key(dt)],) if key else ()
                for k, u in stepper(replace(f, coeffs=coeffs, time=start), problem, dt, steps,
                                    *operator):
                    if k % 64 == 0:
                        _check_bounded(u)
                _check_bounded(u)
                coeffs[...] = u
            previous = coeffs
        out.append(replace(f, coeffs=series, time=np.array(times)))
    return out if run else replace(out[0], coeffs=out[0].coeffs[0], time=t_end)


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
