from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from siacpost import dg
from siacpost.dg import (DGField, Mesh, TestProblem, UnstableBlowupError, advance,
                         dg_rhs, dg_solve, get_problem, l2_project, to_bernstein)
from siacpost.errors import UsageError

import oracles
from oracles import legendre_bernstein_reference


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh(1.0, 0.0, 4)
    m = Mesh(0.0, 2.0, 8)
    assert m.h == 0.25
    assert np.allclose(m.breakpoints(), np.linspace(0, 2, 9))


def test_project_constant_and_linear():
    mesh = Mesh(0.0, 1.0, 10)
    f = l2_project(lambda x: np.ones_like(x), mesh, 2)
    xs = np.linspace(0, 1, 41)
    assert np.abs(f.evaluate(xs) - 1.0).max() < 1e-13
    g = l2_project(lambda x: x, mesh, 1)
    assert np.abs(g.evaluate(xs) - xs).max() < 1e-13


def test_project_sine_refinement():
    errs = []
    for n in (20, 40):
        mesh = Mesh(0.0, 1.0, n)
        f = l2_project(lambda x: np.sin(2 * np.pi * x), mesh, 1)
        xs = np.linspace(0, 1, 12 * n + 1)
        errs.append(np.abs(f.evaluate(xs) - np.sin(2 * np.pi * xs)).max())
    assert errs[0] < 2e-2  # ~4e-3 L2 scale, a few e-2 pointwise
    assert errs[0] / errs[1] > 3.0  # second order


def test_rhs_zero_for_steady_constant():
    tp1 = get_problem("tp1")
    field = l2_project(lambda x: np.ones_like(x), Mesh(0, 1, 12), 2)
    rhs = dg_rhs(field, 0.0, tp1)
    assert np.abs(rhs).max() < 1e-13


def test_rhs_advects_linear_interior_element():
    # u = x on a 3-element periodic mesh: the middle element sees -du/dx = -1
    prob = TestProblem(name="lin", a=0.0, b=3.0,
                       kappa=lambda x, t: np.ones_like(x),
                       rho=lambda x, t: np.zeros_like(x),
                       u0=lambda x: x, bc="periodic",
                       exact=lambda x, t: x - t, kappa_max=1.0)
    field = l2_project(prob.u0, Mesh(0.0, 3.0, 3), 1)
    rhs = dg_rhs(field, 0.0, prob)
    assert rhs[1, 0] == pytest.approx(-1.0, abs=1e-13)
    assert rhs[1, 1] == pytest.approx(0.0, abs=1e-13)


def test_rhs_source_only():
    prob = TestProblem(name="src", a=0.0, b=1.0,
                       kappa=lambda x, t: np.zeros_like(x),
                       rho=lambda x, t: np.ones_like(x),
                       u0=lambda x: np.zeros_like(x), bc="periodic",
                       exact=lambda x, t: np.full_like(x, t), kappa_max=1.0)
    field = l2_project(prob.u0, Mesh(0.0, 1.0, 5), 2)
    rhs = dg_rhs(field, 0.0, prob)
    assert np.abs(rhs[:, 0] - 1.0).max() < 1e-13
    assert np.abs(rhs[:, 1:]).max() < 1e-13


def test_solve_t0_is_projection():
    tp1 = get_problem("tp1")
    mesh = Mesh(0, 1, 20)
    f = dg_solve(tp1, mesh, 2, 0.0)
    g = l2_project(tp1.u0, mesh, 2)
    assert np.abs(f.coeffs - g.coeffs).max() == 0.0


def test_free_stream_preservation():
    tp1 = get_problem("tp1")
    f = l2_project(lambda x: 3.0 * np.ones_like(x), Mesh(0, 1, 16), 2)
    g = advance(f, tp1, 0.7)
    assert np.abs(g.coeffs - f.coeffs).max() < 1e-12


def test_conservation_periodic():
    tp1 = get_problem("tp1")
    mesh = Mesh(0, 1, 24)
    f0 = l2_project(tp1.u0, mesh, 1)
    f1 = advance(f0, tp1, 1.0)
    # the first Legendre mode is the cell average
    total = lambda f: mesh.h * f.coeffs[:, 0].sum()
    assert abs(total(f1) - total(f0)) < 1e-10


def test_convergence_order_tp1_d1():
    tp1 = get_problem("tp1")
    errs = []
    for n in (20, 40, 80, 160):
        fld = dg_solve(tp1, Mesh(0, 1, n), 1, 1.0)
        xs = np.linspace(0, 1, 6 * n + 1)
        err = fld.evaluate(xs) - tp1.exact(xs, 1.0)
        errs.append(np.sqrt(np.mean(err ** 2)))  # discrete L2 proxy
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert all(r >= 1.75 for r in rates)  # order >= d + 0.75


def test_blowup_detection():
    tp1 = get_problem("tp1")
    with pytest.raises(UnstableBlowupError):
        dg_solve(tp1, Mesh(0, 1, 40), 1, 3.0, cfl=10.0)


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_non_finite_coefficients_raise(bad):
    tp1 = get_problem("tp1")
    field = l2_project(tp1.u0, Mesh(0, 1, 20), 2)
    field.coeffs[7, 1] = bad
    with np.errstate(invalid="ignore"), pytest.raises(UnstableBlowupError):
        advance(field, tp1, 0.05)


def test_to_bernstein_examples():
    mesh = Mesh(0, 1, 4)
    # Legendre P0 = 1 -> all-ones Bernstein coefficients
    f = DGField(d=2, mesh=mesh, coeffs=np.tile([1.0, 0, 0], (4, 1)), basis="legendre")
    b = to_bernstein(f)
    assert np.allclose(b.coeffs, 1.0, atol=1e-14)
    # d=1: P1 (values -1, 1 at the element ends) -> Bernstein (-1, 1)
    g = DGField(d=1, mesh=mesh, coeffs=np.tile([0.0, 1.0], (4, 1)), basis="legendre")
    bb = to_bernstein(g)
    assert np.allclose(bb.coeffs, np.tile([-1.0, 1.0], (4, 1)), atol=1e-14)


def test_basis_round_trip_and_values():
    rng = np.random.default_rng(5)
    mesh = Mesh(0, 1, 6)
    f = DGField(d=3, mesh=mesh, coeffs=rng.standard_normal((6, 4)), basis="legendre")
    b = to_bernstein(f)
    _, b2l = legendre_bernstein_reference(3)
    assert np.abs(b.coeffs @ b2l.T - f.coeffs).max() < 1e-13
    xs = rng.uniform(0, 1, 10)
    assert np.abs(b.evaluate(xs) - f.evaluate(xs)).max() < 1e-12


def test_legendre_to_bernstein_closed_form():
    """Farouki's integer closed form equals the conversion by exact inversion, bit for bit."""
    for d in range(11):
        l2b, _ = legendre_bernstein_reference(d)
        assert np.array_equal(dg._legendre_to_bernstein(d), l2b)


def test_dirichlet_inflow_value():
    tp2 = get_problem("tp2")
    assert tp2.inflow(0.3) == pytest.approx(-np.sin(0.3))


def test_variable_speed_manufactured_solution():
    # tp3's source term makes sin(x - t) the exact solution, periodic or with
    # that solution as Dirichlet inflow; check residual decay
    for problem in (get_problem("tp3"), _problem("tp3-dirichlet")):
        errs = []
        for n in (20, 40):
            fld = dg_solve(problem, Mesh(0, 2 * np.pi, n), 2, 0.5)
            xs = np.linspace(0, 2 * np.pi, 6 * n + 1)
            errs.append(np.abs(fld.evaluate(xs) - problem.exact(xs, 0.5)).max())
        assert errs[1] < errs[0] / 5.0, problem.bc


def test_unknown_problem():
    with pytest.raises(KeyError):
        get_problem("tp9")


# ---------------------------------------------------------------------------
# oracles: the per-stage float stepper that evaluates kappa and rho at every
# stage, and the 2^128 fixed-point RK4 of tp3's scheme


def _problem(name):
    """A named problem, or tp3 with a Dirichlet inflow (its exact solution is still sin(x - t))."""
    if name == "tp3-dirichlet":
        return replace(get_problem("tp3"), bc="dirichlet")
    return get_problem(name)


def _scheme_tables(mesh, d):
    """The scheme's Gauss rule and Legendre tables on every element, built apart from dg."""
    gx, gw = np.polynomial.legendre.leggauss(max(2 * d + 2, d + 4))
    mids = mesh.a + (np.arange(mesh.n) + 0.5) * mesh.h
    derivatives = np.polynomial.legendre.legder(np.eye(d + 1))  # column n: P_n'
    return SimpleNamespace(
        gx=gx, gw=gw, xq=mids[:, None] + 0.5 * mesh.h * gx[None, :], faces=mesh.breakpoints(),
        p=np.polynomial.legendre.legvander(gx, d),
        pd=np.polynomial.legendre.legvander(gx, d - 1) @ derivatives,
        par=(-1.0) ** np.arange(d + 1), mass_inv=(2 * np.arange(d + 1) + 1) / mesh.h)


def _rhs_per_stage(field, t, problem, ws):
    c = field.coeffs
    u_q = c @ ws.p.T
    kap = problem.kappa(ws.xq, t)
    vol = (kap * u_q * ws.gw[None, :]) @ ws.pd
    src = (problem.rho(ws.xq, t) * ws.gw[None, :]) @ ws.p * (field.mesh.h / 2.0)
    u_right = c.sum(axis=1)
    kap_faces = problem.kappa(ws.faces, t)
    flux_right = kap_faces[1:] * u_right
    flux_left = np.empty_like(flux_right)
    flux_left[1:] = flux_right[:-1]
    if problem.bc == "periodic":
        flux_left[0] = flux_right[-1]
    else:
        flux_left[0] = kap_faces[0] * float(problem.exact(np.array(problem.a), t))
    rhs = vol - flux_right[:, None] + flux_left[:, None] * ws.par[None, :] + src
    return rhs * ws.mass_inv[None, :]


def _advance_per_stage(field, problem, t_end):
    span = t_end - field.time
    out = field.copy()
    if span <= 0:
        out.time = t_end
        return out
    dt_max = dg.default_cfl(field.d) * field.mesh.h / problem.kappa_max
    steps = max(1, int(np.ceil(span / dt_max)))
    dt = span / steps
    ws = _scheme_tables(field.mesh, field.d)
    u = out.coeffs
    t = field.time
    stage = lambda c: DGField(field.d, field.mesh, c)
    for step in range(steps):
        k1 = _rhs_per_stage(stage(u), t, problem, ws)
        k2 = _rhs_per_stage(stage(u + 0.5 * dt * k1), t + 0.5 * dt, problem, ws)
        k3 = _rhs_per_stage(stage(u + 0.5 * dt * k2), t + 0.5 * dt, problem, ws)
        k4 = _rhs_per_stage(stage(u + dt * k3), t + dt, problem, ws)
        u += (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = field.time + (step + 1) * dt
    out.coeffs = u
    out.time = t_end
    return out


def _oracle_case(problem, d, n, steps):
    """A field at t = 0.3, the dt that takes `advance` to t_end in `steps` steps, the references.

    The references are the fixed-point RK4 of tp3's scheme over those
    steps (the same float nodes, weights, faces, dt and time levels) and
    the per-stage float stepper's error against it.
    """
    mesh = Mesh(problem.a, problem.b, n)
    field = l2_project(problem.u0, mesh, d)
    field.time = 0.3
    dt_max = dg.default_cfl(d) * mesh.h / problem.kappa_max
    t_end = 0.3 + (steps - 0.5) * dt_max
    dt = (t_end - 0.3) / steps
    tables = _scheme_tables(mesh, d)
    t_k = 0.3 + np.arange(steps) * dt
    exact = oracles.rk4_tp3_fixed_point(
        field.coeffs.tolist(), mesh.h, tables.xq.tolist(), tables.faces.tolist(),
        tables.gx.tolist(), tables.gw.tolist(), dt,
        np.stack((t_k, t_k + 0.5 * dt, t_k + dt), axis=1).tolist(), problem.bc == "periodic")
    per_stage = oracles.fixed_point_error(_advance_per_stage(field, problem, t_end).coeffs, exact)
    return SimpleNamespace(field=field, dt=dt, t_end=t_end, exact=exact, per_stage=per_stage,
                           dt_max=dt_max)


def _stepped(stepper, field, problem, dt, steps):
    """The coefficients after `steps` RK4 steps of one stepper, from a copy of the field."""
    for _, u in stepper(field.copy(), problem, dt, steps):
        pass
    return u


@pytest.mark.parametrize("name", ("tp3", "tp3-dirichlet"))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_tabulated_stepper_accuracy(name, d):
    """The dg_rhs stepper is as close to exact RK4 of tp3's scheme as the per-stage one.

    Both run 100 steps on 24 elements and are compared with the
    fixed-point RK4 of the same scheme.  Both errors are a few ulps and
    their ratio scatters about 1.  The dg_rhs stepper is called directly,
    as `advance` steps periodic tp3 by the harmonic operator.  `advance`
    itself matches the per-stage stepper over one step and keeps the
    field over none.
    """
    problem = _problem(name)
    case = _oracle_case(problem, d, 24, 100)
    stepped = oracles.fixed_point_error(
        _stepped(dg._rhs_steps, case.field, problem, case.dt, 100), case.exact)
    assert case.per_stage < 1e-14  # the oracle is RK4 of the same scheme
    assert stepped < 1e-14
    assert stepped <= 2 * case.per_stage
    field = case.field
    for t_end in (0.3 + 0.5 * case.dt_max, 0.3, 0.3 - 1e-15):  # one step, none, none
        got, want = advance(field, problem, t_end), _advance_per_stage(field, problem, t_end)
        assert np.abs(got.coeffs - want.coeffs).max() <= 4 * np.finfo(float).eps
        assert got.time == want.time == t_end


@pytest.mark.parametrize("d, n, steps", ((1, 24, 100), (2, 24, 100), (3, 24, 100),
                                         (3, 12, 1500)))
def test_harmonic_stepper_accuracy(d, n, steps, monkeypatch):
    """Periodic tp3 steps by the harmonic operator, as close to exact RK4 as the per-stage stepper.

    The operator is composed from the scheme's float Gauss rule, node
    offsets and dt, so it is the fixed-point oracle's scheme up to where
    the nodes and faces round; the errors are a few ulps and their ratio
    scatters about 1, also over 1,500 steps.  `advance` must reach
    neither dg_rhs nor its stepper.
    """
    problem = get_problem("tp3")
    case = _oracle_case(problem, d, n, steps)
    assert steps > 2 * dg._TABLE_FLOATS // (18 * n)  # crosses two block edges
    fail = lambda *a, **k: pytest.fail("took the dg_rhs path")
    monkeypatch.setattr(dg, "dg_rhs", fail)
    monkeypatch.setattr(dg, "_rhs_steps", fail)
    got = advance(case.field, problem, case.t_end)
    harmonic = oracles.fixed_point_error(got.coeffs, case.exact)
    assert got.time == case.t_end
    assert case.per_stage < 1e-14
    assert harmonic < 1e-14
    assert harmonic <= 2 * case.per_stage


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_harmonic_stepper_wraps_short_meshes(n):
    """On 1-4 elements the five-element window wraps onto itself; as the dg_rhs path does."""
    tp3 = get_problem("tp3")
    for d in (0, 1, 2):
        field = l2_project(tp3.u0, Mesh(0.0, 2 * np.pi, n), d)
        dt = dg.default_cfl(d) * field.mesh.h / tp3.kappa_max
        harmonic, stepped = (_stepped(stepper, field, tp3, dt, 100)
                             for stepper in (dg._harmonic_steps, dg._rhs_steps))
        assert np.abs(harmonic - stepped).max() <= 1e-14


@pytest.mark.parametrize("name", ("tp3-dirichlet", "custom", "tp3-length-pi"))
def test_other_problems_take_the_tabulated_path(name, monkeypatch):
    """Only periodic tp3 on a mesh of length 2 pi takes the harmonic path."""
    tp3 = get_problem("tp3")
    problem = {"tp3-dirichlet": _problem("tp3-dirichlet"),
               "custom": replace(tp3, kappa=lambda x, t: tp3.kappa(x, t)),
               "tp3-length-pi": replace(tp3, b=np.pi)}[name]
    field = l2_project(problem.u0, Mesh(problem.a, problem.b, 8), 1)
    monkeypatch.setattr(dg, "_harmonic_steps",
                        lambda *a, **k: pytest.fail("took the harmonic path"))
    rhs_steps, calls = dg._rhs_steps, []
    monkeypatch.setattr(dg, "_rhs_steps", lambda *a: calls.append(a) or rhs_steps(*a))
    advance(field, problem, 0.01)
    assert len(calls) == 1


def test_rhs_path_calls_dg_rhs_four_times_per_step(monkeypatch):
    """Dirichlet tp3 stages through dg.dg_rhs, looked up in the module globals, four per step.

    The benchmark tracer wraps that name and reports dg.rk4_steps as its calls // 4.
    """
    problem = _problem("tp3-dirichlet")
    field = l2_project(problem.u0, Mesh(problem.a, problem.b, 12), 1)
    t_end = 0.05
    steps = int(np.ceil(t_end / (dg.default_cfl(1) * field.mesh.h / problem.kappa_max)))
    dt = t_end / steps
    rhs, times = dg.dg_rhs, []
    monkeypatch.setattr(dg, "dg_rhs", lambda *a: times.append(a[1]) or rhs(*a))
    advance(field, problem, t_end)
    assert steps > 1
    assert len(times) == 4 * steps
    assert times[:4] == pytest.approx([0.0, 0.5 * dt, 0.5 * dt, dt], abs=1e-15)


@pytest.mark.parametrize("name", ("tp1", "tp2", "tp3", "tp3-dirichlet"))
def test_rhs_within_roundoff_of_per_stage_formula(name):
    """dg_rhs sums in another order than the per-stage formula: 64 eps of the largest entry."""
    problem = _problem(name)
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        mesh = Mesh(problem.a, problem.b, 10)
        field = DGField(d, mesh, rng.standard_normal((10, d + 1)))
        tables = _scheme_tables(mesh, d)
        for t in (0.0, 0.7, 2.1):
            want = _rhs_per_stage(field, t, problem, tables)
            assert (np.abs(dg_rhs(field, t, problem) - want).max()
                    <= 64 * np.finfo(float).eps * np.abs(want).max())


def test_tp3_angle_addition_matches_closed_form():
    """kappa = 2 + sin(x + t) and rho = cos(x - t) + sin(2x) to 4 eps on [0, 2 pi]^2.

    The closed form rounds its argument x +- t by up to 4 eps near 4 pi,
    so it is taken at the exact argument: sin(s) + cos(s) e, s + e = x + t
    exactly (Knuth's TwoSum).
    """
    tp3 = get_problem("tp3")
    x = np.linspace(0.0, 2 * np.pi, 401)[:, None]
    t = np.linspace(0.0, 2 * np.pi, 401)[None, :]

    def two_sum(a, b):
        s = a + b
        bb = s - a
        return s, (a - (s - bb)) + (b - bb)

    (s, e), (r, f) = two_sum(x, t), two_sum(x, -t)
    eps = np.finfo(float).eps
    assert np.abs(tp3.kappa(x, t) - (2.0 + (np.sin(s) + np.cos(s) * e))).max() <= 4 * eps
    assert np.abs(tp3.rho(x, t) - ((np.cos(r) - np.sin(r) * f) + np.sin(2 * x))).max() <= 4 * eps
    assert tp3.kappa(x, t).max() <= tp3.kappa_max  # advance checks kappa against it


# ---------------------------------------------------------------------------
# the exact increment stepper of tp1 and tp2, against the fixed-point RK4


@pytest.mark.parametrize("d", range(1, 7))
def test_upwind_blocks_match_dg_rhs(d):
    """The oracle's integer blocks are dg_rhs of unit vectors times h, to roundoff.

    dg_rhs integrates by Gauss quadrature, whose float nodes and weights
    miss int P_3' = 2 by 8.4e-15 (d >= 3): up to 38 eps of the largest
    entry, here at d = 3 and 5.
    """
    tp1 = get_problem("tp1")
    mesh = Mesh(0.0, 1.0, 3)
    diag, sub = oracles.upwind_blocks_reference(d)
    for l in range(d + 1):
        unit = np.zeros((3, d + 1))
        unit[1, l] = 1.0
        got = dg_rhs(DGField(d, mesh, unit), 0.0, tp1) * mesh.h
        want = np.array([np.zeros(d + 1), np.array(diag)[:, l], np.array(sub)[:, l]])
        assert np.abs(got - want).max() <= 64 * np.finfo(float).eps * np.abs(want).max()


@pytest.mark.parametrize("name", ("tp1", "tp2"))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_increment_stepper_accuracy(name, d, monkeypatch):
    """The increment path is as close to exact RK4 as the per-stage float stepper.

    Both are compared over 200 steps on 24 elements with the fixed-point
    RK4 of the same operator, nu = dt / h exactly, and the same float
    inflow values; the increment path must not call dg_rhs.  At d <= 2
    both errors are a few ulps and their ratio scatters about 1; at d = 3
    the increment path is about 5x closer, as it does not inherit the
    quadrature rounding of dg_rhs (test_upwind_blocks_match_dg_rhs).
    """
    problem = get_problem(name)
    mesh = Mesh(problem.a, problem.b, 24)
    field = l2_project(problem.u0, mesh, d)
    field.time = 0.3
    steps = 200
    dt_max = dg.default_cfl(d) * mesh.h / problem.kappa_max
    t_end = 0.3 + (steps - 0.5) * dt_max
    dt = (t_end - 0.3) / steps
    t_k = 0.3 + np.arange(steps) * dt
    inflow = (problem.inflow(np.stack((t_k, t_k + 0.5 * dt, t_k + dt), axis=1)).tolist()
              if problem.bc == "dirichlet" else None)
    exact = oracles.rk4_fixed_point(field.coeffs.tolist(), Fraction(dt) / Fraction(mesh.h),
                                    steps, inflow)
    per_stage = oracles.fixed_point_error(_advance_per_stage(field, problem, t_end).coeffs, exact)
    monkeypatch.setattr(dg, "dg_rhs", lambda *a, **k: pytest.fail("took the dg_rhs path"))
    increment = oracles.fixed_point_error(advance(field, problem, t_end).coeffs, exact)
    assert per_stage < 1e-14  # the oracle is RK4 of the same operator
    assert increment <= 1.5 * per_stage


def test_increment_operator_is_built_once_per_nu():
    """Advancing by the same dt again reuses the operator and gives the same bytes."""
    problem = get_problem("tp2")
    field = l2_project(problem.u0, Mesh(problem.a, problem.b, 20), 3)
    dg._increment_operator.cache_clear()
    first = advance(advance(field, problem, 0.25), problem, 0.5)
    info = dg._increment_operator.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    dg._increment_operator.cache_clear()
    again = advance(field, problem, 0.25)
    dg._increment_operator.cache_clear()
    assert advance(again, problem, 0.5).coeffs.tobytes() == first.coeffs.tobytes()


# ---------------------------------------------------------------------------
# fail-loud checks


def _rk4_limit_from_eigenvalues(d: int, n: int = 32) -> float:
    """Largest dt * kappa / h keeping h*eig(L) in the RK4 stability region."""
    tp1 = get_problem("tp1")  # kappa = 1, periodic
    mesh = Mesh(0.0, 1.0, n)
    size = n * (d + 1)
    columns = [dg_rhs(DGField(d, mesh, e.reshape(n, d + 1)), 0.0, tp1).ravel()
               for e in np.eye(size)]
    z = np.linalg.eigvals(np.array(columns).T) * mesh.h
    stable = lambda c: np.all(np.abs(np.polynomial.polynomial.polyval(
        c * z, [1, 1, 1 / 2, 1 / 6, 1 / 24])) <= 1 + 1e-12)
    lo, hi = 0.0, 4.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if stable(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("d", range(11))
def test_cfl_limits_match_operator_eigenvalues(d):
    limit = _rk4_limit_from_eigenvalues(d)
    assert dg.max_stable_cfl(d) <= limit
    if d < len(dg.RK4_CFL_LIMITS):
        assert dg.max_stable_cfl(d) > limit - 1e-3  # rounded down to 3 decimals
    assert dg.max_stable_cfl(d) >= dg.default_cfl(d)


@pytest.mark.parametrize("cfl", (0.0, -1.0, np.nan, np.inf))
def test_nonpositive_or_non_finite_cfl_rejected(cfl):
    tp1 = get_problem("tp1")
    field = l2_project(tp1.u0, Mesh(0, 1, 10), 1)
    with pytest.raises(ValueError, match="CFL"):
        advance(field, tp1, 1.0, cfl=cfl)


def _on_every_stepper(values):
    """(problem, value) cases: tp1, tp3 and tp3-dirichlet take each of the three paths.

    The tp1 cases keep the bare value as their id.
    """
    return ([pytest.param("tp1", v, id=str(v)) for v in values]
            + [pytest.param(name, v, id=f"{name}-{v}") for name in ("tp3", "tp3-dirichlet")
               for v in values])


def _field_that_must_not_step(name, d, monkeypatch):
    problem = _problem(name)
    field = l2_project(problem.u0, Mesh(problem.a, problem.b, 10), d)
    stepped = lambda *a, **k: pytest.fail("stepped")
    for stepper in ("dg_rhs", "_increment_steps", "_harmonic_steps", "_rhs_steps"):
        monkeypatch.setattr(dg, stepper, stepped)
    return problem, field


@pytest.mark.parametrize("name, t_end", _on_every_stepper((np.inf, -np.inf, np.nan, 0.25)))
def test_bad_final_time_rejected_before_stepping(name, t_end, monkeypatch):
    """A non-finite final time, or one before the field's time, is a usage error."""
    problem, field = _field_that_must_not_step(name, 1, monkeypatch)
    field.time = 0.5
    with pytest.raises(UsageError, match="final time"):
        advance(field, problem, t_end)


@pytest.mark.parametrize("name, d", _on_every_stepper((1, 2, 3, 4)))
def test_cfl_above_limit_raises_before_stepping(name, d, monkeypatch):
    problem, field = _field_that_must_not_step(name, d, monkeypatch)
    with pytest.raises(UnstableBlowupError, match="stability limit"):
        advance(field, problem, 1.0, cfl=1.01 * dg.max_stable_cfl(d))


def test_cfl_at_limit_is_stable():
    tp1 = get_problem("tp1")
    field = l2_project(tp1.u0, Mesh(0, 1, 20), 2)
    out = advance(field, tp1, 2.0, cfl=dg.max_stable_cfl(2))
    assert np.abs(out.coeffs).max() < 1.0


def _problem_with_kappa(kappa, kappa_max=1.0):
    return TestProblem(name="custom", a=0.0, b=1.0, kappa=kappa,
                       rho=lambda x, t: np.zeros_like(x), u0=lambda x: np.sin(2 * np.pi * x),
                       bc="periodic", exact=lambda x, t: np.sin(2 * np.pi * (x - t)),
                       kappa_max=kappa_max)


@pytest.mark.parametrize("kappa", (
    lambda x, t: -np.ones_like(x),
    lambda x, t: np.zeros_like(x),
    lambda x, t: np.cos(2 * np.pi * x),     # changes sign in space
    lambda x, t: 0.5 - t + 0 * x,           # turns nonpositive at t = 0.5
    lambda x, t: np.full_like(x, np.nan),
))
def test_nonpositive_kappa_rejected(kappa):
    prob = _problem_with_kappa(kappa)
    field = l2_project(prob.u0, Mesh(0, 1, 10), 1)
    with pytest.raises(ValueError, match="kappa"):
        advance(field, prob, 1.0)


def test_kappa_above_kappa_max_rejected():
    prob = _problem_with_kappa(lambda x, t: 1.0 + 0.5 * np.sin(2 * np.pi * x), kappa_max=1.2)
    field = l2_project(prob.u0, Mesh(0, 1, 10), 1)
    with pytest.raises(ValueError, match="kappa_max"):
        advance(field, prob, 0.5)
    ok = _problem_with_kappa(prob.kappa, kappa_max=1.5)
    advance(field, ok, 0.5)


def test_kappa_nonpositive_only_at_the_last_stage_level_rejected():
    """kappa is checked at t_k + dt of the final step, a level only its fourth stage reads."""
    field = l2_project(np.sin, Mesh(0, 1, 10), 1)
    t_end = 0.1
    steps = int(np.ceil(t_end / (dg.default_cfl(1) * field.mesh.h)))
    cutoff = lambda c: _problem_with_kappa(lambda x, t: np.where(t < c, 1.0, 0.0) + 0 * x)
    dt = t_end / steps  # the levels before the last are at most t_end - dt / 2
    advance(field, cutoff(t_end + 0.25 * dt), t_end)
    with pytest.raises(UsageError, match="kappa"):
        advance(field, cutoff(t_end - 0.25 * dt), t_end)
