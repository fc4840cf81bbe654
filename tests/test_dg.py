import numpy as np
import pytest

from siacpost import dg
from siacpost.dg import (DGField, Mesh, TestProblem, UnstableBlowupError, advance,
                         dg_rhs, dg_solve, get_problem, l2_project, to_bernstein)
from siacpost.errors import UsageError

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
    # tp3's source term makes sin(x - t) the exact solution; check residual decay
    tp3 = get_problem("tp3")
    errs = []
    for n in (20, 40):
        fld = dg_solve(tp3, Mesh(0, 2 * np.pi, n), 2, 0.5)
        xs = np.linspace(0, 2 * np.pi, 6 * n + 1)
        errs.append(np.abs(fld.evaluate(xs) - tp3.exact(xs, 0.5)).max())
    assert errs[1] < errs[0] / 5.0


def test_unknown_problem():
    with pytest.raises(KeyError):
        get_problem("tp9")


# ---------------------------------------------------------------------------
# oracle: the per-stage stepper that evaluated kappa and rho at every stage


def _rhs_per_stage(field, t, problem, ws):
    c = field.coeffs
    u_q = c @ ws.p.T
    kap = problem.kappa(ws.xq, t)
    vol = (kap * u_q * ws.gw[None, :]) @ ws.pd
    src = (problem.rho(ws.xq, t) * ws.gw[None, :]) @ ws.p * (ws.mesh.h / 2.0)
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
    ws = dg._RhsWorkspace(field.mesh, field.d)
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


@pytest.mark.parametrize("name", ("tp1", "tp2", "tp3"))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_advance_matches_per_stage_stepper(name, d):
    problem = get_problem(name)
    mesh = Mesh(problem.a, problem.b, 96)
    field = l2_project(problem.u0, mesh, d)
    field.time = 0.3
    dt_max = dg.default_cfl(d) * mesh.h / problem.kappa_max
    block = max(1, dg._TABLE_FLOATS // (3 * dg._RhsWorkspace(mesh, d).xq.size))
    span = (2.5 * block - 0.1) * dt_max  # two full blocks and a partial one
    assert 2 * block < np.ceil(span / dt_max) < 3 * block
    for t_end in (0.3 + span, 0.3 + 0.5 * dt_max, 0.3, 0.3 - 1e-15):
        got = advance(field, problem, t_end)
        want = _advance_per_stage(field, problem, t_end)
        assert np.array_equal(got.coeffs, want.coeffs)
        assert got.time == want.time == t_end


@pytest.mark.parametrize("name", ("tp1", "tp2", "tp3"))
def test_rhs_matches_per_stage_formula(name):
    problem = get_problem(name)
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        mesh = Mesh(problem.a, problem.b, 10)
        field = DGField(d, mesh, rng.standard_normal((10, d + 1)))
        ws = dg._RhsWorkspace(mesh, d)
        for t in (0.0, 0.7, 2.1):
            assert np.array_equal(dg_rhs(field, t, problem),
                                  _rhs_per_stage(field, t, problem, ws))


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


@pytest.mark.parametrize("t_end", (np.inf, -np.inf, np.nan, 0.25))
def test_bad_final_time_rejected_before_stepping(t_end, monkeypatch):
    """A non-finite final time, or one before the field's time, is a usage error."""
    tp1 = get_problem("tp1")
    field = advance(l2_project(tp1.u0, Mesh(0, 1, 10), 1), tp1, 0.5)
    monkeypatch.setattr(dg, "dg_rhs", lambda *a, **k: pytest.fail("stepped"))
    with pytest.raises(UsageError, match="final time"):
        advance(field, tp1, t_end)


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_cfl_above_limit_raises_before_stepping(d, monkeypatch):
    tp1 = get_problem("tp1")
    field = l2_project(tp1.u0, Mesh(0, 1, 10), d)
    monkeypatch.setattr(dg, "dg_rhs", lambda *a, **k: pytest.fail("stepped"))
    with pytest.raises(UnstableBlowupError, match="stability limit"):
        advance(field, tp1, 1.0, cfl=1.01 * dg.max_stable_cfl(d))


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
