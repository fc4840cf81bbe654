import numpy as np
import pytest

from siacpost import dg
from siacpost.dg import (DGField, Mesh, TestProblem, UnstableBlowupError, advance,
                         dg_rhs, dg_solve, get_problem, l2_project, to_bernstein,
                         to_legendre)


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
    assert abs(f1.cell_average_integral() - f0.cell_average_integral()) < 1e-10


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
    back = to_legendre(b)
    assert np.abs(back.coeffs - f.coeffs).max() < 1e-13
    xs = rng.uniform(0, 1, 10)
    assert np.abs(b.evaluate(xs) - f.evaluate(xs)).max() < 1e-12


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
