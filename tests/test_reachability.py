"""Every function of src/ is entered by a fixed list of CLI calls, or is listed with its reason.

The library keeps what the pipeline or the CLI calls, plus a named set that
something outside it needs.  CALLS run in a subprocess, so that every lru cache
starts cold, under `sys.setprofile`; a function or method defined in src/ (found
by walking each module's AST) counts as called when a code object of its file and
first line was entered.  The set left uncalled must equal UNCALLED: a new function
that no call reaches fails the test until a call reaches it, it is listed with its
reason, or it is deleted, and a listed function that a call now reaches fails it
until it is taken off the list.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "siacpost"

# every subcommand and problem; every boundary family on both sides, and symmetric;
# kernel samples, --dg-degree and a negative --xi; timeseries from a config file
# (blend on) and from flags (blend off); meshes of at most 24 elements, t <= 0.05
CONFIG = """\
# a small run
problem = tp2
d = 2
filters = dg,symmetric,srv
mesh_sizes = 12,24
final_times = linspace:0:0.05:2
blend = on
"""
CALLS = [
    ["kernel", "symmetric", "2", "--exact", "--samples", "5"],
    ["kernel", "rs", "1", "left", "--exact"],
    ["kernel", "rs", "1", "right", "--exact", "--samples", "5", "--xi", "-1/3"],
    ["kernel", "srv", "1", "left", "--exact", "--dg-degree", "2"],
    ["kernel", "srv", "1", "right", "--samples", "5"],
    ["kernel", "rlkv", "1", "left", "--exact", "--samples", "5"],
    ["kernel", "rlkv", "1", "right", "--exact"],
    ["kernel", "np0", "1", "left", "--exact"],
    ["kernel", "np0", "1", "right", "--exact"],
    ["kernel", "npk", "1", "left", "--k", "1", "--exact"],
    ["kernel", "npk", "1", "right", "--k", "2", "--exact", "--samples", "5"],
    ["solve", "tp1", "--d", "1", "--n", "8", "--t", "0.05"],
    ["solve", "tp2", "--d", "1", "--n", "8", "--t", "0.05"],
    ["solve", "tp3", "--d", "1", "--n", "8", "--t", "0.05"],
    ["filter", "tp1", "--family", "np0", "--d", "1", "--n", "12", "--t", "0.05"],
    ["filter", "tp2", "--family", "npk", "--k", "1", "--side", "right", "--d", "1",
     "--n", "12", "--t", "0.05"],
    ["converge", "tp1", "--d", "1", "--filters", "dg,symmetric,np0", "--n-list", "12,24",
     "--t", "0.05"],
    ["timeseries", "CONFIG"],
    ["timeseries", "--problem", "tp3", "--d", "1", "--mesh-sizes", "12,24",
     "--filters", "dg,symmetric,rlkv,rs,np0", "--times", "0.02,0.05", "--no-blend"],
]

PROFILED_RUN = """\
import json, sys
from pathlib import Path
package, out, calls = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
entered = set()
def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
from siacpost import cli
rcs = [cli.main(argv + ["--out", out]) for argv in calls]
sys.setprofile(None)
print(json.dumps({"rcs": rcs, "entered": [[f, line] for f, line in entered
                                          if Path(f).parent == Path(package)]}))
"""

# why a function that no call in CALLS enters stays in src/
BENCH = "perfbench/tracer.py patches it or perfbench/worker.py calls it"
WEAK_FORM = "on the weak-form path that test_tracer_contract.py steps with Dirichlet tp3"
ACCEPTANCE = "an acceptance criterion names it"
ORACLE = "RatPoly arithmetic of tests/oracles.py's Fraction references, or value semantics"

UNCALLED = {
    "dg.Mesh.breakpoints": (WEAK_FORM, "the element faces of dg_rhs"),
    "dg._unit_speed": (WEAK_FORM, "tp1 and tp2's kappa: the increment stepper never reads it"),
    "dg._no_source": (WEAK_FORM, "tp1 and tp2's rho: the increment stepper never reads it"),
    "dg._tp3_kappa": (WEAK_FORM, "tp3's kappa: the harmonic stepper composes it exactly"),
    "dg._tp3_rho": (WEAK_FORM, "tp3's rho: the harmonic stepper composes it exactly"),
    "dg._nodes": (WEAK_FORM, "the Gauss nodes and faces where dg_rhs reads kappa and rho"),
    "dg.dg_rhs": (WEAK_FORM, "the weak form; the tracer patches it too"),
    "dg._rhs_steps": (WEAK_FORM, "RK4 on dg_rhs, for Dirichlet tp3 and custom problems"),
    "dg.to_bernstein": (BENCH, "the tracer patches dg.to_bernstein"),
    "exact.det_exact": (BENCH, "the tracer patches filters.det_exact"),
    "exact.solve_exact": (BENCH, "the tracer patches filters.solve_exact"),
    "exact.invert_exact": (BENCH, "the tracer patches filters.invert_exact and dg.invert_exact"),
    "exact.RatMatrix.from_rows": (BENCH, "builds reproduction_matrix and solve_exact's vector"),
    "exact.RatMatrix.identity": (BENCH, "invert_exact's right-hand side"),
    "exact.RatMatrix.__eq__": (ORACLE, "RatMatrix compares by value"),
    "exact.RatMatrix.__hash__": (ORACLE, "RatMatrix hashes by value, as it compares"),
    "exact.RatPoly.degree": (ORACLE, "the oracles' degree checks"),
    "exact.RatPoly.__call__": (ACCEPTANCE, "criteria 1a and 1b's exact polynomials"),
    "exact.RatPoly.__eq__": (ACCEPTANCE, "criteria 1a and 1b compare exact polynomials"),
    "exact.RatPoly.recentered": (ORACLE, "the oracles' B-spline pieces about a breakpoint"),
    "exact.RatPoly.__add__": (ORACLE, "polynomial sum"),
    "exact.RatPoly.__mul__": (ORACLE, "polynomial and scalar product"),
    "exact._poly_mul": (ORACLE, "RatPoly.__mul__'s coefficient convolution"),
    "exact.RatPoly.antiderivative": (ORACLE, "exact integrals of the oracles"),
    "exact.RatPoly.integral": (ORACLE, "exact integrals of the oracles"),
    "exact.RatPoly.__hash__": (ORACLE, "RatPoly hashes by value, as it compares"),
    "exact.RatPoly.__repr__": (ORACLE, "RatPoly's text in a failing assertion"),
    "filters.custom_spec": (ACCEPTANCE, "criteria 1a and 1b's two-spline kernel"),
    "filters.reproduction_matrix": (BENCH, "the tracer patches filters.reproduction_matrix"),
    "filters.CoefficientPolynomials.poly": (ACCEPTANCE, "criterion 1a's coefficient polynomials"),
    "harness.region_norms": (BENCH, "the worker's check mode measures the raw DG error"),
    "harness._sigma_exact": (BENCH, "region_norms' region ends in exact element units"),
    "psiac.MonomialPieces.derivative": (ACCEPTANCE, "criterion 7's derivatives"),
    "psiac.symmetric_filter_weights": (BENCH, "the tracer reads its cache_info"),
    "psiac.symmetric_filter_eval": (BENCH, "the worker warms and checks the interior with it"),
    "psiac.symmetric_filter_eval_local": (BENCH, "the tracer patches it"),
    "psiac.FloatKernel.__init__": (BENCH, "the kernel of the worker's reference_convolve"),
    "psiac.FloatKernel.__call__": (BENCH, "the kernel of the worker's reference_convolve"),
    "psiac._float_spline": (BENCH, "a spline of the worker's reference kernels"),
    "psiac._float_kernel": (BENCH, "the worker's reference kernels"),
    "psiac._float_kernel.fn": (BENCH, "the worker's reference kernels' values"),
    "psiac.psiac_kernel_at": (BENCH, "the worker's boundary reference kernel"),
    "psiac.symmetric_kernel_at": (BENCH, "the worker's interior reference kernel"),
    "psiac.reference_convolve": (BENCH, "the worker's check-mode oracle"),
    "spline.unit_bspline_piecewise": (BENCH, "the tracer patches psiac.unit_bspline_piecewise"),
    "spline.PiecewisePolynomial.__init__": (BENCH, "unit_bspline_piecewise's result"),
    "spline.PiecewisePolynomial.integrate_against": (BENCH, "the tracer patches it"),
    "spline.bspline_moments": (BENCH, "reproduction_matrix's columns and bspline_moment"),
    "spline.bspline_moment": (BENCH, "the tracer patches filters.bspline_moment"),
}


def _defined(path: Path):
    """(qualified name, first line) of each function and method of a module, nested ones
    too; a decorated function's code starts at its first decorator."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, min([child.lineno] + [d.lineno for d in
                                                                 child.decorator_list])
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    return walk(ast.parse(path.read_text()), f"{path.stem}.")


def test_every_src_function_is_called_or_listed(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG)
    calls = [[str(config) if arg == "CONFIG" else arg for arg in argv] for argv in CALLS]
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", PROFILED_RUN, str(PACKAGE), str(tmp_path / "out"),
         json.dumps(calls)],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rcs"] == [0] * len(CALLS)
    entered = {(Path(f).name, line) for f, line in result["entered"]}
    uncalled = {name for module in sorted(PACKAGE.glob("*.py"))
                for name, line in _defined(module) if (module.name, line) not in entered}
    assert sorted(uncalled - UNCALLED.keys()) == [], "uncalled and not listed"
    assert sorted(UNCALLED.keys() - uncalled) == [], "listed but called"
