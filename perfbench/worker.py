"""One fresh single-threaded process: set up, make the timed CLI call, report.

    python3 perfbench/worker.py JOB OUT RESULT MODE

MODE is `sample` (set-up, then the timed call between two passes of the
reference computation), `traced` (the same under the tracer) or `check`
(untimed reference comparisons).
The result is a JSON file; the program's own output goes to OUT.
"""

from __future__ import annotations

from time import perf_counter

START = perf_counter()

import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import reference_pass  # noqa: E402
from checks import close  # noqa: E402
from workloads import BOUNDARY_FILTERS, SIDES  # noqa: E402

# d=3 errors at N=160 sit near 1e-14, so comparisons need an absolute floor
REL_TOL = 1e-9
ABS_FLOOR = 1e-11


def call(cli, argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 2


def clear_caches(modules) -> None:
    """Empty every lru cache of the given modules, through tracer wrappers."""
    for module in modules:
        for value in list(vars(module).values()):
            while value is not None and not hasattr(value, "cache_clear"):
                value = getattr(value, "__wrapped__", None)
            if value is not None:
                value.cache_clear()


def setup(job, traced: bool):
    """Import, plus (for a study) cold assembly of every exact operator it uses."""
    import numpy
    from siacpost import cli, dg, filters, psiac
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    if job["kind"] == "sweep":
        return cli, tracer, numpy.__version__
    d = job["d"]
    for family in BOUNDARY_FILTERS:
        for side in SIDES:
            psiac.q_matrix(filters.build_spec(family, d, side), d)
    problem = dg.get_problem(job["problem"])
    mesh = dg.Mesh(problem.a, problem.b, job["mesh_sizes"][0])
    psiac.symmetric_filter_eval(dg.l2_project(problem.u0, mesh, d),
                                0.5 * (problem.a + problem.b))
    return cli, tracer, numpy.__version__


def timed(job, cli, out: Path):
    """Seconds taken by the workload's CLI calls, and their exit codes."""
    if job["kind"] == "sweep":
        from siacpost import dg, exact, filters, psiac, spline
        t0 = perf_counter()
        rcs = []
        for argv in job["calls"]:
            clear_caches((dg, exact, filters, psiac, spline))  # as a fresh CLI process
            rcs.append(call(cli, argv + ["--out", str(out)]))
        return perf_counter() - t0, rcs
    t0 = perf_counter()
    rc = call(cli, ["timeseries", job["config"], "--out", str(out)])
    return perf_counter() - t0, [rc]


def reference_checks(job) -> dict:
    """Compare library output with the brute-force convolution oracle.

    The field is the one the harness measures at the finest mesh and last
    final time (same projection, same incremental steps).  Boundary
    polynomials are built with blend off, as filter_boundary does.
    """
    from siacpost import dg, filters, harness, psiac
    problem = dg.get_problem(job["problem"])
    d, n, times = job["d"], max(job["mesh_sizes"]), job["final_times"]
    mesh = dg.Mesh(problem.a, problem.b, n)
    field = dg.l2_project(problem.u0, mesh, d)
    for t in sorted(times):
        field = dg.advance(field, problem, t)
    rng = random.Random(job["seed"])
    results = []
    for family in BOUNDARY_FILTERS:
        for side in SIDES:
            spec = filters.build_spec(family, d, side)
            poly = psiac.filter_boundary(field, spec)
            lo, hi = poly.region
            for _ in range(3):
                x = lo + (hi - lo) * rng.random()
                ref = psiac.reference_convolve(psiac.psiac_kernel_at(spec, mesh, x), field, x)
                results.append([f"{family}-{side}", x, float(poly(x)), ref])
    mu = (3 * d + 1) / 2
    for _ in range(3):
        x = mesh.a + mesh.h * (mu + (n - 2 * mu) * rng.random())
        ref = psiac.reference_convolve(psiac.symmetric_kernel_at(d, mesh.h), field, x)
        results.append(["symmetric", x, psiac.symmetric_filter_eval(field, x), ref])
    exact = lambda xs: problem.exact(xs, field.time)
    l2, linf = harness.region_norms(field.evaluate, exact, mesh, (mesh.a, mesh.b))
    return {"comparisons": [r + [close(r[2], r[3], REL_TOL, ABS_FLOOR)] for r in results],
            "dg_full": {"n": n, "t": times[-1], "L2": l2, "Linf": linf}}


def main(job_path: str, out: str, result_path: str, mode: str) -> None:
    job = json.loads(Path(job_path).read_text())
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if mode == "check":
        result = reference_checks(job)
    else:
        cli, tracer, numpy_version = setup(job, mode == "traced")
        setup_s = perf_counter() - START
        passes = [reference_pass()]
        wall_s, rcs = timed(job, cli, out_dir)
        passes.append(reference_pass())
        result = {"setup_s": setup_s, "wall_s": wall_s, "rcs": rcs, "passes": passes,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "numpy": numpy_version, "python": sys.version.split()[0]}
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            tracer.dump(out_dir.parent / f"{out_dir.name}.trace.json")
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:5])
