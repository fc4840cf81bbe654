"""Command-line front end.

Subcommands: kernel, solve, filter, converge, timeseries.  Exit codes:
0 success; 2 usage error, when argparse rejects the command line or the
run raises `siacpost.errors.UsageError`, which every input check raises
before anything is written (here for CLI-only options and the config
file, in the library for the values it owns); 1 runtime failure, any
other exception.  `main` is the one place where an exception becomes an
exit code.  The default output directory comes from $SIACPOST_OUTDIR
(falling back to the current directory).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np

from .errors import UsageError


def _outdir(args) -> Path:
    base = args.out or os.environ.get("SIACPOST_OUTDIR") or "."
    p = Path(base)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _parse(convert, text: str, what: str):
    """convert(text), with a ValueError or ZeroDivisionError reported as a usage error."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad {what} {text!r}: {exc}") from exc


def _solve_field(args):
    """The problem, mesh and DG field that solve and filter write out."""
    from . import dg
    problem = dg.get_problem(args.problem)
    if args.samples < 0:
        raise UsageError("--samples must be >= 0")
    mesh = dg.Mesh(problem.a, problem.b, args.n)
    return problem, mesh, dg.dg_solve(problem, mesh, args.d, args.t, args.cfl)


# ---------------------------------------------------------------------------
# subcommands


def cmd_kernel(args) -> int:
    from . import psiac
    from .filters import build_spec, shifted_coefficient_polynomials, static_coefficients
    from .spline import eval_unit_bspline
    spec = build_spec(args.family, args.d, args.side, k=args.k)
    if args.samples < 0:
        raise UsageError("--samples must be >= 0")
    if not args.exact and not args.samples:
        raise UsageError("pass --exact and/or --samples N")
    xi = _parse(Fraction, args.xi, "--xi") if args.samples else None
    vec = psiac.endpoint_vector(spec, args.dg_degree) if args.exact else None
    out = _outdir(args)
    tag = f"{spec.family}_d{spec.d}_{spec.side}"
    if args.exact:
        cp = shifted_coefficient_polynomials(spec)
        path = out / f"kernel_{tag}_coeffs.csv"
        with open(path, "w") as fh:
            fh.write("j," + ",".join(f"xi^{m}" for m in range(spec.r + 1)) + "\n")
            for j in range(spec.r + 1):
                fh.write(f"{j}," + ",".join(str(c) for c in cp.matrix.row(j)) + "\n")
        vpath = out / f"kernel_{tag}_endpoint_vector.csv"
        with open(vpath, "w") as fh:
            fh.write("index,value\n")
            for i, v in enumerate(vec):
                fh.write(f"{i},{v}\n")
        print(f"wrote {path} and {vpath}")
    if args.samples:
        coeffs = static_coefficients(spec) if xi == 0 else \
            shifted_coefficient_polynomials(spec).evaluate(xi)
        lo, hi = spec.knots[0] + xi, spec.knots[-1] + xi
        xs = np.linspace(float(lo), float(hi), args.samples)
        path = out / f"kernel_{tag}_samples.csv"
        with open(path, "w") as fh:
            fh.write("x,value\n")
            for x in xs:
                val = sum(float(c) * float(eval_unit_bspline([t + xi for t in w], k, float(x)))
                          for c, w, k in zip(coeffs, spec.windows, spec.degrees))
                fh.write(f"{x:.17g},{val:.17g}\n")
        print(f"wrote {path}")
    return 0


def cmd_solve(args) -> int:
    problem, mesh, field = _solve_field(args)
    out = _outdir(args)
    cpath = out / f"solve_{problem.name}_d{args.d}_n{args.n}_coeffs.csv"
    with open(cpath, "w") as fh:
        fh.write("element,basis_index,coefficient\n")
        for i in range(mesh.n):
            for l in range(args.d + 1):
                fh.write(f"{i},{l},{field.coeffs[i, l]:.17g}\n")
    xs = np.linspace(problem.a, problem.b, args.samples * mesh.n + 1)
    vals = field.evaluate(xs)
    exact = problem.exact(xs, args.t)
    spath = out / f"solve_{problem.name}_d{args.d}_n{args.n}_samples.csv"
    with open(spath, "w") as fh:
        fh.write("x,u,exact,error\n")
        for x, u, e in zip(xs, vals, exact):
            fh.write(f"{x:.17g},{u:.17g},{e:.17g},{u - e:.17g}\n")
    print(f"wrote {cpath} and {spath}")
    return 0


def cmd_filter(args) -> int:
    from . import dg, psiac
    from .filters import build_spec
    spec = build_spec(args.family, args.d, args.side, k=args.k)
    problem, mesh, field = _solve_field(args)
    bern = dg.to_bernstein(field)
    poly = psiac.filter_boundary(bern, spec)
    # exact contraction of the (losslessly lifted) window coefficients
    qm, window = psiac.boundary_window(bern, spec)
    exact = qm.contract_exact([[Fraction(v) for v in row] for row in window])
    out = _outdir(args)
    tag = f"{problem.name}_{spec.family}_d{args.d}_n{args.n}_{spec.side}"
    ppath = out / f"filter_{tag}_poly.csv"
    with open(ppath, "w") as fh:
        fh.write("power,coefficient_scaled,coefficient_physical,coefficient_exact\n")
        phys = poly.physical_coefficients()
        exact_cs = list(exact.coeffs) + [Fraction(0)] * (len(poly.coeffs) - len(exact.coeffs))
        for m, (c, a, q) in enumerate(zip(poly.coeffs, phys, exact_cs)):
            fh.write(f"{m},{c:.17g},{a:.17g},{q}\n")
    xs = np.linspace(poly.region[0], poly.region[1], args.samples * max(1, int(round(
        (poly.region[1] - poly.region[0]) / mesh.h))) + 1)
    vals = poly(xs)
    exact = problem.exact(xs, args.t)
    spath = out / f"filter_{tag}_samples.csv"
    with open(spath, "w") as fh:
        fh.write("x,value,exact_solution,abs_error\n")
        for x, v, e in zip(xs, vals, exact):
            fh.write(f"{x:.17g},{v:.17g},{e:.17g},{abs(v - e):.17g}\n")
    print(f"wrote {ppath} and {spath}")
    return 0


def cmd_converge(args) -> int:
    from . import harness
    config = harness.RunConfig(
        problem=args.problem, d=args.d, filters=tuple(args.filters.split(",")),
        mesh_sizes=_parse(_ints, args.n_list, "--n-list"),
        final_times=(args.t,), blend=not args.no_blend, cfl=args.cfl)
    errors, rates = harness.time_series_experiment(config)
    for r in errors:
        print(f"error  {r.filter:10s} {r.region:8s} {r.norm:4s} N={r.n:<4d} {r.value:.6e}")
    for r in rates:
        print(f"rate   {r.filter:10s} {r.region:8s} {r.norm:4s} N={r.n:<4d} {r.value:.3f}")
    if args.out:
        path = Path(args.out)
        if path.is_dir() or args.out.endswith(os.sep):
            path.mkdir(parents=True, exist_ok=True)
            path = path / "converge.csv"
        harness.write_csv(list(errors) + list(rates), path)
        print(f"wrote {path}")
    return 0


CONFIG_KEYS = ("problem", "d", "filters", "mesh_sizes", "final_times",
               "samples_per_element", "blend", "blend_rho", "cfl")


def parse_config(path: str | Path):
    """Key = value lines; '#' starts a comment.

    final_times accepts either a comma list or linspace:lo:hi:count.
    """
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key not in CONFIG_KEYS:
            raise UsageError(f"line {lineno}: unknown key {key!r}")
        values[key] = val.strip()
    return values


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(n) for n in text.split(","))


def _switch(text: str) -> bool:
    """An on/off config value: 1/0, true/false, yes/no or on/off, in any case."""
    key = text.strip().lower()
    if key not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError("expected 1/0, true/false, yes/no or on/off")
    return key in ("1", "true", "yes", "on")


def _times_from(text: str) -> tuple[float, ...]:
    if text.startswith("linspace:"):
        _, lo, hi, count = text.split(":")
        return tuple(float(t) for t in np.linspace(float(lo), float(hi), int(count)))
    return tuple(float(t) for t in text.split(","))


def build_run_config(values: dict, args) -> "RunConfig":
    from .harness import RunConfig
    get = lambda key, flag=None: (flag if flag not in (None, "") else values.get(key))
    problem = get("problem", args.problem)
    d = get("d", args.d)
    filters_ = get("filters", args.filters)
    meshes = get("mesh_sizes", args.mesh_sizes)
    times = get("final_times", args.times)
    missing = [n for n, v in (("problem", problem), ("d", d), ("filters", filters_),
                              ("mesh_sizes", meshes), ("final_times", times)) if v is None]
    if missing:
        raise UsageError(f"missing required settings: {', '.join(missing)}")
    blend = _parse(_switch, values.get("blend", "true"), "blend")
    return RunConfig(
        problem=str(problem), d=_parse(int, d, "d"),
        filters=tuple(f for f in str(filters_).split(",") if f.strip()),
        mesh_sizes=_parse(_ints, str(meshes), "mesh_sizes"),
        final_times=_parse(_times_from, str(times), "final_times"),
        samples_per_element=_parse(int, values.get("samples_per_element", "6"),
                                   "samples_per_element"),
        blend=blend if args.blend is None else args.blend,
        blend_rho=_parse(int, values.get("blend_rho", "2"), "blend_rho"),
        cfl=_parse(float, values["cfl"], "cfl") if "cfl" in values else args.cfl)


def cmd_timeseries(args) -> int:
    from . import harness
    values = parse_config(args.config) if args.config else {}
    config = build_run_config(values, args)
    errors, rates = harness.time_series_experiment(config)
    out = _outdir(args)
    path = out / f"timeseries_{config.problem}_d{config.d}.csv"
    harness.write_csv(list(errors) + list(rates), path)
    print(f"wrote {path} ({len(errors)} error rows, {len(rates)} rate rows)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; subcommands name their handler."""
    parser = argparse.ArgumentParser(
        prog="siacpost",
        description="Spline-filter post-processing of 1D DG advection output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p, with_side=True):
        p.add_argument("family", help="symmetric | rs | srv | rlkv | np0 | npk")
        p.add_argument("d", type=int, help="DG polynomial degree")
        if with_side:
            p.add_argument("side", nargs="?", default=None,
                           help="left | right | interior (default by family)")
        p.add_argument("--k", type=int, default=None, help="kernel degree for npk")

    pk = sub.add_parser("kernel", help="dump exact filter coefficients / sampled kernel")
    add_family(pk)
    pk.add_argument("--exact", action="store_true", help="write exact coefficient CSVs")
    pk.add_argument("--samples", type=int, default=0, help="sample count for the kernel graph")
    pk.add_argument("--xi", default="0", help="shift in mesh units (decimal or p/q)")
    pk.add_argument("--dg-degree", type=int, default=None)
    pk.add_argument("--out", default=None)
    pk.set_defaults(fn="cmd_kernel")

    ps = sub.add_parser("solve", help="run the DG solver and dump the field")
    ps.add_argument("problem", help="tp1 | tp2 | tp3")
    ps.add_argument("--d", type=int, required=True)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--t", type=float, required=True)
    ps.add_argument("--cfl", type=float, default=None)
    ps.add_argument("--samples", type=int, default=6)
    ps.add_argument("--out", default=None)
    ps.set_defaults(fn="cmd_solve")

    pf = sub.add_parser("filter", help="solve, then boundary-filter one side")
    pf.add_argument("problem")
    pf.add_argument("--family", required=True)
    pf.add_argument("--side", default="left")
    pf.add_argument("--d", type=int, required=True)
    pf.add_argument("--n", type=int, required=True)
    pf.add_argument("--t", type=float, required=True)
    pf.add_argument("--k", type=int, default=None)
    pf.add_argument("--cfl", type=float, default=None)
    pf.add_argument("--samples", type=int, default=6)
    pf.add_argument("--out", default=None)
    pf.set_defaults(fn="cmd_filter")

    pc = sub.add_parser("converge", help="error/rate table over a mesh sequence")
    pc.add_argument("problem")
    pc.add_argument("--d", type=int, required=True)
    pc.add_argument("--filters", default="dg,symmetric,np0")
    pc.add_argument("--n-list", default="20,40,80")
    pc.add_argument("--t", type=float, default=1.0)
    pc.add_argument("--no-blend", action="store_true")
    pc.add_argument("--cfl", type=float, default=None)
    pc.add_argument("--out", default=None)
    pc.set_defaults(fn="cmd_converge")

    pt = sub.add_parser("timeseries", help="full final-time series experiment")
    pt.add_argument("config", nargs="?", default=None, help="key = value config file")
    pt.add_argument("--problem", default=None)
    pt.add_argument("--d", type=int, default=None)
    pt.add_argument("--filters", default=None)
    pt.add_argument("--mesh-sizes", dest="mesh_sizes", default=None)
    pt.add_argument("--times", default=None, help="comma list or linspace:lo:hi:n")
    pt.add_argument("--blend", dest="blend", action="store_true", default=None)
    pt.add_argument("--no-blend", dest="blend", action="store_false")
    pt.add_argument("--cfl", type=float, default=None)
    pt.add_argument("--out", default=None)
    pt.set_defaults(fn="cmd_timeseries")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if getattr(args, "side", None) is None and hasattr(args, "family"):
        args.side = "interior" if args.family.lower().startswith("sym") else "left"
    try:  # by name, so that a handler replaced after import is the one called
        return globals()[args.fn](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
