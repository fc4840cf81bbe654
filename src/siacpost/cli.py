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
import re
import sys
from dataclasses import MISSING, fields
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np

from . import dg, filters, harness, psiac, spline
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


def _write(path: Path, header: str, rows) -> None:
    """One CLI CSV: a float (numpy's too) at 17 significant digits, anything else by str."""
    cell = lambda v: f"{v:.17g}" if isinstance(v, float) else str(v)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(cell, row)) + "\n")


def _solve_field(args):
    """The problem, mesh and DG field that solve and filter write out."""
    problem = dg.get_problem(args.problem)
    if args.samples < 0:
        raise UsageError("--samples must be >= 0")
    mesh = dg.Mesh(problem.a, problem.b, args.n)
    return problem, mesh, dg.dg_solve(problem, mesh, args.d, args.t, args.cfl)


# ---------------------------------------------------------------------------
# subcommands


def cmd_kernel(args) -> int:
    from .filters import build_spec, shifted_coefficient_polynomials
    spec = build_spec(args.family, args.d, args.side, k=args.k)
    if args.samples < 0:
        raise UsageError("--samples must be >= 0")
    if not args.exact and not args.samples:
        raise UsageError("pass --exact and/or --samples N")
    cp = shifted_coefficient_polynomials(spec)
    if args.samples:
        xi = _parse(Fraction, args.xi, "--xi")
        try:  # the samples are taken in floats
            lo, hi, *weights = map(float, (spec.knots[0] + xi, spec.knots[-1] + xi,
                                           *cp.evaluate(xi)))
        except OverflowError:
            raise UsageError(f"bad --xi {args.xi!r}: the shifted kernel overflows a float") from None
    vec = psiac.endpoint_vector(spec, args.dg_degree) if args.exact else None
    out = _outdir(args)
    tag = f"{spec.family}_d{spec.d}_{spec.side}"
    if args.exact:
        path = out / f"kernel_{tag}_coeffs.csv"
        _write(path, "j," + ",".join(f"xi^{m}" for m in range(spec.r + 1)),
               ([j, *cp.matrix.row(j)] for j in range(spec.r + 1)))
        vpath = out / f"kernel_{tag}_endpoint_vector.csv"
        _write(vpath, "index,value", enumerate(vec))
        print(f"wrote {path} and {vpath}")
    if args.samples:
        # each shifted window's knot arithmetic is done once, not per sample
        splines = [spline.bspline_evaluator([t + xi for t in w], k)
                   for w, k in zip(spec.windows, spec.degrees)]
        rows = ((x, sum(c * b(x) for c, b in zip(weights, splines)))
                for x in np.linspace(lo, hi, args.samples).tolist())
        path = out / f"kernel_{tag}_samples.csv"
        _write(path, "x,value", rows)
        print(f"wrote {path}")
    return 0


def cmd_solve(args) -> int:
    problem, mesh, field = _solve_field(args)
    out = _outdir(args)
    cpath = out / f"solve_{problem.name}_d{args.d}_n{args.n}_coeffs.csv"
    _write(cpath, "element,basis_index,coefficient",
           ((i, l, field.coeffs[i, l]) for i in range(mesh.n) for l in range(args.d + 1)))
    xs = np.linspace(problem.a, problem.b, args.samples * mesh.n + 1)
    samples = zip(xs, field.evaluate(xs), problem.exact(xs, args.t))
    spath = out / f"solve_{problem.name}_d{args.d}_n{args.n}_samples.csv"
    _write(spath, "x,u,exact,error", ((x, u, e, u - e) for x, u, e in samples))
    print(f"wrote {cpath} and {spath}")
    return 0


def cmd_filter(args) -> int:
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
    exact_cs = list(exact.coeffs) + [Fraction(0)] * (len(poly.coeffs) - len(exact.coeffs))
    _write(ppath, "power,coefficient_scaled,coefficient_physical,coefficient_exact",
           zip(range(len(exact_cs)), poly.coeffs, poly.physical_coefficients(), exact_cs))
    lo, hi = poly.region
    xs = np.linspace(lo, hi, args.samples * max(1, round((hi - lo) / mesh.h)) + 1)
    samples = zip(xs, poly(xs), problem.exact(xs, args.t))
    spath = out / f"filter_{tag}_samples.csv"
    _write(spath, "x,value,exact_solution,abs_error",
           ((x, v, e, abs(v - e)) for x, v, e in samples))
    print(f"wrote {ppath} and {spath}")
    return 0


def cmd_converge(args) -> int:
    errors, rates = harness.time_series_experiment(build_run_config({}, args))
    for r in [*errors, *rates]:
        value = f"{r.value:.6e}" if r.kind == "error" else f"{r.value:.3f}"
        print(f"{r.kind:6s} {r.filter:10s} {r.region:8s} {r.norm:4s} N={r.n:<4d} {value}")
    if args.out:
        path = Path(args.out)
        if path.is_dir() or args.out.endswith(os.sep):
            path.mkdir(parents=True, exist_ok=True)
            path = path / "converge.csv"
        harness.write_csv([*errors, *rates], path)
        print(f"wrote {path}")
    return 0


CONFIG_KEYS = tuple(field.name for field in fields(harness.RunConfig))


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
        if key in values:
            raise UsageError(f"line {lineno}: repeated key {key!r}")
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


def _names(text: str) -> tuple[str, ...]:
    return tuple(name for name in text.split(",") if name.strip())


# how each RunConfig field is read from its config-file or flag text
_READ = {"problem": str, "d": int, "filters": _names, "mesh_sizes": _ints,
         "final_times": _times_from, "blend": _switch, "cfl": float}


def build_run_config(values: dict, args) -> harness.RunConfig:
    """The run of config-file values and run flags: all are checked, a given flag wins."""
    flags = {key: getattr(args, key) for key in CONFIG_KEYS}
    given = {key: str(flag) for key, flag in flags.items() if flag is not None}
    settings = {key: _parse(_READ[key], text, key)
                for source in (values, given) for key, text in source.items()}
    missing = [field.name for field in fields(harness.RunConfig)
               if field.name not in settings and field.default is MISSING]
    if missing:
        raise UsageError(f"missing required settings: {', '.join(missing)}")
    return harness.RunConfig(**settings)


def cmd_timeseries(args) -> int:
    values = parse_config(args.config) if args.config else {}
    config = build_run_config(values, args)
    errors, rates = harness.time_series_experiment(config)
    out = _outdir(args)
    path = out / f"timeseries_{config.problem}_d{config.d}.csv"
    harness.write_csv([*errors, *rates], path)
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

    def add_run(p):
        p.add_argument("problem", help="tp1 | tp2 | tp3")
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--t", type=float, required=True)
        p.add_argument("--cfl", type=float, default=None)
        p.add_argument("--samples", type=int, default=6)
        p.add_argument("--out", default=None)

    ps = sub.add_parser("solve", help="run the DG solver and dump the field")
    add_run(ps)
    ps.set_defaults(fn="cmd_solve")

    pf = sub.add_parser("filter", help="solve, then boundary-filter one side")
    add_run(pf)
    pf.add_argument("--family", required=True)
    pf.add_argument("--side", default="left")
    pf.add_argument("--k", type=int, default=None)
    pf.set_defaults(fn="cmd_filter")

    pc = sub.add_parser("converge", help="error/rate table over a mesh sequence")
    pc.add_argument("problem")
    pc.add_argument("--d", type=int, required=True)
    pc.add_argument("--filters", default="dg,symmetric,np0")
    pc.add_argument("--n-list", dest="mesh_sizes", default="20,40,80")
    pc.add_argument("--t", dest="final_times", type=float, default=1.0)
    pc.add_argument("--no-blend", dest="blend", action="store_false", default=None)
    pc.add_argument("--cfl", type=float, default=None)
    pc.add_argument("--out", default=None)
    pc.set_defaults(fn="cmd_converge")

    pt = sub.add_parser("timeseries", help="full final-time series experiment")
    pt.add_argument("config", nargs="?", default=None, help="key = value config file")
    pt.add_argument("--problem", default=None)
    pt.add_argument("--d", type=int, default=None)
    pt.add_argument("--filters", default=None)
    pt.add_argument("--mesh-sizes", dest="mesh_sizes", default=None)
    pt.add_argument("--times", dest="final_times", help="comma list or linspace:lo:hi:n")
    pt.add_argument("--blend", dest="blend", action="store_true", default=None)
    pt.add_argument("--no-blend", dest="blend", action="store_false")
    pt.add_argument("--cfl", type=float, default=None)
    pt.add_argument("--out", default=None)
    pt.set_defaults(fn="cmd_timeseries")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    words = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(words))):  # a negative shift is --xi's value, not an option
        if words[i - 1] == "--xi" and re.match(r"-\.?\d", words[i]):
            words[i - 1:i + 1] = [f"--xi={words[i]}"]
    args = parser.parse_args(words)
    if getattr(args, "side", None) is None and hasattr(args, "family"):
        args.side = "interior" if filters.family_name(args.family) == "symmetric" else "left"
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
