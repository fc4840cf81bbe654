"""Experiment protocol: region-restricted error norms and convergence rates.

Errors are measured where each filter applies: boundary filters on their
boundary regions (inclusive of the blend strip when blending is on), the
symmetric filter on the interior (exclusive of the strips), and the raw
DG output over the full domain.  Boundary and interior errors are never
merged.  The sampling rule is six points per element: an endpoint-
inclusive uniform grid for the max norm, Gauss-Legendre points for the
L2 norm.

Each solved field is filtered once into polynomial pieces: the interior
output of `psiac.filter_interior` (Bernstein coefficients per element or
half-element) and one `psiac.filter_boundary` polynomial per boundary
filter and side, joined to the interior output across the blend strip
by `psiac.blend_transition`.  `region_norms` then samples any of them,
or the raw field, over a region split at element boundaries, with one
call of the evaluator per norm on the nodes of every piece.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from math import ceil, floor, log
from typing import Iterable

import numpy as np

from . import dg, psiac
from .errors import UsageError
from .filters import FilterSpec, build_spec

FILTER_ALIASES = {
    "dg-raw": "dg", "dgraw": "dg", "raw": "dg", "dg": "dg",
    "symmetric": "symmetric", "sym": "symmetric",
    "srv": "srv", "rlkv": "rlkv", "np0": "np0", "rs": "rs",
}


class RunConfigError(UsageError):
    """Experiment settings the harness cannot run (a usage error)."""


class EmptyRegionError(ValueError):
    """Requested error region has no interior."""


class NonpositiveError(ValueError):
    """Convergence rate needs two strictly positive errors."""


@dataclass(frozen=True)
class RunConfig:
    """One experiment: a problem, a degree, filters, meshes, final times."""

    problem: str
    d: int
    filters: tuple[str, ...]
    mesh_sizes: tuple[int, ...]
    final_times: tuple[float, ...]
    samples_per_element: int = 6
    blend: bool = True
    blend_rho: int = 2
    cfl: float | None = None

    def __post_init__(self):
        dg.get_problem(self.problem)
        unknown = [f for f in self.filters if f.strip().lower() not in FILTER_ALIASES]
        if unknown:
            raise RunConfigError(
                f"unknown filter {unknown[0]!r}; choose from {sorted(FILTER_ALIASES)}")
        names = tuple(FILTER_ALIASES[f.strip().lower()] for f in self.filters)
        object.__setattr__(self, "filters", names)
        if self.d < 0 or (self.d < 1 and set(names) != {"dg"}):
            raise RunConfigError("DG degree must be >= 0, and >= 1 for a spline filter")
        ns = self.mesh_sizes
        if any(n < 1 for n in ns):
            raise RunConfigError("mesh sizes must be at least 1")
        for a, b in zip(ns, ns[1:]):
            if b != 2 * a:
                raise RunConfigError("mesh sizes must double: rates need matched pairs")
        if not all(np.isfinite(t) and t >= 0 for t in self.final_times):
            raise RunConfigError("final times must be nonnegative and finite")
        if self.samples_per_element < 2:
            raise RunConfigError("samples_per_element must be at least 2")
        if self.blend_rho < 1:
            raise RunConfigError("blend_rho must be at least 1")
        if self.cfl is not None:
            dg.check_cfl(self.cfl, self.d)
        object.__setattr__(self, "final_times", tuple(sorted(self.final_times)))


@dataclass(frozen=True)
class ErrorRecord:
    problem: str
    d: int
    filter: str
    region: str  # left | right | interior | full
    norm: str    # L2 | Linf
    n: int
    t: float
    value: float


@dataclass(frozen=True)
class RateRecord:
    problem: str
    d: int
    filter: str
    region: str
    norm: str
    n: int  # the finer of the two meshes
    t: float
    value: float


def convergence_rate(e_coarse: float, e_fine: float) -> float:
    """rho = ln(e_2h / e_h) / ln 2."""
    if not (e_coarse > 0 and e_fine > 0):
        raise NonpositiveError("both errors must be positive")
    return log(e_coarse / e_fine) / log(2.0)


# ---------------------------------------------------------------------------
# sampling machinery


def _region_pieces(region: tuple[Fraction, Fraction]) -> tuple[np.ndarray, np.ndarray]:
    """Split a sigma-interval at element boundaries: (starts, widths) of its pieces.

    Only the first and the last piece can be partial; their widths are
    computed exactly, then rounded.
    """
    lo, hi = Fraction(region[0]), Fraction(region[1])
    if not hi > lo:
        raise EmptyRegionError(f"region {region} is empty")
    starts = np.concatenate(([float(lo)], np.arange(floor(lo) + 1, ceil(hi), dtype=float)))
    widths = np.ones_like(starts)
    widths[0] = float(min(floor(lo) + 1, hi) - lo)
    widths[-1] = float(hi - max(ceil(hi) - 1, lo))
    return starts, widths


def _sigma_exact(mesh: dg.Mesh, x: float) -> Fraction:
    """Physical coordinate to exact sigma, snapping to nearby integers."""
    s = (x - mesh.a) / mesh.h
    r = round(s)
    if abs(s - r) < 1e-9:
        return Fraction(r)
    return Fraction(s).limit_denominator(10 ** 9)


_gauss_rule = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def region_norms(approx, exact, mesh: dg.Mesh, region: tuple[float, float],
                 samples_per_element: int = 6) -> tuple[float, float]:
    """(L2, Linf) of approx - exact over the region.

    approx and exact are callables of physical-x arrays, each called once,
    with the nodes of both norms on every piece.  Linf is the max over the
    endpoint-inclusive uniform grid; L2 is composite Gauss-Legendre with
    samples_per_element points per (partial) element.
    """
    lo, width = _region_pieces((_sigma_exact(mesh, region[0]), _sigma_exact(mesh, region[1])))
    steps = np.arange(samples_per_element)
    xs = mesh.a + (lo[:, None] + width[:, None] * steps / (samples_per_element - 1)) * mesh.h
    gx, gw = _gauss_rule(samples_per_element)
    mid = mesh.a + (2 * lo + width) / 2 * mesh.h
    rad = width / 2 * mesh.h
    nodes = mid[:, None] + rad[:, None] * gx
    points = np.concatenate((xs.ravel(), nodes.ravel()))
    err = np.asarray(approx(points)) - np.asarray(exact(points))
    linf = float(np.max(np.abs(err[:xs.size])))
    sq = err[xs.size:].reshape(len(lo), -1) ** 2
    return float(np.sqrt(np.dot(rad, sq @ gw))), linf


# ---------------------------------------------------------------------------
# per-filter evaluators over one solved field


class _FieldContext:
    """A solved field at one (N, T): its Bernstein form and filtered outputs."""

    def __init__(self, field: dg.DGField, problem: dg.TestProblem, config: RunConfig):
        self.field = field
        self.bern = dg.to_bernstein(field)
        self.problem = problem
        self.config = config
        self.mesh = field.mesh

    def exact_fn(self, xs):
        return self.problem.exact(np.asarray(xs, dtype=float), self.field.time)

    # --- region geometry (sigma units) -------------------------------------
    def strip(self) -> int:
        return 2 if self.config.blend else 0

    def interior_region(self):
        pad = Fraction(3 * self.field.d + 1, 2) + self.strip()
        lo, hi = pad, Fraction(self.mesh.n) - pad
        if not hi > lo:
            raise psiac.MeshTooCoarseError("no interior region left at this mesh size")
        return lo, hi

    def boundary_region(self, spec: FilterSpec, side: str):
        lam = spec.lam + self.strip()
        if side == "left":
            return Fraction(0), lam
        return Fraction(self.mesh.n) - lam, Fraction(self.mesh.n)

    def physical(self, sigma: Fraction) -> float:
        return self.mesh.a + float(sigma) * self.mesh.h

    # --- filtered outputs: callables of physical-x arrays --------------------
    @cached_property
    def interior(self) -> psiac.PiecewiseBernstein:
        return psiac.filter_interior(self.bern)

    def boundary_output(self, spec: FilterSpec, side: str):
        """The boundary polynomial, blended into the interior output across the strip."""
        poly = psiac.filter_boundary(self.bern, spec)
        if not self.config.blend:
            return poly
        step = self.strip() if side == "left" else -self.strip()
        edge = spec.lam if side == "left" else self.mesh.n - spec.lam
        return psiac.blend_transition(poly, self.interior,
                                      (self.physical(edge), self.physical(edge + step)),
                                      self.config.blend_rho)


# ---------------------------------------------------------------------------
# the experiment driver


def _filter_records(ctx: _FieldContext, name: str) -> list[ErrorRecord]:
    cfg = ctx.config
    base = dict(problem=cfg.problem, d=cfg.d, filter=name, n=ctx.mesh.n,
                t=ctx.field.time)
    if name == "dg":
        measured = [("full", ctx.field.evaluate, (0, ctx.mesh.n))]
    elif name == "symmetric":
        measured = [("interior", ctx.interior, ctx.interior_region())]
    else:
        specs = [(side, build_spec(name, cfg.d, side)) for side in ("left", "right")]
        measured = [(side, ctx.boundary_output(spec, side), ctx.boundary_region(spec, side))
                    for side, spec in specs]
    out = []
    for region, approx, (lo, hi) in measured:
        l2, linf = region_norms(approx, ctx.exact_fn, ctx.mesh,
                                (ctx.physical(lo), ctx.physical(hi)),
                                cfg.samples_per_element)
        out.append(ErrorRecord(region=region, norm="L2", value=l2, **base))
        out.append(ErrorRecord(region=region, norm="Linf", value=linf, **base))
    return out


def time_series_experiment(config: RunConfig) -> tuple[list[ErrorRecord], list[RateRecord]]:
    """Solve/filter/measure over all (N, T) pairs and compute rate series.

    Fields advance incrementally through the sorted final times.  Output
    is deterministically ordered by (problem, d, filter, region, norm,
    N, T).
    """
    problem = dg.get_problem(config.problem)
    errors: list[ErrorRecord] = []
    for n in config.mesh_sizes:
        mesh = dg.Mesh(problem.a, problem.b, n)
        field = dg.l2_project(problem.u0, mesh, config.d)
        for t_end in config.final_times:
            field = dg.advance(field, problem, t_end, config.cfl)
            ctx = _FieldContext(field, problem, config)
            for name in config.filters:
                errors.extend(_filter_records(ctx, name))
    rates: list[RateRecord] = []
    by_key: dict[tuple, dict[int, ErrorRecord]] = {}
    for rec in errors:
        by_key.setdefault((rec.filter, rec.region, rec.norm, rec.t), {})[rec.n] = rec
    for (name, region, norm, t), per_n in sorted(by_key.items()):
        for n_coarse, n_fine in zip(config.mesh_sizes, config.mesh_sizes[1:]):
            if n_coarse in per_n and n_fine in per_n:
                ec, ef = per_n[n_coarse].value, per_n[n_fine].value
                if ec > 0 and ef > 0:
                    rates.append(RateRecord(problem=config.problem, d=config.d,
                                            filter=name, region=region, norm=norm,
                                            n=n_fine, t=t,
                                            value=convergence_rate(ec, ef)))

    def sort_key(r):
        return (r.problem, r.d, r.filter, r.region, r.norm, r.n, r.t)

    errors.sort(key=sort_key)
    rates.sort(key=sort_key)
    return errors, rates


# ---------------------------------------------------------------------------
# CSV I/O


CSV_HEADER = ("problem", "d", "filter", "region", "norm", "N", "T", "value", "kind")


def write_csv(records: Iterable[ErrorRecord | RateRecord], path) -> None:
    """Long-format CSV, floats at 17 significant digits, overwrite semantics."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for r in records:
            kind = "rate" if isinstance(r, RateRecord) else "error"
            w.writerow([r.problem, r.d, r.filter, r.region, r.norm, r.n,
                        f"{r.t:.17g}", f"{r.value:.17g}", kind])

