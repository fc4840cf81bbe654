"""Experiment protocol: region-restricted error norms and convergence rates.

Errors are measured where each filter applies: boundary filters on their
boundary regions (inclusive of the blend strip when blending is on), the
symmetric filter on the interior (exclusive of the strips), and the raw
DG output over the full domain.  Boundary and interior errors are never
merged.  The sampling rule is six points per element: an endpoint-
inclusive uniform grid for the max norm, Gauss-Legendre points for the
L2 norm.

Sampling is batched.  A region is split at element boundaries into
pieces; pieces with the same offset into their element and the same
width sample the same local fractions, so for each sample node one array
call evaluates the filtered output on every element of that shape, and
`region_norms` evaluates all of a region's nodes in one call.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from math import log
from typing import Iterable

import numpy as np

from . import dg, psiac
from .filters import FilterSpec, build_spec

FILTER_ALIASES = {
    "dg-raw": "dg", "dgraw": "dg", "raw": "dg", "dg": "dg",
    "symmetric": "symmetric", "sym": "symmetric",
    "srv": "srv", "rlkv": "rlkv", "np0": "np0", "rs": "rs",
}


class RunConfigError(ValueError):
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
        unknown = [f for f in self.filters if f.strip().lower() not in FILTER_ALIASES]
        if unknown:
            raise RunConfigError(
                f"unknown filter {unknown[0]!r}; choose from {sorted(FILTER_ALIASES)}")
        names = tuple(FILTER_ALIASES[f.strip().lower()] for f in self.filters)
        object.__setattr__(self, "filters", names)
        if self.d < 0 or (self.d < 1 and set(names) != {"dg"}):
            raise RunConfigError("DG degree must be >= 0, and >= 1 for a spline filter")
        ns = self.mesh_sizes
        for a, b in zip(ns, ns[1:]):
            if b != 2 * a:
                raise RunConfigError("mesh sizes must double: rates need matched pairs")
        if any(not t >= 0 for t in self.final_times):
            raise RunConfigError("final times must be nonnegative")
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


_GL6 = np.polynomial.legendre.leggauss(6)


def _region_pieces(region: tuple[Fraction, Fraction]):
    """Split a sigma-interval at element boundaries."""
    lo, hi = Fraction(region[0]), Fraction(region[1])
    if not hi > lo:
        raise EmptyRegionError(f"region {region} is empty")
    pieces = []
    start = lo
    while start < hi:
        nxt = min(Fraction(int(start) + 1), hi)
        pieces.append((start, nxt))
        start = nxt
    return pieces


def _sigma_exact(mesh: dg.Mesh, x: float) -> Fraction:
    """Physical coordinate to exact sigma, snapping to nearby integers."""
    s = (x - mesh.a) / mesh.h
    r = round(s)
    if abs(s - r) < 1e-9:
        return Fraction(r)
    return Fraction(s).limit_denominator(10 ** 9)


def _gauss_rule(samples_per_element: int):
    return (_GL6 if samples_per_element == 6
            else np.polynomial.legendre.leggauss(samples_per_element))


def region_norms(approx, exact, mesh: dg.Mesh, region: tuple[float, float],
                 samples_per_element: int = 6) -> tuple[float, float]:
    """(L2, Linf) of approx - exact over the region.

    approx and exact are callables of physical-x arrays, each called once
    per norm with the nodes of every piece.  Linf is the max over the
    endpoint-inclusive uniform grid; L2 is composite Gauss-Legendre with
    samples_per_element points per (partial) element.
    """
    pieces = _region_pieces((_sigma_exact(mesh, region[0]), _sigma_exact(mesh, region[1])))
    lo = np.array([float(a) for a, _ in pieces])
    width = np.array([float(b - a) for a, b in pieces])
    steps = np.arange(samples_per_element)
    xs = mesh.a + (lo[:, None] + width[:, None] * steps / (samples_per_element - 1)) * mesh.h
    linf = float(np.max(np.abs(np.asarray(approx(xs.ravel())) - np.asarray(exact(xs.ravel())))))
    gx, gw = _gauss_rule(samples_per_element)
    mid = mesh.a + np.array([float(a + b) for a, b in pieces]) / 2 * mesh.h
    rad = width / 2 * mesh.h
    nodes = (mid[:, None] + rad[:, None] * gx).ravel()
    err = (np.asarray(approx(nodes)) - np.asarray(exact(nodes))).reshape(len(pieces), -1)
    return float(np.sqrt(np.dot(rad, err ** 2 @ gw))), linf


# ---------------------------------------------------------------------------
# per-filter evaluators over one solved field


class _FieldContext:
    """A solved field at one (N, T), with Bernstein form and spec caches."""

    def __init__(self, field: dg.DGField, problem: dg.TestProblem, config: RunConfig):
        self.field = field
        self.bern = dg.to_bernstein(field)
        self.problem = problem
        self.config = config
        self.mesh = field.mesh
        self.mu_sym = Fraction(3 * field.d + 1, 2)

    def exact_fn(self, xs):
        return self.problem.exact(np.asarray(xs, dtype=float), self.field.time)

    # --- region geometry (sigma units) -------------------------------------
    def strip(self) -> int:
        return 2 if self.config.blend else 0

    def interior_region(self):
        pad = self.mu_sym + self.strip()
        lo, hi = pad, Fraction(self.mesh.n) - pad
        if not hi > lo:
            raise psiac.MeshTooCoarseError("no interior region left at this mesh size")
        return lo, hi

    def boundary_region(self, spec: FilterSpec, side: str):
        lam = spec.lam + self.strip()
        if side == "left":
            return Fraction(0), lam
        return Fraction(self.mesh.n) - lam, Fraction(self.mesh.n)

    # --- evaluators: each maps (element array, frac) to a value array --------
    def symmetric_values(self, elements: np.ndarray, frac) -> np.ndarray:
        return psiac.symmetric_filter_eval_local(self.bern, elements, frac)

    def boundary_evaluator(self, spec: FilterSpec, side: str):
        poly = psiac.filter_boundary(self.bern, spec, side)
        lam = spec.lam
        n = self.mesh.n
        rho = self.config.blend_rho

        def values(elements: np.ndarray, frac) -> np.ndarray:
            sigma = elements + float(frac)
            out = poly(self.mesh.a + sigma * self.mesh.h)
            if not self.config.blend:
                return out
            if side == "left":
                z = (sigma - float(lam)) / 2.0
            else:
                z = (float(n - lam) - sigma) / 2.0
            strip = z > 0.0
            if strip.any():
                beta = psiac.blend_weight(np.minimum(z[strip], 1.0), rho)
                out[strip] = ((1 - beta) * out[strip]
                              + beta * self.symmetric_values(elements[strip], frac))
            return out

        return values


def _norms_over_region(ctx: _FieldContext, region, values_fn,
                       samples_per_element: int) -> tuple[float, float]:
    """Norms by (element, frac) evaluation, batched over pieces of one shape.

    Pieces with the same offset into their element and the same width
    share every sample frac, so each sample node is one array call across
    all elements of that shape.  Uniform fracs stay exact rationals and
    Gauss fracs floats: the keys of the interior weight cache.
    """
    mesh = ctx.mesh
    shapes: dict[tuple[Fraction, Fraction], list[int]] = {}
    for lo, hi in _region_pieces(region):
        e = min(int(lo), mesh.n - 1)
        shapes.setdefault((lo - e, hi - lo), []).append(e)

    def errors(es: np.ndarray, frac) -> np.ndarray:
        x = mesh.a + (es + float(frac)) * mesh.h
        return values_fn(es, frac) - ctx.exact_fn(x)

    gx, gw = _gauss_rule(samples_per_element)
    sq_total = 0.0
    linf = 0.0
    for (offset, width), elements in shapes.items():
        es = np.array(elements)
        # uniform, endpoint-inclusive
        for s in range(samples_per_element):
            frac = offset + width * Fraction(s, samples_per_element - 1)
            linf = max(linf, float(np.max(np.abs(errors(es, frac)))))
        # Gauss nodes (floats, identical across translated pieces)
        flo, fw = float(offset), float(width)
        rad = fw / 2 * mesh.h
        for q in range(samples_per_element):
            err = errors(es, flo + fw * (float(gx[q]) + 1.0) / 2.0)
            sq_total += rad * float(gw[q]) * float(np.dot(err, err))
    return float(np.sqrt(sq_total)), linf


# ---------------------------------------------------------------------------
# the experiment driver


def _filter_records(ctx: _FieldContext, name: str) -> list[ErrorRecord]:
    cfg = ctx.config
    base = dict(problem=cfg.problem, d=cfg.d, filter=name, n=ctx.mesh.n,
                t=ctx.field.time)
    spe = cfg.samples_per_element
    out = []
    if name == "dg":
        region = (ctx.mesh.a, ctx.mesh.b)
        l2, linf = region_norms(ctx.field.evaluate, ctx.exact_fn, ctx.mesh, region, spe)
        out.append(ErrorRecord(region="full", norm="L2", value=l2, **base))
        out.append(ErrorRecord(region="full", norm="Linf", value=linf, **base))
    elif name == "symmetric":
        region = ctx.interior_region()
        l2, linf = _norms_over_region(ctx, region, ctx.symmetric_values, spe)
        out.append(ErrorRecord(region="interior", norm="L2", value=l2, **base))
        out.append(ErrorRecord(region="interior", norm="Linf", value=linf, **base))
    else:
        for side in ("left", "right"):
            spec = build_spec(name, cfg.d, side)
            values_fn = ctx.boundary_evaluator(spec, side)
            region = ctx.boundary_region(spec, side)
            l2, linf = _norms_over_region(ctx, region, values_fn, spe)
            out.append(ErrorRecord(region=side, norm="L2", value=l2, **base))
            out.append(ErrorRecord(region=side, norm="Linf", value=linf, **base))
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


def read_csv(path) -> list[ErrorRecord | RateRecord]:
    """Inverse of write_csv (used for round-trip checks)."""
    out: list[ErrorRecord | RateRecord] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_HEADER:
            raise ValueError("unexpected CSV header")
        for row in reader:
            cls = RateRecord if row[8] == "rate" else ErrorRecord
            out.append(cls(problem=row[0], d=int(row[1]), filter=row[2], region=row[3],
                           norm=row[4], n=int(row[5]), t=float(row[6]),
                           value=float(row[7])))
    return out
