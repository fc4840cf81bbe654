"""Experiment protocol: region-restricted error norms and convergence rates.

Errors are measured where each filter applies: boundary filters on their
boundary regions (inclusive of the blend strip when blending is on), the
symmetric filter on the interior (exclusive of the strips), and the raw
DG output over the full domain.  Boundary and interior errors are never
merged.  The sampling rule is SAMPLES_PER_ELEMENT = 6 points per element:
an endpoint-inclusive uniform grid for the max norm, Gauss-Legendre
points for the L2 norm.

The run lays out every mesh first.  Each region is laid out in exact
element units, from the window of the output measured on it: a boundary
region [0, lam] or [N - lam, N] grows by the strip (two elements) on its
inner side, the interior [mu, N - mu] shrinks by it at both ends.  As
regions depend on N alone, a mesh too coarse for one fails before any is
stepped, and all their sample points are laid out then.  One `dg.advance`
call then steps the whole run: every mesh's projected field advances
through the sorted final times into one stacked Legendre field of coeffs
(times, n, d + 1), which every filter reads as it is, and each distinct
step operator of the run is composed once, in batched passes.  The
boundary outputs of the whole run are measured together: one
`psiac.filter_boundary` contraction per boundary spec across every mesh,
and one `psiac.sample` call that evaluates all of them, each
joined to its own mesh's interior output across its strip by a blend of
order BLEND_RHO = 2.  The rest goes mesh by mesh: `DGField.evaluate` and
`psiac.filter_interior` once each, one exact call on all the mesh's points,
and per output only the reductions, each time's row as `region_norms`
reduces a single field's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from fractions import Fraction
from math import ceil, floor, log
from typing import Iterable

import numpy as np

from . import dg, psiac
from .errors import UsageError
from .filters import build_spec, family_name
from .rk4 import gauss_rule

SAMPLES_PER_ELEMENT = 6  # sample points per element, for each norm
BLEND_RHO = 2  # order of the transition blend
DG_ALIASES = {"dg-raw": "dg", "dgraw": "dg", "raw": "dg"}
FILTER_NAMES = ("dg", "symmetric", "srv", "rlkv", "np0", "rs")  # not npk: it needs a degree k


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
    blend: bool = True
    cfl: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "problem", dg.get_problem(self.problem).name)
        names = tuple(DG_ALIASES.get(name, name) for name in map(family_name, self.filters))
        unknown = [f for f, name in zip(self.filters, names) if name not in FILTER_NAMES]
        if unknown:
            raise RunConfigError(
                f"unknown filter {unknown[0]!r}; choose from {sorted(FILTER_NAMES)}")
        object.__setattr__(self, "filters", names)
        for what, items in (("filters", names), ("mesh sizes", self.mesh_sizes),
                             ("final times", self.final_times)):
            if not items or len(set(items)) < len(items):
                raise RunConfigError(f"{what} must be a nonempty list without repeats")
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
        if self.cfl is not None:
            dg.check_cfl(self.cfl, self.d)
        object.__setattr__(self, "final_times", tuple(sorted(self.final_times)))


@dataclass(frozen=True, slots=True)
class Record:
    """One CSV row: an error, or a rate between two meshes' errors."""

    problem: str
    d: int
    filter: str
    region: str  # left | right | interior | full
    norm: str    # L2 | Linf
    n: int       # for a rate, the finer of the two meshes
    t: float
    value: float
    kind: str    # error | rate


def convergence_rate(e_coarse: float, e_fine: float) -> float:
    """rho = ln(e_2h / e_h) / ln 2."""
    if not (e_coarse > 0 and e_fine > 0):
        raise NonpositiveError("both errors must be positive")
    return log(e_coarse / e_fine) / log(2.0)


# ---------------------------------------------------------------------------
# sampling machinery


def _sigma_exact(mesh: dg.Mesh, x: float) -> Fraction:
    """Physical coordinate to exact sigma, snapping to nearby integers."""
    s = (x - mesh.a) / mesh.h
    r = round(s)
    if abs(s - r) < 1e-9:
        return Fraction(r)
    return Fraction(s).limit_denominator(10 ** 9)


def _layouts(mesh: dg.Mesh, regions) -> list[tuple[np.ndarray, int, np.ndarray]]:
    """(points, grid, rad) per sigma-interval, all laid out in one pass: the interval is
    split at element boundaries (the widths of its partial end pieces are computed
    exactly, then rounded); points are the pieces' uniform grids, the first `grid`,
    then their Gauss-Legendre nodes; rad holds each piece's half-width."""
    starts, widths, bounds = [], [], [0]
    for region in regions:
        lo, hi = Fraction(region[0]), Fraction(region[1])
        if not hi > lo:
            raise EmptyRegionError(f"region {region} is empty")
        first, last = floor(lo) + 1, ceil(hi) - 1  # the element bounds inside, once
        starts += [float(lo), *range(first, last + 1)]
        widths += [float(min(first, hi) - lo)] + [1.0] * max(last + 1 - first, 0)
        widths[-1] = float(hi - max(last, lo))
        bounds.append(len(starts))
    start, width = np.array(starts, dtype=float), np.array(widths)
    steps = np.arange(SAMPLES_PER_ELEMENT)
    xs = mesh.a + (start[:, None] + width[:, None] * steps / (SAMPLES_PER_ELEMENT - 1)) * mesh.h
    mid = mesh.a + (2 * start + width) / 2 * mesh.h
    rad = width / 2 * mesh.h
    nodes = mid[:, None] + rad[:, None] * gauss_rule(SAMPLES_PER_ELEMENT, 0)[0]
    return [(np.concatenate((xs[a:b].ravel(), nodes[a:b].ravel())), (b - a) * SAMPLES_PER_ELEMENT,
             rad[a:b]) for a, b in zip(bounds, bounds[1:])]


def _norms(err: np.ndarray, grid: int, rad: np.ndarray) -> list[tuple[float, float]]:
    """(L2, Linf) per row of err, the errors at a layout's points, rows in C order:
    each row's squares reach BLAS as one C-order (pieces, nodes) block, as a single row's."""
    sq = err[..., grid:].reshape(-1, len(rad), SAMPLES_PER_ELEMENT) ** 2
    linf = np.max(np.abs(err[..., :grid]).reshape(len(sq), -1), axis=1)
    l2 = np.sqrt([np.dot(rad, s) for s in sq @ gauss_rule(SAMPLES_PER_ELEMENT, 0)[1]])
    return list(zip(l2.tolist(), linf.tolist()))


def region_norms(approx, exact, mesh: dg.Mesh, region: tuple[float, float]):
    """(L2, Linf) of approx - exact over the region.

    approx and exact are callables of physical-x arrays, each called once,
    with the nodes of both norms on every piece.  Linf is the max over the
    endpoint-inclusive uniform grid; L2 is composite Gauss-Legendre with
    SAMPLES_PER_ELEMENT points per (partial) element.  Callables that give
    one row of values per field of a stack give a list of (L2, Linf), one
    per field, each reduced as for a single field.
    """
    (points, grid, rad), = _layouts(mesh, [tuple(_sigma_exact(mesh, x) for x in region)])
    # C order, so that each field's rows reach BLAS as one field's would
    err = np.ascontiguousarray(np.asarray(approx(points)) - np.asarray(exact(points)))
    norms = _norms(err, grid, rad)
    return norms if err.ndim > 1 else norms[0]


# ---------------------------------------------------------------------------
# the experiment driver


def _measured_regions(n: int, config: RunConfig):
    """(filter, region name, spec, measured region, blend overlap) per output on n elements.

    Regions and overlaps are exact sigma-intervals (module docstring) that
    depend on n alone, so a mesh too coarse for one fails before it is stepped.
    """
    strip = 2 if config.blend else 0
    interior = cache(lambda: psiac.interior_region(config.d, n))
    for name in config.filters:
        if name == "dg":
            yield name, "full", None, (0, n), None
        elif name == "symmetric":
            lo, hi = interior()
            if not hi - lo > 2 * strip:
                raise psiac.MeshTooCoarseError("no interior region left at this mesh size")
            yield name, "interior", None, (lo + strip, hi - strip), None
        else:
            for side in ("left", "right"):
                spec = build_spec(name, config.d, side)
                _, _, (lo, hi) = psiac.window_placement(spec, n)
                if spec.side == "left":
                    region, overlap = (lo, hi + strip), (hi, hi + strip)
                else:
                    region, overlap = (lo - strip, hi), (lo, lo - strip)
                if config.blend:
                    (ilo, ihi), (slo, shi) = interior(), sorted(overlap)
                    if not ilo <= slo <= shi <= ihi:
                        raise psiac.MeshTooCoarseError(
                            f"the {name} blend strip [{slo}, {shi}] (in elements) leaves the "
                            f"interior output [{ilo}, {ihi}] at this mesh size")
                yield name, spec.side, spec, region, overlap if config.blend else None


def _run_norms(series: list[dg.DGField], regions: list[list], layouts: list[list], exact):
    """{(filter, region name): [(L2, Linf) per time] per mesh} of a run's time series, the
    stacked fields of coeffs (times, n, d + 1) of its meshes, sampled at their layouts:
    one `filter_boundary` call per boundary spec and one `sample` call for every
    boundary output of the run, then the rest mesh by mesh (`_mesh_norms`)."""
    interiors = [cache(partial(psiac.filter_interior, s)) for s in series]  # built if used
    outputs = [sorted(zip(r, lay), key=lambda out: out[0][2] is None)  # boundary first
               for r, lay in zip(regions, layouts)]
    specs = [spec for _, _, spec, _, _ in regions[0] if spec]
    boundary = [np.empty(series[0].time.shape + (0,))] * len(series)
    if specs:
        polys = [poly for per_mesh in zip(*(psiac.filter_boundary(series, spec) for spec in specs))
                 for poly in per_mesh]
        points, owner, overlaps = zip(*(
            (x, i, overlap and [s.mesh.a + float(e) * s.mesh.h for e in overlap])
            for i, (s, outs) in enumerate(zip(series, outputs))
            for (*_, overlap), (x, _, _) in outs[:len(specs)]))
        blend = ([interiors[i]() for i in owner], overlaps, BLEND_RHO) if overlaps[0] else None
        sizes = [sum(len(x) for x, j in zip(points, owner) if j == i) for i in range(len(series))]
        boundary = np.split(psiac.sample(polys, points, blend), np.cumsum(sizes[:-1]), axis=-1)
    norms: dict[tuple[str, str], list] = {}
    for s, outs, values, interior in zip(series, outputs, boundary, interiors):
        for name, region, pairs in _mesh_norms(s, outs, values, interior, exact):
            norms.setdefault((name, region), []).append(pairs)
    return norms


def _mesh_norms(series: dg.DGField, outputs: list[tuple], boundary: np.ndarray, interior, exact):
    """(filter, region name, (L2, Linf) per time) per output of one mesh, boundary outputs
    first, their values given: the other outputs are sampled, and every error reduced."""
    points = [x for _, (x, _, _) in outputs]
    values = [boundary] + [series.evaluate(x) if name == "dg" else interior()(x)
                           for ((name, _, spec, *_), _), x in zip(outputs, points) if spec is None]
    err = np.concatenate(values, axis=-1)
    err -= exact(np.concatenate(points))  # in place: one (times, points) array fewer at once
    parts = np.split(err, np.cumsum([len(x) for x in points[:-1]]), axis=-1)
    for ((name, region, *_), (_, grid, rad)), part in zip(outputs, parts):
        yield name, region, _norms(part, grid, rad)


def time_series_experiment(config: RunConfig) -> tuple[list[Record], list[Record]]:
    """Solve/filter/measure over all (N, T) pairs and compute rate series.

    Every mesh is laid out first, then all are stepped by one `dg.advance` call into one
    stacked field per mesh, and the run's stacks are measured together (`_run_norms`).
    Records come out in CSV order, (problem, d, filter, region, norm, N, T); rates pair
    consecutive meshes.
    """
    problem = dg.get_problem(config.problem)
    times = np.array(config.final_times)
    exact = lambda xs: problem.exact(xs, times[:, None])
    meshes = [dg.Mesh(problem.a, problem.b, n) for n in config.mesh_sizes]
    regions = [list(_measured_regions(n, config)) for n in config.mesh_sizes]
    layouts = [_layouts(mesh, [region[3] for region in r]) for mesh, r in zip(meshes, regions)]
    series = dg.advance([dg.l2_project(problem.u0, mesh, config.d) for mesh in meshes],
                        problem, config.final_times, config.cfl)
    errors, rates = [], []
    ts, ns = times.tolist(), config.mesh_sizes
    for (name, region), per_mesh in sorted(_run_norms(series, regions, layouts, exact).items()):
        for k, norm in enumerate(("L2", "Linf")):
            head = (config.problem, config.d, name, region, norm)
            errors += [Record(*head, n, t, pair[k], "error")
                       for n, pairs in zip(ns, per_mesh) for t, pair in zip(ts, pairs)]
            rates += [Record(*head, n, t, convergence_rate(c[k], f[k]), "rate")
                      for n, coarse, fine in zip(ns[1:], per_mesh, per_mesh[1:])
                      for t, c, f in zip(ts, coarse, fine) if c[k] > 0 and f[k] > 0]
    return errors, rates


# ---------------------------------------------------------------------------
# CSV I/O


CSV_HEADER = ("problem", "d", "filter", "region", "norm", "N", "T", "value", "kind")


def write_csv(records: Iterable[Record], path) -> None:
    """Long-format CSV, floats at 17 significant digits, overwrite semantics.

    Rows are streamed as formatted lines with CRLF ends, as ``csv.writer`` writes
    them: no field needs quoting, as names, regions, norms and kinds are fixed words.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        fh.writelines(f"{r.problem},{r.d},{r.filter},{r.region},{r.norm},{r.n},"
                      f"{r.t:.17g},{r.value:.17g},{r.kind}\r\n" for r in records)

