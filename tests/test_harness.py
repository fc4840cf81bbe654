import csv
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import numpy as np
import pytest

from siacpost import UsageError, dg, harness, psiac
from siacpost.filters import build_spec
from siacpost.harness import (EmptyRegionError, NonpositiveError, Record, RunConfig,
                              RunConfigError, convergence_rate, region_norms,
                              time_series_experiment, write_csv)


def flat_mesh(n=10):
    return dg.Mesh(0.0, 1.0 * n, n)  # h = 1


def test_region_norms_zero_error():
    mesh = flat_mesh()
    f = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    l2, linf = region_norms(f, f, mesh, (0.0, 3.0))
    assert l2 == 0.0 and linf == 0.0


def test_region_norms_constant_error():
    mesh = flat_mesh()
    c, length = 0.7, 4.0
    approx = lambda x: np.full_like(np.asarray(x, dtype=float), c)
    exact = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    l2, linf = region_norms(approx, exact, mesh, (1.0, 1.0 + length))
    assert linf == pytest.approx(c)
    assert l2 == pytest.approx(c * np.sqrt(length), rel=1e-14)


def test_region_norms_linear_error():
    mesh = dg.Mesh(0.0, 1.0, 1)
    approx = lambda x: np.asarray(x, dtype=float)
    exact = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    l2, linf = region_norms(approx, exact, mesh, (0.0, 1.0))
    assert linf == pytest.approx(1.0)          # endpoint-inclusive grid
    assert l2 == pytest.approx(1 / np.sqrt(3), rel=1e-14)


def test_region_norms_partial_elements():
    mesh = flat_mesh()
    approx = lambda x: np.full_like(np.asarray(x, dtype=float), 2.0)
    exact = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    l2, _ = region_norms(approx, exact, mesh, (0.5, 3.0))
    assert l2 == pytest.approx(2.0 * np.sqrt(2.5), rel=1e-12)


def test_empty_region():
    with pytest.raises(EmptyRegionError):
        region_norms(lambda x: x, lambda x: x, flat_mesh(), (2.0, 2.0))


def test_convergence_rate_examples():
    assert convergence_rate(0.4, 0.1) == pytest.approx(2.0)
    assert convergence_rate(8e-3, 1e-3) == pytest.approx(3.0)
    with pytest.raises(NonpositiveError):
        convergence_rate(0.0, 1e-3)


def test_convergence_rate_synthetic_exact():
    for p in (1.0, 2.5, 7.0):
        c = 3.7
        assert convergence_rate(c * 0.1 ** p, c * 0.05 ** p) == pytest.approx(p, abs=1e-12)


def test_runconfig_validates_doubling():
    with pytest.raises(ValueError):
        RunConfig(problem="tp1", d=1, filters=("dg",), mesh_sizes=(20, 50),
                  final_times=(1.0,))


def test_runconfig_normalizes_names():
    cfg = RunConfig(problem=" TP1", d=1, filters=("DG-raw", "symm", "S_R_V", "NP0"),
                    mesh_sizes=(20, 40), final_times=(0.5, 0.0))
    assert cfg.problem == "tp1"
    assert cfg.filters == ("dg", "symmetric", "srv", "np0")
    assert cfg.final_times == (0.0, 0.5)


def test_runconfig_rejects_no_mesh_sizes():
    """No mesh is a usage error (exit code 2), not a run that returns no rows."""
    with pytest.raises(RunConfigError, match="mesh sizes must be a nonempty list"):
        RunConfig(problem="tp1", d=1, filters=("dg",), mesh_sizes=(), final_times=(1.0,))


def test_runconfig_rejects_unknown_filter():
    with pytest.raises(RunConfigError, match="np0"):
        RunConfig(problem="tp1", d=1, filters=("npk",), mesh_sizes=(20,),
                  final_times=(1.0,))


@pytest.mark.parametrize("t", (-1.0, float("nan")))
def test_runconfig_rejects_negative_time(t):
    with pytest.raises(RunConfigError):
        RunConfig(problem="tp1", d=1, filters=("dg",), mesh_sizes=(20,),
                  final_times=(0.5, t))


@pytest.mark.parametrize("change", [
    dict(problem="tp9"), dict(mesh_sizes=(0,)), dict(mesh_sizes=(-4,)),
    dict(final_times=(float("inf"),)), dict(cfl=10.0),
    dict(filters=()), dict(final_times=()), dict(filters=("dg", "raw")),
    dict(filters=("np0", " NP0")), dict(filters=("srv", "S_R_V")),
    dict(final_times=(0.5, 0.25, 0.5)),
], ids=str)
def test_runconfig_rejects_bad_settings(change):
    settings = dict(problem="tp1", d=1, filters=("dg", "np0"), mesh_sizes=(20,),
                    final_times=(0.5,)) | change
    with pytest.raises(UsageError):
        RunConfig(**settings)


@pytest.fixture(scope="module")
def small_run():
    cfg = RunConfig(problem="tp1", d=1, filters=("dg", "symmetric", "np0"),
                    mesh_sizes=(20, 40), final_times=(0.0,))
    return cfg, time_series_experiment(cfg)


def test_time_zero_errors_match_direct_measurement(small_run):
    cfg, (errors, rates) = small_run
    tp1 = dg.get_problem("tp1")
    mesh = dg.Mesh(0.0, 1.0, 20)
    field = dg.l2_project(tp1.u0, mesh, 1)
    l2, linf = region_norms(field.evaluate, lambda x: tp1.exact(x, 0.0), mesh,
                            (0.0, 1.0))
    rec = [r for r in errors if r.filter == "dg" and r.n == 20 and r.norm == "L2"]
    assert len(rec) == 1
    assert rec[0].value == pytest.approx(l2, rel=1e-12)


def test_record_region_discipline(small_run):
    _, (errors, _) = small_run
    by_filter = {}
    for r in errors:
        by_filter.setdefault(r.filter, set()).add(r.region)
    assert by_filter["dg"] == {"full"}
    assert by_filter["symmetric"] == {"interior"}
    assert by_filter["np0"] == {"left", "right"}


def test_records_carry_their_kind(small_run):
    _, (errors, rates) = small_run
    assert errors and rates
    assert {r.kind for r in errors} == {"error"} and {r.kind for r in rates} == {"rate"}


def blended(output, interior, overlap):
    """The output joined to the interior across overlap by its own `sample` blend, of the
    harness's order."""
    return lambda x: output(x, ([interior], [overlap], harness.BLEND_RHO))


def own_evaluators(series, cfg):
    """{(filter, region): (evaluator, measured region in exact sigma, its physical ends)}
    of a mesh's series: each output's own evaluator, the one-output case of the harness's
    pass (`filter_boundary`, blended by its own `sample` blend across its overlap)."""
    mesh = series.mesh
    interior = psiac.filter_interior(series)
    physical = lambda s: mesh.a + float(s) * mesh.h
    out = {}
    for name, region, spec, span, overlap in harness._measured_regions(mesh.n, cfg):
        if name == "dg":
            approx = series.evaluate
        elif name == "symmetric":
            approx = interior
        else:
            approx = psiac.filter_boundary(series, spec)
            if overlap:
                approx = blended(approx, interior, tuple(map(physical, overlap)))
        out[(name, region)] = approx, span, tuple(map(physical, span))
    return out


def field_outputs(field, cfg):
    """{(filter, region): (evaluator, measured region in exact sigma)} of one field."""
    return {key: (approx, span) for key, (approx, span, _) in own_evaluators(field, cfg).items()}


@pytest.mark.parametrize("blend", (True, False), ids=("blend", "noblend"))
@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("family", ("srv", "rlkv", "np0", "rs"))
def test_region_partition_covers_domain(family, d, blend, monkeypatch):
    """Each region is the old closed form, written out here, for the spec of its own side:
    [0, lam + s], [N - lam - s, N] and [mu + s, N - mu - s], s the blend strip,
    with blend overlaps (lam, lam + 2) and (N - lam, N - lam - 2), on both meshes of a
    run (N = 40, 80) whose one boundary pass blends them all."""
    n, s = 40, 2 if blend else 0
    calls = []

    def recording_values(polys, points, blend=None):
        if len(polys) > 1:  # the boundary pass; one output is an interior's own call
            calls.append(blend[1] if blend else [])
        return sample(polys, points, blend)

    sample = psiac.sample
    monkeypatch.setattr(psiac, "sample", recording_values)
    tp2 = dg.get_problem("tp2")
    cfg = RunConfig(problem="tp2", d=d, filters=("dg", "symmetric", family),
                    mesh_sizes=(n, 2 * n), final_times=(0.0,), blend=blend)
    time_series_experiment(cfg)  # the harness's own pass records the overlaps it blends
    overlaps, = calls
    lam_left = build_spec(family, d, "left").lam
    lam_right = build_spec(family, d, "right").lam
    mu = Fraction(3 * d + 1, 2)
    sigma, want = [], []
    for m, pair in zip((n, 2 * n), (overlaps[:2], overlaps[2:])):
        regions = {(name, region): span
                   for name, region, _, span, _ in harness._measured_regions(m, cfg)}
        assert regions == {("dg", "full"): (0, m),
                           ("symmetric", "interior"): (mu + s, m - mu - s),
                           (family, "left"): (0, lam_left + s),
                           (family, "right"): (m - lam_right - s, m)}
        mesh = dg.Mesh(tp2.a, tp2.b, m)
        sigma += [tuple(harness._sigma_exact(mesh, x) for x in overlap) for overlap in pair]
        want += [(lam_left, lam_left + 2), (m - lam_right, m - lam_right - 2)] if blend else []
    assert sigma == want and len(overlaps) == len(want)


def test_rates_present_and_reasonable():
    cfg = RunConfig(problem="tp1", d=1, filters=("np0",), mesh_sizes=(20, 40),
                    final_times=(1.0,), blend=False)
    errors, rates = time_series_experiment(cfg)
    got = {(r.region, r.norm): r.value for r in rates}
    assert set(got) == {("left", "L2"), ("left", "Linf"),
                        ("right", "L2"), ("right", "Linf")}
    for v in got.values():
        assert v > 2.0  # superconvergent already on coarse pair


def read_csv(path) -> list[Record]:
    """Inverse of write_csv."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == harness.CSV_HEADER
    return [Record(problem=row[0], d=int(row[1]), filter=row[2], region=row[3], norm=row[4],
                   n=int(row[5]), t=float(row[6]), value=float(row[7]), kind=row[8])
            for row in rows[1:]]


def test_csv_round_trip(tmp_path):
    recs = [Record("tp1", 1, "np0", "left", "L2", 20, 0.5, 1.234e-5, "error"),
            Record("tp1", 1, "np0", "left", "L2", 40, 0.5, 2.987654321098765, "rate")]
    path = tmp_path / "out.csv"
    write_csv(recs, path)
    assert read_csv(path) == recs


def test_records_are_slotted_frozen_values():
    """A Record has slots and no __dict__, and stays a frozen value: equal and hashed by
    its fields, copied by `replace`, its fields in CSV order."""
    rec = Record("tp2", 3, "srv", "left", "L2", 40, 0.25, 1e-9, "error")
    assert not hasattr(rec, "__dict__") and Record.__slots__
    with pytest.raises(FrozenInstanceError):
        rec.value = 2.0
    twin = Record("tp2", 3, "srv", "left", "L2", 40, 0.25, 1e-9, "error")
    assert rec == twin and hash(rec) == hash(twin) and len({rec, twin}) == 1
    rate = replace(rec, value=4.5, kind="rate")
    assert (rate.value, rate.kind, rate.n) == (4.5, "rate", 40) and rate != rec
    assert [f.name for f in fields(Record)] == \
        ["problem", "d", "filter", "region", "norm", "n", "t", "value", "kind"]


def test_csv_empty_and_single(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path)
    assert path.read_text().strip() == ",".join(harness.CSV_HEADER)
    write_csv([Record("tp1", 1, "dg", "full", "Linf", 20, 0.0, 0.25, "error")], path)
    assert len(path.read_text().strip().splitlines()) == 2


def test_csv_bytes_match_csv_writer(tmp_path):
    """write_csv writes, byte for byte, what csv.writer writes for the same rows (CRLF
    ends, no quoting), on values whose 17-digit forms are the hardest to get right."""
    values = [-0.0, 5e-324, 1e308, 0.1, 2 / 3, -1.2345678901234567e-15, float("inf")]
    recs = [Record("tp2", 3, "srv", "left", "Linf", 160, t, v, "rate" if i % 2 else "error")
            for i, (t, v) in enumerate(zip(values[::-1], values))]
    path, want = tmp_path / "out.csv", tmp_path / "want.csv"
    write_csv(recs, path)
    with open(want, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(harness.CSV_HEADER)
        w.writerows([r.problem, r.d, r.filter, r.region, r.norm, r.n, f"{r.t:.17g}",
                     f"{r.value:.17g}", r.kind] for r in recs)
    assert path.read_bytes() == want.read_bytes()
    assert path.read_bytes().count(b"\r\n") == len(recs) + 1
    write_csv(iter(recs), path)  # a one-pass iterable
    assert path.read_bytes() == want.read_bytes()


def test_determinism_byte_identical(tmp_path, small_run):
    cfg, first = small_run
    second = time_series_experiment(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(list(first[0]) + list(first[1]), p1)
    write_csv(list(second[0]) + list(second[1]), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_deterministic_row_ordering(small_run):
    _, (errors, _) = small_run
    keys = [(r.problem, r.d, r.filter, r.region, r.norm, r.n, r.t) for r in errors]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# the batched sampler against the per-point rule it replaced


def _fraction_pieces(region):
    """Split a sigma-interval at element boundaries, as exact (lo, hi) pairs."""
    lo, hi = Fraction(region[0]), Fraction(region[1])
    pieces = []
    while lo < hi:
        pieces.append((lo, min(Fraction(int(lo) + 1), hi)))
        lo = pieces[-1][1]
    return pieces


def _pointwise_region_norms(approx, exact, mesh, region, spe):
    """One approx/exact call per piece for the L2 nodes."""
    pieces = _fraction_pieces((harness._sigma_exact(mesh, region[0]),
                               harness._sigma_exact(mesh, region[1])))
    xs = np.array([float(lo) + float(hi - lo) * s / (spe - 1)
                   for lo, hi in pieces for s in range(spe)])
    xs = mesh.a + xs * mesh.h
    linf = float(np.max(np.abs(approx(xs) - exact(xs))))
    gx, gw = np.polynomial.legendre.leggauss(spe)
    total = 0.0
    for lo, hi in pieces:
        mid = mesh.a + float(lo + hi) / 2 * mesh.h
        rad = float(hi - lo) / 2 * mesh.h
        nodes = mid + rad * gx
        err = approx(nodes) - exact(nodes)
        total += rad * float(np.dot(gw, err ** 2))
    return float(np.sqrt(total)), linf


def _pointwise_value_fn(field, cfg, name, side):
    """Scalar (element, frac) evaluator, blend included, one point per call."""
    mesh = field.mesh

    def symmetric(e, frac):
        return psiac.symmetric_filter_eval_local(field, e, frac)

    if name == "symmetric":
        return symmetric
    spec = build_spec(name, cfg.d, side)
    poly = psiac.filter_boundary(field, spec)
    lam, n = spec.lam, mesh.n

    def value(e, frac):
        sigma = e + float(frac)
        x = mesh.a + sigma * mesh.h
        z = (sigma - float(lam)) / 2.0 if side == "left" else (float(n - lam) - sigma) / 2.0
        if not cfg.blend or z <= 0.0:
            return float(poly(x))
        beta = psiac.blend_weight(min(z, 1.0), harness.BLEND_RHO)
        return float((1 - beta) * poly(x) + beta * symmetric(e, frac))

    return value


def _pointwise_norms(field, exact, region, value_fn, spe):
    """The per-point sampler: one evaluation per (piece, sample node)."""
    mesh = field.mesh
    gx, gw = np.polynomial.legendre.leggauss(spe)
    sq_total, linf = 0.0, 0.0
    for lo, hi in _fraction_pieces(region):
        width = hi - lo
        e = min(int(lo), mesh.n - 1)
        for s in range(spe):
            frac = lo - e + width * Fraction(s, spe - 1)
            x = mesh.a + (e + float(frac)) * mesh.h
            linf = max(linf, abs(value_fn(e, frac) - float(exact(x))))
        flo, fw = float(lo - e), float(width)
        rad = fw / 2 * mesh.h
        for q in range(spe):
            frac = flo + fw * (float(gx[q]) + 1.0) / 2.0
            x = mesh.a + (e + frac) * mesh.h
            err = value_fn(e, frac) - float(exact(x))
            sq_total += rad * float(gw[q]) * err * err
    return float(np.sqrt(sq_total)), linf


def _pointwise_records(field, cfg, exact, name):
    """{region: (L2, Linf)}, each region derived here from lam, mu and the strip."""
    spe, n, strip = harness.SAMPLES_PER_ELEMENT, field.mesh.n, 2 if cfg.blend else 0
    if name == "dg":
        return {"full": _pointwise_region_norms(field.evaluate, exact, field.mesh,
                                                (field.mesh.a, field.mesh.b), spe)}
    if name == "symmetric":
        pad = Fraction(3 * cfg.d + 1, 2) + strip
        return {"interior": _pointwise_norms(field, exact, (pad, n - pad),
                                             _pointwise_value_fn(field, cfg, name, None), spe)}
    lam = {side: build_spec(name, cfg.d, side).lam + strip for side in ("left", "right")}
    regions = {"left": (Fraction(0), lam["left"]), "right": (n - lam["right"], Fraction(n))}
    return {side: _pointwise_norms(field, exact, regions[side],
                                   _pointwise_value_fn(field, cfg, name, side), spe)
            for side in ("left", "right")}


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("n", (20, 40))
def test_batched_sampler_matches_pointwise(d, n):
    """Every error agrees with the per-point rule within summation-order roundoff."""
    filters_ = ("dg", "symmetric", "srv", "rlkv", "np0")
    cfg = RunConfig(problem="tp2", d=d, filters=filters_, mesh_sizes=(n,),
                    final_times=(0.3,))
    tp2 = dg.get_problem("tp2")
    field = dg.dg_solve(tp2, dg.Mesh(tp2.a, tp2.b, n), d, 0.3)
    exact = lambda x: tp2.exact(np.asarray(x, dtype=float), field.time)
    want = {(name, region): norms for name in filters_
            for region, norms in _pointwise_records(field, cfg, exact, name).items()}
    errors, _ = time_series_experiment(cfg)
    assert len(errors) == 2 * len(want)
    for rec in errors:
        ref = want[(rec.filter, rec.region)][0 if rec.norm == "L2" else 1]
        assert abs(rec.value - ref) <= 1e-15 + 1e-12 * abs(ref), rec


def test_right_strip_blend():
    """In the right strip the output is (1 - beta) poly + beta symmetric, with
    beta mirrored: 1 at the strip's interior edge, 0 at the boundary region."""
    d, n = 2, 24
    cfg = RunConfig(problem="tp2", d=d, filters=("np0",), mesh_sizes=(n,),
                    final_times=(0.3,))
    tp2 = dg.get_problem("tp2")
    field = dg.dg_solve(tp2, dg.Mesh(tp2.a, tp2.b, n), d, 0.3)
    values, region = field_outputs(field, cfg)[("np0", "right")]
    spec = build_spec("np0", d, "right")
    poly = psiac.filter_boundary(field, spec)
    edge = n - spec.lam  # where the boundary region proper starts
    assert region[0] == edge - 2
    mesh = field.mesh
    for t in (Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        sigma = edge - 2 + 2 * t
        x = mesh.a + float(sigma) * mesh.h
        got = values(np.array([x]))[0]
        beta = psiac.blend_weight(float(1 - t), harness.BLEND_RHO)
        sym = psiac.symmetric_filter_eval(field, x)
        assert got == pytest.approx((1 - beta) * poly(x) + beta * sym, abs=1e-13)
        if t == 0:
            assert got == pytest.approx(sym, abs=1e-13)
        if t == 1:
            assert got == poly(x)


# ---------------------------------------------------------------------------
# every boundary family against the brute-force convolution


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("family", ("srv", "rlkv", "np0", "rs"))
def test_boundary_output_matches_reference_convolution(family, d):
    """At a seeded random point of each boundary region and of each blend strip:
    without blending the output is the reference convolution of the boundary
    kernel; with blending it is the same at the first point and mixes the
    boundary and symmetric references with weight beta in the strip."""
    n = 24
    tp2 = dg.get_problem("tp2")
    field = dg.dg_solve(tp2, dg.Mesh(tp2.a, tp2.b, n), d, 0.3)
    mesh = field.mesh
    rng = np.random.default_rng(10 * d + len(family))
    outputs = {blend: field_outputs(field, RunConfig(
                   problem="tp2", d=d, filters=(family,), mesh_sizes=(n,),
                   final_times=(0.3,), blend=blend))
               for blend in (False, True)}
    sym = psiac.symmetric_kernel_at(d, mesh.h)
    for side in ("left", "right"):
        spec = build_spec(family, d, side)
        off, on = (outputs[b][(family, side)][0] for b in (False, True))
        lam = float(spec.lam)
        u_region, u_strip = rng.random(2)
        for depth, beta in ((lam * u_region, 0.0),
                            (lam + 2 * u_strip, psiac.blend_weight(u_strip, harness.BLEND_RHO))):
            x = mesh.a + (depth if side == "left" else n - depth) * mesh.h
            ref = psiac.reference_convolve(psiac.psiac_kernel_at(spec, mesh, x), field, x)
            tol = 1e-10 * max(1.0, abs(ref))
            assert abs(off(x) - ref) < tol, (side, depth)
            if beta == 0.0:
                assert on(x) == off(x)
            else:
                want = (1 - beta) * ref + beta * psiac.reference_convolve(sym, field, x)
                assert abs(on(x) - want) < tol, (side, depth)


@pytest.mark.parametrize("d", (1, 2, 3, 4))
@pytest.mark.parametrize("problem", ("tp1", "tp2"))
def test_sampled_values_match_reference_convolution(problem, d, monkeypatch):
    """The values the run's sampling pass takes (its error arrays, the exact solution set
    to zero) at seeded points of every boundary region off and on its blend strip, and of
    the interior, at two times: each is the reference convolution of its kernel, and on a
    strip the boundary and symmetric references blended by the pass's weight, within the
    benchmark worker's rule (1e-9 relative, 1e-11 absolute).  srv, rlkv, np0 and rs, both
    sides, blend on."""
    n = 20 if d < 4 else 24
    cfg = RunConfig(problem=problem, d=d, filters=harness.FILTER_NAMES, mesh_sizes=(n,),
                    final_times=(0.25, 0.6))
    fields, series = stepped(cfg, n)
    regions, layouts = laid_out(cfg, [series])
    monkeypatch.setattr(harness, "_norms", lambda err, grid, rad: err)  # the values as taken
    values = harness._run_norms([series], regions, layouts, lambda x: np.zeros((2, len(x))))
    mesh, rng = series.mesh, np.random.default_rng(10 * d + len(problem))
    sym = psiac.symmetric_kernel_at(d, mesh.h)
    physical = lambda s: mesh.a + float(s) * mesh.h
    strips = 0
    for (name, region, spec, _, overlap), (xs, _, _) in zip(regions[0], layouts[0]):
        if name == "dg":
            continue
        (got,) = values[(name, region)]
        beta = np.zeros(len(xs))
        if spec is not None:
            a1, a2 = map(physical, overlap)
            beta = psiac.blend_weight(np.clip((xs - a1) / (a2 - a1), 0.0, 1.0), harness.BLEND_RHO)
        on, off = np.flatnonzero(beta > 0), np.flatnonzero(beta == 0)
        picks = list(rng.choice(off, 3, replace=False))
        if spec is not None:
            picks += list(rng.choice(on, 3, replace=False))
            strips += 3
        for i in picks:
            x = xs[i]
            for field, value in zip(fields, got[:, i]):
                ref = (psiac.reference_convolve(sym, field, x) if spec is None or beta[i] > 0
                       else 0.0)
                if spec is not None:
                    own = psiac.reference_convolve(psiac.psiac_kernel_at(spec, mesh, x), field, x)
                    ref = (1 - beta[i]) * own + beta[i] * ref if beta[i] > 0 else own
                assert abs(value - ref) <= max(1e-11, 1e-9 * abs(ref)), (name, region, x)
    assert strips == 3 * 8


# ---------------------------------------------------------------------------
# one batched pass per mesh against the per-field evaluators


def _per_field_norms(field, cfg, name, side):
    """(L2, Linf) of one output of one field: its own evaluators through region_norms,
    on the region written out from lam, mu and the strip."""
    mesh, strip = field.mesh, 2 if cfg.blend else 0
    n = mesh.n
    physical = lambda s: mesh.a + float(s) * mesh.h
    exact = lambda x: dg.get_problem(cfg.problem).exact(x, field.time)
    if name == "dg":
        return region_norms(field.evaluate, exact, mesh, (physical(0), physical(n)))
    mu = Fraction(3 * cfg.d + 1, 2)
    if name == "symmetric":
        span = (physical(mu + strip), physical(n - mu - strip))
        return region_norms(psiac.filter_interior(field), exact, mesh, span)
    spec = build_spec(name, cfg.d, side)
    approx = psiac.filter_boundary(field, spec)
    edge = spec.lam if side == "left" else n - spec.lam
    if cfg.blend:
        inward = 2 if side == "left" else -2
        approx = blended(approx, psiac.filter_interior(field),
                         (physical(edge), physical(edge + inward)))
    span = (0, edge + strip) if side == "left" else (edge - strip, n)
    return region_norms(approx, exact, mesh, tuple(map(physical, span)))


@pytest.mark.parametrize("blend", (True, False), ids=("blend", "noblend"))
@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_batched_records_match_per_field_evaluators(d, blend):
    """Every error row of the batched pass is, bit for bit, what the single-field
    evaluators give through region_norms for that field: every runnable family,
    both sides, blend on and off."""
    times = (0.0, 0.15, 0.3)
    cfg = RunConfig(problem="tp2", d=d, filters=harness.FILTER_NAMES, mesh_sizes=(24,),
                    final_times=times, blend=blend)
    errors, _ = time_series_experiment(cfg)
    tp2 = dg.get_problem("tp2")
    field = dg.l2_project(tp2.u0, dg.Mesh(tp2.a, tp2.b, 24), d)
    want = {}
    for t in times:
        field = dg.advance(field, tp2, t)
        for name in cfg.filters:
            sides = ("left", "right") if name not in ("dg", "symmetric") else (None,)
            for side in sides:
                region = side or ("full" if name == "dg" else "interior")
                l2, linf = _per_field_norms(field, cfg, name, side)
                want[(name, region, "L2", t)], want[(name, region, "Linf", t)] = l2, linf
    got = {(r.filter, r.region, r.norm, r.t): r.value for r in errors}
    assert got == want


def stepped(cfg, n):
    """(the fields at each final time, their stacked series) of cfg's problem on n elements."""
    problem = dg.get_problem(cfg.problem)
    field, fields = dg.l2_project(problem.u0, dg.Mesh(problem.a, problem.b, n), cfg.d), []
    for t in cfg.final_times:
        field = dg.advance(field, problem, t)
        fields.append(field)
    return fields, replace(field, coeffs=np.stack([f.coeffs for f in fields]),
                           time=np.array(cfg.final_times))


def laid_out(cfg, series):
    """(regions, layouts) of the harness for each series of a run."""
    regions = [list(harness._measured_regions(s.mesh.n, cfg)) for s in series]
    return regions, [harness._layouts(s.mesh, [region[3] for region in r])
                     for s, r in zip(series, regions)]


def test_stacked_boundary_output_matches_per_field_filtering():
    """The harness filters each boundary spec once on the stacked Legendre fields of every
    mesh's times, and evaluates all of the run's boundary outputs in one
    `psiac.sample` call: its polynomials are byte for byte the stack of per-field
    filter_boundary outputs of their own mesh, and its blended values on the measured
    regions those of each stacked polynomial's own blend with its own mesh's
    interior; the raw and interior outputs are those of each field alone (tp2, d=3,
    N = 20 and 40, blend on)."""
    cfg = RunConfig(problem="tp2", d=3,
                    filters=("dg", "symmetric", "srv", "rlkv", "np0", "rs"),
                    mesh_sizes=(20, 40), final_times=(0.1, 0.35, 0.6, 0.9))
    stack = lambda outs: replace(outs[0], coeffs=np.stack([o.coeffs for o in outs]))
    runs = [stepped(cfg, n) for n in cfg.mesh_sizes]
    series = [s for _, s in runs]
    regions, layouts = laid_out(cfg, series)
    calls, sample = [], psiac.sample

    def record(*args):  # the boundary pass; one output is an interior's own call
        values = sample(*args)
        if len(args[0]) > 1:
            calls.append((args, values))
        return values

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(psiac, "sample", record)
        harness._run_norms(series, regions, layouts, lambda x: np.zeros((4, len(x))))
    ((polys, points, _), values), = calls
    values = np.split(values, np.cumsum([len(x) for x in points[:-1]]), axis=-1)
    boundary = [(fields, region, layout) for (fields, _), r, lay in zip(runs, regions, layouts)
                for region, layout in zip(r, lay) if region[2]]
    assert len(boundary) == len(polys) == 16
    for (fields, (name, side, spec, _, overlap), (xs, _, _)), poly, x, got in \
            zip(boundary, polys, points, values):
        assert x is xs
        mesh = fields[0].mesh
        per_field = stack([psiac.filter_boundary(f, spec) for f in fields])
        assert poly.coeffs.tobytes() == per_field.coeffs.tobytes()
        assert (poly.start, poly.width, poly.region, poly.checked) == \
            (per_field.start, per_field.width, per_field.region, per_field.checked)
        interior = stack([psiac.filter_interior(f) for f in fields])
        physical = lambda s: mesh.a + float(s) * mesh.h
        want = blended(per_field, interior, tuple(map(physical, overlap)))(xs)
        assert got.tobytes() == want.tobytes(), (name, side, mesh.n)
    for (fields, s), r, lay in zip(runs, regions, layouts):
        interior = stack([psiac.filter_interior(f) for f in fields])
        for (name, _, spec, _, _), (xs, _, _) in zip(r, lay):
            if name == "dg":
                want = np.stack([f.evaluate(xs) for f in fields])
                assert s.evaluate(xs).tobytes() == want.tobytes()
            elif name == "symmetric":
                assert psiac.filter_interior(s)(xs).tobytes() == interior(xs).tobytes()


@pytest.mark.parametrize("times", (1, 8))
@pytest.mark.parametrize("blend", (True, False), ids=("blend", "noblend"))
@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_stacked_pass_is_per_output_region_norms(d, blend, times):
    """The run's one sampling pass over several meshes (N = 20, 40, 80; 24, 48, 96 at d = 4,
    where the srv window spans 21 elements) gives, byte for byte, the (L2, Linf) per time
    that region_norms gives for each output of each mesh alone, through that output's own
    evaluator on the mesh's stack: every runnable family (rs included), both sides, blend
    on and off, a 1-time and an 8-time stack (the half-element regions come at even d)."""
    final_times = tuple(np.linspace(0.0, 0.7, times)) if times > 1 else (0.4,)
    cfg = RunConfig(problem="tp2", d=d, filters=harness.FILTER_NAMES,
                    mesh_sizes=(20, 40, 80) if d < 4 else (24, 48, 96),
                    final_times=final_times, blend=blend)
    tp2 = dg.get_problem("tp2")
    series = [stepped(cfg, n)[1] for n in cfg.mesh_sizes]
    exact = lambda x: tp2.exact(x, np.array(cfg.final_times)[:, None])
    got = harness._run_norms(series, *laid_out(cfg, series), exact)
    assert len(got) == 2 + 2 * 4 and all(len(per) == len(series) for per in got.values())
    for i, s in enumerate(series):
        own = own_evaluators(s, cfg)
        assert set(got) == set(own)
        if d % 2 == 0:
            assert any(Fraction(span[0]).denominator == 2 for _, span, _ in own.values())
        for key, (approx, _, span) in own.items():
            want = region_norms(approx, exact, s.mesh, span)
            assert len(want) == times
            assert np.array(got[key][i]).tobytes() == np.array(want).tobytes(), (key, s.mesh.n)


def test_stacked_region_norms_match_single_fields():
    """A stack of values in any memory order gives each field's single-field norms
    exactly: every field's L2 rows are reduced in C order, as one field's are."""
    mesh, region = dg.Mesh(0.0, 1.0, 160), (0.0, 1.0)
    rng = np.random.default_rng(7)
    count = 2 * 160 * harness.SAMPLES_PER_ELEMENT
    values = np.asfortranarray(rng.standard_normal((12, count)))
    zero = lambda x: np.zeros_like(x)
    stacked = region_norms(lambda x: values, zero, mesh, region)
    assert stacked == [region_norms(lambda x, row=row: row.copy(), zero, mesh, region)
                       for row in values]


@pytest.mark.parametrize("filters, d, n, message", [
    (("symmetric",), 3, 8, "no interior region left at 8 elements"),
    (("dg", "symmetric"), 1, 7, "no interior region left at this mesh size"),
    (("np0",), 3, 11, r"the np0 blend strip \[5, 7\] \(in elements\) leaves the interior "
                      r"output \[5, 6\] at this mesh size"),
    (("dg", "srv"), 3, 10, "kernel window spans 16 elements but the mesh has 10"),
])
def test_coarse_mesh_fails_before_stepping(filters, d, n, message, monkeypatch):
    """Regions depend on N alone: a mesh too coarse for one is refused before any
    of its RK4 steps, with the message of the output that does not fit."""
    calls = []
    advance = dg.advance
    monkeypatch.setattr(dg, "advance", lambda *args, **kw: calls.append(args) or advance(*args, **kw))
    cfg = RunConfig(problem="tp1", d=d, filters=filters, mesh_sizes=(n, 2 * n),
                    final_times=(0.1, 0.2))
    with pytest.raises(psiac.MeshTooCoarseError, match=f"^{message}$"):
        time_series_experiment(cfg)
    assert calls == []
