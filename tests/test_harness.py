import csv
from fractions import Fraction

import numpy as np
import pytest

from siacpost import UsageError, dg, harness, psiac
from siacpost.filters import build_spec
from siacpost.harness import (EmptyRegionError, ErrorRecord, NonpositiveError,
                              RateRecord, RunConfig, RunConfigError, convergence_rate,
                              region_norms, time_series_experiment, write_csv)


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
    cfg = RunConfig(problem="tp1", d=1, filters=("DG-raw", "Symmetric", "NP0"),
                    mesh_sizes=(20, 40), final_times=(0.5, 0.0))
    assert cfg.filters == ("dg", "symmetric", "np0")
    assert cfg.final_times == (0.0, 0.5)


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
    dict(final_times=(float("inf"),)), dict(samples_per_element=0),
    dict(samples_per_element=1), dict(blend_rho=0), dict(cfl=10.0),
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


def test_region_partition_covers_domain(small_run):
    cfg, _ = small_run
    tp1 = dg.get_problem("tp1")
    field = dg.l2_project(tp1.u0, dg.Mesh(0.0, 1.0, 20), 1)
    ctx = harness._FieldContext(field, tp1, cfg)
    spec = build_spec("np0", 1, "left")
    left = ctx.boundary_region(spec, "left")
    right = ctx.boundary_region(spec, "right")
    interior = ctx.interior_region()
    assert left[0] == 0 and right[1] == 20
    # the blend strips are counted with the boundary regions; together the
    # three regions tile the domain exactly
    assert left[1] == interior[0] and interior[1] == right[0]
    # without blending the strips vanish and the boundary regions shrink by 2h
    cfg_nb = RunConfig(problem="tp1", d=1, filters=("np0",), mesh_sizes=(20,),
                       final_times=(0.0,), blend=False)
    ctx_nb = harness._FieldContext(field, tp1, cfg_nb)
    assert ctx_nb.boundary_region(spec, "left")[1] == left[1] - 2
    assert ctx_nb.interior_region()[0] == interior[0] - 2


def test_rates_present_and_reasonable():
    cfg = RunConfig(problem="tp1", d=1, filters=("np0",), mesh_sizes=(20, 40),
                    final_times=(1.0,), blend=False)
    errors, rates = time_series_experiment(cfg)
    got = {(r.region, r.norm): r.value for r in rates}
    assert set(got) == {("left", "L2"), ("left", "Linf"),
                        ("right", "L2"), ("right", "Linf")}
    for v in got.values():
        assert v > 2.0  # superconvergent already on coarse pair


def read_csv(path) -> list[ErrorRecord | RateRecord]:
    """Inverse of write_csv."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == harness.CSV_HEADER
    return [(RateRecord if row[8] == "rate" else ErrorRecord)(
                problem=row[0], d=int(row[1]), filter=row[2], region=row[3], norm=row[4],
                n=int(row[5]), t=float(row[6]), value=float(row[7])) for row in rows[1:]]


def test_csv_round_trip(tmp_path):
    recs = [ErrorRecord("tp1", 1, "np0", "left", "L2", 20, 0.5, 1.234e-5),
            RateRecord("tp1", 1, "np0", "left", "L2", 40, 0.5, 2.987654321098765)]
    path = tmp_path / "out.csv"
    write_csv(recs, path)
    assert read_csv(path) == recs


def test_csv_empty_and_single(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path)
    assert path.read_text().strip() == ",".join(harness.CSV_HEADER)
    write_csv([ErrorRecord("tp1", 1, "dg", "full", "Linf", 20, 0.0, 0.25)], path)
    assert len(path.read_text().strip().splitlines()) == 2


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


def _pointwise_value_fn(ctx, name, side):
    """Scalar (element, frac) evaluator, blend included, one point per call."""
    def symmetric(e, frac):
        return psiac.symmetric_filter_eval_local(ctx.bern, e, frac)

    if name == "symmetric":
        return symmetric
    spec = build_spec(name, ctx.config.d, side)
    poly = psiac.filter_boundary(ctx.bern, spec)
    lam, n = spec.lam, ctx.mesh.n

    def value(e, frac):
        sigma = e + float(frac)
        x = ctx.mesh.a + sigma * ctx.mesh.h
        z = (sigma - float(lam)) / 2.0 if side == "left" else (float(n - lam) - sigma) / 2.0
        if not ctx.config.blend or z <= 0.0:
            return float(poly(x))
        beta = psiac.blend_weight(min(z, 1.0), ctx.config.blend_rho)
        return float((1 - beta) * poly(x) + beta * symmetric(e, frac))

    return value


def _pointwise_norms(ctx, region, value_fn, spe):
    """The per-point sampler: one evaluation per (piece, sample node)."""
    mesh = ctx.mesh
    gx, gw = np.polynomial.legendre.leggauss(spe)
    sq_total, linf = 0.0, 0.0
    for lo, hi in _fraction_pieces(region):
        width = hi - lo
        e = min(int(lo), mesh.n - 1)
        for s in range(spe):
            frac = lo - e + width * Fraction(s, spe - 1)
            x = mesh.a + (e + float(frac)) * mesh.h
            linf = max(linf, abs(value_fn(e, frac) - float(ctx.exact_fn(x))))
        flo, fw = float(lo - e), float(width)
        rad = fw / 2 * mesh.h
        for q in range(spe):
            frac = flo + fw * (float(gx[q]) + 1.0) / 2.0
            x = mesh.a + (e + frac) * mesh.h
            err = value_fn(e, frac) - float(ctx.exact_fn(x))
            sq_total += rad * float(gw[q]) * err * err
    return float(np.sqrt(sq_total)), linf


def _pointwise_records(ctx, name):
    spe = ctx.config.samples_per_element
    if name == "dg":
        return {("full",): _pointwise_region_norms(ctx.field.evaluate, ctx.exact_fn,
                                                   ctx.mesh, (ctx.mesh.a, ctx.mesh.b), spe)}
    if name == "symmetric":
        return {("interior",): _pointwise_norms(ctx, ctx.interior_region(),
                                                _pointwise_value_fn(ctx, name, None), spe)}
    return {(side,): _pointwise_norms(
        ctx, ctx.boundary_region(build_spec(name, ctx.config.d, side), side),
        _pointwise_value_fn(ctx, name, side), spe) for side in ("left", "right")}


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("n", (20, 40))
def test_batched_sampler_matches_pointwise(d, n):
    """Every error agrees with the per-point rule within summation-order roundoff."""
    filters_ = ("dg", "symmetric", "srv", "rlkv", "np0")
    cfg = RunConfig(problem="tp2", d=d, filters=filters_, mesh_sizes=(n,),
                    final_times=(0.3,))
    tp2 = dg.get_problem("tp2")
    field = dg.dg_solve(tp2, dg.Mesh(tp2.a, tp2.b, n), d, 0.3)
    ctx = harness._FieldContext(field, tp2, cfg)
    for name in filters_:
        want = _pointwise_records(ctx, name)
        got = harness._filter_records(ctx, name)
        assert len(got) == 2 * len(want)
        for rec in got:
            ref = want[(rec.region,)][0 if rec.norm == "L2" else 1]
            assert abs(rec.value - ref) <= 1e-15 + 1e-12 * abs(ref), (name, rec)


def test_right_strip_blend():
    """In the right strip the output is (1 - beta) poly + beta symmetric, with
    beta mirrored: 1 at the strip's interior edge, 0 at the boundary region."""
    d, n = 2, 24
    cfg = RunConfig(problem="tp2", d=d, filters=("np0",), mesh_sizes=(n,),
                    final_times=(0.3,))
    tp2 = dg.get_problem("tp2")
    field = dg.dg_solve(tp2, dg.Mesh(tp2.a, tp2.b, n), d, 0.3)
    ctx = harness._FieldContext(field, tp2, cfg)
    spec = build_spec("np0", d, "right")
    values = ctx.boundary_output(spec, "right")
    poly = psiac.filter_boundary(field, spec)
    edge = n - spec.lam  # where the boundary region proper starts
    assert ctx.boundary_region(spec, "right")[0] == edge - 2
    mesh = field.mesh
    for t in (Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        sigma = edge - 2 + 2 * t
        x = mesh.a + float(sigma) * mesh.h
        got = values(np.array([x]))[0]
        beta = psiac.blend_weight(float(1 - t), cfg.blend_rho)
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
    contexts = {blend: harness._FieldContext(field, tp2, RunConfig(
                    problem="tp2", d=d, filters=(family,), mesh_sizes=(n,),
                    final_times=(0.3,), blend=blend))
                for blend in (False, True)}
    sym = psiac.symmetric_kernel_at(d, mesh.h)
    for side in ("left", "right"):
        spec = build_spec(family, d, side)
        off, on = (contexts[b].boundary_output(spec, side) for b in (False, True))
        lam = float(spec.lam)
        u_region, u_strip = rng.random(2)
        for depth, beta in ((lam * u_region, 0.0),
                            (lam + 2 * u_strip, psiac.blend_weight(u_strip, 2))):
            x = mesh.a + (depth if side == "left" else n - depth) * mesh.h
            ref = psiac.reference_convolve(psiac.psiac_kernel_at(spec, mesh, x), field, x)
            tol = 1e-10 * max(1.0, abs(ref))
            assert abs(off(x) - ref) < tol, (side, depth)
            if beta == 0.0:
                assert on(x) == off(x)
            else:
                want = (1 - beta) * ref + beta * psiac.reference_convolve(sym, field, x)
                assert abs(on(x) - want) < tol, (side, depth)
