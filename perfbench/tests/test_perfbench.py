"""Tests of the benchmark's own logic: schema, names, inputs and output checks.

No timing gates: nothing here runs the program or measures it.
"""

import csv
import functools
import json
import re
import sys
import types
from collections import namedtuple
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
REF = calibrate.REFERENCE_PASS_S


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_names_match_and_are_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64 and name[0].isalnum(), name
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _sample(**extra):
    return {"wall_s": 2.0, "setup_s": 0.5, "peak_rss_mb": 40.0, "rcs": [0],
            "passes": [REF, REF], **extra}


def test_every_declared_metric_is_produced():
    job = {"kind": "study", "items": 8, "problem": "tp2", "d": 3, "expected_rows": [128, 96]}
    e2e = run.end_to_end_metrics(job, [_sample(), _sample(wall_s=4.0)])
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert e2e["items_per_s"] == [4.0, 2.0]
    assert set(run.unscaled_metrics([_sample()])) == {
        "clock.wall_s", "clock.setup_s", "host.speed_factor"}

    tracer = Tracer()
    info = namedtuple("CacheInfo", "hits misses maxsize currsize")
    tracer.psiac = type("psiac", (), {
        "symmetric_filter_weights": type("w", (), {
            "cache_info": staticmethod(lambda: info(3, 1, None, 1))})})
    layers = tracer.layer_metrics()
    assert layers["psiac.symmetric_weights_hit_ratio"] == 0.75
    samples = {"sample": [_sample()],
               "traced": [_sample(wall_s=2.5, layers=layers, files={"x.csv": 10})]}
    per_layer = run.layer_metrics(job, samples)
    assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}
    assert per_layer["trace.overhead_s"] == [0.5]


def test_times_are_scaled_to_the_reference_speed():
    job = {"items": 8}
    slow = _sample(wall_s=3.0, setup_s=0.75, passes=[1.5 * REF, 1.5 * REF])
    e2e = run.end_to_end_metrics(job, [_sample(), slow])
    assert e2e["wall_s"] == [2.0, 2.0] and e2e["setup_s"] == [0.5, 0.5]
    assert e2e["peak_rss_mb"] == [40.0, 40.0]
    assert run.unscaled_metrics([slow])["clock.wall_s"] == [3.0]
    assert calibrate.speed_factor([REF / 2, 3 * REF / 2]) == 1.0


def test_result_schema():
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    good = {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {n: {"value": 1.5, "unit": u} for n, u in units.items()}}
    assert run.result_problems(good, units) == []
    missing = dict(good, metrics=dict(list(good["metrics"].items())[1:]))
    assert run.result_problems(missing, units)
    assert run.result_problems(dict(good, attempted=0), units)
    assert run.result_problems(dict(good, failed=1.0), units)
    assert run.result_problems(dict(good, correct=1), units)
    assert run.result_problems(dict(good, extra=1), units)
    nan = dict(good, metrics=dict(good["metrics"], wall_s={"value": float("nan"), "unit": "s"}))
    assert run.result_problems(nan, units)


def test_seeded_inputs(tmp_path):
    study = workloads.WORKLOADS["tp2-d3-dense"]
    times = study.final_times(7)
    assert times == study.final_times(7) != study.final_times(8)
    assert times == sorted(times) and times[-1] == study.span and len(times) == study.n_times
    job = json.loads(workloads.write_job("tp3-d2-long", 3, tmp_path).read_text())
    cfg = Path(job["config"]).read_text()
    assert ",".join(repr(t) for t in job["final_times"]) in cfg


def test_seeded_sweep(tmp_path):
    sweep = workloads.WORKLOADS["kernels-cold"]
    calls = sweep.calls(7)
    assert calls == sweep.calls(7) != sweep.calls(8)
    assert sorted(calls) == sorted(sweep.calls(8)) and len(calls) == 40
    job = json.loads(workloads.write_job("kernels-cold", 3, tmp_path).read_text())
    assert job["kind"] == "sweep" and job["items"] == len(job["calls"]) == 40


def _kernel_csvs(out, argv, values=("1/3", "2/3")):
    tag = f"{argv[1]}_d{argv[2]}_{argv[3]}"
    (out / f"kernel_{tag}_coeffs.csv").write_text("j,xi^0\n0,1\n")
    (out / f"kernel_{tag}_endpoint_vector.csv").write_text(
        "index,value\n" + "".join(f"{i},{v}\n" for i, v in enumerate(values)))


def test_tampered_kernel_output_is_a_failure(tmp_path):
    job = {"calls": [["kernel", "srv", "2", "left", "--exact"],
                     ["kernel", "np0", "1", "right", "--exact"]]}
    _kernel_csvs(tmp_path, job["calls"][0])
    _kernel_csvs(tmp_path, job["calls"][1])
    assert checks.sweep_failures(job, [0, 0], tmp_path) == 0
    assert checks.sweep_failures(job, [0, 2], tmp_path) == 1  # a failed exit code
    assert checks.sweep_failures(job, [0], tmp_path) == 1     # a call never made
    _kernel_csvs(tmp_path, job["calls"][1], ("1/3", "2/3", "1/1000000007"))
    assert checks.sweep_failures(job, [0, 0], tmp_path) == 1  # off by 1e-9
    _kernel_csvs(tmp_path, job["calls"][1], ("1/3", "x"))
    assert checks.sweep_failures(job, [0, 0], tmp_path) == 1


def test_caches_are_cleared_through_wrappers():
    import worker

    @functools.lru_cache(maxsize=None)
    def cached(x):
        return x

    cached(1)
    module = types.SimpleNamespace(name=functools.update_wrapper(lambda x: cached(x), cached))
    worker.clear_caches([module])
    assert cached.cache_info().currsize == 0


def _study_csv(path, job, value="1.5e-06"):
    errors, rates = job["expected_rows"]
    rows = []
    per_field = errors // job["items"]
    for n in job["mesh_sizes"]:
        for t in job["final_times"]:
            rows += [["tp2", 3, "dg", "full", "L2", n, repr(t), value, "error"]] * per_field
    rows += [["tp2", 3, "dg", "full", "L2", job["mesh_sizes"][-1], repr(job["final_times"][0]),
              "3.9", "rate"]] * rates
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["problem", "d", "filter", "region", "norm", "N", "T", "value", "kind"])
        w.writerows(rows)


def test_tampered_output_is_a_failure(tmp_path):
    job = {"items": 4, "mesh_sizes": [20, 40], "final_times": [0.25, 1.0],
           "expected_rows": [64, 32]}
    good = tmp_path / "good.csv"
    _study_csv(good, job)
    assert checks.study_failures(job, 0, good) == 0
    assert checks.study_failures(job, 1, good) == 4  # a failed exit code
    assert checks.study_failures(job, 0, tmp_path / "absent.csv") == 4

    lines = good.read_text().splitlines()
    nan = tmp_path / "nan.csv"
    nan.write_text("\n".join([lines[0], lines[1].replace("1.5e-06", "nan")] + lines[2:]) + "\n")
    assert checks.study_failures(job, 0, nan) == 1
    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines[:-1]) + "\n")
    assert checks.study_failures(job, 0, short) == 4

    # a finite tampered value passes the row checks but not the digest
    other = tmp_path / "other" / "good.csv"
    other.parent.mkdir()
    other.write_text("\n".join([lines[0], lines[1].replace("1.5e-06", "1.6e-06")] + lines[2:]) + "\n")
    assert checks.study_failures(job, 0, other) == 0
    assert checks.digest([other]) != checks.digest([good])
    assert checks.csv_value(good, "dg", "full", "L2", 20, 0.25) == 1.5e-06


def test_close_has_an_absolute_floor():
    assert checks.close(1e-14, 3e-14, rel=1e-9, floor=1e-11)
    assert not checks.close(1.0, 1.001, rel=1e-9, floor=1e-11)
    assert not checks.close(float("nan"), 0.0, rel=1e-9, floor=1e-11)
