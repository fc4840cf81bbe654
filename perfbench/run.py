"""siacpost benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a siacpost checkout; the package is taken from its
`src/`.  Each sample is a fresh single-threaded worker process (BLAS pinned
to one thread) that sets up, then makes the workload's CLI call; samples
run one after another while a typical one still ends within S seconds of
the start (the untimed reference check counts against S too).  With --trace 0 the
last stdout line reports the end-to-end metrics (medians over samples),
times scaled to the reference host speed that calibrate.py defines, as
the host's own speed drifts too much between runs; the clock's readings
are printed above it;
with --trace 1 it reports per-layer metrics from traced samples, which
alternate with untraced ones so the tracing overhead can be reported.
Outputs are checked in both modes; `failed` counts the (N, T) fields,
kernel calls and reference comparisons that did not pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import speed_factor
from checks import csv_value, close, digest, study_failures, sweep_failures
from workloads import DEFAULT_SEED, WORKLOADS, write_job

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MIN_SAMPLES = 3          # per kind of sample (untraced, traced)
HARD_STOP_S = 170        # a run must end within 180 s whatever its workers do
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(root: Path, job: Path, out: Path, mode: str, log,
               timeout: float) -> dict | None:
    """Run one worker to completion; None if it failed or ran out of time."""
    result = out.with_suffix(".json")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job), str(out), str(result), mode],
            cwd=root, env=worker_env(root), stdout=log, stderr=subprocess.STDOUT,
            timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return None
    if proc.returncode != 0 or not result.is_file():
        return None
    return json.loads(result.read_text())


def provenance(root: Path, sample: dict | None) -> dict:
    head = root / ".git" / "HEAD"
    rev = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        rev = ref
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else ref
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {"python": platform.python_version(),
            "numpy": sample.get("numpy") if sample else None,
            "git_revision": rev, "nproc": os.cpu_count(),
            "blas_threads": {v: "1" for v in THREAD_VARS}, "src_lines": src_lines}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def csv_name(job: dict) -> str:
    return f"timeseries_{job['problem']}_d{job['d']}.csv"


def sample_failures(job: dict, sample: dict | None, out: Path, reference: dict | None) -> int:
    """Failed operations of one sample, from its exit codes and its CSVs."""
    if sample is None:
        return job["items"]
    if job["kind"] == "sweep":
        return sweep_failures(job, sample["rcs"], out)
    path = out / csv_name(job)
    failed = study_failures(job, sample["rcs"][0], path)
    if failed == 0 and reference is not None:
        ref = reference["dg_full"]
        for norm in ("L2", "Linf"):
            value = csv_value(path, "dg", "full", norm, ref["n"], ref["t"])
            if value is None or not close(value, ref[norm], 1e-9, 1e-15):
                failed += 1
                break
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "siacpost" / "__init__.py").is_file():
        print("error: run from a siacpost checkout (src/siacpost is missing)", file=sys.stderr)
        return 2
    run_dir = root / ".perfbench_out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    job_path = write_job(args.workload, args.seed, run_dir)
    job = json.loads(job_path.read_text())

    attempted = failed = 0
    start = time.monotonic()
    deadline, hard_stop = start + args.seconds, start + HARD_STOP_S
    time_left = lambda: max(1.0, hard_stop - time.monotonic())
    with open(run_dir / "workers.log", "w") as log:
        reference = None
        if job["kind"] == "study":  # compare with the reference convolution
            reference = run_worker(root, job_path, run_dir / "check", "check", log, time_left())
            comparisons = reference["comparisons"] if reference else []
            attempted += max(len(comparisons), 1)
            failed += sum(not c[-1] for c in comparisons) if reference else 1

        modes = ("sample", "traced") if args.trace else ("sample",)
        samples: dict[str, list[dict]] = {m: [] for m in modes}
        digests: list[str] = []
        durations: list[float] = []
        i = 0
        while True:
            # start a sample only if a typical one ends before the deadline
            late = time.monotonic() + statistics.median(durations or [0]) > deadline
            if late and (all(len(samples[m]) >= MIN_SAMPLES for m in modes)
                         or i >= 4 * MIN_SAMPLES * len(modes)):
                break
            if time.monotonic() >= hard_stop:
                break
            mode = modes[i % len(modes)]
            out = run_dir / f"{mode}{i}"
            t0 = time.monotonic()
            sample = run_worker(root, job_path, out, mode, log, time_left())
            durations.append(time.monotonic() - t0)
            bad = sample_failures(job, sample, out, reference)
            if bad == 0:
                digests.append(digest(p for p in out.iterdir() if p.suffix == ".csv"))
                if digests[-1] != digests[0]:
                    bad = job["items"]  # the same inputs gave other output
            attempted += job["items"]
            failed += bad
            if sample is not None and bad == 0:
                sample["files"] = {p.name: p.stat().st_size for p in out.iterdir()}
                samples[mode].append(sample)
            i += 1

    plain = samples["sample"]
    if not plain or (args.trace and not samples["traced"]):
        print(f"error: no sample passed its checks; see {run_dir / 'workers.log'}",
              file=sys.stderr)
        return 1
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = layer_metrics(job, samples) if args.trace else end_to_end_metrics(job, plain)
    units = {m["name"]: m["unit"] for m in declared}

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} samples"
          + (f", {len(samples['traced'])} traced" if args.trace else ""))
    print(f"{'metric':36s} {'unit':6s} {'median':>14s} {'q1':>14s} {'q3':>14s}  n")
    summary = {}
    for name in units:
        if name not in metrics:
            continue
        q1, med, q3 = quartiles(metrics[name])
        summary[name] = {"value": med, "unit": units[name]}
        print(f"{name:36s} {units[name]:6s} {med:14.6g} {q1:14.6g} {q3:14.6g}"
              f"  {len(metrics[name])}")
    unscaled = unscaled_metrics(plain)
    for name, values in unscaled.items():  # not gated: the host's drift shows here
        q1, med, q3 = quartiles(values)
        print(f"{name:36s} {'':6s} {med:14.6g} {q1:14.6g} {q3:14.6g}  {len(values)}")
    prov = provenance(root, plain[0])
    print("provenance " + json.dumps(prov))
    print(f"outputs sha256 {digests[0]}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": summary}
    problems = result_problems(result, units)
    if problems:
        print("error: " + "; ".join(problems), file=sys.stderr)
        return 1
    (run_dir / "result.json").write_text(json.dumps(
        {"result": result, "provenance": prov, "outputs_sha256": digests[0], "job": job,
         "samples": metrics, "unscaled": unscaled}, indent=1))
    for out in run_dir.iterdir():
        if out.is_dir():
            shutil.rmtree(out)
    print(json.dumps(result))
    return 0


def at_reference_speed(sample: dict, key: str) -> float:
    """A sample's time scaled to the reference host speed (calibrate.py)."""
    return sample[key] * speed_factor(sample["passes"])


def end_to_end_metrics(job: dict, plain: list[dict]) -> dict[str, list[float]]:
    """Per-sample values of each end-to-end metric (untraced samples only)."""
    wall = [at_reference_speed(s, "wall_s") for s in plain]
    return {
        "wall_s": wall,
        "setup_s": [at_reference_speed(s, "setup_s") for s in plain],
        "items_per_s": [job["items"] / w for w in wall],
        "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
    }


def unscaled_metrics(plain: list[dict]) -> dict[str, list[float]]:
    """Times as the clock read them, and the host speed each sample saw."""
    return {"clock.wall_s": [s["wall_s"] for s in plain],
            "clock.setup_s": [s["setup_s"] for s in plain],
            "host.speed_factor": [speed_factor(s["passes"]) for s in plain]}


def layer_metrics(job: dict, samples: dict) -> dict[str, list[float]]:
    """Per-layer metrics of the traced samples, plus output sizes and overhead."""
    traced = samples["traced"]
    out = {name: [s["layers"][name] for s in traced] for name in traced[0]["layers"]}
    study = job["kind"] == "study"
    errors, rates = job["expected_rows"] if study else (0, 0)
    out.update({
        "harness.csv_bytes": [s["files"].get(csv_name(job), 0) if study else 0
                              for s in traced],
        "harness.error_rows": [errors for _ in traced],
        "harness.rate_rows": [rates for _ in traced],
        "cli.bytes_written": [sum(s["files"].values()) for s in traced],
        # traced and untraced samples alternate; pair each with its neighbour
        "trace.overhead_s": [at_reference_speed(t, "wall_s") - at_reference_speed(u, "wall_s")
                             for u, t in zip(samples["sample"], traced)],
    })
    return out


def result_problems(result: dict, units: dict[str, str]) -> list[str]:
    """Ways in which a result line breaks the benchmark's output contract."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or isinstance(result.get(key), bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        problems.append("nothing attempted")
    metrics = result.get("metrics", {})
    if set(metrics) != set(units):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for name, m in metrics.items():
        if not NAME.fullmatch(name):
            problems.append(f"bad metric name {name!r}")
        if set(m) != {"value", "unit"} or m.get("unit") != units.get(name):
            problems.append(f"bad entry for {name}")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name} is not a finite number")
    return problems


if __name__ == "__main__":
    sys.exit(main())
