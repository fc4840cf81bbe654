"""Time the paper protocols in-process on two source trees.

    python3 tools/time_protocols.py OLD_SRC NEW_SRC CFG[@D] [CFG[@D] ...] \
        [--repeat K] [--json PATH]

Each source tree is the `src/` directory of a checkout; each CFG is a
`timeseries` config (configs/tp*_rates.cfg), and a suffix @D runs it at
DG degree D instead of the config's own.  Every (config, tree) pair runs
K times (default 1), each in a fresh single-threaded process, as
`harness.time_series_experiment` on the parsed config, without writing a
CSV; the two trees alternate which goes first from one run to the next.
`dg.advance` is timed by the benchmark tracer's wrapper
(perfbench/tracer.py), so its seconds mean what the benchmark's
`dg.advance_s` means.  Before and after each run this process times one
pass of the benchmark's reference computation (perfbench/calibrate.py),
and the run's seconds are scaled to the reference host speed by the two
passes, as `perfbench/run.py` scales a worker's: the host's speed drifts
between runs by more than a few milliseconds of a protocol.  Prints one
row per config: for each tree the median scaled total and `dg.advance`
seconds, then each tree's median and minimum clock totals.  With --json,
writes per config the medians, quartiles and minima of `total_s` and
`advance_s` (scaled) and of `clock_total_s` and `clock_advance_s` for
each side, the old tree as "parent" and the new one as "change", in the
shape of tools/bench_record.py, with each tree's `src/` line count and,
under "first", the run order of the repeats as bench_record.py records
it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from bench_record import paired, run_order

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from calibrate import reference_pass, speed_factor  # noqa: E402
METRICS = ("total_s", "advance_s", "clock_total_s", "clock_advance_s")

RUN_PROTOCOL = """\
import json, sys, time
from types import SimpleNamespace
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
from siacpost import cli, dg, harness
values = cli.parse_config(sys.argv[2])
if sys.argv[3]:
    values["d"] = sys.argv[3]
# every run flag unset; older trees name the final-times flag "times"
unset = dict.fromkeys(("problem", "d", "filters", "mesh_sizes", "final_times", "times", "blend",
                       "cfl"))
config = cli.build_run_config(values, SimpleNamespace(**unset))
tracer = Tracer()
dg.advance = tracer.wrap("dg.advance", dg.advance)
t0 = time.perf_counter()
harness.time_series_experiment(config)
total = time.perf_counter() - t0
print(json.dumps({"label": f"{config.problem} d={config.d}", "total_s": total,
                  "advance_s": tracer.total_ns["dg.advance"] / 1e9}))
"""


def run_protocol(src: str, cfg: str, d: str) -> dict:
    """One in-process protocol run against the tree; its label and seconds."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", RUN_PROTOCOL, str(PERFBENCH), cfg, d],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def timed_run(src: str, cfg: str, d: str) -> dict:
    """`run_protocol` between two reference passes: its seconds on the clock and scaled."""
    passes = [reference_pass()]
    run = run_protocol(src, cfg, d)
    passes.append(reference_pass())
    scale = speed_factor(passes)
    return {"label": run["label"], "clock_total_s": run["total_s"],
            "clock_advance_s": run["advance_s"], "total_s": run["total_s"] * scale,
            "advance_s": run["advance_s"] * scale}


def src_lines(src: str) -> int:
    """Lines of the tree's Python files, counted as perfbench/run.py counts them."""
    return sum(len(p.read_text().splitlines()) for p in sorted(Path(src).rglob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("configs", nargs="+", metavar="CFG[@D]")
    ap.add_argument("--repeat", type=int, default=1, metavar="K",
                    help="runs per config and tree, alternating which tree goes first")
    ap.add_argument("--json", type=Path, default=None, metavar="PATH",
                    help="write medians, quartiles and minima per config and tree to PATH")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    print(f"{'protocol':10s} {'old total':>10s} {'old advance':>12s} "
          f"{'new total':>10s} {'new advance':>12s} {'old clock':>10s} {'old min':>9s} "
          f"{'new clock':>10s} {'new min':>9s}")
    trees = [("old", args.old_src), ("new", args.new_src)]
    workloads, first, run = {}, {}, 0
    names = {"old": "parent", "new": "change"}
    for spec in args.configs:
        cfg, _, d = spec.partition("@")
        runs, order = {"old": [], "new": []}, []
        for _ in range(args.repeat):
            ordered = trees if run % 2 == 0 else trees[::-1]
            order.append(names[ordered[0][0]])
            for side, src in ordered:
                runs[side].append(timed_run(src, cfg, d))
            run += 1
        label = runs["old"][0]["label"]
        first[label] = run_order(order)
        seconds = {(side, key): [r[key] for r in runs[side]] for side in runs for key in METRICS}
        workloads[label] = {key: paired("s", seconds["old", key], seconds["new", key], True)
                            for key in METRICS}
        median = {k: statistics.median(v) for k, v in seconds.items()}
        clock = workloads[label]["clock_total_s"]
        # 4 significant digits: a tiny config's dg.advance takes well under 5 ms
        share = lambda side: (f"{median[side, 'advance_s']:.4g} "
                              f"({median[side, 'advance_s'] / median[side, 'total_s']:.0%})")
        print(f"{label:10s} {median['old', 'total_s']:9.4g}s {share('old'):>12s} "
              f"{median['new', 'total_s']:9.4g}s {share('new'):>12s} "
              f"{clock['parent']['median']:9.4g}s {clock['parent']['min']:8.4g}s "
              f"{clock['change']['median']:9.4g}s {clock['change']['min']:8.4g}s")
    if args.json is not None:
        lines = {"parent": src_lines(args.old_src), "change": src_lines(args.new_src)}
        args.json.write_text(json.dumps({"workloads": workloads, "src_lines": lines,
                                         "first": first}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
