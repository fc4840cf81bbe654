"""Time the paper protocols in-process on two source trees.

    python3 tools/time_protocols.py OLD_SRC NEW_SRC CFG[@D] [CFG[@D] ...]

Each source tree is the `src/` directory of a checkout; each CFG is a
`timeseries` config (configs/tp*_rates.cfg), and a suffix @D runs it at
DG degree D instead of the config's own.  Every (config, tree) pair runs
once, in a fresh single-threaded process, as `harness.time_series_experiment`
on the parsed config, without writing a CSV; the two trees alternate
which goes first from one config to the next.  `dg.advance` is timed by
the benchmark tracer's wrapper (perfbench/tracer.py), so its seconds
mean what the benchmark's `dg.advance_s` means.  Prints one row per
config: total and `dg.advance` seconds for each tree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("configs", nargs="+", metavar="CFG[@D]")
    args = ap.parse_args()
    print(f"{'protocol':10s} {'old total':>10s} {'old advance':>12s} "
          f"{'new total':>10s} {'new advance':>12s}")
    for i, spec in enumerate(args.configs):
        cfg, _, d = spec.partition("@")
        trees = [("old", args.old_src), ("new", args.new_src)]
        runs = {side: run_protocol(src, cfg, d)
                for side, src in (trees if i % 2 == 0 else trees[::-1])}
        # 4 significant digits: a tiny config's dg.advance takes well under 5 ms
        share = lambda r: f"{r['advance_s']:.4g} ({r['advance_s'] / r['total_s']:.0%})"
        print(f"{runs['old']['label']:10s} {runs['old']['total_s']:9.4g}s "
              f"{share(runs['old']):>12s} "
              f"{runs['new']['total_s']:9.4g}s {share(runs['new']):>12s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
