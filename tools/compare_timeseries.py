"""Byte-compare the `timeseries` CSVs of two source trees on benchmark inputs.

    python3 tools/compare_timeseries.py OLD_SRC NEW_SRC \
        --workload tp3-d2-long --seed 0 [--seed 11 ...]

Each source tree is the `src/` directory of a checkout.  The study config
comes from the benchmark's own generator (perfbench/workloads.py, only
imported), so the inputs are those of a benchmark run with that seed.
Exits 0 when every CSV pair is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS, Study, write_job  # noqa: E402


def timeseries_csv(src: str, config: Path, out: Path) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "siacpost.cli", "timeseries", str(config),
                    "--out", str(out)], env=env, check=True, stdout=subprocess.DEVNULL)
    (csv,) = out.glob("timeseries_*.csv")
    return csv.read_bytes()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    studies = sorted(name for name, w in WORKLOADS.items() if isinstance(w, Study))
    ap.add_argument("--workload", action="append", choices=studies, required=True)
    ap.add_argument("--seed", type=int, action="append", required=True)
    args = ap.parse_args()
    same = True
    for name in args.workload:
        for seed in args.seed:
            with tempfile.TemporaryDirectory() as tmp:
                tmp = Path(tmp)
                write_job(name, seed, tmp)
                old = timeseries_csv(args.old_src, tmp / "study.cfg", tmp / "old")
                new = timeseries_csv(args.new_src, tmp / "study.cfg", tmp / "new")
            verdict = "identical" if old == new else "DIFFERENT"
            print(f"{name} seed {seed}: {verdict} ({len(old)} / {len(new)} bytes)")
            same &= old == new
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
