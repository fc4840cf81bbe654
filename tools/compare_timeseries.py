"""Byte-compare the CSVs two source trees write on benchmark inputs.

    python3 tools/compare_timeseries.py OLD_SRC NEW_SRC \
        --workload tp3-d2-long --workload kernels-cold --seed 0 [--seed 11 ...]

Each source tree is the `src/` directory of a checkout.  The inputs come
from the benchmark's own generator (perfbench/workloads.py, only
imported), so they are those of a benchmark run with that seed: a study
workload runs `siacpost timeseries` on the generated config, and
`kernels-cold` runs every `siacpost kernel ... --exact` call of the sweep,
in its seeded order, in one process per tree.
Exits 0 when every CSV pair is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS, write_job  # noqa: E402

RUN_CALLS = """\
import json, sys
from siacpost import cli
for argv in json.loads(sys.argv[1]):
    if cli.main(argv + ["--out", sys.argv[2]]) != 0:
        sys.exit(f"failed: {argv}")
"""


def run_tree(src: str, job: dict, config: Path, out: Path) -> dict[str, bytes]:
    """Run one workload's CLI calls against the tree; return its CSVs by name."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if job["kind"] == "sweep":
        cmd = ["-c", RUN_CALLS, json.dumps(job["calls"]), str(out)]
    else:
        cmd = ["-m", "siacpost.cli", "timeseries", str(config), "--out", str(out)]
    subprocess.run([sys.executable, *cmd], env=env, check=True, stdout=subprocess.DEVNULL)
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, action="append", required=True)
    args = ap.parse_args()
    same = True
    for name in args.workload:
        for seed in args.seed:
            with tempfile.TemporaryDirectory() as tmp:
                tmp = Path(tmp)
                job = json.loads(write_job(name, seed, tmp).read_text())
                old = run_tree(args.old_src, job, tmp / "study.cfg", tmp / "old")
                new = run_tree(args.new_src, job, tmp / "study.cfg", tmp / "new")
            ok = bool(old) and old == new
            sizes = (sum(map(len, old.values())), sum(map(len, new.values())))
            print(f"{name} seed {seed}: {'identical' if ok else 'DIFFERENT'} "
                  f"({len(old)} / {len(new)} CSVs, {sizes[0]} / {sizes[1]} bytes)")
            for csv in sorted(set(old) | set(new)):
                if old.get(csv) != new.get(csv):
                    print(f"  differs: {csv}")
            same &= ok
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
