"""Byte-compare the CSVs two source trees write on benchmark inputs or given CLI calls.

    python3 tools/compare_timeseries.py OLD_SRC NEW_SRC \
        --workload tp3-d2-long --workload kernels-cold --seed 0 [--seed 11 ...] \
        [--call "kernel srv 3 left --exact" --call "solve tp2 --d 2 --n 20 --t 0.5" ...] \
        [--protocols]

Each source tree is the `src/` directory of a checkout.  The inputs of a
workload come from the benchmark's own generator (perfbench/workloads.py,
only imported), so they are those of a benchmark run with that seed: a
study workload runs `siacpost timeseries` on the generated config, and
`kernels-cold` runs every `siacpost kernel ... --exact` call of the sweep,
in its seeded order, in one process per tree.  Each --call is one
`siacpost` command line (split as a shell would, without `--out`), run in
a process of its own per tree.  --protocols adds the paper protocols
as calls: `timeseries configs/tp{1,2,3}_rates.cfg --d {1,2,3}`, nine in
all.  A call that fails in either tree stops the tool with an error.
Every file written is compared; exits 0 when every pair is identical,
1 otherwise.

With --rtol and/or --atol the timeseries CSVs are compared row by row
instead: every error row must be within atol + rtol * |old value|, and
the largest absolute and relative differences over error rows are
reported, over all of them and per (filter, region).  Rate rows that
moved by more than 1e-9 are listed, for information: a rate is a
function of two error rows, and an error e that moves by delta moves it
by up to delta / (e ln 2), so roundoff in small errors moves rates that
the error tolerance does not catch.  A listed row whose finer- or
coarser-mesh error (old tree) is below 1e-13 is flagged as a floor row:
its rate measures roundoff.  The CLI's `*_samples.csv` files are
compared cell by cell: the header and the first column (the sample
points) must match byte for byte, every other cell must be within
atol + rtol * |old value|, and the largest absolute and relative
differences are reported per file.  Other CSVs (the exact kernel CSVs)
are still compared byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, write_job  # noqa: E402

RUN_CALLS = """\
import json, sys
from siacpost import cli
for argv in json.loads(sys.argv[1]):
    if cli.main(argv + ["--out", sys.argv[2]]) != 0:
        sys.exit(f"failed: {argv}")
"""


def run_tree(src: str, job: dict, config: Path, out: Path) -> dict[str, bytes]:
    """Run one job's CLI calls against the tree; return the files written by name."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if job["kind"] == "sweep":
        cmd = ["-c", RUN_CALLS, json.dumps(job["calls"]), str(out)]
    else:
        cmd = ["-m", "siacpost.cli", "timeseries", str(config), "--out", str(out)]
    out.mkdir()  # an existing directory, so that `converge --out` writes into it
    subprocess.run([sys.executable, *cmd], env=env, check=True, stdout=subprocess.DEVNULL)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


RATE_TOL = 1e-9    # a rate that moves by more than this is listed
FLOOR = 1e-13      # errors below this sit on the double-precision floor


def _rows(data: bytes) -> dict[tuple, float] | None:
    """Timeseries CSV rows as {(kind, filter, region, norm, N, T): value}, else None."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows or rows[0][-1] != "kind":
        return None
    return {(r[8], r[2], r[3], r[4], int(r[5]), r[6]): float(r[7]) for r in rows[1:]}


def compare_rows(old: bytes, new: bytes, rtol: float, atol: float) -> tuple[bool, list[str]]:
    """Tolerance comparison of two timeseries CSVs: (passed, report lines)."""
    a, b = _rows(old), _rows(new)
    if a is None or b is None:
        return old == new, []
    if a.keys() != b.keys():
        return False, ["  rows differ: " + ", ".join(map(str, sorted(a.keys() ^ b.keys())[:5]))]
    errors = [(key, v, abs(b[key] - v)) for key, v in sorted(a.items()) if key[0] == "error"]
    outside = [f"  error row outside tolerance: {' '.join(map(str, key[1:]))}: {v!r} -> {b[key]!r}"
               for key, v, diff in errors if not diff <= atol + rtol * abs(v)]
    rel = [diff / abs(v) for _, v, diff in errors if v]
    moved, floor_rows, worst = [], 0, 0.0
    for key, v in sorted(a.items()):
        if key[0] != "rate" or not abs(b[key] - v) > RATE_TOL:
            continue
        _, name, region, norm, n, t = key
        floor = any(e is not None and e < FLOOR
                    for e in (a.get(("error", name, region, norm, m, t)) for m in (n, n // 2)))
        floor_rows += floor
        worst = worst if floor else max(worst, abs(b[key] - v))
        moved.append(f"  rate moved: {name} {region} {norm} N={n} T={t}: {v!r} -> {b[key]!r}"
                     + (" [floor]" if floor else ""))
    rates = sum(key[0] == "rate" for key in a)
    summary = [f"  {len(errors)} error rows: max |diff| {max((e[2] for e in errors), default=0):.3g}, "
               f"max relative diff {max(rel, default=0):.3g}, {len(outside)} outside tolerance",
               f"  {len(moved)} of {rates} rate rows moved by more than {RATE_TOL:g} "
               f"({floor_rows} floor rows); largest move of another row {worst:.3g}"]
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for key, v, diff in errors:
        groups.setdefault(key[1:3], []).append((diff, diff / abs(v) if v else 0.0))
    summary += [f"  {name} {region}: max |diff| {max(d for d, _ in moves):.3g}, "
                f"max relative diff {max(r for _, r in moves):.3g}"
                for (name, region), moves in sorted(groups.items())]
    return not outside, summary + outside + moved


def compare_samples(old: bytes, new: bytes, rtol: float, atol: float) -> tuple[bool, list[str]]:
    """Tolerance comparison of two `*_samples.csv` files: (passed, report lines)."""
    a, b = (list(csv.reader(io.StringIO(data.decode()))) for data in (old, new))
    if a[:1] != b[:1] or [(r[0], len(r)) for r in a[1:]] != [(r[0], len(r)) for r in b[1:]]:
        return False, ["  header, sample points or row lengths differ"]
    cells = [(float(u), abs(float(v) - float(u))) for r, s in zip(a[1:], b[1:])
             for u, v in zip(r[1:], s[1:])]
    outside = sum(not diff <= atol + rtol * abs(u) for u, diff in cells)
    rel = [diff / abs(u) for u, diff in cells if u]
    return not outside, [f"  {len(cells)} cells: max |diff| "
                         f"{max((diff for _, diff in cells), default=0):.3g}, max relative diff "
                         f"{max(rel, default=0):.3g}, {outside} outside tolerance"]


def cases(args):
    """(label, job, scratch directory) for each workload and seed, then for each call."""
    for name in args.workload:
        for seed in args.seed:
            with tempfile.TemporaryDirectory() as tmp:
                job = json.loads(write_job(name, seed, Path(tmp)).read_text())
                yield f"{name} seed {seed}", job, Path(tmp)
    for call in args.call:
        with tempfile.TemporaryDirectory() as tmp:
            yield f"call {call!r}", {"kind": "sweep", "calls": [shlex.split(call)]}, Path(tmp)


def protocol_calls() -> list[str]:
    """The nine paper protocols as `siacpost` command lines."""
    return [f"timeseries {shlex.quote(str(ROOT / 'configs' / f'tp{p}_rates.cfg'))} --d {d}"
            for p in (1, 2, 3) for d in (1, 2, 3)]


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS), default=[])
    ap.add_argument("--seed", type=int, action="append", default=[])
    ap.add_argument("--call", action="append", default=[], metavar="ARGV",
                    help="one siacpost command line to run in both trees (repeatable)")
    ap.add_argument("--protocols", action="store_true",
                    help="add the nine paper protocols (tp1-tp3 at d = 1, 2, 3) as --calls")
    ap.add_argument("--rtol", type=float, default=None,
                    help="compare timeseries and sample CSVs value by value, with this "
                         "relative tolerance")
    ap.add_argument("--atol", type=float, default=None,
                    help="compare timeseries and sample CSVs value by value, with this "
                         "absolute tolerance")
    args = ap.parse_args(argv)
    if args.protocols:
        args.call += protocol_calls()
    if not args.workload and not args.call:
        ap.error("pass --workload, --call and/or --protocols")
    if args.workload and not args.seed:
        ap.error("--workload needs --seed")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    tolerant = args.rtol is not None or args.atol is not None
    same = True
    for label, job, tmp in cases(args):
        old = run_tree(args.old_src, job, tmp / "study.cfg", tmp / "old")
        new = run_tree(args.new_src, job, tmp / "study.cfg", tmp / "new")
        ok = bool(old) and old.keys() == new.keys()
        report = []
        for path in sorted(set(old) | set(new)):
            if old.get(path) == new.get(path):
                continue
            if tolerant and path in old and path in new:
                compare = compare_samples if path.endswith("_samples.csv") else compare_rows
                within, lines = compare(old[path], new[path], args.rtol or 0.0, args.atol or 0.0)
                report += [f"  {'within tolerance' if within else 'differs'}: {path}"] + lines
                ok &= within
            else:
                report.append(f"  differs: {path}")
                ok = False
        sizes = (sum(map(len, old.values())), sum(map(len, new.values())))
        verdict = "DIFFERENT" if not ok else "identical" if old == new else "within tolerance"
        print(f"{label}: {verdict} "
              f"({len(old)} / {len(new)} files, {sizes[0]} / {sizes[1]} bytes)")
        for line in report:
            print(line)
        same &= ok
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
