"""Record paired benchmark runs of a parent and a change as one BENCH_<label>.json.

    python3 tools/bench_record.py BENCH_label.json --parent P1.json [P2.json ...] \
        --change C1.json [C2.json ...]

Each file is the result.json of one `perfbench/run.py` run; the i-th
parent and change runs form pair i and must share workload and seed.
Per workload and seed, and per metric of the runs: each side's median,
quartiles and minimum over its runs, the number of pairs and how many the
change won (better by the direction in BENCHMARK.json; ties win nothing).
Each end-to-end metric also gets a "verdict", its bound in BENCHMARK.json
read as a fraction of the parent's median:

  gain        the change won at least 9 of every 10 pairs, and its median is
              better than the parent's by more than the parent's q3 - q1;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's q3 - q1 is wider than the bound, and not every
              change run is better than every parent run;
  flat        none of these.

Each side's `src/` line count and provenance come from its first run.
Under "first", per workload and seed: which side ran first in each pair
(the one whose result file is older) and the number of parent-first
pairs, as the side that runs first can read faster, so a fair record
alternates.
A workload and seed whose parent-first count is more than one away from
half its pairs is recorded as "balanced": false, with a warning on stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def spread(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "min": min(values)}


def verdict(old: list[float], new: list[float], lower: bool, bound: float) -> str:
    """gain, worse, unresolved or flat for an end-to-end metric (module docstring)."""
    if not lower:  # compare as lower-is-better: the quartile spread and the bound keep their size
        old, new = [-v for v in old], [-v for v in new]
    parent, change = spread(old), spread(new)
    iqr, allowed = parent["q3"] - parent["q1"], bound * abs(parent["median"])
    won = sum(b < a for a, b in zip(old, new, strict=True))
    if 10 * won >= 9 * len(old) and parent["median"] - change["median"] > iqr:
        return "gain"
    if change["median"] - parent["median"] > allowed:
        return "worse"
    return "unresolved" if iqr > allowed and not max(new) < min(old) else "flat"


def paired(unit: str, old: list[float], new: list[float], lower: bool,
           bound: float | None = None) -> dict:
    """One metric over paired runs: each side's spread, the pairs and the pairs the change
    won, and with a bound (an end-to-end metric's) the verdict."""
    won = sum(b < a if lower else b > a for a, b in zip(old, new, strict=True))
    out = {"unit": unit, "parent": spread(old), "change": spread(new), "pairs": len(old),
           "won": won}
    if bound is not None:
        out["verdict"] = verdict(old, new, lower, bound)
    return out


def run_order(ran: list[str]) -> dict:
    """A "first" entry of a BENCH record: ran[i] names the side that ran first in pair i."""
    parent_first = ran.count("parent")
    return {"pairs": ran, "parent_first": parent_first,
            "balanced": abs(parent_first - len(ran) / 2) <= 1}


def record(parents: list[dict], changes: list[dict], ran_first: list[str]) -> dict:
    """The BENCH record of paired runs; ran_first[i] names the side that ran first in pair i."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    groups: dict[str, list[tuple[dict, dict]]] = {}
    order: dict[str, list[str]] = {}
    for old, new, side in zip(parents, changes, ran_first, strict=True):
        key = f"{old['job']['workload']} seed {old['job']['seed']}"
        if key != f"{new['job']['workload']} seed {new['job']['seed']}":
            raise SystemExit(f"pair {len(groups)}: {key} against another workload or seed")
        groups.setdefault(key, []).append((old["result"]["metrics"], new["result"]["metrics"]))
        order.setdefault(key, []).append(side)
    workloads = {}
    for key, pairs in groups.items():
        workloads[key] = {}
        for name, first in pairs[0][1].items():
            old, new = ([p[side][name]["value"] for p in pairs] for side in (0, 1))
            workloads[key][name] = paired(first["unit"], old, new, lower[name], bound.get(name))
    sides = {"parent": parents[0]["provenance"], "change": changes[0]["provenance"]}
    return {"workloads": workloads, "src_lines": {k: v["src_lines"] for k, v in sides.items()},
            "provenance": sides,
            "first": {key: run_order(ran) for key, ran in order.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("--parent", nargs="+", type=Path, required=True)
    ap.add_argument("--change", nargs="+", type=Path, required=True)
    args = ap.parse_args(argv)
    load = lambda paths: [json.loads(p.read_text()) for p in paths]
    ran_first = ["parent" if p.stat().st_mtime < c.stat().st_mtime else "change"
                 for p, c in zip(args.parent, args.change)]
    bench = record(load(args.parent), load(args.change), ran_first)
    for key, first in bench["first"].items():
        if not first["balanced"]:
            print(f"warning: {key}: the parent ran first in {first['parent_first']} of "
                  f"{len(first['pairs'])} pairs; alternate the order", file=sys.stderr)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
