import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_record.py"


def _result(path: Path, wall: float, items: float, src_lines: int) -> Path:
    """A result.json as perfbench/run.py writes it, cut to what the collector reads."""
    path.write_text(json.dumps({
        "result": {"correct": True, "attempted": 12, "failed": 0, "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "items_per_s": {"value": items, "unit": "1/s"}}},
        "provenance": {"git_revision": "abc", "src_lines": src_lines},
        "job": {"workload": "tp3-d2-long", "seed": 0}}))
    return path


def test_pairs_are_counted_by_each_metric_direction(tmp_path):
    """Medians and quartiles per side; the change wins a pair when better, ties win nothing."""
    parents = [_result(tmp_path / f"p{i}.json", w, 10.0, 2558)
               for i, w in enumerate((0.70, 0.72, 0.68))]
    changes = [_result(tmp_path / f"c{i}.json", w, i, 2680)
               for i, w in enumerate((0.35, 0.80, 0.34))]
    out = tmp_path / "BENCH_x.json"
    proc = subprocess.run([sys.executable, str(TOOL), str(out), "--parent", *map(str, parents),
                           "--change", *map(str, changes)], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text())
    wall = bench["workloads"]["tp3-d2-long seed 0"]["wall_s"]
    assert wall["unit"] == "s" and wall["pairs"] == 3 and wall["won"] == 2
    assert wall["parent"]["median"] == 0.70 and wall["change"]["median"] == 0.35
    assert wall["change"]["q1"] <= 0.35 <= wall["change"]["q3"]
    assert wall["parent"]["min"] == 0.68 and wall["change"]["min"] == 0.34
    items = bench["workloads"]["tp3-d2-long seed 0"]["items_per_s"]
    assert items["won"] == 0  # higher is better: 0, 1, 2 against 10
    assert bench["src_lines"] == {"parent": 2558, "change": 2680}
    assert bench["provenance"]["change"]["git_revision"] == "abc"


def test_the_side_that_ran_first_is_read_from_result_file_ages(tmp_path):
    """Per pair, the side whose result file is older ran first; parent-first pairs are counted."""
    parents = [_result(tmp_path / f"p{i}.json", 0.7, 10.0, 1) for i in range(3)]
    changes = [_result(tmp_path / f"c{i}.json", 0.6, 10.0, 1) for i in range(3)]
    for i, (p, c) in enumerate(zip(parents, changes)):
        older, newer = (p, c) if i != 1 else (c, p)
        os.utime(older, (1000.0 + 10 * i, 1000.0 + 10 * i))
        os.utime(newer, (1005.0 + 10 * i, 1005.0 + 10 * i))
    out = tmp_path / "BENCH_x.json"
    proc = subprocess.run([sys.executable, str(TOOL), str(out), "--parent", *map(str, parents),
                           "--change", *map(str, changes)], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    first = json.loads(out.read_text())["first"]
    assert first == {"tp3-d2-long seed 0": {"pairs": ["parent", "change", "parent"],
                                            "parent_first": 2, "balanced": True}}
    assert "warning" not in proc.stderr


@pytest.mark.parametrize("parent_first, balanced", [(0, False), (1, False), (2, True),
                                                    (3, True), (4, True), (5, False)])
def test_unalternated_pairs_are_flagged(tmp_path, parent_first, balanced):
    """Of 6 pairs, a parent-first count more than one away from 3 is recorded as unbalanced
    and warned about on stderr; the record is still written."""
    parents = [_result(tmp_path / f"p{i}.json", 0.7, 10.0, 1) for i in range(6)]
    changes = [_result(tmp_path / f"c{i}.json", 0.6, 10.0, 1) for i in range(6)]
    for i, (p, c) in enumerate(zip(parents, changes)):
        older, newer = (p, c) if i < parent_first else (c, p)
        os.utime(older, (1000.0 + 10 * i, 1000.0 + 10 * i))
        os.utime(newer, (1005.0 + 10 * i, 1005.0 + 10 * i))
    out = tmp_path / "BENCH_x.json"
    proc = subprocess.run([sys.executable, str(TOOL), str(out), "--parent", *map(str, parents),
                           "--change", *map(str, changes)], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    first = json.loads(out.read_text())["first"]["tp3-d2-long seed 0"]
    assert first["parent_first"] == parent_first and first["balanced"] is balanced
    assert ("warning: tp3-d2-long seed 0" in proc.stderr) is not balanced


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]  # q3 - q1 about 0.03
SKEWED = [1.00, 1.01, 1.02, 1.03, 1.04, 1.60, 1.70, 1.80, 1.90, 2.00]  # q3 - q1 about 0.7


@pytest.mark.parametrize("old, new, lower, want", [
    (PARENT, [1.05] + [v - 0.2 for v in PARENT[1:]], True, "gain"),  # 9 of 10 won
    (PARENT, [1.05, 1.05] + [v - 0.2 for v in PARENT[2:]], True, "flat"),  # 8 of 10
    (PARENT, [v - 0.01 for v in PARENT], True, "flat"),  # every pair, within q3 - q1
    (PARENT, [v * 1.2 for v in PARENT], True, "flat"),  # worse within the 0.25 bound
    (PARENT, [v * 1.3 for v in PARENT], True, "worse"),
    (SKEWED, SKEWED[::-1], True, "unresolved"),
    (SKEWED, [0.99] * 10, True, "flat"),  # every change run beats every parent run
    (SKEWED, [v * 1.5 for v in SKEWED], True, "worse"),  # worse outranks unresolved
    ([10 * v for v in PARENT], [10 * v + 2 for v in PARENT], False, "gain"),
    ([10 * v for v in PARENT], [7 * v for v in PARENT], False, "worse"),
], ids=["gain", "eight-wins", "inside-iqr", "within-bound", "worse", "unresolved",
        "separated", "worse-and-wide", "higher-gain", "higher-worse"])
def test_verdict_of_synthetic_runs(tool, old, new, lower, want):
    """A verdict per end-to-end metric, its bound 0.25 of the parent's median: gain needs
    9 of 10 pairs and a median gain above the parent's q3 - q1."""
    assert tool.verdict(old, new, lower, 0.25) == want


def test_only_end_to_end_metrics_get_a_verdict(tool):
    """The record gives wall_s (end to end) a verdict and dg.self_s (per layer) none."""
    run = lambda wall: {"job": {"workload": "tp3-d2-long", "seed": 0},
                        "provenance": {"git_revision": "abc", "src_lines": 1},
                        "result": {"metrics": {"wall_s": {"value": wall, "unit": "s"},
                                               "dg.self_s": {"value": wall, "unit": "s"}}}}
    bench = tool.record([run(v) for v in PARENT], [run(v * 1.3) for v in PARENT],
                        ["parent", "change"] * 5)
    metrics = bench["workloads"]["tp3-d2-long seed 0"]
    assert metrics["wall_s"]["verdict"] == "worse" and "verdict" not in metrics["dg.self_s"]
    assert metrics["dg.self_s"]["change"]["min"] == min(PARENT) * 1.3
