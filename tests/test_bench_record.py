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
