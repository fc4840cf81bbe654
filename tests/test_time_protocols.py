import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "time_protocols.py"


def test_one_row_per_config_with_degree_override(tmp_path):
    """Each CFG[@D] runs on both trees and prints its problem, degree and seconds."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("problem = tp3\nd = 1\nfilters = dg\nmesh_sizes = 8,16\nfinal_times = 0.2\n")
    src = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(TOOL), src, src, str(cfg), f"{cfg}@2"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[:2] for row in rows] == [["tp3", "d=1"], ["tp3", "d=2"]]
    assert all(float(row[2].rstrip("s")) >= float(row[3]) > 0 for row in rows)


def test_repeat_writes_bench_record_shaped_json(tmp_path):
    """--repeat 2 --json: per config and metric, each side's median and quartiles over 2 runs."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("problem = tp1\nd = 1\nfilters = dg\nmesh_sizes = 8,16\nfinal_times = 0.2\n")
    src = str(ROOT / "src")
    out = tmp_path / "protocols.json"
    proc = subprocess.run([sys.executable, str(TOOL), src, src, str(cfg), "--repeat", "2",
                           "--json", str(out)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[:2] for line in proc.stdout.splitlines()[1:]] == [["tp1", "d=1"]]
    record = json.loads(out.read_text())
    assert list(record["workloads"]) == ["tp1 d=1"]
    metrics = record["workloads"]["tp1 d=1"]
    assert sorted(metrics) == ["advance_s", "total_s"]
    for metric in metrics.values():
        assert set(metric) == {"unit", "parent", "change", "pairs", "won"}
        assert metric["unit"] == "s" and metric["pairs"] == 2 and 0 <= metric["won"] <= 2
        for side in ("parent", "change"):
            assert set(metric[side]) == {"median", "q1", "q3"}
            assert metric[side]["q1"] <= metric[side]["median"] <= metric[side]["q3"]
            assert metric[side]["median"] > 0
    assert metrics["advance_s"]["parent"]["median"] <= metrics["total_s"]["parent"]["median"]
    assert record["src_lines"]["parent"] == record["src_lines"]["change"] > 0
