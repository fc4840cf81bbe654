import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

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
    # each tree's median clock total, then its minimum
    assert all(float(row[i].rstrip("s")) >= float(row[i + 1].rstrip("s")) > 0
               for row in rows for i in (-4, -2))


def test_repeat_writes_bench_record_shaped_json(tmp_path):
    """--repeat 2 --json: per config and metric, each side's median, quartiles and minimum
    over 2 runs."""
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
    assert sorted(metrics) == ["advance_s", "clock_advance_s", "clock_total_s", "total_s"]
    for metric in metrics.values():
        assert set(metric) == {"unit", "parent", "change", "pairs", "won"}
        assert metric["unit"] == "s" and metric["pairs"] == 2 and 0 <= metric["won"] <= 2
        for side in ("parent", "change"):
            assert set(metric[side]) == {"median", "q1", "q3", "min"}
            assert metric[side]["min"] <= metric[side]["median"] <= metric[side]["q3"]
            assert metric[side]["q1"] <= metric[side]["median"]
            assert metric[side]["median"] > 0
    assert metrics["advance_s"]["parent"]["median"] <= metrics["total_s"]["parent"]["median"]
    assert record["src_lines"]["parent"] == record["src_lines"]["change"] > 0
    assert record["first"] == {"tp1 d=1": {"pairs": ["parent", "change"], "parent_first": 1,
                                           "balanced": True}}


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOL.parent))
    spec = importlib.util.spec_from_file_location("time_protocols", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runs_are_scaled_by_the_reference_passes_around_them(tool, monkeypatch, tmp_path, capsys):
    """Each run sits between two reference passes, whose mean scales its seconds to the
    reference host speed (calibrate.speed_factor); clock and scaled seconds are both
    reported, with each tree's minimum clock total, and which tree ran first in each repeat.
    The passes and the protocol runs are stubbed: passes of 2 REFERENCE_PASS_S give a factor
    of 1/2."""
    from calibrate import REFERENCE_PASS_S  # found where the tool finds it
    calls = []
    monkeypatch.setattr(tool, "reference_pass",
                        lambda: calls.append("pass") or 2 * REFERENCE_PASS_S)
    totals = {"old": iter([0.8, 0.9, 0.7]), "new": iter([0.6, 0.5, 0.65])}
    clock = {"old": (0.8, 0.5), "new": (0.6, 0.25)}
    monkeypatch.setattr(tool, "run_protocol", lambda src, cfg, d: calls.append(src) or {
        "label": "tp9 d=2", "total_s": next(totals[src]), "advance_s": clock[src][1]})
    out = tmp_path / "protocols.json"
    assert tool.main(["old", "new", "some.cfg", "--repeat", "3", "--json", str(out)]) == 0
    assert calls == ["pass", "old", "pass", "pass", "new", "pass", "pass", "new", "pass",
                     "pass", "old", "pass", "pass", "old", "pass", "pass", "new", "pass"]
    record = json.loads(out.read_text())
    assert record["first"] == {"tp9 d=2": {"pairs": ["parent", "change", "parent"],
                                           "parent_first": 2, "balanced": True}}
    metrics = record["workloads"]["tp9 d=2"]
    for side, tree in (("parent", "old"), ("change", "new")):
        total, advance = clock[tree]
        assert metrics["clock_total_s"][side]["median"] == total
        assert metrics["clock_advance_s"][side]["median"] == advance
        assert metrics["total_s"][side]["median"] == total / 2
        assert metrics["advance_s"][side]["median"] == advance / 2
    assert metrics["clock_total_s"]["parent"]["min"] == 0.7
    assert metrics["clock_total_s"]["change"]["min"] == 0.5
    assert metrics["total_s"]["won"] == 3
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[:3] == ["tp9", "d=2", "0.4s"] and row[-4:] == ["0.8s", "0.7s", "0.6s", "0.5s"]
