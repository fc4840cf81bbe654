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
