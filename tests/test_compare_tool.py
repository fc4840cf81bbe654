import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_timeseries.py"


def compare(old: Path, new: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), str(old), str(new),
                           "--workload", "kernels-cold", "--seed", "0"],
                          capture_output=True, text=True, timeout=300)


def test_kernel_sweep_comparison_reports_a_mutated_tree(tmp_path):
    """kernels-cold CSVs of two trees: identical for a copy, DIFFERENT once mutated."""
    src = ROOT / "src"
    copy = tmp_path / "src"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    same = compare(src, copy)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "kernels-cold seed 0: identical (80 / 80 CSVs" in same.stdout

    psiac = copy / "siacpost" / "psiac.py"
    text = psiac.read_text()
    line = 'xi = -spec.lam if spec.side != "right" else spec.lam\n'
    assert line in text
    psiac.write_text(text.replace(line, line.replace("spec.lam\n", "spec.lam + 1\n")))
    diff = compare(src, copy)
    assert diff.returncode == 1
    assert "kernels-cold seed 0: DIFFERENT" in diff.stdout
    changed = [ln.split()[-1] for ln in diff.stdout.splitlines() if "differs:" in ln]
    assert changed and all(name.endswith("_right_endpoint_vector.csv") for name in changed)
