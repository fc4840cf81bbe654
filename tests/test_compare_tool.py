import shlex
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_timeseries.py"


def compare(old: Path, new: Path, *options: str) -> subprocess.CompletedProcess:
    options = options or ("--workload", "kernels-cold", "--seed", "0")
    return subprocess.run([sys.executable, str(TOOL), str(old), str(new), *options],
                          capture_output=True, text=True, timeout=300)


def test_kernel_sweep_comparison_reports_a_mutated_tree(tmp_path):
    """kernels-cold CSVs of two trees: identical for a copy, DIFFERENT once mutated."""
    src = ROOT / "src"
    copy = tmp_path / "src"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    same = compare(src, copy)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "kernels-cold seed 0: identical (80 / 80 files" in same.stdout

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


def test_call_comparison_reports_a_mutated_tree(tmp_path):
    """--call runs each command line in both trees: identical for a copy; once the
    copy writes floats at 16 digits, the solve call is DIFFERENT and the exact
    kernel call, which writes no float, stays identical."""
    src = ROOT / "src"
    copy = tmp_path / "src"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    calls = ("--call", "kernel srv 1 left --exact", "--call", "solve tp1 --d 1 --n 8 --t 0.1")
    same = compare(src, copy, *calls)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "call 'kernel srv 1 left --exact': identical (2 / 2 files" in same.stdout
    assert "call 'solve tp1 --d 1 --n 8 --t 0.1': identical (2 / 2 files" in same.stdout

    cli = copy / "siacpost" / "cli.py"
    text = cli.read_text()
    assert text.count('f"{v:.17g}"') == 1
    cli.write_text(text.replace('f"{v:.17g}"', 'f"{v:.16g}"'))
    diff = compare(src, copy, *calls)
    assert diff.returncode == 1
    assert "call 'kernel srv 1 left --exact': identical" in diff.stdout
    assert "call 'solve tp1 --d 1 --n 8 --t 0.1': DIFFERENT" in diff.stdout
    changed = sorted(ln.split()[-1] for ln in diff.stdout.splitlines() if "differs:" in ln)
    assert changed == ["solve_tp1_d1_n8_coeffs.csv", "solve_tp1_d1_n8_samples.csv"]


def test_sample_csvs_compare_within_a_tolerance(tmp_path):
    """A copy whose kernel sampler is nudged by one ulp is DIFFERENT byte for byte
    and passes under --atol 1e-15, which compares the sample CSV cell by cell."""
    src = ROOT / "src"
    copy = tmp_path / "src"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    cli = copy / "siacpost" / "cli.py"
    text = cli.read_text()
    value = "sum(c * b(x) for c, b in zip(weights, splines))"
    assert text.count(value) == 1
    cli.write_text(text.replace(value, f"np.nextafter({value}, np.inf)"))
    call = ("--call", "kernel symmetric 2 --samples 50")
    diff = compare(src, copy, *call)
    assert diff.returncode == 1
    assert "call 'kernel symmetric 2 --samples 50': DIFFERENT" in diff.stdout
    assert "  differs: kernel_symmetric_d2_interior_samples.csv" in diff.stdout
    near = compare(src, copy, *call, "--atol", "1e-15")
    assert near.returncode == 0, near.stdout + near.stderr
    assert "within tolerance: kernel_symmetric_d2_interior_samples.csv" in near.stdout
    assert "  50 cells: max |diff| " in near.stdout and "0 outside tolerance" in near.stdout


def test_sample_comparison_needs_the_same_sample_points():
    compare_samples = _tool().compare_samples
    old = b"x,value\n0,1.5\n0.5,0.25\n"
    assert compare_samples(old, old.replace(b"0.25", b"0.2500000000000001"), 0, 1e-15) == (
        True, ["  2 cells: max |diff| 1.11e-16, max relative diff 4.44e-16, 0 outside tolerance"])
    assert not compare_samples(old, old.replace(b"0.25", b"0.26"), 0, 1e-15)[0]
    assert compare_samples(old, old.replace(b"0.5,", b"0.50,"), 1, 1) == (
        False, ["  header, sample points or row lengths differ"])


def _tool():
    import importlib.util
    spec = importlib.util.spec_from_file_location("compare_timeseries", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _csv(rows) -> bytes:
    lines = ["problem,d,filter,region,norm,N,T,value,kind"]
    lines += [f"tp2,3,{f},{r},L2,{n},0.5,{v!r},{kind}" for f, r, n, v, kind in rows]
    return ("\n".join(lines) + "\n").encode()


def test_tolerance_mode_reports_differences_and_floor_rows():
    compare_rows = _tool().compare_rows
    old = _csv([("np0", "left", 20, 1e-8, "error"), ("np0", "left", 40, 1e-10, "error"),
                ("np0", "left", 40, 6.64, "rate"),
                ("symmetric", "interior", 20, 1e-12, "error"),
                ("symmetric", "interior", 40, 5e-15, "error"),
                ("symmetric", "interior", 40, 7.6, "rate")])
    assert compare_rows(old, old, 1e-12, 1e-15) == (True, [
        "  4 error rows: max |diff| 0, max relative diff 0, 0 outside tolerance",
        "  0 of 2 rate rows moved by more than 1e-09 (0 floor rows); largest move of another row 0",
        "  np0 left: max |diff| 0, max relative diff 0",
        "  symmetric interior: max |diff| 0, max relative diff 0"])
    new = old.replace(b"5e-15", b"5.3e-15").replace(b"7.6,", b"7.5,").replace(b"6.64,", b"6.65,")
    new = new.replace(b"np0,left,L2,20,0.5,1e-08", b"np0,left,L2,20,0.5,1.0000000001e-08")
    ok, lines = compare_rows(old, new, 1e-12, 1e-15)
    assert ok
    assert lines[0].startswith("  4 error rows: max |diff| 3e-16, max relative diff 0.06")
    assert lines[1] == ("  2 of 2 rate rows moved by more than 1e-09 (1 floor rows); "
                        "largest move of another row 0.01")
    # the largest move per (filter, region): np0's 1e-18 (1e-10 relative), symmetric's 3e-16
    assert lines[2] == "  np0 left: max |diff| 1e-18, max relative diff 1e-10"
    assert lines[3] == "  symmetric interior: max |diff| 3e-16, max relative diff 0.06"
    assert lines[4].startswith("  rate moved: np0 left L2 N=40") and "[floor]" not in lines[4]
    assert lines[5].startswith("  rate moved: symmetric interior L2 N=40") and lines[5].endswith(
        "[floor]")
    ok, lines = compare_rows(old, new, 1e-12, 1e-16)
    assert not ok
    assert any(line.startswith("  error row outside tolerance: symmetric interior L2 40")
               for line in lines)
    ok, lines = compare_rows(old, old.replace(b"interior,L2,40", b"interior,L2,80"), 1, 1)
    assert not ok and lines[0].startswith("  rows differ")


def test_protocols_flag_adds_the_nine_paper_protocols_as_calls():
    """--protocols appends one timeseries call per problem and degree, after any --call;
    each names a config that exists, and the flag alone is enough to run."""
    tool = _tool()
    args = tool.parse_args(["old", "new", "--call", "kernel srv 1 left --exact", "--protocols"])
    assert args.call[0] == "kernel srv 1 left --exact"
    calls = [shlex.split(call) for call in args.call[1:]]
    assert len(calls) == 9
    assert [(Path(c[1]).name, c[2:]) for c in calls] == [
        (f"tp{p}_rates.cfg", ["--d", str(d)]) for p in (1, 2, 3) for d in (1, 2, 3)]
    assert all(c[0] == "timeseries" and Path(c[1]).is_file() for c in calls)
    assert tool.parse_args(["old", "new", "--protocols"]).call == args.call[1:]
