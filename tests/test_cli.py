import os
from fractions import Fraction as F

import pytest

from siacpost.cli import main


SUBCOMMANDS = ("kernel", "solve", "filter", "converge", "timeseries")


@pytest.mark.parametrize("cmd", SUBCOMMANDS)
def test_help_exits_zero(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    assert "--" in capsys.readouterr().out


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "tp1", "--d", "1", "--n", "20", "--t", "0", "--bogus"])
    assert exc.value.code == 2


def test_bad_problem_exit_code(tmp_path, capsys):
    rc = main(["solve", "tp9", "--d", "1", "--n", "20", "--t", "0",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "tp9" in capsys.readouterr().err


def test_kernel_exact_symmetric(tmp_path, capsys):
    rc = main(["kernel", "symmetric", "1", "interior", "--exact",
               "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "kernel_symmetric_d1_interior_coeffs.csv").read_text()
    rows = text.strip().splitlines()
    assert rows[1].split(",")[1] == "-1/12"
    assert rows[2].split(",")[1] == "7/6"
    assert rows[3].split(",")[1] == "-1/12"


def test_kernel_np0_denominators(tmp_path):
    rc = main(["kernel", "np0", "3", "left", "--exact", "--out", str(tmp_path)])
    assert rc == 0
    vec = (tmp_path / "kernel_np0_d3_left_endpoint_vector.csv").read_text()
    lines = vec.strip().splitlines()[1:]
    assert len(lines) == 40
    for line in lines:
        val = F(line.split(",")[1])
        assert 10080 % val.denominator == 0


def test_kernel_srv_magnitudes(tmp_path):
    main(["kernel", "srv", "3", "left", "--exact", "--out", str(tmp_path)])
    main(["kernel", "np0", "3", "left", "--exact", "--out", str(tmp_path)])
    def max_entry(name):
        lines = (tmp_path / name).read_text().strip().splitlines()[1:]
        return max(abs(F(l.split(",")[1])) for l in lines)
    srv = max_entry("kernel_srv_d3_left_endpoint_vector.csv")
    np0 = max_entry("kernel_np0_d3_left_endpoint_vector.csv")
    assert len((tmp_path / "kernel_srv_d3_left_coeffs.csv")
               .read_text().strip().splitlines()) == 14  # 13 polynomials + header
    assert srv / np0 > 50


def test_kernel_samples(tmp_path):
    rc = main(["kernel", "np0", "1", "left", "--samples", "33", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "kernel_np0_d1_left_samples.csv").read_text().strip().splitlines()
    assert lines[0] == "x,value" and len(lines) == 34


def test_kernel_needs_mode(tmp_path):
    assert main(["kernel", "np0", "1", "left", "--out", str(tmp_path)]) == 2


def test_solve_and_filter_smoke(tmp_path):
    rc = main(["solve", "tp1", "--d", "1", "--n", "20", "--t", "0.1",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "solve_tp1_d1_n20_samples.csv").exists()
    rc = main(["filter", "tp1", "--family", "np0", "--d", "1", "--n", "20",
               "--t", "0.1", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "filter_tp1_np0_d1_n20_left_samples.csv").read_text()
    assert text.startswith("x,value,exact_solution,abs_error")


def test_timeseries_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# tiny smoke configuration\n"
        "problem = tp1\n"
        "d = 1\n"
        "filters = dg,np0\n"
        "mesh_sizes = 20,40\n"
        "final_times = 0.0\n"
        "blend = false\n")
    rc = main(["timeseries", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    out = (tmp_path / "timeseries_tp1_d1.csv").read_text().strip().splitlines()
    assert out[0] == "problem,d,filter,region,norm,N,T,value,kind"
    assert len(out) > 1


def test_timeseries_empty_filters(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = tp1\nd = 1\nfilters =\n"
                   "mesh_sizes = 20\nfinal_times = 0.0\n")
    rc = main(["timeseries", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    out = (tmp_path / "timeseries_tp1_d1.csv").read_text().strip().splitlines()
    assert len(out) == 1  # header only


def test_timeseries_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("problem = tp1\nwibble = 3\n")
    assert main(["timeseries", str(cfg), "--out", str(tmp_path)]) == 2
    cfg.write_text("problem = nothere\nd = 1\nfilters = dg\n"
                   "mesh_sizes = 20\nfinal_times = 0\n")
    assert main(["timeseries", str(cfg), "--out", str(tmp_path)]) == 2


def test_timeseries_flag_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = tp1\nd = 1\nfilters = dg\n"
                   "mesh_sizes = 20\nfinal_times = 0.0\n")
    rc = main(["timeseries", str(cfg), "--filters", "np0", "--no-blend",
               "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "timeseries_tp1_d1.csv").read_text()
    assert "np0" in text and ",dg," not in text


def test_config_linspace_times():
    import numpy as np
    from siacpost.cli import _times_from
    ts = _times_from("linspace:0:1:5")
    assert ts == tuple(np.linspace(0, 1, 5))


def test_converge_smoke(tmp_path, capsys):
    rc = main(["converge", "tp1", "--d", "1", "--filters", "np0",
               "--n-list", "20,40", "--t", "0.25", "--no-blend",
               "--out", str(tmp_path / "c.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rate" in out and (tmp_path / "c.csv").exists()


def test_converge_unknown_filter_is_usage_error(tmp_path, capsys):
    rc = main(["converge", "tp1", "--d", "1", "--filters", "npk",
               "--n-list", "20,40", "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "npk" in err and "np0" in err and "symmetric" in err


def test_converge_negative_time_is_usage_error(tmp_path, capsys):
    rc = main(["converge", "tp1", "--d", "1", "--filters", "np0",
               "--n-list", "20,40", "--t", "-1", "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    assert "nonnegative" in capsys.readouterr().err


def test_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SIACPOST_OUTDIR", str(tmp_path / "envout"))
    rc = main(["kernel", "symmetric", "1", "--exact"])
    assert rc == 0
    assert (tmp_path / "envout" / "kernel_symmetric_d1_interior_coeffs.csv").exists()


SOLVE = ["solve", "tp1", "--d", "1"]
FILTER = ["filter", "tp1", "--family", "np0", "--d", "1"]
TINY_CONFIG = "problem = tp1\nd = 1\nfilters = dg,np0\nmesh_sizes = 8,16\nfinal_times = 0.1\n"


class Config(str):
    """A config-file argument: the test writes TINY_CONFIG plus this text to a file."""


@pytest.mark.parametrize("argv", [
    SOLVE + ["--n", "10", "--t", "-1"],
    FILTER + ["--n", "10", "--t", "-1"],
    SOLVE + ["--n", "0", "--t", "0.1"],
    FILTER + ["--n", "0", "--t", "0.1"],
    ["kernel", "bogus", "2", "--exact"],
    ["filter", "tp1", "--family", "bogus", "--d", "1", "--n", "10", "--t", "0.1"],
    ["converge", "tp9", "--d", "1"],
    ["kernel", "np0", "0", "--exact"],
    ["kernel", "npk", "2", "left", "--exact"],
    ["kernel", "npk", "2", "left", "--exact", "--k", "-1"],
    ["kernel", "srv", "2", "left", "--exact", "--k", "1"],
    ["kernel", "srv", "2", "left", "--exact", "--dg-degree", "-1"],
    ["solve", "tp1", "--d", "-1", "--n", "8", "--t", "0.1"],
    FILTER[:-1] + ["0", "--n", "8", "--t", "0.1"],
    ["converge", "tp1", "--d", "0", "--filters", "dg,np0", "--n-list", "8,16"],
    ["converge", "tp1", "--d", "-1", "--filters", "dg", "--n-list", "8,16"],
    ["converge", "tp1", "--d", "1", "--n-list", "0"],
    ["converge", "tp1", "--d", "1", "--n-list", "-4"],
    SOLVE + ["--n", "8", "--t", "inf"],
    ["converge", "tp1", "--d", "1", "--n-list", "8,16", "--t", "inf"],
    ["timeseries", Config("samples_per_element = 0\n")],
    ["timeseries", Config("samples_per_element = 1\n")],
    ["timeseries", Config("blend_rho = 0\n")],
    ["timeseries", Config("blend = maybe\n")],
    ["timeseries", Config("blend = maybe\n"), "--no-blend"],
    ["filter", "tp1", "--family", "np0", "--d", "3", "--n", "5", "--t", "0.1"],
    ["converge", "tp1", "--d", "3", "--n-list", "4,8", "--filters", "symmetric"],
])
def test_bad_option_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    cfg = tmp_path / "run.cfg"
    for arg in argv:
        if isinstance(arg, Config):
            cfg.write_text(TINY_CONFIG + arg)
    argv = [str(cfg) if isinstance(arg, Config) else arg for arg in argv]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(out.iterdir())


def test_usage_exceptions_share_one_base():
    import numpy as np
    from siacpost import UsageError, dg, filters, harness, psiac
    for cls in (filters.UnsupportedFamilySideError, filters.FilterParameterError,
                harness.RunConfigError, psiac.MeshTooCoarseError, dg.CflLimitError,
                dg.UnknownProblemError):
        assert issubclass(cls, UsageError), cls
    assert issubclass(psiac.MeshTooCoarseError, psiac.WindowOutOfDomainError)
    with pytest.raises(dg.UnstableBlowupError) as limit:
        dg.check_cfl(1.01 * dg.max_stable_cfl(2), 2)
    assert isinstance(limit.value, UsageError)
    with pytest.raises(KeyError) as unknown:
        dg.get_problem("tp9")
    assert isinstance(unknown.value, UsageError)
    assert str(unknown.value).startswith("unknown problem 'tp9'")
    spec = filters.build_spec("np0", 1, "left")
    mesh = dg.Mesh(0.0, 1.0, 4)
    for call in (lambda: dg.Mesh(0.0, 1.0, 0),
                 lambda: dg.check_cfl(0.0, 1),
                 lambda: dg.check_cfl(float("nan"), 1),
                 lambda: dg.l2_project(np.sin, mesh, -1),
                 lambda: dg.dg_solve(dg.get_problem("tp1"), mesh, 1, float("inf")),
                 lambda: dg.dg_solve(dg.get_problem("tp1"), mesh, 1, -1.0),
                 lambda: psiac.endpoint_vector(spec, -1),
                 lambda: psiac.q_matrix(spec, -1)):
        with pytest.raises(UsageError):
            call()


@pytest.mark.parametrize("cfl", ("50", "-1", "nan"))
def test_bad_cfl_fails_without_output(cfl, tmp_path, capsys):
    rc = main(SOLVE + ["--n", "10", "--t", "1", "--cfl", cfl, "--out", str(tmp_path)])
    assert rc == 2
    assert "CFL" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["kernel", "np0", "1", "left", "--samples", "-1"],
    ["kernel", "np0", "1", "left", "--exact", "--samples", "-1"],
    SOLVE + ["--n", "8", "--t", "0.1", "--samples", "-2"],
    FILTER + ["--n", "8", "--t", "0.1", "--samples", "-2"],
    FILTER + ["--n", "8", "--t", "0.1", "--cfl", "inf"],
    ["converge", "tp1", "--d", "1", "--filters", "np0", "--n-list", "8,16", "--cfl", "0.5"],
    ["timeseries", "--problem", "tp1", "--d", "2", "--filters", "dg", "--mesh-sizes", "8",
     "--times", "0.1", "--cfl", "0"],
])
def test_bad_samples_or_cfl_is_usage_error(argv, tmp_path, capsys):
    """Checked before any solve or write: exit 2 and an empty output directory."""
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.iterdir())


def test_config_cfl_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = tp1\nd = 1\nfilters = dg\nmesh_sizes = 8\n"
                   "final_times = 0.1\ncfl = 0.9\n")
    assert main(["timeseries", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "CFL" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


KERNEL_CALLS = (["kernel", "rlkv", "2", "right", "--exact"],
                ["kernel", "np0", "1", "left", "--samples", "9", "--xi", "1/3"])


def _written(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_consecutive_calls_match_separate_processes(tmp_path):
    """One process serving several calls, with a rejected argv between them,
    writes what one process per call writes."""
    import subprocess
    import sys
    from pathlib import Path

    from siacpost import cli
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    separate = tmp_path / "separate"
    for argv in KERNEL_CALLS:
        subprocess.run([sys.executable, "-m", "siacpost.cli", *argv, "--out", str(separate)],
                       env=env, check=True, capture_output=True, timeout=120)
    together = tmp_path / "together"
    assert main(KERNEL_CALLS[0] + ["--out", str(together)]) == 0
    with pytest.raises(SystemExit):
        main(["kernel", "np0", "1", "--bogus"])
    assert main(["kernel", "np0", "1", "left", "--samples", "-1", "--out", str(together)]) == 2
    assert main(KERNEL_CALLS[1] + ["--out", str(together)]) == 0
    assert _written(together) == _written(separate)


def test_handler_replaced_after_first_call_is_used(tmp_path, monkeypatch):
    from siacpost import cli
    assert main(["kernel", "np0", "1", "left", "--exact", "--out", str(tmp_path)]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_kernel", lambda args: seen.append(args.family) or 0)
    assert main(["kernel", "srv", "2", "left", "--exact", "--out", str(tmp_path)]) == 0
    assert seen == ["srv"]
    assert not (tmp_path / "kernel_srv_d2_left_coeffs.csv").exists()


def test_internal_key_error_is_runtime_failure(tmp_path, monkeypatch, capsys):
    from siacpost import harness

    def broken(config):
        raise KeyError("internal")

    monkeypatch.setattr(harness, "time_series_experiment", broken)
    rc = main(["converge", "tp1", "--d", "1", "--filters", "np0",
               "--n-list", "20,40", "--out", str(tmp_path / "c.csv")])
    assert rc == 1
    assert "internal" in capsys.readouterr().err
