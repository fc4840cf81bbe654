"""The benchmark tracer still installs on the package and reports every metric.

perfbench/tracer.py patches names in every layer of siacpost, so deleting
one of them breaks only traced benchmark runs, which no other test makes.
The tracer patches modules globally, so the run goes in a subprocess.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
tracer = Tracer()
tracer.install()
from dataclasses import replace
from siacpost import cli, dg
out = ["--out", sys.argv[2]]
rcs = [cli.main(["timeseries", "--problem", "tp2", "--d", "2", "--mesh-sizes", "20,40",
                 "--filters", "dg,symmetric,srv,rlkv,np0", "--times", "0.1"] + out),
       cli.main(["kernel", "np0", "2", "left", "--exact"] + out),
       cli.main(["timeseries", "--problem", "tp3", "--d", "1", "--mesh-sizes", "12",
                 "--filters", "dg", "--times", "0.1"] + out)]
# no CLI problem steps through dg_rhs; Dirichlet tp3 keeps its wrapper's metrics nonzero
tp3 = replace(dg.get_problem("tp3"), bc="dirichlet")
dg.advance(dg.l2_project(tp3.u0, dg.Mesh(tp3.a, tp3.b, 12), 1), tp3, 0.01)
print(json.dumps({"rcs": rcs, "layers": tracer.layer_metrics()}))
"""

# perfbench/run.py adds these from the output files and the untraced runs
ADDED_BY_RUNNER = {"harness.csv_bytes", "harness.error_rows", "harness.rate_rows",
                   "cli.bytes_written", "trace.overhead_s"}


def test_tracer_installs_and_reports_every_layer_metric(tmp_path):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "perfbench"), str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rcs"] == [0, 0, 0]
    layers = result["layers"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} - set(layers) == ADDED_BY_RUNNER
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in layers.values())
    assert layers["dg.rk4_steps"] > 0 and layers["psiac.q_matrix_misses"] > 0
    # read from QMatrix.contract and QMatrix.q: 0 if the pipeline stopped reaching them
    assert layers["psiac.contract_calls"] > 0 and layers["exact.q_den_bits_max"] > 0
    # every exact product goes through RatMatrix.__matmul__, the boundary contraction's too
    assert layers["exact.matmul_s"] > 0
