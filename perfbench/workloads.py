"""Workload definitions and the seeded inputs each one hands to the program.

Each workload gives one layer of siacpost most of the wall time and leaves
it little work in the others, so an optimisation of that layer shows on one
workload and stays flat on the others (see README.md for the rationale).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import pi
from pathlib import Path

FILTERS = ("dg", "symmetric", "srv", "rlkv", "np0")
BOUNDARY_FILTERS = ("srv", "rlkv", "np0")
SIDES = ("left", "right")
KERNEL_FAMILIES = ("srv", "rlkv", "np0", "rs", "npk")
NPK_DEGREE = 1
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Study:
    """`siacpost timeseries` on one problem: solve, filter, measure, write."""

    problem: str
    d: int
    mesh_sizes: tuple[int, ...]
    span: float
    n_times: int

    def final_times(self, seed: int) -> list[float]:
        """n_times - 1 uniform draws over [0, span], sorted, plus the end time."""
        rng = random.Random(f"{self.problem}-d{self.d}-{seed}")
        draws = sorted(rng.uniform(0.0, self.span) for _ in range(self.n_times - 1))
        return draws + [self.span]

    @property
    def fields(self) -> int:
        return len(self.mesh_sizes) * self.n_times

    def expected_rows(self) -> tuple[int, int]:
        """(error rows, rate rows) of one timeseries CSV."""
        per_field = 2 * 2 + 2 * 2 * len(BOUNDARY_FILTERS)  # dg, symmetric, boundary
        errors = per_field * self.fields
        rates = per_field * self.n_times * (len(self.mesh_sizes) - 1)
        return errors, rates


@dataclass(frozen=True)
class Sweep:
    """Cold `siacpost kernel <family> <d> <side> --exact` calls."""

    degrees: tuple[int, ...]

    def calls(self, seed: int) -> list[list[str]]:
        """Every (family, d, side) once, in an order set by the seed."""
        argvs = [["kernel", family, str(d), side, "--exact"]
                 + (["--k", str(NPK_DEGREE)] if family == "npk" else [])
                 for family in KERNEL_FAMILIES for d in self.degrees for side in SIDES]
        random.Random(f"kernels-{seed}").shuffle(argvs)
        return argvs


WORKLOADS = {
    "tp2-d3-dense": Study("tp2", 3, (20, 40, 80, 160), 1.0, 8),
    "tp3-d2-long": Study("tp3", 2, (12, 24, 48), 2 * pi, 4),
    "kernels-cold": Sweep((1, 2, 3, 4)),
}


def write_job(name: str, seed: int, run_dir: Path) -> Path:
    """Write the generated inputs of one run and the job file workers read."""
    w = WORKLOADS[name]
    if isinstance(w, Sweep):
        calls = w.calls(seed)
        job = {"workload": name, "seed": seed, "kind": "sweep", "calls": calls,
               "items": len(calls)}
    else:
        cfg = run_dir / "study.cfg"
        times = w.final_times(seed)
        cfg.write_text(
            f"problem = {w.problem}\n"
            f"d = {w.d}\n"
            f"filters = {','.join(FILTERS)}\n"
            f"mesh_sizes = {','.join(str(n) for n in w.mesh_sizes)}\n"
            f"final_times = {','.join(repr(t) for t in times)}\n"
            "blend = true\n")
        job = {"workload": name, "seed": seed, "kind": "study", "config": str(cfg),
               "problem": w.problem, "d": w.d, "mesh_sizes": list(w.mesh_sizes),
               "final_times": times, "items": w.fields,
               "expected_rows": list(w.expected_rows())}
    path = run_dir / "job.json"
    path.write_text(json.dumps(job, indent=1))
    return path
