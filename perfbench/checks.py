"""Output checks.  Each returns the number of failed operations it found.

An operation is one (N, T) field of a timeseries CSV, one kernel call of a
sweep, or one comparison against the reference convolution.
"""

from __future__ import annotations

import csv
import hashlib
import math
from fractions import Fraction
from pathlib import Path


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(p) for p in paths):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def study_failures(job: dict, rc: int, csv_path: Path) -> int:
    """Failed fields of one timeseries call.

    A bad exit code, a missing CSV or a wrong row count fails every field;
    otherwise a field fails when one of its error rows is missing or not
    finite, or a rate row at its time is not finite.
    """
    fields = job["items"]
    if rc != 0 or not csv_path.is_file():
        return fields
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return fields
    header, body = rows[0], rows[1:]
    kinds = [r[-1] for r in body]
    if (header[-1] != "kind" or
            [kinds.count("error"), kinds.count("rate")] != job["expected_rows"]):
        return fields
    per_field = job["expected_rows"][0] // fields
    counts: dict[tuple[int, float], int] = {}
    bad: set[tuple[int, float]] = set()
    bad_times: set[float] = set()
    for row in body:
        try:
            n, t, value = int(row[5]), float(row[6]), float(row[7])
        except (ValueError, IndexError):
            return fields
        finite = math.isfinite(value)
        if row[-1] == "error":
            counts[(n, t)] = counts.get((n, t), 0) + 1
            if not finite:
                bad.add((n, t))
        elif not finite:
            bad_times.add(t)
    expected = {(n, t) for n in job["mesh_sizes"] for t in job["final_times"]}
    for key in expected:
        if counts.get(key) != per_field or key[1] in bad_times:
            bad.add(key)
    return len(bad & expected) + len(set(counts) - expected)


def sweep_failures(job: dict, rcs: list[int], out: Path) -> int:
    """Failed calls of a kernel sweep.

    A call fails on a non-zero exit code, a missing CSV, or an endpoint
    vector whose entries do not sum to exactly 1 as rationals.
    """
    failed = len(job["calls"]) - len(rcs)
    for argv, rc in zip(job["calls"], rcs):
        tag = f"{argv[1]}_d{argv[2]}_{argv[3]}"
        vector = out / f"kernel_{tag}_endpoint_vector.csv"
        if rc != 0 or not (out / f"kernel_{tag}_coeffs.csv").is_file() \
                or endpoint_sum(vector) != 1:
            failed += 1
    return failed


def endpoint_sum(path: Path):
    """Exact sum of an endpoint-vector CSV, or None if it cannot be read."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return sum((Fraction(row[1]) for row in rows), Fraction(0)) if rows else None
    except (OSError, ValueError, IndexError, ZeroDivisionError):
        return None


def csv_value(csv_path: Path, filter_: str, region: str, norm: str, n: int, t: float):
    with open(csv_path, newline="") as fh:
        for row in csv.reader(fh):
            if (row[2:5] == [filter_, region, norm] and row[8] == "error"
                    and row[5] == str(n) and float(row[6]) == t):
                return float(row[7])
    return None


def close(value: float, reference: float, rel: float, floor: float) -> bool:
    """|value - reference| within a relative tolerance or an absolute floor."""
    return (math.isfinite(value) and
            abs(value - reference) <= max(floor, rel * abs(reference)))
