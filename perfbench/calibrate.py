"""A fixed reference computation that gauges how fast the host runs now.

The host's speed drifts by up to ~1.7x from one minute to the next (other
tenants share its cores), and a drift moves every worker of a run alike.
Each worker times one pass of this computation right before and one right
after its timed call.  End-to-end times are reported at the reference
speed: scaled by REFERENCE_PASS_S over the mean of the two passes.  The
computation mixes the kinds of work siacpost does (interpreted loops and
many numpy calls on small arrays) and uses nothing of siacpost, so a change
to the program cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# about the seconds one pass takes at the host's fast speed (2-vCPU KVM
# guest, Xeon at 2.1 GHz, Python 3.11, numpy 2.4); only the unit of the
# scaled times depends on it
REFERENCE_PASS_S = 0.2


def _interpreted(n: int) -> float:
    s, table = 0.0, {}
    for i in range(n):
        s += (i * 0.5) % 7.0
        table[i & 1023] = s
    return s


def _small_numpy(n: int) -> np.ndarray:
    """Many calls on arrays of a few hundred numbers, as a DG step makes."""
    xq = np.linspace(0.0, 2 * np.pi, 480).reshape(80, 6)
    basis = np.full((6, 3), 0.3)
    c = np.full((80, 3), 0.1)
    for i in range(n):
        t = i * 1e-4
        u = c @ basis.T
        rate = (2.0 + np.sin(xq + t)) * u @ basis + (np.cos(xq - t) + np.sin(2 * xq)) @ basis
        c = 0.5 * c + 1e-3 * (rate + c.sum(axis=1)[:, None])
    return c


def reference_pass() -> float:
    """Seconds taken by one pass of the reference computation."""
    t0 = perf_counter()
    _interpreted(600_000)
    _small_numpy(3_000)
    return perf_counter() - t0


def speed_factor(passes: list[float]) -> float:
    """Reference speed over the speed the passes saw (1 on a fast host)."""
    return REFERENCE_PASS_S * len(passes) / sum(passes)
