"""Spans and counters recorded around calls into each siacpost layer.

Wrappers go where the caller looks a name up: module globals for names
imported by value, the class for methods.  Every wrapped call is a frame on
one stack, so a layer's self time is its calls' time minus the time of the
wrapped calls they made.  Span wrappers also keep a (id, parent, name,
start, end) record in memory; counter wrappers, used on hot loops called
~1e5 times per run, only add to per-name sums.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter_ns

LAYERS = ("dg", "psiac", "harness", "filters", "exact", "spline", "cli")


class Tracer:
    def __init__(self):
        self.stack: list[list[int]] = []   # [span id, child ns] per open call
        self.spans: list[tuple] = []       # (id, parent, name, start, end)
        self.total_ns: Counter = Counter()  # inclusive time per name
        self.self_ns: Counter = Counter()   # self time per name
        self.layer_self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.dofs: Counter = Counter()      # element dofs handed to a name
        self.q_builds: list = []            # QMatrix objects assembled cold
        self.q_build_ns = 0
        self._next_id = 0

    def wrap(self, name: str, fn, span: bool = True, dofs=None):
        """Return fn wrapped as `name` (layer = text before the first dot)."""
        layer = name.split(".", 1)[0]
        stack, spans = self.stack, self.spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                tracer._next_id += 1
                sid = tracer._next_id
                parent = stack[-1][0] if stack else 0
            else:
                sid = parent = 0
            frame = [sid, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dt = t1 - t0
                own = dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                tracer.total_ns[name] += dt
                tracer.self_ns[name] += own
                tracer.layer_self_ns[layer] += own
                tracer.calls[name] += 1
                if dofs is not None:
                    tracer.dofs[name] += dofs(args)
                if span:
                    spans.append((sid, parent, name, t0, t1))

        return wrapper

    def wrap_q_matrix(self, cached):
        """Span around the lru-cached q_matrix that also times its misses."""
        traced = self.wrap("psiac.q_matrix", cached)
        tracer = self

        def q_matrix(*args, **kwargs):
            before = cached.cache_info().misses
            t0 = perf_counter_ns()
            qm = traced(*args, **kwargs)
            if cached.cache_info().misses > before:
                tracer.q_build_ns += perf_counter_ns() - t0
                tracer.q_builds.append(qm)
            return qm

        return functools.update_wrapper(q_matrix, cached)  # keeps cache_clear reachable

    def install(self) -> None:
        """Patch the public names of every layer of an imported siacpost."""
        from siacpost import cli, dg, exact, filters, harness, psiac, spline
        self.psiac = psiac

        def patch(owner, attr, name, **kw):
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

        def patch_shared(attr, name, owners):
            wrapped = self.wrap(name, getattr(owners[0], attr))
            for owner in owners:
                setattr(owner, attr, wrapped)

        # dg: harness calls dg.<name>; advance looks dg_rhs up in dg's globals
        for attr in ("advance", "l2_project", "to_bernstein", "dg_solve"):
            patch(dg, attr, f"dg.{attr}")
        patch(dg, "dg_rhs", "dg.dg_rhs", span=False,
              dofs=lambda args: args[0].coeffs.size)
        patch(dg, "invert_exact", "exact.invert_exact")

        # psiac
        for attr in ("filter_boundary", "symmetric_filter_eval"):
            patch(psiac, attr, f"psiac.{attr}")
        patch(psiac, "symmetric_filter_eval_local", "psiac.symmetric_filter_eval_local",
              span=False)
        psiac.q_matrix = self.wrap_q_matrix(psiac.q_matrix)
        patch(psiac.QMatrix, "contract", "psiac.QMatrix.contract")

        # filters, including names other modules imported by value
        patch_shared("build_spec", "filters.build_spec", (filters, psiac, harness))
        patch_shared("shifted_coefficient_polynomials",
                     "filters.shifted_coefficient_polynomials", (filters, psiac))
        patch_shared("static_coefficients", "filters.static_coefficients",
                     (filters, psiac))
        patch(filters, "reproduction_matrix", "filters.reproduction_matrix")

        # exact, as filters sees it
        for attr in ("invert_exact", "det_exact", "solve_exact"):
            patch(filters, attr, f"exact.{attr}")
        patch(exact.RatMatrix, "__matmul__", "exact.RatMatrix.__matmul__")

        # spline
        patch(psiac, "unit_bspline_piecewise", "spline.unit_bspline_piecewise")
        patch(filters, "bspline_moment", "spline.bspline_moment", span=False)
        patch(spline.PiecewisePolynomial, "integrate_against",
              "spline.PiecewisePolynomial.integrate_against", span=False)

        # harness and cli: cli looks harness.<name> up; make_parser reads cmd_*
        for attr in ("time_series_experiment", "region_norms", "write_csv"):
            patch(harness, attr, f"harness.{attr}")
        for attr in ("main", "cmd_timeseries", "cmd_kernel", "parse_config"):
            patch(cli, attr, f"cli.{attr}")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics by name (values only; units live in BENCHMARK.json)."""
        s = lambda name: self.total_ns[name] / 1e9
        ratio = lambda a, b: a / b if b else 0.0
        calls, ns = self.calls, self.total_ns
        weights = self.psiac.symmetric_filter_weights.cache_info()
        den_bits = [e.denominator.bit_length() for qm in self.q_builds for e in qm.q.entries]
        q_misses = len(self.q_builds)
        m = {f"{layer}.self_s": self.layer_self_ns[layer] / 1e9 for layer in LAYERS}
        m.update({
            "dg.advance_s": s("dg.advance"),
            "dg.rhs_calls": calls["dg.dg_rhs"],
            "dg.rk4_steps": calls["dg.dg_rhs"] // 4,
            "dg.rhs_ns_per_dof": ratio(ns["dg.dg_rhs"], self.dofs["dg.dg_rhs"]),
            "dg.project_s": s("dg.l2_project"),
            "dg.to_bernstein_s": s("dg.to_bernstein"),
            "psiac.contract_s": s("psiac.QMatrix.contract"),
            "psiac.contract_calls": calls["psiac.QMatrix.contract"],
            "psiac.contract_us_per_call":
                ratio(ns["psiac.QMatrix.contract"] / 1e3, calls["psiac.QMatrix.contract"]),
            "psiac.filter_boundary_s": s("psiac.filter_boundary"),
            "psiac.symmetric_eval_s": s("psiac.symmetric_filter_eval_local"),
            "psiac.symmetric_eval_calls": calls["psiac.symmetric_filter_eval_local"],
            "psiac.symmetric_eval_ns_per_point":
                ratio(ns["psiac.symmetric_filter_eval_local"],
                      calls["psiac.symmetric_filter_eval_local"]),
            "psiac.symmetric_weights_entries": weights.currsize,
            "psiac.symmetric_weights_hit_ratio":
                ratio(weights.hits, weights.hits + weights.misses),
            "psiac.q_matrix_build_s": self.q_build_ns / 1e9,
            "psiac.q_matrix_misses": q_misses,
            "psiac.q_matrix_hit_ratio":
                ratio(calls["psiac.q_matrix"] - q_misses, calls["psiac.q_matrix"]),
            "harness.region_norms_s": s("harness.region_norms"),
            "harness.write_csv_s": s("harness.write_csv"),
            "filters.build_spec_calls": calls["filters.build_spec"],
            "filters.coeff_polys_s": s("filters.shifted_coefficient_polynomials"),
            "filters.reproduction_matrix_s": s("filters.reproduction_matrix"),
            "exact.invert_s": s("exact.invert_exact"),
            "exact.invert_calls": calls["exact.invert_exact"],
            "exact.det_s": s("exact.det_exact"),
            "exact.solve_s": s("exact.solve_exact"),
            "exact.matmul_s": s("exact.RatMatrix.__matmul__"),
            "exact.q_den_bits_max": max(den_bits, default=0),
            "spline.piecewise_s": s("spline.unit_bspline_piecewise"),
            "spline.piecewise_calls": calls["spline.unit_bspline_piecewise"],
            "spline.moment_s": s("spline.bspline_moment"),
            "spline.moment_calls": calls["spline.bspline_moment"],
            "spline.integrate_calls": calls["spline.PiecewisePolynomial.integrate_against"],
            "cli.parse_config_s": s("cli.parse_config"),
            "cli.kernel_self_s": self.self_ns["cli.cmd_kernel"] / 1e9,
            "trace.spans": len(self.spans),
        })
        return m

    def dump(self, path) -> None:
        """Write the recorded spans and per-name sums as JSON."""
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns"],
                       "spans": self.spans,
                       "total_ns": dict(self.total_ns), "self_ns": dict(self.self_ns),
                       "calls": dict(self.calls)}, fh)
