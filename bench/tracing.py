"""Span recorder for the traced run.

``Tracer.installed`` replaces the package's entry points with timing
wrappers for the duration of a ``with`` block. Names are patched where
they are looked up: ``from .x import y`` binds a copy of ``y`` in the
importing module, so ``conebarrier.sim.integrate_step`` and
``conebarrier.validity.hocbf_terms`` are patched in ``sim`` and
``validity``, not in ``models`` and ``barriers``.

A span is ``[name, start_ns, end_ns, parent_index, info, info_ns]``;
``info`` holds the counts measured at that boundary (rows of a QP, states of
a barrier call, bytes of a CSV) and ``info_ns`` the time taken to measure
them, which is charged to neither the span nor its parent. Spans stay in memory and are written out once at
the end. ``layer_metrics`` reduces them to the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

TERMS = ("c3bf_unicycle_terms", "c3bf_bicycle_terms", "c3bf_pointmass_terms",
         "ellipse_terms", "hocbf_terms")
QP_STATUSES = ("inactive", "corrected", "infeasible")
FEAS_TOL = 1e-9


def _trace_len(args, kwargs, out):
    return len(out.t)


def _terms_info(args, kwargs, out):
    state = np.asarray(args[0])
    return [int(state.size // state.shape[-1]), state.ndim == 1]


def _qp_info(args, kwargs, out):
    """Row count, status, and how many rows the returned input violates."""
    qp = args[0]
    u = out.u_star
    n = len(qp.rows)
    if not np.all(np.isfinite(u)):
        return [n, out.status, max(n, 1)]
    violations = 0
    if n and out.status != "infeasible":
        a = np.array([row.lg_h for row in qp.rows])
        b = np.array([row.rhs for row in qp.rows])
        scale = np.maximum(1.0, np.maximum(np.abs(b), np.linalg.norm(a, axis=1) * np.linalg.norm(u)))
        violations = int(np.sum(a @ u - b < -FEAS_TOL * scale))
    if out.status == "inactive" and not np.array_equal(u, qp.u_ref):
        violations += 1
    return [n, out.status, violations]


def _csv_info(args, kwargs, out):
    trace, path = args[0], args[1]
    return [os.path.getsize(path), len(trace.t)]


def _patch_table(pkg):
    """(module, attribute, span name, info function) for every wrapped entry point."""
    sim, cli, validity, barriers = pkg.sim, pkg.cli, pkg.validity, pkg.barriers
    table = [
        (sim, "run_scenario", "sim.run_scenario", _trace_len),
        (cli, "run_scenario", "sim.run_scenario", _trace_len),
        (cli, "invariance_audit", "sim.invariance_audit", None),
        (cli, "beta_smallness_audit", "sim.beta_smallness_audit", None),
        (sim, "integrate_step", "models.integrate_step", None),
        (sim, "solve_multi_constraint", "safety_filter.solve_multi_constraint", _qp_info),
        (sim, "reference_path_tracker", "safety_filter.reference_path_tracker", None),
        (validity, "validity_probe", "validity.validity_probe", None),
        (cli, "main", "cli.main", None),
        (cli, "_emit", "cli.emit", None),
        (cli, "write_trace_csv", "cli.write_trace_csv", _csv_info),
        (cli, "load_configs", "scenarios.load_configs", None),
    ]
    table += [(module, name, "barriers.terms", _terms_info)
              for module in (barriers, validity) for name in TERMS]
    return table


class Tracer:
    """Records spans from wrapped entry points while installed."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name, info):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, out)
                span[5] = time.perf_counter_ns() - span[2]
            return out

        return wrapper

    @contextmanager
    def installed(self):
        originals = []
        try:
            for module, attr, name, info in _patch_table(self.pkg):
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, info))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def write(self, path) -> None:
        payload = {"fields": ["name", "start_ns", "end_ns", "parent", "info", "info_ns"],
                   "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _durations_us(spans, name, parent_names=None):
    return np.array([(s[2] - s[1]) / 1e3 for s in spans
                     if s[0] == name and (parent_names is None or s[3] >= 0
                                          and spans[s[3]][0] in parent_names)])


def count_metrics(spans) -> dict:
    """The exact counts of a traced pass; two passes on the same inputs must agree."""
    names = Counter(s[0] for s in spans)
    engine = {"sim.run_scenario"}
    qp = [s[4] for s in spans if s[0] == "safety_filter.solve_multi_constraint"]
    terms = [s[4] for s in spans if s[0] == "barriers.terms"]
    status = Counter(q[1] for q in qp)
    return {
        "sim.steps": sum(1 for s in spans if s[0] == "safety_filter.solve_multi_constraint"
                         and s[3] >= 0 and spans[s[3]][0] in engine),
        "sim.rows_built": sum(q[0] for q in qp),
        "models.rk4_calls": len(_durations_us(spans, "models.integrate_step", engine)),
        "barriers.terms_calls": len(terms),
        "barriers.terms_states": sum(t[0] for t in terms),
        "barriers.terms_calls_scalar": sum(1 for t in terms if t[1]),
        "safety_filter.qp_calls": len(qp),
        "safety_filter.qp_rows_max": max((q[0] for q in qp), default=0),
        **{f"safety_filter.qp_{k}": status.get(k, 0) for k in QP_STATUSES},
        "safety_filter.qp_feasibility_violations": sum(q[2] for q in qp),
        "safety_filter.tracker_calls": names["safety_filter.reference_path_tracker"],
        "validity.probe_calls": names["validity.validity_probe"],
        "cli.csv_bytes": sum(s[4][0] for s in spans if s[0] == "cli.write_trace_csv"),
    }


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass whose timed ops took ``wall_s``."""
    counts = count_metrics(spans)
    wall_us = wall_s * 1e6
    child_us = np.zeros(len(spans))
    for s in spans:
        if s[3] >= 0:
            child_us[s[3]] += (s[2] - s[1] + s[5]) / 1e3

    def total(name):
        return float(sum((s[2] - s[1]) / 1e3 for s in spans if s[0] == name))

    def per(num, den):
        return float(num) / den if den else 0.0

    runs = [i for i, s in enumerate(spans) if s[0] == "sim.run_scenario"]
    sim_self = sum((spans[i][2] - spans[i][1]) / 1e3 - child_us[i] for i in runs)
    audit_us = total("sim.invariance_audit") + total("sim.beta_smallness_audit")
    rk4 = _durations_us(spans, "models.integrate_step", {"sim.run_scenario"})
    terms_us = total("barriers.terms")
    qp = _durations_us(spans, "safety_filter.solve_multi_constraint")
    emits = [i for i, s in enumerate(spans) if s[0] == "cli.emit"]
    emit_audit = sum((s[2] - s[1]) / 1e3 for s in spans
                     if s[0].startswith("sim.") and s[0].endswith("_audit")
                     and s[3] >= 0 and spans[s[3]][0] == "cli.emit")
    emit_us = sum((spans[i][2] - spans[i][1]) / 1e3 for i in emits) - emit_audit
    csv_rows = sum(s[4][1] for s in spans if s[0] == "cli.write_trace_csv")
    probes = _durations_us(spans, "validity.validity_probe")
    steps = counts["sim.steps"]

    return {
        "sim.self_us_per_step": per(sim_self, steps),
        "sim.steps": steps,
        "sim.rows_built": counts["sim.rows_built"],
        "sim.audit_us_per_run": per(audit_us, len(runs)),
        "models.rk4_calls": counts["models.rk4_calls"],
        "models.rk4_us_per_call": per(rk4.sum(), rk4.size),
        "models.rk4_share": per(rk4.sum(), wall_us),
        "barriers.terms_calls": counts["barriers.terms_calls"],
        "barriers.terms_states": counts["barriers.terms_states"],
        "barriers.terms_calls_scalar": counts["barriers.terms_calls_scalar"],
        "barriers.terms_us_per_call": per(terms_us, counts["barriers.terms_calls"]),
        "barriers.terms_ns_per_state": per(terms_us * 1e3, counts["barriers.terms_states"]),
        "barriers.terms_share": per(terms_us, wall_us),
        "safety_filter.qp_calls": counts["safety_filter.qp_calls"],
        "safety_filter.qp_us_p50": float(np.percentile(qp, 50)) if qp.size else 0.0,
        "safety_filter.qp_us_p99": float(np.percentile(qp, 99)) if qp.size else 0.0,
        "safety_filter.qp_share": per(qp.sum(), wall_us),
        "safety_filter.qp_rows_mean": per(counts["sim.rows_built"], counts["safety_filter.qp_calls"]),
        "safety_filter.qp_rows_max": counts["safety_filter.qp_rows_max"],
        **{f"safety_filter.qp_{k}": counts[f"safety_filter.qp_{k}"] for k in QP_STATUSES},
        "safety_filter.qp_feasibility_violations": counts["safety_filter.qp_feasibility_violations"],
        "safety_filter.tracker_calls": counts["safety_filter.tracker_calls"],
        "safety_filter.tracker_us_per_call": per(total("safety_filter.reference_path_tracker"),
                                                 counts["safety_filter.tracker_calls"]),
        "validity.probe_calls": counts["validity.probe_calls"],
        "validity.probe_s_max": float(probes.max()) / 1e6 if probes.size else 0.0,
        "cli.emit_share": per(emit_us, wall_us),
        "cli.csv_bytes": counts["cli.csv_bytes"],
        "cli.csv_us_per_row": per(total("cli.write_trace_csv"), csv_rows),
    }
