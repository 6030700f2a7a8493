"""Command-line front end: batch runs, the validity matrix, and audits.

Subcommands:

* ``conebarrier run``      — simulate scenario configs (default: the packaged
  suite) and emit per-scenario trace CSVs, event and summary JSON, and
  plot-ready JSON. Exit 0 only when no run records a collision; 1 when one
  does; 2 on configuration errors (no partial outputs are written) and on a
  run that blows up (a non-finite separation, barrier row, filtered input
  or state), which is reported on one stderr line; the files already
  written for earlier scenarios of the batch stay.
* ``conebarrier validity`` — print the barrier/model verdict matrix (or one
  --barrier/--model row) from the sampling probes, optionally writing it as
  JSON.
* ``conebarrier audit``    — run the suite plus the invariance, recovery,
  slip-angle and QP checks and report machine-readable pass/fail lines; the
  QP check judges the filter on 60 seeded instances against
  ``safety_filter.grid_project``, the grid oracle the tests use. Nonzero
  exit on any failure, 2 on configuration errors and blown-up runs as for
  ``run``.

Bad input (an unknown emit kind, a negative --seed, a barrier not defined
for the model, whether a validity cell or a ``run`` or ``audit`` scenario
after its --barrier override) exits 2 with one ``config error:`` line on
stderr before anything runs or is written.

The output directory resolves from --out, then the CONEBARRIER_OUT
environment variable, then ./runs. Trace CSVs use '.' decimals, LF line
endings, a mandatory header and 17 significant digits so parsing one
reproduces the in-memory arrays bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .barriers import combined_radius
from .models import INPUT_NAMES, MODELS, STATE_NAMES
from .safety_filter import GRID_FINE, QpProblem, grid_project, solve_multi_constraint
from .scenarios import (
    EXPECTED_BEHAVIORS,
    full_suite,
    load_configs,
    with_overrides,
)
from .sim import (
    BARRIER_KINDS,
    BETA_LIMIT,
    ConfigError,
    ScenarioTrace,
    beta_smallness_audit,
    classify_behavior,
    invariance_audit,
    run_scenario,
)
from .validity import BARRIERS, MATRIX_ROWS, verdict_matrix, verdict_row

EMIT_KINDS = ("trace-csv", "events-json", "summary-json", "plotdata")
FLAG_EVENTS = ("collision", "degenerate_velocity", "infeasible", "saturation")
"""Event kinds flagged per step in the trace CSV."""


def trace_csv_rows(trace: ScenarioTrace):
    """Header plus formatted rows (one string each) for one trace."""
    cfg = trace.config
    n_rec, n_obs = trace.h.shape
    header = ["t"]
    header += [f"state_{n}" for n in STATE_NAMES[cfg.model]]
    header += [f"u_ref_{n}" for n in INPUT_NAMES[cfg.model]]
    header += [f"u_star_{n}" for n in INPUT_NAMES[cfg.model]]
    for k in range(n_obs):
        header += [f"h_{k}", f"psi_{k}", f"sep_{k}", f"in_range_{k}",
                   f"constrained_{k}", f"qp_active_{k}",
                   f"obs{k}_cx", f"obs{k}_cy", f"obs{k}_vx", f"obs{k}_vy"]
    header += [f"event_{kind}" for kind in FLAG_EVENTS]

    flags = np.zeros((n_rec, len(FLAG_EVENTS)))
    for e in trace.events:
        if e.kind in FLAG_EVENTS:
            idx = int(round(e.time / cfg.dt))
            if 0 <= idx < n_rec:
                flags[idx, FLAG_EVENTS.index(e.kind)] = 1.0
    per_obstacle = np.concatenate(
        [np.stack([trace.h, trace.psi, trace.sep, trace.in_range, trace.constrained,
                   trace.qp_active], axis=2),
         trace.obstacle_centers, trace.obstacle_velocities], axis=2).reshape(n_rec, 10 * n_obs)
    table = np.column_stack([trace.t, trace.states, trace.u_ref, trace.u_star,
                             per_obstacle, flags])
    fmt = ",".join(["%.17g"] * (1 + trace.states.shape[1] + 4)
                   + (["%.17g"] * 3 + ["%d"] * 3 + ["%.17g"] * 4) * n_obs
                   + ["%d"] * len(FLAG_EVENTS))
    return header, [fmt % tuple(row) for row in table.tolist()]


def write_trace_csv(trace: ScenarioTrace, path: Path) -> None:
    header, rows = trace_csv_rows(trace)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row + "\n" for row in rows)


def parse_trace_csv(path) -> dict[str, np.ndarray]:
    """Read an emitted trace back into named float columns."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = [[] for _ in header]
        for row in reader:
            for j, cell in enumerate(row):
                cols[j].append(float(cell))
    return {name: np.array(col) for name, col in zip(header, cols)}


def _summary_payload(trace: ScenarioTrace) -> dict:
    payload = trace.summary()
    inv = invariance_audit(trace)
    payload["invariance"] = {
        "started_safe": inv.started_safe,
        "min_h": None if math.isnan(inv.min_h) else inv.min_h,
        "max_discrete_violation": inv.max_discrete_violation,
        "recovery_rate": inv.recovery_rate,
        "crossed_positive": inv.crossed_positive,
    }
    if trace.config.model == "bicycle":
        beta = beta_smallness_audit(trace)
        payload["beta_audit"] = {
            "max_abs_beta": beta.max_abs_beta,
            "max_divergence": beta.max_divergence,
            "path_length": beta.path_length,
            "divergence_ratio": beta.divergence_ratio,
            "flagged": beta.flagged,
        }
    if math.isnan(payload["min_h"]):
        payload["min_h"] = None
    return payload


def _plotdata_payload(trace: ScenarioTrace) -> dict:
    cfg = trace.config
    return {
        "name": cfg.name,
        "model": cfg.model,
        "t": trace.t.tolist(),
        "x": trace.states[:, 0].tolist(),
        "y": trace.states[:, 1].tolist(),
        "speed": trace.states[:, 3].tolist() if cfg.model != "pointmass"
                 else np.linalg.norm(trace.states[:, 2:4], axis=1).tolist(),
        "h": [np.where(np.isfinite(trace.h[:, k]), trace.h[:, k], None).tolist()
              for k in range(trace.h.shape[1])],
        "sep": [trace.sep[:, k].tolist() for k in range(trace.sep.shape[1])],
        "filter_active": trace.filter_active.astype(int).tolist(),
        "obstacles": [
            {
                "cx": trace.obstacle_centers[:, k, 0].tolist(),
                "cy": trace.obstacle_centers[:, k, 1].tolist(),
                "combined_radius": float(combined_radius(cfg.obstacles[k].semi_axes, cfg.width)),
            }
            for k in range(trace.h.shape[1])
        ],
    }


def _resolve_out(args) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get("CONEBARRIER_OUT")
    return Path(env) if env else Path("runs")


def _emit(trace: ScenarioTrace, out_dir: Path, emit: set) -> dict:
    """Write the requested outputs of one run; return its summary."""
    name = trace.config.name
    summary = _summary_payload(trace) if "summary-json" in emit else trace.summary()
    if "trace-csv" in emit:
        write_trace_csv(trace, out_dir / f"{name}_trace.csv")
    if "events-json" in emit:
        payload = [
            {"kind": e.kind, "time": e.time, "obstacle": e.obstacle, "detail": e.detail}
            for e in trace.events
        ]
        (out_dir / f"{name}_events.json").write_text(json.dumps(payload, indent=2))
    if "summary-json" in emit:
        (out_dir / f"{name}_summary.json").write_text(json.dumps(summary, indent=2))
    if "plotdata" in emit:
        (out_dir / f"{name}_plotdata.json").write_text(
            json.dumps(_plotdata_payload(trace), indent=2))
    return summary


def _load_batch(args) -> list:
    if args.config:
        configs = load_configs(args.config)
    else:
        configs = list(full_suite().values())
    return [
        with_overrides(cfg, barrier=args.barrier, dt=args.dt, duration=args.duration)
        for cfg in configs
    ]


def _config_error(message) -> int:
    print(f"config error: {message}", file=sys.stderr)
    return 2


def cmd_run(args) -> int:
    emit = set(args.emit.split(",")) if args.emit else set(EMIT_KINDS[:3])
    unknown = emit - set(EMIT_KINDS)
    if unknown:
        return _config_error(f"unknown emit kind(s) {sorted(unknown)}")
    try:
        configs = _load_batch(args)
    except (ConfigError, OSError) as exc:
        return _config_error(exc)
    out_dir = _resolve_out(args)
    out_dir.mkdir(parents=True, exist_ok=True)

    any_collision = False
    for cfg in configs:
        try:
            summary = _emit(run_scenario(cfg), out_dir, emit)
        except ArithmeticError as exc:
            print(f"run error: {exc}", file=sys.stderr)
            return 2
        collided = not summary["collision_free"]
        any_collision = any_collision or collided
        min_h = math.nan if summary["min_h"] is None else summary["min_h"]  # JSON null
        print(f"{cfg.name}: behavior={summary['behavior']} "
              f"collision_free={summary['collision_free']} min_h={min_h}")
        if collided:
            print(f"{cfg.name}: collision recorded", file=sys.stderr)
    return 1 if any_collision else 0


def cmd_validity(args) -> int:
    cell = (args.barrier or "c3bf", args.model or "unicycle")
    if args.samples < 1000:
        return _config_error("--samples must be at least 1000")
    if args.seed < 0:
        return _config_error("--seed must be nonnegative")
    if cell not in MATRIX_ROWS:
        return _config_error(f"the {cell[0]} barrier is not defined for the {cell[1]} model")
    out_dir = _resolve_out(args)
    if args.model or args.barrier:
        rows = [verdict_row(*cell, samples=args.samples, seed=args.seed)]
    else:
        rows = verdict_matrix(samples=args.samples, seed=args.seed)

    width = max(len(r["barrier"]) + len(r["model"]) for r in rows) + 4
    print(f"{'candidate / model':{width}s} {'static obstacle':32s} moving obstacle")
    for r in rows:
        tag = " (extension)" if r["extension"] else ""
        label = f"{r['barrier']} / {r['model']}{tag}"
        print(f"{label:{width}s} {r['static']:32s} {r['moving']}")
    if args.out or os.environ.get("CONEBARRIER_OUT"):
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "validity.json").write_text(json.dumps(rows, indent=2))
        print(f"wrote {out_dir / 'validity.json'}")
    return 0


def _audit_checks(args) -> list[dict]:
    configs = _load_batch(args)
    traces = {cfg.name: run_scenario(cfg) for cfg in configs}
    checks = []

    names = set(traces)
    barrier_on = {n: tr for n, tr in traces.items() if tr.config.barrier != "none"}
    collided = sorted(n for n, tr in barrier_on.items() if tr.collided())
    checks.append({
        "name": "collision_free",
        "passed": not collided,
        "detail": f"collisions in {collided}" if collided else
                  f"{len(barrier_on)} barrier-enabled runs, zero collision events",
    })

    expected = {n: b for n, b in EXPECTED_BEHAVIORS.items() if n in names}
    if expected:
        got = {n: classify_behavior(traces[n]) for n in expected}
        bad = {n: (expected[n], got[n]) for n in expected if got[n] != expected[n]}
        checks.append({
            "name": "behavior_labels",
            "passed": not bad,
            "detail": f"mismatches {bad}" if bad else f"{len(expected)} labels match",
        })

    safe_start = {n: tr for n, tr in barrier_on.items()
                  if invariance_audit(tr).started_safe and np.any(np.isfinite(tr.h))}
    inv_ok = True
    details = []
    for n, tr in sorted(safe_start.items()):
        viol = max(0.0, -tr.min_h())
        ok = viol <= 1e-3
        half = run_scenario(replace(tr.config, dt=tr.config.dt / 2))
        viol_half = max(0.0, -half.min_h())
        tightened = viol_half <= max(viol / 2, 1e-6)
        inv_ok = inv_ok and ok and tightened
        details.append(f"{n}: viol={viol:.2e} viol(dt/2)={viol_half:.2e}")
    checks.append({
        "name": "invariance_safe_start",
        "passed": inv_ok and bool(safe_start),
        "detail": "; ".join(details) if details else "no safe-start runs in batch",
    })

    recovery = {n: tr for n, tr in barrier_on.items() if "recovery" in n}
    rec_ok = bool(recovery)
    details = []
    for n, tr in sorted(recovery.items()):
        rep = invariance_audit(tr)
        gamma = rep.rate_target
        ok = (rep.recovery_rate is not None and rep.crossed_positive
              and abs(rep.recovery_rate - gamma) <= 0.3 * gamma)
        rec_ok = rec_ok and ok
        details.append(f"{n}: rate={rep.recovery_rate} target={gamma} "
                       f"crossed={rep.crossed_positive}")
    checks.append({
        "name": "violation_recovery",
        "passed": rec_ok,
        "detail": "; ".join(details) if details else "no recovery scenario in batch",
    })

    bikes = {n: tr for n, tr in barrier_on.items() if tr.config.model == "bicycle"}
    beta_ok = True
    details = []
    for n, tr in sorted(bikes.items()):
        rep = beta_smallness_audit(tr)
        ok = rep.max_abs_beta < BETA_LIMIT and rep.divergence_ratio < 0.05
        beta_ok = beta_ok and ok
        details.append(f"{n}: max|beta|={rep.max_abs_beta:.3f} "
                       f"divergence={100 * rep.divergence_ratio:.2f}%")
    checks.append({
        "name": "beta_smallness",
        "passed": beta_ok,
        "detail": "; ".join(details) if details else "no bicycle runs in batch",
    })

    if "braking_unicycle" in traces:
        neg = run_scenario(replace(traces["braking_unicycle"].config, barrier="none"))
        checks.append({
            "name": "negative_control",
            "passed": neg.collided(),
            "detail": "unfiltered braking setup collides" if neg.collided()
                      else "unfiltered braking setup unexpectedly avoided collision",
        })

    rng = np.random.default_rng(args.seed)
    # As acceptance criterion 3: u* feasible, active rows tight, no worse than the
    # grid and within |u_g - u*|^2 <= f(u_g) - f(u*), which only the exact projection
    # obeys; an infeasible verdict leaves no feasible grid point with |u|_inf <= 9.
    worst_feas = worst_slack = 0.0
    worst_gap = worst_proj = -np.inf
    evaluated = refuted = 0
    for _ in range(60):
        u_ref = rng.uniform(-3, 3, 2)
        rows = []
        for _ in range(rng.integers(1, 4)):
            ang = rng.uniform(0, 2 * np.pi)
            rows.append((np.array([np.cos(ang), np.sin(ang)]), float(rng.uniform(-2, 2))))
        result = solve_multi_constraint(QpProblem(u_ref, *map(np.array, zip(*rows))))
        ref = grid_project(u_ref, rows, deep=result.status != "infeasible")
        if result.status == "infeasible":
            refuted += ref is not None and float(np.max(np.abs(ref))) <= 9.0
            continue
        for j, (lg, rhs) in enumerate(rows):
            resid = float(lg @ result.u_star) - rhs
            worst_feas = max(worst_feas, -resid)
            if j in result.active_set:
                worst_slack = max(worst_slack, abs(resid))
        if ref is None or float(np.max(np.abs(result.u_star))) > 8.5:
            continue
        evaluated += 1
        f_star = float(np.sum((result.u_star - u_ref) ** 2))
        f_grid = float(np.sum((ref - u_ref) ** 2))
        worst_gap = max(worst_gap, f_star - f_grid)
        worst_proj = max(worst_proj,
                         float(np.sum((ref - result.u_star) ** 2)) - (f_grid - f_star))
    ok = (worst_feas <= 1e-9 and worst_slack <= 1e-9 and worst_gap <= 1e-9
          and worst_proj <= 2 * (2 * GRID_FINE) ** 2 and not refuted)
    checks.append({
        "name": "qp_grid_oracle",
        "passed": ok and evaluated > 0,
        "detail": f"{evaluated} instances: max infeasibility={worst_feas:.2e}, "
                  f"objective vs grid={worst_gap:.2e}, projection residual={worst_proj:.2e}, "
                  f"max active residual={worst_slack:.2e}, infeasible verdicts refuted={refuted}",
    })
    return checks


def cmd_audit(args) -> int:
    if args.seed < 0:
        return _config_error("--seed must be nonnegative")
    try:
        checks = _audit_checks(args)
    except (ConfigError, OSError) as exc:
        return _config_error(exc)
    except ArithmeticError as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 2
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}")
    passed = all(c["passed"] for c in checks)
    out_dir = _resolve_out(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"passed": passed, "checks": checks,
               "grid_step": GRID_FINE, "seed": args.seed}
    (out_dir / "audit.json").write_text(json.dumps(payload, indent=2))
    print(f"wrote {out_dir / 'audit.json'}")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conebarrier",
        description="Collision-cone barrier filtering: scenario runs, validity matrix, audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate scenarios and emit traces")
    run_p.add_argument("--config", action="append", default=None,
                       help="YAML scenario file or directory (repeatable); "
                            "defaults to the packaged suite")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--emit", default=None,
                       help="comma list of " + ",".join(EMIT_KINDS))
    run_p.add_argument("--dt", type=float, default=None, help="timestep override (s)")
    run_p.add_argument("--duration", type=float, default=None, help="duration override (s)")
    run_p.add_argument("--barrier", default=None,
                       help="barrier override: " + "|".join(BARRIER_KINDS))
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validity", help="barrier/model verdict matrix")
    val_p.add_argument("--model", default=None, choices=MODELS)
    val_p.add_argument("--barrier", default=None, choices=BARRIERS)
    val_p.add_argument("--samples", type=int, default=10000)
    val_p.add_argument("--seed", type=int, default=0)
    val_p.add_argument("--out", default=None)
    val_p.set_defaults(func=cmd_validity)

    audit_p = sub.add_parser("audit", help="invariance, recovery, slip and QP checks")
    audit_p.add_argument("--config", action="append", default=None)
    audit_p.add_argument("--out", default=None)
    audit_p.add_argument("--dt", type=float, default=None)
    audit_p.add_argument("--duration", type=float, default=None)
    audit_p.add_argument("--seed", type=int, default=0)
    audit_p.add_argument("--barrier", default=None)
    audit_p.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
