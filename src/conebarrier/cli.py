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
* ``conebarrier audit``    — run the suite (or the given configs) and report
  one machine-readable pass/fail line per ``claims`` judge: collisions,
  behaviour labels, forward invariance, recovery rate, slip smallness, the
  negative control, and the filter QP on 60 instances drawn from --seed,
  judged against the QP solved exactly in rationals (``claims.exact_qp``)
  under the bounds the acceptance tests pin. Nonzero exit on any failure,
  2 on configuration errors and blown-up runs as for ``run``.

Bad input (an unknown emit kind, a negative --seed, a validity --samples
outside [1000, MAX_SAMPLES], a barrier not defined for the model, whether a
validity cell or a ``run`` or ``audit`` scenario after its --barrier
override, a scenario name that is empty, holds '/', '\\' or a character
that does not print, or one that two configs of a batch share) exits 2 with
one ``config error:`` line on stderr before anything runs or is written: a
name names its outputs. So does an output directory that cannot be made,
which each command makes after checking its input and before any scenario
or probe runs. The commands raise; ``main`` alone prints the error line.

The output directory resolves from --out, then the CONEBARRIER_OUT
environment variable, then ./runs (``validity`` writes only to a named
one). Trace CSVs use '.' decimals, LF line endings, a mandatory header and
17 significant digits so parsing one reproduces the in-memory arrays bit for bit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import claims
from .claims import beta_smallness_audit, invariance_audit
from .models import INPUT_NAMES, MODELS, STATE_NAMES
from .scenarios import BARRIER_KINDS, ConfigError, full_suite, load_configs, with_overrides
from .sim import ScenarioTrace, run_scenario
from .validity import BARRIERS, MATRIX_ROWS, verdict_matrix, verdict_row

EMIT_KINDS = ("trace-csv", "events-json", "summary-json", "plotdata")
FLAG_EVENTS = ("collision", "degenerate_velocity", "infeasible", "saturation")
"""Event kinds flagged per step in the trace CSV."""
MAX_SAMPLES = 1_000_000
"""Largest validity --samples: the matrix holds about 0.35 KB per sample, so 350 MB here."""


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

    edges = trace.edges()
    flags = [edges[kind].reshape(n_rec, -1).any(axis=1) for kind in FLAG_EVENTS]
    per_obstacle = np.concatenate(
        [np.stack([trace.h, trace.psi, trace.sep, trace.in_range, trace.constrained,
                   trace.qp_active], axis=2),
         trace.obstacle_centers, trace.obstacle_velocities], axis=2).reshape(n_rec, 10 * n_obs)
    table = np.column_stack([trace.t, trace.states, trace.u_ref, trace.u_star,
                             per_obstacle, *flags])
    fmt = ",".join(["%.17g"] * (1 + trace.states.shape[1] + 4)
                   + (["%.17g"] * 3 + ["%d"] * 3 + ["%.17g"] * 4) * n_obs
                   + ["%d"] * len(FLAG_EVENTS))
    return header, [fmt % tuple(row) for row in table.tolist()]


def write_trace_csv(trace: ScenarioTrace, path: Path) -> None:
    header, rows = trace_csv_rows(trace)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row + "\n" for row in rows)


def _json_block(fields: dict) -> dict:
    """``fields`` with each NaN as None: JSON cannot carry NaN, which a minimum over
    no obstacle (min_h, min_separation) is."""
    return {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in fields.items()}


def _summary_payload(trace: ScenarioTrace) -> dict:
    payload = _json_block(trace.summary())
    # The audits are called through this module's names: bench/tracing.py times them there.
    payload["invariance"] = _json_block(dataclasses.asdict(invariance_audit(trace)))
    if trace.config.model == "bicycle":
        payload["beta_audit"] = _json_block(dataclasses.asdict(beta_smallness_audit(trace)))
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
                "combined_radius": float(trace.radii[k]),
            }
            for k in range(trace.h.shape[1])
        ],
    }


def _emit(trace: ScenarioTrace, out_dir: Path, emit: set) -> dict:
    """Write the requested outputs of one run; return its summary."""
    name = trace.config.name
    summary = _summary_payload(trace) if "summary-json" in emit else trace.summary()
    if "trace-csv" in emit:
        write_trace_csv(trace, out_dir / f"{name}_trace.csv")
    if "events-json" in emit:
        payload = [dataclasses.asdict(e) for e in trace.events]
        (out_dir / f"{name}_events.json").write_text(json.dumps(payload, indent=2))
    if "summary-json" in emit:
        (out_dir / f"{name}_summary.json").write_text(json.dumps(summary, indent=2))
    if "plotdata" in emit:
        (out_dir / f"{name}_plotdata.json").write_text(
            json.dumps(_plotdata_payload(trace), indent=2))
    return summary


def _load_batch(args) -> list:
    configs = load_configs(args.config) if args.config else list(full_suite().values())
    repeated = sorted(n for n, count in Counter(c.name for c in configs).items() if count > 1)
    if repeated:  # a name names a run's output files
        raise ConfigError(f"scenario name(s) {repeated} appear more than once in the batch")
    return [with_overrides(cfg, barrier=args.barrier, dt=args.dt, duration=args.duration)
            for cfg in configs]


def _out_dir(args, default: str | None) -> Path | None:
    """Make and return the output directory: --out, then CONEBARRIER_OUT, then ``default``."""
    out = args.out or os.environ.get("CONEBARRIER_OUT") or default
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        return Path(out)


def cmd_run(args) -> int:
    emit = set(args.emit.split(",")) if args.emit else set(EMIT_KINDS[:3])
    unknown = emit - set(EMIT_KINDS)
    if unknown:
        raise ConfigError(f"unknown emit kind(s) {sorted(unknown)}")
    configs = _load_batch(args)
    out_dir = _out_dir(args, "runs")

    any_collision = False
    for cfg in configs:
        summary = _emit(run_scenario(cfg), out_dir, emit)
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
    if not 1000 <= args.samples <= MAX_SAMPLES:
        raise ConfigError(f"--samples must be between 1000 and {MAX_SAMPLES}")
    if args.seed < 0:
        raise ConfigError("--seed must be nonnegative")
    if cell not in MATRIX_ROWS:
        raise ConfigError(f"the {cell[0]} barrier is not defined for the {cell[1]} model")
    out_dir = _out_dir(args, None)
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
    if out_dir:
        (out_dir / "validity.json").write_text(json.dumps(rows, indent=2))
        print(f"wrote {out_dir / 'validity.json'}")
    return 0


def cmd_audit(args) -> int:
    if args.seed < 0:
        raise ConfigError("--seed must be nonnegative")
    configs = _load_batch(args)
    out_dir = _out_dir(args, "runs")
    traces = {cfg.name: run_scenario(cfg) for cfg in configs}
    judges = (claims.collision_free, claims.behavior_labels, claims.invariance_safe_start,
              claims.violation_recovery, claims.beta_smallness, claims.negative_control)
    judged = [(judge.__name__, judge(traces)) for judge in judges]
    judged.append(("qp_exact_oracle",
                   claims.qp_exact_oracle(claims.qp_draws(args.seed, 60, range(1, 4)))))
    checks = [{"name": name, "passed": verdict["passed"], "detail": verdict["detail"]}
              for name, verdict in judged if verdict is not None]
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}")
    passed = all(c["passed"] for c in checks)
    payload = {"passed": passed, "checks": checks, "seed": args.seed}
    (out_dir / "audit.json").write_text(json.dumps(payload, indent=2))
    print(f"wrote {out_dir / 'audit.json'}")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conebarrier",
        description="Collision-cone barrier filtering: scenario runs, validity matrix, audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    batch = argparse.ArgumentParser(add_help=False)  # the options of run and audit
    batch.add_argument("--config", action="append", default=None,
                       help="YAML scenario file or directory (repeatable); "
                            "defaults to the packaged suite")
    batch.add_argument("--out", default=None, help="output directory")
    batch.add_argument("--dt", type=float, default=None, help="timestep override (s)")
    batch.add_argument("--duration", type=float, default=None, help="duration override (s)")
    batch.add_argument("--barrier", default=None,
                       help="barrier override: " + "|".join(BARRIER_KINDS))

    run_p = sub.add_parser("run", parents=[batch], help="simulate scenarios and emit traces")
    run_p.add_argument("--emit", default=None, help="comma list of " + ",".join(EMIT_KINDS))
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validity", help="barrier/model verdict matrix")
    val_p.add_argument("--model", default=None, choices=MODELS)
    val_p.add_argument("--barrier", default=None, choices=BARRIERS)
    val_p.add_argument("--samples", type=int, default=10000)
    val_p.add_argument("--seed", type=int, default=0)
    val_p.add_argument("--out", default=None)
    val_p.set_defaults(func=cmd_validity)

    audit_p = sub.add_parser("audit", parents=[batch], help="invariance, recovery, slip and QP checks")
    audit_p.add_argument("--seed", type=int, default=0)
    audit_p.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
    except ArithmeticError as exc:
        print(f"run error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
