"""Benchmark runner for conebarrier: one workload per call, one process, one thread.

    python3 bench/run.py --workload {suite,crowd,validity} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from ``src/``.
Inputs are built from ``--seed`` before any timing. The measured phase
repeats a fixed pass of ops until ``--seconds`` have been spent, and every
op's output is checked (see ``checks.py``). ``--trace 0`` reports the
end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (see
``tracing.py``). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A results file,
and for traced runs the spans, are written under ``.bench_out/``.
See ``README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import env  # first: pins the BLAS/OpenMP pools before numpy loads

import numpy as np

import checks
import tracing

SETUP_PROBES = 3
"""Fresh interpreters started per untraced run; ``setup_s`` is their median."""
TRACE_PROBES = 3
VALIDITY_SAMPLES = 10000
"""The ``conebarrier validity`` default."""
YARDSTICK_REF_S = 2.5e-3
"""Yardstick time the reported timings are rescaled to (see ``yardstick``)."""


# ---------------------------------------------------------------------------
# Workloads. ``build_inputs`` is the set-up a fresh interpreter pays; ``run_op``
# is the only timed region; ``check`` returns (observed steps, problems).
# ---------------------------------------------------------------------------

class Suite:
    """The 11 packaged scenarios through ``conebarrier run``, one scenario per op."""

    name = "suite"
    simulates = True

    @staticmethod
    def build_inputs(pkg, seed):
        from importlib import resources

        configs = pkg.scenarios.full_suite()
        data = resources.files("conebarrier").joinpath("data")
        return {name: (cfg, str(data.joinpath(f"{name}.yaml"))) for name, cfg in configs.items()}

    def __init__(self, pkg, seed, inputs, reference, out_dir):
        self.pkg = pkg
        self.inputs = inputs
        self.reference = reference["suite"]
        self.out_dir = out_dir
        self.params = {"scenarios": list(inputs), "emit": "default (trace CSV, events JSON, "
                       "summary JSON)"}

    def items(self):
        return list(self.inputs)

    def run_op(self, name):
        argv = ["run", "--config", self.inputs[name][1], "--out", str(self.out_dir)]
        printed = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(printed):
            rc = self.pkg.cli.main(argv)
        return time.perf_counter() - t0, (rc, printed.getvalue())

    def check(self, name, output):
        rc, printed = output
        cfg = self.inputs[name][0]
        summary = json.loads((self.out_dir / f"{name}_summary.json").read_text())
        events = json.loads((self.out_dir / f"{name}_events.json").read_text())
        n_state = len(cfg.initial_state)
        rows, finite = checks.read_trace_csv(self.out_dir / f"{name}_trace.csv", n_state)
        expected_steps = int(round(cfg.duration / cfg.dt)) + 1
        problems = checks.suite_problems(
            name, rc, printed, summary, events, rows, finite, expected_steps,
            self.reference[name], self.pkg.scenarios.EXPECTED_BEHAVIORS.get(name))
        return rows, problems


class Crowd:
    """Seeded corridor encounters with 16 moving obstacles, ``run_scenario`` + ``summary``."""

    name = "crowd"
    simulates = True

    @staticmethod
    def build_inputs(pkg, seed):
        import crowd

        costs = json.loads(env.REFERENCE.read_text())["crowd"]["us_per_step"]
        return {name: crowd.encounter(name) for name in crowd.select(seed, costs)}

    def __init__(self, pkg, seed, inputs, reference, out_dir):
        import crowd

        self.pkg = pkg
        self.inputs = inputs
        self.reference = reference["crowd"]["encounters"]
        self.params = {**crowd.PARAMS, "selected": list(inputs)}

    def items(self):
        return list(self.inputs)

    def run_op(self, name):
        cfg = self.inputs[name][0]
        t0 = time.perf_counter()
        trace = self.pkg.sim.run_scenario(cfg)
        summary = trace.summary()
        return time.perf_counter() - t0, (trace.states, summary)

    def check(self, name, output):
        states, summary = output
        return states.shape[0], checks.crowd_problems(
            states, summary, self.inputs[name][1], self.reference[name])


class Validity:
    """The barrier/model verdict matrix at the CLI default sample count, one cell per op.

    The ops are the 14 ``validity_probe`` calls ``verdict_matrix`` makes, in its
    order and with its arguments, so a pass is one matrix. Timing the cells one
    by one puts a yardstick next to each, where a whole matrix (7-10 s) would
    span several speed phases of a shared CPU.
    """

    name = "validity"
    simulates = False

    @staticmethod
    def build_inputs(pkg, seed):
        rows = pkg.validity.TABLE_ROWS + (("c3bf", "pointmass"),)
        cells = [(b, m, motion) for b, m in rows for motion in ("static", "moving")]
        return {"samples": VALIDITY_SAMPLES, "seed": seed, "cells": cells}

    def __init__(self, pkg, seed, inputs, reference, out_dir):
        self.pkg = pkg
        self.inputs = inputs
        self.params = {"samples": inputs["samples"], "seed": seed, "cells": len(inputs["cells"])}

    def items(self):
        return self.inputs["cells"]

    def run_op(self, cell):
        t0 = time.perf_counter()
        report = self.pkg.validity.validity_probe(*cell, samples=self.inputs["samples"],
                                                  seed=self.inputs["seed"])
        return time.perf_counter() - t0, report.verdict

    def check(self, cell, verdict):
        # One step is one sampled configuration.
        return self.inputs["samples"], checks.validity_problems(*cell, verdict)


WORKLOADS = {w.name: w for w in (Suite, Crowd, Validity)}


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------

def _yardstick_work() -> float:
    x = np.zeros(4)
    acc = 0.0
    for i in range(600):
        x = x * 0.5 + np.array([math.cos(i), math.sin(i), 1.0, 2.0])
        acc += float(x @ x)
    return acc


def yardstick() -> float:
    """Seconds a fixed small-array numpy loop takes now: the machine's current speed.

    Shared CPUs switch between fast and slow phases (about 1.6x apart on the
    machine this benchmark was built on) that last from seconds to minutes,
    longer than a run. Every timing is divided by the yardstick taken next to
    it and multiplied by ``YARDSTICK_REF_S``, which cancels the phase. The loop
    calls no code of the package, so a change to the package cannot move it;
    the collector is off so that garbage an op left behind is not charged to it.
    """
    gc.disable()
    try:
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            _yardstick_work()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return min(times)


def rescaled(seconds: float, yardstick_s: float) -> float:
    return seconds * YARDSTICK_REF_S / yardstick_s


def run_pass(workload) -> dict:
    """One pass; each op carries its host time and its time rescaled by the yardsticks around it."""
    ops = []
    before = yardstick()
    for item in workload.items():
        op = {"item": item, "seconds": None, "scaled_s": None, "steps": 0, "problems": []}
        try:
            op["seconds"], output = workload.run_op(item)
            op["steps"], op["problems"] = workload.check(item, output)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            op["problems"].append(f"raised {type(exc).__name__}: {exc}")
        after = yardstick()
        op["yardstick_s"] = (before + after) / 2
        if op["seconds"] is not None:
            op["scaled_s"] = rescaled(op["seconds"], op["yardstick_s"])
        before = after
        ops.append(op)
    return {"wall_s": sum(op["scaled_s"] or 0.0 for op in ops),
            "raw_wall_s": sum(op["seconds"] or 0.0 for op in ops), "ops": ops}


def repeat(seconds, one_round):
    """Run ``one_round`` until the next round would end past ``seconds``; return its results."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round())
        now = time.perf_counter()
        if now - start + (now - t0) / 2 >= seconds:
            return rounds


def setup_probes(workload, seed, count) -> list[dict]:
    """Start ``count`` fresh interpreters that import the package and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    probes = []
    for _ in range(count):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True,
                              timeout=150, check=True)
        wall = time.perf_counter() - t0
        probes.append({"wall_s": wall, **json.loads(done.stdout.strip().splitlines()[-1])})
    return probes


def percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(passes, probes, raw=False) -> dict:
    """The end-to-end metrics from rescaled op times, or from host op times with ``raw``.

    ``setup_s`` is always host time: the probes run in other processes, which
    a yardstick taken in this one does not track.
    """
    op_key, wall_key = ("seconds", "raw_wall_s") if raw else ("scaled_s", "wall_s")
    step_us = [op[op_key] / op["steps"] * 1e6
               for p in passes for op in p["ops"] if op[op_key] and op["steps"]]
    return {
        "setup_s": statistics.median(p["wall_s"] for p in probes),
        "wall_s": statistics.median(p[wall_key] for p in passes),
        "step_us_p50": percentile(step_us, 50),
        "step_us_p90": percentile(step_us, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(pkg, workload, seconds, probes):
    """Alternate untraced and traced passes; per-layer metrics come from the first traced one."""
    tracers = []

    def one_round():
        plain = run_pass(workload)
        tracer = tracing.Tracer(pkg)
        with tracer.installed():
            traced_pass = run_pass(workload)
        tracers.append(tracer)
        return plain, traced_pass

    rounds = repeat(seconds, one_round)
    plain_wall = statistics.median(r[0]["wall_s"] for r in rounds)
    traced_wall = statistics.median(r[1]["wall_s"] for r in rounds)
    first = tracers[0]
    metrics = tracing.layer_metrics(first.spans, rounds[0][1]["raw_wall_s"])
    metrics["scenarios.load_s"] = statistics.median(p["load_s"] for p in probes)
    metrics["package.import_s"] = statistics.median(p["import_s"] for p in probes)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0

    harness = []
    counts = [tracing.count_metrics(t.spans) for t in tracers]
    if any(c != counts[0] for c in counts[1:]):
        harness.append(f"traced passes disagree on exact counts: {counts}")
    if workload.simulates:
        steps = sum(op["steps"] for op in rounds[0][1]["ops"])
        if metrics["sim.steps"] != steps:
            harness.append(f"wrappers saw {metrics['sim.steps']} steps, traces hold {steps}")
    passes = [p for r in rounds for p in r]
    return passes, metrics, harness, first


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cls = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    try:
        pkg = env.import_package()
    except env.MissingSource as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    inputs = cls.build_inputs(pkg, args.seed)
    load_s = time.perf_counter() - t0
    if args.setup_probe:
        print(json.dumps({"import_s": import_s, "load_s": load_s}))
        return 0

    reference = json.loads(env.REFERENCE.read_text())
    units = declared_metrics(bool(args.trace))
    probes = setup_probes(args.workload, args.seed, TRACE_PROBES if args.trace else SETUP_PROBES)
    env.OUT_DIR.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=env.OUT_DIR))
    try:
        workload = cls(pkg, args.seed, inputs, reference, out_dir)
        harness = []
        if args.trace:
            passes, metrics, harness, tracer = traced(pkg, workload, args.seconds, probes)
            tracer.write(env.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
            host = {}
        else:
            passes = repeat(args.seconds, lambda: run_pass(workload))
            metrics = end_to_end(passes, probes)
            host = {f"host.{k}": v for k, v in end_to_end(passes, probes, raw=True).items()}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    ops = [op for p in passes for op in p["ops"]]
    failed = sum(1 for op in ops if op["problems"])
    if set(metrics) != set(units):
        harness.append(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": workload.params, "setup_probes": probes,
        "metrics": {**metrics, **host, "fail_frac": failed / len(ops)},
        "harness_problems": harness, "passes": passes,
    }
    name = f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (env.OUT_DIR / name).write_text(json.dumps(results, indent=1))

    for key, value in results["metrics"].items():
        unit = units.get(key) or units.get(key.removeprefix("host."), "1")
        print(f"{args.workload} {key} {value:.6g} {unit}")
    for problem in harness + [f"{op['item']}: {p}" for op in ops for p in op["problems"]]:
        print(f"benchmark: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not harness,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
