"""Self-checks of the benchmark itself.

    python3 bench/selfcheck.py

1. Deliberately wrong outputs raise ``fail_frac``: a wrong behaviour label
   on a crowd op, a non-finite state, a shifted number in a suite summary
   and a wrong verdict in one cell of the validity matrix.
2. Two traced passes over the same inputs give identical exact counts.
3. The wrappers see every call: ``sim.steps`` equals the summed trace
   lengths the ops returned.
4. Without ``src/`` next to it the runner exits non-zero and prints no result.

Each check prints one PASS/FAIL line; the exit code is 1 if any failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import env

pkg = env.import_package()

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@contextmanager
def patched(module, attr, replacement):
    original = getattr(module, attr)
    setattr(module, attr, replacement(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def fail_frac(workload) -> float:
    ops = run.run_pass(workload)["ops"]
    return sum(1 for op in ops if op["problems"]) / len(ops)


def small(cls, names, reference, out_dir, seed=1):
    inputs = cls.build_inputs(pkg, seed)
    return cls(pkg, seed, {n: inputs[n] for n in names}, reference, out_dir)


def main() -> int:
    reference = json.loads(env.REFERENCE.read_text())
    env.OUT_DIR.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=env.OUT_DIR))
    results = []

    def report(name, ok, detail):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    try:
        crowd_names = list(run.Crowd.build_inputs(pkg, 1))[:2]
        crowd = small(run.Crowd, crowd_names, reference, out_dir)
        suite = small(run.Suite, ["braking_unicycle", "weave_bicycle"], reference, out_dir)

        report("clean crowd and suite ops pass", fail_frac(crowd) == 0 and fail_frac(suite) == 0,
               "fail_frac 0 on unmodified outputs")
        with patched(pkg.sim, "classify_behavior", lambda f: lambda *a, **k: "reversing"):
            frac = fail_frac(crowd)
        report("wrong crowd label fails", frac == 1.0, f"fail_frac {frac}")
        with patched(pkg.sim, "integrate_step", lambda f: lambda *a: f(*a) * float("nan")):
            frac = fail_frac(crowd)
        report("non-finite state fails", frac == 1.0, f"fail_frac {frac}")

        def shift_min_h(f):
            def payload(trace):
                out = f(trace)
                out["min_h"] = out["min_h"] + 1e-3
                return out
            return payload

        with patched(pkg.cli, "_summary_payload", shift_min_h):
            frac = fail_frac(suite)
        report("shifted suite summary fails", frac == 1.0, f"fail_frac {frac}")

        table = {**checks.PAPER_TABLE, **checks.EXTENSION_ROW}

        def verdicts(wrong_cell):
            def probe(barrier, model, motion, **kwargs):
                verdict = table[(barrier, model)][0 if motion == "static" else 1]
                if (barrier, model, motion) == wrong_cell:
                    verdict = "Valid CBF"
                return SimpleNamespace(verdict=verdict)
            return lambda f: probe

        validity = run.Validity(pkg, 0, run.Validity.build_inputs(pkg, 0), reference, out_dir)
        with patched(pkg.validity, "validity_probe", verdicts(None)):
            clean = fail_frac(validity)
        with patched(pkg.validity, "validity_probe", verdicts(("hocbf", "bicycle", "moving"))):
            frac = fail_frac(validity)
        report("wrong verdict fails", clean == 0 and frac == 1 / 14,
               f"fail_frac {clean} on the paper table, {frac:.3f} with one verdict changed")

        for workload in (crowd, suite):
            counts, steps = [], []
            for _ in range(2):
                tracer = tracing.Tracer(pkg)
                with tracer.installed():
                    ops = run.run_pass(workload)["ops"]
                counts.append(tracing.count_metrics(tracer.spans))
                steps.append(sum(op["steps"] for op in ops))
            report(f"{workload.name}: traced passes repeat exact counts", counts[0] == counts[1],
                   f"{counts[0]['sim.steps']} steps, {counts[0]['barriers.terms_calls']} terms calls")
            report(f"{workload.name}: wrappers see every step",
                   counts[0]["sim.steps"] == steps[0] > 0,
                   f"sim.steps {counts[0]['sim.steps']}, trace lengths {steps[0]}")

        bare = out_dir / "bare"
        shutil.copytree(env.BENCH_DIR, bare / env.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(env.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run([sys.executable, f"{env.BENCH_DIR.name}/run.py", "--workload",
                               "suite", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
        report("runner refuses a checkout without src/", done.returncode != 0 and not done.stdout,
               f"exit {done.returncode}, stderr {done.stderr.strip()!r}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
