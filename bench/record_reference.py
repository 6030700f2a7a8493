"""Record ``reference.json``: the outputs the checker compares against.

    python3 bench/record_reference.py

Run once at the commit whose behaviour is the reference. It stores the
summary JSON that ``conebarrier run`` writes for each packaged scenario,
and for every crowd pool encounter its input digest, its ``summary()``
and its measured cost per step (used only to cut the pool into strata).
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

import env


def main() -> int:
    pkg = env.import_package()
    import crowd
    from run import Suite

    env.OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=env.OUT_DIR))
    try:
        suite = {}
        for name, (cfg, path) in Suite.build_inputs(pkg, 0).items():
            if pkg.cli.main(["run", "--config", path, "--out", str(tmp)]) != 0:
                raise SystemExit(f"{name}: conebarrier run reported a collision")
            suite[name] = json.loads((tmp / f"{name}_summary.json").read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    encounters, cost = {}, {}
    for name in crowd.pool_keys():
        cfg, digest = crowd.encounter(name)
        t0 = time.perf_counter()
        trace = pkg.sim.run_scenario(cfg)
        summary = trace.summary()
        cost[name] = (time.perf_counter() - t0) / len(trace.t) * 1e6
        encounters[name] = {"digest": digest, "summary": summary}
        print(f"{name}: {cost[name]:.0f} us/step {summary['behavior']} {summary['events']}")

    payload = {"suite": suite,
               "crowd": {"params": crowd.PARAMS, "us_per_step": cost, "encounters": encounters}}
    env.REFERENCE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {env.REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
