"""Output checker behind ``fail_frac``.

An op fails when it raises, when its state goes non-finite, or when its
summary differs from the reference recorded in ``reference.json``. Numbers
match when they agree to ``REL_TOL`` relative or ``ABS_TOL`` absolute; NaN
matches NaN; labels, flags and event counts must match exactly. A suite op
also fails on a behaviour label other than ``EXPECTED_BEHAVIORS`` or on a
collision, and a validity op on a verdict other than the paper table's.
Each function returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import math
from collections import Counter

import numpy as np

REL_TOL = 1e-6
ABS_TOL = 1e-9

# The comparison table of the paper, as pinned in tests/test_acceptance.py
# (criterion 6): (barrier, model) -> (static verdict, moving verdict).
PAPER_TABLE = {
    ("ellipse", "unicycle"): ("Not a valid CBF", "Not a valid CBF"),
    ("ellipse", "bicycle"): ("Valid CBF, No acceleration", "Not a valid CBF"),
    ("hocbf", "unicycle"): ("Valid CBF, No steering", "Valid CBF, but conservative"),
    ("hocbf", "bicycle"): ("Valid CBF", "Not a valid CBF"),
    ("c3bf", "unicycle"): ("Valid CBF in D", "Valid CBF in D"),
    ("c3bf", "bicycle"): ("Valid CBF in C", "Valid CBF in C"),
}
# The point-mass cone row is an extension beyond the paper: the acceptance
# test pins its static verdict; the moving one is the verdict recorded here.
EXTENSION_ROW = {("c3bf", "pointmass"): ("Valid CBF in D", "Valid CBF in D")}


def compare(got, want, path: str = "summary") -> list[str]:
    """Differences between two JSON-like trees under the stated tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [p for k in want for p in compare(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isnan(want) and math.isnan(got):
            return []
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def read_trace_csv(path, n_state: int) -> tuple[int, bool]:
    """Data-row count of an emitted trace CSV and whether every state cell is finite."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        states = [row[1:1 + n_state] for row in reader]
    if header[0] != "t" or not all(h.startswith("state_") for h in header[1:1 + n_state]):
        return len(states), False
    values = np.array(states, dtype=float) if states else np.zeros((0, n_state))
    return len(states), bool(np.all(np.isfinite(values)))


def suite_problems(name: str, rc: int, printed: str, summary: dict, events: list,
                   csv_rows: int, csv_finite: bool, expected_steps: int,
                   reference: dict, expected_behavior) -> list[str]:
    """Checks of one ``conebarrier run`` op on one packaged scenario."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if f"{name}: behavior={summary.get('behavior')} " not in printed:
        problems.append("printed result line does not match the summary")
    if not summary.get("collision_free", False):
        problems.append("collision recorded")
    if expected_behavior is not None and summary.get("behavior") != expected_behavior:
        problems.append(f"behavior {summary.get('behavior')!r} != expected {expected_behavior!r}")
    if csv_rows != expected_steps:
        problems.append(f"trace CSV has {csv_rows} rows, expected {expected_steps}")
    if not csv_finite:
        problems.append("trace CSV state columns are not all finite")
    if dict(Counter(e["kind"] for e in events)) != summary.get("events"):
        problems.append("events JSON disagrees with the summary event counts")
    return problems + compare(summary, reference)


def crowd_problems(states: np.ndarray, summary: dict, digest: str, reference: dict) -> list[str]:
    """Checks of one crowd op: finite states and the recorded summary."""
    problems = []
    if digest != reference["digest"]:
        problems.append(f"generated inputs {digest} differ from the recorded {reference['digest']}")
    if not np.all(np.isfinite(states)):
        problems.append("state went non-finite")
    return problems + compare(summary, reference["summary"])


def validity_problems(barrier: str, model: str, motion: str, verdict: str) -> list[str]:
    """One cell's verdict against the paper table and the extension row."""
    row = {**PAPER_TABLE, **EXTENSION_ROW}.get((barrier, model))
    if row is None:
        return [f"{barrier}/{model}: no such row in the verdict table"]
    want = row[0 if motion == "static" else 1]
    return [] if verdict == want else [f"{barrier}/{model}/{motion}: {verdict!r} != {want!r}"]
