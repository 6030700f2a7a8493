"""Process set-up shared by the benchmark scripts.

Import this module before numpy: it pins every BLAS/OpenMP pool to one
thread, because each workload is defined as one single-threaded process.
``import_package`` then imports ``conebarrier`` from the checkout's own
``src/`` tree and refuses to run when that tree is missing, so a stray
installed copy is never measured in its place.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"


class MissingSource(RuntimeError):
    """The checkout holds no ``src/conebarrier`` package to measure."""


def import_package():
    """Import ``conebarrier`` and its CLI from ``ROOT/src``; raise MissingSource otherwise."""
    package_dir = SRC / "conebarrier"
    if not (package_dir / "__init__.py").is_file():
        raise MissingSource(f"no package source at {package_dir}")
    sys.path.insert(0, str(SRC))
    import conebarrier
    import conebarrier.cli  # noqa: F401  (also imports conebarrier.scenarios)

    if Path(conebarrier.__file__).resolve().parent != package_dir.resolve():
        raise MissingSource(f"imported {conebarrier.__file__}, not the copy in {package_dir}")
    return conebarrier
