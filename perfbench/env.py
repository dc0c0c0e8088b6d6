"""Paths, BLAS pinning and the run record shared by the benchmark scripts.

Import this module before numpy: it pins the BLAS thread pools through
environment variables, which only take effect before the library loads.
"""

from __future__ import annotations

import os
import platform
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(BENCH_DIR, "fixtures")
WORK = os.path.join(BENCH_DIR, "_work")


class SetupError(RuntimeError):
    """The checkout lacks the program or the benchmark's fixtures."""


def import_program():
    """Import ``idiomatize`` from this checkout's ``src``, never from elsewhere."""
    package_dir = os.path.join(SRC, "idiomatize")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        raise SetupError(f"no program sources at {package_dir}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import idiomatize

    found = os.path.dirname(os.path.abspath(idiomatize.__file__))
    if found != package_dir:
        raise SetupError(f"imported idiomatize from {found}, expected {package_dir}")
    return idiomatize


def git_sha() -> str:
    """HEAD commit read from ``.git`` without running git; 'unknown' outside a repository."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def blas_library() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def run_record(workload: str, seed: int) -> dict:
    """Environment facts stored with every run."""
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_library(),
        "blas_threads": BLAS_THREADS,
    }
