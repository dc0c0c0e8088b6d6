"""Every script under ``scripts/`` still imports against the package as it stands."""

from __future__ import annotations

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py")))

# Runs the module body (its imports and top-level names) under another name, so the ``__main__`` guard keeps ``main`` from running.
_LOAD = (
    "import importlib.util, sys\n"
    "spec = importlib.util.spec_from_file_location('script_under_test', sys.argv[1])\n"
    "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
)


def test_scripts_found():
    assert len(SCRIPTS) >= 6


@pytest.mark.parametrize("path", SCRIPTS, ids=os.path.basename)
def test_script_imports(path):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-c", _LOAD, path], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
