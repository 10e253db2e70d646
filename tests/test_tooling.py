"""The benchmark's expectations of this source tree, checked in tier 1.

A change that unbinds a traced function, stops a verify run from reaching
a traced layer, or changes the verify check list fails here instead of only
under ``perfbench/run.py``.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: PASS" in proc.stdout


def test_benchmark_check_list_matches_verify(monkeypatch):
    # The benchmark counts a report whose check names, order or default
    # tolerances differ from its own table as a wrong output.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    from sixvertex.verify import CHECKS

    assert [(name, tol) for name, _, tol in CHECKS] == list(workloads.CHECK_TOLERANCES.items())
