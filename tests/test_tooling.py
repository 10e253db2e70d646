"""The benchmark's expectations of this source tree, checked in tier 1.

A change that unbinds a traced function, stops a verify run from reaching
a traced layer, changes the verify check list or makes a check apply the
monodromy to a dense block fails here instead of only under
``perfbench/run.py``.
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


def test_verify_applies_the_monodromy_to_narrow_blocks(monkeypatch):
    # Every check applies T(t) to the few vectors it needs: a lifted chain
    # block has at most 2 * PROBES columns, never the identity.
    from sixvertex import f_basis, vertex_model
    from sixvertex.config import RunConfig
    from sixvertex.verify import run_verify

    widths = []
    monodromy = vertex_model.monodromy_matrix

    def recorded(t, lattice, regime, block=None):
        widths.append(None if block is None else block.shape[1])
        return monodromy(t, lattice, regime, block)

    monkeypatch.setattr(vertex_model, "monodromy_matrix", recorded)
    for family, eta in (("rational", 1.0), ("trigonometric", 0.7)):
        run_verify(RunConfig(family=family, eta=eta, length=6, magnons=3))
    assert widths and all(w is not None and w <= 2 * f_basis.PROBES for w in widths), widths
