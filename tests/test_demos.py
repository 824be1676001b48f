"""Demos run to completion as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# each takes about a second, uniform_norms about two
@pytest.mark.parametrize("name", [
    "hamiltonian_flow",         # single-case integrate_flow end to end
    "nonrelativistic_limit",    # symmetry_defect through ConjugatedOperator
    "mass_and_scattering",
    "star_product",
    "phase_space_charts",
    "uniform_norms",            # the four-c ratio ladder on the 4096 x 64 grid
])
def test_demo_runs(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"demo_{name}.py")],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
