"""Every demo runs to completion with asserts stripped (python -O), so none of
the invariants it relies on is an assert."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["background_evolution", "horizon_and_spectra", "mode_functions",
         "probability_postulate", "variance_bound"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_optimized(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-O", str(ROOT / "demos" / f"{name}.py")],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
