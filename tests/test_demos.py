"""Every demo runs to completion with asserts stripped (python -O) and with
warnings raised as errors, so none of the invariants it relies on is an
assert and none of them warns."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_optimized(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-O", "-W", "error",
                          str(ROOT / "demos" / f"{name}.py")],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
