"""Each narrative script under demos/ runs to completion against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"03_federated_poisoning"}  # over 5 s on 2 cores


@pytest.mark.parametrize("demo", [
    pytest.param(d, id=d.stem, marks=[pytest.mark.slow] if d.stem in SLOW else [])
    for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # demo 02 writes its CSV into the working directory, demo 04 its run
    # directory under FEDMETER_OUTPUT_ROOT
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "FEDMETER_OUTPUT_ROOT": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
