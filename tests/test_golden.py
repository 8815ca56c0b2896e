"""Fixed-seed runs keep their bits across changes to the code.

Reruns the golden matrix (``golden.py``) and compares the SHA-256 of every
result file with ``golden.json``.  In an environment other than the
recorded one the comparison means nothing, so the test skips and names the
key that differs.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import golden

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.mark.slow
def test_the_golden_matrix_keeps_its_bits():
    recorded = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, golden.__file__], capture_output=True, text=True,
                          env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    fresh = json.loads(proc.stdout)
    differs = [key for key in sorted(recorded["environment"])
               if recorded["environment"][key] != fresh["environment"].get(key)]
    if differs:
        pytest.skip(f"golden.json was recorded in another environment: {differs[0]} "
                    f"{recorded['environment'][differs[0]]!r} here is "
                    f"{fresh['environment'].get(differs[0])!r}")
    assert golden.digest_changes(recorded["digests"], fresh["digests"]) == []


def test_digest_changes_name_each_moved_added_and_dropped_key():
    old = {"a/metrics.csv": "1", "b/rounds.jsonl": "2", "c/final.ckpt": "3"}
    new = {"a/metrics.csv": "1", "b/rounds.jsonl": "9", "d/fig5.csv": "4"}
    assert golden.digest_changes(old, new) == [
        "moved b/rounds.jsonl", "dropped c/final.ckpt", "added d/fig5.csv"]
    assert golden.digest_changes(old, dict(old)) == []
    assert golden.digest_changes({}, {"x": "1"}) == ["added x"]
