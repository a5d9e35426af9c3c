"""Each narrative demo runs standalone against the package in ``src``.

A demo imports public names directly, so a removed or renamed name shows up
here as a failed run rather than only when someone next reads the demos.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"05_coloring_trials.py"}  # a thousand trials per instance, several seconds


@pytest.mark.parametrize("demo", [
    pytest.param(path, id=path.name, marks=[pytest.mark.slow] if path.name in SLOW else [])
    for path in DEMOS
])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
