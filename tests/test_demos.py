"""Each narrative demo runs standalone against the package in ``src``.

A demo imports public names directly, so a removed or renamed name shows up
here as a failed run rather than only when someone next reads the demos.
Every demo is deterministic, and its stdout must equal
``golden/demos/<name>.txt`` byte for byte.  Run ``python
tests/test_demos.py`` to rewrite those files after a deliberate output
change; plain pytest runs only compare.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"
SLOW = {"05_coloring_trials.py"}  # a thousand trials per instance, several seconds


def run_demo(demo: pathlib.Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(demo)],
        env=dict(os.environ, PYTHONPATH=path, PYTHONIOENCODING="utf-8"),
        capture_output=True,
        encoding="utf-8",
        timeout=120,
    )


def golden_of(demo: pathlib.Path) -> pathlib.Path:
    return GOLDEN / f"{demo.stem}.txt"


@pytest.mark.parametrize("demo", [
    pytest.param(path, id=path.name, marks=[pytest.mark.slow] if path.name in SLOW else [])
    for path in DEMOS
])
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden_of(demo).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        proc = run_demo(demo)
        if proc.returncode:
            sys.exit(f"{demo.name} failed:\n{proc.stderr}")
        golden_of(demo).write_text(proc.stdout, encoding="utf-8")
        print(f"wrote {golden_of(demo)}", file=sys.stderr)
