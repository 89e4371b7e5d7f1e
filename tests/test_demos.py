"""Every demo script runs to completion and prints its pinned output.

tests/golden/demo_<name>.txt holds each demo's stdout, generated by running
the script; the demos are deterministic, so a refactor must leave these
bytes unchanged, and a deliberate change to a demo regenerates its file.
"""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden"


def test_demos_found():
    assert DEMOS
    assert sorted(p.name for p in GOLDEN.glob("demo_*.txt")) == [f"demo_{d.stem}.txt" for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, package_env):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=package_env, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"demo_{demo.stem}.txt").read_bytes()
