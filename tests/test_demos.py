"""Every demo script runs to completion against the package under test."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, package_env):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=package_env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
