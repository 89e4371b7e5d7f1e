"""The environment of every interpreter a test starts.

The tests check whichever dtgcert this process imported: the checkout's
src/ under PYTHONPATH=src, or an installed package when they run from
outside the checkout. A spawned interpreter must import that same package,
so its PYTHONPATH starts with the directory that holds it. It also turns
every warning into an error, as the in-process suite does.
"""
import os
from pathlib import Path

import pytest

import dtgcert

#: The directory that holds the package under test.
PACKAGE_ROOT = Path(dtgcert.__file__).resolve().parent.parent


@pytest.fixture
def package_env():
    """os.environ with the package under test first on PYTHONPATH and warnings as errors."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error"
    return env
