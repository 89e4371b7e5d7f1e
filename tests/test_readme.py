"""What README.md promises: its python blocks run as printed, and __all__
names the supported API."""
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dtgcert

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)

#: A line `print(expr)  # value` promises that repr(expr) is value.
PROMISE = re.compile(r"^print\((?P<expr>.+)\)\s+# (?P<value>.+)$")

SUPPORTED_API = [
    "Poly",
    "cyclic_order",
    "exp_compare",
    "factorize",
    "min_fused_classes",
    "bhk_gate",
    "kernel_prime_data",
    "REE",
    "SUBFIELD",
    "analyze",
    "emit",
    "build_table",
    "dump",
    "instantiate",
    "stabilizer_order",
    "suborbit_count",
    "verify_mass_symbolic",
]


def with_checks(block: str) -> str:
    """The block with an assertion after each promising print."""
    out = []
    for line in block.splitlines():
        out.append(line)
        m = PROMISE.match(line)
        if m:
            out.append(f"assert repr({m['expr']}) == {m['value']!r}, repr({m['expr']})")
    return "\n".join(out) + "\n"


def test_readme_promises_the_documented_values():
    promised = [m["value"] for block in BLOCKS for m in map(PROMISE.match, block.splitlines()) if m]
    assert "{'total': 28, 'no_dtg': 28, 'undetermined': 0}" in promised
    assert "'excludes'" in promised


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block, tmp_path, package_env):
    proc = subprocess.run(
        [sys.executable, "-c", with_checks(block)],
        capture_output=True,
        text=True,
        env=package_env,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_supported_api_is_pinned():
    assert dtgcert.__all__ == SUPPORTED_API
    for name in SUPPORTED_API:
        assert getattr(dtgcert, name) is not None, name
