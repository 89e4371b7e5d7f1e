"""What the benchmark harness under bench/ needs from the package under test.

bench/oracle.py and bench/spans.py never import dtgcert, so they are loaded
here by file path and checked against the dtgcert this process imported: the
layer modules the spans install into, and the Poly operators and CaseFamily
methods they wrap by name. bench/child.py, which reads the package's records
directly, runs one untraced pass of each workload here, and the oracle checks
its output, the sweep reports against the digests it pins among them; traced
passes, metrics and the full harness run only in a benchmark run.
"""
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from dtgcert.exact import Poly
from dtgcert.groups import CaseFamily

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load("oracle")
spans = _load("spans")


def test_spans_find_every_name_they_wrap():
    for layer in spans.LAYERS:
        importlib.import_module(f"dtgcert.{layer}")
    assert {attr for attrs in spans.POLY_OPS.values() for attr in attrs} <= set(vars(Poly))
    assert set(spans.FAMILY_METHODS) <= set(vars(CaseFamily))


#: The workloads BENCHMARK.json declares.
WORKLOADS = [w["name"] for w in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_untraced_child_pass_satisfies_the_oracle(workload, package_env, tmp_path):
    argv = [sys.executable, str(BENCH / "child.py"), workload, "1", "0", str(tmp_path / "spans.tsv")]
    proc = subprocess.run(argv, capture_output=True, env=package_env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    codes = json.loads(proc.stderr.splitlines()[-1])["codes"]
    assert oracle.check(workload, codes, proc.stdout) == []
