"""Golden reports: the CLI output must match the pinned files byte for byte.

The files under tests/golden/ were generated by the CLI with the argument
lists below; the JSON reports have their "generated_at" line removed, since
that timestamp is the only part of a report allowed to change between runs.
Any refactor must leave these bytes unchanged; a deliberate change to the
report content regenerates them and says why.
"""
import re
from pathlib import Path

import pytest

from dtgcert.cli import main

GOLDEN = Path(__file__).parent / "golden"

_GENERATED_AT = re.compile(rb'^  "generated_at": "[^"\n]*",\n', re.M)

ANALYZE = {
    "analyze_ree_n0-6.json": ["analyze", "--case", "ree", "--n", "0..6", "--x", "all"],
    "analyze_subfield_n1-3.json": ["analyze", "--case", "subfield", "--n", "1..3", "--x", "all"],
}


@pytest.mark.parametrize("name", sorted(ANALYZE))
def test_analyze_report_matches_golden(name, tmp_path):
    out = tmp_path / "report.json"
    assert main(ANALYZE[name] + ["--format", "json", "--out", str(out)]) == 0
    produced, stamps = _GENERATED_AT.subn(b"", out.read_bytes())
    assert stamps == 1
    assert produced == (GOLDEN / name).read_bytes()


def test_verify_tables_report_matches_golden(capsys):
    assert main(["verify-tables", "--case", "ree", "--params", "3,27,243,2187", "--symbolic"]) == 0
    produced = capsys.readouterr().out.encode()
    assert produced == (GOLDEN / "verify_tables_ree_symbolic.txt").read_bytes()
