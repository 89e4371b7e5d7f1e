"""Golden reports: the CLI output must match the pinned files byte for byte.

The report files under tests/golden/ were generated by the CLI with the
argument lists below (the demo_*.txt files there belong to test_demos.py); the analyze reports have their generated_at line removed, since
that timestamp is the only part of a report allowed to change between runs.
Each analyze run must also exit with the code pinned beside it. Any refactor
must leave these bytes and codes unchanged; a deliberate change to the report
content regenerates them and says why.

verify_tables_ree_mutant.txt comes from a patched table builder: the CLI run
below checks the ree table with R2's length raised by 1, so the report pins
the lines of a failing check (a mass residual, a failed divisibility and
symbolic check) that no canonical table reaches.
"""
from pathlib import Path

import pytest

from dtgcert import tables
from dtgcert.cli import main
from dtgcert.groups import REE
from helpers import r2_length_plus_one, unstamped

GOLDEN = Path(__file__).parent / "golden"

#: Golden file -> (analyze arguments, exit code).
ANALYZE = {
    "analyze_ree_n0-6.json": (["--case", "ree", "--n", "0..6", "--x", "all", "--format", "json"], 0),
    "analyze_subfield_n1-3.json": (["--case", "subfield", "--n", "1..3", "--x", "all", "--format", "json"], 0),
    "analyze_subfield_n1-4_x2_4graph_strict.txt": (
        ["--case", "subfield", "--n", "1..4", "--x", "2", "4,graph", "--strict", "--format", "text"],
        2,
    ),
    "analyze_ree_n0-4_x3_6graph.txt": (["--case", "ree", "--n", "0..4", "--x", "3", "6,graph", "--format", "text"], 0),
}


@pytest.mark.parametrize("name", sorted(ANALYZE))
def test_analyze_report_matches_golden(name, tmp_path):
    argv, code = ANALYZE[name]
    out = tmp_path / name
    assert main(["analyze", *argv, "--out", str(out)]) == code
    assert unstamped(out.read_bytes()) == (GOLDEN / name).read_bytes()


def test_verify_tables_report_matches_golden(capsys):
    assert main(["verify-tables", "--case", "ree", "--n", "0..3"]) == 0
    produced = capsys.readouterr().out.encode()
    assert produced == (GOLDEN / "verify_tables_ree_symbolic.txt").read_bytes()


def test_verify_tables_subfield_report_matches_golden(capsys):
    assert main(["verify-tables", "--case", "subfield", "--n", "1..4"]) == 0
    produced = capsys.readouterr().out.encode()
    assert produced == (GOLDEN / "verify_tables_subfield_symbolic.txt").read_bytes()


def test_verify_tables_failing_report_matches_golden(monkeypatch, capsys):
    mutant = r2_length_plus_one(tables.build_table(REE))
    monkeypatch.setattr(tables, "build_table", lambda family: mutant)
    assert main(["verify-tables", "--case", "ree", "--n", "1"]) == 2
    produced = capsys.readouterr().out.encode()
    assert produced == (GOLDEN / "verify_tables_ree_mutant.txt").read_bytes()
