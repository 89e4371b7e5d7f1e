"""The record types of the package under test, and what importing it loads.

The records are collections.namedtuple types: fields are read-only, no
record but a concrete table has a __dict__, each verdict owns its witness
dict, and a concrete table computes its length groups once. The package
under test, imported in a fresh interpreter, imports none of the modules a
record library or a timestamp would pull in (typing brings re with it,
dataclasses inspect, ast and dis), nor fractions (which brings decimal and
numbers), the json package, or __future__, so a cold process pays only for
what a certificate needs.
"""
import subprocess
import sys
from pathlib import Path

import pytest

import dtgcert
from dtgcert import cli, pipeline
from dtgcert.gates import EXCLUDES, INCONCLUSIVE, GateVerdict
from dtgcert.groups import REE, SUBFIELD, CaseFamily, OuterOption
from dtgcert.tables import (
    ConcreteRow,
    SuborbitRow,
    SuborbitTable,
    build_table,
    instantiate,
)


def _ree_table():
    return instantiate(build_table(REE), 1)


#: Each public record type: how to make one, and one of its fields.
RECORDS = {
    "CaseFamily": (lambda: REE, "index"),
    "OuterOption": (lambda: OuterOption(2, False), "order"),
    "SuborbitRow": (lambda: build_table(REE).rows[0], "count"),
    "SuborbitTable": (lambda: build_table(REE), "rows"),
    "ConcreteRow": (lambda: _ree_table().rows[0], "length"),
    "ConcreteTable": (_ree_table, "param"),
    "GateVerdict": (lambda: GateVerdict("g", EXCLUDES, {"k": 1}), "witnesses"),
    "Certificate": (lambda: pipeline.analyze("ree", 1, 1).certificates[0], "conclusion"),
    "RunReport": (lambda: pipeline.analyze("ree", 1, 1), "certificates"),
    "ParamCheck": (lambda: pipeline.verify_tables("ree", [27]).checks[0], "mass_total"),
    "TableCheckReport": (lambda: pipeline.verify_tables("ree", [27]), "symbolic_ok"),
    "Option": (lambda: cli.COMMANDS["analyze"][2]["--n"], "help"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_are_read_only(name):
    make, field = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    assert getattr(record, field) is value


@pytest.mark.parametrize("name", RECORDS)
def test_only_a_concrete_table_has_a_dict(name):
    # a record class over its namedtuple declares __slots__ = () unless it
    # caches values, as ConcreteTable does; at most one class lies between a
    # record type and tuple
    record = RECORDS[name][0]()
    assert hasattr(record, "__dict__") == (name == "ConcreteTable")
    mro = type(record).__mro__
    assert mro[-2:] == (tuple, object) and len(mro) <= 4


def test_replace_keeps_the_record_type_and_its_methods():
    family = REE._replace(param_form="3**(2n+1), replaced")
    assert type(family) is CaseFamily and family.param_form.endswith("replaced")
    assert family.param_for_n(1) == 27 and family.n_of_param(27) == 1
    verdict = GateVerdict("g", EXCLUDES, {"k": 1})._replace(narrative="replaced")
    assert type(verdict) is GateVerdict and verdict.narrative == "replaced"
    assert verdict.witnesses == {"k": 1}
    # the replaced verdict's type still guards construction
    with pytest.raises(ValueError, match="requires witnesses"):
        type(verdict)("g", EXCLUDES)


def test_verdicts_own_their_witnesses():
    first, second = GateVerdict("g", INCONCLUSIVE), GateVerdict("g", INCONCLUSIVE)
    assert first.witnesses == {} and second.witnesses == {}
    first.witnesses["failed_step"] = "x"
    assert second.witnesses == {}


def test_table_length_groups_are_computed_once():
    ct = instantiate(build_table(SUBFIELD), 1)
    groups = ct.length_groups
    assert ct.length_groups is groups
    assert [length for length, _ in groups] == sorted({r.length for r in ct.nontrivial_rows})
    # cached values stay out of the fields, equality and hash
    fresh = instantiate(build_table(SUBFIELD), 1)
    assert fresh == ct and hash(fresh) == hash(ct)


def test_records_are_tuples_of_their_fields():
    row = ConcreteRow("A", "one", 7, 2)
    assert row == ("A", "one", 7, 2)
    label, z_order, length, count = row
    assert (length, count) == (row.length, row.count) == (7, 2)
    # positional construction, as the fault-injection mutants are built
    original = build_table(REE).rows[0]
    rebuilt = SuborbitRow(("R1", "one"), original.length, original.count)
    assert rebuilt == original
    assert SuborbitTable(REE, (rebuilt,)).rows == (original,)


def test_spawned_interpreters_import_the_package_under_test(package_env, tmp_path):
    # the subprocess checks in tests/ are about this dtgcert, wherever it is installed
    code = "import dtgcert; print(dtgcert.__file__)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=package_env, cwd=tmp_path, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(dtgcert.__file__).resolve()


def test_import_loads_no_record_library_or_argument_parser(package_env):
    # -S skips the site hook: a .pth file in site-packages may import typing
    # or re before any user code, which would hide the package importing them
    code = (
        "import sys; before = set(sys.modules); import dtgcert; "
        "print(' '.join(sorted(set(sys.modules) - before))); "
        "before = set(sys.modules); import dtgcert.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=package_env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    package_line, cli_line = proc.stdout.splitlines()
    loaded = set(package_line.split())
    assert "dtgcert.pipeline" in loaded
    # _json, the C string encoder alone, is allowed; the json package is not
    unwanted = {
        "typing", "re", "dataclasses", "inspect", "datetime", "argparse",
        "fractions", "decimal", "numbers", "json", "__future__",
    }
    assert not unwanted & loaded
    # the command line is read by the option tables in cli, not by argparse
    # and the gettext and locale lookups it makes
    cli_loaded = set(cli_line.split())
    assert "dtgcert.cli" in cli_loaded
    assert not (unwanted | {"gettext", "locale"}) & cli_loaded
