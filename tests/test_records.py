"""The record types of the package under test, and what importing it loads.

Every record is a class over the one base class tables.Record and keeps its
contract: each field reads its tuple position, keyword and default
construction equal positional construction, a missing, extra, unknown or
repeated field raises a TypeError that names the type, _replace keeps the
type and goes through its __new__, repr is Name(field=value, ...), equality
and hash are the plain tuple's, and copy, deepcopy and pickle give what they
give for the plain tuple of its fields. Fields are read-only, no record but
a concrete table has a __dict__, each verdict owns its witness dict, and a
concrete table computes its length groups once. The package under test,
imported in a fresh interpreter, imports none of the modules a record
library or a timestamp would pull in (typing brings re with it, dataclasses
inspect, ast and dis), nor fractions (which brings decimal and numbers), the
json package, or __future__, and compiles no code with eval or compile, so a
cold process pays only for what a certificate needs.
"""
import _collections
import copy
import importlib.util
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import dtgcert
from dtgcert import cli, pipeline, tables
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
    # every record type is one class over Record, which declares
    # __slots__ = () unless it caches values, as ConcreteTable does
    record = RECORDS[name][0]()
    assert hasattr(record, "__dict__") == (name == "ConcreteTable")
    mro = type(record).__mro__
    assert mro[1] is tables.Record and mro[2:] == (tuple, object)


#: The trailing fields each record type may leave out, with the values they then take.
DEFAULTS = {
    "GateVerdict": ("", ()),
    "ParamCheck": (None, "", 0, 0, False),
    "Option": (None, (), False),
}


def _outcome(call, *args, **kwargs):
    """What call(*args, **kwargs) gives: its value, or the type and message of what it raises."""
    try:
        return call(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def _round_trip(copier, value, *args):
    """The fields of copier(value, *args) if it is of value's type, else what the call gave."""
    copied = _outcome(copier, value, *args)
    return tuple(copied) if type(copied) is type(value) else copied


def _pickled(value, protocol=None):
    return pickle.loads(pickle.dumps(value, protocol))


def assert_record_contract(record, defaults=()):
    """record's type keeps the record contract; defaults are its trailing default values."""
    cls, name = type(record), type(record).__name__
    fields, values = cls._fields, list(record)
    assert len(fields) == len(values)
    assert [getattr(record, field) for field in fields] == values
    # keyword and default construction equal positional construction
    assert type(cls(*values)) is cls and cls(*values) == record
    keyword = cls(**dict(zip(fields, values)))
    assert type(keyword) is cls and keyword == record
    required = len(fields) - len(defaults)
    for given in range(required, len(fields) + 1):
        assert cls(*values[:given]) == (*values[:given], *defaults[given - required :])
    # every bad call raises a TypeError that names the type
    bad_calls = [
        ([], dict(zip(fields[1:], values[1:]))),  # the first field missing
        (values + [0], {}),  # a field too many
        (values, {"bogus": 0}),  # an unknown field
        (values[:1], {fields[0]: values[0]}),  # a field given twice
    ]
    for args, kwargs in bad_calls:
        with pytest.raises(TypeError, match=rf"\b{name}\b"):
            cls(*args, **kwargs)
    replaced = record._replace(**{fields[0]: "replaced"})
    assert type(replaced) is cls and replaced == ("replaced", *values[1:])
    assert record._replace() == record
    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        record._replace(bogus=0)
    assert repr(record) == f"{name}({', '.join(f'{field}={value!r}' for field, value in zip(fields, values))})"
    # equal to, and hashed, copied and pickled as, the plain tuple of its fields
    plain = tuple(record)
    assert record == plain and _outcome(hash, record) == _outcome(hash, plain)
    for copier in (copy.copy, copy.deepcopy):
        assert _round_trip(copier, record) == _round_trip(copier, plain)
    # a record that holds a Poly, whose non-empty __slots__ protocols 0 and 1
    # cannot pickle, fails there as its plain tuple does
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert _round_trip(_pickled, record, protocol) == _round_trip(_pickled, plain, protocol)


@pytest.mark.parametrize("name", RECORDS)
def test_record_behaves_as_its_namedtuple(name):
    # the part of a named tuple's behaviour that a record keeps: the record
    # contract, with no _make, _asdict or __match_args__
    assert_record_contract(RECORDS[name][0](), DEFAULTS.get(name, ()))


def test_without_the_c_getter_the_fields_are_item_properties(monkeypatch):
    # a tables module run where _collections has no _tuplegetter, as on an
    # interpreter without it, builds its records through the fallback getter
    monkeypatch.delattr(_collections, "_tuplegetter")
    name = "dtgcert._tables_without_tuplegetter"
    spec = importlib.util.spec_from_file_location(name, tables.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    assert type(vars(module.ConcreteRow)["length"]) is property
    row = module.ConcreteRow("A", "one", 7, 2)
    with pytest.raises(AttributeError):
        row.length = 8
    assert_record_contract(row)


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


def test_replace_cannot_build_an_excluding_verdict_without_witnesses():
    # _replace goes through GateVerdict.__new__, and no _make skips it
    with pytest.raises(ValueError, match="requires witnesses"):
        GateVerdict("g", INCONCLUSIVE)._replace(outcome=EXCLUDES)
    with pytest.raises(ValueError, match="requires witnesses"):
        GateVerdict("g", EXCLUDES, {"k": 1})._replace(witnesses={})
    assert not hasattr(GateVerdict, "_make")


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
    # or re before any user code, which would hide the package importing them.
    # eval and compile calls count when the innermost module running them is
    # dtgcert's, so the namedtuple that functools builds at its own import
    # does not.
    code = textwrap.dedent(
        """
        import builtins, sys
        calls = []

        def counted(function):
            def wrapper(*args, **kwargs):
                frame = sys._getframe(1)
                while frame and not frame.f_code.co_filename.startswith("<frozen importlib"):
                    if frame.f_globals.get("__name__", "").partition(".")[0] == "dtgcert":
                        calls.append(function.__name__)
                        break
                    frame = frame.f_back
                return function(*args, **kwargs)
            return wrapper

        builtins.eval, builtins.compile = counted(eval), counted(compile)
        for name in ("dtgcert", "dtgcert.cli"):
            before = set(sys.modules)
            calls.clear()
            __import__(name)
            print(len(calls), *sorted(set(sys.modules) - before))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=package_env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    (package_calls, *package_loaded), (cli_calls, *cli_loaded) = map(str.split, proc.stdout.splitlines())
    assert (package_calls, cli_calls) == ("0", "0")
    loaded = set(package_loaded)
    assert "dtgcert.pipeline" in loaded
    # _json, the C string encoder alone, is allowed; the json package is not
    unwanted = {
        "typing", "re", "dataclasses", "inspect", "datetime", "argparse",
        "fractions", "decimal", "numbers", "json", "__future__",
    }
    assert not unwanted & loaded
    # the command line is read by the option tables in cli, not by argparse
    # and the gettext and locale lookups it makes
    cli_loaded = set(cli_loaded)
    assert "dtgcert.cli" in cli_loaded
    assert not (unwanted | {"gettext", "locale"}) & cli_loaded
