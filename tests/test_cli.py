import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import dtgcert
from dtgcert.cli import COMMANDS, main
from dtgcert.pipeline import analyze, emit
from helpers import GENERATED_AT, unstamped

README = Path(__file__).resolve().parent.parent / "README.md"


def test_verify_tables_step_range(capsys):
    # 0..2 expands to q = 3, 27, 243
    assert main(["verify-tables", "--case", "ree", "--n", "0..2"]) == 0
    out = capsys.readouterr().out
    assert "param=243" in out
    # --n counts steps, as analyze's does, whether a range or a single step
    for n, params in (("0", "3"), ("3", "2187")):
        assert main(["verify-tables", "--case", "ree", "--n", n]) == 0
        assert capsys.readouterr().out.startswith(f"verify-tables case=ree params={params}\n")


def test_analyze_text(capsys):
    assert main(["analyze", "--case", "ree", "--n", "1", "--x", "all"]) == 0
    out = capsys.readouterr().out
    assert "gate: kernel_chain  verdict: Excludes  primes: 19, 37" in out
    assert "summary: total=4 no_dtg=4 undetermined=0" in out


def test_analyze_json_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main([
        "analyze", "--case", "subfield", "--n", "1..2",
        "--x", "all", "--format", "json", "--out", str(out_path),
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    data = json.loads(out_path.read_text())
    assert data["summary"]["total"] == 7
    assert all(c["conclusion"] == "no_dtg" for c in data["certificates"])


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_analyze_writes_the_emitted_bytes_to_stdout(fmt, capsysbinary):
    assert main(["analyze", "--case", "ree", "--n", "0..12", "--format", fmt]) == 0
    produced = capsysbinary.readouterr().out
    assert unstamped(produced) == unstamped(emit(analyze("ree", 0, 12), fmt))


def test_analyze_through_a_pipe_writes_the_bytes_of_out(package_env, tmp_path):
    # a fresh interpreter through __main__, its stdout an OS pipe
    argv = [sys.executable, "-m", "dtgcert", "analyze", "--case", "ree", "--n", "0..12", "--format", "json"]
    piped = subprocess.run(argv, capture_output=True, env=package_env, cwd=tmp_path, timeout=60)
    assert (piped.returncode, piped.stderr) == (0, b"")
    written = subprocess.run([*argv, "--out", "r.json"], capture_output=True, env=package_env, cwd=tmp_path, timeout=60)
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert unstamped(piped.stdout) == unstamped((tmp_path / "r.json").read_bytes())


def test_reports_print_integers_past_the_int_str_digit_cap(capsysbinary):
    # at n = 644 the coset index of either family has more than 4300 digits,
    # the default cap of Python's int-to-str conversion
    cap = sys.get_int_max_str_digits()
    argv = ["analyze", "--case", "ree", "--n", "644", "--max-n", "644", "--x", "1"]
    assert main([*argv, "--format", "json"]) == 0
    (cert,) = json.loads(capsysbinary.readouterr().out)["certificates"]
    assert len(cert["gates"][0]["witnesses"]["vertices"]) == 4306
    assert main([*argv, "--format", "text"]) == 0
    for case in ("ree", "subfield"):
        assert main(["verify-tables", "--case", case, "--n", "644"]) == 0
    assert sys.get_int_max_str_digits() == cap


def test_analyze_runs_gates_past_the_int_str_digit_cap(capsys):
    # from n = 4506 on, q itself has more than 4300 digits, and bhk_gate
    # writes it into its d0 witness while analyze runs, before emit; the
    # run starts from Python's default cap and must leave it in place
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert main(["analyze", "--case", "ree", "--n", "4506", "--max-n", "4506", "--x", "1", "--format", "json"]) == 0
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(previous)
    (cert,) = json.loads(capsys.readouterr().out)["certificates"]
    assert (cert["conclusion"], len(cert["q"])) == ("no_dtg", 4301)


def test_analyze_single_step_and_filter(capsys):
    assert main(["analyze", "--case", "ree", "--n", "0", "--x", "2,graph"]) == 0
    out = capsys.readouterr().out
    assert "x_order=2 x_graph=true" in out
    assert "gate: bcn_small_case  verdict: AssumedExternal" in out
    # one diameter-cutoff query: a single step and a single X
    assert main(["analyze", "--case", "ree", "--n", "1", "--x", "6"]) == 0
    assert "gate: bhk_diameter  verdict: Inconclusive  d0: 33/6" in capsys.readouterr().out
    assert main(["analyze", "--case", "ree", "--n", "4", "--x", "18"]) == 0
    assert "gate: bhk_diameter  verdict: Excludes  d0: 19689/18" in capsys.readouterr().out


def test_analyze_empty_sweep_is_an_error(tmp_path, capsys):
    # a sweep without certificates must not report "all no_dtg" about nothing
    out_path = tmp_path / "report.json"
    assert main(["analyze", "--case", "ree", "--n", "5..2", "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert "error: empty step range 5..2" in captured.err
    assert captured.out == ""
    assert main(["analyze", "--case", "ree", "--n", "1", "--x", "7", "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert "error: --x 7 selects no outer subgroup" in captured.err
    assert captured.out == ""
    assert not out_path.exists()


def test_analyze_unwritable_out_is_an_error(tmp_path, capsys):
    out_path = tmp_path / "missing" / "r.json"
    assert main(["analyze", "--case", "ree", "--n", "0", "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("out", [["--out", ""], ["--out="]])
def test_analyze_empty_out_is_an_error(out, capsys):
    # an empty path, as from an unset $OUT, must not fall back to stdout
    assert main(["analyze", "--case", "ree", "--n", "0", *out]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_verify_tables_empty_range_is_an_error(capsys):
    # a step range that checks no parameter must not report "result: PASS"
    assert main(["verify-tables", "--case", "ree", "--n", "5..2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: empty step range 5..2\n"
    assert captured.out == ""


def test_analyze_strict_exit_code(capsys):
    assert main(["analyze", "--case", "ree", "--n", "0", "--strict"]) == 2
    assert "undetermined" in capsys.readouterr().out
    # one undetermined certificate among concluded ones is enough
    assert main(["analyze", "--case", "ree", "--n", "3..4", "--strict"]) == 2
    assert "summary: total=10 no_dtg=9 undetermined=1" in capsys.readouterr().out


def test_analyze_range_cap(capsys):
    assert main(["analyze", "--case", "ree", "--n", "1..13"]) == 1
    assert "--max-n" in capsys.readouterr().err
    # raising the cap is explicit
    assert main(["analyze", "--case", "ree", "--n", "13..13", "--max-n", "13",
                 "--x", "1"]) == 0
    capsys.readouterr()


def test_usage_errors(capsys):
    assert main(["analyze", "--case", "weyl", "--n", "1"]) == 1
    capsys.readouterr()
    assert main(["analyze", "--case", "ree", "--n", "x..y"]) == 1
    capsys.readouterr()
    assert main(["analyze", "--case", "ree", "--n", "1", "--x", "all", "2"]) == 1
    capsys.readouterr()
    assert main(["analyze", "--case", "ree", "--n", "1", "--x", "2,twist"]) == 1
    capsys.readouterr()
    assert main(["verify-tables", "--case", "ree", "--n", "a..b"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{analyze,verify-tables}" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "dtgcert" in capsys.readouterr().out


def test_pyproject_version_is_the_package_version():
    # a regex rather than tomllib, which Python 3.10 lacks
    pyproject = (README.parent / "pyproject.toml").read_text()
    assert re.findall(r'^version = "([^"]*)"$', pyproject, re.M) == [dtgcert.__version__]


@pytest.mark.parametrize(
    "argv, plain",
    [
        (["analyze", "--case", "ree", "--n=0..2"], ["analyze", "--case", "ree", "--n", "0..2"]),
        (
            ["analyze", "--format", "json", "--n", "1", "--case=ree"],
            ["analyze", "--case", "ree", "--n", "1", "--format", "json"],
        ),
        (["analyze", "--case", "ree", "--n", "5", "--n", "1"], ["analyze", "--case", "ree", "--n", "1"]),
        (
            ["analyze", "--case", "subfield", "--n", "2", "--x", "4", "8,graph", "--strict"],
            ["analyze", "--strict", "--x", "4", "8,graph", "--n", "2", "--case", "subfield"],
        ),
        (["verify-tables", "--n=1..2", "--case", "subfield"], ["verify-tables", "--case", "subfield", "--n", "1..2"]),
    ],
)
def test_accepted_forms_read_as_their_plain_spelling(argv, plain, capsysbinary):
    # --opt=value, any order, and a repeated option whose last value wins;
    # only an analyze report carries a generated_at line
    code = main(argv)
    out = GENERATED_AT.sub(b"", capsysbinary.readouterr().out)
    assert code == main(plain)
    assert out == GENERATED_AT.sub(b"", capsysbinary.readouterr().out)
    assert b"summary" in out or b"result: PASS" in out


@pytest.mark.parametrize(
    "argv, error",
    [
        (["analyze", "--case", "ree"], "the following arguments are required: --n"),
        (["verify-tables"], "the following arguments are required: --case, --n"),
        (["analyze", "--case", "weyl", "--n", "1"], "argument --case: invalid choice: 'weyl' (choose from 'subfield', 'ree')"),
        (["analyze", "--case", "ree", "--n", "1", "--max-n", "abc"], "argument --max-n: invalid int value: 'abc'"),
        (["analyze", "--case", "ree", "--n", "1", "--bogus"], "unrecognized arguments: --bogus"),
        (["analyze", "--case", "ree", "--n", "1", "--form", "json"], "unrecognized arguments: --form"),
        (["analyze", "--case", "ree", "--n", "1", "--x"], "argument --x: expected at least one argument"),
        (["analyze", "--case", "ree", "--n", "1", "--x", "--strict"], "argument --x: expected at least one argument"),
        (["analyze", "--case", "ree", "--n"], "argument --n: expected one argument"),
        (["analyze", "--case", "ree", "--n", "1", "--strict=yes"], "argument --strict: ignored explicit argument 'yes'"),
        (["analyze", "--case", "ree", "--n", "1", "2"], "unrecognized arguments: 2"),
        (["certify"], "argument command: invalid choice: 'certify' (choose from 'analyze', 'verify-tables')"),
        ([], "the following arguments are required: command"),
        (["--bogus"], "unrecognized arguments: --bogus"),
        (["analyze", "--case", "ree", "--n", "0", "--x", "abc"], "invalid outer subgroup token: 'abc'"),
        (["verify-tables", "--case", "ree", "--params", "3"], "unrecognized arguments: --params"),
        (["verify-tables", "--case", "ree", "--n", "1", "--symbolic"], "unrecognized arguments: --symbolic"),
        (["verify-tables", "--case", "ree", "--n", "3,27"], "invalid range: '3,27'"),
        (["verify-tables", "--case", "subfield", "--n", "0"], "subfield family requires n >= 1"),
        # integers are spelled -?[0-9]+: int() alone would also take '1_0', ' 1' and other digits
        (["analyze", "--case", "ree", "--n", "1_0", "--max-n", "20"], "invalid range: '1_0'"),
        (["analyze", "--case", "ree", "--n", "0..1_0", "--max-n", "20"], "invalid range: '0..1_0'"),
        (["verify-tables", "--case", "ree", "--n", " 1"], "invalid range: ' 1'"),
        (["verify-tables", "--case", "ree", "--n", "\u0661"], "invalid range: '\u0661'"),
        (["analyze", "--case", "ree", "--n", "1", "--max-n", "1_0"], "argument --max-n: invalid int value: '1_0'"),
        (["analyze", "--case", "ree", "--n", "1", "--max-n", "+5"], "argument --max-n: invalid int value: '+5'"),
        (["analyze", "--case", "ree", "--n", "1", "--x", "1_0"], "invalid outer subgroup token: '1_0'"),
        (["analyze", "--case", "ree", "--n", "1", "--x", "\uff12,graph"], "invalid outer subgroup token: '\uff12,graph'"),
        (["analyze", "--case", "ree", "--n", "1", "--x", "2,"], "invalid outer subgroup token: '2,'"),
    ],
)
def test_rejected_forms(argv, error, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_help_lists_every_option_of_its_table(command, capsys):
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            main([command, flag])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: dtgcert {command} ")
        _, _, table = COMMANDS[command]
        for name, option in table.items():
            assert re.search(rf"^  {re.escape(name)}\b", out, re.M), name
            assert option.help in out, name


README_COMMANDS = [
    line
    for block in re.findall(r"^## Command line\n.*?^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    for line in block.splitlines()
    if line.startswith("dtgcert ")
]


def test_readme_has_command_lines():
    assert len(README_COMMANDS) >= 5


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_command_line_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().err == ""
