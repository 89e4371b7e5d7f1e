"""Certificates and table checks from the command line.

Run `dtgcert COMMAND -h` for the options of one command. Options are spelled
in full, with no abbreviation, as `--opt value` or `--opt=value`; a repeated
option keeps its last value.

Exit codes: 0 all certificates conclude no_dtg (or checks pass), 2 at least
one undetermined certificate (or failed check), 1 usage or internal error,
including a run that covers nothing: a reversed --n range, or an --x
filter that matches no outer subgroup.
"""
import sys
from collections.abc import Sequence

from . import pipeline, tables
from .groups import FAMILIES
from .pipeline import FORMATS, VERSION
from .tables import Record

#: Option kinds: one value, one or more values, one int, or a flag that takes none.
VALUE, VALUES, INT, FLAG = "value", "values", "int", "flag"

_HELP = ("-h", "--help")


class Option(Record, fields="kind help default choices required", defaults=(None, (), False)):
    """One row of a command's option table: its kind and help strs, its default
    (a flag's is False), the strs choices and the bool required."""

    __slots__ = ()


def _int(text: str, error: str) -> int:
    """text as an int if it is spelled -?[0-9]+, else ValueError(error); int() alone takes '1_0' and ' 1'."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(error)
    return int(text)


def _parse_range(text: str) -> tuple[int, int]:
    error = f"invalid range: {text!r}"
    lo, hi = text.split("..", 1) if ".." in text else (text, text)
    lo, hi = _int(lo, error), _int(hi, error)
    if lo > hi:
        raise ValueError(f"empty step range {lo}..{hi}")
    return lo, hi


def _parse_x(tokens: Sequence[str]) -> pipeline.XFilter:
    if list(tokens) == ["all"]:
        return None
    chosen = []
    for token in tokens:
        if token == "all":
            raise ValueError("'all' cannot be combined with explicit orders")
        error = f"invalid outer subgroup token: {token!r}"
        order, *flag = token.split(",")
        if flag not in ([], ["graph"]):
            raise ValueError(error)
        chosen.append((_int(order, error), bool(flag)))
    return chosen


def _write(payload: bytes, out: str | None) -> None:
    """Write the report bytes to the file at out, or unchanged to the binary buffer of stdout."""
    if out is not None:
        with open(out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(payload)


def _run_analyze(args: dict) -> int:
    n_min, n_max = _parse_range(args["--n"])
    if n_max > args["--max-n"]:
        raise ValueError(f"range end {n_max} exceeds the cap {args['--max-n']}; raise it with --max-n")
    x_filter = _parse_x(args["--x"])
    report = pipeline.analyze(args["--case"], n_min, n_max, x_filter=x_filter, strict=args["--strict"])
    if not report.certificates:
        raise ValueError(f"--x {' '.join(args['--x'])} selects no outer subgroup for n in {n_min}..{n_max}")
    _write(pipeline.emit(report, args["--format"]), args["--out"])
    return 0 if all(c.conclusion == pipeline.NO_DTG for c in report.certificates) else 2


def _run_verify_tables(args: dict) -> int:
    n_min, n_max = _parse_range(args["--n"])
    family = pipeline.get_family(args["--case"])
    params = [family.param_for_n(n) for n in range(n_min, n_max + 1)]
    report = pipeline.verify_tables(args["--case"], params, symbolic=True)
    _write(pipeline.emit(report, "text"), None)
    return 0 if report.ok else 2


#: The step range both commands take.
_N = Option(VALUE, "step range, e.g. 1..3 or a single step like 2", required=True)

#: Command -> (summary, runner, option table). The tables are the only place
#: options are declared: _parse() reads argv by them and _help_text() lists them.
COMMANDS = {
    "analyze": (
        "run a gate pipeline and emit certificates",
        _run_analyze,
        {
            "--case": Option(VALUE, "coset family to sweep", choices=tuple(FAMILIES), required=True),
            "--n": _N,
            "--x": Option(VALUES, "outer subgroup filter: 'all', or orders like '2' or '6,graph'", default=("all",)),
            "--strict": Option(FLAG, "conclude only from certificates that rely on no assumption"),
            "--format": Option(VALUE, "report format", default="text", choices=FORMATS),
            "--out": Option(VALUE, "write the report to this path instead of stdout"),
            "--max-n": Option(INT, "safety cap on the range end", default=12),
        },
    ),
    "verify-tables": (
        "check a family's table as polynomials and at every step in range",
        _run_verify_tables,
        {
            "--case": Option(VALUE, "coset family whose table is checked", choices=tuple(FAMILIES), required=True),
            "--n": _N,
        },
    ),
}


def _is_option(token: str) -> bool:
    """Whether a token names an option; a dash before a digit, as in -1, starts a value."""
    return token.startswith("-") and not token[1:2].isdigit()


def _invocation(name: str, opt: Option) -> str:
    """An option as help writes it: --strict, --n N, --x X [X ...] or --case {subfield,ree}."""
    if opt.kind == FLAG:
        return name
    metavar = "{" + ",".join(opt.choices) + "}" if opt.choices else name[2:].upper().replace("-", "_")
    return f"{name} {metavar} [{metavar} ...]" if opt.kind == VALUES else f"{name} {metavar}"


def _help_rows(rows: Sequence[tuple[str, str]]) -> list[str]:
    return [f"  {left:<22}{text}" if len(left) <= 20 else f"  {left}\n{'':24}{text}" for left, text in rows]


def _help_text(command: str | None = None) -> str:
    """The -h text of one command, or of the program when command is None."""
    help_row = ("-h, --help", "show this help message and exit")
    if command is None:
        choices = "{" + ",".join(COMMANDS) + "}"
        lines = [f"usage: dtgcert [-h] [--version] {choices} ...", "", (__doc__ or "").strip(), "", "commands:"]
        lines += _help_rows([(name, summary) for name, (summary, _, _) in COMMANDS.items()])
        lines += ["", "options:"] + _help_rows([help_row, ("--version", "show the version number and exit")])
        return "\n".join(lines) + "\n"
    summary, _, table = COMMANDS[command]
    usage = " ".join(
        _invocation(name, opt) if opt.required else f"[{_invocation(name, opt)}]" for name, opt in table.items()
    )
    rows = [help_row]
    for name, opt in table.items():
        default = " ".join(opt.default) if opt.kind == VALUES and opt.default else opt.default
        rows.append((_invocation(name, opt), opt.help if default is None else f"{opt.help} (default: {default})"))
    lines = [f"usage: dtgcert {command} [-h] {usage}", "", summary, "", "options:"] + _help_rows(rows)
    return "\n".join(lines) + "\n"


def _exit_with(text: str) -> None:
    sys.stdout.write(text)
    raise SystemExit(0)


def _parse(argv: Sequence[str]) -> tuple[str, dict]:
    """(command, option -> value) from argv, read by the command's option table.

    -h/--help and --version print to stdout and raise SystemExit(0); any
    other mistake raises ValueError with the message main() prints.
    """
    if not argv:
        raise ValueError("the following arguments are required: command")
    command = argv[0]
    if command in _HELP:
        _exit_with(_help_text())
    if command == "--version":
        _exit_with(f"dtgcert {VERSION}\n")
    if command not in COMMANDS:
        if _is_option(command):
            raise ValueError(f"unrecognized arguments: {command}")
        choices = ", ".join(map(repr, COMMANDS))
        raise ValueError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    table = COMMANDS[command][2]
    args = {name: False if opt.kind == FLAG else opt.default for name, opt in table.items()}
    tokens = argv[1:]
    i = 0
    while i < len(tokens):
        token = tokens[i]
        i += 1
        if token in _HELP:
            _exit_with(_help_text(command))
        name, eq, inline = token.partition("=")
        opt = table.get(name)
        if opt is None:
            raise ValueError(f"unrecognized arguments: {token}")
        if opt.kind == FLAG:
            if eq:
                raise ValueError(f"argument {name}: ignored explicit argument {inline!r}")
            args[name] = True
            continue
        if eq:
            given = [inline]
        else:
            stop = len(tokens) if opt.kind == VALUES else min(i + 1, len(tokens))
            start = i
            while i < stop and not _is_option(tokens[i]):
                i += 1
            given = tokens[start:i]
        if not given:
            expected = "at least one argument" if opt.kind == VALUES else "one argument"
            raise ValueError(f"argument {name}: expected {expected}")
        value = tuple(given) if opt.kind == VALUES else given[0]
        if opt.kind == INT:
            value = _int(value, f"argument {name}: invalid int value: {value!r}")
        if opt.choices and value not in opt.choices:
            choices = ", ".join(map(repr, opt.choices))
            raise ValueError(f"argument {name}: invalid choice: {value!r} (choose from {choices})")
        args[name] = value
    missing = [name for name, opt in table.items() if opt.required and args[name] is None]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    return command, args


def main(argv: Sequence[str] | None = None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
        return COMMANDS[command][1](args)
    except tables.TranscriptionError as exc:
        print(f"transcription error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
