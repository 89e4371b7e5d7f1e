"""Command-line interface.

Subcommands:
  analyze        run a gate pipeline over a parameter range, emit certificates
  verify-tables  check table consistency at concrete parameters

Exit codes: 0 all certificates conclude no_dtg (or checks pass), 2 at least
one undetermined certificate (or failed check), 1 usage or internal error,
including a run that covers nothing: a reversed analyze n range or
verify-tables step range, or an --x filter that matches no outer subgroup.
"""
import argparse
import sys
from typing import Optional, Sequence

from . import pipeline, tables
from .pipeline import VERSION


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="dtgcert", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"dtgcert {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run a gate pipeline and emit certificates")
    analyze.add_argument("--case", required=True, choices=("subfield", "ree"))
    analyze.add_argument("--n", required=True, help="step range, e.g. 1..3 or a single step like 2")
    analyze.add_argument(
        "--x",
        nargs="+",
        default=["all"],
        help="outer subgroup filter: 'all', or orders like '2' or '6,graph'",
    )
    analyze.add_argument(
        "--strict", action="store_true", help="conclude only from certificates that rely on no assumption"
    )
    analyze.add_argument("--format", choices=("json", "text"), default="text")
    analyze.add_argument("--out", help="write the report to this path instead of stdout")
    analyze.add_argument("--max-n", type=int, default=12, help="safety cap on the range end")

    verify = sub.add_parser("verify-tables", help="check table consistency at concrete parameters")
    verify.add_argument("--case", required=True, choices=("subfield", "ree"))
    verify.add_argument(
        "--params",
        required=True,
        help="comma-separated parameter values (e.g. 3,27,243) or a step range like 0..3",
    )
    verify.add_argument("--symbolic", action="store_true", help="also check the polynomial mass identity")

    return parser


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return int(lo), int(hi)
        single = int(text)
        return single, single
    except ValueError:
        raise _UsageError(f"invalid range: {text!r}") from None


def _parse_x(tokens: Sequence[str]) -> pipeline.XFilter:
    if list(tokens) == ["all"]:
        return None
    chosen = []
    for token in tokens:
        if token == "all":
            raise _UsageError("'all' cannot be combined with explicit orders")
        parts = token.split(",")
        try:
            order = int(parts[0])
        except ValueError:
            raise _UsageError(f"invalid outer subgroup token: {token!r}") from None
        if len(parts) == 1:
            chosen.append((order, False))
        elif len(parts) == 2 and parts[1] == "graph":
            chosen.append((order, True))
        else:
            raise _UsageError(f"invalid outer subgroup token: {token!r}")
    return chosen


def _parse_params(case: str, text: str) -> list[int]:
    family = pipeline.get_family(case)
    if ".." in text:
        lo, hi = _parse_range(text)
        if lo > hi:
            raise _UsageError(f"empty step range {lo}..{hi}")
        return [family.param_for_n(n) for n in range(lo, hi + 1)]
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise _UsageError(f"invalid parameter list: {text!r}") from None


def _write(payload: bytes, out: Optional[str]) -> None:
    if out:
        with open(out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode())


def _run_analyze(args: argparse.Namespace) -> int:
    n_min, n_max = _parse_range(args.n)
    if n_max > args.max_n:
        raise _UsageError(f"range end {n_max} exceeds the cap {args.max_n}; raise it with --max-n")
    x_filter = _parse_x(args.x)
    report = pipeline.analyze(args.case, n_min, n_max, x_filter=x_filter, strict=args.strict)
    if not report.certificates:
        raise _UsageError(f"--x {' '.join(args.x)} selects no outer subgroup for n in {n_min}..{n_max}")
    _write(pipeline.emit(report, args.format), args.out)
    return 0 if all(c.conclusion == pipeline.NO_DTG for c in report.certificates) else 2


def _run_verify_tables(args: argparse.Namespace) -> int:
    params = _parse_params(args.case, args.params)
    report = pipeline.verify_tables(args.case, params, symbolic=args.symbolic)
    sys.stdout.write(pipeline.emit(report, "text").decode())
    return 0 if report.ok else 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "analyze":
            return _run_analyze(args)
        if args.command == "verify-tables":
            return _run_verify_tables(args)
        raise _UsageError(f"unknown command: {args.command!r}")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except tables.TranscriptionError as exc:
        print(f"transcription error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
