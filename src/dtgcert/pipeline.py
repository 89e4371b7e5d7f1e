"""Certificate pipeline, table verification reports, and serialization.

A certificate records, for one (family, n, X) triple, the ordered gate
verdicts and the conclusion they support. A run report bundles the
certificates of a parameter sweep; analyze writes out both families' gate
chains, whose step gates read only the step's table and so run at most once
per n, shared by every X.
Serialization is deterministic except for an explicit generation timestamp.
Run reports are written as JSON by a writer for their fixed schema, in
exactly the bytes json.dumps(..., indent=2) would give for the same data, or
as text.
"""
import sys
import time
from collections.abc import Sequence

from . import gates, tables
from .exact import Poly
from .groups import CaseFamily, OuterOption, get_family, outer_subgroup_options
from .tables import Record

try:
    # The C string encoder json.dumps uses; taken from _json directly, as
    # json.encoder does, so the json package itself is not imported.
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

VERSION = "0.1.0"

#: The formats emit writes; a table check report is written as text only.
FORMATS = ("json", "text")

NO_DTG = "no_dtg"
UNDETERMINED = "undetermined"

_VERDICT_TEXT = {
    gates.EXCLUDES: "Excludes",
    gates.INCONCLUSIVE: "Inconclusive",
    gates.ASSUMED_EXTERNAL: "AssumedExternal",
}

XFilter = Sequence[tuple[int, bool]] | None


class Certificate(Record, fields="case n q x_order x_graph gates conclusion"):
    """One (family, n, X) triple: case and conclusion are strs, n, q and
    x_order ints, x_graph a bool, and gates the GateVerdicts in order."""

    __slots__ = ()

    @property
    def assumptions(self) -> tuple[str, ...]:
        """The union of the assumptions its gates report, in gate order."""
        seen = {}
        for verdict in self.gates:
            for assumption in verdict.assumptions:
                seen[assumption] = None
        return tuple(seen)


class RunReport(Record, fields="tool_version case n_min n_max strict certificates"):
    """A sweep: tool_version and case are strs, n_min and n_max ints,
    strict a bool, and certificates the Certificates in order."""

    __slots__ = ()

    @property
    def summary(self) -> dict[str, int]:
        no_dtg = sum(1 for c in self.certificates if c.conclusion == NO_DTG)
        return {
            "total": len(self.certificates),
            "no_dtg": no_dtg,
            "undetermined": len(self.certificates) - no_dtg,
        }


class ParamCheck(Record, fields="param table error mass_total suborbit_total lengths_divide", defaults=(None, "", 0, 0, False)):
    """What verify_tables measured at one parameter; a check without a table holds only its error.

    param, mass_total and suborbit_total are ints, table the
    tables.ConcreteTable or None, error a str and lengths_divide a bool.
    """

    __slots__ = ()

    @property
    def mass_ok(self) -> bool:
        return self.table is not None and self.mass_total == self.table.index

    @property
    def suborbit_ok(self) -> bool:
        return self.table is not None and self.suborbit_total == self.table.suborbits

    @property
    def ok(self) -> bool:
        # the mass check fails first for almost every faulty table
        return self.mass_ok and self.lengths_divide and self.suborbit_ok


class TableCheckReport(Record, fields="case checks symbolic_ok"):
    """A table check: the str case, the ParamChecks in order, and symbolic_ok,
    a bool, or None when the symbolic identity was not checked."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.symbolic_ok is not False and all(check.ok for check in self.checks)


def conclude(verdicts: Sequence[gates.GateVerdict], strict: bool = False) -> str:
    """Fold gate verdicts into a conclusion.

    Any excluding gate settles the case, and so does a terminal
    externally-assumed gate. Strict mode concludes only from a chain that
    relies on nothing external: if any verdict lists an assumption, whatever
    its outcome, the case stays undetermined, and a terminal
    externally-assumed gate settles nothing.
    """
    if strict:
        for v in verdicts:
            if v.assumptions:
                return UNDETERMINED
    for v in verdicts:
        if v.outcome == gates.EXCLUDES:
            return NO_DTG
    if verdicts and verdicts[-1].outcome == gates.ASSUMED_EXTERNAL and not strict:
        return NO_DTG
    return UNDETERMINED


def _select_options(family: CaseFamily, n: int, x_filter: XFilter) -> tuple[OuterOption, ...]:
    options = outer_subgroup_options(family, n)
    if x_filter is None:
        return options
    chosen = []
    for option in options:
        for order, require_graph in x_filter:
            if option.order == order and (not require_graph or option.contains_graph_auto):
                chosen.append(option)
                break
    return tuple(chosen)


def analyze(
    case: str, n_min: int, n_max: int, x_filter: XFilter = None, strict: bool = False
) -> RunReport:
    """Run the family's gate chain for every n in range and every selected X.

    Each end must be an int step of the family, and n_min <= n_max;
    otherwise ValueError is raised before the table is built. The table is
    built once, and two polynomial identities, which hold at every n if
    they hold at all, are checked once: the symbolic mass identity, and
    that the count polynomials sum to the family's suborbit count N. A
    table that fails either raises TranscriptionError before any
    certificate is made. Each n instantiates the table exactly once, with
    its integrality checks, and every gate of every X there reads that one
    table.

    The step gates read the table alone, not X. So they run lazily, once
    per n, the first time an X is inconclusive, and every later X of that n
    shares their verdicts.

    Witnesses hold integers of any size written as text, such as bhk_gate's
    d0, so like emit the sweep runs with Python's int-to-str digit cap
    lifted, once for the whole sweep, and the caller's cap restored
    afterwards.
    """
    family = get_family(case)
    if family.check_step(n_min) > family.check_step(n_max):
        raise ValueError(f"empty step range {n_min}..{n_max}")
    table = tables.build_table(family)
    if not tables.verify_mass_symbolic(table):
        raise tables.TranscriptionError(f"symbolic mass identity failed for the {family.kind} table")
    if Poly.sum_of_products((row.count, tables.ONE) for row in table.rows) != family.suborbits:
        raise tables.TranscriptionError(f"the counts of the {family.kind} table do not sum to its suborbit count")
    steps = range(n_min, n_max + 1)
    certificates = _without_digit_cap(_certificates, family, table, steps, x_filter, strict)
    return RunReport(VERSION, case, n_min, n_max, strict, certificates)


def _certificates(
    family: CaseFamily, table: tables.SuborbitTable, steps: range, x_filter: XFilter, strict: bool
) -> tuple[Certificate, ...]:
    """analyze's sweep: the certificates of every step and selected X, in order."""
    subfield = family.kind == "subfield"
    certificates = []
    for n in steps:
        ct = tables.instantiate(table, n)
        step_verdicts = None
        for option in _select_options(family, n, x_filter):
            if subfield:
                verdicts = (gates.multiplicity_free_gate(ct, option),)
            elif ct.param == 3:
                verdicts = (gates.bcn_small_case_gate(ct, option.order),)
            else:
                verdicts = (gates.bhk_gate(ct, option.order),)
            if verdicts[0].outcome == gates.INCONCLUSIVE:
                if step_verdicts is None:
                    if subfield:
                        step_verdicts = (gates.sigma_in_x_gate(ct), gates.involution_gate(ct))
                    else:
                        step_verdicts = (gates.kernel_chain_gate(ct),)
                verdicts += step_verdicts
            certificates.append(
                Certificate(ct.case, n, ct.q, option.order, option.contains_graph_auto, verdicts, conclude(verdicts, strict))
            )
    return tuple(certificates)


def verify_tables(
    case: str,
    params: Sequence[int],
    symbolic: bool = False,
    table: tables.SuborbitTable | None = None,
) -> TableCheckReport:
    """Mass, divisibility, integrality, and count checks per parameter.

    Each parameter is inverted to its step once, an inadmissible one giving
    an error row, and instantiated there once, with its integrality checks;
    tables.measure takes its mass, suborbit total and whether every length
    divides |H| in one pass.

    The optional table override exists for fault-injection tests; by default
    the canonical table of the named family is checked. An override from
    another family, or a call that checks nothing (no params and no symbolic
    check), raises ValueError rather than reporting on the wrong table or on
    nothing.
    """
    family = get_family(case)
    if not params and not symbolic:
        raise ValueError("verify_tables needs at least one parameter or symbolic=True")
    if table is not None and table.family.kind != case:
        raise ValueError(f"verify_tables case={case} was given a {table.family.kind} table")
    tab = table if table is not None else tables.build_table(family)
    checks = []
    for param in params:
        try:
            ct = tables.instantiate(tab, family.n_of_param(param))
        except ValueError as exc:
            checks.append(ParamCheck(param, error=str(exc)))
            continue
        checks.append(ParamCheck(param, ct, "", *tables.measure(ct)))
    symbolic_ok = tables.verify_mass_symbolic(tab) if symbolic else None
    return TableCheckReport(case, tuple(checks), symbolic_ok)


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def gate_text(verdict: gates.GateVerdict) -> str:
    """One-line rendering: gate name, verdict, then each witness, two-space separated."""
    parts = [f"gate: {verdict.gate_name}", f"verdict: {_VERDICT_TEXT[verdict.outcome]}"]
    parts.extend(f"{k}: {v}" for k, v in verdict.witnesses.items())
    return "  ".join(parts)


def _bool_text(value: bool) -> str:
    """A boolean as JSON spells it, in both the JSON and the text reports."""
    return "true" if value else "false"


def certificate_text(cert: Certificate) -> str:
    flag = _bool_text(cert.x_graph)
    lines = [f"certificate: case={cert.case} n={cert.n} q={cert.q} x_order={cert.x_order} x_graph={flag}"]
    for verdict in cert.gates:
        lines.append(f"  {gate_text(verdict)}")
    lines.append(f"  conclusion: {cert.conclusion}")
    for assumption in cert.assumptions:
        lines.append(f"  assumption: {assumption}")
    return "\n".join(lines)


class _JsonStrings(dict):
    """JSON string literals of the strs and ints of one report, each encoded once."""

    def __missing__(self, value: str | int) -> str:
        code = self[value] = encode_basestring_ascii(str(value))
        return code


def _run_report_json(report: RunReport) -> str:
    """The run report as JSON, in the bytes json.dumps(..., indent=2) gives.

    The schema is fixed, so its lines are written directly and joined once:
    strings through the encoder json.dumps uses, integers with str, and
    every list or object with one entry per line, or as [] / {} when empty.
    Witnesses are written as strings. Names, witness keys and integer
    literals recur across a sweep (gate names, narratives, conclusions,
    assumptions, each step's q, table integers such as vertices), so their
    literals are memoized. str witnesses are mostly unique per X (d0,
    d0_lowest_terms), so they go straight to the encoder; witnesses of
    other types, bool among them, bypass the memo too, because they can
    compare equal to an int.
    """
    enc = encode_basestring_ascii
    codes = _JsonStrings()
    summary = report.summary
    out = [
        "{",
        f'  "tool_version": {enc(report.tool_version)},',
        f'  "case": {enc(report.case)},',
        f'  "n_min": {report.n_min},',
        f'  "n_max": {report.n_max},',
        f'  "strict": {_bool_text(report.strict)},',
        f'  "generated_at": {enc(_timestamp())},',
        '  "summary": {',
        f'    "total": {summary["total"]},',
        f'    "no_dtg": {summary["no_dtg"]},',
        f'    "undetermined": {summary["undetermined"]}',
        "  },",
    ]
    append = out.append
    if not report.certificates:
        append('  "certificates": []')
    else:
        append('  "certificates": [')
        for cert in report.certificates:
            append(
                f'    {{\n      "case": {codes[cert.case]},\n      "n": {cert.n},\n'
                f'      "q": {codes[cert.q]},\n      "x_order": {cert.x_order},\n'
                f'      "x_graph": {"true" if cert.x_graph else "false"},'
            )
            if not cert.gates:
                append('      "gates": [],')
            else:
                append('      "gates": [')
                for verdict in cert.gates:
                    append(
                        f'        {{\n          "name": {codes[verdict.gate_name]},\n'
                        f'          "verdict": {codes[verdict.outcome]},'
                    )
                    if not verdict.witnesses:
                        append('          "witnesses": {},')
                    else:
                        append('          "witnesses": {')
                        append(",\n".join([
                            f"            {codes[k]}: {enc(v) if type(v) is str else codes[v] if type(v) is int else enc(str(v))}"
                            for k, v in verdict.witnesses.items()
                        ]))
                        append("          },")
                    append(f'          "paper_anchor": {codes[verdict.narrative]}\n        }},')
                out[-1] = out[-1][:-1]
                append("      ],")
            append(f'      "conclusion": {codes[cert.conclusion]},')
            assumptions = cert.assumptions
            if not assumptions:
                append('      "assumptions": []\n    },')
            else:
                items = ",\n".join([f"        {codes[a]}" for a in assumptions])
                append(f'      "assumptions": [\n{items}\n      ]\n    }},')
        out[-1] = out[-1][:-1]
        append("  ]")
    append("}\n")
    return "\n".join(out)


def _run_report_text(report: RunReport) -> str:
    summary = report.summary
    lines = [
        f"dtgcert {report.tool_version}",
        f"case: {report.case}  n: {report.n_min}..{report.n_max}  strict: {_bool_text(report.strict)}",
        f"generated_at: {_timestamp()}",
        f"summary: total={summary['total']} no_dtg={summary['no_dtg']} undetermined={summary['undetermined']}",
    ]
    for cert in report.certificates:
        lines.append("")
        lines.append(certificate_text(cert))
    return "\n".join(lines) + "\n"


def _table_report_text(report: TableCheckReport) -> str:
    lines = [f"verify-tables case={report.case} params={','.join(str(c.param) for c in report.checks)}"]
    for check in report.checks:
        lines.append("")
        if check.table is None:
            lines.append(f"param={check.param}\terror={check.error}")
            continue
        lines.append(tables.dump(check.table).rstrip("\n"))
        residual = check.mass_total - check.table.index
        lines.append(f"mass: {'ok' if check.mass_ok else 'FAIL'} total={check.mass_total} residual={residual}")
        lines.append(f"divisibility: {'ok' if check.lengths_divide else 'FAIL'}")
        lines.append(
            f"suborbits: {'ok' if check.suborbit_ok else 'FAIL'} total={check.suborbit_total} expected={check.table.suborbits}"
        )
    if report.symbolic_ok is not None:
        lines.append("")
        lines.append(f"symbolic mass identity: {'ok' if report.symbolic_ok else 'FAIL'}")
    lines.append("")
    lines.append(f"result: {'PASS' if report.ok else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _without_digit_cap(fn, *args):
    """fn(*args) with Python's int-to-str digit cap lifted; the caller's cap is restored afterwards.

    The only place the package touches the cap. analyze and emit convert
    only integers the package computed, so they write them in full.
    """
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return fn(*args)
    finally:
        sys.set_int_max_str_digits(cap)


def emit(report: RunReport | TableCheckReport, format: str = "json") -> bytes:
    """Deterministic serialization (modulo the generated_at timestamp).

    Integers of any size are written in full: the writers run through
    _without_digit_cap, as analyze's sweep does.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format: {format!r}")
    if isinstance(report, RunReport):
        write = _run_report_json if format == "json" else _run_report_text
    elif isinstance(report, TableCheckReport):
        if format == "json":
            raise ValueError("table check reports are emitted as text only")
        write = _table_report_text
    else:
        raise TypeError(f"cannot emit {type(report).__name__}")
    return _without_digit_cap(write, report).encode()
