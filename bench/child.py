"""One pass of a benchmark workload, in a fresh interpreter.

Usage: python3 bench/child.py WORKLOAD SEED TRACE SPANS_PATH
       python3 bench/child.py setup

run.py starts one of these per pass, with the package's source directory on
PYTHONPATH. The package is imported first, before anything else, so the
import time is what a cold `dtgcert` process pays; `setup` reports only
that and exits. The pass writes its
output to stdout: the sweep reports exactly as the CLI prints them, or the
fault-injection outcomes as one JSON object. The pass record (timings,
exit codes, trace summary) goes to stderr as the last line, one JSON object.
With TRACE=1 the layer wrappers are installed after the inputs are built and
before the timed pass, and the spans are written to SPANS_PATH afterwards.
The reference workload runs just before and just after the timed pass, and
the record carries the mean of the two times.
"""
import sys
import time

_t0 = time.perf_counter()
import dtgcert  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

from dtgcert import cli, pipeline, tables  # noqa: E402
from dtgcert.exact import Poly  # noqa: E402

#: CLI argument lists of one pass of each sweep workload.
SWEEPS = {
    "sweep-default": (
        ["analyze", "--case", "ree", "--n", "0..12", "--x", "all", "--format", "json"],
        ["analyze", "--case", "subfield", "--n", "1..12", "--x", "all", "--format", "json"],
    ),
    "ree-deep": (
        ["analyze", "--case", "ree", "--n", "0..100", "--x", "all", "--max-n", "100", "--format", "json"],
    ),
}

#: Steps n from which tables-fault draws its two verification parameters.
FAULT_STEPS = {"ree": range(1, 5), "subfield": range(2, 6)}

#: Nonzero coefficient offsets tables-fault draws from.
FAULT_OFFSETS = (-3, -2, -1, 1, 2, 3)


def reference_s():
    """Seconds this host takes for a fixed workload that uses no dtgcert code.

    It is shaped like the package's inner loops: Fraction polynomials
    evaluated by Horner's rule at powers of 3, results keyed in a dict. A
    change to the package cannot move it; a change in how fast the shared
    host runs Python moves it along with the pass it brackets.
    """
    t0 = time.perf_counter()
    for _ in range(20):
        coeffs = [Fraction(k * k - 7, k + 1) for k in range(12)]
        seen = {}
        for n in range(1, 100):
            q = 3 ** (2 * n + 1)
            acc = Fraction(0)
            for c in reversed(coeffs):
                acc = acc * q + c
            seen[(n, acc.numerator % 1009)] = acc
    return time.perf_counter() - t0


def mutants(table, rng):
    """Every single-coefficient mutant of a table, each offset drawn from rng."""
    for i, row in enumerate(table.rows):
        for attr in ("length", "count"):
            poly = getattr(row, attr)
            for k in range(poly.degree + 1):
                coeffs = list(poly.coeffs)
                coeffs[k] += rng.choice(FAULT_OFFSETS)
                fields = {"length": row.length, "count": row.count, attr: Poly(coeffs)}
                new_row = tables.SuborbitRow(row.z, fields["length"], fields["count"])
                yield tables.SuborbitTable(table.family, table.rows[:i] + (new_row,) + table.rows[i + 1 :])


def fault_inputs(seed):
    """(case, params, mutant tables) per family, all drawn from the seed."""
    rng = random.Random(seed)
    inputs = []
    for case, steps in FAULT_STEPS.items():
        family = pipeline.get_family(case)
        params = sorted(family.param_for_n(n) for n in rng.sample(steps, 2))
        inputs.append((case, params, list(mutants(tables.build_table(family), rng))))
    return inputs


def outcome(report):
    """[overall ok, every concrete check ok, symbolic check ok] of a table report."""
    return [report.ok, all(check.ok for check in report.checks), bool(report.symbolic_ok)]


def run_sweep(workload):
    codes = [cli.main(argv) for argv in SWEEPS[workload]]
    sys.stdout.flush()
    return codes


def run_fault(inputs):
    reports = []
    for case, params, tabs in inputs:
        canonical = pipeline.verify_tables(case, params, symbolic=True)
        reports.append((case, params, canonical, [pipeline.verify_tables(case, params, symbolic=True, table=t) for t in tabs]))
    return reports


def main(argv):
    if argv == ["setup"]:
        sys.stderr.write(json.dumps({"dtgcert_file": dtgcert.__file__, "setup_s": SETUP_S}) + "\n")
        return 0
    workload, seed, trace, spans_path = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    if workload not in SWEEPS and workload != "tables-fault":
        raise SystemExit(f"unknown workload: {workload!r}")
    inputs = fault_inputs(seed) if workload == "tables-fault" else None
    recorder = None
    if trace:
        import spans

        recorder = spans.install(dtgcert)
    ref_before = reference_s()
    t0 = time.perf_counter()
    result = run_sweep(workload) if inputs is None else run_fault(inputs)
    pass_s = time.perf_counter() - t0
    record = {
        "dtgcert_file": dtgcert.__file__,
        "setup_s": SETUP_S,
        "pass_s": pass_s,
        "ref_s": (ref_before + reference_s()) / 2,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "codes": [],
        "trace": None,
    }
    if recorder is not None:
        recorder.write(spans_path)
        record["trace"] = recorder.summary()
    if inputs is None:
        record["codes"] = result
    else:
        doc = {
            case: {"params": params, "canonical": outcome(canonical), "mutants": [outcome(r) for r in reports]}
            for case, params, canonical, reports in result
        }
        sys.stdout.write(json.dumps(doc) + "\n")
        sys.stdout.flush()
    sys.stderr.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
