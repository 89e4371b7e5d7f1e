"""Output checks for the benchmark workloads, independent of the gate code.

Nothing here imports dtgcert. Sweep reports are checked against facts
computed here or pinned from the seed commit: exit codes, well-formed JSON,
every certificate concluding no_dtg, the certificate count (one per divisor
of 2f for each step n, because Out is cyclic of order 2f), and the SHA-256
of the report bytes with the generated_at line removed. Fault-injection
results are checked against the pinned mutant count: every mutant must be
rejected by the concrete checks and by the symbolic check, and each
canonical table must pass both.

self_test() breaks a passing output in small ways and returns the breaks
that check() failed to notice; it must return nothing.
"""
import hashlib
import json
import re

#: Per sweep workload: (case, first n, last n, SHA-256 of the report with
#: the generated_at line removed), pinned from the seed commit.
SWEEP_REPORTS = {
    "sweep-default": (
        ("ree", 0, 12, "b1daf7595159a2fd2a7c0b091be1d09bd6f761f531099a0199e25a1683133a64"),
        ("subfield", 1, 12, "948a0660e199bb015dcfec6cf19b3b6b8039a8759334ac97a995661236535bc3"),
    ),
    "ree-deep": (
        ("ree", 0, 100, "1c8899a14f2d692430634df4022a2246851ffaf9cd2df95cecec242f2f4579a2"),
    ),
}

#: Single-coefficient mutants per family: one per stored coefficient of
#: every length and count polynomial, 488 in all.
FAULT_MUTANTS = {"ree": 152, "subfield": 336}

#: [overall ok, concrete checks ok, symbolic check ok] of a canonical table.
CANONICAL_OK = [True, True, True]

_GENERATED_AT = re.compile(rb'^  "generated_at": "[^"\n]*",\n', re.M)


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def certificate_count(case, n_lo, n_hi):
    """One certificate per subgroup of the cyclic group Out of order 2f."""
    return sum(divisor_count(2 * (2 * n + 1 if case == "ree" else 2 * n)) for n in range(n_lo, n_hi + 1))


def items(workload):
    """Certificates per pass of a sweep, or tables verified per fault-injection pass."""
    if workload in SWEEP_REPORTS:
        return sum(certificate_count(case, lo, hi) for case, lo, hi, _ in SWEEP_REPORTS[workload])
    return sum(FAULT_MUTANTS.values()) + len(FAULT_MUTANTS)


def report_digest(payload):
    """SHA-256 of one emitted report with its generated_at line removed."""
    stripped, count = _GENERATED_AT.subn(b"", payload)
    return hashlib.sha256(stripped).hexdigest() if count == 1 else None


def _split_reports(out):
    """The JSON reports the CLI printed back to back; each ends with a line '}'."""
    chunks = out.split(b"\n}\n")
    if chunks[-1]:
        return None
    return [chunk + b"\n}\n" for chunk in chunks[:-1]]


def check_sweep(workload, codes, out):
    expected = SWEEP_REPORTS[workload]
    problems = []
    if codes != [0] * len(expected):
        problems.append(f"exit codes {codes}, expected all 0")
    payloads = _split_reports(out)
    if payloads is None or len(payloads) != len(expected):
        return problems + [f"expected {len(expected)} JSON reports on stdout"]
    for (case, lo, hi, digest), payload in zip(expected, payloads):
        name = f"{case} {lo}..{hi}"
        try:
            certificates = json.loads(payload)["certificates"]
            conclusions = [cert["conclusion"] for cert in certificates]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{name}: malformed report ({exc})")
            continue
        if any(c != "no_dtg" for c in conclusions):
            problems.append(f"{name}: {sum(c != 'no_dtg' for c in conclusions)} certificates do not conclude no_dtg")
        want = certificate_count(case, lo, hi)
        if len(conclusions) != want:
            problems.append(f"{name}: {len(conclusions)} certificates, expected {want}")
        if report_digest(payload) != digest:
            problems.append(f"{name}: report digest differs from the seed commit's")
    return problems


def check_fault(out):
    try:
        doc = json.loads(out)
        results = {case: (doc[case]["canonical"], doc[case]["mutants"]) for case in FAULT_MUTANTS}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed fault-injection output ({exc})"]
    problems = []
    for case, (canonical, mutants) in results.items():
        if canonical != CANONICAL_OK:
            problems.append(f"{case}: canonical table outcome {canonical}, expected {CANONICAL_OK}")
        if len(mutants) != FAULT_MUTANTS[case]:
            problems.append(f"{case}: {len(mutants)} mutants, expected {FAULT_MUTANTS[case]}")
        missed = [i for i, outcome in enumerate(mutants) if outcome != [False, False, False]]
        if missed:
            problems.append(f"{case}: {len(missed)} mutants not rejected by every check, first #{missed[0]}")
    return problems


def check(workload, codes, out):
    """Problems found in one pass's exit codes and stdout; empty when correct."""
    if workload in SWEEP_REPORTS:
        return check_sweep(workload, codes, out)
    return check_fault(out)


def _flip_digit(match):
    return match.group(1) + str((int(match.group(2)) + 1) % 10).encode()


def _breaks(workload, codes, out):
    """(label, codes, out) variants of a correct output that check() must reject."""
    if workload in SWEEP_REPORTS:
        yield "nonzero exit code", [2] + codes[1:], out
        yield "one conclusion flipped", codes, out.replace(
            b'"conclusion": "no_dtg"', b'"conclusion": "undetermined"', 1
        )
        yield "one witness digit changed", codes, re.sub(
            rb'("witnesses": \{\s*"[^"]+": "[^0-9"]*)([0-9])', _flip_digit, out, count=1
        )
        return
    for label, case, key, value in (
        ("a mutant verifies ok", "ree", "mutants", [True, True, True]),
        ("a mutant passes the concrete checks", "subfield", "mutants", [False, True, False]),
        ("a mutant passes the symbolic check", "ree", "mutants", [False, False, True]),
        ("a canonical table fails", "subfield", "canonical", [False, True, False]),
        ("a mutant missing", "ree", "mutants", None),
    ):
        doc = json.loads(out)
        if key == "canonical":
            doc[case][key] = value
        elif value is None:
            doc[case][key].pop()
        else:
            doc[case][key][0] = value
        yield label, codes, json.dumps(doc).encode()


def self_test(workload, codes, out):
    """Labels of the breaks of a correct output that check() accepted."""
    return [label for label, c, o in _breaks(workload, codes, out) if o == out and c == codes or not check(workload, c, o)]
