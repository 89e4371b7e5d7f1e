import json
import random
import re
import sys
import time
from collections import Counter
from datetime import datetime, timedelta, timezone
from functools import partial

import pytest

import dtgcert.gates as gates
import dtgcert.pipeline as pipeline
import dtgcert.tables as tables
from dtgcert.exact import Poly
from dtgcert.groups import REE, SUBFIELD
from dtgcert.gates import (
    ASSUMED_EXTERNAL,
    ASSUMPTION_BCN,
    ASSUMPTION_KERNEL,
    ASSUMPTION_MULTIPLICITY_FREE,
    ASSUMPTION_OUTER_EVEN,
    EXCLUDES,
    INCONCLUSIVE,
    GateVerdict,
)
from dtgcert.pipeline import (
    NO_DTG,
    UNDETERMINED,
    VERSION,
    Certificate,
    RunReport,
    analyze,
    certificate_text,
    conclude,
    emit,
    gate_text,
    verify_tables,
)
from helpers import measured_row_by_row, r2_length_plus_one, replace_row, single_coefficient_mutants, unstamped


def _v(outcome, name="g", assumptions=()):
    witnesses = {"w": 1} if outcome == EXCLUDES else {}
    return GateVerdict(name, outcome, witnesses, assumptions=assumptions)


def certificate_jsonable(cert):
    """Reference form of one certificate in a JSON run report."""
    return {
        "case": cert.case,
        "n": cert.n,
        "q": str(cert.q),
        "x_order": cert.x_order,
        "x_graph": cert.x_graph,
        "gates": [
            {
                "name": verdict.gate_name,
                "verdict": verdict.outcome,
                "witnesses": {k: str(v) for k, v in verdict.witnesses.items()},
                "paper_anchor": verdict.narrative,
            }
            for verdict in cert.gates
        ],
        "conclusion": cert.conclusion,
        "assumptions": list(cert.assumptions),
    }


def run_report_jsonable(report):
    """Reference form of a JSON run report, with a fixed timestamp."""
    return {
        "tool_version": report.tool_version,
        "case": report.case,
        "n_min": report.n_min,
        "n_max": report.n_max,
        "strict": report.strict,
        "generated_at": "2000-01-01T00:00:00Z",
        "summary": report.summary,
        "certificates": [certificate_jsonable(c) for c in report.certificates],
    }


def test_conclude():
    assert conclude([]) == UNDETERMINED
    assert conclude([_v(INCONCLUSIVE)]) == UNDETERMINED
    assert conclude([_v(INCONCLUSIVE), _v(EXCLUDES)]) == NO_DTG
    assert conclude([_v(EXCLUDES), _v(INCONCLUSIVE)]) == NO_DTG
    assert conclude([_v(ASSUMED_EXTERNAL)]) == NO_DTG
    assert conclude([_v(ASSUMED_EXTERNAL)], strict=True) == UNDETERMINED
    # an externally assumed gate only settles the case as the last word
    assert conclude([_v(ASSUMED_EXTERNAL), _v(INCONCLUSIVE)]) == UNDETERMINED


def test_conclude_strict_needs_a_chain_without_assumptions():
    assert conclude([_v(EXCLUDES)], strict=True) == NO_DTG
    assert conclude([_v(INCONCLUSIVE), _v(EXCLUDES)], strict=True) == NO_DTG
    assert conclude([_v(EXCLUDES, assumptions=("a",))]) == NO_DTG
    assert conclude([_v(EXCLUDES, assumptions=("a",))], strict=True) == UNDETERMINED
    # an assumption anywhere in the chain blocks a strict exclusion
    chain = [_v(INCONCLUSIVE, assumptions=("a",)), _v(EXCLUDES)]
    assert conclude(chain) == NO_DTG
    assert conclude(chain, strict=True) == UNDETERMINED
    assert conclude([_v(ASSUMED_EXTERNAL, assumptions=("a",))], strict=True) == UNDETERMINED


def test_analyze_subfield_shape():
    report = analyze("subfield", 1, 3)
    assert report.case == "subfield"
    assert len(report.certificates) == 13
    per_n = {}
    for cert in report.certificates:
        per_n[cert.n] = per_n.get(cert.n, 0) + 1
        assert cert.conclusion == NO_DTG
        assert cert.q == 9**cert.n
        names = [g.gate_name for g in cert.gates]
        if cert.x_graph:
            assert names == ["multiplicity_free", "sigma_in_x", "involution"]
            assert cert.gates[-1].outcome == EXCLUDES
        else:
            assert names == ["multiplicity_free"]
            assert cert.gates[0].outcome == EXCLUDES
    assert per_n == {1: 3, 2: 4, 3: 6}
    assert report.summary == {"total": 13, "no_dtg": 13, "undetermined": 0}


def test_analyze_ree_shape():
    report = analyze("ree", 0, 3)
    assert len(report.certificates) == 14
    for cert in report.certificates:
        assert cert.conclusion == NO_DTG
        names = [g.gate_name for g in cert.gates]
        if cert.q == 3:
            assert names == ["bcn_small_case"]
            assert cert.assumptions == (ASSUMPTION_BCN,)
        else:
            assert names[0] == "bhk_diameter"
            if cert.gates[0].outcome == EXCLUDES:
                assert names == ["bhk_diameter"]
                assert cert.assumptions == ()
            else:
                assert names == ["bhk_diameter", "kernel_chain"]
                assert cert.gates[1].outcome == EXCLUDES
                assert cert.assumptions == (ASSUMPTION_KERNEL,)


def test_analyze_x_filter():
    report = analyze("ree", 1, 1, x_filter=[(6, False)])
    (cert,) = report.certificates
    assert cert.x_order == 6 and cert.x_graph
    report = analyze("ree", 1, 1, x_filter=[(4, False)])
    assert report.certificates == ()
    report = analyze("subfield", 1, 1, x_filter=[(4, True)])
    (cert,) = report.certificates
    assert cert.x_order == 4 and cert.x_graph
    report = analyze("subfield", 1, 1, x_filter=[(2, True)])
    assert report.certificates == ()


def test_analyze_strict_mode():
    report = analyze("ree", 0, 0, strict=True)
    assert all(c.conclusion == UNDETERMINED for c in report.certificates)
    # every subfield chain starts from the multiplicity-free classification
    report = analyze("subfield", 1, 1, strict=True)
    assert report.certificates
    assert all(c.conclusion == UNDETERMINED for c in report.certificates)
    # at n = 1 every X is excluded by the kernel chain, which assumes kernels
    report = analyze("ree", 1, 1, strict=True)
    assert report.certificates
    assert all(c.conclusion == UNDETERMINED for c in report.certificates)
    # at n = 4 bhk excludes every X and assumes nothing
    report = analyze("ree", 4, 4, strict=True)
    assert report.certificates
    assert all(c.conclusion == NO_DTG for c in report.certificates)
    # strict mode changes conclusions only where an assumption was used
    lenient = analyze("ree", 0, 4)
    strict = analyze("ree", 0, 4, strict=True)
    for loose, tight in zip(lenient.certificates, strict.certificates, strict=True):
        assert loose.gates == tight.gates
        assert tight.conclusion == (UNDETERMINED if tight.assumptions else loose.conclusion)


def test_analyze_range_validation():
    for args, message in (
        (("subfield", 0, 2), "subfield family requires n >= 1"),
        (("ree", -1, 2), "ree family requires n >= 0"),
        (("ree", 5, 2), "empty step range 5..2"),
        (("subfield", 3, 2), "empty step range 3..2"),
        (("nonesuch", 1, 2), "unknown case family: 'nonesuch'"),
        # each end is checked as a step of the family, its type included
        (("ree", 0, 2.0), "ree family requires n >= 0"),
        (("ree", True, 1), "ree family requires n >= 0"),
        (("ree", 0, True), "ree family requires n >= 0"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            analyze(*args)


def test_subfield_assumptions_present():
    report = analyze("subfield", 1, 1)
    for cert in report.certificates:
        assert cert.assumptions == (ASSUMPTION_MULTIPLICITY_FREE, ASSUMPTION_OUTER_EVEN)


def test_verify_tables_ok():
    report = verify_tables("ree", [3, 27, 243, 2187], symbolic=True)
    assert report.ok
    assert report.symbolic_ok
    for check in report.checks:
        assert check.mass_ok and check.lengths_divide and check.suborbit_ok
        assert check.table.suborbits == check.param + 6
    report = verify_tables("subfield", [3, 9, 27, 81], symbolic=True)
    assert report.ok
    for check in report.checks:
        assert check.table.suborbits == check.param**2 + 2 * check.param + 6


def test_analyze_refuses_a_table_whose_counts_miss_the_suborbit_count(monkeypatch):
    # R3 and R4 (one suborbit each, of equal length) merged into one row of
    # twice their length: the mass is kept and N is one short, so only the
    # count check sees it
    base = tables.build_table(REE)
    r3, r4 = base.rows[2:4]
    assert r3.length == r4.length and r3.count == r4.count == Poly.const(1)
    merged = tables.SuborbitRow(("R3+R4", r3.z[1]), 2 * r3.length, r3.count)
    table = tables.SuborbitTable(REE, base.rows[:2] + (merged,) + base.rows[4:])
    assert tables.verify_mass_symbolic(table)
    monkeypatch.setattr(tables, "build_table", lambda family: table)
    message = "the counts of the ree table do not sum to its suborbit count"
    with pytest.raises(tables.TranscriptionError, match=f"^{message}$"):
        analyze("ree", 0, 1)
    (check,) = verify_tables("ree", [27], table=table).checks
    assert (check.mass_ok, check.suborbit_ok) == (True, False)


def test_param_checks_store_what_was_measured_and_derive_their_verdicts():
    assert pipeline.ParamCheck._fields == (
        "param", "table", "error", "mass_total", "suborbit_total", "lengths_divide"
    )
    base = tables.build_table(REE)
    mutant = r2_length_plus_one(base)
    error, good = verify_tables("ree", [9, 27]).checks
    bad = verify_tables("ree", [27], table=mutant).checks[0]
    assert (error.table, error.ok) == (None, False)
    assert good.table == tables.instantiate(base, 1) and good.error == ""
    assert (good.mass_total, good.suborbit_total) == (good.table.index, 33)
    assert (good.mass_ok, good.lengths_divide, good.suborbit_ok, good.ok) == (True, True, True, True)
    # R2's length + 1 adds 1 to the mass and breaks divisibility, not the count
    assert (bad.mass_total, bad.suborbit_total) == (good.table.index + 1, 33)
    assert (bad.mass_ok, bad.lengths_divide, bad.suborbit_ok, bad.ok) == (False, False, True, False)


def test_a_check_that_holds_only_an_error_fails_each_verdict():
    (check,) = verify_tables("ree", [9]).checks
    assert check.table is None and check.error
    assert (check.mass_ok, check.lengths_divide, check.suborbit_ok, check.ok) == (False, False, False, False)


def test_verify_tables_reports_each_bad_parameter():
    # a power of 3 off the family's form, a parameter below 1, subfield's 1,
    # or a float equal to an admissible parameter gets the family's own
    # message in an error row, and the report still emits
    for case, bad, form in (
        ("ree", 9, "3**(2n+1)"),
        ("ree", 0, "3**(2n+1)"),
        ("ree", -3, "3**(2n+1)"),
        ("ree", 27.0, "3**(2n+1)"),
        ("subfield", 1, "3**n, n >= 1"),
        ("subfield", 9.0, "3**n, n >= 1"),
    ):
        report = verify_tables(case, [bad])
        assert not report.ok
        lines = emit(report, "text").decode().splitlines()
        assert f"param={bad}\terror={case} parameter must be {form}: {bad}" in lines
        assert lines[-1] == "result: FAIL"


def _r2_and_r3_lengths_moved(table):
    """R2's length + 1 and R3's length - 1: the mass and counts stay, and R2's length divides |H| no more."""
    table = replace_row(table, 1, "length", table.rows[1].length + 1)
    return replace_row(table, 2, "length", table.rows[2].length - 1)


def _r2_counted_for_r3_and_r4(table):
    """R2 counted 1 + q times, R3 and R4 not at all: their lengths sum to q times R2's, so the mass stays."""
    table = replace_row(table, 1, "count", 1 + 3 * Poly.var() ** 2)
    for i in (2, 3):
        table = replace_row(table, i, "count", Poly.const(0))
    return table


def _r9_count_moved_off_q27(table):
    """R9's count + (m - 3): unchanged at q = 27, where m = 3, so only the symbolic identity sees it."""
    return replace_row(table, 8, "count", table.rows[8].count + Poly.var() - 3)


@pytest.mark.parametrize(
    "mutate, failing",
    [
        (_r2_and_r3_lengths_moved, "divisibility: FAIL"),
        (_r2_counted_for_r3_and_r4, "suborbits: FAIL total=58 expected=33"),
        (_r9_count_moved_off_q27, "symbolic mass identity: FAIL"),
    ],
    ids=["divisibility", "suborbit-count", "symbolic-identity"],
)
def test_each_check_alone_fails_the_report_and_the_exit_code(mutate, failing, monkeypatch, capsys):
    from dtgcert import cli

    mutant = mutate(tables.build_table(REE))
    assert not verify_tables("ree", [27], symbolic=True, table=mutant).ok
    monkeypatch.setattr(tables, "build_table", lambda family: mutant)
    assert cli.main(["verify-tables", "--case", "ree", "--n", "1"]) == 2
    # the mass check and the other checks pass
    assert [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line] == [failing, "result: FAIL"]


def test_verify_tables_of_no_parameter_is_an_error():
    # a check of nothing must not render "result: PASS"; the symbolic
    # identity alone is a check
    for case in ("ree", "subfield"):
        with pytest.raises(ValueError, match="at least one parameter"):
            verify_tables(case, [])
        report = verify_tables(case, [], symbolic=True)
        assert report.ok and report.checks == ()


def test_verify_tables_rejects_a_table_of_the_other_family():
    # the report is headed by its case, so rows of the other family under it
    # would be mislabelled
    for case, other in (("ree", SUBFIELD), ("subfield", REE)):
        table = tables.build_table(other)
        with pytest.raises(ValueError, match=f"case={case} was given a {other.kind} table"):
            verify_tables(case, [3], table=table)
        with pytest.raises(ValueError, match=f"case={case} was given a {other.kind} table"):
            verify_tables(case, [], symbolic=True, table=table)
        assert verify_tables(other.kind, [3], table=table).ok


def _count_calls(monkeypatch, module, names):
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_verify_tables_detects_broken_override(monkeypatch):
    mutant = r2_length_plus_one(tables.build_table(REE))
    # the mutant is checked as given: no table keyed by its family stands in
    calls = _count_calls(monkeypatch, tables, ("build_table", "instantiate"))
    report = verify_tables("ree", [3, 27], symbolic=True, table=mutant)
    assert calls == {"instantiate": 2}
    assert not report.ok
    assert not report.symbolic_ok


def test_analyze_checks_the_symbolic_mass_identity_before_any_certificate(monkeypatch, capsys):
    from dtgcert import cli

    mutant = r2_length_plus_one(tables.build_table(REE))
    # R2's length + 1 stays integral, so instantiate alone accepts the mutant
    for n in range(3):
        tables.instantiate(mutant, n)
    monkeypatch.setattr(tables, "build_table", lambda family: mutant)
    with pytest.raises(tables.TranscriptionError):
        analyze("ree", 0, 2)
    assert cli.main(["analyze", "--case", "ree", "--n", "0..2", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("transcription error:")
    assert captured.out == ""


#: Verification parameters of the fault tests below: ree q, subfield r.
FAULT_PARAMS = {"ree": (27, 243), "subfield": (9, 27)}


def _degree_and_denominator_mutants(table, rng):
    """Mutants the benchmark's single-coefficient faults leave out.

    Each row's length and count gets a new top coefficient, once just above
    its own degree and once above every degree of the table and its family,
    and each count is divided by 2.
    """
    t = Poly.var()
    beyond = 1 + max([table.family.index.degree, table.family.h_order.degree]
                     + [p.degree for row in table.rows for p in (row.length, row.count)])
    for i, row in enumerate(table.rows):
        for attr in ("length", "count"):
            poly = getattr(row, attr)
            for degree in (poly.degree + 1, beyond):
                yield replace_row(table, i, attr, poly + rng.choice((-3, -2, -1, 1, 2, 3)) * t**degree)
        yield replace_row(table, i, "count", row.count / 2)


@pytest.mark.parametrize("case", sorted(FAULT_PARAMS))
def test_verify_tables_rejects_degree_and_denominator_mutants(case):
    family = REE if case == "ree" else SUBFIELD
    table = tables.build_table(family)
    mutants = list(_degree_and_denominator_mutants(table, random.Random(6)))
    assert len(mutants) == 5 * len(table.rows)
    for mutant in mutants:
        report = verify_tables(case, FAULT_PARAMS[case], symbolic=True, table=mutant)
        # at every parameter instantiate raises or a concrete check fails
        assert [check.ok for check in report.checks] == [False, False]
        assert report.symbolic_ok is False
        assert not tables.verify_mass_symbolic(mutant)
    assert verify_tables(case, FAULT_PARAMS[case], symbolic=True).ok


def test_verify_tables_measures_what_the_row_by_row_definitions_give():
    params = {"ree": (3, 27, 243), "subfield": (9, 27)}
    rng = random.Random(20)
    offset = partial(rng.choice, (-3, -2, -1, 1, 2, 3))
    divides = set()
    for case, family in (("ree", REE), ("subfield", SUBFIELD)):
        table = tables.build_table(family)
        for tab in [table, *single_coefficient_mutants(table, offset)]:
            for check in verify_tables(case, params[case], table=tab).checks:
                if check.table is None:
                    continue
                assert check[3:] == measured_row_by_row(check.table)
                divides.add(check.lengths_divide)
    assert divides == {True, False}


def test_verify_tables_flags_agree_with_the_tables_definitions_on_hand_built_tables():
    base = tables.build_table(REE)
    r2 = base.rows[1]

    def with_extra_row(length, family=REE):
        return tables.SuborbitTable(family, base.rows + (tables.SuborbitRow(r2.z, length, Poly.const(1)),))

    cases = [
        # a length equal to |H| divides it
        (with_extra_row(REE.h_order), True),
        # a length above |H| divides it not
        (with_extra_row(2 * REE.h_order), False),
        # under an |H| below 0 every length divides it
        (tables.SuborbitTable(REE._replace(h_order=-REE.h_order), base.rows), True),
        # the trivial row divides every |H|, even |H| = 1
        (tables.SuborbitTable(REE._replace(h_order=Poly.const(1)), base.rows[:1]), True),
        (base, True),
    ]
    for table, divides in cases:
        (check,) = verify_tables("ree", [27], table=table).checks
        assert check.lengths_divide is divides
        assert check[3:] == measured_row_by_row(check.table)


def test_instantiate_evaluates_each_count_each_surviving_length_and_both_orders_once(monkeypatch):
    evaluated = []
    original = Poly.eval_int

    def counted(self, point):
        evaluated.append(self)
        return original(self, point)

    monkeypatch.setattr(Poly, "eval_int", counted)
    for family, n in ((REE, 0), (REE, 1), (SUBFIELD, 1)):
        table = tables.build_table(family)
        evaluated.clear()
        ct = tables.instantiate(table, n)
        # a count, then the length only where the count is positive
        surviving = {row.label for row in ct.rows}
        expected = []
        for row in table.rows:
            expected.append(row.count)
            if row.z[0] in surviving:
                expected.append(row.length)
        expected += [family.index, family.h_order, family.suborbits]
        assert [id(p) for p in evaluated] == [id(p) for p in expected]
        evaluated.clear()
        verify_tables(family.kind, [ct.param, ct.param], symbolic=True, table=table)
        assert len(evaluated) == 2 * (len(table.rows) + len(ct.rows) + 3)


def test_verify_tables_on_a_given_table_builds_no_polynomial(monkeypatch):
    mutants = [
        next(_degree_and_denominator_mutants(tables.build_table(family), random.Random(7)))
        for family in (REE, SUBFIELD)
    ]
    calls = Counter()
    for attr in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def counted(self, other, _attr=attr, _original=vars(Poly)[attr]):
            calls[_attr] += 1
            return _original(self, other)
        monkeypatch.setattr(Poly, attr, counted)
    for mutant in mutants:
        report = verify_tables(mutant.family.kind, FAULT_PARAMS[mutant.family.kind], symbolic=True, table=mutant)
        assert report.symbolic_ok is False
    # the canonical tables are built with their families, at import, so no
    # sweep and no check of them builds a polynomial either
    for case, params in FAULT_PARAMS.items():
        assert verify_tables(case, params, symbolic=True).ok
    analyze("ree", 0, 12)
    analyze("subfield", 1, 12)
    assert calls == Counter()
    # the wrappers do count
    Poly.var() * Poly.var() + 1
    assert calls == {"__mul__": 1, "__add__": 1}


def test_sweeps_build_once_and_instantiate_once_per_parameter(monkeypatch):
    calls = _count_calls(monkeypatch, tables, ("build_table", "instantiate"))
    analyze("ree", 0, 12)
    assert calls == {"build_table": 1, "instantiate": 13}
    calls.clear()
    analyze("subfield", 1, 12)
    assert calls == {"build_table": 1, "instantiate": 12}


def test_sweeps_check_each_parameter_power_of_three_once_per_use(monkeypatch):
    # A sweep hands the library steps, so it inverts no parameter it made.
    # The only inversions left are those of kernel_prime_data, which
    # validates the q it is handed, once per step that reaches the kernel
    # chain (n = 1..3), not once per X. verify_tables inverts each parameter
    # it is handed exactly once. Every package module that binds is_power_of
    # is counted.
    modules = [m for name, m in sys.modules.items() if name.startswith("dtgcert") and hasattr(m, "is_power_of")]
    counters = [_count_calls(monkeypatch, module, ("is_power_of",)) for module in modules]
    inversions = _count_calls(monkeypatch, type(REE), ("n_of_param",))

    def counts():
        total = sum(counters, Counter()) + inversions
        for counter in (*counters, inversions):
            counter.clear()
        return total

    analyze("ree", 0, 100)
    assert counts() == {"is_power_of": 3, "n_of_param": 3}
    analyze("subfield", 1, 12)
    assert counts() == Counter()
    for case, params in (("ree", [3, 27, 9, 2187]), ("subfield", [3, 9, 1, 81])):
        verify_tables(case, params, symbolic=True)
        assert counts() == {"is_power_of": 4, "n_of_param": 4}, case


def test_sweeps_instantiate_once_per_parameter_even_when_filtered(monkeypatch):
    calls = _count_calls(monkeypatch, tables, ("build_table", "instantiate"))
    # Every subfield X of order 2 lacks the graph automorphism, so the
    # multiplicity-free gate alone decides it; the table is still made.
    report = analyze("subfield", 1, 4, x_filter=((2, False),))
    assert len(report.certificates) == 4
    assert calls == {"build_table": 1, "instantiate": 4}
    calls.clear()
    # An X of order 3 exists only at n = 1 and n = 4 in 0..4.
    report = analyze("ree", 0, 4, x_filter=((3, False),))
    assert [c.n for c in report.certificates] == [1, 4]
    assert calls == {"build_table": 1, "instantiate": 5}


def test_sweeps_run_the_step_gates_once_per_parameter(monkeypatch):
    calls = _count_calls(monkeypatch, gates, ("sigma_in_x_gate", "involution_gate", "kernel_chain_gate"))
    report = analyze("subfield", 1, 12)
    # every n has an X with the graph automorphism, and sigma is inconclusive at every n
    assert calls == {"sigma_in_x_gate": 12, "involution_gate": 12}
    assert sum(len(c.gates) == 3 for c in report.certificates) > 12
    for n_max in (12, 100):
        calls.clear()
        report = analyze("ree", 0, n_max)
        # n = 0 is the table lookup and bhk excludes every X from n = 4 on
        assert calls == {"kernel_chain_gate": 3}
        assert sum(len(c.gates) == 2 for c in report.certificates) == 8
    # a step that no X reaches runs none of them: no subfield X of order 2
    # contains the graph automorphism, so multiplicity_free excludes each
    calls.clear()
    report = analyze("subfield", 1, 4, x_filter=((2, False),))
    assert [len(c.gates) for c in report.certificates] == [1, 1, 1, 1]
    assert calls == Counter()


@pytest.mark.parametrize("case, n_min, n_max", [("subfield", 1, 6), ("ree", 0, 3)])
def test_certificates_of_one_parameter_share_the_step_verdicts(case, n_min, n_max):
    # a chain is one X gate verdict, then the step's verdicts if that was inconclusive
    steps = {}
    for cert in analyze(case, n_min, n_max).certificates:
        if len(cert.gates) > 1:
            steps.setdefault(cert.n, []).append(cert.gates[1:])
    assert any(len(held) > 1 for held in steps.values())
    for held in steps.values():
        for step in held:
            assert all(a is b for a, b in zip(step, held[0], strict=True))


def test_sweeps_group_lengths_once_per_table(monkeypatch):
    grouping = vars(tables.ConcreteTable)["length_groups"]
    calls = Counter()

    def counted(ct, _original=grouping.func):
        calls[ct.param] += 1
        return _original(ct)

    monkeypatch.setattr(grouping, "func", counted)
    report = analyze("ree", 0, 12)
    assert len(report.certificates) == 62
    assert calls == Counter({REE.param_for_n(n): 1 for n in range(13)})
    calls.clear()
    report = analyze("subfield", 1, 12)
    sigma = [c for c in report.certificates if len(c.gates) > 1]
    assert len(sigma) > 12
    assert calls == Counter({3**n: 1 for n in range(1, 13)})


def test_certificate_json_schema():
    report = analyze("ree", 0, 1)
    data = json.loads(emit(report, "json"))
    assert list(data) == [
        "tool_version", "case", "n_min", "n_max", "strict", "generated_at", "summary", "certificates",
    ]
    for cert, payload in zip(report.certificates, data["certificates"], strict=True):
        assert list(payload) == [
            "case", "n", "q", "x_order", "x_graph", "gates", "conclusion", "assumptions",
        ]
        assert payload["q"] == str(cert.q)
        assert isinstance(payload["x_order"], int)
        for gate in payload["gates"]:
            assert list(gate) == ["name", "verdict", "witnesses", "paper_anchor"]
            assert all(isinstance(v, str) for v in gate["witnesses"].values())
            assert gate["verdict"] in ("excludes", "inconclusive", "assumed_external")


def _hand_built_report():
    # int witnesses are memoized and str witnesses are not, so the report
    # holds the pairs that policy splits: 5 and "5" in one verdict, a str
    # repeated across certificates, an int equal to its certificate's q,
    # and True (== 1) before 1
    excluding = GateVerdict(
        "quoting",
        EXCLUDES,
        {
            "flag": True,
            "one": 1,
            "big": 3**201,
            "text": 'say "no" \\ back\nslash caf\u00e9 \u2713',
            'key "with" \\ \u00e9': "v",
            "five": 5,
            "five_text": "5",
            "q_again": 27,
            "shared": "11/2",
        },
        'anchor "quoted"\t\u00e9',
        ("ass\u00fcmption \"one\"", "second"),
    )
    quiet = GateVerdict("quiet", INCONCLUSIVE, {}, "")
    repeated = GateVerdict("repeated", INCONCLUSIVE, {"shared": "11/2", "five_text": "5", "q": 3}, "")
    certificates = (
        Certificate("ree", 1, 27, 2, True, (quiet, excluding), NO_DTG),
        Certificate("subfield", 2, 81, 8, False, (), UNDETERMINED),
        Certificate("ree", 0, 3, 1, False, (quiet, repeated), UNDETERMINED),
    )
    return RunReport(VERSION, "ree", 0, 2, True, certificates)


@pytest.mark.parametrize(
    "make",
    [
        lambda: analyze("ree", 0, 100),
        lambda: analyze("subfield", 1, 12),
        lambda: analyze("ree", 0, 5, strict=True),
        lambda: analyze("subfield", 1, 3, strict=True),
        lambda: analyze("ree", 0, 12, x_filter=((2, False), (6, True))),
        _hand_built_report,
        lambda: RunReport(VERSION, "subfield", 1, 1, False, ()),
        lambda: analyze("subfield", 1, 1, x_filter=((2, True),)),
    ],
    ids=["ree-0-100", "subfield-1-12", "ree-strict", "subfield-strict", "ree-x", "hand-built", "empty", "filtered-empty"],
)
def test_emit_json_matches_json_dumps(make):
    report = make()
    expected = (json.dumps(run_report_jsonable(report), indent=2) + "\n").encode()
    assert unstamped(emit(report, "json")) == unstamped(expected)


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="_json is CPython's accelerator module")
def test_json_strings_use_the_encoder_json_dumps_uses():
    assert pipeline.encode_basestring_ascii is json.encoder.encode_basestring_ascii


def test_emit_json_roundtrip_and_determinism(monkeypatch):
    report = analyze("ree", 1, 1)
    # a local zone five hours from UTC, so a local-time stamp would be caught
    monkeypatch.setenv("TZ", "TST-05")
    time.tzset()
    try:
        before = datetime.now(timezone.utc)
        blob1 = emit(report, "json")
        after = datetime.now(timezone.utc)
    finally:
        monkeypatch.undo()
        time.tzset()
    blob2 = emit(report, "json")
    data = json.loads(blob1)
    assert data["case"] == "ree"
    assert data["summary"] == {"total": 4, "no_dtg": 4, "undetermined": 0}
    assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", data["generated_at"])
    stamp = datetime.strptime(data["generated_at"], "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
    assert before - timedelta(seconds=2) <= stamp <= after + timedelta(seconds=2)
    assert unstamped(blob1) == unstamped(blob2)


def test_emit_text_gate_lines():
    report = analyze("ree", 1, 3)
    text = emit(report, "text").decode()
    assert "gate: kernel_chain  verdict: Excludes  primes: 19, 37" in text
    assert "gate: kernel_chain  verdict: Excludes  primes: 31, 271" in text
    assert "gate: kernel_chain  verdict: Excludes  primes: 43, 2269" in text
    assert "conclusion: no_dtg" in text
    report3 = analyze("ree", 0, 0)
    text3 = emit(report3, "text").decode()
    assert "gate: bcn_small_case  verdict: AssumedExternal  vertices: 2808" in text3


def test_gate_text_format():
    v = GateVerdict("demo", EXCLUDES, {"a": 1, "b": "x y"})
    assert gate_text(v) == "gate: demo  verdict: Excludes  a: 1  b: x y"


def test_certificate_text_structure():
    report = analyze("ree", 0, 0)
    cert = report.certificates[0]
    text = certificate_text(cert)
    lines = text.splitlines()
    assert lines[0].startswith("certificate: case=ree n=0 q=3")
    assert any(line.strip().startswith("conclusion:") for line in lines)
    assert any(line.strip().startswith("assumption:") for line in lines)


def test_emit_table_report():
    report = verify_tables("ree", [3], symbolic=True)
    text = emit(report, "text").decode()
    assert "param=3\tindex=2808" in text
    assert "symbolic mass identity: ok" in text
    assert text.rstrip().endswith("result: PASS")
    with pytest.raises(ValueError):
        emit(report, "json")


def test_emit_rejects_bad_input():
    report = analyze("ree", 0, 0)
    with pytest.raises(ValueError):
        emit(report, "yaml")
    with pytest.raises(TypeError):
        emit("not a report", "json")


def test_sweeps_give_only_the_known_gate_outcomes():
    # no report contains any other (gate, outcome) pair; a checker or a stats
    # view of the reports has exactly these to handle
    pairs = {
        (verdict.gate_name, verdict.outcome)
        for case, n_min, n_max in (("ree", 0, 100), ("subfield", 1, 40))
        for strict in (False, True)
        for cert in analyze(case, n_min, n_max, strict=strict).certificates
        for verdict in cert.gates
    }
    assert pairs == {
        (gates.GATE_BCN, ASSUMED_EXTERNAL),
        (gates.GATE_BHK, EXCLUDES),
        (gates.GATE_BHK, INCONCLUSIVE),
        (gates.GATE_KERNEL_CHAIN, EXCLUDES),
        (gates.GATE_MULTIPLICITY_FREE, EXCLUDES),
        (gates.GATE_MULTIPLICITY_FREE, INCONCLUSIVE),
        (gates.GATE_SIGMA_IN_X, INCONCLUSIVE),
        (gates.GATE_INVOLUTION, EXCLUDES),
    }
