"""Acceptance suite: one test per shipped guarantee, exact values throughout.

Each test prints a single PASS line on success (visible with -s or in the
captured output); a failure reads as the criterion number.
"""
import json
import subprocess
import sys
import time

import dtgcert.gates as gates
import dtgcert.pipeline as pipeline
from dtgcert.cli import main as cli_main
from dtgcert.exact import Poly, cyclic_order, factorize
from dtgcert.gates import GateVerdict, bhk_gate, kernel_prime_data, order4_witness
from dtgcert.groups import REE, SUBFIELD
from dtgcert.tables import SuborbitRow, SuborbitTable, build_table, instantiate
from dtgcert.pipeline import analyze, verify_tables

REE_PARAMS = (3, 27, 243, 2187)
SUBFIELD_PARAMS = (3, 9, 27, 81)


def test_criterion_1_mass_identities():
    t0 = time.perf_counter()
    ree = verify_tables("ree", list(REE_PARAMS))
    sub = verify_tables("subfield", list(SUBFIELD_PARAMS))
    assert ree.ok and sub.ok
    for check in ree.checks:
        q = check.param
        assert check.mass_ok
        assert check.mass_total == q**3 * (q**3 - 1) * (q + 1)
    for check in sub.checks:
        r = check.param
        assert check.mass_ok
        assert check.mass_total == r**6 * (r**6 + 1) * (r**2 + 1)
    assert ree.checks[0].mass_total == 2808
    assert sub.checks[0].mass_total == 5321700
    assert cli_main(["verify-tables", "--case", "ree", "--params", "3,27,243,2187"]) == 0
    assert cli_main(["verify-tables", "--case", "subfield", "--params", "3,9,27,81"]) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed
    print(f"criterion 1 (mass identities, {elapsed:.3f}s): PASS")


def test_criterion_2_symbolic_identities():
    t0 = time.perf_counter()
    ree = verify_tables("ree", [], symbolic=True)
    sub = verify_tables("subfield", [], symbolic=True)
    assert ree.symbolic_ok and sub.symbolic_ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed
    print(f"criterion 2 (symbolic identities, {elapsed:.3f}s): PASS")


def test_criterion_3_kernel_primes():
    t0 = time.perf_counter()
    expect = {27: ((19,), (37,)), 243: ((31,), (271,)), 2187: ((43,), (2269,))}
    for q, (p_minus, p_plus) in expect.items():
        (_, got_minus), (_, got_plus) = kernel_prime_data(q)
        assert got_minus == p_minus, q
        assert got_plus == p_plus, q
    assert factorize(217) == {7: 1, 31: 1}
    assert factorize(2107) == {7: 2, 43: 1}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed
    print(f"criterion 3 (kernel primes, {elapsed:.3f}s): PASS")


def test_criterion_4_diameter_cutoff():
    t0 = time.perf_counter()
    table = build_table(REE)
    for n in range(1, 9):
        q = REE.param_for_n(n)
        verdict = bhk_gate(instantiate(table, q), 2 * (2 * n + 1))
        assert verdict.gate_name == gates.GATE_BHK
        want = "inconclusive" if n <= 3 else "excludes"
        assert verdict.outcome == want, (n, verdict.outcome)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, elapsed
    print(f"criterion 4 (diameter cutoff split at n=3, {elapsed:.3f}s): PASS")


def test_criterion_6_order4_witnesses():
    table = build_table(SUBFIELD)
    for n in range(1, 11):
        r = 3**n
        base, exponent, base_order = order4_witness(instantiate(table, r))
        assert cyclic_order(base_order, exponent) == 4
        expected_base = "gamma" if (r - 1) % 4 == 0 else "eta"
        assert base == expected_base, r
    assert order4_witness(instantiate(table, 3)) == ("eta", 1, 4)
    print("criterion 6 (order-4 torus witnesses n=1..10): PASS")


def test_criterion_7_end_to_end_cli(package_env):
    t0 = time.perf_counter()
    runs = {
        "subfield": ["analyze", "--case", "subfield", "--n", "1..3", "--x", "all"],
        "ree": ["analyze", "--case", "ree", "--n", "0..6", "--x", "all"],
    }
    reports = {}
    for case, args in runs.items():
        proc = subprocess.run(
            [sys.executable, "-m", "dtgcert", *args, "--format", "json"],
            capture_output=True, text=True, env=package_env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        reports[case] = json.loads(proc.stdout)

    sub = reports["subfield"]
    assert sub["summary"] == {"total": 13, "no_dtg": 13, "undetermined": 0}
    for cert in sub["certificates"]:
        names = [g["name"] for g in cert["gates"]]
        if cert["x_graph"]:
            assert names == ["multiplicity_free", "sigma_in_x", "involution"]
        else:
            assert names == ["multiplicity_free"]

    ree = reports["ree"]
    assert ree["summary"] == {"total": 28, "no_dtg": 28, "undetermined": 0}
    for cert in ree["certificates"]:
        names = [g["name"] for g in cert["gates"]]
        external = [g for g in cert["gates"] if g["verdict"] == "assumed_external"]
        if cert["q"] == "3":
            assert names == ["bcn_small_case"]
            assert len(external) == 1
        else:
            assert not external
            assert names[0] == "bhk_diameter"
            if len(names) > 1:
                assert names == ["bhk_diameter", "kernel_chain"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, elapsed
    print(f"criterion 7 (end-to-end CLI runs, {elapsed:.3f}s): PASS")


def _mutations(table):
    for i, row in enumerate(table.rows):
        for attr in ("length", "count"):
            poly = getattr(row, attr)
            for k in range(poly.degree + 1):
                coeffs = list(poly.coeffs)
                coeffs[k] += 1
                mutated = Poly(coeffs)
                fields = {"length": row.length, "count": row.count, attr: mutated}
                new_row = SuborbitRow(row.z, fields["length"], fields["count"])
                yield SuborbitTable(table.family, table.rows[:i] + (new_row,) + table.rows[i + 1:])


def test_criterion_8a_table_fault_injection():
    cases = {"ree": (REE, [3, 27]), "subfield": (SUBFIELD, [3, 9])}
    mutants = 0
    for case, (family, params) in cases.items():
        table = build_table(family)
        for mutated in _mutations(table):
            report = verify_tables(case, params, symbolic=True, table=mutated)
            assert not report.ok, case
            mutants += 1
    # every stored coefficient of every row polynomial in both tables
    assert mutants == 488
    print(f"criterion 8a (single-coefficient fault injection, {mutants} mutants): PASS")


def test_criterion_8b_weakened_gates(monkeypatch):
    def weak(name):
        def gate(*args, **kwargs):
            return GateVerdict(name, gates.INCONCLUSIVE, {}, "weakened")
        return gate

    monkeypatch.setattr(gates, "bhk_gate", weak("bhk_diameter"))
    monkeypatch.setattr(gates, "kernel_chain_gate", weak("kernel_chain"))
    monkeypatch.setattr(gates, "bcn_small_case_gate", weak("bcn_small_case"))
    report = analyze("ree", 0, 3)
    assert report.certificates
    assert all(c.conclusion == "undetermined" for c in report.certificates)
    assert cli_main(["analyze", "--case", "ree", "--n", "0..3", "--x", "all",
                     "--out", "/dev/null"]) == 2

    monkeypatch.setattr(gates, "multiplicity_free_gate", weak("multiplicity_free"))
    monkeypatch.setattr(gates, "involution_gate", weak("involution"))
    report = analyze("subfield", 1, 2)
    assert all(c.conclusion == "undetermined" for c in report.certificates)
    assert cli_main(["analyze", "--case", "subfield", "--n", "1..2", "--x", "all",
                     "--out", "/dev/null"]) == 2
    print("criterion 8b (weakened gates never conclude): PASS")


def test_criterion_8c_single_weakening_is_never_spurious(monkeypatch):
    # disabling one gate may let another genuine argument conclude, but any
    # remaining exclusion must carry its own computed witnesses
    def weak(name):
        def gate(*args, **kwargs):
            return GateVerdict(name, gates.INCONCLUSIVE, {}, "weakened")
        return gate

    for target in ("bhk_gate", "kernel_chain_gate"):
        with monkeypatch.context() as patch:
            patch.setattr(gates, target, weak(target))
            report = analyze("ree", 1, 4)
            for cert in report.certificates:
                if cert.conclusion == "no_dtg":
                    carriers = [g for g in cert.gates if g.outcome == gates.EXCLUDES]
                    assert carriers, cert
                    assert all(g.witnesses for g in carriers)
    print("criterion 8c (no spurious conclusions under single weakening): PASS")
