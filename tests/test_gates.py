import pytest

import dtgcert.gates as gates
import dtgcert.tables as tables
from dtgcert.exact import exp_compare
from dtgcert.gates import (
    ASSUMED_EXTERNAL,
    EXCLUDES,
    GATE_BCN,
    GATE_BHK,
    GATE_INVOLUTION,
    GATE_KERNEL_CHAIN,
    GATE_MULTIPLICITY_FREE,
    GATE_SIGMA_IN_X,
    INCONCLUSIVE,
    GateVerdict,
    bcn_small_case_gate,
    bhk_gate,
    involution_gate,
    kernel_chain_gate,
    kernel_prime_data,
    multiplicity_free_gate,
    order4_witness,
    sigma_in_x_gate,
)
from dtgcert.groups import REE, SUBFIELD, OuterOption
from dtgcert.pipeline import UNDETERMINED, analyze
from dtgcert.tables import (
    ConcreteRow,
    ConcreteTable,
    Z_ETA,
    Z_THREE,
    Z_TWO,
    Z_UNKNOWN,
    build_table,
    instantiate,
)


def _sub_table(r):
    return instantiate(build_table(SUBFIELD), r)


def _ree_table(q):
    return instantiate(build_table(REE), q)


def test_gate_verdict_requires_witnesses_for_exclusion():
    with pytest.raises(ValueError):
        GateVerdict("g", EXCLUDES)
    with pytest.raises(ValueError):
        GateVerdict(gate_name="g", outcome=EXCLUDES, witnesses={}, narrative="n")
    v = GateVerdict("g", EXCLUDES, {"k": 1})
    assert v.outcome == EXCLUDES
    assert v == ("g", EXCLUDES, {"k": 1}, "", ())
    assert GateVerdict(outcome=EXCLUDES, gate_name="g", witnesses={"k": 1}) == v
    assert GateVerdict("g", INCONCLUSIVE).outcome != EXCLUDES


def test_multiplicity_free_gate():
    graph = OuterOption(4, True)
    plain = OuterOption(2, False)
    v = multiplicity_free_gate(_sub_table(3), graph)
    assert v.gate_name == GATE_MULTIPLICITY_FREE
    assert v.outcome == INCONCLUSIVE
    assert v.witnesses == {"q": 9, "x_order": 4, "contains_graph_auto": "true"}
    v = multiplicity_free_gate(_sub_table(9), plain)
    assert v.outcome == EXCLUDES
    assert v.witnesses == {"q": 81, "x_order": 2, "contains_graph_auto": "false"}
    with pytest.raises(ValueError):
        multiplicity_free_gate(_ree_table(27), graph)


def test_sigma_in_x_gate(monkeypatch):
    v = sigma_in_x_gate(_sub_table(3))
    assert v.gate_name == GATE_SIGMA_IN_X
    assert v.outcome == INCONCLUSIVE
    assert v.witnesses["distinct_nontrivial_lengths"] == 12
    flat = ConcreteTable(
        SUBFIELD, 3, 100, 50,
        (ConcreteRow("1", "one", 1, 1), ConcreteRow("z", Z_TWO, 7, 1), ConcreteRow("A", Z_UNKNOWN, 7, 1)),
    )
    # too few lengths to force diameter 3: sigma still hands on, and
    # involution's diameter_at_least_3 step is the one that says so
    v = sigma_in_x_gate(flat)
    assert v.outcome == INCONCLUSIVE
    assert v.witnesses == {"distinct_nontrivial_lengths": 1}
    monkeypatch.setattr(tables, "instantiate", lambda table, param: flat)
    (cert,) = analyze("subfield", 1, 1, x_filter=((4, True),)).certificates
    assert [g.gate_name for g in cert.gates] == [GATE_MULTIPLICITY_FREE, GATE_SIGMA_IN_X, GATE_INVOLUTION]
    assert cert.gates[2].witnesses["failed_step"] == "diameter_at_least_3"
    assert cert.conclusion == UNDETERMINED
    # like every other gate, it refuses a table of the other family
    with pytest.raises(ValueError, match="subfield family only"):
        sigma_in_x_gate(_ree_table(27))


def test_order4_witness_values():
    assert order4_witness(_sub_table(3)) == ("eta", 1, 4)
    assert order4_witness(_sub_table(9)) == ("gamma", 2, 8)
    base, _, base_order = order4_witness(_sub_table(27))
    assert (base, base_order) == ("eta", 28)


def test_order4_witness_validation(monkeypatch):
    # at an even r neither r - 1 nor r + 1 is divisible by 4, so no power has order 4
    even = ConcreteTable(SUBFIELD, 4, 1, 1, (ConcreteRow("1", "one", 1, 1), ConcreteRow("e", Z_ETA, 5, 1)))
    with pytest.raises(ArithmeticError, match="order 4"):
        order4_witness(even)
    # computed torus orders other than r - 1 and r + 1 are refused, and the gate names the step
    monkeypatch.setattr(gates, "cyclic_order", lambda n, i: n)
    with pytest.raises(ArithmeticError, match="torus orders"):
        order4_witness(_sub_table(3))
    v = involution_gate(_sub_table(3))
    assert v.outcome == INCONCLUSIVE
    assert v.witnesses["failed_step"] == "order4_witness"


def test_order4_witness_requires_surviving_rows():
    rows = tuple(r for r in _sub_table(9).rows if not r.z_order.startswith("torus:gamma"))
    stripped = ConcreteTable(SUBFIELD, 9, 1, 1, rows)
    with pytest.raises(ArithmeticError):
        order4_witness(stripped)


def test_subfield_gates_reject_ree_tables():
    with pytest.raises(ValueError):
        order4_witness(_ree_table(27))
    with pytest.raises(ValueError):
        involution_gate(_ree_table(27))


def test_involution_gate_excludes():
    for r, base in ((3, "eta"), (9, "gamma"), (27, "eta")):
        v = involution_gate(_sub_table(r))
        assert v.gate_name == GATE_INVOLUTION
        assert v.outcome == EXCLUDES
        assert v.witnesses["commuting_pair_row"] == "h(-1,-1,1)"
        assert v.witnesses["order4_base"] == base
        assert v.witnesses["odd_prime"] == 3
        assert "x_{2a+b}(1)x_{3a+2b}(1)" in v.witnesses["candidates"]


def test_involution_gate_fail_steps():
    real = _sub_table(3)
    no_pair = ConcreteTable(
        SUBFIELD, 3, real.index, real.h_order,
        tuple(r for r in real.rows if r.z_order != Z_TWO),
    )
    v = involution_gate(no_pair)
    assert v.outcome == INCONCLUSIVE
    assert v.witnesses["failed_step"] == "commuting_pair"

    # The gate reads |G| as index * |H|; the hand-built tables below keep the
    # real r = 3 orders so that 3 divides it, as it does for every r.
    flat = ConcreteTable(
        SUBFIELD, 3, real.index, real.h_order,
        (
            ConcreteRow("1", "one", 1, 1),
            ConcreteRow("z", Z_TWO, 7, 1),
            ConcreteRow("A", Z_THREE, 7, 1),
        ),
    )
    v = involution_gate(flat)
    assert v.witnesses["failed_step"] == "diameter_at_least_3"

    bad_candidate = ConcreteTable(
        SUBFIELD, 3, real.index, real.h_order,
        (
            ConcreteRow("1", "one", 1, 1),
            ConcreteRow("z", Z_TWO, 5, 1),
            ConcreteRow("A", Z_THREE, 7, 1),
            ConcreteRow("B", Z_UNKNOWN, 11, 1),
            ConcreteRow("C", Z_THREE, 13, 1),
        ),
    )
    v = involution_gate(bad_candidate)
    assert v.witnesses["failed_step"] == "candidate_z_orders"
    assert "z" in v.witnesses["offending_rows"] or "B" in v.witnesses["offending_rows"]

    no_torus = ConcreteTable(
        SUBFIELD, 3, real.index, real.h_order,
        (
            ConcreteRow("1", "one", 1, 1),
            ConcreteRow("z", Z_TWO, 17, 1),
            ConcreteRow("A", Z_THREE, 5, 1),
            ConcreteRow("B", Z_THREE, 7, 1),
            ConcreteRow("C", Z_THREE, 11, 1),
        ),
    )
    v = involution_gate(no_torus)
    assert v.witnesses["failed_step"] == "order4_witness"

    no_three = ConcreteTable(SUBFIELD, 3, 100, 50, no_torus.rows)
    v = involution_gate(no_three)
    assert v.witnesses["failed_step"] == "odd_prime_in_group_order"


def test_bhk_gate_witnesses_n1():
    v = bhk_gate(_ree_table(27), 6)
    assert v.witnesses["d0"] == "33/6"
    assert v.witnesses["d0_lowest_terms"] == "11/2"
    assert v.witnesses["vertices"] == 10847222568
    assert v.witnesses["exact_comparison"] == "2^(3a) < v^(8b)"
    assert v.witnesses["refined_min_classes"] == 10


def test_bhk_gate_small_x_excludes_earlier():
    # with trivial X the class count d0 = q + 6 is much larger
    assert bhk_gate(_ree_table(2187), 1).outcome == EXCLUDES
    assert bhk_gate(_ree_table(27), 1).outcome == INCONCLUSIVE


def test_bhk_verdicts_of_ree_sweep_stand_under_the_nontrivial_class_bound():
    # each sphere of a distance-transitive graph is one fused class of the
    # q + 5 nontrivial suborbits, so d >= ceil((q + 5)/|X|), not the gate's
    # d0 = (q + 6)/|X|; every verdict of ree 0..100 stays as it is under that
    # bound (n = 0 is the q = 3 lookup, where the cutoff does not apply)
    outcomes = {EXCLUDES: [], INCONCLUSIVE: []}
    for cert in analyze("ree", 1, 100).certificates:
        (verdict,) = [v for v in cert.gates if v.gate_name == GATE_BHK]
        d = -(-(cert.q + 5) // cert.x_order)
        holds = exp_compare(2, 3 * d, verdict.witnesses["vertices"], 8) >= 0
        outcomes[verdict.outcome].append((cert.n, cert.x_order, holds))
    assert len(outcomes[EXCLUDES]) == 680
    assert all(holds for _, _, holds in outcomes[EXCLUDES])
    assert outcomes[INCONCLUSIVE] == [
        (1, 1, False), (1, 2, False), (1, 3, False), (1, 6, False),
        (2, 2, False), (2, 5, False), (2, 10, False), (3, 14, False),
    ]


def test_bhk_gate_edges():
    # at q = 3, which the chain routes to the table lookup, the cutoff
    # cannot exclude for either X
    assert bhk_gate(_ree_table(3), 1).outcome == INCONCLUSIVE
    assert bhk_gate(_ree_table(3), 2).outcome == INCONCLUSIVE
    with pytest.raises(ValueError):
        bhk_gate(_sub_table(9), 2)
    # 9 is no ree parameter, so there is no table to run the gate on
    with pytest.raises(ValueError):
        _ree_table(9)


def test_kernel_prime_data_frozen():
    expect = {
        27: ((19,), (37,), 19, 37),
        243: ((31,), (271,), 217, 271),
        2187: ((43,), (2269,), 2107, 2269),
    }
    for q, (p_minus, p_plus, minus_value, plus_value) in expect.items():
        (got_minus_value, got_minus), (got_plus_value, got_plus) = kernel_prime_data(q)
        assert got_minus == p_minus
        assert got_plus == p_plus
        assert got_minus_value == minus_value
        assert got_plus_value == plus_value
        assert got_minus_value * got_plus_value == q * q - q + 1


def test_kernel_chain_gate_excludes():
    expect = {
        27: ("19, 37", "19683, 19656"),
        243: ("31, 271", "14348907, 14348664"),
        2187: ("43, 2269", "10460353203, 10460351016"),
    }
    for q, (primes, stabs) in expect.items():
        ct = _ree_table(q)
        v = kernel_chain_gate(ct)
        assert v.gate_name == GATE_KERNEL_CHAIN
        assert v.outcome == EXCLUDES
        assert v.witnesses["primes"] == primes
        assert v.witnesses["gamma1_candidates"] == "R2, R6"
        assert v.witnesses["gamma1_stabilizers"] == stabs


def test_kernel_chain_gate_stops_at_the_premise_at_q3():
    v = kernel_chain_gate(_ree_table(3))
    assert v.outcome == INCONCLUSIVE
    assert v.witnesses == {"failed_step": "proper_divisor_premise"}


def test_kernel_chain_gate_rejects_subfield():
    with pytest.raises(ValueError):
        kernel_chain_gate(_sub_table(3))


def test_kernel_chain_gate_premise_failure():
    real = _ree_table(27)
    rows = real.rows + (ConcreteRow("X", Z_UNKNOWN, real.h_order, 1),)
    broken = ConcreteTable(REE, 27, real.index, real.h_order, rows)
    v = kernel_chain_gate(broken)
    assert v.outcome == INCONCLUSIVE
    assert v.witnesses["failed_step"] == "proper_divisor_premise"


def test_kernel_chain_gate_no_certifying_primes(monkeypatch):
    def hollow(q):
        return (19, ()), (37, ())

    monkeypatch.setattr(gates, "kernel_prime_data", hollow)
    v = kernel_chain_gate(_ree_table(27))
    assert v.outcome == INCONCLUSIVE
    assert v.witnesses["failed_step"] == "no_certifying_primes"


def test_kernel_chain_gate_candidate_shape_failure():
    real = _ree_table(27)
    # shrink one candidate length so the first sphere no longer matches
    rows = tuple(
        ConcreteRow(r.label, r.z_order, 54, r.count) if r.label == "R2" else r
        for r in real.rows
    )
    broken = ConcreteTable(REE, 27, real.index, real.h_order, rows)
    v = kernel_chain_gate(broken)
    assert v.witnesses["failed_step"] == "first_sphere_candidates"


def test_kernel_chain_gate_divisible_candidate_failure():
    real = _ree_table(27)
    # the lengths stay; scaling |H| by a certifying prime makes the first
    # candidate's stabilizer divisible by it
    for prime in (19, 37):
        v = kernel_chain_gate(real._replace(h_order=prime * real.h_order))
        assert v.outcome == INCONCLUSIVE
        assert v.witnesses == {"failed_step": "candidate_stabilizer_divisible", "row": "R2", "prime": prime}


def test_kernel_chain_gate_both_factors_failure():
    real = _ree_table(27)
    h = real.h_order
    assert h % (19 * 37) == 0
    rows = real.rows + (ConcreteRow("X", Z_UNKNOWN, h // (19 * 37), 1),)
    broken = ConcreteTable(REE, 27, real.index, h, rows)
    v = kernel_chain_gate(broken)
    assert v.outcome == INCONCLUSIVE
    assert v.witnesses["failed_step"] == "stabilizer_divisible_by_both"
    assert v.witnesses["row"] == "X"


def test_bcn_small_case_gate():
    v = bcn_small_case_gate(_ree_table(3), 2)
    assert v.gate_name == GATE_BCN
    assert v.outcome == ASSUMED_EXTERNAL
    assert v.witnesses["vertices"] == 2808
    assert v.witnesses["diameter_lower_bound"] == 6
    assert v.witnesses["x_order"] == 2
    v1 = bcn_small_case_gate(_ree_table(3), 1)
    assert v1.witnesses["diameter_lower_bound"] == 8
    # a verdict at any other table would cite the q = 3 tables for it
    for q in (27, 243):
        with pytest.raises(ValueError, match="q = 3 only"):
            bcn_small_case_gate(_ree_table(q), 2)
    with pytest.raises(ValueError):
        bcn_small_case_gate(_sub_table(3), 2)
