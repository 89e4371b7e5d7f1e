from fractions import Fraction

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


def _sub_table(n):
    """The subfield table at step n, r = 3**n."""
    return instantiate(build_table(SUBFIELD), n)


def _ree_table(n):
    """The ree table at step n, q = 3**(2n+1)."""
    return instantiate(build_table(REE), n)


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
    v = multiplicity_free_gate(_sub_table(1), graph)
    assert v.gate_name == GATE_MULTIPLICITY_FREE
    assert v.outcome == INCONCLUSIVE
    assert v.witnesses == {"q": 9, "x_order": 4, "contains_graph_auto": "true"}
    v = multiplicity_free_gate(_sub_table(2), plain)
    assert v.outcome == EXCLUDES
    assert v.witnesses == {"q": 81, "x_order": 2, "contains_graph_auto": "false"}
    with pytest.raises(ValueError):
        multiplicity_free_gate(_ree_table(1), graph)


def test_sigma_in_x_gate(monkeypatch):
    v = sigma_in_x_gate(_sub_table(1))
    assert v.gate_name == GATE_SIGMA_IN_X
    assert v.outcome == INCONCLUSIVE
    assert v.witnesses["distinct_nontrivial_lengths"] == 12
    flat = ConcreteTable(
        SUBFIELD, 3, 100, 50, 3,
        (ConcreteRow("1", "one", 1, 1), ConcreteRow("z", Z_TWO, 7, 1), ConcreteRow("A", Z_UNKNOWN, 7, 1)),
    )
    # too few lengths to force diameter 3: sigma still hands on, and
    # involution's diameter_at_least_3 step is the one that says so
    v = sigma_in_x_gate(flat)
    assert v.outcome == INCONCLUSIVE
    assert v.witnesses == {"distinct_nontrivial_lengths": 1}
    monkeypatch.setattr(tables, "instantiate", lambda table, n: flat)
    (cert,) = analyze("subfield", 1, 1, x_filter=((4, True),)).certificates
    assert [g.gate_name for g in cert.gates] == [GATE_MULTIPLICITY_FREE, GATE_SIGMA_IN_X, GATE_INVOLUTION]
    assert cert.gates[2].witnesses["failed_step"] == "diameter_at_least_3"
    assert cert.conclusion == UNDETERMINED
    # like every other gate, it refuses a table of the other family
    with pytest.raises(ValueError, match="subfield family only"):
        sigma_in_x_gate(_ree_table(1))


def test_order4_witness_values():
    assert order4_witness(_sub_table(1)) == ("eta", 1, 4)
    assert order4_witness(_sub_table(2)) == ("gamma", 2, 8)
    base, _, base_order = order4_witness(_sub_table(3))
    assert (base, base_order) == ("eta", 28)


def test_order4_witness_validation(monkeypatch):
    # at an even r neither r - 1 nor r + 1 is divisible by 4, so no power has order 4
    even = ConcreteTable(SUBFIELD, 4, 1, 1, 2, (ConcreteRow("1", "one", 1, 1), ConcreteRow("e", Z_ETA, 5, 1)))
    with pytest.raises(ArithmeticError, match="order 4"):
        order4_witness(even)
    # computed torus orders other than r - 1 and r + 1 are refused, and the gate names the step
    monkeypatch.setattr(gates, "cyclic_order", lambda n, i: n)
    with pytest.raises(ArithmeticError, match="torus orders"):
        order4_witness(_sub_table(1))
    v = involution_gate(_sub_table(1))
    assert v.outcome == INCONCLUSIVE
    assert v.witnesses["failed_step"] == "order4_witness"


def test_order4_witness_requires_surviving_rows():
    rows = tuple(r for r in _sub_table(2).rows if not r.z_order.startswith("torus:gamma"))
    stripped = ConcreteTable(SUBFIELD, 9, 1, 1, sum(r.count for r in rows), rows)
    with pytest.raises(ArithmeticError):
        order4_witness(stripped)


def test_subfield_gates_reject_ree_tables():
    with pytest.raises(ValueError):
        order4_witness(_ree_table(1))
    with pytest.raises(ValueError):
        involution_gate(_ree_table(1))


def test_involution_gate_excludes():
    for n, base in ((1, "eta"), (2, "gamma"), (3, "eta")):
        v = involution_gate(_sub_table(n))
        assert v.gate_name == GATE_INVOLUTION
        assert v.outcome == EXCLUDES
        assert v.witnesses["commuting_pair_row"] == "h(-1,-1,1)"
        assert v.witnesses["order4_base"] == base
        assert v.witnesses["odd_prime"] == 3
        assert "x_{2a+b}(1)x_{3a+2b}(1)" in v.witnesses["candidates"]


def test_involution_gate_fail_steps():
    real = _sub_table(1)
    rows = tuple(r for r in real.rows if r.z_order != Z_TWO)
    no_pair = ConcreteTable(SUBFIELD, 3, real.index, real.h_order, sum(r.count for r in rows), rows)
    v = involution_gate(no_pair)
    assert v.outcome == INCONCLUSIVE
    assert v.witnesses["failed_step"] == "commuting_pair"

    # The gate reads |G| as index * |H|; the hand-built tables below keep the
    # real r = 3 orders so that 3 divides it, as it does for every r.
    flat = ConcreteTable(
        SUBFIELD, 3, real.index, real.h_order, 3,
        (
            ConcreteRow("1", "one", 1, 1),
            ConcreteRow("z", Z_TWO, 7, 1),
            ConcreteRow("A", Z_THREE, 7, 1),
        ),
    )
    v = involution_gate(flat)
    assert v.witnesses["failed_step"] == "diameter_at_least_3"

    # fusion only merges equal lengths, so the step needs three distinct
    # nontrivial lengths: exactly two fail it, and every real table passes it
    two_lengths = ConcreteTable(
        SUBFIELD, 3, real.index, real.h_order, 4,
        (
            ConcreteRow("1", "one", 1, 1),
            ConcreteRow("z", Z_TWO, 7, 2),
            ConcreteRow("A", Z_THREE, 11, 1),
        ),
    )
    assert involution_gate(two_lengths).witnesses["failed_step"] == "diameter_at_least_3"
    for n in (1, 2, 3):
        assert involution_gate(_sub_table(n)).outcome == EXCLUDES, n

    bad_candidate = ConcreteTable(
        SUBFIELD, 3, real.index, real.h_order, 5,
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
    assert v.witnesses["offending_rows"] == "z"

    # a first-sphere candidate of unknown z order fails the step as well
    unknown_candidate = ConcreteTable(
        SUBFIELD, 3, real.index, real.h_order, 5,
        (
            ConcreteRow("1", "one", 1, 1),
            ConcreteRow("z", Z_TWO, 13, 1),
            ConcreteRow("A", Z_THREE, 5, 1),
            ConcreteRow("B", Z_UNKNOWN, 7, 1),
            ConcreteRow("C", Z_THREE, 11, 1),
        ),
    )
    v = involution_gate(unknown_candidate)
    assert v.witnesses["failed_step"] == "candidate_z_orders"
    assert v.witnesses["offending_rows"] == "B"

    no_torus = ConcreteTable(
        SUBFIELD, 3, real.index, real.h_order, 5,
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

    no_three = ConcreteTable(SUBFIELD, 3, 100, 50, 5, no_torus.rows)
    v = involution_gate(no_three)
    assert v.witnesses["failed_step"] == "odd_prime_in_group_order"


def test_bhk_witnesses_of_ree_sweep_match_values_computed_here():
    # n = 0 is the q = 3 lookup, which runs no cutoff gate
    reduced = unreduced = 0
    for cert in analyze("ree", 1, 100).certificates:
        (verdict,) = [v for v in cert.gates if v.gate_name == GATE_BHK]
        q, x = cert.q, cert.x_order
        d0 = Fraction(q + 6, x)
        assert verdict.witnesses["d0"] == f"{q + 6}/{x}"
        # lowest terms keep a denominator of 1
        assert verdict.witnesses["d0_lowest_terms"] == f"{d0.numerator}/{d0.denominator}"
        assert verdict.witnesses["vertices"] == q**3 * (q**3 - 1) * (q + 1)
        if d0.denominator == x:
            unreduced += 1
        else:
            reduced += 1
    # both branches of the gate's formatting are reached
    assert (reduced, unreduced) == (206, 482)


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


#: Distance-transitive graphs by their vertex count v and sphere sizes, the
#: trivial sphere first: the diameter cutoff must never exclude one of them.
DISTANCE_TRANSITIVE_SPHERES = {
    "petersen": (10, (1, 3, 6)),
    "O4": (35, (1, 4, 12, 18)),
    "H(6,3)": (729, (1, 12, 60, 160, 240, 192, 64)),
    "biggs-smith": (102, (1, 3, 6, 12, 24, 24, 24, 8)),
    "GH(3,3)": (364, (1, 12, 108, 243)),
    "srg(351,126,45,45)": (351, (1, 126, 224)),
}


@pytest.mark.parametrize("name", DISTANCE_TRANSITIVE_SPHERES)
def test_bhk_gate_never_excludes_a_distance_transitive_graph(name):
    # one count-1 row per sphere, so N = d + 1 as in the gate's d0; the
    # gate reads only the table's v, N and length groups, and |X|, so a
    # table with neither a parameter nor an |H| is enough
    v, spheres = DISTANCE_TRANSITIVE_SPHERES[name]
    assert sum(spheres) == v
    rows = tuple(ConcreteRow(f"S{i}", Z_UNKNOWN, size, 1) for i, size in enumerate(spheres))
    ct = ConcreteTable(REE, None, v, None, len(spheres), rows)
    for x in range(1, 5):
        verdict = bhk_gate(ct, x)
        assert verdict.outcome == INCONCLUSIVE, x
        assert verdict.witnesses["d0"] == f"{len(spheres)}/{x}"


def test_bhk_gate_excludes_exactly_at_the_cutoff():
    # at v = 8 the cutoff (8/3) log2(v) is 8, so d0 = 8 meets it: 2^24 >= 8^8
    # with equality. Rows of distinct lengths 2..k+1 under the trivial one
    # give N = k + 1 and a class bound of k at |X| = 1; the tables are data
    # for the comparison only, so their lengths need not sum to v
    def table(k):
        rows = (ConcreteRow("1", "one", 1, 1),) + tuple(ConcreteRow(f"L{i}", Z_UNKNOWN, i, 1) for i in range(2, k + 2))
        return ConcreteTable(REE, None, 8, None, k + 1, rows)

    expect = {
        (6, 1): (INCONCLUSIVE, "2^(3a) < v^(8b)", "false"),
        (7, 1): (EXCLUDES, "2^(3a) >= v^(8b)", "false"),
        (8, 1): (EXCLUDES, "2^(3a) >= v^(8b)", "true"),
        # d0 = 16/2 in lowest terms is 8/1, on the cutoff again; distinct
        # lengths do not fuse, so the class bound stays k whatever |X| is
        (15, 2): (EXCLUDES, "2^(3a) >= v^(8b)", "true"),
        (14, 2): (INCONCLUSIVE, "2^(3a) < v^(8b)", "true"),
        (6, 2): (INCONCLUSIVE, "2^(3a) < v^(8b)", "false"),
    }
    for (k, x), (outcome, comparison, refined) in expect.items():
        verdict = bhk_gate(table(k), x)
        got = (verdict.outcome, verdict.witnesses["exact_comparison"], verdict.witnesses["refined_excludes"])
        assert got == (outcome, comparison, refined), (k, x)


def test_bhk_gate_edges():
    # at q = 3, which the chain routes to the table lookup, the cutoff
    # cannot exclude for either X
    assert bhk_gate(_ree_table(0), 1).outcome == INCONCLUSIVE
    assert bhk_gate(_ree_table(0), 2).outcome == INCONCLUSIVE
    with pytest.raises(ValueError):
        bhk_gate(_sub_table(2), 2)
    # the ree family has no step below 0, so there is no table to run the gate on
    with pytest.raises(ValueError, match=r"^ree family requires n >= 0$"):
        _ree_table(-1)


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
    # the q it is handed is validated: an int 3**(2n+1), not 9 and not 27.0
    for bad in (9, 27.0):
        with pytest.raises(ValueError, match=rf"^ree parameter must be 3\*\*\(2n\+1\): {bad}$"):
            kernel_prime_data(bad)


def test_kernel_chain_gate_excludes():
    # step n: q = 27, 243, 2187
    expect = {
        1: ("19, 37", "19683, 19656"),
        2: ("31, 271", "14348907, 14348664"),
        3: ("43, 2269", "10460353203, 10460351016"),
    }
    for n, (primes, stabs) in expect.items():
        ct = _ree_table(n)
        v = kernel_chain_gate(ct)
        assert v.gate_name == GATE_KERNEL_CHAIN
        assert v.outcome == EXCLUDES
        assert v.witnesses["primes"] == primes
        assert v.witnesses["gamma1_candidates"] == "R2, R6"
        assert v.witnesses["gamma1_stabilizers"] == stabs


def test_kernel_chain_gate_stops_at_the_premise_at_q3():
    v = kernel_chain_gate(_ree_table(0))
    assert v.outcome == INCONCLUSIVE
    assert v.witnesses == {"failed_step": "proper_divisor_premise"}


def test_kernel_chain_gate_rejects_subfield():
    with pytest.raises(ValueError):
        kernel_chain_gate(_sub_table(1))


def test_kernel_chain_gate_premise_failure():
    # the premise: every nontrivial length divides |H| and is below it
    real = _ree_table(1)
    h = real.h_order
    (r2,) = [r for r in real.rows if r.label == "R2"]
    assert h % (r2.length + 1)

    def with_row(length):
        return real._replace(rows=real.rows + (ConcreteRow("X", Z_UNKNOWN, length, 1),))

    cases = [
        # a length equal to |H| divides it and is no proper divisor
        (with_row(h), False),
        # a length above |H| divides it not
        (with_row(2 * h), False),
        # a length below |H| that divides it not
        (with_row(r2.length + 1), False),
        # under an |H| below 0 every length divides it and none is below it
        (real._replace(h_order=-h), False),
        # the trivial row alone is never a premise fault, even under |H| = 1
        (real._replace(h_order=1, rows=real.rows[:1]), True),
        (real, True),
    ]
    for i, (table, holds) in enumerate(cases):
        v = kernel_chain_gate(table)
        stopped = v.witnesses.get("failed_step") == "proper_divisor_premise"
        assert stopped != holds, i
        if stopped:
            assert v.outcome == INCONCLUSIVE
            assert v.witnesses == {"failed_step": "proper_divisor_premise"}


def test_kernel_chain_gate_no_certifying_primes(monkeypatch):
    # the chain needs a certifying prime of each factor of q*q - q + 1
    for minus, plus in (((), ()), ((19,), ()), ((), (37,))):
        monkeypatch.setattr(gates, "kernel_prime_data", lambda q: ((19, minus), (37, plus)))
        v = kernel_chain_gate(_ree_table(1))
        assert v.outcome == INCONCLUSIVE, (minus, plus)
        assert v.witnesses["failed_step"] == "no_certifying_primes", (minus, plus)


def test_kernel_chain_gate_candidate_shape_failure():
    real = _ree_table(1)
    # shrink one candidate length so the first sphere no longer matches
    rows = tuple(
        ConcreteRow(r.label, r.z_order, 54, r.count) if r.label == "R2" else r
        for r in real.rows
    )
    broken = ConcreteTable(REE, 27, real.index, real.h_order, real.suborbits, rows)
    v = kernel_chain_gate(broken)
    assert v.witnesses["failed_step"] == "first_sphere_candidates"


def test_kernel_chain_gate_divisible_candidate_failure():
    real = _ree_table(1)
    # the lengths stay; scaling |H| by a certifying prime makes the first
    # candidate's stabilizer divisible by it
    for prime in (19, 37):
        v = kernel_chain_gate(real._replace(h_order=prime * real.h_order))
        assert v.outcome == INCONCLUSIVE
        assert v.witnesses == {"failed_step": "candidate_stabilizer_divisible", "row": "R2", "prime": prime}


def test_kernel_chain_gate_both_factors_failure():
    real = _ree_table(1)
    h = real.h_order
    assert h % (19 * 37) == 0
    rows = real.rows + (ConcreteRow("X", Z_UNKNOWN, h // (19 * 37), 1),)
    broken = ConcreteTable(REE, 27, real.index, h, real.suborbits + 1, rows)
    v = kernel_chain_gate(broken)
    assert v.outcome == INCONCLUSIVE
    assert v.witnesses["failed_step"] == "stabilizer_divisible_by_both"
    assert v.witnesses["row"] == "X"


def test_bcn_small_case_gate():
    v = bcn_small_case_gate(_ree_table(0), 2)
    assert v.gate_name == GATE_BCN
    assert v.outcome == ASSUMED_EXTERNAL
    assert v.witnesses["vertices"] == 2808
    assert v.witnesses["diameter_lower_bound"] == 6
    assert v.witnesses["x_order"] == 2
    v1 = bcn_small_case_gate(_ree_table(0), 1)
    assert v1.witnesses["diameter_lower_bound"] == 8
    # a verdict at any other table would cite the q = 3 tables for it
    for n in (1, 2):
        with pytest.raises(ValueError, match="q = 3 only"):
            bcn_small_case_gate(_ree_table(n), 2)
    with pytest.raises(ValueError):
        bcn_small_case_gate(_sub_table(1), 2)
