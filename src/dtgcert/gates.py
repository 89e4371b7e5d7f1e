"""Elimination gates: decision procedures with explicit numeric witnesses.

Each gate replays one step of the case analysis on exact table data and
returns a GateVerdict whose outcome is "excludes", "inconclusive" or
"assumed_external". A gate only ever returns "excludes" when every one of
its sub-checks passed; any failed sub-check yields "inconclusive" with the
failing step named, never a silent exclusion.

Every gate takes the ConcreteTable of its step first and reads its
parameter (q or r) from it, so the table and the parameter cannot disagree.
Which gate runs on which table is decided by the chain in pipeline alone; a
table outside a gate's domain (the other family's, or for the q = 3 lookup
any other ree table) raises ValueError.
multiplicity_free_gate also reads whether X holds an odd power of the graph
automorphism (meets the graph coset), and the gates that bound fused class
counts take |X| as a plain int. A verdict lists the ASSUMPTION_* texts it
relies on, and a certificate's assumptions are the union of its verdicts'
lists.
"""
from functools import partial
from math import gcd

from . import fusion, tables
from .exact import cyclic_order, exp_compare, factorize
from .groups import REE, OuterOption
from .tables import Record, _tuple_new

EXCLUDES = "excludes"
INCONCLUSIVE = "inconclusive"
ASSUMED_EXTERNAL = "assumed_external"

GATE_MULTIPLICITY_FREE = "multiplicity_free"
GATE_SIGMA_IN_X = "sigma_in_x"
GATE_INVOLUTION = "involution"
GATE_BHK = "bhk_diameter"
GATE_KERNEL_CHAIN = "kernel_chain"
GATE_BCN = "bcn_small_case"

ASSUMPTION_MULTIPLICITY_FREE = (
    "multiplicity-free classification of the subfield coset action taken as external input"
)
ASSUMPTION_OUTER_EVEN = (
    "outer subgroup descriptors for even field-automorphism order come from the cyclic model, unverified"
)
ASSUMPTION_BCN = (
    "absence of a feasible intersection array at 2808 vertices taken from published tables"
)
ASSUMPTION_KERNEL = (
    "nontrivial kernel on every suborbit (proper-divisor premise) assumed for the kernel chain"
)

#: Small primes discarded when selecting certifying kernel primes.
DEFAULT_STRIP = frozenset({2, 3, 5, 7})

Witness = int | str


class GateVerdict(Record, fields="gate_name outcome witnesses narrative assumptions"):
    """One gate's outcome with its witnesses; each verdict owns its witness dict.

    gate_name, outcome and narrative are strs, witnesses maps str keys to
    Witness values, and assumptions is a tuple of ASSUMPTION_* texts.
    """

    __slots__ = ()

    def __new__(
        cls,
        gate_name: str,
        outcome: str,
        witnesses: dict[str, Witness] | None = None,
        narrative: str = "",
        assumptions: tuple[str, ...] = (),
    ) -> "GateVerdict":
        if witnesses is None:
            witnesses = {}
        if outcome == EXCLUDES and not witnesses:
            raise ValueError("an excluding verdict requires witnesses")
        return _tuple_new(cls, (gate_name, outcome, witnesses, narrative, assumptions))


def _fail(gate: str, narrative: str, step: str, **extra: Witness) -> GateVerdict:
    """An inconclusive verdict naming the sub-check that did not pass."""
    return GateVerdict(gate, INCONCLUSIVE, {"failed_step": step, **extra}, narrative)


def multiplicity_free_gate(ct: tables.ConcreteTable, x: OuterOption) -> GateVerdict:
    """Necessary condition on the subfield action at q = r*r: X holds an odd
    power of the graph automorphism, that is, meets the graph coset; an X
    inside the field automorphisms already excludes a graph. At q = r*r the
    field exponent is even, so no element of the graph coset is an
    involution."""
    if ct.family.kind != "subfield":
        raise ValueError("the multiplicity-free gate applies to the subfield family only")
    narrative = "multiplicity-free classification of the subfield coset action"
    graph = x.contains_graph_auto
    return GateVerdict(
        GATE_MULTIPLICITY_FREE,
        INCONCLUSIVE if graph else EXCLUDES,
        {"q": ct.family.q_value(ct.param), "x_order": x.order, "contains_graph_auto": "true" if graph else "false"},
        narrative,
        (ASSUMPTION_MULTIPLICITY_FREE, ASSUMPTION_OUTER_EVEN),
    )


def sigma_in_x_gate(ct: tables.ConcreteTable) -> GateVerdict:
    """Diameter >= 3 licenses assuming the centralizing involution lies in X.

    Always inconclusive; involution_gate's diameter_at_least_3 step tests
    the distinct lengths counted here.
    """
    if ct.family.kind != "subfield":
        raise ValueError("the sigma-in-X gate applies to the subfield family only")
    narrative = "diameter >= 3 forces the centralizing involution into X"
    count = len(ct.length_groups)
    return GateVerdict(GATE_SIGMA_IN_X, INCONCLUSIVE, {"distinct_nontrivial_lengths": count}, narrative)


def order4_witness(ct: tables.ConcreteTable) -> tuple[str, int, int]:
    """A gamma- or eta-power of order exactly 4 in a subfield table at r.

    Returns (base, exponent, base order). kappa generates the multiplicative
    group of GF(q**3), q = r*r, so it has order q**3 - 1; gamma and eta are
    powers of kappa, and their computed orders must be r - 1 and r + 1, so
    exactly one of the two is divisible by 4 for odd r. The chosen torus
    must still have rows in the table and its power must have order 4, or
    ArithmeticError is raised.
    """
    if ct.family.kind != "subfield":
        raise ValueError("order-4 torus witnesses apply to the subfield family only")
    r = ct.param
    q = ct.family.q_value(r)
    kappa = q**3 - 1
    theta_exp = q * q + q + 1
    gamma = cyclic_order(kappa, theta_exp * (r + 1))
    eta = cyclic_order(kappa, theta_exp * (r - 1))
    if (gamma, eta) != (r - 1, r + 1):
        raise ArithmeticError(f"torus orders at r={r}: gamma {gamma}, eta {eta}")
    if gamma % 4 == 0:
        base, order, z_order = "gamma", gamma, tables.Z_GAMMA
    else:
        base, order, z_order = "eta", eta, tables.Z_ETA
    if not any(row.z_order == z_order for row in ct.rows):
        raise ArithmeticError(f"no {base} rows survive at r={r}")
    if cyclic_order(order, order // 4) != 4:
        raise ArithmeticError(f"no {base} power of order 4 at r={r}")
    return base, order // 4, order


def involution_gate(ct: tables.ConcreteTable) -> GateVerdict:
    """Commuting-involution argument for the subfield family.

    Replays the four-case elimination: a commuting pair exists (the
    h(-1,-1,1) class has order 2), the graph is neither small-diameter nor a
    2-group case, neighbors cannot commute (all first-sphere candidates have
    order 3), and an order-4 torus power rules out the remaining case.
    """
    if ct.family.kind != "subfield":
        raise ValueError("the involution gate applies to the subfield family only")
    narrative = "commuting-involution pair forces an odd-prime product order; all four cases fail"
    fail = partial(_fail, GATE_INVOLUTION, narrative)

    pair_rows = [row for row in ct.rows if row.z_order == tables.Z_TWO]
    if not pair_rows:
        return fail("commuting_pair")

    # fusion only merges equal lengths, so >= 3 distinct nontrivial lengths force diameter >= 3
    if len(ct.length_groups) < 3:
        return fail("diameter_at_least_3")
    if ct.h_order * ct.index % 3 != 0:
        return fail("odd_prime_in_group_order")

    candidates = fusion.smallest_fused_candidates(ct)
    bad = [row.label for row in candidates if row.z_order != tables.Z_THREE]
    if bad:
        return fail("candidate_z_orders", offending_rows=", ".join(bad))

    try:
        base, exponent, base_order = order4_witness(ct)
    except ArithmeticError as exc:
        return fail("order4_witness", detail=str(exc))

    return GateVerdict(
        GATE_INVOLUTION,
        EXCLUDES,
        {
            "candidates": ", ".join(row.label for row in candidates),
            "commuting_pair_row": pair_rows[0].label,
            "order4_base": base,
            "order4_exponent": exponent,
            "order4_base_order": base_order,
            "odd_prime": 3,
        },
        narrative,
    )


def bhk_gate(ct: tables.ConcreteTable, x_order: int) -> GateVerdict:
    """Exact form of the diameter cutoff d < (8/3) log2(v) for the ree family.

    v is the table's coset index and N its suborbit count, the trivial one
    included: the verdict reads the table's v, N and length groups, and
    |X|, nothing else. The gate takes d0 = N / |X| fused classes. That
    overstates the bound: a sphere is a fused class of the N - 1
    nontrivial suborbits, so d >= ceil((N - 1)/|X|), which is below d0
    exactly when |X| divides q + 5 (202 of the 688 verdicts of ree
    0..100). Every verdict still stands under the nontrivial bound, as
    test_gates::test_bhk_verdicts_of_ree_sweep_stand_under_the_nontrivial_class_bound
    pins; the witness fix, which changes report bytes, is ROADMAP item 1.
    With d0 = a/b in lowest terms the cutoff fails exactly when
    2**(3a) >= v**(8b), decided by exact integer comparison.
    The sharper class-count bound from the same table is reported as an
    extra witness but does not feed the verdict; at q = 3 it is inconclusive
    for both X. An x_order that is not an int >= 1 raises ValueError before
    any comparison. d0 is written as text, so past Python's int-to-str
    digit cap (q of more than 4300 digits) the gate needs the cap lifted,
    as pipeline.analyze does for its sweep.
    """
    if ct.family.kind != "ree":
        raise ValueError("the diameter cutoff gate applies to the ree family only")
    refined = fusion.min_fused_classes(ct.length_groups, x_order)
    narrative = "diameter cutoff d < (8/3) log2(v), decided as 2^(3a) vs v^(8b)"
    suborbits = ct.suborbits
    v = ct.index
    d0 = f"{suborbits}/{x_order}"
    g = gcd(suborbits, x_order)
    if g == 1:
        a, b, lowest = suborbits, x_order, d0
    else:
        a, b = suborbits // g, x_order // g
        lowest = f"{a}/{b}"
    comparison = exp_compare(2, 3 * a, v, 8 * b)
    refined_excludes = exp_compare(2, 3 * refined, v, 8) >= 0

    witnesses: dict[str, Witness] = {
        "d0": d0,
        "d0_lowest_terms": lowest,
        "vertices": v,
        "exact_comparison": "2^(3a) >= v^(8b)" if comparison >= 0 else "2^(3a) < v^(8b)",
        "refined_min_classes": refined,
        "refined_excludes": "true" if refined_excludes else "false",
    }
    outcome = EXCLUDES if comparison >= 0 else INCONCLUSIVE
    return GateVerdict(GATE_BHK, outcome, witnesses, narrative)


def kernel_prime_data(q: int) -> tuple[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]]:
    """Certifying primes of the factors q - 3m + 1 and q + 3m + 1.

    Returns ((q - 3m + 1, its primes), (q + 3m + 1, its primes)). The two
    factors multiply to q*q - q + 1. Primes in DEFAULT_STRIP cannot certify
    (they may divide fused kernel multipliers), so they are removed. A q
    that is not an int 3**(2n+1) raises ValueError."""
    m = REE.table_variable(REE.n_of_param(q))
    minus_value = q - 3 * m + 1
    plus_value = q + 3 * m + 1
    if minus_value * plus_value != q * q - q + 1:
        raise ArithmeticError(f"factor identity failed at q={q}")
    return tuple(
        (value, tuple(p for p in factorize(value) if p not in DEFAULT_STRIP)) for value in (minus_value, plus_value)
    )


def kernel_chain_gate(ct: tables.ConcreteTable) -> GateVerdict:
    """Kernel divisibility chain for the ree family at q >= 27.

    The strictly decreasing kernel chain would have to start from a first
    sphere built from the two smallest suborbits and end in a kernel whose
    order is divisible by a certifying prime from each of q - 3m + 1 and
    q + 3m + 1. Stabilizer orders upper-bound kernel orders, so it is enough
    that no first-sphere candidate stabilizer is divisible by any certifying
    prime and no row stabilizer is divisible by certifying primes from both
    factors. An exclusion rests on ASSUMPTION_KERNEL, whose proper-divisor
    premise the gate checks first: every nontrivial suborbit length divides
    |H| and is below it, which no length is under an |H| <= 0. At q = 3 one
    length equals |H|, and the chain stops at its proper_divisor_premise
    step.
    """
    narrative = "kernel divisibility chain on suborbit stabilizers"
    if ct.family.kind != "ree":
        raise ValueError("the kernel chain gate applies to the ree family only")
    q = ct.param
    fail = partial(_fail, GATE_KERNEL_CHAIN, narrative)

    h_order = ct.h_order
    if any(h_order % row.length or row.length >= h_order for row in ct.nontrivial_rows):
        return fail("proper_divisor_premise")

    (minus_value, p_minus), (plus_value, p_plus) = kernel_prime_data(q)
    if not p_minus or not p_plus:
        return fail("no_certifying_primes", minus_value=minus_value, plus_value=plus_value)
    specials = p_minus + p_plus

    candidates = fusion.smallest_fused_candidates(ct)
    candidate_labels = ", ".join(row.label for row in candidates)
    expected_lengths = {(q**3 + 1) * (q - 1), q**2 * (q**2 - q + 1)}
    if {row.length for row in candidates} != expected_lengths:
        return fail("first_sphere_candidates", candidates=candidate_labels)

    candidate_stabs = []
    for row in candidates:
        stab = tables.stabilizer_order(ct, row)
        candidate_stabs.append(stab)
        for p in specials:
            if stab % p == 0:
                return fail("candidate_stabilizer_divisible", row=row.label, prime=p)

    for row in ct.nontrivial_rows:
        stab = tables.stabilizer_order(ct, row)
        if any(stab % p == 0 for p in p_minus) and any(stab % p == 0 for p in p_plus):
            return fail("stabilizer_divisible_by_both", row=row.label)

    return GateVerdict(
        GATE_KERNEL_CHAIN,
        EXCLUDES,
        {
            "primes": ", ".join(str(p) for p in specials),
            "q_minus_3m_plus_1": minus_value,
            "q_plus_3m_plus_1": plus_value,
            "gamma1_candidates": candidate_labels,
            "gamma1_stabilizers": ", ".join(str(s) for s in candidate_stabs),
        },
        narrative,
        (ASSUMPTION_KERNEL,),
    )


def bcn_small_case_gate(ct: tables.ConcreteTable, x_order: int) -> GateVerdict:
    """External table lookup for the single small ree case q = 3.

    The published intersection-array tables contain no feasible array with
    this vertex count and diameter; the absence is cited, not recomputed.
    Any table other than the ree table at q = 3, or an x_order that is not
    an int >= 1, raises ValueError: the verdict would cite the wrong table.
    """
    if ct.family.kind != "ree" or ct.param != 3:
        raise ValueError("the small-case lookup applies to the ree table at q = 3 only")
    narrative = "no feasible intersection array with 2808 vertices at this diameter (external tables)"
    bound = fusion.min_fused_classes(ct.length_groups, x_order)
    return GateVerdict(
        GATE_BCN,
        ASSUMED_EXTERNAL,
        {"vertices": ct.index, "diameter_lower_bound": bound, "x_order": x_order},
        narrative,
        (ASSUMPTION_BCN,),
    )
