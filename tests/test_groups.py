import ast
from fractions import Fraction
from pathlib import Path

import pytest

import dtgcert.groups as groups
from dtgcert.exact import Poly, cyclic_order
from dtgcert.gates import order4_witness
from dtgcert.groups import (
    REE,
    SUBFIELD,
    get_family,
    outer_subgroup_options,
)
from dtgcert.tables import build_table, instantiate


def test_get_family():
    assert get_family("ree") is REE
    assert get_family("subfield") is SUBFIELD
    with pytest.raises(ValueError):
        get_family("weyl")


def g2_order(q):
    """|G2(q)| = q^6 (q^6 - 1) (q^2 - 1), for an int or a Poly q."""
    return q**6 * (q**6 - 1) * (q**2 - 1)


def test_order_product_identity_symbolic():
    # |H| * index = |G2(q)| as polynomials in the table variable:
    # q = r^2 for subfield, q = 3m^2 for ree
    t = Poly.var()
    assert SUBFIELD.h_order * SUBFIELD.index == g2_order(t**2)
    assert REE.h_order * REE.index == g2_order(3 * t**2)


#: Each family's step map in closed form: n -> (param, q, f, table variable,
#: N with the trivial suborbit), the n of an admissible param 3**e (None when
#: 3**e is not admissible), and n_of_param's error for an inadmissible param.
#: Every entry that takes n refuses a step below min_n, or one that is not an
#: int, with param_for_n's error.
CLOSED_FORMS = {
    "subfield": (
        lambda n: (3**n, 3 ** (2 * n), 2 * n, 3**n, 3 ** (2 * n) + 2 * 3**n + 6),
        lambda e: e if e >= 1 else None,
        "subfield parameter must be 3**n, n >= 1: {}",
    ),
    "ree": (
        lambda n: (3 ** (2 * n + 1), 3 ** (2 * n + 1), 2 * n + 1, 3**n, 3 ** (2 * n + 1) + 6),
        lambda e: (e - 1) // 2 if e % 2 else None,
        "ree parameter must be 3**(2n+1): {}",
    ),
}


@pytest.mark.parametrize("kind", CLOSED_FORMS)
def test_step_map_matches_closed_forms(kind):
    family = get_family(kind)
    step, n_of_exponent, message = CLOSED_FORMS[kind]
    for n in range(family.min_n, 400):
        param = family.param_for_n(n)
        facts = (
            param,
            family.q_value(param),
            family.field_exponent(n),
            family.table_variable(n),
            family.suborbits.eval_int(family.table_variable(n)),
        )
        assert facts == step(n), n
    expected = {3**e: n_of_exponent(e) for e in range(802)}
    expected.update((bad, None) for bad in [0, -3, 2, 5, 12] + [2 * 3**k for k in range(20)])
    first = family.param_for_n(family.min_n)
    # a param that is not an int is refused even where it equals an admissible one
    not_ints = [(float(first), None), (str(first), None), (Fraction(first), None)]
    for param, n in [*expected.items(), *not_ints]:
        if n is not None:
            assert family.n_of_param(param) == n, param
            continue
        with pytest.raises(ValueError) as err:
            family.n_of_param(param)
        assert str(err.value) == message.format(param)
    table = build_table(family)
    entries = {
        "param_for_n": family.param_for_n,
        "table_variable": family.table_variable,
        "field_exponent": family.field_exponent,
        "outer_subgroup_options": lambda n: outer_subgroup_options(family, n),
        "instantiate": lambda n: instantiate(table, n),
    }
    for bad in (family.min_n - 1, -1, float(family.min_n + 1), str(family.min_n), True):
        for name, entry in entries.items():
            with pytest.raises(ValueError) as err:
                entry(bad)
            assert str(err.value) == f"{kind} family requires n >= {family.min_n}", (name, bad)


def test_case_family_methods_name_no_family():
    # a family is data: CaseFamily's methods read its fields and never
    # compare self.kind or spell a family's name
    tree = ast.parse(Path(groups.__file__).read_text())
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "CaseFamily")
    methods = [node for node in cls.body if isinstance(node, ast.FunctionDef)]
    assert {"param_for_n", "n_of_param", "q_value", "field_exponent"} <= {m.name for m in methods}
    for method in methods:
        for node in ast.walk(method):
            if isinstance(node, ast.Constant):
                assert node.value not in ("subfield", "ree"), method.name
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                assert "self.kind" not in map(ast.unparse, operands), method.name
    assert not hasattr(groups, "_v2")


def test_only_the_two_entries_handed_a_parameter_invert_one():
    # the library's coordinate is step n: n_of_param runs only where a caller
    # hands in a parameter, in verify_tables and kernel_prime_data
    callers = set()
    for path in Path(groups.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            defs = top.body if isinstance(top, ast.ClassDef) else [top]
            for node in defs:
                if not isinstance(node, ast.FunctionDef):
                    continue
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and ast.unparse(call.func).endswith("n_of_param"):
                        callers.add(f"{path.stem}.{node.name}")
    assert callers == {"pipeline.verify_tables", "gates.kernel_prime_data"}


def test_outer_subgroup_options_ree():
    opts = outer_subgroup_options(REE, 1)
    assert [(o.order, o.contains_graph_auto) for o in opts] == [
        (1, False),
        (2, True),
        (3, False),
        (6, True),
    ]
    opts3 = outer_subgroup_options(REE, 0)
    assert [(o.order, o.contains_graph_auto) for o in opts3] == [(1, False), (2, True)]


def test_outer_subgroup_options_subfield():
    # orders with the graph involution: the 2-adic valuation must match 2f
    # step n: r = 3, 9, 27
    expect = {1: {4}, 2: {8}, 3: {4, 12}}
    for n, graph_orders in expect.items():
        opts = outer_subgroup_options(SUBFIELD, n)
        two_f = 2 * SUBFIELD.field_exponent(n)
        assert [o.order for o in opts] == sorted(d for d in range(1, two_f + 1) if two_f % d == 0)
        assert {o.order for o in opts if o.contains_graph_auto} == graph_orders


def _torus_orders(r):
    """Orders of kappa and its named powers at r: the oracle for the order-4 witness.

    kappa generates the multiplicative group of GF(q**3), q = r*r, so it has
    order q**3 - 1; theta, eta, gamma, sigma and tau are explicit powers of it.
    """
    q = r * r
    kappa = q**3 - 1
    theta_exp = q * q + q + 1
    return {
        "kappa": cyclic_order(kappa, 1),
        "theta": cyclic_order(kappa, theta_exp),
        "eta": cyclic_order(kappa, theta_exp * (r - 1)),
        "gamma": cyclic_order(kappa, theta_exp * (r + 1)),
        "sigma": cyclic_order(kappa, (r + 1) * (r**3 - 1)),
        "tau": cyclic_order(kappa, (r - 1) * (r**3 + 1)),
    }


def test_torus_orders_frozen_r3():
    assert _torus_orders(3) == {"kappa": 728, "theta": 8, "eta": 4, "gamma": 2, "sigma": 7, "tau": 13}


def test_torus_order_relations():
    table = build_table(SUBFIELD)
    for n in range(1, 11):
        r = 3**n
        q = r * r
        orders = _torus_orders(r)
        assert orders == {
            "kappa": q**3 - 1,
            "theta": q - 1,
            "eta": r + 1,
            "gamma": r - 1,
            "sigma": r * r - r + 1,
            "tau": r * r + r + 1,
        }, r
        assert orders["eta"] * orders["gamma"] == q - 1
        assert orders["sigma"] * orders["tau"] == q * q + q + 1
        # the library computes only the witness's base order, and it agrees
        base, exponent, base_order = order4_witness(instantiate(table, n))
        assert base_order == orders[base] and exponent == base_order // 4, r


@pytest.mark.parametrize("family", [REE, SUBFIELD], ids=["ree", "subfield"])
def test_outer_subgroup_options_match_brute_force_divisors(family):
    def v2(k):
        return len(bin(k)) - len(bin(k).rstrip("0"))

    # every field exponent f in 1..60 that the family has: subfield f = 2n, ree f = 2n + 1
    steps = range(family.min_n, family.min_n + 30)
    assert [family.field_exponent(n) for n in steps] == [f for f in range(1, 61) if f % 2 == (family is REE)]
    for n in steps:
        two_f = 2 * family.field_exponent(n)
        divisors = [d for d in range(1, two_f + 1) if two_f % d == 0]
        want = [(d, v2(d) == v2(two_f)) for d in divisors]
        assert [(o.order, o.contains_graph_auto) for o in outer_subgroup_options(family, n)] == want, n


def test_graph_flag_marks_subgroups_that_meet_the_graph_coset():
    # Out = Z_2f written additively, tau = 1: X_d is generated by 2f/d, and
    # the graph coset is the odd residues
    for f in range(1, 61):
        family = REE if f % 2 else SUBFIELD
        two_f = 2 * f
        options = outer_subgroup_options(family, f // 2)
        assert sorted(o.order for o in options) == [d for d in range(1, two_f + 1) if two_f % d == 0]
        differ = []
        for option in options:
            x = {k for k in range(two_f) if k % (two_f // option.order) == 0}
            assert len(x) == option.order
            assert option.contains_graph_auto == any(k % 2 for k in x), (f, option)
            # the involution tau**f lies in X_d exactly when d is even
            holds_involution = f in x
            assert holds_involution == (option.order % 2 == 0), (f, option)
            if holds_involution != option.contains_graph_auto:
                differ.append(option.order)
        # the flag is involution membership only for odd f; for even f no
        # odd power of tau is an involution, and X_2 = <tau**f> has flag false
        if f % 2:
            assert differ == [], f
        else:
            assert 2 in differ, f
            assert all(2 * k % two_f for k in range(1, two_f, 2)), f
