import pytest

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


def test_subfield_orders_concrete():
    # |G2(q)| with q = r^2 against the generic order formula, written out
    for r in (3, 9, 27):
        q = r * r
        h = SUBFIELD.h_order.eval_int(SUBFIELD.table_variable(r))
        index = SUBFIELD.index.eval_int(SUBFIELD.table_variable(r))
        assert h == r**6 * (r**6 - 1) * (r**2 - 1)
        assert index == r**6 * (r**6 + 1) * (r**2 + 1)
        assert h * index == g2_order(q)
    assert SUBFIELD.index.eval_int(SUBFIELD.table_variable(3)) == 5321700


def test_ree_orders_concrete():
    for q in (3, 27, 243, 2187):
        h = REE.h_order.eval_int(REE.table_variable(q))
        index = REE.index.eval_int(REE.table_variable(q))
        assert h == q**3 * (q**3 + 1) * (q - 1)
        assert index == q**3 * (q**3 - 1) * (q + 1)
        assert h * index == g2_order(q)
    assert REE.index.eval_int(REE.table_variable(3)) == 2808
    assert REE.index.eval_int(REE.table_variable(27)) == 10847222568


def test_param_roundtrip():
    for n in range(1, 8):
        assert SUBFIELD.n_of_param(SUBFIELD.param_for_n(n)) == n
    for n in range(0, 8):
        assert REE.n_of_param(REE.param_for_n(n)) == n


def test_param_admissibility():
    with pytest.raises(ValueError):
        SUBFIELD.param_for_n(0)
    with pytest.raises(ValueError):
        REE.param_for_n(-1)
    for bad in (1, 2, 5, 12):
        with pytest.raises(ValueError):
            SUBFIELD.n_of_param(bad)
    # 9 = 3^2 has even exponent, inadmissible for the ree family
    for bad in (1, 9, 81, 5):
        with pytest.raises(ValueError):
            REE.n_of_param(bad)
    # a parameter below 1 gets the family's own message
    for bad in (0, -3, -27):
        with pytest.raises(ValueError, match=rf"^subfield parameter must be 3\*\*n, n >= 1: {bad}$"):
            SUBFIELD.n_of_param(bad)
        with pytest.raises(ValueError, match=rf"^ree parameter must be 3\*\*\(2n\+1\): {bad}$"):
            REE.n_of_param(bad)


def test_table_variable_and_q():
    assert SUBFIELD.table_variable(27) == 27
    assert SUBFIELD.q_value(27) == 729
    assert SUBFIELD.field_exponent(27) == 6
    assert REE.table_variable(27) == 3
    assert REE.q_value(27) == 27
    assert REE.field_exponent(27) == 3
    assert REE.table_variable(2187) == 27
    # suborbits at the parameter, the trivial one included (tests/test_tables.py counts them in the tables)
    assert SUBFIELD.suborbit_total(3) == 21 and SUBFIELD.suborbit_total(9) == 105
    assert REE.suborbit_total(3) == 9 and REE.suborbit_total(27) == 33


def test_outer_subgroup_options_ree():
    opts = outer_subgroup_options(REE, 27)
    assert [(o.order, o.contains_graph_auto) for o in opts] == [
        (1, False),
        (2, True),
        (3, False),
        (6, True),
    ]
    opts3 = outer_subgroup_options(REE, 3)
    assert [(o.order, o.contains_graph_auto) for o in opts3] == [(1, False), (2, True)]


def test_outer_subgroup_options_subfield():
    # orders with the graph involution: the 2-adic valuation must match 2f
    expect = {3: {4}, 9: {8}, 27: {4, 12}}
    for r, graph_orders in expect.items():
        opts = outer_subgroup_options(SUBFIELD, r)
        two_f = 2 * SUBFIELD.field_exponent(r)
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
        base, exponent, base_order = order4_witness(instantiate(table, r))
        assert base_order == orders[base] and exponent == base_order // 4, r


@pytest.mark.parametrize("family", [REE, SUBFIELD], ids=["ree", "subfield"])
def test_outer_subgroup_options_match_brute_force_divisors(family):
    def v2(k):
        return len(bin(k)) - len(bin(k).rstrip("0"))

    # every field exponent f in 1..60 that the family has: subfield f = 2n, ree f = 2n + 1
    params = [family.param_for_n(n) for n in range(family.min_n, family.min_n + 30)]
    assert [family.field_exponent(p) for p in params] == [f for f in range(1, 61) if f % 2 == (family is REE)]
    for param in params:
        two_f = 2 * family.field_exponent(param)
        divisors = [d for d in range(1, two_f + 1) if two_f % d == 0]
        want = [(d, v2(d) == v2(two_f)) for d in divisors]
        assert [(o.order, o.contains_graph_auto) for o in outer_subgroup_options(family, param)] == want, param


def test_graph_flag_marks_subgroups_that_meet_the_graph_coset():
    # Out = Z_2f written additively, tau = 1: X_d is generated by 2f/d, and
    # the graph coset is the odd residues
    for f in range(1, 61):
        family = REE if f % 2 else SUBFIELD
        two_f = 2 * f
        options = outer_subgroup_options(family, family.param_for_n(f // 2))
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
