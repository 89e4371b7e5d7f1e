import ast
import random
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import pytest

import dtgcert.tables as tables
from dtgcert.exact import Poly
from dtgcert.groups import REE, SUBFIELD
from dtgcert.tables import (
    ConcreteRow,
    ConcreteTable,
    SuborbitRow,
    SuborbitTable,
    TranscriptionError,
    Z_THREE,
    build_table,
    dump,
    instantiate,
    measure,
    stabilizer_order,
    verify_mass_symbolic,
)
from helpers import (
    measured_row_by_row,
    r2_length_plus_one,
    reference_instantiate,
    replace_row,
    single_coefficient_mutants,
)


def test_row_counts():
    assert len(build_table(SUBFIELD).rows) == 26
    assert len(build_table(REE).rows) == 12


def test_symbolic_mass_detects_mutation():
    table = build_table(REE)
    bumped = Poly(tuple(table.rows[5].length.coeffs) + (1,))
    assert not verify_mass_symbolic(replace_row(table, 5, "length", bumped))


def _mass_identity_row_by_row(table):
    """The mass identity by its plain definition, the oracle of verify_mass_symbolic:
    every row's length * count multiplied out and summed, compared with the index."""
    return Poly.sum_of_products((row.length, row.count) for row in table.rows) == table.family.index


def _agrees_with_the_oracle(table):
    """verify_mass_symbolic's answer on table, which must be the oracle's, as a bool."""
    want = _mass_identity_row_by_row(table)
    assert tables.verify_mass_symbolic(table) is want
    return want


def _with_rows(table, rows):
    return SuborbitTable(table.family, tuple(rows))


def test_symbolic_mass_of_every_single_coefficient_mutant():
    rng = random.Random(11)
    for family, count in ((REE, 152), (SUBFIELD, 336)):
        table = build_table(family)
        assert _agrees_with_the_oracle(table)
        mutants = list(single_coefficient_mutants(table, lambda: rng.choice((-3, -2, -1, 1, 2, 3))))
        assert len(mutants) == count
        assert not any(_agrees_with_the_oracle(mutant) for mutant in mutants)


def test_symbolic_mass_of_two_changes_that_cancel():
    # R3 and R4 are the two halves of one cell, count 1: moving length
    # between them keeps the sum of the products
    table = build_table(REE)
    shift = Poly.var() ** 3 + 5
    moved = replace_row(table, 2, "length", table.rows[2].length + shift)
    moved = replace_row(moved, 3, "length", table.rows[3].length - shift)
    assert _agrees_with_the_oracle(moved)
    assert not _agrees_with_the_oracle(replace_row(moved, 3, "length", table.rows[3].length))


def test_symbolic_mass_of_rows_appended_dropped_and_permuted():
    for family in (REE, SUBFIELD):
        table = build_table(family)
        rows = table.rows
        zero = SuborbitRow(rows[1].z, rows[1].length, Poly())
        # a row of zero product appended keeps the sum; any other does not
        assert _agrees_with_the_oracle(_with_rows(table, rows + (zero,)))
        assert not _agrees_with_the_oracle(_with_rows(table, rows + (rows[1],)))
        assert not _agrees_with_the_oracle(_with_rows(table, rows + (zero, rows[0])))
        # a row dropped, at the end or inside
        assert not _agrees_with_the_oracle(_with_rows(table, rows[:-1]))
        assert not _agrees_with_the_oracle(_with_rows(table, rows[:1] + rows[2:]))
        # permuted rows keep the sum, though every moved row counts as changed
        assert _agrees_with_the_oracle(_with_rows(table, rows[::-1]))
        assert _agrees_with_the_oracle(_with_rows(table, rows[1:] + rows[:1]))


def test_symbolic_mass_of_equal_but_not_identical_rows():
    for family in (REE, SUBFIELD):
        table = build_table(family)
        copies = [SuborbitRow(r.z, Poly(r.length.coeffs), Poly(r.count.coeffs)) for r in table.rows]
        assert copies == list(table.rows) and not set(map(id, copies)) & set(map(id, table.rows))
        assert _agrees_with_the_oracle(_with_rows(table, copies))


def test_symbolic_mass_of_a_family_whose_own_rows_fail():
    for family in (REE, SUBFIELD):
        broken = next(single_coefficient_mutants(build_table(family), lambda: 1)).rows
        broken_family = family._replace(rows=broken)
        assert not _agrees_with_the_oracle(build_table(broken_family))
        assert _agrees_with_the_oracle(SuborbitTable(broken_family, family.rows))


#: The agreement tests above; each faulty delta check below fails one of them.
DELTA_CHECK_TESTS = (
    test_symbolic_mass_of_every_single_coefficient_mutant,
    test_symbolic_mass_of_two_changes_that_cancel,
    test_symbolic_mass_of_rows_appended_dropped_and_permuted,
    test_symbolic_mass_of_equal_but_not_identical_rows,
    test_symbolic_mass_of_a_family_whose_own_rows_fail,
)


def _faulty_delta_check(pairs=zip_longest, keep_old=True, trust_unchanged=False):
    """verify_mass_symbolic rebuilt with one fault: rows paired by pairs, the
    family's replaced products dropped, or a table with no changed row passed."""

    def check(table):
        family = table.family
        new, old = [], []
        for row, own in pairs(table.rows, family.rows):
            if row is not own:
                if row is not None:
                    new.append((row.length, row.count))
                if own is not None and keep_old:
                    old.append((own.length, own.count))
        if trust_unchanged and not new and not old:
            return True
        one = tables.ONE
        return Poly.sum_of_products([(family.own_mass, one), *new]) == Poly.sum_of_products([(family.index, one), *old])

    return check


@pytest.mark.parametrize(
    "faulty",
    [_faulty_delta_check(keep_old=False), _faulty_delta_check(pairs=zip), _faulty_delta_check(trust_unchanged=True)],
    ids=["ignores-old", "zip", "trusts-unchanged"],
)
def test_each_faulty_delta_check_fails_an_agreement_test(monkeypatch, faulty):
    # the faithful rebuild passes them all, so what fails is the fault
    monkeypatch.setattr(tables, "verify_mass_symbolic", _faulty_delta_check())
    for agreement_test in DELTA_CHECK_TESTS:
        agreement_test()
    monkeypatch.setattr(tables, "verify_mass_symbolic", faulty)
    failed = []
    for agreement_test in DELTA_CHECK_TESTS:
        try:
            agreement_test()
        except AssertionError:
            failed.append(agreement_test.__name__)
    assert failed


def _reference_rows(family):
    """The family's table transcribed again, halved rows made by `* Poly.const(Fraction(1, 2))`: label -> (length, count)."""
    half = Poly.const(Fraction(1, 2))
    t = Poly.var()
    one = Poly.const(1)
    if family is REE:
        m, q = t, 3 * t**2
        r3, r7 = q * (q**3 + 1) * (q - 1) * half, q**2 * (q**3 + 1) * (q - 1) * half
        return {
            "R1": (one, one), "R2": ((q**3 + 1) * (q - 1), one), "R3": (r3, one), "R4": (r3, one),
            "R5": (q**2 * (q**3 + 1) * (q - 1), one), "R6": (q**2 * (q**2 - q + 1), one),
            "R7": (r7, one), "R8": (r7, one), "R9": (q**3 * (q**3 + 1), (q - 3) / 2),
            "R10": (q**3 * (q**2 - q + 1) * (q - 1), (q - 3) / 6),
            "R11": (q**3 * (q**2 - 1) * (q - 3 * m + 1), (q - 3 * m) / 6),
            "R12": (q**3 * (q**2 - 1) * (q + 3 * m + 1), (q + 3 * m) / 6),
        }
    r = t
    unipotent = r**2 * (r**6 - 1) * (r**2 - 1) * half
    mixed = r**4 * (r**6 - 1) * (r**2 - 1) * half
    gamma_a = r**5 * (r**3 - 1) * (r**2 - r + 1)
    gamma_b = r**5 * (r**6 - 1) * (r - 1)
    eta_a = r**5 * (r**3 + 1) * (r**2 + r + 1)
    eta_b = r**5 * (r**6 - 1) * (r + 1)
    return {
        "1": (one, one),
        "x_{3a+2b}(1)": (r**6 - 1, one),
        "x_{2a+b}(1)": (r**6 - 1, one),
        "x_{2a+b}(1)x_{3a+2b}(1)": ((r**6 - 1) * (r**2 - 1), one),
        "x_{a+b}(1)x_{3a+b}(1)#1": (unipotent, one),
        "x_{a+b}(1)x_{3a+b}(1)#2": (unipotent, one),
        "x_a(1)x_b(1)": (r**4 * (r**6 - 1) * (r**2 - 1), one),
        "h(-1,-1,1)": (r**4 * (r**4 + r**2 + 1), one),
        "h(-1,-1,1)x_b(1)": (r**4 * (r**6 - 1), one),
        "h(-1,-1,1)x_{2a+b}(1)": (r**4 * (r**6 - 1), one),
        "h(-1,-1,1)x_b(1)x_{2a+b}(1)#1": (mixed, one),
        "h(-1,-1,1)x_b(1)x_{2a+b}(1)#2": (mixed, one),
        "h_gamma(i,-2i,i)": (gamma_a, (r - 3) / 2),
        "h_gamma(i,-2i,i)x_{3a+2b}(1)": (gamma_b, (r - 3) / 2),
        "h_gamma(i,-i,0)": (gamma_a, (r - 3) / 2),
        "h_gamma(i,-i,0)x_{2a+b}(1)": (gamma_b, (r - 3) / 2),
        "h_gamma(i,j,-i-j)": (r**6 * (r**3 - 1) * (r**2 - r + 1) * (r - 1), (r**2 - 8 * r + 15) / 12),
        "h_eta(i,-2i,i)": (eta_a, (r - 1) / 2),
        "h_eta(i,-2i,i)x_{3a+2b}(1)": (eta_b, (r - 1) / 2),
        "h_eta(i,-i,0)": (eta_a, (r - 1) / 2),
        "h_eta(i,-i,0)x_{2a+b}(1)": (eta_b, (r - 1) / 2),
        "h_eta(i,j,-i-j)": (r**6 * (r**3 + 1) * (r**2 + r + 1) * (r + 1), (r**2 - 4 * r + 3) / 12),
        "h_theta(i,(r-1)i,-ri)": (r**6 * (r**6 - 1), (r - 1) ** 2 / 4),
        "h_theta(i,ri,-(r+1)i)": (r**6 * (r**6 - 1), (r - 1) ** 2 / 4),
        "h_tau(i,ri,r^2i)": (r**6 * (r**3 - 1) * (r**2 - 1) * (r + 1), r * (r + 1) / 6),
        "h_sigma(i,-ri,r^2i)": (r**6 * (r**3 + 1) * (r**2 - 1) * (r - 1), r * (r - 1) / 6),
    }


@pytest.mark.parametrize("family", [REE, SUBFIELD], ids=["ree", "subfield"])
def test_rows_pinned_in_normal_form(family):
    # halving by `/ 2` stores the same integers over the same denominator as `* Poly.const(Fraction(1, 2))`
    def form(poly):
        return poly._num, poly._den

    got = {row.z[0]: (form(row.length), form(row.count)) for row in build_table(family).rows}
    want = {label: (form(length), form(count)) for label, (length, count) in _reference_rows(family).items()}
    assert list(got) == list(want)
    assert got == want



@pytest.mark.parametrize("family", [REE, SUBFIELD], ids=["ree", "subfield"])
def test_row_polynomials_round_trip_through_coeffs(family):
    # the benchmark builds its table mutants from list(poly.coeffs) with one coefficient moved
    for row in build_table(family).rows:
        for poly in (row.length, row.count):
            assert Poly(list(poly.coeffs)) == poly


def _reference_orders(family):
    """|H| and the coset index of a family transcribed again, factor by factor."""
    t = Poly.var()
    if family is REE:
        q = 3 * t**2
        return q**3 * (q**3 + 1) * (q - 1), q**3 * (q**3 - 1) * (q + 1)
    r = t
    return r**6 * (r**6 - 1) * (r**2 - 1), r**6 * (r**6 + 1) * (r**2 + 1)


@pytest.mark.parametrize("family", [REE, SUBFIELD], ids=["ree", "subfield"])
def test_family_orders_pinned_in_normal_form(family):
    h_order, index = _reference_orders(family)
    assert (family.h_order._num, family.h_order._den) == (h_order._num, h_order._den)
    assert (family.index._num, family.index._den) == (index._num, index._den)


def test_ree_q3_concrete_rows():
    ct = instantiate(build_table(REE), 0)
    q, m = 3, 1
    expected = {
        "R1": (1, 1),
        "R2": ((q**3 + 1) * (q - 1), 1),
        "R3": (q * (q**3 + 1) * (q - 1) // 2, 1),
        "R4": (q * (q**3 + 1) * (q - 1) // 2, 1),
        "R5": (q**2 * (q**3 + 1) * (q - 1), 1),
        "R6": (q**2 * (q**2 - q + 1), 1),
        "R7": (q**2 * (q**3 + 1) * (q - 1) // 2, 1),
        "R8": (q**2 * (q**3 + 1) * (q - 1) // 2, 1),
        "R12": (q**3 * (q**2 - 1) * (q + 3 * m + 1), 1),
    }
    assert {r.label: (r.length, r.count) for r in ct.rows} == expected
    assert expected["R2"][0] == 56 and expected["R6"][0] == 63 and expected["R12"][0] == 1512
    # the three rows with zero count at q = 3 are gone
    assert not {"R9", "R10", "R11"} & {r.label for r in ct.rows}


def test_ree_q27_counts():
    ct = instantiate(build_table(REE), 1)
    counts = {r.label: r.count for r in ct.rows}
    assert counts == {
        "R1": 1, "R2": 1, "R3": 1, "R4": 1, "R5": 1, "R6": 1, "R7": 1, "R8": 1,
        "R9": 12, "R10": 4, "R11": 3, "R12": 6,
    }


@pytest.mark.parametrize(
    "family, total", [(SUBFIELD, Poly([6, 2, 1])), (REE, Poly([6, 0, 3]))], ids=["subfield", "ree"]
)
def test_suborbit_total_is_the_sum_of_the_count_polynomials(family, total):
    # N is r*r + 2r + 6 in r (subfield) and q + 6 = 3m*m + 6 in m (ree): like
    # every polynomial of a family, it is written in the table variable
    counted = Poly()
    for row in build_table(family).rows:
        counted = counted + row.count
    assert counted == total == family.suborbits


def test_subfield_r3_survivors():
    ct = instantiate(build_table(SUBFIELD), 1)
    assert len(ct.rows) == 20
    assert len(ct.nontrivial_rows) == 19
    assert tuple(length for length, _ in ct.length_groups) == (
        728, 5824, 7371, 26208, 58968, 88452,
        235872, 326592, 471744, 530712, 606528, 707616,
    )


def test_instantiate_rejects_inadmissible_param():
    # instantiate takes a step, so no parameter reaches it: 3 is ree step 3,
    # q = 2187, not q = 3, and a step below the family's first is refused
    assert instantiate(build_table(REE), 3).param == 2187
    with pytest.raises(ValueError, match=r"^ree family requires n >= 0$"):
        instantiate(build_table(REE), -1)
    with pytest.raises(ValueError, match=r"^subfield family requires n >= 1$"):
        instantiate(build_table(SUBFIELD), 0)


def test_instantiate_rejects_fractional_count():
    t = Poly.var()
    rows = (
        SuborbitRow(build_table(REE).rows[0].z, Poly.const(1), Poly.const(1)),
        SuborbitRow(build_table(REE).rows[1].z, Poly.const(2), (t - 4) / 2),
    )
    with pytest.raises(TranscriptionError):
        instantiate(SuborbitTable(REE, rows), 0)


def test_instantiate_rejects_negative_count():
    t = Poly.var()
    rows = (
        SuborbitRow(build_table(REE).rows[0].z, Poly.const(1), Poly.const(1)),
        SuborbitRow(build_table(REE).rows[1].z, Poly.const(2), t - 5),
    )
    with pytest.raises(TranscriptionError) as exc:
        instantiate(SuborbitTable(REE, rows), 0)
    assert str(exc.value) == "count of row 'R2' is -4 at parameter 3"


def _trivial_and_r2(length, count):
    """A ree table of the trivial row and one row labelled R2 with the given length and count."""
    rows = build_table(REE).rows
    return SuborbitTable(REE, (rows[0], SuborbitRow(rows[1].z, length, count)))


# the ree table variable is m = 3 at step 1, q = 27
@pytest.mark.parametrize(
    "length, count, message",
    [
        (Poly.var() - 3, Poly.const(1), "length of row 'R2' is 0 at parameter 27"),
        (Poly.var() - 5, Poly.const(1), "length of row 'R2' is -2 at parameter 27"),
        (Poly.var() / 2, Poly.const(1), "length of row 'R2' at parameter 27: polynomial is not integer-valued at 3: 3/2"),
        (Poly.const(2), Poly.var() / 2, "count of row 'R2' at parameter 27: polynomial is not integer-valued at 3: 3/2"),
        # the count is read first: a negative count hides a fractional length
        (Poly.var() / 2, Poly.var() - 4, "count of row 'R2' is -1 at parameter 27"),
    ],
    ids=["zero-length", "negative-length", "fractional-length", "fractional-count", "count-first"],
)
def test_instantiate_names_each_faulty_row_value(length, count, message):
    with pytest.raises(TranscriptionError) as exc:
        instantiate(_trivial_and_r2(length, count), 1)
    assert str(exc.value) == message


def test_instantiate_never_evaluates_the_length_of_a_zero_count_row():
    # the length is 3/2 at m = 3, where the count is 0: the row is dropped, not rejected
    t = Poly.var()
    ct = instantiate(_trivial_and_r2(t / 2, t - 3), 1)
    assert [row.label for row in ct.rows] == ["R1"]
    with pytest.raises(TranscriptionError, match="length of row 'R2' at parameter 243"):
        instantiate(_trivial_and_r2(t / 2, t - 3), 2)


def test_instantiate_rejects_fractional_count_with_message():
    base = build_table(REE)
    with pytest.raises(TranscriptionError) as exc:
        instantiate(replace_row(base, 10, "count", base.rows[10].count / 2), 1)
    assert str(exc.value) == "count of row 'R11' at parameter 27: polynomial is not integer-valued at 3: 3/2"


@pytest.mark.parametrize(
    "field, name", [("index", "coset index"), ("h_order", "|H|"), ("suborbits", "suborbit count")]
)
def test_instantiate_rejects_fractional_orders(field, name):
    # a family whose index, |H| or N is never an integer, with the real rows
    family = REE._replace(**{field: getattr(REE, field) + Poly.const(Fraction(1, 2))})
    table = SuborbitTable(family, build_table(REE).rows)
    with pytest.raises(TranscriptionError) as exc:
        instantiate(table, 1)
    value = 2 * getattr(REE, field).eval_int(3) + 1
    assert str(exc.value) == f"{name} at parameter 27: polynomial is not integer-valued at 3: {value}/2"


def test_instantiate_requires_unique_trivial_row():
    base = build_table(REE)
    with pytest.raises(TranscriptionError):
        instantiate(SuborbitTable(REE, base.rows[1:]), 0)
    doubled = (base.rows[0],) + base.rows
    with pytest.raises(TranscriptionError):
        instantiate(SuborbitTable(REE, doubled), 0)


def test_instantiate_requires_the_trivial_row_to_count_once():
    base = build_table(REE)
    trivial = base.rows[0]
    rows = (SuborbitRow(trivial.z, trivial.length, Poly.const(2)),) + base.rows[1:]
    with pytest.raises(TranscriptionError) as exc:
        instantiate(SuborbitTable(REE, rows), 0)
    assert str(exc.value) == "expected exactly one trivial suborbit at parameter 3"


def _instantiated(instantiate, table, n):
    """instantiate(table, n), or the text of the TranscriptionError it raises."""
    try:
        return instantiate(table, n)
    except TranscriptionError as exc:
        return str(exc)


#: The steps each family's tables are checked at against the reference.
AGREEMENT_STEPS = {REE: range(0, 5), SUBFIELD: range(1, 6)}


def _agrees_with_the_reference(table, steps, monkeypatch):
    """instantiate gives the reference's table or error text at each step, both with
    the family's own step kept beforehand and with none kept."""
    family = table.family
    for n in steps:
        want = _instantiated(reference_instantiate, table, n)
        monkeypatch.delitem(vars(family), "own_steps", raising=False)
        assert _instantiated(tables.instantiate, table, n) == want, (n, want)
        # kept now, unless the family's own rows fail at n
        assert _instantiated(tables.instantiate, table, n) == want, (n, want)


def test_instantiate_of_every_single_coefficient_mutant_agrees_with_the_reference(monkeypatch):
    rng = random.Random(40)
    outcomes = set()
    for family, steps in AGREEMENT_STEPS.items():
        offsets = lambda: rng.choice((-3, -1, 1, 2, Fraction(1, 2), Fraction(-1, 3)))
        for mutant in single_coefficient_mutants(build_table(family), offsets):
            _agrees_with_the_reference(mutant, steps, monkeypatch)
            outcomes |= {type(_instantiated(reference_instantiate, mutant, n)) for n in steps}
        assert set(family.own_steps) == {steps[-1]}
    # both tables and errors were compared
    assert outcomes == {ConcreteTable, str}


def test_instantiate_of_rows_appended_dropped_permuted_and_copied_agrees_with_the_reference(monkeypatch):
    for family, steps in AGREEMENT_STEPS.items():
        table = build_table(family)
        rows = table.rows
        zero = SuborbitRow(rows[1].z, Poly.const(Fraction(1, 2)), Poly())
        copies = tuple(SuborbitRow(r.z, Poly(r.length.coeffs), Poly(r.count.coeffs)) for r in rows)
        for changed in (
            rows + (zero,),
            rows + (rows[1],),
            rows + (rows[0],),
            rows[:-1],
            rows[1:],
            rows[:1] + rows[2:],
            rows[::-1],
            rows[1:] + rows[:1],
            copies,
            copies[:3] + rows[3:],
            (),
        ):
            _agrees_with_the_reference(_with_rows(table, changed), steps, monkeypatch)
        # and the family's own table, which keeps nothing
        monkeypatch.delitem(vars(family), "own_steps", raising=False)
        for n in steps:
            assert instantiate(table, n) == reference_instantiate(table, n)
        assert "own_steps" not in vars(family)


def test_instantiate_of_a_family_whose_own_rows_fail_keeps_nothing(monkeypatch):
    for family, steps in AGREEMENT_STEPS.items():
        t = Poly.var()
        # the trivial row's count (t - 3) / 2 + 1 is 1 at t = 3 alone, so
        # the family's own rows pass at step 1 only
        broken = replace_row(build_table(family), 0, "count", (t - 3) / 2 + 1).rows
        broken_family = family._replace(rows=broken)
        changed_tables = (
            SuborbitTable(broken_family, family.rows),
            SuborbitTable(broken_family, family.rows[:1] + broken[1:]),
            replace_row(SuborbitTable(broken_family, family.rows), 1, "count", Poly.const(2)),
        )
        for table in (build_table(broken_family), *changed_tables):
            _agrees_with_the_reference(table, steps, monkeypatch)
        for table in changed_tables:
            for n in steps:
                monkeypatch.delitem(vars(broken_family), "own_steps", raising=False)
                instantiate(table, n)
                assert set(broken_family.own_steps) == ({1} if n == 1 else set())


def test_a_kept_step_does_not_take_a_bool_for_its_step(monkeypatch):
    changed = r2_length_plus_one(build_table(REE))
    monkeypatch.delitem(vars(REE), "own_steps", raising=False)
    instantiate(changed, 1)
    # True == 1 and hashes like it, but no step is a bool
    assert 1 in REE.own_steps and True in REE.own_steps
    for table in (changed, build_table(REE)):
        with pytest.raises(ValueError, match=r"^ree family requires n >= 0$"):
            instantiate(table, True)


def test_stabilizer_orders_ree_q27():
    ct = instantiate(build_table(REE), 1)
    stabs = sorted({stabilizer_order(ct, r) for r in ct.nontrivial_rows})
    assert stabs == [19, 26, 27, 28, 37, 54, 1458, 19656, 19683]


def test_stabilizer_orders_ree_large():
    # step n: q = 243, 2187
    expect = {
        2: [217, 242, 243, 244, 271, 486, 118098, 14348664, 14348907],
        3: [2107, 2186, 2187, 2188, 2269, 4374, 9565938, 10460351016, 10460353203],
    }
    table = build_table(REE)
    for n, stabs in expect.items():
        ct = instantiate(table, n)
        assert sorted({stabilizer_order(ct, r) for r in ct.nontrivial_rows}) == stabs


@pytest.mark.parametrize("family", (SUBFIELD, REE), ids=lambda family: family.kind)
def test_a_concrete_table_is_plain_step_data(family):
    # a table names its family by case and carries q, computed once by
    # instantiate, so it holds only ints, strs and its rows
    assert ConcreteTable._fields == ("case", "param", "q", "index", "h_order", "suborbits", "rows")
    for n in range(family.min_n, 13):
        ct = instantiate(build_table(family), n)
        for name, value in zip(ct._fields, ct):
            rows = type(value) is tuple and all(type(row) is ConcreteRow for row in value)
            assert type(value) in (int, str) or rows, (n, name)
        assert ct.case == family.kind and ct.q == family.q_value(ct.param), n


def test_stabilizer_order_of_a_row_and_error():
    ct = instantiate(build_table(SUBFIELD), 1)
    (row,) = [r for r in ct.rows if r.label == "x_{3a+2b}(1)"]
    assert stabilizer_order(ct, row) == 5832
    bad = ConcreteRow("bad", Z_THREE, 5, 1)
    broken = ConcreteTable("subfield", 3, 9, ct.index, ct.h_order, 1, (bad,))
    with pytest.raises(TranscriptionError, match="'bad' does not divide"):
        stabilizer_order(broken, bad)


def test_measure_gives_the_row_by_row_definitions():
    # on every table of the sweeps; test_pipeline adds the table mutants
    for family, steps in ((REE, range(0, 13)), (SUBFIELD, range(1, 13))):
        table = build_table(family)
        for n in steps:
            ct = instantiate(table, n)
            assert measure(ct) == measured_row_by_row(ct)


def test_dump_format():
    ct = instantiate(build_table(REE), 0)
    text = dump(ct)
    lines = text.splitlines()
    assert lines[0] == "param=3\tindex=2808"
    assert lines[1] == "R1\t1\t1"
    assert lines[2] == "R2\t56\t1"
    assert len(lines) == 1 + len(ct.rows)
    assert text.endswith("\n")


def test_build_table_reads_the_family_rows_and_tables_names_no_family():
    # each family's rows are built once, with the family; tables only reads them
    for family in (SUBFIELD, REE):
        table = build_table(family)
        assert table.family is family and table.rows is family.rows
    tree = ast.parse(Path(tables.__file__).read_text())
    literals = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert not literals & {"subfield", "ree"}
    # tables imports nothing from groups, not even for annotations: the family
    # is named in the docstrings only
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and not [node for node in imports if "groups" in ast.unparse(node)]
