import ast
from fractions import Fraction
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
from helpers import measured_row_by_row, replace_row


def test_row_counts():
    assert len(build_table(SUBFIELD).rows) == 26
    assert len(build_table(REE).rows) == 12


def test_symbolic_mass_detects_mutation():
    table = build_table(REE)
    bumped = Poly(tuple(table.rows[5].length.coeffs) + (1,))
    assert not verify_mass_symbolic(replace_row(table, 5, "length", bumped))


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
    "family, total, param_of",
    [(SUBFIELD, Poly([6, 2, 1]), lambda r: r), (REE, Poly([6, 0, 3]), lambda m: 3 * m * m)],
    ids=["subfield", "ree"],
)
def test_suborbit_total_is_the_sum_of_the_count_polynomials(family, total, param_of):
    # r*r + 2r + 6 in r (subfield) and 3m*m + 6 in m (ree), at every parameter
    counted = Poly()
    for row in build_table(family).rows:
        counted = counted + row.count
    assert counted == total
    # suborbit_total(param) is of degree <= 2 in the table variable, as is
    # the sum, so agreeing at three points makes them the same polynomial
    for t in (1, 2, 3):
        assert family.suborbit_total(param_of(t)) == total.eval_int(t)


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


@pytest.mark.parametrize("field, name", [("index", "coset index"), ("h_order", "|H|")])
def test_instantiate_rejects_fractional_orders(field, name):
    # a family whose index or |H| is never an integer, with the real rows
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


def test_stabilizer_order_of_a_row_and_error():
    ct = instantiate(build_table(SUBFIELD), 1)
    (row,) = [r for r in ct.rows if r.label == "x_{3a+2b}(1)"]
    assert stabilizer_order(ct, row) == 5832
    bad = ConcreteRow("bad", Z_THREE, 5, 1)
    broken = ConcreteTable(SUBFIELD, 3, ct.index, ct.h_order, (bad,))
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
    type_checking = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and isinstance(block.test, ast.Name) and block.test.id == "TYPE_CHECKING"
        for node in ast.walk(block)
    }
    groups_imports = [
        node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) and "groups" in ast.unparse(node)
    ]
    assert groups_imports and all(id(node) in type_checking for node in groups_imports)
