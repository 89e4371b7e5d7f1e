import random

import pytest

from dtgcert.fusion import diameter_cutoff, min_fused_classes, smallest_fused_candidates
from dtgcert.gates import INCONCLUSIVE, bcn_small_case_gate, bhk_gate
from dtgcert.groups import REE, SUBFIELD, outer_subgroup_options
from dtgcert.tables import Z_UNKNOWN, ConcreteRow, ConcreteTable, build_table, instantiate


def exhaustive_min_fused_classes(groups: tuple[tuple[int, int], ...], x: int) -> int:
    """Reference oracle for min_fused_classes: minimize parts over all
    partitions of each length group into parts of size <= |X|.

    A dynamic program per length group, guarded to tables with at most 40
    nontrivial suborbits since it exists only to validate min_fused_classes
    on small instances.
    """
    total = sum(mult for _, mult in groups)
    if total > 40:
        raise ValueError(f"exhaustive cross-check limited to 40 suborbits, got {total}")
    result = 0
    for _, mult in groups:
        best = [0] * (mult + 1)
        for t in range(1, mult + 1):
            best[t] = 1 + min(best[t - p] for p in range(1, min(x, t) + 1))
        result += best[mult]
    return result


def test_fusion_constraint_validation():
    ree3 = instantiate(build_table(REE), 0)
    ree27 = instantiate(build_table(REE), 1)
    # |X| = 1 is the trivial outer subgroup and is accepted everywhere
    assert min_fused_classes(ree27.length_groups, 1) == 32
    assert bhk_gate(ree27, 1).witnesses["d0"] == "33/1"
    assert bcn_small_case_gate(ree3, 1).witnesses["x_order"] == 1
    for bad in (0, -2):
        with pytest.raises(ValueError):
            min_fused_classes(ree27.length_groups, bad)
        # the guard runs before any comparison, at q = 3 too, where the
        # chain runs the lookup instead of the cutoff
        for ct in (ree3, ree27):
            with pytest.raises(ValueError, match=r"^x_order must be >= 1$"):
                bhk_gate(ct, bad)
        with pytest.raises(ValueError, match=r"^x_order must be >= 1$"):
            bcn_small_case_gate(ree3, bad)


@pytest.mark.parametrize("bad", [True, False, 1.5, 2.0, "2", 0, -1], ids=repr)
def test_x_order_must_be_a_positive_int(bad):
    # |X| enters the cutoff and the q = 3 lookup through min_fused_classes,
    # which refuses a bool or a non-int as check_step refuses such an n;
    # True would pass for |X| = 1 and 1.5 reach gcd or a float bound
    ree3 = instantiate(build_table(REE), 0)
    ree27 = instantiate(build_table(REE), 1)
    entries = (
        lambda: min_fused_classes(ree27.length_groups, bad),
        lambda: bhk_gate(ree27, bad),
        lambda: bhk_gate(ree3, bad),
        lambda: bcn_small_case_gate(ree3, bad),
    )
    for entry in entries:
        with pytest.raises(ValueError, match=r"^x_order must be >= 1$"):
            entry()


def test_length_groups_ree_q27():
    ct = instantiate(build_table(REE), 1)
    groups = ct.length_groups
    assert sum(mult for _, mult in groups) == 32
    assert [length for length, _ in groups] == sorted(length for length, _ in groups)
    by_length = dict(groups)
    # the two printed-as-one pairs plus the multi-suborbit torus rows
    assert by_length[27 * 19684 * 26 // 2] == 2
    assert by_length[729 * 19684 * 26 // 2] == 2
    assert by_length[19683 * 19684] == 12


def test_min_fused_classes_frozen_q27():
    ct = instantiate(build_table(REE), 1)
    groups = ct.length_groups
    expect = {1: 32, 2: 18, 3: 14, 6: 10}
    for x, classes in expect.items():
        assert min_fused_classes(groups, x) == classes


def test_diameter_cutoff_meets_its_boundary_at_eight_vertices():
    # (8/3) log2(8) is 8 exactly, as 2^24 = 8^8: d = 8 reaches the cutoff
    # and d = 7 does not
    assert diameter_cutoff(8, 8, 1)
    assert not diameter_cutoff(8, 7, 1)
    # only the fraction counts: 16/2 is 8/1 and 14/2 is 7/1
    assert diameter_cutoff(8, 16, 2)
    assert not diameter_cutoff(8, 14, 2)
    # off a power of 2: (8/3) log2(10) is about 8.86, and 2^27 > 10^8 > 2^24
    assert diameter_cutoff(10, 9, 1)
    assert not diameter_cutoff(10, 8, 1)
    assert not diameter_cutoff(10, 17, 2)


def split_cayley_hexagon(q):
    """(v, d, nontrivial groups) of the points of the split Cayley hexagon GH(q, q).

    G2(q) acts distance-transitively on them for every q, with intersection
    array {q(q+1), q^2, q^2; 1, 1, q+1} (Brouwer-Cohen-Neumaier, section
    6.5), so each sphere is one suborbit of a point stabilizer.
    """
    return (q**6 - 1) // (q - 1), 3, ((q * (q + 1), 1), (q**3 * (q + 1), 1), (q**5, 1))


#: Distance-transitive graphs: vertex count v, diameter d and the nontrivial
#: (length, multiplicity) groups of the vertex stabilizer's suborbits.
DISTANCE_TRANSITIVE = {
    "petersen": (10, 2, ((3, 1), (6, 1))),
    "hoffman-singleton": (50, 2, ((7, 1), (42, 1))),
    "split-cayley-hexagon-GH(3,3)": split_cayley_hexagon(3),
    "srg(351,126,45,45)": (351, 2, ((126, 1), (224, 1))),
    "O4": (35, 3, ((4, 1), (12, 1), (18, 1))),
    "H(6,3)": (729, 6, ((12, 1), (60, 1), (64, 1), (160, 1), (192, 1), (240, 1))),
    # three spheres of 24 vertices, each one suborbit of PSL(2,17)'s stabilizer
    "biggs-smith": (102, 7, ((3, 1), (6, 1), (8, 1), (12, 1), (24, 3))),
}


@pytest.mark.parametrize("name", DISTANCE_TRANSITIVE)
def test_fused_class_bound_never_exceeds_a_real_graph_diameter(name):
    # each sphere of a distance-transitive graph is one fused class of the
    # nontrivial suborbits, so the bound is at most d, and exactly d with no
    # fusion; a bound that counts the trivial suborbit reads d + 1 at |X| = 1.
    # Fusion merges only equal lengths, so each distinct length needs its own
    # sphere, and a real graph's d, or any lower bound on it, is below the
    # diameter cutoff
    v, d, groups = DISTANCE_TRANSITIVE[name]
    assert 1 + sum(length * mult for length, mult in groups) == v
    assert min_fused_classes(groups, 1) == d
    assert len(groups) <= d
    assert not diameter_cutoff(v, d, 1)
    for x in range(1, 5):
        assert min_fused_classes(groups, x) <= d
        assert not diameter_cutoff(v, min_fused_classes(groups, x), 1)


@pytest.mark.parametrize(
    "family, steps, f_of_n",
    [(REE, range(0, 41), lambda n: 2 * n + 1), (SUBFIELD, range(1, 41), lambda n: 2 * n)],
    ids=["ree", "subfield"],
)
def test_the_hexagon_family_is_never_excluded(family, steps, f_of_n):
    # G2(q) on its hexagon's points, at each step of the family's own
    # q = 3**f and every |X| dividing |Out G2(q)| = 2f. The control table
    # carries the ree case only because the cutoff gate admits no other
    for n in steps:
        f = f_of_n(n)
        assert family.field_exponent(n) == f
        q = 3**f
        v, d, groups = split_cayley_hexagon(q)
        assert sum(length for length, _ in groups) == v - 1
        lengths = (1,) + tuple(length for length, _ in groups)
        rows = tuple(ConcreteRow(f"P{i}", Z_UNKNOWN, length, 1) for i, length in enumerate(lengths))
        ct = ConcreteTable("ree", q, q, v, q**6 * (q * q - 1) * (q - 1), 4, rows)
        assert ct.length_groups == groups
        x_orders = [x for x in range(1, 2 * f + 1) if 2 * f % x == 0]
        assert x_orders == [option.order for option in outer_subgroup_options(family, n)]
        assert not diameter_cutoff(v, d, 1)
        for x in x_orders:
            assert min_fused_classes(groups, x) == d
            verdict = bhk_gate(ct, x)
            assert verdict.outcome == INCONCLUSIVE, (n, x)
            assert verdict.witnesses["d0"] == f"4/{x}"
            assert verdict.witnesses["refined_excludes"] == "false"


def test_exhaustive_cross_check_random():
    rng = random.Random(99)
    for _ in range(200):
        k = rng.randrange(1, 7)
        groups = []
        total = 0
        length = 10
        for _ in range(k):
            mult = rng.randrange(1, 12)
            if total + mult > 40:
                break
            total += mult
            groups.append((length, mult))
            length += 10
        groups = tuple(groups)
        x = rng.randrange(1, 13)
        assert min_fused_classes(groups, x) == exhaustive_min_fused_classes(groups, x)


def test_exhaustive_guard():
    groups = ((10, 41),)
    with pytest.raises(ValueError):
        exhaustive_min_fused_classes(groups, 2)


SUBFIELD_CANDIDATES = ("x_{2a+b}(1)", "x_{3a+2b}(1)", "x_{2a+b}(1)x_{3a+2b}(1)")


@pytest.mark.parametrize(
    "family, n, labels",
    [pytest.param(REE, n, ("R2", "R6"), id=f"ree-{REE.param_for_n(n)}") for n in range(4)]
    + [pytest.param(SUBFIELD, n, SUBFIELD_CANDIDATES, id=f"subfield-{SUBFIELD.param_for_n(n)}") for n in range(1, 5)],
)
def test_smallest_fused_candidates_are_table_rows(family, n, labels):
    ct = instantiate(build_table(family), n)
    rows = smallest_fused_candidates(ct)
    # the table's own rows, not copies or labels
    assert all(any(row is r for r in ct.rows) for row in rows)
    assert list(rows) == sorted(rows, key=lambda r: (r.length, r.label))
    assert tuple(row.label for row in rows) == labels
    # exactly the two smallest nontrivial lengths
    two_smallest = [length for length, _ in ct.length_groups[:2]]
    assert sorted({row.length for row in rows}) == two_smallest
    if family is REE:
        q = ct.param
        assert [row.length for row in rows] == [(q**3 + 1) * (q - 1), q**2 * (q**2 - q + 1)]
