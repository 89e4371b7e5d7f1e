import random

import pytest

from dtgcert.fusion import (
    FusionConstraint,
    LengthGroup,
    excludes_diameter_two,
    length_groups,
    min_fused_classes,
    smallest_fused_candidates,
)
from dtgcert.groups import REE, SUBFIELD
from dtgcert.tables import ConcreteRow, ConcreteTable, Z_UNKNOWN, build_table, instantiate


def exhaustive_min_fused_classes(groups: tuple[LengthGroup, ...], c: FusionConstraint) -> int:
    """Reference oracle for min_fused_classes: minimize parts over all
    partitions of each length group into parts of size <= |X|.

    A dynamic program per length group, guarded to tables with at most 40
    nontrivial suborbits since it exists only to validate min_fused_classes
    on small instances.
    """
    total = sum(g.multiplicity for g in groups)
    if total > 40:
        raise ValueError(f"exhaustive cross-check limited to 40 suborbits, got {total}")
    x = c.x_order
    result = 0
    for g in groups:
        best = [0] * (g.multiplicity + 1)
        for t in range(1, g.multiplicity + 1):
            best[t] = 1 + min(best[t - p] for p in range(1, min(x, t) + 1))
        result += best[g.multiplicity]
    return result


def test_fusion_constraint_validation():
    assert FusionConstraint(1).x_order == 1
    with pytest.raises(ValueError):
        FusionConstraint(0)


def test_length_groups_ree_q27():
    ct = instantiate(build_table(REE), 27)
    groups = length_groups(ct)
    assert sum(g.multiplicity for g in groups) == 32
    assert [g.length for g in groups] == sorted(g.length for g in groups)
    by_length = {g.length: g.multiplicity for g in groups}
    # the two printed-as-one pairs plus the multi-suborbit torus rows
    assert by_length[27 * 19684 * 26 // 2] == 2
    assert by_length[729 * 19684 * 26 // 2] == 2
    assert by_length[19683 * 19684] == 12


def test_min_fused_classes_frozen_q27():
    ct = instantiate(build_table(REE), 27)
    groups = length_groups(ct)
    expect = {1: 32, 2: 18, 3: 14, 6: 10}
    for x, classes in expect.items():
        assert min_fused_classes(groups, FusionConstraint(x)) == classes


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
            groups.append(LengthGroup(length, mult))
            length += 10
        groups = tuple(groups)
        x = FusionConstraint(rng.randrange(1, 13))
        assert min_fused_classes(groups, x) == exhaustive_min_fused_classes(groups, x)


def test_exhaustive_guard():
    groups = (LengthGroup(10, 41),)
    with pytest.raises(ValueError):
        exhaustive_min_fused_classes(groups, FusionConstraint(2))


def test_excludes_diameter_two():
    for fam, param in ((REE, 3), (REE, 27), (SUBFIELD, 3), (SUBFIELD, 9)):
        assert excludes_diameter_two(instantiate(build_table(fam), param))
    flat = ConcreteTable(
        REE, 3, 2808, 1512,
        (
            ConcreteRow("R1", "one", 1, 1),
            ConcreteRow("A", Z_UNKNOWN, 7, 2),
            ConcreteRow("B", Z_UNKNOWN, 11, 1),
        ),
    )
    assert not excludes_diameter_two(flat)


def test_smallest_fused_candidates_subfield():
    for r in (3, 9, 27):
        ct = instantiate(build_table(SUBFIELD), r)
        labels = smallest_fused_candidates(ct)
        assert set(labels) == {"x_{3a+2b}(1)", "x_{2a+b}(1)", "x_{2a+b}(1)x_{3a+2b}(1)"}
        assert len(labels) == 3
        # ordering: by (length, label), the two equal-length rows first
        assert labels[2] == "x_{2a+b}(1)x_{3a+2b}(1)"


def test_smallest_fused_candidates_ree():
    for q in (3, 27, 243):
        ct = instantiate(build_table(REE), q)
        labels = smallest_fused_candidates(ct)
        assert labels == ("R2", "R6")
        assert ct.row("R2").length == (q**3 + 1) * (q - 1)
        assert ct.row("R6").length == q**2 * (q**2 - q + 1)
