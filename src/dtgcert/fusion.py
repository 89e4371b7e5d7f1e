"""Fusion of suborbits by outer automorphisms, and the bounds it yields.

An outer subgroup X can merge suborbits into orbits of the extended group,
but only suborbits of equal length, and never more than |X| of them into one
orbit. Grouping suborbits by length therefore lower-bounds the number of
fused orbits, which in turn lower-bounds the diameter of any candidate graph.
"""
from __future__ import annotations

from dataclasses import dataclass

from .tables import ConcreteTable, LengthGroup, distinct_nontrivial_lengths


@dataclass(frozen=True)
class FusionConstraint:
    """The only fusion datum any argument needs: |X|."""

    x_order: int

    def __post_init__(self) -> None:
        if self.x_order < 1:
            raise ValueError("x_order must be >= 1")


def length_groups(ct: ConcreteTable) -> tuple[LengthGroup, ...]:
    """Nontrivial suborbits grouped by exact length, sorted by length.

    The grouping is computed once per table and shared by every X.
    """
    return ct.length_groups


def min_fused_classes(groups: tuple[LengthGroup, ...], c: FusionConstraint) -> int:
    """Lower bound on the number of nontrivial fused orbits under |X|-fusion.

    Each length group of multiplicity k splits into at least ceil(k / |X|)
    orbits because an orbit absorbs at most |X| equal-length suborbits.
    """
    x = c.x_order
    return sum(-(-g.multiplicity // x) for g in groups)


def excludes_diameter_two(ct: ConcreteTable) -> bool:
    """True when >= 3 distinct nontrivial lengths force diameter >= 3.

    Fusion only merges equal lengths, so three distinct nontrivial lengths
    survive as at least three distinct fused orbits.
    """
    return len(distinct_nontrivial_lengths(ct)) >= 3


def smallest_fused_candidates(ct: ConcreteTable) -> tuple[str, ...]:
    """Labels of all rows whose length is among the two smallest nontrivial lengths.

    Fusion never shrinks an orbit, so any fused orbit that is among the two
    smallest must be assembled from these rows; the set over-approximates the
    first sphere of any candidate graph (and the last one in the swapped case).
    """
    lengths = distinct_nontrivial_lengths(ct)[:2]
    chosen = [r for r in ct.nontrivial_rows if r.length in lengths]
    chosen.sort(key=lambda r: (r.length, r.label))
    return tuple(r.label for r in chosen)
