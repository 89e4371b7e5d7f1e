"""Fusion of suborbits by outer automorphisms, and the bounds it yields.

An outer subgroup X can merge suborbits into orbits of the extended group,
but only suborbits of equal length, and never more than |X| of them into one
orbit. Grouping suborbits by length therefore lower-bounds the number of
fused orbits, which in turn lower-bounds the diameter of any candidate graph,
and diameter_cutoff decides whether such a diameter bound already exceeds
what a distance-regular graph on v vertices allows. X enters only through its
order |X|, passed as a plain int. The bounds read plain ints (length groups,
v, a diameter bound as a fraction); candidates are read from a table's rows
and returned as rows.
"""
from .exact import exp_compare
from .tables import ConcreteRow, ConcreteTable


def min_fused_classes(groups: tuple[tuple[int, int], ...], x_order: int) -> int:
    """Lower bound on the number of nontrivial fused orbits under |X|-fusion.

    groups holds (length, multiplicity) pairs, as in ConcreteTable.length_groups.
    Each length group of multiplicity k splits into at least ceil(k / |X|)
    orbits because an orbit absorbs at most |X| equal-length suborbits.
    An x_order that is not an int >= 1 (a bool, a float) raises ValueError.
    """
    if type(x_order) is not int or x_order < 1:
        raise ValueError("x_order must be >= 1")
    total = 0
    for _, mult in groups:
        total -= -mult // x_order
    return total


def diameter_cutoff(vertices: int, d_num: int, d_den: int) -> bool:
    """Whether a diameter d >= d_num/d_den rules out a graph on v vertices.

    Bang, Hiraki and Koolen ("Improving diameter bounds for distance-regular
    graphs", European J. Combin. 27, 2006) show d < (8/3) log2(v) for a
    distance-regular graph of valency at least 3 on v vertices. So a lower
    bound d_num/d_den on d excludes every such graph exactly when
    d_num/d_den >= (8/3) log2(v), that is when 2**(3*d_num) >= v**(8*d_den),
    decided here by exact integer comparison. The arguments are ints, v and
    d_den at least 1 and d_num at least 0. The valency hypothesis is not
    checked here: it is a fact about the graphs the caller's bound is about.
    """
    return exp_compare(2, 3 * d_num, vertices, 8 * d_den) >= 0


def smallest_fused_candidates(ct: ConcreteTable) -> tuple[ConcreteRow, ...]:
    """The table's rows whose length is among the two smallest nontrivial
    lengths, sorted by (length, label).

    Fusion never shrinks an orbit, so any fused orbit that is among the two
    smallest must be assembled from these rows; the set over-approximates the
    first sphere of any candidate graph (and the last one in the swapped case).
    """
    lengths = [length for length, _ in ct.length_groups[:2]]
    chosen = [r for r in ct.nontrivial_rows if r.length in lengths]
    return tuple(sorted(chosen, key=lambda r: (r.length, r.label)))
