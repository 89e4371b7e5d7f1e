"""Suborbit tables as exact polynomial data, and the checks on them.

A table lists, per class of suborbits, the suborbit length and the number
of suborbits in the class, both as polynomials in the family's table
variable. Rows whose defining class element z has a known order carry that
order as a tag; it feeds the commuting-involution gate.

Each family's rows are transcribed in groups, beside its |H| and coset
index, and built once at import. This module holds the row and table types,
instantiation at a step n and the exactness checks; it names no family.

Rows that the source table prints as one cell split across two equal halves
are stored as two distinct rows with a #1/#2 suffix: fusion logic must see
them as distinct suborbits of equal length.
"""
from collections import namedtuple
from functools import cached_property

from .exact import Poly

Z_ONE = "one"
Z_TWO = "two"
Z_THREE = "three"
Z_UNKNOWN = "unknown"
Z_GAMMA = "torus:gamma"
Z_ETA = "torus:eta"
Z_THETA = "torus:theta"
Z_SIGMA = "torus:sigma"
Z_TAU = "torus:tau"


class TranscriptionError(ValueError):
    """A table failed an exactness check that only a transcription bug causes."""


SuborbitRow = namedtuple("SuborbitRow", "z length count")
SuborbitRow.__doc__ = """One row of a parametrized table: z, the pair (class label, order tag of z),
and the length and count Polys."""

SuborbitTable = namedtuple("SuborbitTable", "family rows")
SuborbitTable.__doc__ = """A family's parametrized table: the groups.CaseFamily and its SuborbitRows."""

ConcreteRow = namedtuple("ConcreteRow", "label z_order length count")
ConcreteRow.__doc__ = """One row of a concrete table: label and z_order strs, length and count ints."""

_tuple_new = tuple.__new__


class ConcreteTable(namedtuple("ConcreteTable", "family param index h_order rows")):
    """A table instantiated at one parameter, zero-count rows dropped.

    family is the groups.CaseFamily, param, index and h_order (|H|) are
    ints, and rows the ConcreteRows. The nontrivial rows and their grouping
    by length are computed on first use and kept with the table, so every
    gate and every X share them. The class declares no __slots__: the
    cached values live in its __dict__.
    """

    @cached_property
    def nontrivial_rows(self) -> tuple[ConcreteRow, ...]:
        return tuple(r for r in self.rows if r.length > 1)

    @cached_property
    def length_groups(self) -> tuple[tuple[int, int], ...]:
        """Nontrivial suborbits as (length, multiplicity) pairs, sorted by length."""
        groups: dict[int, int] = {}
        for row in self.nontrivial_rows:
            groups[row.length] = groups.get(row.length, 0) + row.count
        return tuple(sorted(groups.items()))


def build_table(family) -> SuborbitTable:
    """The full parametrized suborbit table for a groups.CaseFamily: the rows it was built with."""
    return SuborbitTable(family, family.rows)


def instantiate(table: SuborbitTable, n: int) -> ConcreteTable:
    """Evaluate every row at step n, whose parameter param_for_n gives, dropping zero counts.

    Counts must evaluate to nonnegative integers, lengths of surviving rows
    to positive integers, and the coset index and |H| to integers; anything
    else raises TranscriptionError. A row's length is evaluated only once
    its count is positive, so a zero-count row's length is never evaluated.
    """
    family = table.family
    param = family.param_for_n(n)
    var = family.table_variable(n)
    rows = []
    trivial_counts = []
    for (label, z_order), length_poly, count_poly in table.rows:
        try:
            count = count_poly.eval_int(var)
        except ValueError as exc:
            raise TranscriptionError(f"count of row {label!r} at parameter {param}: {exc}") from exc
        if count <= 0:
            if count:
                raise TranscriptionError(f"count of row {label!r} is {count} at parameter {param}")
            continue
        try:
            length = length_poly.eval_int(var)
        except ValueError as exc:
            raise TranscriptionError(f"length of row {label!r} at parameter {param}: {exc}") from exc
        if length <= 1:
            if length < 1:
                raise TranscriptionError(f"length of row {label!r} is {length} at parameter {param}")
            trivial_counts.append(count)
        # what ConcreteRow(label, z_order, length, count) does, without its frame
        rows.append(_tuple_new(ConcreteRow, (label, z_order, length, count)))
    if trivial_counts != [1]:
        raise TranscriptionError(f"expected exactly one trivial suborbit at parameter {param}")
    try:
        index = family.index.eval_int(var)
    except ValueError as exc:
        raise TranscriptionError(f"coset index at parameter {param}: {exc}") from exc
    try:
        h_order = family.h_order.eval_int(var)
    except ValueError as exc:
        raise TranscriptionError(f"|H| at parameter {param}: {exc}") from exc
    return ConcreteTable(family, param, index, h_order, tuple(rows))


def verify_mass_symbolic(table: SuborbitTable) -> bool:
    """Check the mass identity at the polynomial level, coefficient by coefficient.

    The products length * count of all rows are summed in one integer
    accumulator over their common denominator and compared once with the
    coset index polynomial.
    """
    total = Poly.sum_of_products((row.length, row.count) for row in table.rows)
    return total == table.family.index


def stabilizer_order(ct: ConcreteTable, row: ConcreteRow) -> int:
    """Point-stabilizer order |H| / length of a row of ct; the division must be exact."""
    if ct.h_order % row.length != 0:
        raise TranscriptionError(f"length of row {row.label!r} does not divide |H| at parameter {ct.param}")
    return ct.h_order // row.length


def measure(ct: ConcreteTable) -> tuple[int, int, bool]:
    """The mass total, the suborbit total and whether every length divides |H|, in one pass."""
    h_order = ct.h_order
    mass_total = suborbit_total = 0
    lengths_divide = True
    for _, _, length, count in ct.rows:
        mass_total += length * count
        suborbit_total += count
        if h_order % length:
            lengths_divide = False
    return mass_total, suborbit_total, lengths_divide


def dump(ct: ConcreteTable) -> str:
    """Tab-separated dump: header with parameter and index, one row per line."""
    lines = [f"param={ct.param}\tindex={ct.index}"]
    for r in ct.rows:
        lines.append(f"{r.label}\t{r.length}\t{r.count}")
    return "\n".join(lines) + "\n"
