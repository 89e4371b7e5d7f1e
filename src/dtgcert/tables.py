"""Suborbit tables as exact polynomial data, and the checks on them.

A table lists, per class of suborbits, the suborbit length and the number
of suborbits in the class, both as polynomials in the family's table
variable. Rows whose defining class element z has a known order carry that
order as a tag; it feeds the commuting-involution gate.

Each family's rows are transcribed in groups, beside its |H| and coset
index, and built once at import. This module holds the row and table types,
Record, the base class of every record type of the package, instantiation
at a step n and the exactness checks; it names no family. The symbolic mass
check reads the family's own mass (the sum of its rows' products, computed
on first use) and multiplies out only the rows a table changed.

Rows that the source table prints as one cell split across two equal halves
are stored as two distinct rows with a #1/#2 suffix: fusion logic must see
them as distinct suborbits of equal length.
"""
from functools import cached_property
from itertools import zip_longest

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


#: What every record's __new__ ends in; instantiate and GateVerdict.__new__ call it directly.
_tuple_new = tuple.__new__

try:
    from _collections import _tuplegetter
except ImportError:  # as collections does without its C helper
    from operator import itemgetter

    def _tuplegetter(index, doc):
        return property(itemgetter(index), doc=doc)


class Record(tuple):
    """A tuple with named, read-only fields: the base of every record type of the package.

    A record type names its fields in its class line, with defaults for the
    last few: class Option(Record, fields="kind help default", defaults=(None,)).
    A record is built from its fields by position or keyword; a missing,
    extra, unknown or repeated field raises TypeError. Equality and hash are
    the plain tuple's. A record type declares __slots__ = () unless it keeps
    cached values in a __dict__. Pickle and copy rebuild a record from its
    fields through its type's own __new__, so they keep none of those values.
    """

    __slots__ = ()

    def __init_subclass__(cls, fields: str, defaults: tuple = ()):
        super().__init_subclass__()
        cls._fields = tuple(fields.split())
        cls._defaults = dict(zip(cls._fields[len(cls._fields) - len(defaults) :], defaults))
        for index, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(index, f"Alias for field number {index}"))

    def __new__(cls, *args, **kwargs):
        fields = cls._fields
        if len(args) == len(fields) and not kwargs:
            return _tuple_new(cls, args)
        # a keyword must name a field that no positional argument filled
        if len(args) > len(fields) or not set(kwargs) <= set(fields[len(args) :]):
            got = f"{len(args)} by position and {', '.join(kwargs) or 'none'} by keyword"
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(fields)} once each, got {got}")
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        missing = [field for field in fields if field not in values]
        if missing:
            raise TypeError(f"{cls.__name__} is missing the field(s) {', '.join(missing)}")
        return _tuple_new(cls, map(values.__getitem__, fields))

    def _replace(self, /, **changes):
        """A copy with the named fields changed, built by the record type's own __new__."""
        values = [changes.pop(name, value) for name, value in zip(self._fields, self)]
        return type(self)(*values, **changes)

    def __reduce__(self):
        # every protocol and copy rebuild a record through its type's own
        # __new__; values cached in a __dict__ are rebuilt on use
        return type(self), tuple(self)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, self))})"


class SuborbitRow(Record, fields="z length count"):
    """One row of a parametrized table: z, the pair (class label, order tag of z),
    and the length and count Polys."""

    __slots__ = ()


class SuborbitTable(Record, fields="family rows"):
    """A family's parametrized table: the groups.CaseFamily and its SuborbitRows."""

    __slots__ = ()


class ConcreteRow(Record, fields="label z_order length count"):
    """One row of a concrete table: label and z_order strs, length and count ints."""

    __slots__ = ()


class ConcreteTable(Record, fields="family param index h_order suborbits rows"):
    """A table instantiated at one parameter, zero-count rows dropped.

    family is the groups.CaseFamily; param, index (v), h_order (|H|) and
    suborbits (N, the trivial suborbit included) are ints at the table's
    step, and rows the ConcreteRows. The nontrivial rows and their grouping
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
    to positive integers, and the coset index, |H| and the suborbit count N
    to integers; anything else raises TranscriptionError. A row's length is
    evaluated only once its count is positive, so a zero-count row's length
    is never evaluated.
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
    values = []
    for name, poly in (("coset index", family.index), ("|H|", family.h_order), ("suborbit count", family.suborbits)):
        try:
            values.append(poly.eval_int(var))
        except ValueError as exc:
            raise TranscriptionError(f"{name} at parameter {param}: {exc}") from exc
    return ConcreteTable(family, param, *values, tuple(rows))


#: The unit polynomial, the second factor of a lone sum in a sum of products.
ONE = Poly.const(1)


def verify_mass_symbolic(table: SuborbitTable) -> bool:
    """Check the mass identity at the polynomial level, coefficient by coefficient.

    The identity is that the products length * count of the table's rows sum
    to the coset index polynomial. The family keeps the sum over its own
    rows (CaseFamily.own_mass), so only the rows of the table that are not
    the family's own row at the same position, by identity, are multiplied
    out: the check is own_mass + the table's changed products == index +
    the family's replaced products, each side summed in one integer
    accumulator over its common denominator. That is exact for any table:
    a row that is equal but not identical counts as changed, and appended
    or dropped rows fall on one side only.
    """
    family = table.family
    new, old = [], []
    for row, own in zip_longest(table.rows, family.rows):
        if row is not own:
            if row is not None:
                new.append((row.length, row.count))
            if own is not None:
                old.append((own.length, own.count))
    return Poly.sum_of_products([(family.own_mass, ONE), *new]) == Poly.sum_of_products([(family.index, ONE), *old])


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
