"""Suborbit tables as exact polynomial data, and the checks on them.

A table lists, per class of suborbits, the suborbit length and the number
of suborbits in the class, both as polynomials in the family's table
variable. Rows whose defining class element z has a known order carry that
order as a tag; it feeds the commuting-involution gate.

Each family's rows are transcribed in groups, beside its |H| and coset
index, and built once at import. This module holds the row and table types,
the builder that makes every record type of the package, instantiation at
a step n and the exactness checks; it names no family.

Rows that the source table prints as one cell split across two equal halves
are stored as two distinct rows with a #1/#2 suffix: fusion logic must see
them as distinct suborbits of equal length.
"""
import sys
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


#: What every record's __new__ ends in; instantiate and GateVerdict.__new__ call it directly.
_tuple_new = tuple.__new__

try:
    from _collections import _tuplegetter
except ImportError:  # as collections does without its C helper
    from operator import itemgetter

    def _tuplegetter(index, doc):
        return property(itemgetter(index), doc=doc)


#: What namedtuple's _replace raises for an unknown field: TypeError from Python 3.13 on.
_REPLACE_ERROR = TypeError if sys.version_info >= (3, 13) else ValueError


def _record_new(cls, *args, **kwargs):
    """The __new__ of every record: the fields by position or keyword, trailing defaults,
    and the TypeErrors, word for word, of the __new__ that namedtuple compiles."""
    fields = cls._fields
    if len(args) == len(fields) and not kwargs:
        return _tuple_new(cls, args)
    call = f"{cls.__name__}.__new__()"
    for name in kwargs:
        if name not in fields:
            raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
        if fields.index(name) < len(args):
            raise TypeError(f"{call} got multiple values for argument {name!r}")
    defaults = cls._field_defaults
    if len(args) > len(fields):
        takes = f"from {len(fields) - len(defaults) + 1} to " if defaults else ""
        raise TypeError(f"{call} takes {takes}{len(fields) + 1} positional arguments but {len(args) + 1} were given")
    values, missing = list(args), []
    for name in fields[len(args) :]:
        if name in kwargs:
            values.append(kwargs[name])
        elif name in defaults:
            values.append(defaults[name])
        else:
            missing.append(repr(name))
    if missing:
        *head, last = missing
        listed = f"{', '.join(head)}{',' * (len(head) > 1)} and {last}" if head else last
        plural = "s" * (len(missing) > 1)
        raise TypeError(f"{call} missing {len(missing)} required positional argument{plural}: {listed}")
    return _tuple_new(cls, values)


@classmethod
def _record_make(cls, iterable):
    result = _tuple_new(cls, iterable)
    if len(result) != len(cls._fields):
        raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(result)}")
    return result


def _record_replace(self, /, **kwargs):
    result = self._make(map(kwargs.pop, self._fields, self))
    if kwargs:
        raise _REPLACE_ERROR(f"Got unexpected field names: {list(kwargs)!r}")
    return result


def _record_asdict(self):
    return dict(zip(self._fields, self))


def _record_getnewargs(self):
    return tuple(self)


def _record_repr(self):
    return f"{self.__class__.__name__}({', '.join(map('{}={!r}'.format, self._fields, self))})"


def _record(typename: str, field_names: str, defaults: tuple = ()) -> type:
    """The tuple type collections.namedtuple(typename, field_names, defaults=defaults)
    makes, from code shared by every record instead of a __new__ compiled per type."""
    fields = tuple(field_names.split())
    namespace = {
        "__doc__": f"{typename}({', '.join(fields)})",
        "__slots__": (),
        "__module__": sys._getframe(1).f_globals["__name__"],
        "_fields": fields,
        "_field_defaults": dict(zip(fields[len(fields) - len(defaults) :], defaults)),
        "__match_args__": fields,
        "__new__": _record_new,
        "_make": _record_make,
        "_replace": _record_replace,
        "__replace__": _record_replace,
        "__repr__": _record_repr,
        "_asdict": _record_asdict,
        "__getnewargs__": _record_getnewargs,
    }
    for index, name in enumerate(fields):
        namespace[name] = _tuplegetter(index, f"Alias for field number {index}")
    return type(typename, (tuple,), namespace)


SuborbitRow = _record("SuborbitRow", "z length count")
SuborbitRow.__doc__ = """One row of a parametrized table: z, the pair (class label, order tag of z),
and the length and count Polys."""

SuborbitTable = _record("SuborbitTable", "family rows")
SuborbitTable.__doc__ = """A family's parametrized table: the groups.CaseFamily and its SuborbitRows."""

ConcreteRow = _record("ConcreteRow", "label z_order length count")
ConcreteRow.__doc__ = """One row of a concrete table: label and z_order strs, length and count ints."""


class ConcreteTable(_record("ConcreteTable", "family param index h_order rows")):
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
