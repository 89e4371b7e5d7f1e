"""Suborbit tables for the two coset actions, as exact polynomial data.

Each table lists, per class of suborbits, the suborbit length and the number
of suborbits in the class, both as polynomials in the family's table
variable. Rows whose defining class element z has a known order carry that
order as a tag; it feeds the commuting-involution gate.

Rows that the source table prints as one cell split across two equal halves
are stored as two distinct rows with a #1/#2 suffix: fusion logic must see
them as distinct suborbits of equal length.
"""
from functools import cached_property
from typing import NamedTuple

from .exact import Poly
from .groups import CaseFamily

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


class ZClassDescriptor(NamedTuple):
    """Opaque class label plus the known order tag of the class element."""

    label: str
    z_order: str


class SuborbitRow(NamedTuple):
    z: ZClassDescriptor
    length: Poly
    count: Poly


class SuborbitTable(NamedTuple):
    family: CaseFamily
    rows: tuple[SuborbitRow, ...]


class ConcreteRow(NamedTuple):
    label: str
    z_order: str
    length: int
    count: int


class _ConcreteTableFields(NamedTuple):
    family: CaseFamily
    param: int
    index: int
    h_order: int
    rows: tuple[ConcreteRow, ...]


class ConcreteTable(_ConcreteTableFields):
    """A table instantiated at one parameter, zero-count rows dropped.

    The nontrivial rows and their grouping by length are computed on first
    use and kept with the table, so every gate and every X share them. The
    class declares no __slots__: the cached values live in its __dict__.
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


def _row(label: str, z_order: str, length: Poly, count: Poly) -> SuborbitRow:
    return SuborbitRow(ZClassDescriptor(label, z_order), length, count)


def _subfield_rows() -> tuple[SuborbitRow, ...]:
    # Each factor that recurs across rows is built once and named.
    r = Poly.var()
    one = Poly.const(1)
    r2 = r**2
    r3 = r2 * r
    r4 = r2 * r2
    r5 = r4 * r
    r6 = r3 * r3
    r6_1 = r6 - 1
    r2_1 = r2 - 1
    r3_minus = r3 - 1
    r3_plus = r3 + 1
    unipotent = r6_1 * r2_1
    unipotent_pair = r2 * unipotent / 2
    regular = r4 * unipotent
    mixed_pair = regular / 2
    h_root = r4 * r6_1
    gamma_a = r5 * r3_minus * (r2 - r + 1)
    gamma_b = r5 * r6_1 * (r - 1)
    gamma_count = (r - 3) / 2
    eta_a = r5 * r3_plus * (r2 + r + 1)
    eta_b = r5 * r6_1 * (r + 1)
    eta_count = (r - 1) / 2
    theta = r6 * r6_1
    theta_count = (r - 1) ** 2 / 4
    return (
        _row("1", Z_ONE, one, one),
        _row("x_{3a+2b}(1)", Z_THREE, r6_1, one),
        _row("x_{2a+b}(1)", Z_THREE, r6_1, one),
        _row("x_{2a+b}(1)x_{3a+2b}(1)", Z_THREE, unipotent, one),
        _row("x_{a+b}(1)x_{3a+b}(1)#1", Z_THREE, unipotent_pair, one),
        _row("x_{a+b}(1)x_{3a+b}(1)#2", Z_THREE, unipotent_pair, one),
        _row("x_a(1)x_b(1)", Z_THREE, regular, one),
        _row("h(-1,-1,1)", Z_TWO, r4 * (r4 + r2 + 1), one),
        _row("h(-1,-1,1)x_b(1)", Z_UNKNOWN, h_root, one),
        _row("h(-1,-1,1)x_{2a+b}(1)", Z_UNKNOWN, h_root, one),
        _row("h(-1,-1,1)x_b(1)x_{2a+b}(1)#1", Z_UNKNOWN, mixed_pair, one),
        _row("h(-1,-1,1)x_b(1)x_{2a+b}(1)#2", Z_UNKNOWN, mixed_pair, one),
        _row("h_gamma(i,-2i,i)", Z_GAMMA, gamma_a, gamma_count),
        _row("h_gamma(i,-2i,i)x_{3a+2b}(1)", Z_GAMMA, gamma_b, gamma_count),
        _row("h_gamma(i,-i,0)", Z_GAMMA, gamma_a, gamma_count),
        _row("h_gamma(i,-i,0)x_{2a+b}(1)", Z_GAMMA, gamma_b, gamma_count),
        _row("h_gamma(i,j,-i-j)", Z_GAMMA, r6 * r3_minus * (r2 - r + 1) * (r - 1), (r2 - 8 * r + 15) / 12),
        _row("h_eta(i,-2i,i)", Z_ETA, eta_a, eta_count),
        _row("h_eta(i,-2i,i)x_{3a+2b}(1)", Z_ETA, eta_b, eta_count),
        _row("h_eta(i,-i,0)", Z_ETA, eta_a, eta_count),
        _row("h_eta(i,-i,0)x_{2a+b}(1)", Z_ETA, eta_b, eta_count),
        _row("h_eta(i,j,-i-j)", Z_ETA, r6 * r3_plus * (r2 + r + 1) * (r + 1), (r2 - 4 * r + 3) / 12),
        _row("h_theta(i,(r-1)i,-ri)", Z_THETA, theta, theta_count),
        _row("h_theta(i,ri,-(r+1)i)", Z_THETA, theta, theta_count),
        _row("h_tau(i,ri,r^2i)", Z_TAU, r6 * r3_minus * r2_1 * (r + 1), r * (r + 1) / 6),
        _row("h_sigma(i,-ri,r^2i)", Z_SIGMA, r6 * r3_plus * r2_1 * (r - 1), r * (r - 1) / 6),
    )


def _ree_rows() -> tuple[SuborbitRow, ...]:
    # Each factor that recurs across rows is built once and named.
    m = Poly.var()
    q = 3 * m**2
    one = Poly.const(1)
    q2 = q * q
    q3 = q2 * q
    q3_1 = q3 + 1
    q_1 = q - 1
    q2_q_1 = q2 - q + 1
    q2_1 = q2 - 1
    three_m = 3 * m
    r2_length = q3_1 * q_1
    r3_pair = q * r2_length / 2
    r5_length = q2 * r2_length
    r7_pair = r5_length / 2
    split = q3 * q2_1
    return (
        _row("R1", Z_ONE, one, one),
        _row("R2", Z_UNKNOWN, r2_length, one),
        _row("R3", Z_UNKNOWN, r3_pair, one),
        _row("R4", Z_UNKNOWN, r3_pair, one),
        _row("R5", Z_UNKNOWN, r5_length, one),
        _row("R6", Z_UNKNOWN, q2 * q2_q_1, one),
        _row("R7", Z_UNKNOWN, r7_pair, one),
        _row("R8", Z_UNKNOWN, r7_pair, one),
        _row("R9", Z_UNKNOWN, q3 * q3_1, (q - 3) / 2),
        _row("R10", Z_UNKNOWN, q3 * q2_q_1 * q_1, (q - 3) / 6),
        _row("R11", Z_UNKNOWN, split * (q - three_m + 1), (q - three_m) / 6),
        _row("R12", Z_UNKNOWN, split * (q + three_m + 1), (q + three_m) / 6),
    )


def build_table(family: CaseFamily) -> SuborbitTable:
    """The full parametrized suborbit table for a family."""
    if family.kind == "subfield":
        return SuborbitTable(family, _subfield_rows())
    if family.kind == "ree":
        return SuborbitTable(family, _ree_rows())
    raise ValueError(f"unknown family kind: {family.kind!r}")


def instantiate(table: SuborbitTable, param: int) -> ConcreteTable:
    """Evaluate every row at an admissible parameter, dropping zero counts.

    Counts must evaluate to nonnegative integers, lengths of surviving rows
    to positive integers, and the coset index and |H| to integers; anything
    else raises TranscriptionError.
    """
    family = table.family
    var = family.table_variable(param)
    rows = []
    for row in table.rows:
        try:
            count = row.count.eval_int(var)
        except ValueError as exc:
            raise TranscriptionError(f"count of row {row.z.label!r} at parameter {param}: {exc}") from exc
        if count < 0:
            raise TranscriptionError(f"count of row {row.z.label!r} is {count} at parameter {param}")
        if count == 0:
            continue
        try:
            length = row.length.eval_int(var)
        except ValueError as exc:
            raise TranscriptionError(f"length of row {row.z.label!r} at parameter {param}: {exc}") from exc
        if length < 1:
            raise TranscriptionError(f"length of row {row.z.label!r} is {length} at parameter {param}")
        rows.append(ConcreteRow(row.z.label, row.z.z_order, length, count))
    trivial = [r for r in rows if r.length == 1]
    if len(trivial) != 1 or trivial[0].count != 1:
        raise TranscriptionError(f"expected exactly one trivial suborbit at parameter {param}")
    orders = []
    for name, poly in (("coset index", family.index), ("|H|", family.h_order)):
        try:
            orders.append(poly.eval_int(var))
        except ValueError as exc:
            raise TranscriptionError(f"{name} at parameter {param}: {exc}") from exc
    return ConcreteTable(family=family, param=param, index=orders[0], h_order=orders[1], rows=tuple(rows))


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


def suborbit_count(ct: ConcreteTable) -> int:
    """Total number of suborbits, the trivial one included."""
    return sum(r.count for r in ct.rows)


def proper_divisor_premise(ct: ConcreteTable) -> bool:
    """Whether every nontrivial length strictly divides |H|.

    This is the premise of the kernel-chain argument. It holds for the ree
    family from q = 27 on; at q = 3 one suborbit has length exactly |H|.
    """
    return all(ct.h_order % r.length == 0 and r.length < ct.h_order for r in ct.nontrivial_rows)


def dump(ct: ConcreteTable) -> str:
    """Tab-separated dump: header with parameter and index, one row per line."""
    lines = [f"param={ct.param}\tindex={ct.index}"]
    for r in ct.rows:
        lines.append(f"{r.label}\t{r.length}\t{r.count}")
    return "\n".join(lines) + "\n"
