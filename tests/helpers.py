"""Helpers shared by several test modules; pytest collects no test here.

Pytest puts this directory on sys.path when it imports the test modules
beside it, so they import these names with `from helpers import ...`.
"""
import re

from dtgcert import tables
from dtgcert.exact import Poly

#: The generated_at line of a run report, as the JSON and the text writer spell it.
GENERATED_AT = re.compile(rb'^(?:  "generated_at": "[^"\n]*",|generated_at: [^\n]*)\n', re.M)


def unstamped(report):
    """A run report's bytes without its generated_at line, which must occur exactly once."""
    body, stamps = GENERATED_AT.subn(b"", report)
    assert stamps == 1
    return body


def replace_row(table, i, attr, poly):
    """The table with row i's length or count (attr) replaced by poly."""
    row = table.rows[i]
    fields = {"length": row.length, "count": row.count, attr: poly}
    new_row = tables.SuborbitRow(row.z, fields["length"], fields["count"])
    return tables.SuborbitTable(table.family, table.rows[:i] + (new_row,) + table.rows[i + 1 :])


def r2_length_plus_one(table):
    """The table with R2's length raised by 1; it stays integral, so instantiate accepts it."""
    return replace_row(table, 1, "length", table.rows[1].length + 1)


def single_coefficient_mutants(table, offset):
    """Every mutant that moves one stored coefficient of one row polynomial by offset().

    offset is called once per mutant, in row, attribute and degree order.
    """
    for i, row in enumerate(table.rows):
        for attr in ("length", "count"):
            poly = getattr(row, attr)
            for k in range(poly.degree + 1):
                coeffs = list(poly.coeffs)
                coeffs[k] += offset()
                yield replace_row(table, i, attr, Poly(coeffs))


def measured_row_by_row(ct):
    """tables.measure's three values by their plain definitions, one pass each:
    mass total, suborbit total (the trivial one included), and whether every
    length divides |H|."""
    return (
        sum(r.length * r.count for r in ct.rows),
        sum(r.count for r in ct.rows),
        all(ct.h_order % r.length == 0 for r in ct.rows),
    )
