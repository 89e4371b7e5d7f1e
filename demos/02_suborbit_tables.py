"""Suborbit tables: exact transcription, instantiation, and integrity checks.

Each family carries a parametrized table of suborbit lengths and counts. The
demo instantiates both at their first steps and replays the checks that pin
the transcription down: the mass identity (lengths times counts sum to the
coset index), stabilizer divisibility, and the suborbit count formula. The
concrete mass sums and suborbit totals come from verify_tables, which the
verify-tables command reports.
"""
from dtgcert import (
    REE,
    SUBFIELD,
    build_table,
    dump,
    stabilizer_order,
    verify_mass_symbolic,
)
from dtgcert.pipeline import verify_tables

# verify_tables is handed parameters; the steps make them: q = 3, 27 and r = 3
ree_checks = verify_tables("ree", [REE.param_for_n(n) for n in (0, 1)]).checks

print("== ree table at q = 3 ==")
check = ree_checks[0]
ct = check.table
print(dump(ct), end="")
print(f"mass identity: {check.mass_ok} (residual {check.mass_total - ct.index})")
print(f"suborbits: {check.suborbit_total} (= q + 6)")

print()
print("== ree table at q = 27 ==")
check = ree_checks[1]
ct27 = check.table
print(f"vertices: {ct27.index}")
print(f"mass identity: {check.mass_ok}")
print(f"suborbits: {check.suborbit_total} (= q + 6)")
stabs = sorted({stabilizer_order(ct27, row) for row in ct27.nontrivial_rows})
print(f"point-stabilizer orders: {stabs}")

print()
print("== subfield table at r = 3 ==")
check = verify_tables("subfield", [SUBFIELD.param_for_n(1)]).checks[0]
ct_sub = check.table
print(f"vertices: {ct_sub.index}")
print(f"mass identity: {check.mass_ok}")
print(f"surviving rows: {len(ct_sub.rows)} carrying {check.suborbit_total} suborbits")
lengths = tuple(length for length, _ in ct_sub.length_groups)
print(f"distinct nontrivial lengths: {lengths}")

print()
print("== symbolic mass identities ==")
# coefficient-level equality of sum(length * count) with the index polynomial
print(f"ree:      {verify_mass_symbolic(build_table(REE))}")
print(f"subfield: {verify_mass_symbolic(build_table(SUBFIELD))}")
