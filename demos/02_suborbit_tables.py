"""Suborbit tables: exact transcription, instantiation, and integrity checks.

Each family carries a parametrized table of suborbit lengths and counts. The
demo instantiates both at small parameters and replays the checks that pin
the transcription down: the mass identity (lengths times counts sum to the
coset index), stabilizer divisibility, and the suborbit count formula.
"""
from dtgcert import (
    REE,
    SUBFIELD,
    build_table,
    dump,
    instantiate,
    stabilizer_order,
    suborbit_count,
    verify_mass,
    verify_mass_symbolic,
)

print("== ree table at q = 3 ==")
ree = build_table(REE)
ct = instantiate(ree, 3)
print(dump(ct), end="")
ok, residual = verify_mass(ct)
print(f"mass identity: {ok} (residual {residual})")
print(f"suborbits: {suborbit_count(ct)} (= q + 6)")

print()
print("== ree table at q = 27 ==")
ct27 = instantiate(ree, 27)
ok, _ = verify_mass(ct27)
print(f"vertices: {ct27.index}")
print(f"mass identity: {ok}")
print(f"suborbits: {suborbit_count(ct27)} (= q + 6)")
stabs = sorted({stabilizer_order(ct27, row) for row in ct27.nontrivial_rows})
print(f"point-stabilizer orders: {stabs}")

print()
print("== subfield table at r = 3 ==")
sub = build_table(SUBFIELD)
ct_sub = instantiate(sub, 3)
ok, _ = verify_mass(ct_sub)
print(f"vertices: {ct_sub.index}")
print(f"mass identity: {ok}")
print(f"surviving rows: {len(ct_sub.rows)} carrying {suborbit_count(ct_sub)} suborbits")
lengths = tuple(length for length, _ in ct_sub.length_groups)
print(f"distinct nontrivial lengths: {lengths}")

print()
print("== symbolic mass identities ==")
# coefficient-level equality of sum(length * count) with the index polynomial
print(f"ree:      {verify_mass_symbolic(ree)}")
print(f"subfield: {verify_mass_symbolic(sub)}")
