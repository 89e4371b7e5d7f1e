"""Fusion bounds and the two number-theoretic gates for the ree family.

Outer automorphisms can merge suborbits, but only equal-length ones and at
most |X| at a time, so grouping by length bounds the fused class count from
below. That count feeds the diameter-cutoff gate; the kernel-chain gate
instead tracks certifying primes through stabilizer orders.
"""
from dtgcert import REE, bhk_gate, build_table, instantiate, kernel_prime_data, min_fused_classes
from dtgcert.pipeline import gate_text

table = build_table(REE)

print("== fused class lower bounds at q = 27 ==")
ct = instantiate(table, 1)  # step 1: q = 27
groups = ct.length_groups
print(f"{len(groups)} length classes over {sum(mult for _, mult in groups)} nontrivial suborbits")
for x in (1, 2, 3, 6):
    bound = min_fused_classes(groups, x)
    print(f"  |X| = {x}: at least {bound} fused classes")

print()
print("== diameter cutoff gate ==")
# the cutoff d < (8/3) log2(v) fails from n = 4 on, decided exactly;
# q and v come from the table instantiated at step n
for n in (1, 3, 4, 6):
    verdict = bhk_gate(instantiate(table, n), 2 * (2 * n + 1))
    print(f"  n={n}: {gate_text(verdict)}")

print()
print("== certifying kernel primes ==")
for n in (1, 2, 3):
    q = REE.param_for_n(n)
    (minus_value, p_minus), (plus_value, p_plus) = kernel_prime_data(q)
    print(f"  q={q}: q-3m+1 = {minus_value} -> {p_minus},"
          f" q+3m+1 = {plus_value} -> {p_plus}")
