"""Exact arithmetic: polynomials, factorization, and huge-power comparison.

Everything downstream rests on this layer, so the demo exercises each piece
on the numbers the analyses actually use. No floating point appears anywhere;
all values are exact integers, rationals, or polynomials over the rationals.
"""
from dtgcert import Poly, cyclic_order, exp_compare, factorize

t = Poly.var()

print("== polynomials ==")
index = t**3 * (t**3 - 1) * (t + 1)
print(f"coset index polynomial (ree, in q): {index!r}")
print(f"  at q=3:    {index.eval_int(3)}")
print(f"  at q=27:   {index.eval_int(27)}")
print(f"  at q=2187: {index.eval_int(2187)}")

half = (t**2 + t) / 2
print(f"integer-valued rational polynomial: {half!r}")
print(f"  at t=7: {half.eval_int(7)}")

print()
print("== factorization by trial division ==")
for n in (217, 2107, 2808, 10847222568):
    parts = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factorize(n).items())
    print(f"  {n} = {parts}")

print()
print("== cyclic group element orders ==")
# the torus element of order q - 1 inside a cyclic group of order q^3 - 1
q = 9
kappa_order = q**3 - 1
theta_exponent = q * q + q + 1
print(f"  group order {kappa_order}, exponent {theta_exponent}:"
      f" order {cyclic_order(kappa_order, theta_exponent)} (= q - 1 = {q - 1})")

print()
print("== exact comparison of huge powers ==")
# decided from bit-length bands alone; the powers are never materialized
sign = exp_compare(2, 10**6, 3, 10**5)
print(f"  2^(10^6) vs 3^(10^5): {'>' if sign > 0 else '<' if sign < 0 else '='}")
sign = exp_compare(2, 6, 8, 2)
print(f"  2^6 vs 8^2: {'>' if sign > 0 else '<' if sign < 0 else '='}")
