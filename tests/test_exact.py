import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from dtgcert.exact import (
    Poly,
    cyclic_order,
    exp_compare,
    factorize,
    is_power_of,
)
from dtgcert.groups import REE, SUBFIELD
from dtgcert.pipeline import analyze, verify_tables
from dtgcert.tables import _KEPT_STEPS, ONE, build_table, instantiate
from helpers import r2_length_plus_one, single_coefficient_mutants


def test_poly_construction_strips_trailing_zeros():
    p = Poly((1, 2, 0, 0))
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1
    assert Poly(()).degree == -1
    assert not Poly((0, 0))
    assert Poly((0, 0)) == Poly(())
    assert Poly((0, 0)) == 0


def test_poly_rejects_floats():
    with pytest.raises(TypeError):
        Poly((1.0,))
    with pytest.raises(TypeError):
        Poly((1,))(0.5)
    with pytest.raises(TypeError):
        Poly((1, 2)) / 2.0


def test_poly_arithmetic():
    t = Poly.var()
    assert (t + 1) * (t - 1) == t**2 - 1
    assert (t + 1) ** 3 == t**3 + 3 * t**2 + 3 * t + 1
    assert 2 * t == t + t
    assert 1 - t == -(t - 1)
    assert (t**2 + t) / 2 == Poly((0, Fraction(1, 2), Fraction(1, 2)))
    assert t * Poly(()) == Poly(())
    p = 3 * t**2 - 2 * t + 5
    q = t - 7
    assert (p + q) - q == p
    assert p * q == q * p


def test_poly_pow_requires_nonnegative_int():
    t = Poly.var()
    with pytest.raises(ValueError):
        t ** (-1)
    assert t**0 == 1
    with pytest.raises(ValueError):
        t**2.0


@pytest.mark.parametrize("k", [0, 1, 2, 6, 13])
def test_poly_pow_is_repeated_multiplication(k):
    t = Poly.var()
    p = 2 * t - 1
    want = Poly((1,))
    for _ in range(k):
        want = want * p
    assert (t**k).coeffs == (0,) * k + (1,)
    assert p**k == want


def test_poly_call_is_eval_int():
    assert Poly.__call__ is Poly.eval_int
    t = Poly.var()
    p = t**3 - 2 * t + 1
    assert p(2) == p.eval_int(2) == 5 and type(p(2)) is int
    assert p(-3) == -20
    # the same errors either way: a non-integer value, a non-int point, a Poly point
    quarter = p / 4
    for point, error in ((3, ValueError), (0.5, TypeError), (Fraction(1, 2), TypeError), (t + 1, TypeError)):
        with pytest.raises(error) as called:
            quarter(point)
        with pytest.raises(error) as evaluated:
            quarter.eval_int(point)
        assert str(called.value) == str(evaluated.value)
    assert str(called.value) == "polynomials are evaluated at integers only: Poly(t + 1)"


def test_poly_meets_only_ints_and_polys():
    t = Poly.var()
    half = Fraction(1, 2)
    operations = (
        lambda: t + half, lambda: half + t, lambda: t - half, lambda: half - t,
        lambda: t * half, lambda: half * t, lambda: t / half, lambda: t(t + 1),
    )
    for operation in operations:
        with pytest.raises(TypeError):
            operation()
    assert (t == half) is False and (Poly.const(half) == half) is False and (half == Poly.const(half)) is False
    # a Fraction enters as a coefficient of a Poly
    assert t + Poly.const(half) == Poly((half, 1)) and t * Poly.const(half) == t / 2
    assert t / -2 == Poly((0, Fraction(-1, 2)))


def test_poly_rejects_fraction_points():
    t = Poly.var()
    p = (t**2 + t) / 2
    for point in (Fraction(1, 2), Fraction(4, 2), 1.5):
        with pytest.raises(TypeError):
            p(point)
        with pytest.raises(TypeError):
            p.eval_int(point)
    assert p(3) == 6 and p.eval_int(3) == 6


def test_poly_eval_int():
    t = Poly.var()
    half = (t**2 + t) / 2
    assert half.eval_int(7) == 28
    with pytest.raises(ValueError):
        (t / 2).eval_int(3)


def test_poly_equality_and_hash():
    t = Poly.var()
    assert Poly((5,)) == 5
    assert Poly((Fraction(1, 2),)) == Poly.const(1) / 2
    assert t != 5
    assert hash(t + 1) == hash(Poly((1, 1)))
    assert len({t + 1, Poly((1, 1)), t}) == 2


def test_poly_constant_hashes_like_its_value():
    # equal objects must hash equal, and an integer constant Poly equals its value
    for value in (0, 5, -7):
        p = Poly.const(value)
        assert p == value and hash(p) == hash(value), value
        assert len({p, value}) == 1, value
    assert {Poly.const(5): "poly"}[5] == "poly"
    # a non-integer constant equals no number, only the same Poly
    assert hash(Poly.const(Fraction(3, 4))) == hash(Poly.const(3) / 4)
    # a nonconstant polynomial keeps its structural hash
    t = Poly.var()
    assert hash(t / 2 + 1) == hash((t + 2) / 2)
    assert len({t + 1, 1, t}) == 3


def test_poly_repr():
    t = Poly.var()
    assert repr(Poly(())) == "Poly(0)"
    assert repr(t**2 - t) == "Poly(t^2 - t)"
    assert repr(-t + 1) == "Poly(-t + 1)"
    assert repr((t**3) / 2 + 4) == "Poly(1/2*t^3 + 4)"


def test_poly_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Poly.var() / 0


def test_factorize_exhaustive_small_range():
    # each factorization multiplies back to n, over ascending primes from a sieve
    limit = 60000
    prime = [False, False] + [True] * (limit - 1)
    for d in range(2, int(limit**0.5) + 1):
        if prime[d]:
            prime[d * d :: d] = [False] * len(range(d * d, limit + 1, d))
    for n in range(1, limit + 1):
        factors = factorize(n)
        product = 1
        for p, e in factors.items():
            assert prime[p] and e >= 1, (n, p, e)
            product *= p**e
        assert product == n, n
        assert list(factors) == sorted(factors), n


def test_factorize_edge_cases():
    assert factorize(1) == {}
    assert factorize(2**10 * 3**5 * 97) == {2: 10, 3: 5, 97: 1}
    # the largest accepted input, a prime: trial division runs to its root
    assert factorize(10**12 - 11) == {10**12 - 11: 1}
    assert list(factorize(999983 * 999979).items()) == [(999979, 1), (999983, 1)]
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-12)


def test_factorize_refuses_uncertifiable_cofactor():
    # 2^89 - 1 is prime; trial division would run for days, so it is refused
    with pytest.raises(ValueError):
        factorize(2**89 - 1)
    with pytest.raises(ValueError):
        factorize(10**12)


def test_cyclic_order_brute_force():
    for n in range(1, 61):
        for i in range(n + 1):
            k = 1
            while (i * k) % n != 0:
                k += 1
            assert cyclic_order(n, i) == k, (n, i)
    with pytest.raises(ValueError):
        cyclic_order(0, 1)


def test_is_power_of():
    assert is_power_of(1, 3) == 0
    assert is_power_of(27, 3) == 3
    assert is_power_of(1024, 2) == 10
    assert is_power_of(12, 2) is None
    assert is_power_of(9, 2) is None
    with pytest.raises(ValueError):
        is_power_of(0, 3)
    with pytest.raises(ValueError):
        is_power_of(8, 1)


def _is_power_of_one_step(n, p):
    """Reference: divide by p one step at a time."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e if n == 1 else None


def test_is_power_of_matches_one_step_division():
    for p in (2, 3, 5, 7, 10):
        assert is_power_of(1, p) == 0
        for e in range(601):
            power = p**e
            for n in (power, 2 * power, 7 * power, power + 1, power - 1):
                if n >= 1:
                    assert is_power_of(n, p) == _is_power_of_one_step(n, p), (n, p)
    for n in range(1, 400):
        for p in range(2, 30):
            assert is_power_of(n, p) == _is_power_of_one_step(n, p), (n, p)


@pytest.mark.parametrize("n, p", [(0, 3), (-1, 3), (-27, 3), (8, 1), (8, 0), (8, -2), (0, 0), (1, 1)])
def test_is_power_of_domain(n, p):
    with pytest.raises(ValueError):
        is_power_of(n, p)


def test_exp_compare_random():
    rng = random.Random(7)
    for _ in range(400):
        ba, bb = rng.randrange(1, 40), rng.randrange(1, 40)
        ea, eb = rng.randrange(0, 30), rng.randrange(0, 30)
        want = (ba**ea > bb**eb) - (ba**ea < bb**eb)
        assert exp_compare(ba, ea, bb, eb) == want


def test_exp_compare_known_cases():
    assert exp_compare(2, 6, 8, 2) == 0
    assert exp_compare(4, 3, 2, 6) == 0
    assert exp_compare(1, 100, 2, 1) == -1
    assert exp_compare(2, 0, 1, 5) == 0
    assert exp_compare(3, 0, 2, 1) == -1
    # disjoint bit bands: decided without forming the powers
    assert exp_compare(2, 10**6, 3, 10**5) == 1
    assert exp_compare(3, 10**5, 2, 10**6) == -1
    with pytest.raises(ValueError):
        exp_compare(0, 1, 2, 1)
    with pytest.raises(ValueError):
        exp_compare(2, -1, 2, 1)


# Reference polynomials for the differential test below: plain tuples of
# Fractions, ascending by degree, trailing zeros stripped.


def _ref(coeffs):
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    n = max(len(a), len(b))
    return _ref(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _ref(out)


def _ref_pow(a, e):
    out = (Fraction(1),)
    for _ in range(e):
        out = _ref_mul(out, a)
    return out


def _ref_eval(a, t):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * t + c
    return acc


def _random_coeffs(rng):
    """Up to seven coefficients: ints, fractions, zeros, trailing zeros too."""
    out = []
    for _ in range(rng.randrange(0, 8)):
        kind = rng.randrange(4)
        if kind == 0:
            out.append(0)
        elif kind == 1:
            out.append(rng.randrange(-30, 31))
        else:
            out.append(Fraction(rng.randrange(-30, 31), rng.randrange(1, 13)))
    return out


#: Points that reach every part of an evaluation plan: 0, the units,
#: negatives, and powers of 3 as the tables use them.
_PLAN_POINTS = (0, 1, -1, -2, -5, 2, 3, 27, 3**7, -(3**5), 3**40)

#: Q's coefficients, lowest first: a monomial; 1 - u, whose first gap is
#: the stride g; 2 - 3u**2, whose stride is 2g; and two Qs whose first gap
#: (2g, 3g) is wider than their stride g.
_PLAN_QS = (
    (Fraction(3, 2),),
    (1, -1),
    (2, 0, -3),
    (1, 0, 5, 2),
    (Fraction(4, 3), 0, 0, -1, Fraction(2, 3)),
)


def _shaped_polys(rng):
    """Polynomials t**s * Q(t**g) for every shift s in 0..6 and stride g in 1..6.

    Each (s, g) gets every Q of _PLAN_QS and one random Q of up to four
    coefficients over a small denominator. The zero polynomial, constants
    and monomials come first.
    """
    polys = [Poly(()), Poly.const(7), Poly.const(Fraction(-5, 3)), Poly.var(), Poly((0, 0, 0, -3))]
    for s in range(7):
        for g in range(1, 7):
            den = rng.choice((1, 2, 3))
            randq = [Fraction(rng.randrange(-9, 10), den) for _ in range(rng.randrange(1, 5))]
            for q in _PLAN_QS + ((*randq[:-1], randq[-1] or 1),):
                coeffs = [0] * (s + g * (len(q) - 1) + 1)
                for k, c in enumerate(q):
                    coeffs[s + g * k] = c
                polys.append(Poly(coeffs))
    return polys


def test_poly_matches_fraction_reference():
    rng = random.Random(20211)
    for _ in range(300):
        ca, cb = _random_coeffs(rng), _random_coeffs(rng)
        a, b = Poly(ca), Poly(cb)
        ra, rb = _ref(ca), _ref(cb)
        assert a.coeffs == ra and b.coeffs == rb
        assert a.degree == len(ra) - 1
        assert (a + b).coeffs == _ref_add(ra, rb)
        assert (a - b).coeffs == _ref_add(ra, tuple(-c for c in rb))
        assert (-a).coeffs == tuple(-c for c in ra)
        assert (a * b).coeffs == _ref_mul(ra, rb)
        e = rng.randrange(0, 5)
        assert (a**e).coeffs == _ref_pow(ra, e)
        s = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 20), rng.randrange(1, 9))
        assert (Poly.const(s) + a).coeffs == _ref_add((s,), ra)
        assert (a * Poly.const(s)).coeffs == _ref_mul(ra, (s,))
        k = rng.randrange(-9, 10) or -3
        assert (a / k).coeffs == tuple(c / k for c in ra)
        assert (k + a).coeffs == _ref_add((Fraction(k),), ra)
        assert (a * k).coeffs == _ref_mul(ra, (Fraction(k),))
        t = rng.randrange(-40, 41)
        want = _ref_eval(ra, t)
        if want.denominator == 1:
            assert a(t) == a.eval_int(t) == want and type(a(t)) is int
        else:
            with pytest.raises(ValueError):
                a(t)


def test_poly_eval_int_matches_fraction_reference():
    rng = random.Random(20212)
    t = Poly.var()
    # integer-valued with fractional coefficients: binomial-style factors
    shapes = (t * (t + 1) / 2, t * (t - 1) * (t - 2) / 6, (t**2 - 1) / 4, Poly((1,)))
    for _ in range(300):
        p = Poly(_random_coeffs(rng))
        if rng.randrange(2):
            p = Poly([rng.randrange(-9, 10) for _ in range(3)]) * rng.choice(shapes) + rng.randrange(-5, 6)
        point = rng.randrange(-60, 61)
        want = _ref_eval(p.coeffs, point)
        if want.denominator == 1:
            assert p.eval_int(point) == want.numerator
        else:
            with pytest.raises(ValueError) as exc:
                p.eval_int(point)
            assert str(exc.value) == f"polynomial is not integer-valued at {point}: {want}"
    # t**s * Q(t**g), each polynomial at every point in turn, so its plan is reused
    for p in _shaped_polys(rng):
        for point in _PLAN_POINTS:
            want = _ref_eval(p.coeffs, point)
            if want.denominator == 1:
                assert p.eval_int(point) == want.numerator, (p, point)
            else:
                with pytest.raises(ValueError) as exc:
                    p.eval_int(point)
                assert str(exc.value) == f"polynomial is not integer-valued at {point}: {want}"
    # (t^2 - 1)/4 is an integer at odd points only
    assert ((t**2 - 1) / 4).eval_int(7) == 12
    with pytest.raises(ValueError):
        ((t**2 - 1) / 4).eval_int(6)


def test_poly_normal_form_is_structural():
    rng = random.Random(20213)
    for _ in range(100):
        ca, cb = _random_coeffs(rng), _random_coeffs(rng)
        a, b = Poly(ca), Poly(cb)
        twins = [
            (a * b, b * a),
            ((a + b) - b, a),
            (Poly(ca + [0, Fraction(0, 7)]), a),
            (Poly(Fraction(2 * c, 2) for c in ca), a),
            (a * 3 / -2, a * Poly.const(Fraction(-3, 2))),
            (Poly(list(a.coeffs)), a),
        ]
        for x, y in twins:
            assert x == y and hash(x) == hash(y)
    zero = Poly((0, Fraction(0, 5), 0))
    assert zero == Poly(()) == 0 and hash(zero) == hash(Poly(()))
    assert zero.degree == -1 and zero.coeffs == () and not zero
    t = Poly.var()
    assert (t / 3 - t / 3) == zero and hash(t / 3 - t / 3) == hash(zero)
    assert Poly((Fraction(1, 2), 0, 0)).coeffs == (Fraction(1, 2),)
    assert zero(3) == 0 and zero.eval_int(5) == 0
    with pytest.raises(TypeError):
        Poly((Fraction(1, 2), 1.5))
    with pytest.raises(TypeError):
        t * 1.5
    with pytest.raises(TypeError):
        t.eval_int(0.5)


def _random_poly_over(rng, den):
    """A Poly with up to seven integer numerators, negatives and zeros too, over den."""
    return Poly([Fraction(rng.randrange(-40, 41), den) for _ in range(rng.randrange(0, 8))])


def _naive_sum_of_products(pairs):
    total = Poly()
    for a, b in pairs:
        total = total + a * b
    return total


def test_sum_of_products_matches_naive_sum():
    rng = random.Random(20215)
    dens = (1, 2, 3, 4, 6, 12)
    checked = 0
    for _ in range(200):
        pairs = []
        for _ in range(rng.randrange(0, 9)):
            a = _random_poly_over(rng, rng.choice(dens))
            b = Poly(()) if rng.randrange(6) == 0 else _random_poly_over(rng, rng.choice(dens))
            pairs.append((a, b))
        got = Poly.sum_of_products(pairs)
        want = _naive_sum_of_products(pairs)
        assert got == want and got.coeffs == want.coeffs
        ref = ()
        for a, b in pairs:
            ref = _ref_add(ref, _ref_mul(a.coeffs, b.coeffs))
        assert got.coeffs == ref
        # the same products negated cancel to the zero polynomial
        cancelling = pairs + [(-a, b) for a, b in pairs]
        rng.shuffle(cancelling)
        assert Poly.sum_of_products(cancelling) == Poly(())
        checked += 1
    assert checked == 200
    # t**s * Q(t**g) operands, one Poly object reused within a pair and across pairs
    shaped = _shaped_polys(rng)
    for _ in range(200):
        pool = rng.sample(shaped, 3)
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randrange(0, 5))] + [(pool[0], pool[0])]
        ref = ()
        for a, b in pairs:
            ref = _ref_add(ref, _ref_mul(a.coeffs, b.coeffs))
        got = Poly.sum_of_products(pairs)
        assert got.coeffs == ref and got == _naive_sum_of_products(pairs)
    assert Poly.sum_of_products([]) == Poly(())
    assert Poly.sum_of_products(iter(())) == 0
    t = Poly.var()
    assert Poly.sum_of_products([(t, Poly(())), (Poly(()), t + 1)]) == Poly(())
    assert Poly.sum_of_products([(t / 2, t / 3), (t / 4, 1 - t)]) == t**2 / 6 + t / 4 - t**2 / 4
    # leading terms cancel; the rest is normalized over the common denominator
    assert Poly.sum_of_products([(t / 6, t + Poly.const(Fraction(1, 4))), (-t / 2, t / 3)]) == t / 24


#: Run in a fresh interpreter: dtgcert is imported first and fractions only
#: later, so the Fractions that Poly takes as coefficients and refuses as
#: operands come from a module it did not import itself.
_IMPORT_ORDER_SCRIPT = """
import sys
from dtgcert import pipeline
from dtgcert.exact import Poly
from dtgcert.groups import REE, SUBFIELD
from dtgcert.tables import build_table, instantiate

t = Poly.var()
assert (t == "1/2") is False and (Poly.const(1) == "1") is False
for bad in (lambda: Poly((1.5,)), lambda: t(0.5), lambda: t.eval_int(0.5), lambda: t / 2.0):
    try:
        bad()
    except TypeError:
        pass
    else:
        raise AssertionError("a float was accepted")
# the certificate path runs on integers alone
for family in (REE, SUBFIELD):
    instantiate(build_table(family), 2)
pipeline.analyze("ree", 0, 2)
pipeline.analyze("subfield", 1, 2)
pipeline.verify_tables("ree", [3, 27], symbolic=True)
assert "fractions" not in sys.modules, "an integer-only path imported fractions"

from fractions import Fraction

half = Fraction(1, 2)
for bad in (lambda: t + half, lambda: half - t, lambda: t * half, lambda: t / half):
    try:
        bad()
    except TypeError:
        pass
    else:
        raise AssertionError("a Fraction operand was accepted")
assert (t == half) is False and (Poly.const(half) == half) is False and (half == Poly.const(half)) is False
assert Poly.const(half) == Poly.const(1) / 2 and hash(Poly.const(Fraction(4, 2))) == hash(2)
coeffs = (t / 3 + 1).coeffs
assert coeffs == (1, Fraction(1, 3)) and all(type(c) is Fraction for c in coeffs)
assert Poly(coeffs) == t / 3 + 1
assert type(t(2)) is int
try:
    (t / 2).eval_int(3)
except ValueError as exc:
    assert str(exc) == "polynomial is not integer-valued at 3: 3/2", str(exc)
else:
    raise AssertionError("eval_int accepted 3/2")
for bad in (lambda: t(half), lambda: t.eval_int(half)):
    try:
        bad()
    except TypeError as exc:
        assert str(exc) == "polynomials are evaluated at integers only: Fraction(1, 2)", str(exc)
    else:
        raise AssertionError("a Fraction point was accepted")
print("ok")
"""


def test_poly_takes_fractions_imported_after_it(package_env):
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_ORDER_SCRIPT], capture_output=True, text=True, env=package_env, timeout=60
    )
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


def _family_polys(family):
    """Every polynomial a family holds: its orders, its suborbit total and each row's length and count."""
    return [family.h_order, family.index, family.suborbits] + [p for row in family.rows for p in (row.length, row.count)]


#: Run in a fresh interpreter: importing the package builds no evaluation
#: plan and keeps no family step, and the plan eval_int builds holds its
#: shift, stride, strided numerators and terms, and no value.
_NO_PLAN_AT_IMPORT_SCRIPT = """
import gc
import dtgcert
from dtgcert.exact import Poly

polys = [o for o in gc.get_objects() if type(o) is Poly]
family = [p for f in (dtgcert.REE, dtgcert.SUBFIELD) for p in (f.h_order, f.index, *(q for r in f.rows for q in (r.length, r.count)))]
assert all(any(p is o for o in polys) for p in family), "gc missed a family polynomial"
assert all(p._plan is None for p in polys), "import built a plan"
assert not any("own_steps" in vars(f) for f in (dtgcert.REE, dtgcert.SUBFIELD)), "import kept a step"
index = dtgcert.REE.index
value = index.eval_int(1)
assert value == 2808 and index._plan[:2] == (6, 2) and len(index._plan) == 4, index._plan
assert not any(isinstance(part, dict) for part in index._plan), "the plan holds a value store"
assert index.eval_int(1) == value
print("ok")
"""


def test_import_builds_no_plan(package_env):
    proc = subprocess.run(
        [sys.executable, "-c", _NO_PLAN_AT_IMPORT_SCRIPT], capture_output=True, text=True, env=package_env, timeout=60
    )
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


def test_plans_are_built_once_per_polynomial(monkeypatch):
    # start as a fresh process does, whatever ran before: no plan on the
    # family's polynomials or on tables.ONE, and no family mass yet
    for p in (*_family_polys(REE), ONE):
        monkeypatch.setattr(p, "_plan", None)
    monkeypatch.delitem(vars(REE), "own_mass", raising=False)
    built = Counter()
    build = Poly._build_plan

    def counted(self):
        built[id(self)] += 1
        return build(self)

    monkeypatch.setattr(Poly, "_build_plan", counted)
    first = analyze("ree", 0, 100)
    allowed = {id(p) for p in (*_family_polys(REE), REE.own_mass, ONE)}
    assert built and set(built) <= allowed and max(built.values()) == 1
    built.clear()
    assert analyze("ree", 0, 100) == first
    assert not built


def test_a_mutant_fails_after_the_canonical_plans_exist(monkeypatch):
    table = build_table(REE)
    monkeypatch.delitem(vars(REE), "own_steps", raising=False)
    assert verify_tables("ree", [3, 27], symbolic=True).ok
    polys = [p for row in table.rows for p in (row.length, row.count)]
    assert all(p._plan is not None for p in polys)
    # the family's own table keeps no step; the first mutant keeps both
    assert "own_steps" not in vars(REE)
    read = []
    eval_int = Poly.eval_int

    def counted(self, point):
        read.append(self)
        return eval_int(self, point)

    monkeypatch.setattr(Poly, "eval_int", counted)
    canonical = {id(p) for p in polys}
    mutants = 0
    for mutant in single_coefficient_mutants(table, lambda: -1):
        (changed_row,) = [new for new, own in zip(mutant.rows, table.rows) if new is not own]
        changed = [p for p in (changed_row.length, changed_row.count) if id(p) not in canonical]
        assert len(changed) == 1
        read.clear()
        assert not verify_tables("ree", [3, 27], symbolic=True, table=mutant).ok
        if mutants:
            # every unchanged row is read from the kept steps: only the changed row's polynomials are evaluated
            assert any(p is changed[0] for p in read)
            assert all(p is changed_row.length or p is changed_row.count for p in read)
            assert len(read) <= 4
        else:
            assert len(read) > 4
        mutants += 1
    assert mutants == 152
    assert set(REE.own_steps) == {0, 1}


def _reading(p, point):
    """p's value at point, or the text of the ValueError it raises there."""
    try:
        return p.eval_int(point)
    except ValueError as exc:
        return str(exc)


def test_kept_values_equal_a_fresh_reading():
    # a polynomial read through its plan, again and again, reads as one built
    # from its coefficients with no plan yet
    points = [3**k for k in range(13)]
    for p in _family_polys(REE) + _family_polys(SUBFIELD):
        for _ in range(2):
            for point in points:
                assert _reading(p, point) == _reading(Poly(p.coeffs), point), (p, point)


def test_a_point_that_is_not_an_int_is_refused_where_its_int_value_is_kept():
    # a bool is refused as a float is, though True == 1 and hashes like it
    p = REE.index
    for point, bad in ((1, 1.0), (27, Fraction(27)), (1, True), (0, False)):
        value = p.eval_int(point)
        with pytest.raises(TypeError, match="polynomials are evaluated at integers only"):
            p.eval_int(bad)
        with pytest.raises(TypeError, match="polynomials are evaluated at integers only"):
            p(bad)
        assert p.eval_int(point) == value


def test_a_value_that_is_not_an_integer_raises_on_every_call():
    half = Poly.var() / 2
    for _ in range(2):
        with pytest.raises(ValueError, match="polynomial is not integer-valued at 3: 3/2"):
            half.eval_int(3)
        assert half.eval_int(4) == 2


def test_no_family_polynomial_keeps_more_values_than_the_bound(monkeypatch):
    # the keep is per family, of whole steps: sweeps and the family's own
    # table keep none, and a changed table read at 20 steps leaves at most
    # the bound, a full keep forgetting every step before it keeps the next
    for family in (REE, SUBFIELD):
        monkeypatch.delitem(vars(family), "own_steps", raising=False)
    analyze("ree", 0, 100)
    analyze("subfield", 1, 40)
    assert verify_tables("ree", [3, 27, 2187], symbolic=True).ok
    assert not any("own_steps" in vars(family) for family in (REE, SUBFIELD))
    for family in (REE, SUBFIELD):
        changed = r2_length_plus_one(build_table(family))
        steps = range(family.min_n, family.min_n + 20)
        for n in steps:
            instantiate(changed, n)
            assert 0 < len(family.own_steps) <= _KEPT_STEPS
        assert set(family.own_steps) == set(steps[2 * _KEPT_STEPS :])
