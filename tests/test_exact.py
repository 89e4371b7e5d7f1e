import random
import subprocess
import sys
from fractions import Fraction

import pytest

from dtgcert.exact import (
    Poly,
    cyclic_order,
    exp_compare,
    factorize,
    is_power_of,
)


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


@pytest.mark.parametrize("k, products", [(0, 0), (1, 0), (2, 1), (6, 3), (13, 5)])
def test_poly_pow_multiplies_only_what_it_keeps(k, products, monkeypatch):
    # square-and-multiply from the base: no product with the constant 1 and
    # no squaring after the last bit
    t = Poly.var()
    p = 2 * t - 1
    want = Poly((1,))
    for _ in range(k):
        want = want * p
    calls = []
    original = Poly.__mul__

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(Poly, "__rmul__", counted)
    assert (t**k).coeffs == (0,) * k + (1,)
    assert len(calls) == products
    assert p**k == want


def test_poly_evaluation_and_composition():
    t = Poly.var()
    p = t**3 - 2 * t + 1
    assert p(2) == Fraction(5)
    assert p(-3) == Fraction(-20)
    assert (p / 4)(3) == Fraction(11, 2)
    # composition: p(t + 1) evaluated at 1 equals p(2)
    composed = p(t + 1)
    assert isinstance(composed, Poly)
    assert composed(1) == p(2)
    assert (t**2)(t**3) == t**6


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
    assert Poly((Fraction(1, 2),)) == Fraction(1, 2)
    assert t != 5
    assert hash(t + 1) == hash(Poly((1, 1)))
    assert len({t + 1, Poly((1, 1)), t}) == 2


def test_poly_constant_hashes_like_its_value():
    # equal objects must hash equal, and a constant Poly equals its value
    for value in (0, 5, -7, Fraction(3, 4)):
        p = Poly.const(value)
        assert p == value and hash(p) == hash(value), value
        assert len({p, value}) == 1, value
    assert {Poly.const(5): "poly"}[5] == "poly"
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


def _naive_factor(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_exhaustive_small_range():
    for n in range(1, 60001):
        assert factorize(n) == _naive_factor(n)


def test_factorize_rho_and_edge_cases():
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


def _ref_compose(a, b):
    acc = ()
    for c in reversed(a):
        acc = _ref_add(_ref_mul(acc, b), (c,))
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
        assert (a / s).coeffs == tuple(c / s for c in ra)
        k = rng.randrange(-9, 10) or -3
        assert (a / k).coeffs == tuple(c / k for c in ra)
        assert (s + a).coeffs == _ref_add((s,), ra)
        assert (a * k).coeffs == _ref_mul(ra, (Fraction(k),))
        t = rng.randrange(-40, 41)
        assert a(t) == _ref_eval(ra, t) and isinstance(a(t), Fraction)
        assert a(b).coeffs == _ref_compose(ra, rb)


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
            (a / Fraction(-2, 3), a * Fraction(-3, 2)),
            (a(Poly.var()), a),
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
    assert Poly.sum_of_products([]) == Poly(())
    assert Poly.sum_of_products(iter(())) == 0
    t = Poly.var()
    assert Poly.sum_of_products([(t, Poly(())), (Poly(()), t + 1)]) == Poly(())
    assert Poly.sum_of_products([(t / 2, t / 3), (t / 4, 1 - t)]) == t**2 / 6 + t / 4 - t**2 / 4
    # leading terms cancel; the rest is normalized over the common denominator
    assert Poly.sum_of_products([(t / 6, t + Fraction(1, 4)), (-t / 2, t / 3)]) == t / 24


#: Run in a fresh interpreter: dtgcert is imported first and fractions only
#: later, so Poly meets Fractions from a module it did not import itself.
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
    instantiate(build_table(family), family.param_for_n(2))
pipeline.analyze("ree", 0, 2)
pipeline.analyze("subfield", 1, 2)
pipeline.verify_tables("ree", [3, 27], symbolic=True)
assert "fractions" not in sys.modules, "an integer-only path imported fractions"

from fractions import Fraction

half = Fraction(1, 2)
assert Poly.const(half) == half and half == Poly.const(half)
assert (t == half) is False and (t == "1/2") is False
assert t + half == Poly((half, 1)) and half + t == Poly((half, 1))
assert t - half == Poly((-half, 1)) and half - t == Poly((half, -1))
assert t * half == t / 2 and half * t == t / 2
assert t / half == 2 * t and t / Fraction(-2, 3) == t * Fraction(-3, 2)
assert hash(Poly.const(half)) == hash(half) and hash(Poly.const(Fraction(4, 2))) == hash(2)
coeffs = (t / 3 + 1).coeffs
assert coeffs == (1, Fraction(1, 3)) and all(type(c) is Fraction for c in coeffs)
value = (t / 3)(2)
assert value == Fraction(2, 3) and type(value) is Fraction
assert type(t(2)) is Fraction
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
