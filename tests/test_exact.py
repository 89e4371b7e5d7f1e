import random
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


def test_poly_evaluation_and_composition():
    t = Poly.var()
    p = t**3 - 2 * t + 1
    assert p(2) == Fraction(5)
    assert p(Fraction(1, 2)) == Fraction(1, 8) - 1 + 1
    # composition: p(t + 1) evaluated at 1 equals p(2)
    composed = p(t + 1)
    assert isinstance(composed, Poly)
    assert composed(1) == p(2)
    assert (t**2)(t**3) == t**6


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
