"""Exact integer, rational, and polynomial arithmetic.

Everything in this package reduces to computations done here: arbitrary
precision integers, rationals in lowest terms, dense univariate polynomials
over the rationals, integer factorization by trial division, cyclic-group
element orders, and exact comparison of huge powers. No floating point anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Union

Scalar = Union[int, Fraction]


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floating point is not allowed in exact arithmetic")
    return Fraction(value)


class Poly:
    """Immutable dense univariate polynomial with rational coefficients.

    Coefficients are stored ascending by degree with no trailing zeros, so
    equal polynomials compare equal structurally. Evaluation is exact and
    accepts an integer, a Fraction, or another Poly (composition).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def var(cls) -> "Poly":
        """The monomial t."""
        return cls((0, 1))

    @classmethod
    def const(cls, value: Scalar) -> "Poly":
        return cls((value,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    @staticmethod
    def _coerce(other: object) -> Optional["Poly"]:
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly((other,))
        return None

    def __add__(self, other: object) -> "Poly":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        a, b = self._coeffs, p._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self._coeffs))

    def __sub__(self, other: object) -> "Poly":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self + (-p)

    def __rsub__(self, other: object) -> "Poly":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return p + (-self)

    def __mul__(self, other: object) -> "Poly":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        a, b = self._coeffs, p._coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "Poly":
        s = _as_fraction(scalar)
        if s == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return Poly(tuple(c / s for c in self._coeffs))

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = Poly((1,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, point: Union[Scalar, "Poly"]) -> Union[Fraction, "Poly"]:
        """Evaluate at an integer or Fraction, or compose with another Poly."""
        if isinstance(point, Poly):
            acc: Union[Fraction, Poly] = Poly()
            for c in reversed(self._coeffs):
                acc = acc * point + c
            return acc if isinstance(acc, Poly) else Poly((acc,))
        t = _as_fraction(point)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * t + c
        return acc

    def eval_int(self, point: int) -> int:
        """Evaluate at an integer point where the value must be an integer."""
        value = self(point)
        if value.denominator != 1:
            raise ValueError(f"polynomial is not integer-valued at {point}: {value}")
        return value.numerator

    def __repr__(self) -> str:
        if not self._coeffs:
            return "Poly(0)"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            coef = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
            if k == 0:
                body = coef
            else:
                t = "t" if k == 1 else f"t^{k}"
                body = t if mag == 1 else f"{coef}*{t}"
            sign = "-" if c < 0 else "+"
            terms.append((sign, body))
        first_sign, first_body = terms[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            text += f" {sign} {body}"
        return f"Poly({text})"


def factorize(n: int) -> dict[int, int]:
    """Complete prime factorization of n >= 1 as an ordered {prime: exponent} map.

    Plain trial division up to the square root, so every factor found is
    proven prime. The kernel chain, the only caller, factors q -+ 3m + 1 for
    q <= 2187, all below 2300. Inputs of 10**12 or more, which would need
    over a million trial divisors, raise ValueError instead of running on.
    """
    if n <= 0:
        raise ValueError("factorize requires n >= 1")
    if n >= 10**12:
        raise ValueError(f"factorize handles n < 10**12 only: {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def cyclic_order(n: int, i: int) -> int:
    """Order of g**i in a cyclic group of order n with generator g."""
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    return n // gcd(n, i)


def is_power_of(n: int, p: int) -> Optional[int]:
    """The exponent e with p**e == n, or None if n is not a power of p."""
    if n < 1 or p < 2:
        raise ValueError("is_power_of requires n >= 1 and p >= 2")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e if n == 1 else None


def exp_compare(base_a: int, exp_a: int, base_b: int, exp_b: int) -> int:
    """Exact ordering of base_a**exp_a vs base_b**exp_b: -1, 0, or +1.

    A bit-length prescreen separates the values whenever their binary
    magnitude bands are disjoint; only overlapping bands fall back to exact
    big-integer powering, which the prescreen keeps small.
    """
    if base_a < 1 or base_b < 1 or exp_a < 0 or exp_b < 0:
        raise ValueError("exp_compare requires bases >= 1 and exponents >= 0")
    a_is_one = base_a == 1 or exp_a == 0
    b_is_one = base_b == 1 or exp_b == 0
    if a_is_one and b_is_one:
        return 0
    if a_is_one:
        return -1
    if b_is_one:
        return 1
    lo_a, hi_a = _pow_bounds(base_a, exp_a)
    lo_b, hi_b = _pow_bounds(base_b, exp_b)
    if lo_a >= hi_b:
        return 1
    if lo_b >= hi_a:
        return -1
    pa = base_a**exp_a
    pb = base_b**exp_b
    return (pa > pb) - (pa < pb)


def _pow_bounds(base: int, exp: int) -> tuple[int, int]:
    """Exponents (lo, hi) with 2**lo <= base**exp < 2**hi."""
    bits = base.bit_length()
    if base == 1 << (bits - 1):
        lo = (bits - 1) * exp
        return lo, lo + 1
    return (bits - 1) * exp, bits * exp
