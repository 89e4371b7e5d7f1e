"""Exact integer, rational, and polynomial arithmetic.

Everything in this package reduces to computations done here: arbitrary
precision integers, rationals in lowest terms, univariate polynomials over
the rationals evaluated at integer points, integer factorization by trial
division, cyclic-group element orders, and exact comparison of huge powers.
No floating point anywhere.

A polynomial keeps an evaluation plan, built from its numerators on first
use and kept for its life: evaluation runs Horner's rule along its nonzero
stride only, and a sum of products (`Poly.sum_of_products`) convolves
nonzero terms only, in one integer accumulator over a common denominator,
with no intermediate Poly. The plan also keeps the last few integer values
the polynomial was read at (at most _KEPT_VALUES), so a table that shares
a row's polynomials with a table already read does not evaluate them again.

Polynomials store integers only and meet only ints and other polynomials:
arithmetic and comparison take ints or Polys, division and evaluation take
ints. A Fraction appears in two places alone, as a constructor coefficient and in
`.coeffs`, so `fractions` (which brings `decimal` and `numbers`) is imported
only by `.coeffs`.
"""
from collections.abc import Iterable, Sequence
from math import gcd, lcm

#: Most values a polynomial's plan keeps; a full plan forgets them all
#: before it keeps the next. The fault loop re-reads each unchanged row's
#: polynomials at the same two points for every mutant table, but a sweep
#: reads each point once, so an unbounded store only grows there: it raised
#: the peak RSS of analyze("ree", 0, 1000) from 29.7 to 43.3 MB, where
#: eight values read 30.1 MB (Python 3.11.7).
_KEPT_VALUES = 8


def _split(value) -> tuple[int, int]:
    """(numerator, denominator > 0) of an int or Fraction coefficient; anything else raises TypeError."""
    try:
        return value.numerator, value.denominator
    except AttributeError:
        raise TypeError(f"polynomial coefficients are ints or Fractions: {value!r}") from None


class Poly:
    """Immutable univariate polynomial with rational coefficients.

    The coefficients are stored as integer numerators, ascending by degree,
    over one positive common denominator, reduced so that the denominator
    shares no factor with all the numerators and no numerator is a trailing
    zero; equal polynomials are therefore equal structurally. Arithmetic and
    evaluation run on plain integers. A Poly is evaluated at integers only,
    the points every table is read at.

    Its evaluation plan writes it as t**s * Q(t**g) / den: the shift s is
    its lowest nonzero exponent, the stride g the gcd of its other nonzero
    exponents' distances from s (1 if there are none), and Q's numerators
    are the stored ones at s, s + g, s + 2g, .... The plan also lists the
    nonzero (exponent, numerator) terms. `eval_int` and `sum_of_products`
    build it from the numerators alone on first use, and the polynomial
    keeps it for its life. Arithmetic results start without one and `*`
    builds none, so multiplying out a family's table at import builds no
    plan and holds no value.

    The plan's last part holds the integer values `eval_int` returned, by
    point, at most _KEPT_VALUES of them. A point that is not an int is
    refused before they are looked at, and a value that is not an integer
    is never kept, so its ValueError is raised on every call. A polynomial
    built from another's coefficients starts with no plan and no values.
    """

    __slots__ = ("_num", "_den", "_plan")

    def __init__(self, coeffs: Iterable = ()) -> None:
        pairs = [_split(c) for c in coeffs]
        den = lcm(*(d for _, d in pairs))
        self._set([n * (den // d) for n, d in pairs], den)

    def _set(self, num: list[int], den: int) -> None:
        """Store num/den in the normal form the class docstring describes."""
        while num and not num[-1]:
            num.pop()
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        self._num = tuple(num)
        self._den = den
        self._plan = None

    def _build_plan(self) -> tuple:
        """Store and return the plan (s, g, Q's numerators highest degree first, nonzero terms, no values yet)."""
        num = self._num
        terms = _terms(num)
        shift = terms[0][0] if terms else 0
        stride = gcd(*[k - shift for k, _ in terms]) or 1
        plan = self._plan = (shift, stride, num[shift::stride][::-1], terms, {})
        return plan

    @classmethod
    def _make(cls, num: list[int], den: int) -> "Poly":
        p = cls.__new__(cls)
        p._set(num, den)
        return p

    @classmethod
    def var(cls) -> "Poly":
        """The monomial t."""
        return cls((0, 1))

    @classmethod
    def const(cls, value) -> "Poly":
        return cls((value,))

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, ascending by degree."""
        from fractions import Fraction

        return tuple(Fraction(c, self._den) for c in self._num)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._num) - 1

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self._num == p._num and self._den == p._den

    def __hash__(self) -> int:
        # An integer constant equals that int, so it hashes like it.
        if self._den == 1 and len(self._num) <= 1:
            return hash(sum(self._num))
        return hash((self._num, self._den))

    @staticmethod
    def _coerce(other: object) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, int):
            return Poly._make([other], 1)
        return None

    def __add__(self, other: object) -> "Poly":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        da, db = self._den, p._den
        den = lcm(da, db)
        sa, sb = den // da, den // db
        a = [c * sa for c in self._num]
        b = [c * sb for c in p._num]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return Poly._make(a, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make([-c for c in self._num], self._den)

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
        a, b = self._num, p._num
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        _add_product(out, _terms(a), _terms(b))
        return Poly._make(out, self._den * p._den)

    __rmul__ = __mul__

    def __truediv__(self, divisor: int) -> "Poly":
        if not isinstance(divisor, int):
            return NotImplemented
        if divisor == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        if divisor < 0:
            return Poly._make([-c for c in self._num], self._den * -divisor)
        return Poly._make(list(self._num), self._den * divisor)

    def __pow__(self, exponent: int) -> "Poly":
        """self multiplied by itself, k - 1 products for self**k; self**0 is the constant 1."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        if exponent == 0:
            return Poly._make([1], 1)
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result

    @classmethod
    def sum_of_products(cls, pairs: Iterable[tuple["Poly", "Poly"]]) -> "Poly":
        """sum(a * b for a, b in pairs), accumulated in one list of integers.

        Every product is scaled to the lcm of the pairs' denominators and
        added term by term, over each operand's planned nonzero terms, into
        one list of numerators, which is normalized once at the end; an
        empty sum is the zero polynomial. One pass over the pairs collects
        the terms, the denominator products and the accumulator size.
        """
        products = []
        dens = []
        size = 0
        for a, b in pairs:
            an, bn = a._num, b._num
            if an and bn:
                d = a._den * b._den
                products.append(((a._plan or a._build_plan())[3], (b._plan or b._build_plan())[3], d))
                dens.append(d)
                n = len(an) + len(bn) - 1
                if n > size:
                    size = n
        den = lcm(*dens)
        acc = [0] * size
        for at, bt, d in products:
            _add_product(acc, at, bt, den // d)
        return cls._make(acc, den)

    def eval_int(self, point: int) -> int:
        """The value at an integer point, which must be an integer.

        Horner's rule on the plan's numerators of Q at point**g, times
        point**s, unless the plan already holds the value at point. A point
        that is not an int raises TypeError, and a value that is not an
        integer raises ValueError naming it in lowest terms, on every call.
        """
        if not isinstance(point, int):
            raise TypeError(f"polynomials are evaluated at integers only: {point!r}")
        shift, stride, strided, _, values = self._plan or self._build_plan()
        if point in values:
            return values[point]
        x = point**stride if stride != 1 else point
        num = 0
        for c in strided:
            num = num * x + c
        if shift:
            num *= point**shift
        if self._den != 1:
            value, rest = divmod(num, self._den)
            if rest:
                g = gcd(num, self._den)
                raise ValueError(f"polynomial is not integer-valued at {point}: {num // g}/{self._den // g}")
            num = value
        if len(values) == _KEPT_VALUES:
            values.clear()
        values[point] = num
        return num

    # p(x) is p.eval_int(x); bench/spans.py wraps __call__ by name.
    __call__ = eval_int

    def __repr__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "Poly(0)"
        terms = []
        for k in range(self.degree, -1, -1):
            c = coeffs[k]
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


def _terms(num: Sequence[int]) -> list[tuple[int, int]]:
    """The nonzero (exponent, numerator) terms of a numerator list, ascending."""
    return [(k, c) for k, c in enumerate(num) if c]


def _add_product(
    acc: list[int], a: Sequence[tuple[int, int]], b: Sequence[tuple[int, int]], scale: int = 1
) -> None:
    """Add scale * (a * b), the product of two nonzero-term lists, into acc in place.

    acc must reach past the sum of the two top exponents. The shorter list
    is the outer loop.
    """
    if len(a) < len(b):
        a, b = b, a
    for j, cb in b:
        cb *= scale
        for i, ca in a:
            acc[i + j] += ca * cb


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


def is_power_of(n: int, p: int) -> int | None:
    """The exponent e with p**e == n, or None if n is not a power of p.

    Divides out p, p**2, p**4, ... in turn while each divides n. What is
    left then holds p fewer times than the first power that failed, so the
    same powers, tried again from the largest down, strip the rest: O(log e)
    divisions instead of e.
    """
    if n < 1 or p < 2:
        raise ValueError("is_power_of requires n >= 1 and p >= 2")
    squares = []
    square, e = p, 0
    while n % square == 0:
        n //= square
        e += 1 << len(squares)
        squares.append(square)
        square *= square
    for k in range(len(squares) - 1, -1, -1):
        if n % squares[k] == 0:
            n //= squares[k]
            e += 1 << k
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
