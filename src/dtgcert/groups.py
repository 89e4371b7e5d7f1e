"""Order formulas and structural data for the two coset-action families.

Two families are covered, named by the vertex stabilizer inside G2(q):

* ``subfield``: G2(q) acting on cosets of a subfield subgroup G2(r), q = r*r,
  r a power of 3. Polynomials are univariate in r.
* ``ree``: G2(q) acting on cosets of a twisted subgroup 2G2(q), q = 3**(2n+1).
  Polynomials are univariate in m, where q = 3*m*m and m = 3**n.

Outer automorphisms enter the arguments only through the order of a subgroup
X of Out and whether X meets the graph coset, that is, holds an odd power of
the graph automorphism, so X is modeled by (order, contains_graph_auto)
descriptors rather than by explicit maps.
"""
from math import isqrt
from typing import NamedTuple

from .exact import Poly, is_power_of


class CaseFamily(NamedTuple):
    """One coset-action family with exact order polynomials.

    h_order and index are polynomials in the family's table variable (r for
    subfield, m for ree) whose product is the order of G2(q).
    """

    kind: str
    h_order: Poly
    index: Poly
    min_n: int

    def param_for_n(self, n: int) -> int:
        """Public parameter for step n: subfield r = 3**n, ree q = 3**(2n+1)."""
        if n < self.min_n:
            raise ValueError(f"{self.kind} family requires n >= {self.min_n}")
        return 3**n if self.kind == "subfield" else 3 ** (2 * n + 1)

    def suborbit_total(self, param: int) -> int:
        """Number of suborbits at param, the trivial one included: r*r + 2r + 6 for subfield, q + 6 for ree."""
        return param * param + 2 * param + 6 if self.kind == "subfield" else param + 6

    def n_of_param(self, param: int) -> int:
        """Inverse of param_for_n; validates admissibility."""
        e = is_power_of(param, 3) if param >= 1 else None
        if self.kind == "subfield":
            if e is None or e < 1:
                raise ValueError(f"subfield parameter must be 3**n, n >= 1: {param}")
            return e
        if e is None or e % 2 == 0:
            raise ValueError(f"ree parameter must be 3**(2n+1): {param}")
        return (e - 1) // 2

    def table_variable(self, param: int) -> int:
        """Evaluation point 3**n for the family's polynomials: r itself for subfield, m for ree."""
        return 3 ** self.n_of_param(param)

    def q_value(self, param: int) -> int:
        """The host group parameter q of G2(q), for a param that param_for_n made.

        Plain arithmetic: param is not validated again here.
        """
        return param * param if self.kind == "subfield" else param

    def field_exponent(self, param: int) -> int:
        """f with q = 3**f; the field automorphism has order f."""
        n = self.n_of_param(param)
        return 2 * n if self.kind == "subfield" else 2 * n + 1


def _subfield_family() -> CaseFamily:
    r = Poly.var()
    r2 = r**2
    r6 = r2**3
    h = r6 * (r6 - 1) * (r2 - 1)
    index = r6 * (r6 + 1) * (r2 + 1)
    return CaseFamily("subfield", h, index, min_n=1)


def _ree_family() -> CaseFamily:
    m = Poly.var()
    q = 3 * m**2
    q3 = q**3
    h = q3 * (q3 + 1) * (q - 1)
    index = q3 * (q3 - 1) * (q + 1)
    return CaseFamily("ree", h, index, min_n=0)


SUBFIELD = _subfield_family()
REE = _ree_family()

_FAMILIES = {SUBFIELD.kind: SUBFIELD, REE.kind: REE}


def get_family(kind: str) -> CaseFamily:
    try:
        return _FAMILIES[kind]
    except KeyError:
        raise ValueError(f"unknown case family: {kind!r}") from None


class OuterOption(NamedTuple):
    """Subgroup descriptor for X <= Out: its order, and whether it holds an
    odd power of the graph automorphism (meets the graph coset)."""

    order: int
    contains_graph_auto: bool


def _v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def outer_subgroup_options(family: CaseFamily, param: int) -> tuple[OuterOption, ...]:
    """All (order, contains_graph_auto) descriptors of subgroups of Out.

    Out is cyclic of order 2f generated by a graph automorphism tau whose
    square is the field automorphism (order f, q = 3**f). The unique subgroup
    of each order d | 2f is X_d = <tau**(2f/d)>. contains_graph_auto marks
    the X_d that hold an odd power of tau, that is, meet the graph coset:
    exactly those where 2f/d is odd, so d has the same 2-adic valuation as
    2f. This is not membership of the involution tau**f, which X_d holds
    when d is even. The two agree for every d when f is odd (every ree
    step). When f is even (every subfield step) they differ at d = 2, and
    no odd power of tau is an involution.
    """
    two_f = 2 * family.field_exponent(param)
    small, large = [], []
    for d in range(1, isqrt(two_f) + 1):
        if two_f % d == 0:
            small.append(d)
            if d * d != two_f:
                large.append(two_f // d)
    v2 = _v2(two_f)
    return tuple(OuterOption(d, _v2(d) == v2) for d in small + large[::-1])

