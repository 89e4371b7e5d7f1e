"""Order formulas, suborbit tables and structural data for the two coset-action families.

Two families are covered, named by the vertex stabilizer inside G2(q):

* ``subfield``: G2(q) acting on cosets of a subfield subgroup G2(r), q = r*r,
  r a power of 3. Polynomials are univariate in r.
* ``ree``: G2(q) acting on cosets of a twisted subgroup 2G2(q), q = 3**(2n+1).
  Polynomials are univariate in m, where q = 3*m*m and m = 3**n.

Outer automorphisms enter the arguments only through the order of a subgroup
X of Out and whether X meets the graph coset, that is, holds an odd power of
the graph automorphism, so X is modeled by (order, contains_graph_auto)
descriptors rather than by explicit maps.

Each family is one CaseFamily, built at import: h_order, index, rows, min_n,
param_exponent, q_power, suborbits and param_form, with kind only its name.
"""
from functools import cached_property
from math import isqrt

from .exact import Poly, is_power_of
from .tables import Z_ETA, Z_GAMMA, Z_ONE, Z_SIGMA, Z_TAU, Z_THETA, Z_THREE, Z_TWO, Z_UNKNOWN, Record, SuborbitRow


class CaseFamily(Record, fields="kind h_order index rows min_n param_exponent q_power suborbits param_form"):
    """One coset-action family: its order polynomials, suborbit table and step map.

    kind is its name. The Polys h_order, index and suborbits (N, the
    trivial suborbit included) and the SuborbitRows rows (the parametrized
    suborbit table) are all in the family's table variable (r for subfield,
    m for ree); h_order * index is |G2(q)|, and N is the sum of the rows'
    counts. Step n >= min_n has param 3**(a*n + b) for the int pair
    param_exponent (a, b) and q = param**q_power; the str param_form spells
    the admissible params in n_of_param's error. Methods take step n,
    except q_value and the inverse n_of_param. The class declares no
    __slots__: own_mass, the sum of its rows' length * count, is computed
    on first use and kept in its __dict__.
    """

    @cached_property
    def own_mass(self) -> Poly:
        """The sum of length * count over the family's own rows; tables.verify_mass_symbolic starts from it."""
        return Poly.sum_of_products((r.length, r.count) for r in self.rows)

    def check_step(self, n: int) -> int:
        """n itself if it is an int step of the family; ValueError otherwise."""
        if type(n) is not int or n < self.min_n:
            raise ValueError(f"{self.kind} family requires n >= {self.min_n}")
        return n

    def param_for_n(self, n: int) -> int:
        """Public parameter for step n: subfield r = 3**n, ree q = 3**(2n+1)."""
        a, b = self.param_exponent
        return 3 ** (a * self.check_step(n) + b)

    def n_of_param(self, param: int) -> int:
        """Inverse of param_for_n; validates admissibility, and an admissible param is an int."""
        a, b = self.param_exponent
        e = is_power_of(param, 3) if type(param) is int and param >= 1 else None
        if e is None or e < a * self.min_n + b or (e - b) % a:
            raise ValueError(f"{self.kind} parameter must be {self.param_form}: {param}")
        return (e - b) // a

    def table_variable(self, n: int) -> int:
        """Evaluation point 3**n for the family's polynomials at step n: r for subfield, m for ree."""
        return 3 ** self.check_step(n)

    def q_value(self, param: int) -> int:
        """The host group parameter q of G2(q) for a param that param_for_n made; not validated again."""
        return param**self.q_power

    def field_exponent(self, n: int) -> int:
        """f with q = 3**f at step n; the field automorphism has order f."""
        a, b = self.param_exponent
        return self.q_power * (a * self.check_step(n) + b)


def _row(label: str, z_order: str, length: Poly, count: Poly) -> SuborbitRow:
    return SuborbitRow((label, z_order), length, count)


def _subfield_family() -> CaseFamily:
    # |H|, the index and the rows share one variable; each factor that
    # recurs is built once and named.
    r = Poly.var()
    one = Poly.const(1)
    r2 = r**2
    r3 = r2 * r
    r4 = r2 * r2
    r5 = r4 * r
    r6 = r3 * r3
    r6_1 = r6 - 1
    r2_1 = r2 - 1
    r3_minus = r3 - 1
    r3_plus = r3 + 1
    unipotent = r6_1 * r2_1
    unipotent_pair = r2 * unipotent / 2
    regular = r4 * unipotent
    mixed_pair = regular / 2
    h_root = r4 * r6_1
    gamma_a = r5 * r3_minus * (r2 - r + 1)
    gamma_b = r5 * r6_1 * (r - 1)
    gamma_count = (r - 3) / 2
    eta_a = r5 * r3_plus * (r2 + r + 1)
    eta_b = r5 * r6_1 * (r + 1)
    eta_count = (r - 1) / 2
    theta = r6 * r6_1
    theta_count = (r - 1) ** 2 / 4
    h = r6 * r6_1 * r2_1
    index = r6 * (r6 + 1) * (r2 + 1)
    rows = (
        _row("1", Z_ONE, one, one),
        _row("x_{3a+2b}(1)", Z_THREE, r6_1, one),
        _row("x_{2a+b}(1)", Z_THREE, r6_1, one),
        _row("x_{2a+b}(1)x_{3a+2b}(1)", Z_THREE, unipotent, one),
        _row("x_{a+b}(1)x_{3a+b}(1)#1", Z_THREE, unipotent_pair, one),
        _row("x_{a+b}(1)x_{3a+b}(1)#2", Z_THREE, unipotent_pair, one),
        _row("x_a(1)x_b(1)", Z_THREE, regular, one),
        _row("h(-1,-1,1)", Z_TWO, r4 * (r4 + r2 + 1), one),
        _row("h(-1,-1,1)x_b(1)", Z_UNKNOWN, h_root, one),
        _row("h(-1,-1,1)x_{2a+b}(1)", Z_UNKNOWN, h_root, one),
        _row("h(-1,-1,1)x_b(1)x_{2a+b}(1)#1", Z_UNKNOWN, mixed_pair, one),
        _row("h(-1,-1,1)x_b(1)x_{2a+b}(1)#2", Z_UNKNOWN, mixed_pair, one),
        _row("h_gamma(i,-2i,i)", Z_GAMMA, gamma_a, gamma_count),
        _row("h_gamma(i,-2i,i)x_{3a+2b}(1)", Z_GAMMA, gamma_b, gamma_count),
        _row("h_gamma(i,-i,0)", Z_GAMMA, gamma_a, gamma_count),
        _row("h_gamma(i,-i,0)x_{2a+b}(1)", Z_GAMMA, gamma_b, gamma_count),
        _row("h_gamma(i,j,-i-j)", Z_GAMMA, r6 * r3_minus * (r2 - r + 1) * (r - 1), (r2 - 8 * r + 15) / 12),
        _row("h_eta(i,-2i,i)", Z_ETA, eta_a, eta_count),
        _row("h_eta(i,-2i,i)x_{3a+2b}(1)", Z_ETA, eta_b, eta_count),
        _row("h_eta(i,-i,0)", Z_ETA, eta_a, eta_count),
        _row("h_eta(i,-i,0)x_{2a+b}(1)", Z_ETA, eta_b, eta_count),
        _row("h_eta(i,j,-i-j)", Z_ETA, r6 * r3_plus * (r2 + r + 1) * (r + 1), (r2 - 4 * r + 3) / 12),
        _row("h_theta(i,(r-1)i,-ri)", Z_THETA, theta, theta_count),
        _row("h_theta(i,ri,-(r+1)i)", Z_THETA, theta, theta_count),
        _row("h_tau(i,ri,r^2i)", Z_TAU, r6 * r3_minus * r2_1 * (r + 1), r * (r + 1) / 6),
        _row("h_sigma(i,-ri,r^2i)", Z_SIGMA, r6 * r3_plus * r2_1 * (r - 1), r * (r - 1) / 6),
    )
    return CaseFamily(
        "subfield", h, index, rows, min_n=1,
        param_exponent=(1, 0), q_power=2, suborbits=r2 + 2 * r + 6, param_form="3**n, n >= 1",
    )


def _ree_family() -> CaseFamily:
    # |H|, the index and the rows share one variable; each factor that
    # recurs is built once and named.
    m = Poly.var()
    q = 3 * m**2
    one = Poly.const(1)
    q2 = q * q
    q3 = q2 * q
    q3_1 = q3 + 1
    q_1 = q - 1
    q2_q_1 = q2 - q + 1
    q2_1 = q2 - 1
    three_m = 3 * m
    r2_length = q3_1 * q_1
    r3_pair = q * r2_length / 2
    r5_length = q2 * r2_length
    r7_pair = r5_length / 2
    split = q3 * q2_1
    h = q3 * q3_1 * q_1
    index = q3 * (q3 - 1) * (q + 1)
    rows = (
        _row("R1", Z_ONE, one, one),
        _row("R2", Z_UNKNOWN, r2_length, one),
        _row("R3", Z_UNKNOWN, r3_pair, one),
        _row("R4", Z_UNKNOWN, r3_pair, one),
        _row("R5", Z_UNKNOWN, r5_length, one),
        _row("R6", Z_UNKNOWN, q2 * q2_q_1, one),
        _row("R7", Z_UNKNOWN, r7_pair, one),
        _row("R8", Z_UNKNOWN, r7_pair, one),
        _row("R9", Z_UNKNOWN, q3 * q3_1, (q - 3) / 2),
        _row("R10", Z_UNKNOWN, q3 * q2_q_1 * q_1, (q - 3) / 6),
        _row("R11", Z_UNKNOWN, split * (q - three_m + 1), (q - three_m) / 6),
        _row("R12", Z_UNKNOWN, split * (q + three_m + 1), (q + three_m) / 6),
    )
    return CaseFamily(
        "ree", h, index, rows, min_n=0,
        param_exponent=(2, 1), q_power=1, suborbits=q + 6, param_form="3**(2n+1)",
    )


SUBFIELD = _subfield_family()
REE = _ree_family()

#: Every family by its kind, in the order the command line offers them.
FAMILIES = {SUBFIELD.kind: SUBFIELD, REE.kind: REE}


def get_family(kind: str) -> CaseFamily:
    try:
        return FAMILIES[kind]
    except KeyError:
        raise ValueError(f"unknown case family: {kind!r}") from None


class OuterOption(Record, fields="order contains_graph_auto"):
    """Subgroup descriptor for X <= Out: its int order, and the bool whether it
    holds an odd power of the graph automorphism (meets the graph coset)."""

    __slots__ = ()


def outer_subgroup_options(family: CaseFamily, n: int) -> tuple[OuterOption, ...]:
    """All (order, contains_graph_auto) descriptors of subgroups of Out at step n.

    Out is cyclic of order 2f generated by a graph automorphism tau whose
    square is the field automorphism (order f, q = 3**f). The unique subgroup
    of each order d | 2f is X_d = <tau**(2f/d)>. contains_graph_auto marks
    the X_d that hold an odd power of tau, that is, meet the graph coset:
    exactly those where 2f/d is odd. This is not membership of the
    involution tau**f, which X_d holds when d is even. The two agree for
    every d when f is odd (every ree step). When f is even (every subfield
    step) they differ at d = 2, and no odd power of tau is an involution.
    """
    two_f = 2 * family.field_exponent(n)
    small, large = [], []
    for d in range(1, isqrt(two_f) + 1):
        if two_f % d == 0:
            small.append(d)
            if d * d != two_f:
                large.append(two_f // d)
    return tuple(OuterOption(d, two_f // d % 2 == 1) for d in small + large[::-1])

