"""Exact-arithmetic certificates ruling out primitive distance-transitive
graphs on two exceptional coset-action families.

The package transcribes the suborbit tables of the two actions (a subfield
family and a twisted ree family inside G2(q)), verifies them by exact mass
and divisibility identities, and replays the elimination arguments as
decision procedures producing machine-checkable certificates.

The names in __all__ are the supported API; everything else is reached
through its submodule.
"""
from .exact import Poly, cyclic_order, exp_compare, factorize
from .fusion import min_fused_classes
from .gates import bhk_gate, kernel_prime_data
from .groups import REE, SUBFIELD
from .pipeline import VERSION, analyze, emit
from .tables import (
    build_table,
    dump,
    instantiate,
    stabilizer_order,
    verify_mass_symbolic,
)

__version__ = VERSION

__all__ = [
    "Poly",
    "cyclic_order",
    "exp_compare",
    "factorize",
    "min_fused_classes",
    "bhk_gate",
    "kernel_prime_data",
    "REE",
    "SUBFIELD",
    "analyze",
    "emit",
    "build_table",
    "dump",
    "instantiate",
    "stabilizer_order",
    "verify_mass_symbolic",
]
