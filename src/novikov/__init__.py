"""Exact-arithmetic toolkit for nilpotent Novikov algebras.

Computes second cohomology and central extensions of structure-constant
algebras, ships the full catalog of the classified families with their
witness data, and verifies exact and high-precision degeneration witnesses
behind the two-component geometric statement.
"""

from .algebras import (Algebra, IdentityFlags, InvariantProfile, algebra,
                       annihilator_basis, check_identities, derivation_dim,
                       derived_power_dims, invariant_profile, substitute)
from .catalog import get, indistinguishable_pairs, list_entries, load
from .cohomology import (Cocycle, CocycleSpace, central_extension, cocycle,
                         cocycle_space, has_trivial_intersection, is_cocycle,
                         split_central_extension)
from .degeneration import (build_reachability, check_necessary, verify_all,
                           verify_witness)
from .scalars import parse_scalar

__all__ = [
    "Algebra", "IdentityFlags", "InvariantProfile", "algebra",
    "annihilator_basis", "check_identities", "derivation_dim",
    "derived_power_dims", "invariant_profile", "substitute",
    "get", "indistinguishable_pairs", "list_entries", "load",
    "Cocycle", "CocycleSpace", "central_extension", "cocycle",
    "cocycle_space", "has_trivial_intersection", "is_cocycle",
    "split_central_extension",
    "build_reachability", "check_necessary", "verify_all", "verify_witness",
    "parse_scalar",
]

__version__ = "0.1.0"
