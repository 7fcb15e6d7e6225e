"""Exact computational algebra for group actions on lattices.

The package builds, and mechanically verifies, the chain connecting
group lattices, semilinear projective representations over exactly
represented division rings, Schreier extensions of the unit group, and
twisted group rings -- all at desk scale with no floating point.
"""

from .errors import GlatticeError
from .scalar import (
    DivisionRing,
    RingAutomorphism,
    Scalar,
    apply_automorphism,
    list_automorphisms,
    ring_arithmetic,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    are_isomorphic,
    conjugation_glattice,
    cyclic_group,
    dihedral_group,
    identify_group,
    subgroup_lattice,
    symmetric_group,
)
from .lattice import (
    FiniteLattice,
    GLatticeAction,
    LatticeAutomorphism,
    action_from_homomorphism,
    boolean_lattice,
    hasse_dot,
    homomorphism_from_action,
    lattice_automorphism_group,
    orbits,
    powerset_glattice,
    validate_glattice,
    validate_lattice,
)
from .linalg import (
    SemilinearMap,
    Subspace,
    SubspaceLattice,
    VectorSpace,
    enumerate_sgl,
    enumerate_subspaces,
    gaussian_binomial,
    map_subspace,
)
from .rep import (
    RepEquivalence,
    SemilinearProjectiveRep,
    coordinatize,
    extract_cocycle,
    induced_glattice,
    rep_equivalence,
    rep_from_glattice,
    rep_from_matrices,
    validate_rep,
)
from .extension import (
    FactorSystem,
    SchreierExtension,
    build_extension,
    check_equivalence,
    classify_extension,
    classify_up_to_equivalence,
    enumerate_factor_systems,
    extension_iso_from_equivalence,
    factor_system_from_rep,
    find_equivalence,
    transform_factor_system,
    transport_rep,
    trivial_factor_system,
    validate_factor_system,
)
from .tgring import (
    TwistedGroupRing,
    TwistedRingElement,
    is_algebra,
    module_action,
    regular_representation,
    validate_module_axioms,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
