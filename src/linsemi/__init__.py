"""Exact machinery for singular linear transformation semigroups over GF(p).

Subspace lattices, Green's relations, normal cones over the proper
subspace category, the annihilator dual, automorphism-induced
cross-connections, and sandwich variants, all with exhaustive
verifications at desk scale.
"""

from .errors import (
    AlgebraError,
    ModulusMismatch,
    NotACone,
    NotADirectSum,
    NotClosed,
    NotIdempotent,
    NotInSandwich,
    NotIncluded,
    NotInduced,
    NotInvertible,
    NotSingular,
    ShapeError,
    TooLarge,
)
from .gf import Mat, invert, is_prime, kernel_basis, mat_to_text, parse_mat, rank, row_basis, rref
from .subspaces import (
    Morphism,
    Side,
    Subspace,
    SubspaceFilter,
    annihilator,
    canonical,
    complement,
    enumerate_subspaces,
    gaussian_binomial,
    inclusion,
    retraction,
)
from .semigroup import (
    Endo,
    all_endos,
    gl,
    idempotent_from,
    idempotents,
    mult_table,
    regular_elements,
    sing,
    sing_order,
)
from .normal_cones import (
    Factorization,
    NormalCone,
    cone_census,
    cone_compose,
    cone_to_map,
    epimorphic_component,
    normal_factorization,
    principal_cone,
    validate_cone,
)
from .dual import (
    DualMorphism,
    HFunctor,
    build_normal_dual,
    nat_trans,
)
from .crossconn import (
    CrossConn,
    check_chi_naturality,
    classify_crossconnections,
    gamma_delta_theta,
    is_crossconnection,
    is_local_isomorphism,
    recover_theta,
)
from .variants import (
    VariantContext,
    make_variant,
    nonprincipal_cones,
    phi,
    sandwich,
    variant_crossconnection,
)

__all__ = [
    "AlgebraError", "ModulusMismatch", "NotACone", "NotADirectSum", "NotClosed", "NotIdempotent",
    "NotInSandwich", "NotIncluded", "NotInduced", "NotInvertible", "NotSingular", "ShapeError",
    "TooLarge", "Mat", "invert", "is_prime", "kernel_basis", "mat_to_text", "parse_mat", "rank",
    "row_basis", "rref", "Morphism", "Side", "Subspace", "SubspaceFilter",
    "annihilator", "canonical", "complement", "enumerate_subspaces", "gaussian_binomial",
    "inclusion", "retraction", "Endo", "all_endos", "gl", "idempotent_from", "idempotents",
    "mult_table", "regular_elements", "sing", "sing_order", "Factorization", "NormalCone",
    "cone_census", "cone_compose", "cone_to_map", "epimorphic_component", "normal_factorization",
    "principal_cone", "validate_cone", "DualMorphism", "HFunctor", "build_normal_dual", "nat_trans",
    "CrossConn", "check_chi_naturality", "classify_crossconnections", "gamma_delta_theta",
    "is_crossconnection", "is_local_isomorphism", "recover_theta", "VariantContext", "make_variant",
    "nonprincipal_cones", "phi", "sandwich", "variant_crossconnection",
]
__version__ = "0.1.0"
