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
    ComplementMode,
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
    GreenRelations,
    SemigroupTable,
    all_endos,
    are_isomorphic,
    gl,
    green,
    green_oracle_report,
    idempotent_from,
    idempotents,
    mult_table,
    regular_elements,
    sing,
    sing_order,
    transpose_table,
)
from .normal_cones import (
    Factorization,
    NormalCone,
    build_cone_semigroup,
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
    dual_cone_table,
    h_map,
    h_set,
    hfunctor_for_kernel,
    m_set,
    nat_trans,
)
from .crossconn import (
    CrossConn,
    chi,
    check_chi_naturality,
    classify_crossconnections,
    gamma_delta_theta,
    is_crossconnection,
    is_local_isomorphism,
    linked_pair_semigroup,
    recover_theta,
)
from .variants import (
    VariantContext,
    make_variant,
    nonprincipal_cones,
    phi,
    reg_variant,
    sandwich,
    variant_categories,
    variant_crossconnection,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
