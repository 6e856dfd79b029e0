"""Exact tropical (min-plus) commuting-matrix toolkit.

Exact rational min-plus linear algebra (Kleene stars, polytropes), the
commutativity criteria for polytropes, symbolic commuting-ideal machinery
with tropical non-membership certificates, prevariety complexes with exact
f-vectors, and Puiseux-style series lifts.
"""

from .core import (
    INF,
    ZERO,
    AllInfiniteError,
    MatrixFormatError,
    NegativeCycleError,
    SizeMismatchError,
    TropMatrix,
    TropScalar,
    TropVector,
    kleene_star,
    mat_vec,
    matrix_from_json,
    matrix_to_json,
    normalize_tp,
    pair_from_json,
    pair_to_json,
    trop_add,
    trop_mul,
    trop_pow,
)
from .polytrope import (
    CommutClassification,
    NotInImageError,
    NotPolytropeError,
    PreimageDescription,
    classify_polytrope_pair,
    commutes,
    image_vertices,
    is_polytrope,
    is_premetric,
    preimage,
    random_polytrope,
    random_premetric,
    star_image_contains,
)
from .polynomials import SparsePoly, matrix_variables, monomial, monomial_str, symmetric_variables
from .commuting import (
    NonMembershipCertificate,
    PairClassification,
    certify_not_in_tc3,
    classify_pair,
    commutator_entry,
    evaluate_tropically,
    generators,
    in_tc2,
    in_tpre,
    in_ts,
    symmetric_generators,
    weight_of_pair,
    witness_deg3,
    witness_deg4,
)
from .fan import (
    BudgetExceededError,
    Cell,
    FVector,
    enumerate_cells,
    f_vector,
    lineality_dim,
    maximal_cell_orbits,
    named_config,
)
from .series import (
    LiftPreconditionError,
    SeriesMatrix,
    SeriesPoly,
    lift_2x2,
    parse_series,
    val_matrix,
    verify_lift,
)
from .drawing import intersection_region_vertices, region_vertices, render_polytrope_svg

__version__ = "0.1.0"
