"""Cocycle double cross sum Lie algebras, their reduced flows, and
higher-order tangent-group arithmetic for matrix groups."""

from .algebra import (
    LieAlgebra,
    abelian,
    algebra_from_doc,
    algebra_to_doc,
    from_sparse_entries,
    load_algebra,
    preset,
    save_algebra,
    tangent_algebra,
)
from .dynamics import (
    EnergySpec,
    Trajectory,
    conservation_report,
    ep_field,
    fd_gradient,
    lp_field,
    rk4,
    write_report_json,
    write_trajectory_csv,
)
from .errors import (
    ConfigError,
    DimensionError,
    FactorizationError,
    GroupMismatch,
    JetValidationError,
    NonFiniteState,
    NotASubalgebra,
    SingularFiberMap,
    SingularInertia,
    SingularMatrix,
    TooFewPoints,
    TrajectoryTooLarge,
    UnknownPreset,
    default_tol,
)
from .jets import (
    JetElement,
    complement_embed,
    iterated_factorize,
    iterated_inverse,
    iterated_multiply,
    jet_from_doc,
    jet_to_doc,
    load_jet,
    partition_coefficient,
    random_jet,
    save_jet,
    t3_factorize,
    tn_inverse,
    tn_multiply,
    tn_to_iterated,
    unit_jet,
)
from .models import (
    KeplerParams,
    TokamakParams,
    build_model,
    kepler_algebra,
    tokamak_algebra,
)
from .products import (
    AxiomReport,
    UnifiedProductData,
    coad,
    compose_bracket,
    from_subalgebra,
    load_product,
    product_from_doc,
    product_to_doc,
    save_product,
    split_product,
    validate_axioms,
)
from .thirdorder import (
    MatrixBasis,
    el_t_t2g_field,
    ep3_field,
    third_order_identity_residual,
    third_order_product,
)

__version__ = "0.1.0"
