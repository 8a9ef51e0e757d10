"""Graded Betti tables of opposite cells of Schubert varieties in the
symplectic Grassmannian, covering the symmetric determinantal varieties."""

from .bott import QDominantWeight, CohomologyAnswer, bott, bundle_cohomology, exchange
from .geometry import (
    BlockMatrix2n,
    CellPattern,
    DesingData,
    LinearSlice,
    OppositeCellPoint,
    desing_data,
    is_symplectic,
    opposite_cell_factor,
    opposite_cell_pattern,
    plucker_restriction,
    product_identification,
    sym_coordinates,
    t_slice,
    v_slice,
    v_prime_slice,
)
from .partitions import (
    FrobeniusHooks,
    conjugate,
    durfee_rank,
    enumerate_Q,
    exterior_of_sym2,
    from_hooks,
    schur_dim,
    to_hooks,
    weyl_dim,
)
from .resolution import (
    BettiTable,
    PolynomialRingSpec,
    RationalSingularityViolation,
    UnsupportedBundleError,
    XiDescription,
    assemble,
    build_xi_description,
    consistency_check,
    enlarged_space_table,
    jpw_closed_form,
    k_polynomial,
    minor_generators,
    resolve,
)
from .weyl import (
    ParabolicMarker,
    WeylElementC,
    avoids_patterns,
    bruhat_leq,
    bruhat_leq_grassmannian,
    family_element,
    length_A,
    length_C,
    m_value,
    w_max_rep,
    w_tilde_min_rep,
)

__version__ = "0.1.0"
