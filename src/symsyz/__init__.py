"""Graded Betti tables of opposite cells of Schubert varieties in the
symplectic Grassmannian, covering the symmetric determinantal varieties."""

from .bott import QDominantWeight, CohomologyAnswer, bott, bundle_cohomology
from .geometry import (
    CellPattern,
    DesingData,
    OppositeCellPoint,
    desing_data,
    is_symplectic,
    opposite_cell_factor,
    opposite_cell_pattern,
    plucker_restriction,
    product_identification,
)
from .partitions import (
    conjugate,
    enumerate_Q,
    exterior_of_sym2,
    from_hooks,
    schur_dim,
    weyl_dim,
)
from .resolution import (
    BettiTable,
    EnlargedTableMismatch,
    RationalSingularityViolation,
    UnsupportedBundleError,
    assemble,
    consistency_check,
    enlarged_space_table,
    jpw_closed_form,
    k_polynomial,
    minor_generators,
    resolve,
)
from .weyl import (
    avoids_patterns,
    check_type_c_word,
    family_element,
    length_A,
    length_C,
    m_value,
    w_max_rep,
    w_tilde_min_rep,
)

__version__ = "0.1.0"
