"""Exact-arithmetic Hochschild/cyclic homology, Maurer-Cartan deformation
theory and period mappings for finite-dimensional algebras over Q.

Chains are plain dicts {(a0_index, bar_word): coefficient}; see the README
for the conventions.
"""

from .algebra import (
    DgAlgebra,
    NotDegreeZero,
    a2_quiver_algebra,
    build_field,
    build_matrix_algebra,
    build_path_algebra,
    build_truncated_polynomial_algebra,
    kronecker_algebra,
    validate_dg_algebra,
)
from .calculus import calculus_defect, cup_product, verify_lie_dagger
from .coeff import ArtinLocalRing, RingElement, build_truncated_poly, dual_numbers
from .cyclic import (
    NotStabilized,
    TruncatedLaurentComplex,
    cyclic_homology,
    hodge_spectral_sequence,
    negative_cyclic_homology,
    periodic_cyclic_homology,
    sbi_consistent,
)
from .deform import (
    AlgebraOverArtin,
    GaugeElement,
    MCElement,
    NotMaurerCartan,
    deform_algebra,
    gauge_act,
    gauge_equivalent,
    lift_order_by_order,
    mc_residual,
)
from .exactlin import SparseMatrix, SubquotientBasis, homology_at, rref
from .hochschild import (
    ArityBoundExceeded,
    ChainBasis,
    Cochain,
    GradedDims,
    connes_B,
    contraction,
    flat_hochschild_homology,
    gerstenhaber_bracket,
    hochschild_boundary,
    hochschild_cohomology,
    hochschild_homology,
    lie_action,
    structure_as_cochain,
)
from .period import (
    PTD,
    PeriodClass,
    first_order_period_matrix,
    griffiths_transversality_check,
    period_map_artin,
    ptd_isomorphic,
    torelli_rank,
    trivialize_periodic,
    vdb_duality_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
