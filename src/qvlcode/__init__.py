"""Universal variable-length compression of quantum i.i.d. sources.

The package builds the block-measurement instrument on (C^d)^{x n},
evaluates its error and overflow behaviour exactly at desk scale, and
provides closed-form ceilings for both along with the asymptotic rate
exponents they converge to.
"""

__version__ = "0.1.0"

from .codec import (
    REJECT,
    CodeParams,
    FixedLengthReport,
    OutcomeRecord,
    VLCode,
    average_error_definitional,
    average_error_dprime,
    average_error_exact,
    average_error_prime,
    build_code,
    delta_schedule,
    log_overflow_probability,
    outcome_distribution,
    outcome_records,
    overflow_probability,
    to_fixed_length,
)
from .info import (
    binary_divergence,
    binary_entropy,
    c1,
    c2,
    c3,
    divergence,
    entropy,
    quantum_relative_entropy,
    rotating_family_gap,
    sorted_spectrum,
    universality_ceiling,
    optimal_overflow_exponent,
)
from .linalg import (
    DimensionBudgetError,
    Source,
    basis_source,
    bures,
    fidelity,
    psd_sqrt,
    pure_source,
    pure_state,
    tensor,
)
from .schur_weyl import (
    block_prob_diagonal,
    block_prob_iid,
    block_prob_product,
    permutation_operator,
    young_projector,
    young_projectors,
)
from .young import dim_block, dim_sym_group, dim_unitary_group, kostka, schur_poly, young_indices
