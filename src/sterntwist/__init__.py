"""Exact arithmetic and a verification harness for the Stern diatomic
sequence, its sign-twisted companion, and the series identities that tie
the two together."""

from .sequences import (
    SequenceCache,
    WeightPolynomial,
    count_admissible,
    enumerate_admissible,
    mod2,
    stern,
    twisted,
    v2,
    weighted_count_direct,
    weighted_even,
    weighted_stern,
    weighted_stern_alt,
)
from .series import (
    DensePolynomial,
    TruncatedSeries,
    carlitz_series,
    div_exact,
    infinite_product,
    log_derivative,
    psi,
    section,
    stern_series,
    substitute_power,
    twisted_series,
    twisted_series_expansion,
)
from .regularity import (
    AffineSystem,
    KernelProbeReport,
    binary_partition_series,
    c_series,
    degree_reduce,
    h_series,
    kernel_rank,
    p_product_logderiv,
    solve_affine_system,
)
from .ratwords import (
    LinearRepresentation,
    admissible_representation,
    count_in_expansion,
    subfactor_transform,
    subsequence_transform,
    word_indicator,
)
from .verify import (
    IdentityRecord,
    REGISTRY,
    VerificationReport,
    check_conjecture_ab,
    check_conjecture_gen,
    check_det_families,
    check_det_m,
    check_divisibility,
    check_identity,
    check_mod2,
    check_palindrome,
    check_partial_sums,
    det_m,
    run_suite,
)

__version__ = "0.1.0"
