"""Error bounds for low-rank approximation with general Gaussian sketches.

The package computes the deterministic and in-expectation bounds on the
projected residual gap of a sketched low-rank approximation, their
closed-form randomized-SVD specializations, reference baselines, and the
Monte Carlo machinery to verify every bound against empirical errors.
"""

from .deterministic import (
    AngleOperators,
    DeterministicBoundReport,
    angle_operators,
    deflated_spectral_gap_bound,
    residual_gap_squared,
    sine_tangent_gap_bound,
)
from .expectation import (
    ExpectationBoundReport,
    ProjectedCovariance,
    TangentMomentConstants,
    expect_pinv_norms,
    expect_product_norms,
    expected_frobenius_gap_bound,
    expected_frobenius_gap_sq_bound,
    expected_spectral_gap_bound,
    expected_spectral_tail_bound,
    mean_shift_term,
    project_covariance,
    project_sketch,
    tangent_norm_constants,
)
from .experiments import (
    EmpiricalStats,
    SweepConfig,
    SweepRow,
    empirical_error,
    emit,
    run_sweep,
    synthetic_matrix,
)
from .linalg import (
    FactorizationError,
    NotPositiveSemidefiniteError,
    PsdOrderingReport,
    RankDeficiencyError,
    SvdFactors,
    canonical_angle_sines,
    frobenius_norm,
    norm,
    orthonormal_basis,
    phi,
    pseudo_inverse,
    psd_order,
    read_matrix_market,
    spectral_norm,
    svd,
    write_matrix_market,
)
from .rsvd import (
    RsvdBoundReport,
    SpectrumProfile,
    frobenius_bound,
    hmt_frobenius,
    hmt_power,
    hmt_spectral,
    improved_spectral_bound,
    peak_index,
    spectral_bound,
)
from .sketching import (
    GaussianSketch,
    RsvdSketch,
    SeededStream,
    rsvd_distribution,
    rsvd_sketch,
    sample,
    standard_gaussian,
)

__version__ = '0.1.0'
