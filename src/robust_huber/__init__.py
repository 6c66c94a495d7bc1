"""Huber-loss estimators that stay consistent under oblivious outliers.

Sparse regression with an l1 penalty and low-rank recovery with a nuclear
penalty inside a max-norm box, both built on the Huber loss; plus numerical
certificates for the conditions behind their error bounds, noise generators
covering heavy-tailed and adversarial families, a phase experiment at the
weak-recovery threshold, and a reproducible batch-experiment harness.
"""

from .huber import (
    HuberParams,
    curvature_lower_bound_holds,
    huber_loss,
    huber_loss_and_grad,
    huber_loss_grad,
    huber_penalty,
    huber_penalty_deriv,
)
from .prox import (
    MaxNormBall,
    dual_norm_linf,
    dual_norm_spectral,
    nuclear_norm,
    project_maxnorm,
    prox_l1,
    prox_nuclear,
)
from .solver import (
    CompositeProblem,
    SolveResult,
    SolverConfig,
    SolverDiverged,
    certify_against_reference,
    composite_objective,
    solve_fista,
    solve_split,
)
from .estimators import (
    EstimatorConstants,
    PcaProblem,
    RegressionProblem,
    build_pca_composite,
    build_regression_composite,
    estimate_pca,
    estimate_sparse_regression,
    frobenius_error,
    parameter_error,
    prediction_error,
)
from .datagen import (
    NOISE_FAMILIES,
    NoiseSpec,
    SignalSpec,
    gen_deterministic_outlier_noise,
    gen_flat_lowrank,
    gen_gaussian_design,
    gen_lb_noise,
    gen_matrix_completion_scenario,
    gen_oblivious_noise_vector,
    gen_sparse_signal,
    lb_noise_params,
    make_gaussian_design_instance,
    make_pca_instance,
    make_regression_instance,
    stream_rng,
    trial_seed,
)
from .verification import (
    CertificateParams,
    LowRankCone,
    MetaCertificate,
    RscSamplingError,
    SparseCone,
    assemble_certificate,
    check_decomposability,
    check_gaussian_concentration,
    check_re_property,
    check_well_spread,
    estimate_rsc,
    gradient_bound_pca,
    gradient_bound_regression,
    measure_contraction,
    measure_gradient_dual_norm,
)
from .lowerbound import lb_alpha_of_xi, lb_xi_of_alpha
from .experiments import (
    SCENARIOS,
    ExperimentSpec,
    ResultRow,
    emit_csv,
    emit_report,
    fit_loglog_slope,
    parse_csv,
    run_experiment,
    scenario_assertions,
)

__version__ = "0.1.0"
