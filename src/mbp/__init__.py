"""Toolkit for binary autoregressive processes with multi-lag feedback.

Simulates N-dimensional Bernoulli time series whose spike probabilities are
driven by a sparse N x N x p interaction tensor through a clamped sigmoid,
fits the tensor by l1-penalized maximum likelihood, and verifies the mixing,
curvature and concentration quantities the estimation theory rests on via
exact desk-scale enumeration and Monte-Carlo trials.
"""

from .link import LinkSpec, sigmoid_link
from .tensor import (
    ParamTensor,
    SparsityReport,
    concentration_constant,
    mixing_norm,
    read_tensor,
    sparse_approx,
    stack_tensor,
    tensor_norm,
    unstack_tensor,
    write_tensor,
)
from .simulate import (
    SamplePath,
    design_matrix,
    random_sparse_theta,
    read_path,
    simulate,
    simulate_batch,
    write_path,
)
from .likelihood import (
    TrialReport,
    concentration_trial,
    grad_bound_trial,
    nll,
    nll_grad,
    quad_form,
    rsc_probe,
    taylor_remainder,
)
from .estimator import (
    ErrorMetrics,
    FitConfig,
    FitResult,
    error_metrics,
    fit,
    kkt_residual,
    lambda_policy,
    soft_threshold,
    support_top_s,
)
from .markov import (
    ContractionCheck,
    KernelMatrix,
    KlDecomposition,
    ResourceLimitError,
    build_kernel,
    contraction_check,
    dobrushin_coefficient,
    kl_chain_decomposition,
    mixing_coefficients,
)
from .spectral import (
    DECAY_FAMILIES,
    SpectralReport,
    decay_scaling_report,
    psd_estimate,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config_text
from .experiments import RunRecord, run_experiment

__version__ = "0.1.0"
