"""Negative log-likelihood, gradient, quadratic form and empirical trials.

The normalized loss averages, over the n regression samples, the unclamped
logistic log-loss softplus(-m), m = (2y - 1) alpha u, of every coordinate
given its lagged predictor. It is smooth and convex, and equals the clamped
likelihood's loss wherever no |u| exceeds ``link.saturation``; the clamp
stays in the simulator and in ``markov``. Alongside the exact gradient this
module provides the curvature quadratic form that lower-bounds the Taylor
remainder, its exact stationary mean, plus three Monte-Carlo trials that
check the gradient sup-norm tail bound, the restricted curvature over cone
directions, and the concentration of the quadratic form around its long-run
mean. The two tail trials simulate all their replicates in one batched chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, markov
from .link import LinkSpec
from .simulate import (
    DEFAULT_BURN_IN,
    SamplePath,
    child_seeds,
    design_matrix,
    simulate,
    simulate_batch,
)
from .tensor import (
    ParamTensor,
    concentration_constant,
    mixing_norm,
    sparse_approx,
    stack_tensor,
    tensor_norm,
    unstack_tensor,
)

__all__ = [
    "nll",
    "nll_grad",
    "quad_form",
    "stationary_quad_form",
    "taylor_remainder",
    "TrialReport",
    "grad_bound_trial",
    "rsc_probe",
    "concentration_trial",
]

# Largest N p for which concentration_trial takes the exact long-run mean. The
# exact mean builds a dense 2^(N p) kernel and solves it (cubic in the state
# count); on one BLAS thread it takes 0.11 s at 10 bits against 1.5 s for the
# 10^6-term reference chain, 0.69 s and twice the chain's peak memory at 11
# bits, and 2.4 s against 0.9 s at 12 bits. At 10 bits its largest array is
# the size of the 1024-state kernel the gf-bound check already builds.
EXACT_MEAN_MAX_BITS = 10
# scalar terms (steps times N) of the reference chain that estimates the
# long-run mean above EXACT_MEAN_MAX_BITS
REFERENCE_TERMS = 10**6


def _check_shapes(theta: ParamTensor, path: SamplePath) -> None:
    if theta.values.shape != (path.n_dims, path.n_dims, path.n_lags):
        raise ValueError(
            f"tensor shape {theta.values.shape} does not match path with "
            f"N={path.n_dims}, p={path.n_lags}"
        )


def nll(theta: ParamTensor, path: SamplePath, link: LinkSpec) -> float:
    """Normalized negative log-likelihood of the path under ``theta``."""
    return nll_grad(theta, path, link)[0]


def nll_grad(theta: ParamTensor, path: SamplePath, link: LinkSpec) -> tuple[float, ParamTensor]:
    """(:func:`nll`, its exact gradient) in one pass.

    The gradient's (i, j) entry averages alpha (sigmoid(alpha u_i) - y_i)
    times the binary regressor j, so its magnitude is at most alpha.
    """
    _check_shapes(theta, path)
    X = design_matrix(path)
    Y = path.samples().astype(np.float64)
    value, grad_mat, _ = _nll_grad_on_design(stack_tensor(theta), X, Y, link)
    return value, unstack_tensor(grad_mat, theta.n_lags)


def _nll_grad_on_design(stacked, X, Y, link, rows=slice(None), pred=None):
    # shared hot path of nll_grad, kkt_residual and the solver: one predictor
    # matmul (none at zero or on the solver's carried ``pred``), fused pass and
    # residual matmul on output ``rows`` alone; returns (value, stacked
    # gradient of those rows, all predictors (n, N))
    n = X.shape[0]
    if pred is None:
        pred = X @ stacked.T if stacked.any() else np.zeros((n, stacked.shape[0]))
    loss, resid = _kernels.bernoulli_loss_terms(pred[:, rows], Y[:, rows], link.alpha, True)
    return loss / n, (resid.T @ X) / n, pred


def quad_form(delta: ParamTensor, path: SamplePath, link: LinkSpec) -> float:
    """Curvature quadratic form (c / n) sum_t sum_k <Delta_k, X^{t-1}>^2.

    Evaluated lag by lag on the raw path; equals (c / n) times the squared
    Frobenius norm of the design matrix applied to the stacked tensor.
    """
    _check_shapes(delta, path)
    total = _kernels.lagged_square_sum(path.data, delta.values)
    return link.curvature * total / path.n


def stationary_quad_form(delta: ParamTensor, theta: ParamTensor, link: LinkSpec) -> float:
    """Exact long-run mean of :func:`quad_form` of ``delta`` on paths of ``theta``.

    c sum_s pi(s) ||Delta s||^2 over the 2^(N p) lag windows s, with pi the
    stationary law of the block kernel (:func:`markov.stationary_law`) and
    Delta the stacked ``delta``; a window's bit vector is ordered like the
    stacked columns. Needs N p <= ``markov.MAX_KERNEL_BITS``; time and
    memory grow with 2^(N p), see ``EXACT_MEAN_MAX_BITS``.
    """
    if theta.values.shape != delta.values.shape:
        raise ValueError("theta and delta shapes differ")
    pi = markov.stationary_law(markov.build_kernel(theta, link))
    inner = markov._state_bit_matrix(theta.n_rows * theta.n_lags) @ stack_tensor(delta).T
    return link.curvature * float(pi @ (inner * inner).sum(axis=1))


def taylor_remainder(
    theta_star: ParamTensor, delta: ParamTensor, path: SamplePath, link: LinkSpec
) -> float:
    """First-order Taylor remainder of the loss around ``theta_star``.

    nll(theta* + delta) - nll(theta*) - <grad nll(theta*), delta>. On
    clamp-free instances this dominates :func:`quad_form` of the same delta.
    """
    _check_shapes(theta_star, path)
    if theta_star.values.shape != delta.values.shape:
        raise ValueError("theta_star and delta shapes differ")
    X = design_matrix(path)
    Y = path.samples().astype(np.float64)
    base, shift = stack_tensor(theta_star), stack_tensor(delta)
    value, grad, _ = _nll_grad_on_design(base, X, Y, link)
    inner = float((grad * shift).sum())
    return _nll_grad_on_design(base + shift, X, Y, link)[0] - value - inner


# ---------------------------------------------------------------------------
# empirical trials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialReport:
    """Per-replicate statistics of a Monte-Carlo trial.

    ``rows`` has one (replicate, statistic, bound, violated) tuple per
    replicate; ``rate`` is the violation fraction and ``bound_rate`` the
    probability bound the trial is checked against (nan when the trial has
    no rate-level bound).
    """

    name: str
    rows: tuple
    rate: float
    bound_rate: float


def _tail_report(name: str, stats, threshold: float, bound_rate: float) -> TrialReport:
    """The report of replicate statistics ``stats`` against one ``threshold``."""
    rows = tuple((rep, stat, threshold, stat > threshold) for rep, stat in enumerate(stats))
    return TrialReport(name, rows, sum(v for *_, v in rows) / len(rows), bound_rate)


def grad_bound_trial(
    theta_star: ParamTensor,
    link: LinkSpec,
    n: int,
    c1: float,
    replicates: int,
    seed: int,
    burn_in: int = DEFAULT_BURN_IN,
) -> TrialReport:
    """Fraction of simulated paths whose gradient sup-norm beats the tail bound.

    The bound is (lipschitz / eps) * sqrt(c1 log(N^2 p) / n); the martingale
    tail argument makes the violation probability at most (N^2 p)^(1 - c1/2),
    which requires c1 > 2.
    """
    if c1 <= 2:
        raise ValueError(f"c1 must exceed 2, got {c1}")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    dim = theta_star.n_entries
    bound = (link.lipschitz / link.eps) * math.sqrt(c1 * math.log(dim) / n)
    paths = simulate_batch(theta_star, link, n, child_seeds(seed, replicates), burn_in=burn_in)
    stats = [tensor_norm(nll_grad(theta_star, path, link)[1], "inf") for path in paths]
    return _tail_report("grad_bound", stats, bound, dim ** (1.0 - c1 / 2.0))


def rsc_probe(
    theta_star: ParamTensor,
    link: LinkSpec,
    path: SamplePath,
    s: int,
    n_directions: int,
    seed: int,
) -> float:
    """Empirical restricted curvature over random cone directions.

    Directions place standard-normal mass on the best-s support of
    ``theta_star`` and scale off-support noise to sit inside the error cone
    (off-support l1 mass at most 3x the on-support mass plus 4x the sparse
    approximation residual, hit with a uniform slack factor). Returns the
    minimum of quad_form(direction) / ||direction||_F^2.
    """
    if n_directions < 1:
        raise ValueError("n_directions must be >= 1")
    _check_shapes(theta_star, path)
    report = sparse_approx(theta_star, s)
    shape = theta_star.values.shape
    on_mask = np.zeros(shape, dtype=bool)
    for idx in report.support:
        on_mask[idx] = True
    rng = np.random.default_rng(int(seed))
    best = math.inf
    for _ in range(n_directions):
        direction = np.zeros(shape)
        direction[on_mask] = rng.standard_normal(int(on_mask.sum()))
        off_budget = 3.0 * np.abs(direction).sum() + 4.0 * report.l1_residual
        n_off = int((~on_mask).sum())
        if n_off and off_budget > 0:
            noise = rng.standard_normal(n_off)
            l1 = np.abs(noise).sum()
            if l1 > 0:
                slack = rng.uniform()
                direction[~on_mask] = noise * (slack * off_budget / l1)
        norm_sq = float((direction * direction).sum())
        if norm_sq == 0.0:
            continue
        value = quad_form(ParamTensor(direction), path, link) / norm_sq
        best = min(best, value)
    return 0.0 if math.isinf(best) else best


def concentration_trial(
    theta_star: ParamTensor,
    link: LinkSpec,
    delta: ParamTensor,
    n: int,
    t: float,
    replicates: int,
    seed: int,
    burn_in: int = DEFAULT_BURN_IN,
) -> TrialReport:
    """Tail rate of |quad_form - its long-run mean| over fresh simulations.

    When N p <= ``EXACT_MEAN_MAX_BITS`` (10) the long-run mean is exact
    (:func:`stationary_quad_form`); above it the exact mean costs more than
    the chain, so it is estimated once from a single held-out run with
    ``REFERENCE_TERMS`` scalar terms. The replicates are simulated in one
    batched chain. Deviations are compared against t * ||delta||_{2,1,1}^2
    and the rate against 2 exp(-n t^2 / G) with G the concentration constant
    of ``theta_star``. Requires mixing norm below 1.
    """
    if mixing_norm(theta_star, link) >= 1.0:
        raise ValueError("concentration trial requires mixing norm below 1")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if theta_star.values.shape != delta.values.shape:
        raise ValueError("theta_star and delta shapes differ")
    # seeds[0] belongs to the fallback reference run, so replicate seeds
    # do not depend on which way the mean is taken
    seeds = child_seeds(seed, replicates + 1)
    if theta_star.n_rows * theta_star.n_lags <= EXACT_MEAN_MAX_BITS:
        e_mean = stationary_quad_form(delta, theta_star, link)
    else:
        n_ref = max(n, math.ceil(REFERENCE_TERMS / theta_star.n_rows))
        mega = simulate(theta_star, link, n_ref, burn_in=burn_in, seed=seeds[0])
        e_mean = quad_form(delta, mega, link)
    threshold = t * tensor_norm(delta, "211") ** 2
    paths = simulate_batch(theta_star, link, n, seeds[1:], burn_in=burn_in)
    devs = [abs(quad_form(delta, path, link) - e_mean) for path in paths]
    g = concentration_constant(theta_star, link)
    return _tail_report("concentration", devs, threshold, 2.0 * math.exp(-n * t * t / g))
