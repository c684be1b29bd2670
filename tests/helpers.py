"""Shared construction helpers for the test suite."""

import math
import os

import numpy as np

from mbp.link import LinkSpec
from mbp.markov import (
    build_kernel,
    contraction_check,
    mixing_bound_rows,
    mixing_coefficients,
)
from mbp.simulate import SamplePath
from mbp.tensor import ParamTensor, stack_tensor

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")

# check -> (N, p, diagnose.* keys) small enough for every check to run in well
# under a second; s = 0 keeps the concentration trial's mixing norm at 0
TINY_CHECKS = {
    "gf-bound": (1, 2, {"samples": 2}),
    "eta-bound": (1, 2, {"samples": 1, "n": 3}),
    "kl-decomp": (1, 2, {"samples": 1}),
    "psd": (1, 1, {"n": 2000, "segments": 4, "freq_points": 4, "s": 0}),
    "decay-table": (1, 2, {"p_values": "1,2"}),
    "grad-bound": (2, 1, {"n": 50, "replicates": 2, "s": 1}),
    "concentration": (100, 1, {"n": 50, "replicates": 2, "s": 0, "t": 0.5}),
    "rsc": (2, 1, {"n": 100, "directions": 2, "s": 1}),
}


def clamp_free_tensor(rng, n_dims, n_lags, link: LinkSpec, fill=0.8) -> ParamTensor:
    """Random tensor whose predictors stay strictly inside the clamp-free band.

    Binary regressors bound every predictor by the largest row l1 norm, so
    scaling rows to ``fill`` times the link's saturation point keeps the
    loss smooth on the whole segment the tests probe.
    """
    values = rng.standard_normal((n_dims, n_dims, n_lags))
    worst_row = np.abs(values).sum(axis=(1, 2)).max()
    return ParamTensor(values * (fill * link.saturation / max(worst_row, 1e-12)))


def path_from_rows(rows, n_lags) -> SamplePath:
    """Build a SamplePath from explicit binary rows (history rows first)."""
    return SamplePath(data=np.asarray(rows, dtype=np.uint8), n_lags=n_lags)


def scaled_to_mixing(rng, n_dims, n_lags, link, target) -> ParamTensor:
    """Random dense tensor rescaled to an exact mixing-norm value."""
    from mbp.tensor import mixing_norm

    values = rng.standard_normal((n_dims, n_dims, n_lags))
    base = ParamTensor(values)
    return ParamTensor(values * (target / mixing_norm(base, link)))


def mixing_row_sum_exact(theta, link, n) -> float:
    """max_k sum_{l >= k} eta_{k l}, the row-sum norm of the mixing matrix."""
    eta = mixing_coefficients(theta, link, n)
    return float(np.triu(eta).sum(axis=1).max())


def kl_bernoulli(p_: float, q_: float) -> float:
    """Exact KL divergence between Ber(p_) and Ber(q_)."""
    if not (0.0 < p_ < 1.0 and 0.0 < q_ < 1.0):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    return p_ * math.log(p_ / q_) + (1.0 - p_) * math.log((1.0 - p_) / (1.0 - q_))


def kl_bernoulli_bound(p_: float, q_: float, eps: float) -> float:
    """Quadratic upper bound 3 (p - q)^2 / (4 eps (1 - eps)).

    Valid whenever both probabilities lie in [eps, 1 - eps]; arguments
    outside that band are rejected.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    slack = 1e-12  # tolerate grid roundoff at the band edges
    if not (eps - slack <= p_ <= 1.0 - eps + slack and eps - slack <= q_ <= 1.0 - eps + slack):
        raise ValueError("probabilities must lie in [eps, 1 - eps]")
    return 3.0 / (4.0 * eps * (1.0 - eps)) * (p_ - q_) ** 2


def check_mixing_coefficient_bound(theta, link, n) -> bool:
    """Exact check of eta_{k l} <= mixing_coefficient_bound for all pairs k <= l <= n."""
    tau = contraction_check(theta, link).tau1_p_step
    rows = mixing_bound_rows(mixing_coefficients(theta, link, n), tau, theta.n_lags)
    return all(holds for *_, holds in rows)


def mixing_sum_bound(tau: float, p: int) -> float:
    """2 + 2 p^2 / (1/tau - 1)^2, valid bound on the squared row sum for tau < 1."""
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"tau must lie in [0, 1), got {tau}")
    if tau == 0.0:
        return 2.0
    return 2.0 + 2.0 * p * p / (1.0 / tau - 1.0) ** 2


def window_probs_oracle(theta, link):
    """(P, Q) of the lag windows, Q one block column at a time.

    P[s, i] is the probability that coordinate i is 1 after window s; Q[s, b]
    multiplies, for i in index order, P[s, i] where bit i of b is 1 and
    1 - P[s, i] where it is 0.
    """
    n_dims = theta.n_rows
    n_bits = n_dims * theta.n_lags
    states = np.arange(1 << n_bits)
    bits = ((states[:, None] >> np.arange(n_bits)) & 1).astype(np.float64)
    probs_one = np.asarray(link.eval(bits @ stack_tensor(theta).T))
    block_probs = np.empty((1 << n_bits, 1 << n_dims))
    for block in range(1 << n_dims):
        prob = np.ones(1 << n_bits)
        for i in range(n_dims):
            prob = prob * (probs_one[:, i] if (block >> i) & 1 else 1.0 - probs_one[:, i])
        block_probs[:, block] = prob
    return probs_one, block_probs


def kernel_oracle(theta, link) -> np.ndarray:
    """Dense one-step kernel: Q[s, b] of the oracle table at column ((s & keep) << N) | b."""
    n_dims = theta.n_rows
    block_probs = window_probs_oracle(theta, link)[1]
    n_states = block_probs.shape[0]
    rows = np.arange(n_states)[:, None]
    cols = ((rows & ((n_states >> n_dims) - 1)) << n_dims) | np.arange(1 << n_dims)
    kernel = np.zeros((n_states, n_states))
    kernel[rows, cols] = block_probs
    return kernel


def p_step_oracle(theta, link) -> np.ndarray:
    """p-step kernel as the p-th matrix power of the dense one-step kernel."""
    return np.linalg.matrix_power(build_kernel(theta, link).probs, theta.n_lags)


def p_step_by_paths(theta, link) -> np.ndarray:
    """p-step kernel column by column: along the one path of p steps from each
    start s to t, the oracle table's one-step probabilities multiplied in step
    order. Target t holds the first new block in its top bits."""
    n_dims, p = theta.n_rows, theta.n_lags
    block_probs = window_probs_oracle(theta, link)[1]
    n_states = block_probs.shape[0]
    starts = np.arange(n_states)
    kernel = np.empty((n_states, n_states))
    for target in range(n_states):
        window, prob = starts, np.ones(n_states)
        for step in reversed(range(p)):
            block = (target >> (step * n_dims)) & ((1 << n_dims) - 1)
            prob = prob * block_probs[window, block]
            window = ((window << n_dims) | block) & (n_states - 1)
        kernel[:, target] = prob
    return kernel
