"""Exact small-scale Markov machinery for the binary process.

A process with p feedback lags is a Markov chain on blocks of p consecutive
states. At desk scale the block kernel can be built exactly, which makes the
contraction coefficient, the mixing coefficients of the sequence, and the
Kullback-Leibler decomposition of block laws all computable by enumeration.
These exact quantities back the inequality checks that the estimation theory
relies on.

State encoding (fixed): a block over {0,1}^N with p lags is the integer whose
bit (u * N + i) holds coordinate i of the state u lags back, u = 0 being the
most recent. The bit vector of a state therefore matches the column order of
the design matrix and of the stacked tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .link import LinkSpec
from .tensor import ParamTensor, mixing_norm, stack_tensor

__all__ = [
    "ResourceLimitError",
    "KernelMatrix",
    "build_kernel",
    "stationary_law",
    "dobrushin_coefficient",
    "ContractionCheck",
    "contraction_check",
    "mixing_coefficient_exact",
    "mixing_coefficients",
    "check_mixing_coefficient_bound",
    "mixing_coefficient_bound",
    "mixing_row_sum_exact",
    "mixing_sum_bound",
    "kl_bernoulli",
    "kl_bernoulli_bound",
    "KlDecomposition",
    "kl_chain_decomposition",
    "state_to_history",
]

MAX_KERNEL_BITS = 14
MAX_KL_BITS = 10
MAX_ENUM_BITS = 20


class ResourceLimitError(ValueError):
    """Raised when an exact enumeration would exceed its hard size cap."""


@dataclass(frozen=True)
class KernelMatrix:
    """Row-stochastic one-step kernel of the p-block chain."""

    probs: np.ndarray
    n_dims: int
    n_lags: int

    @property
    def state_bits(self) -> int:
        return self.n_dims * self.n_lags

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]


def _state_bit_matrix(n_bits: int) -> np.ndarray:
    states = np.arange(1 << n_bits, dtype=np.int64)
    return ((states[:, None] >> np.arange(n_bits)[None, :]) & 1).astype(np.float64)


def state_to_history(state: int, n_dims: int, n_lags: int) -> np.ndarray:
    """Decode a state integer into a (p, N) array, most recent lag in row 0."""
    bits = [(state >> (u * n_dims + i)) & 1 for u in range(n_lags) for i in range(n_dims)]
    return np.array(bits, dtype=np.uint8).reshape(n_lags, n_dims)


def build_kernel(theta: ParamTensor, link: LinkSpec) -> KernelMatrix:
    """Exact one-step kernel of the block chain induced by ``theta``.

    Requires N * p <= 14 (at most 16384 states). Each row holds 2^N nonzero
    entries: the new state keeps the previous blocks shifted one lag back,
    so transitions violating the shift constraint have probability zero.
    """
    if not theta.is_square:
        raise ValueError("process tensor must be square")
    n_dims, p = theta.n_rows, theta.n_lags
    n_bits = n_dims * p
    if n_bits > MAX_KERNEL_BITS:
        raise ResourceLimitError(
            f"state space needs {n_bits} bits, cap is {MAX_KERNEL_BITS}"
        )
    n_states = 1 << n_bits
    bits = _state_bit_matrix(n_bits)
    probs_one = np.asarray(link.eval(bits @ stack_tensor(theta).T))  # (states, N)
    kernel = np.zeros((n_states, n_states))
    keep_mask = (1 << (n_dims * (p - 1))) - 1
    shifted = (np.arange(n_states) & keep_mask) << n_dims
    for block in range(1 << n_dims):
        prob = np.ones(n_states)
        for i in range(n_dims):
            if (block >> i) & 1:
                prob = prob * probs_one[:, i]
            else:
                prob = prob * (1.0 - probs_one[:, i])
        kernel[np.arange(n_states), shifted | block] = prob
    return KernelMatrix(probs=kernel, n_dims=n_dims, n_lags=p)


def stationary_law(kernel: KernelMatrix) -> np.ndarray:
    """Stationary distribution pi of the block chain, by one linear solve.

    Solves pi (P - I + 1 1') = 1', which holds exactly for the pi with
    pi P = pi and sum(pi) = 1. Its solution is unique because every state
    reaches every other in p steps with positive probability (the clamp keeps
    each draw's probability at least eps). Indexed by the state encoding.
    """
    system = kernel.probs.T + 1.0
    system[np.diag_indices_from(system)] -= 1.0
    return np.linalg.solve(system, np.ones(kernel.n_states))


def dobrushin_coefficient(kernel) -> float:
    """Largest total-variation distance between two rows of a stochastic matrix."""
    P = kernel.probs if isinstance(kernel, KernelMatrix) else np.asarray(kernel, float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("kernel must be a square matrix")
    if P.min() < -1e-12 or np.abs(P.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValueError("kernel is not row-stochastic")
    worst = 0.0
    for i in range(P.shape[0] - 1):
        d = 0.5 * np.abs(P[i + 1 :] - P[i]).sum(axis=1).max()
        worst = max(worst, float(d))
    return worst


@dataclass(frozen=True)
class ContractionCheck:
    """Dobrushin coefficient of the p-step kernel against the mixing norm."""

    tau1_p_step: float
    mixing_norm_value: float
    holds: bool


def contraction_check(theta: ParamTensor, link: LinkSpec) -> ContractionCheck:
    """Verify that the p-step chain contracts at least as fast as the mixing norm.

    Builds the block kernel exactly, raises it to the p-th power, and checks
    tau1 <= mixing_norm(theta) + 1e-10.
    """
    kernel = build_kernel(theta, link)
    p_step = np.linalg.matrix_power(kernel.probs, theta.n_lags)
    tau1 = dobrushin_coefficient(p_step)
    m = mixing_norm(theta, link)
    return ContractionCheck(tau1_p_step=tau1, mixing_norm_value=m, holds=tau1 <= m + 1e-10)


# ---------------------------------------------------------------------------
# exact mixing coefficients by path enumeration
# ---------------------------------------------------------------------------


def _path_law(theta: ParamTensor, link: LinkSpec, n: int, start_state: int) -> np.ndarray:
    """Joint law of n chain steps started from a fixed p-block history.

    Paths are encoded as integers with step t occupying bits
    [(t-1) * N, t * N). Returned vector has length 2^(N n) and sums to 1.
    """
    n_dims, p = theta.n_rows, theta.n_lags
    stacked = stack_tensor(theta)
    start_hist = state_to_history(start_state, n_dims, p)  # (p, N) recent first
    probs = np.ones(1)
    for t in range(1, n + 1):
        n_prefix = probs.size
        prefix = np.arange(n_prefix, dtype=np.int64)
        pred = np.zeros((n_prefix, n_dims))
        for lag in range(1, p + 1):
            src = t - lag
            for j in range(n_dims):
                if src >= 1:
                    bit = ((prefix >> ((src - 1) * n_dims + j)) & 1).astype(np.float64)
                else:
                    bit = float(start_hist[-src, j])  # lag reaching into the start block
                for i in range(n_dims):
                    w = stacked[i, (lag - 1) * n_dims + j]
                    if w != 0.0:
                        pred[:, i] += w * bit
        z = np.asarray(link.eval(pred))
        new = np.empty(n_prefix << n_dims)
        for block in range(1 << n_dims):
            cond = np.ones(n_prefix)
            for i in range(n_dims):
                cond = cond * (z[:, i] if (block >> i) & 1 else 1.0 - z[:, i])
            new[block * n_prefix : (block + 1) * n_prefix] = probs * cond
        probs = new
    return probs


def _check_enum_budget(n_dims: int, n_lags: int, n: int) -> None:
    bits = n_dims * (n + n_lags)
    if bits > MAX_ENUM_BITS:
        raise ResourceLimitError(
            f"enumeration needs {bits} joint bits, cap is {MAX_ENUM_BITS}"
        )


def mixing_coefficients(theta: ParamTensor, link: LinkSpec, n: int) -> np.ndarray:
    """Exact mixing coefficients eta[k, l] of an n-step sequence, 1-based in (k, l).

    eta[k, l] is the worst-case total-variation change of the joint law of
    steps l..n caused by switching step k's value, maximized over the shared
    prefix, the switched pair, and the fixed pre-history block the chain was
    started from. Entry [k-1, l-1] of the returned (n, n) array; zero below
    the diagonal, and eta[k, k] = 1 by the point-mass convention.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    n_dims, p = theta.n_rows, theta.n_lags
    _check_enum_budget(n_dims, p, n)
    block = 1 << n_dims
    eta = np.zeros((n, n))
    for k in range(1, n + 1):
        eta[k - 1, k - 1] = 1.0
    for start_state in range(1 << (n_dims * p)):
        law = _path_law(theta, link, n, start_state)
        for k in range(1, n + 1):
            n_suffix = 1 << (n_dims * (n - k))
            n_prefix = 1 << (n_dims * (k - 1))
            cube = law.reshape(n_suffix, block, n_prefix)
            totals = cube.sum(axis=0)  # (w, y) prefix masses
            cond = cube / totals[None, :, :]
            for l in range(k + 1, n + 1):
                n_block = 1 << (n_dims * (n - l + 1))
                n_mid = n_suffix // n_block
                marg = cond.reshape(n_block, n_mid, block, n_prefix).sum(axis=1)
                worst = 0.0
                for w1 in range(block - 1):
                    d = (
                        0.5
                        * np.abs(marg[:, w1 + 1 :, :] - marg[:, w1 : w1 + 1, :])
                        .sum(axis=0)
                        .max()
                    )
                    worst = max(worst, float(d))
                eta[k - 1, l - 1] = max(eta[k - 1, l - 1], worst)
    return eta


def mixing_coefficient_exact(
    theta: ParamTensor, link: LinkSpec, n: int, k: int, l: int
) -> float:
    """Single exact mixing coefficient eta_{k l} (1-based, k <= l <= n)."""
    if not 1 <= k <= l <= n:
        raise ValueError(f"need 1 <= k <= l <= n, got k={k}, l={l}, n={n}")
    return float(mixing_coefficients(theta, link, n)[k - 1, l - 1])


def mixing_coefficient_bound(tau: float, p: int, k: int, l: int) -> float:
    """tau^(1 + floor((l-k-1)/p)), the bound on eta_{k l} from the p-step contraction tau."""
    return tau ** (1 + (l - k - 1) // p)


def check_mixing_coefficient_bound(theta: ParamTensor, link: LinkSpec, n: int) -> bool:
    """Exact check of eta_{k l} <= mixing_coefficient_bound for all pairs k <= l <= n."""
    tau = contraction_check(theta, link).tau1_p_step
    eta = mixing_coefficients(theta, link, n)
    for k in range(1, n + 1):
        for l in range(k, n + 1):
            bound = mixing_coefficient_bound(tau, theta.n_lags, k, l)
            if eta[k - 1, l - 1] > bound + 1e-10:
                return False
    return True


def mixing_row_sum_exact(theta: ParamTensor, link: LinkSpec, n: int) -> float:
    """max_k sum_{l >= k} eta_{k l}, the row-sum norm of the mixing matrix."""
    eta = mixing_coefficients(theta, link, n)
    return float(np.triu(eta).sum(axis=1).max())


def mixing_sum_bound(tau: float, p: int) -> float:
    """2 + 2 p^2 / (1/tau - 1)^2, valid bound on the squared row sum for tau < 1."""
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"tau must lie in [0, 1), got {tau}")
    if tau == 0.0:
        return 2.0
    return 2.0 + 2.0 * p * p / (1.0 / tau - 1.0) ** 2


# ---------------------------------------------------------------------------
# Kullback-Leibler lemmas
# ---------------------------------------------------------------------------


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


@dataclass(frozen=True)
class KlDecomposition:
    """Block KL divergence versus its chain-rule decomposition."""

    lhs: float
    rhs: float
    agree: bool


def kl_chain_decomposition(
    theta: ParamTensor, link: LinkSpec, z_state: int, y_state: int
) -> KlDecomposition:
    """KL between p-block laws started from two histories, both ways.

    ``lhs`` is the exact divergence between the two next-block laws (rows of
    the p-step kernel); ``rhs`` accumulates, step by step, the expected
    one-step divergences along hybrid histories whose sampled part follows
    the first law. The two agree to 1e-10 for every p-Markov chain.
    """
    n_dims, p = theta.n_rows, theta.n_lags
    if n_dims * p > MAX_KL_BITS:
        raise ResourceLimitError(
            f"block enumeration needs {n_dims * p} bits, cap is {MAX_KL_BITS}"
        )
    kernel = build_kernel(theta, link)
    p_step = np.linalg.matrix_power(kernel.probs, p)
    row_z = p_step[z_state]
    row_y = p_step[y_state]
    lhs = float((row_z * np.log(row_z / row_y)).sum())

    stacked = stack_tensor(theta)
    hist_z = state_to_history(z_state, n_dims, p).astype(np.float64)
    hist_y = state_to_history(y_state, n_dims, p).astype(np.float64)

    def step_probs(recent, start):
        # recent: list of sampled states, most recent first; start fills the rest
        window = np.concatenate([np.array(recent[:p]).reshape(-1, n_dims), start])[:p]
        return np.asarray(link.eval(stacked @ window.ravel()))

    rhs = 0.0
    # partial paths are enumerated most recent state first
    partials = [([], 1.0)]
    for _ in range(1, p + 1):
        contrib = 0.0
        next_partials = []
        for recent, weight in partials:
            pz = step_probs(recent, hist_z)
            py = step_probs(recent, hist_y)
            contrib += weight * sum(
                kl_bernoulli(float(a), float(b)) for a, b in zip(pz, py)
            )
            for block in range(1 << n_dims):
                bits = np.array([(block >> i) & 1 for i in range(n_dims)], float)
                prob = float(np.prod(np.where(bits > 0, pz, 1.0 - pz)))
                next_partials.append(([bits] + recent, weight * prob))
        rhs += contrib
        partials = next_partials
    return KlDecomposition(lhs=lhs, rhs=rhs, agree=abs(lhs - rhs) <= 1e-10)
