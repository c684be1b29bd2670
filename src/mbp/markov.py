"""Exact small-scale Markov machinery for the binary process.

A process with p feedback lags is a Markov chain on blocks of p consecutive
states. At desk scale the block kernel can be built exactly, which makes the
contraction coefficient, the mixing coefficients of the sequence, and the
Kullback-Leibler decomposition of block laws all computable by enumeration.
These exact quantities back the inequality checks that the estimation theory
relies on.

Everything here reads one table, the draw probabilities of each of the
2^(N p) lag windows (``_window_probs``). The kernel scatters its block
probabilities into rows. Every path law, the p-step kernel among them, is
built by ``_path_law`` for all start windows at once, as an array indexed
by (start, path), so no Python loop runs over start states or state pairs.
At most one path of p steps joins two windows, so the p-step kernel is no
matrix power. Each enumeration first checks its size with ``_check_bits``.

State encoding (fixed): a block over {0,1}^N with p lags is the integer whose
bit (u * N + i) holds coordinate i of the state u lags back, u = 0 being the
most recent. The bit vector of a state therefore matches the column order of
the design matrix and of the stacked tensor.
"""

from __future__ import annotations

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
    "mixing_coefficients",
    "mixing_coefficient_bound",
    "mixing_bound_rows",
    "KlDecomposition",
    "kl_chain_decomposition",
]

MAX_KERNEL_BITS = 14
MAX_KL_BITS = 10
MAX_ENUM_BITS = 20
# pivot rows of the pruned Dobrushin scan; on dense 1024-state p-step kernels
# 8 pivots leave under 0.5 % of the row pairs to evaluate, and were faster
# than 2, 4 or 12
DOBRUSHIN_PIVOTS = 8
# covers the rounding of the distances in a triangle bound and of the pair it
# bounds: a sum of S terms totalling at most 2 is off by under S ulps, about
# 4e-12 at the 2^14 states of MAX_KERNEL_BITS
_PRUNE_SLACK = 1e-9


class ResourceLimitError(ValueError):
    """Raised when an exact enumeration would exceed its hard size cap."""


@dataclass(frozen=True)
class KernelMatrix:
    """Row-stochastic one-step kernel of the p-block chain, (S, S) with
    S = 2^(N p), indexed by the state encoding; its tensor gives N and p."""

    probs: np.ndarray

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]


def _state_bit_matrix(n_bits: int) -> np.ndarray:
    states = np.arange(1 << n_bits, dtype=np.int64)
    return ((states[:, None] >> np.arange(n_bits)[None, :]) & 1).astype(np.float64)


def _window_probs(theta: ParamTensor, link: LinkSpec) -> tuple[np.ndarray, np.ndarray]:
    """Draw probabilities after each of the 2^(N p) lag windows.

    Returns ``P``, shape (S, N), with P[s, i] the probability that coordinate
    i of the next state is 1 after window s, and ``Q``, shape (S, 2^N), with
    Q[s, b] the probability that the next state is block b. Q is filled in
    place by doubling: bit i writes columns [0, 2^i) times P[:, i] into
    [2^i, 2^(i+1)), then scales [0, 2^i) by 1 - P[:, i], so each entry
    multiplies its N factors in index order. Q[s, b] is the kernel entry
    from s to ``((s & keep) << N) | b``.
    """
    n_dims = theta.n_rows
    n_bits = n_dims * theta.n_lags
    probs_one = np.asarray(link.eval(_state_bit_matrix(n_bits) @ stack_tensor(theta).T))
    block_probs = np.ones((1 << n_bits, 1 << n_dims))
    for i in range(n_dims):
        low, high = block_probs[:, : 1 << i], block_probs[:, 1 << i : 2 << i]
        np.multiply(low, probs_one[:, i : i + 1], out=high)
        low *= 1.0 - probs_one[:, i : i + 1]
    return probs_one, block_probs


def _extend_paths(law: np.ndarray, block_probs: np.ndarray) -> np.ndarray:
    """Path weights one step longer, from the (S, 2^(N k)) weights ``law``.

    Block b of the new step takes the low bits of the path index. A path of
    k < p steps from start z = hi << N (p-k) | u reads window u << N k | c
    after its blocks c, whatever hi is; a path of k >= p steps reads only
    its last p blocks, the low N p bits of c. So with ``n_kept`` =
    max(S / 2^(N k), 1) start values u and ``width`` = min(2^(N k), S) read
    path values, this is one broadcast product of ``law`` with
    ``_window_probs``'s Q reshaped to (u, c, b), written to a new array.
    """
    n_states, block = block_probs.shape
    n_paths = law.shape[1]
    n_kept, width = max(n_states // n_paths, 1), min(n_paths, n_states)
    new = np.empty((n_states, n_paths * block))
    np.multiply(law.reshape(-1, n_kept, n_paths // width, width, 1),
                block_probs.reshape(n_kept, 1, width, block),
                out=new.reshape(-1, n_kept, n_paths // width, width, block))
    return new


def _path_law(block_probs: np.ndarray, steps: int) -> np.ndarray:
    """(S, 2^(N steps)) weights of the paths of ``steps`` blocks from each
    start window, newest block in the low bits. At steps = p this is P^p:
    at most one path of p steps joins two windows, and its entry multiplies
    the one-step probabilities along it left to right, as
    ``np.linalg.matrix_power`` does for p <= 3 (for larger p it pairs them
    otherwise, and may differ in the last few bits)."""
    law = np.ones((block_probs.shape[0], 1))
    for _ in range(steps):
        law = _extend_paths(law, block_probs)
    return law


def _check_bits(theta: ParamTensor, bits: int, cap: int) -> None:
    """Refuse a non-square tensor, then an enumeration over more than ``cap`` bits."""
    if not theta.is_square:
        raise ValueError("process tensor must be square")
    if bits > cap:
        raise ResourceLimitError(f"enumeration over {bits} bits exceeds the cap {cap}")


def build_kernel(theta: ParamTensor, link: LinkSpec) -> KernelMatrix:
    """Exact one-step kernel of the block chain induced by ``theta``.

    Requires N * p <= 14 (at most 16384 states). Each row holds 2^N nonzero
    entries: the new state keeps the previous blocks shifted one lag back,
    so transitions violating the shift constraint have probability zero.
    """
    _check_bits(theta, theta.n_rows * theta.n_lags, MAX_KERNEL_BITS)
    block_probs = _window_probs(theta, link)[1]
    n_states = block_probs.shape[0]
    n_kept = n_states // block_probs.shape[1]
    # row s is nonzero only in the 2^N columns of the window that keeps s's
    # newest p - 1 blocks, shifted one lag back
    kernel = np.zeros((n_states, n_states))
    rows = np.arange(n_states)
    kernel.reshape(n_states, n_kept, -1)[rows, rows % n_kept] = block_probs
    return KernelMatrix(probs=kernel)


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
    """Largest total-variation distance between two rows of a stochastic matrix.

    Exact, with pruning. The distance of every row to a few pivot rows
    (``DOBRUSHIN_PIVOTS``, each the row farthest from the pivots before it)
    is computed first; the largest of these starts the running maximum.
    A pair (i, j) is then evaluated only when its triangle bound
    min_k d(i, k) + d(k, j) plus ``_PRUNE_SLACK`` exceeds that maximum, so a
    skipped pair cannot beat it. Every evaluated distance is
    0.5 * sum |P[j] - P[i]| over one contiguous row, the float a scan of all
    pairs computes for that pair (|a - b| == |b - a| exactly), so the result
    equals that scan's bit for bit. With all distances equal (a permutation
    matrix) nothing prunes, and the cost is the full scan's plus the pivots'.
    """
    P = np.ascontiguousarray(kernel, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("kernel must be a square matrix")
    if not np.isfinite(P).all():
        raise ValueError("kernel has non-finite entries")
    if P.min() < -1e-12 or np.abs(P.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValueError("kernel is not row-stochastic")
    pivot_dist = _pivot_distances(P)
    worst = float(pivot_dist.max())
    for i in range(P.shape[0] - 1):
        bound = (pivot_dist[:, i : i + 1] + pivot_dist[:, i + 1 :]).min(axis=0)
        rows = np.flatnonzero(bound + _PRUNE_SLACK > worst) + (i + 1)
        if rows.size:
            worst = max(worst, float(0.5 * np.abs(P[rows] - P[i]).sum(axis=1).max()))
    return worst


def _pivot_distances(P: np.ndarray) -> np.ndarray:
    """(pivots, S) total-variation distances of every row to each pivot row.

    Pivots are taken farthest-first from row 0: the next pivot is the row
    whose nearest pivot is farthest away. All pivots share one difference
    buffer, so the peak holds one extra copy of P.
    """
    diff = np.empty_like(P)
    nearest = np.full(P.shape[0], np.inf)
    pivot, rows = 0, []
    for _ in range(min(DOBRUSHIN_PIVOTS, P.shape[0])):
        np.abs(np.subtract(P, P[pivot], out=diff), out=diff)
        rows.append(0.5 * diff.sum(axis=1))
        nearest = np.minimum(nearest, rows[-1])
        pivot = int(nearest.argmax())
    return np.array(rows)


@dataclass(frozen=True)
class ContractionCheck:
    """Dobrushin coefficient of the p-step kernel against the mixing norm."""

    tau1_p_step: float
    mixing_norm_value: float
    holds: bool


def contraction_check(theta: ParamTensor, link: LinkSpec) -> ContractionCheck:
    """Verify that the p-step chain contracts at least as fast as the mixing norm.

    Builds the p-step kernel exactly as the law of p-step paths
    (``_path_law``), without the one-step kernel, and checks
    tau1 <= mixing_norm(theta) + 1e-10.
    """
    _check_bits(theta, theta.n_rows * theta.n_lags, MAX_KERNEL_BITS)
    tau1 = dobrushin_coefficient(_path_law(_window_probs(theta, link)[1], theta.n_lags))
    m = mixing_norm(theta, link)
    return ContractionCheck(tau1_p_step=tau1, mixing_norm_value=m, holds=tau1 <= m + 1e-10)


# ---------------------------------------------------------------------------
# exact mixing coefficients by path enumeration
# ---------------------------------------------------------------------------


def mixing_coefficients(theta: ParamTensor, link: LinkSpec, n: int) -> np.ndarray:
    """Exact mixing coefficients eta[k, l] of an n-step sequence, 1-based in (k, l).

    eta[k, l] is the worst-case total-variation change of the joint law of
    steps l..n caused by switching step k's value, maximized over the shared
    prefix, the switched pair, and the fixed pre-history block the chain was
    started from. Entry [k-1, l-1] of the returned (n, n) array; zero below
    the diagonal, and eta[k, k] = 1 by the point-mass convention.

    The laws of the n-step paths of all 2^(N p) starts are built together
    (``_path_law``), then turned around so that row z of the
    (S, 2^(N n)) law holds the paths started from window z with step t in
    bits [(t-1) N, t N). The maxima over prefixes, pairs and starts are taken
    over whole arrays. Each sum runs over the same axis, in the same order, as
    one start's alone, so the result does not depend on how many starts
    share it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    n_dims = theta.n_rows
    _check_bits(theta, n_dims * (n + theta.n_lags), MAX_ENUM_BITS)
    _, block_probs = _window_probs(theta, link)
    n_states, block = block_probs.shape
    law = _path_law(block_probs, n)
    # _path_law puts the newest step in the low bits: reverse the steps
    steps = law.reshape((n_states,) + (block,) * n).transpose(0, *range(n, 0, -1))
    law = steps.reshape(n_states, -1)
    eta = np.eye(n)
    for k in range(1, n + 1):
        n_suffix = 1 << (n_dims * (n - k))
        n_prefix = 1 << (n_dims * (k - 1))
        cube = law.reshape(n_states, n_suffix, block, n_prefix)
        cond = cube / cube.sum(axis=1, keepdims=True)  # given (start, w, prefix)
        for l in range(k + 1, n + 1):
            n_block = 1 << (n_dims * (n - l + 1))
            marg = cond.reshape(n_states, n_block, -1, block, n_prefix).sum(axis=2)
            for w1 in range(block - 1):
                d = np.abs(marg[:, :, w1 + 1 :] - marg[:, :, w1 : w1 + 1]).sum(axis=1).max()
                eta[k - 1, l - 1] = max(eta[k - 1, l - 1], float(0.5 * d))
    return eta


def mixing_coefficient_bound(tau: float, p: int, k: int, l: int) -> float:
    """tau^(1 + floor((l-k-1)/p)), the bound on eta_{k l} from the p-step contraction tau."""
    return tau ** (1 + (l - k - 1) // p)


def mixing_bound_rows(eta, tau: float, p: int):
    """(k, l, eta_kl, bound, holds) for each pair k <= l of an (n, n) eta, in
    (k, l) order: holds is eta_kl <= mixing_coefficient_bound + 1e-10."""
    for k in range(1, len(eta) + 1):
        for l in range(k, len(eta) + 1):
            bound = mixing_coefficient_bound(tau, p, k, l)
            yield k, l, float(eta[k - 1, l - 1]), bound, eta[k - 1, l - 1] <= bound + 1e-10


# ---------------------------------------------------------------------------
# Kullback-Leibler chain rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KlDecomposition:
    """Block KL divergences versus their chain-rule decompositions.

    (S, S) tables over the 2^(N p) start states: entry [z, y] compares the
    laws started from histories z and y.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    agree: np.ndarray


def kl_chain_decomposition(theta: ParamTensor, link: LinkSpec) -> KlDecomposition:
    """KL between p-block laws started from every pair of histories, both ways.

    ``lhs[z, y]`` is the exact divergence between the next-block laws from z
    and y, rows of the p-step kernel (``_path_law``), summed over one
    row exactly as for a single pair. ``rhs[z, y]`` accumulates, step by step,
    the expected one-step divergences along hybrid histories whose sampled
    part follows the law from z; the two agree to 1e-10 for any p-Markov chain.

    ``rhs`` is enumerated for all starts at once from one (S, S) table of
    one-step divergences between windows (entropy minus cross-entropy,
    two matrix products). At step k the window of start z after partial
    path r is r | (z & keep) << N (k-1), so z and y read the same r bits;
    grouping starts by their kept bits makes each step one batched matrix
    product of the path weights with that table, O(S^2) in all. ``rhs``
    sums in another order than a pair-by-pair recursion and may differ from
    it in the last bits (1e-15 on small chains).
    """
    _check_bits(theta, theta.n_rows * theta.n_lags, MAX_KL_BITS)
    probs_one, block_probs = _window_probs(theta, link)
    p_step = _path_law(block_probs, theta.n_lags)
    n_states = block_probs.shape[0]
    lhs = np.empty((n_states, n_states))
    # start rows per pass, so that a pass's (rows, S, S) temporaries stay near 8 MB
    per_pass = max(1, (1 << 20) // (n_states * n_states))
    for z in range(0, n_states, per_pass):
        rows = p_step[z : z + per_pass, None, :]
        lhs[z : z + per_pass] = (rows * np.log(rows / p_step)).sum(axis=2)
    log_one, log_zero = np.log(probs_one), np.log(1.0 - probs_one)
    entropy = (probs_one * log_one + (1.0 - probs_one) * log_zero).sum(axis=1)
    kl = entropy[:, None] - (probs_one @ log_one.T + (1.0 - probs_one) @ log_zero.T)
    np.fill_diagonal(kl, 0.0)  # exact where the difference leaves rounding
    rhs = np.zeros((n_states, n_states))
    weight = np.ones((n_states, 1))  # [z, r]: probability of partial path r from z
    for _ in range(theta.n_lags):
        n_paths = weight.shape[1]
        n_kept = n_states // n_paths
        # start z = hi * n_kept + u reads window u * n_paths + r after path r
        shared = np.einsum("urvr->urv", kl.reshape(n_kept, n_paths, n_kept, n_paths))
        per_start = weight.reshape(n_paths, n_kept, n_paths).transpose(1, 0, 2) @ shared
        rhs += np.tile(per_start.transpose(1, 0, 2).reshape(n_states, n_kept), n_paths)
        weight = _extend_paths(weight, block_probs)
    return KlDecomposition(lhs=lhs, rhs=rhs, agree=np.abs(lhs - rhs) <= 1e-10)
