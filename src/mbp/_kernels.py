"""Hot numeric kernels in plain numpy.

Three inner loops dominate runtime: advancing the binary chain one step at a
time, the fused Bernoulli log-likelihood / residual pass inside the solver
(and its line-search twin, the change of a softplus), and the lagged
quadratic form evaluated per replicate in the concentration trials. All
kernels consume pre-drawn uniform variates and deterministic inputs, so each
is reproducible given its seed.

The chain kernel carries a replicate axis: R independent chains with the same
tensor advance together, one (R, N p) @ (N p, N) product per time step, so a
Monte-Carlo trial pays the per-step interpreter cost once instead of R times.
A single chain (R = 1) whose lag window has at most ``TABLE_MAX_BITS`` bits
runs from a state table instead: the draw probabilities of each of its
2^(N p) windows are computed once, by the same call the step loop makes, and
each step only compares its uniforms against stored floats.
"""

from __future__ import annotations

import numpy as np

from .link import sigmoid
from .markov import _state_bit_matrix

__all__ = ["chain_steps", "bernoulli_loss_terms", "softplus_change", "lagged_square_sum"]

# widest lag window (N p bits) of a single chain that runs from a table of its
# 2^(N p) window states; the 1024-row table takes about 8 ms to fill, the time
# of some 600 loop steps, and each wider bit doubles that
TABLE_MAX_BITS = 10


def chain_steps(init_hist, stacked, alpha, eps, uniforms):
    """Advance R chains one Bernoulli draw per (step, replicate, coordinate).

    ``init_hist`` is the (R, p, N) binary start window of each replicate with
    the oldest state in row 0, ``stacked`` the (N, N p) stacked tensor shared
    by all replicates, ``uniforms`` the (T, R, N) pre-drawn variates;
    replicate r consumes ``uniforms[:, r]`` in (t, i) order. Each draw is
    Ber(clip(sigmoid(alpha * W h_t), eps, 1 - eps)) with h_t the replicate's
    flattened lag window [x^{t-1}; ...; x^{t-p}]. Returns (T, R, N) uint8
    states.

    A single chain (R = 1) with N p <= ``TABLE_MAX_BITS`` is chosen for the
    table path, whatever T is. Its table row for a window holds
    ``sigmoid(alpha * (h @ W'))`` computed from a fresh (1, N p) row h, the
    same product on the same shapes, and the same sigmoid call, that the
    step loop makes at that window. So every draw compares the same two
    floats as in the loop, and the path is the loop's path bit for bit by
    construction. Several replicates and wider windows step as above.
    """
    # the transposed view of a C-contiguous W keeps the R = 1 product on the
    # same BLAS routine, hence the same rounding, as a matrix-vector product
    w_t = np.ascontiguousarray(stacked, dtype=np.float64).T
    uniforms = np.asarray(uniforms, dtype=np.float64)
    lo, hi = float(eps), 1.0 - float(eps)
    # u < clip(z, lo, hi) equals u' < z for z in [0, 1], with u' = -1 where
    # u < lo (the draw is 1 whatever z is) and u' = 2 where u >= hi (it is 0):
    # the clip moves out of the loop and every draw stays exactly the same
    thresholds = np.where(uniforms < hi, uniforms, 2.0)
    thresholds[uniforms < lo] = -1.0
    n_reps, p, n_dims = np.shape(init_hist)
    # lag windows ordered most recent block first, matching the stacked tensor
    h = np.asarray(init_hist)[:, ::-1].reshape(n_reps, p * n_dims).astype(np.float64)
    alpha = float(alpha)
    if n_reps == 1 and p * n_dims <= TABLE_MAX_BITS:
        return _table_chain(h, w_t, alpha, thresholds)
    states = np.empty(uniforms.shape, dtype=np.uint8)
    recent, older, newer = h[:, :n_dims], h[:, n_dims:], h[:, :-n_dims]
    for u, x in zip(thresholds, states):
        np.less(u, sigmoid(alpha * (h @ w_t)), out=x)
        if p > 1:
            older[...] = newer
        recent[...] = x
    return states


def _table_chain(h, w_t, alpha, thresholds):
    """The one chain of ``chain_steps`` run from a table of its window states.

    A window is kept as its state index, bit k holding entry k of h (the
    encoding of ``markov``): a step shifts the index up by N, drops the
    oldest block and puts the new state's bits at the bottom. The table is a
    flat list, the thresholds are read through a memoryview and the states
    written to a bytearray: the loop makes no numpy call, and it adds one
    byte per draw to memory, not a Python float per threshold.
    """
    n_bits, n_dims = w_t.shape
    window = np.empty((1, n_bits))
    table = []
    for bits in _state_bit_matrix(n_bits):
        window[0] = bits
        table += sigmoid(alpha * (window @ w_t))[0].tolist()
    mask = (1 << n_bits) - 1
    state = sum(1 << k for k in np.flatnonzero(h[0]).tolist())
    u = memoryview(thresholds.ravel())
    states = bytearray(len(u))
    for t in range(0, len(u), n_dims):
        row, new = state * n_dims, 0
        for i in range(n_dims):
            if u[t + i] < table[row + i]:
                states[t + i] = 1
                new |= 1 << i
        state = ((state << n_dims) & mask) | new
    return np.frombuffer(states, dtype=np.uint8).reshape(thresholds.shape)


def bernoulli_loss_terms(pred, targets, alpha, want_residual=True):
    """Summed logistic NLL (and optionally the residual matrix) at predictors.

    Given predictors U (n, N) and binary targets Y, with margins
    m = (2y - 1) alpha u the loss is sum softplus(-m) and the residual's
    (t, i) entry alpha (sigmoid(alpha u) - y), its derivative. Nothing is
    clipped. Returns ``(loss, resid or None)``.
    """
    a = float(alpha) * np.asarray(pred, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    # softplus(-m) = log1p(exp(-|a|)) + max(a, 0) - y a for binary y
    e = np.exp(-np.abs(a))
    loss = np.log1p(e).sum() + np.maximum(a, 0.0).sum() - (targets * a).sum()
    if not want_residual:
        return float(loss), None
    return float(loss), float(alpha) * (np.where(a >= 0, 1.0, e) / (1.0 + e) - targets)


def softplus_change(b, delta):
    """softplus(b + delta) - softplus(b), elementwise, without cancellation:
    log1p(sigmoid(b) expm1(delta)) for delta <= 0, and
    delta + log1p(sigmoid(-b) expm1(-delta)) for delta > 0."""
    up = delta > 0
    return np.where(up, delta, 0.0) + np.log1p(
        sigmoid(np.where(up, -b, b)) * np.expm1(-np.abs(delta))
    )


def lagged_square_sum(data, delta):
    """Sum over time and output coordinate of squared lagged inner products.

    ``data`` holds n + p binary rows (initial window first); the first p rows
    seed the lags, each of the remaining n rows contributes one squared term
    sum_k (sum_l sum_j delta[k, j, l] x^{t-l}_j)^2, evaluated lag by lag on
    the path rows without materializing the design matrix.
    """
    x = np.ascontiguousarray(data, dtype=np.float64)
    delta = np.ascontiguousarray(delta, dtype=np.float64)
    p = delta.shape[2]
    n = x.shape[0] - p
    inner = np.zeros((n, delta.shape[0]))
    for lag in range(1, p + 1):
        inner += x[p - lag : p - lag + n] @ delta[:, :, lag - 1].T
    return float((inner * inner).sum())
