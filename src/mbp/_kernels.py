"""Hot numeric kernels in plain numpy.

Three inner loops dominate runtime: advancing the binary chain one step at a
time, the fused Bernoulli log-likelihood / residual pass inside the solver,
and the lagged quadratic form evaluated per replicate in the concentration
trials. All kernels consume pre-drawn uniform variates and deterministic
inputs, so each is reproducible given its seed.
"""

from __future__ import annotations

import numpy as np

from .link import sigmoid

__all__ = ["chain_steps", "bernoulli_loss_terms", "lagged_square_sum"]


def chain_steps(init_hist, stacked, alpha, eps, uniforms):
    """Advance the chain one Bernoulli draw per (step, coordinate).

    ``init_hist`` is the (p, N) binary start window with the oldest state in
    row 0, ``stacked`` the (N, N p) stacked tensor, ``uniforms`` the (T, N)
    pre-drawn variates consumed in (t, i) order. Each draw is
    Ber(clip(sigmoid(alpha * W h_t), eps, 1 - eps)) with h_t the flattened
    lag window [x^{t-1}; ...; x^{t-p}]. Returns (T, N) uint8 states.
    """
    stacked = np.ascontiguousarray(stacked, dtype=np.float64)
    uniforms = np.asarray(uniforms, dtype=np.float64)
    alpha, lo, hi = float(alpha), float(eps), 1.0 - float(eps)
    p, n_dims = np.shape(init_hist)
    states = np.empty((uniforms.shape[0], n_dims), dtype=np.uint8)
    # lag window ordered most recent block first, matching the stacked tensor
    h = np.asarray(init_hist)[::-1].astype(np.float64).ravel()
    for t in range(uniforms.shape[0]):
        z = np.clip(sigmoid(alpha * (stacked @ h)), lo, hi)
        x = (uniforms[t] < z).astype(np.uint8)
        states[t] = x
        if p > 1:
            h[n_dims:] = h[:-n_dims]
        h[:n_dims] = x
    return states


def bernoulli_loss_terms(pred, targets, alpha, eps, want_residual=True):
    """Summed Bernoulli NLL (and optionally the residual matrix) at predictors.

    Given predictors U (n, N) and binary targets Y, the probability is the
    clamped sigmoid z; the residual's (t, i) entry is
    ((1-y)/(1-z) - y/z) * f'(u), using the smooth sigmoid derivative so it
    matches the analytic gradient formula. Returns ``(loss, resid or None)``.
    """
    pred = np.asarray(pred, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    alpha = float(alpha)
    s = sigmoid(alpha * pred)
    z = np.clip(s, eps, 1.0 - eps)
    loss = -(targets * np.log(z) + (1.0 - targets) * np.log(1.0 - z)).sum()
    if not want_residual:
        return float(loss), None
    fprime = alpha * s * (1.0 - s)
    resid = ((1.0 - targets) / (1.0 - z) - targets / z) * fprime
    return float(loss), resid


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
