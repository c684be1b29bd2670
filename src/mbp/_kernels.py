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
Every draw is u < link.eval(v), the clamped link at the predictor v. No step
takes a sigmoid: the draw compares v with the top of a window [lo, hi] around
the cut logit(u) / alpha (-inf where u < eps, +inf where u >= 1 - eps) that
covers every rounding of both forms. After each block of steps, the first step
with a predictor inside its window is redrawn by the exact form on the
replicate's one-row window and the block resumes after it, so every path is
the exact form's path for any R. A single chain (R = 1) whose lag window has
at most ``TABLE_MAX_BITS`` bits runs from a table of the exact form's
probabilities for each of its 2^(N p) windows, and each step only compares
floats.
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
# a block of the step loop runs at most BLOCK_STEPS steps and BLOCK_DRAWS
# draws (but at least p steps); each of its arrays holds one float per draw
BLOCK_STEPS = 512
BLOCK_DRAWS = 1 << 15
# relative rounding allowed to the logit, the sigmoid and the alpha multiply,
# each within a few units of 2^-53
_ROUNDING = 32 * np.finfo(np.float64).eps


def chain_steps(init_hist, stacked, link, uniforms):
    """Advance R chains one Bernoulli draw per (step, replicate, coordinate).

    ``init_hist`` is the (R, p, N) binary start window of each replicate with
    the oldest state in row 0, ``stacked`` the (N, N p) stacked tensor shared
    by all replicates, ``link`` the ``LinkSpec``, ``uniforms`` the (T, R, N)
    pre-drawn variates; replicate r consumes ``uniforms[:, r]`` in (t, i)
    order. Each draw is Ber(link.eval(W h_t)) with h_t the replicate's
    flattened lag window [x^{t-1}; ...; x^{t-p}]. Returns (T, R, N) uint8
    states.

    Every draw equals the exact form ``u < link.eval(h @ W')`` on the
    replicate's own fresh (1, N p) row h, so replicate r's path does not
    depend on R. A single chain with N p <= ``TABLE_MAX_BITS`` runs from a
    table of that form's probabilities per window (whatever T is), the rest
    run the step loop of ``_loop_chain``.
    """
    # the transposed view of a C-contiguous W keeps the one-row product on the
    # same BLAS routine, hence the same rounding, as a matrix-vector product
    w_t = np.ascontiguousarray(stacked, dtype=np.float64).T
    uniforms = np.asarray(uniforms, dtype=np.float64)
    n_reps, p, n_dims = np.shape(init_hist)
    # lag windows ordered most recent block first, matching the stacked tensor
    h = np.asarray(init_hist)[:, ::-1].reshape(n_reps, p * n_dims).astype(np.float64)
    if n_reps == 1 and p * n_dims <= TABLE_MAX_BITS:
        return _table_chain(h, w_t, link, uniforms)
    return _loop_chain(h, w_t, link, uniforms)


def _exact_probs(h, w_t, link):
    """The exact form's draw probabilities link.eval(h @ W') of a (1, N p) window."""
    return link.eval(h @ w_t)[0]


def _loop_chain(h, w_t, link, uniforms):
    """The step loop of ``chain_steps``, the same for every R.

    The cut of a uniform u is logit(u) / alpha, -inf where u < eps (the
    draw is 1) and +inf where u >= 1 - eps (it is 0). A predictor above
    hi = cut + half draws 1, one at or below lo = cut - half draws 0, and one
    in between is redrawn. Per coordinate, half covers the
    product: a sum over a 0/1 window is within K 2^-53 sum_k |W_ik| of exact
    in any order, so the block's and the exact form's are within twice that.
    It also covers the rounding of the logit, the sigmoid and the alpha
    multiply: a few ulps of the cut and of u over the slope u (1 - u), for u
    in [eps, 1 - eps). States are 0/1 floats in a time-reversed buffer: step
    k of a B-step block writes at block index B - 1 - k, so its lag window,
    most recent state first, is the slice [B - k, B - k + p).
    """
    n_steps, n_reps, n_dims = uniforms.shape
    n_bits = w_t.shape[0]
    p = n_bits // n_dims
    alpha, eps = float(link.alpha), link.eps
    width = max(p, min(BLOCK_STEPS, n_steps, BLOCK_DRAWS // (n_reps * n_dims)))
    slack = 2 * n_bits * np.finfo(np.float64).eps * np.abs(w_t).sum(axis=0)
    half = slack + _ROUNDING * (np.log((1 - eps) / eps) + 1 / (eps * (1 - eps))) / alpha
    buf = np.empty((n_reps, (width + p) * n_dims))
    buf[:, width * n_dims :] = h
    windows = [buf[:, (width - k) * n_dims : (width - k + p) * n_dims] for k in range(width)]
    draws = [buf[:, (width - 1 - k) * n_dims : (width - k) * n_dims] for k in range(width)]
    v = np.empty((width, n_reps, n_dims))
    states = np.empty(uniforms.shape, dtype=np.uint8)
    matmul, less = np.matmul, np.less
    for t in range(0, n_steps, width):
        # simulate_batch's uniforms are replicate-major: copy the block once so
        # that the elementwise passes below run over contiguous memory
        u = np.ascontiguousarray(uniforms[t : t + width])
        with np.errstate(divide="ignore"):
            cut = np.log(u / (1.0 - u)) / alpha
        cut[u < eps] = -np.inf
        cut[u >= 1.0 - eps] = np.inf
        lo, hi = cut - half, cut + half
        b, k = len(u), 0
        while k < b:
            for window, v_k, hi_k, x in zip(windows[k:b], v[k:b], hi[k:b], draws[k:b]):
                matmul(window, w_t, v_k)
                less(hi_k, v_k, x, casting="unsafe")
            doubt = ((lo[k:b] < v[k:b]) & (v[k:b] <= hi[k:b])).any(axis=2)
            flagged = np.flatnonzero(doubt.any(axis=1))
            if not flagged.size:
                break
            k, first = k + int(flagged[0]), doubt[flagged[0]]
            for r in np.flatnonzero(first):
                draws[k][r] = u[k, r] < _exact_probs(windows[k][r : r + 1].copy(), w_t, link)
            k += 1
        newest = (width - b) * n_dims  # where the block's last step wrote
        block = buf[:, newest : width * n_dims].reshape(n_reps, b, n_dims)
        states[t : t + b] = block[:, ::-1].swapaxes(0, 1)
        # the block's last p states are the next block's first window
        buf[:, width * n_dims :] = buf[:, newest : newest + p * n_dims]
    return states


def _table_chain(h, w_t, link, uniforms):
    """The one chain of ``chain_steps`` run from a table of its window states.

    A window is kept as its state index, bit k holding entry k of h (the
    encoding of ``markov``): a step shifts the index up by N, drops the
    oldest block and puts the new state's bits at the bottom. The table is a
    flat list of clamped probabilities, the caller's uniforms are read
    through a memoryview and the states written to a bytearray: the loop
    makes no numpy call, and it adds one byte per draw to memory, not a copy
    of the uniforms.
    """
    n_bits, n_dims = w_t.shape
    window = np.empty((1, n_bits))
    table = []
    for bits in _state_bit_matrix(n_bits):
        window[0] = bits
        table += _exact_probs(window, w_t, link).tolist()
    mask = (1 << n_bits) - 1
    state = sum(1 << k for k in np.flatnonzero(h[0]).tolist())
    u = memoryview(uniforms.ravel())
    states = bytearray(len(u))
    for t in range(0, len(u), n_dims):
        row, new = state * n_dims, 0
        for i in range(n_dims):
            if u[t + i] < table[row + i]:
                states[t + i] = 1
                new |= 1 << i
        state = ((state << n_dims) & mask) | new
    return np.frombuffer(states, dtype=np.uint8).reshape(uniforms.shape)


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
