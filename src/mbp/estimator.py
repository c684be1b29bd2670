"""l1-penalized maximum likelihood fitting by row-separable proximal Newton.

The loss is a sum over the N output rows, each an l1-penalized logistic
regression on the shared design matrix, so the rows are solved separately,
all in the same numpy calls. A Newton step freezes the rows already within
tolerance. Each other row gets a working set, its support plus its worst
violators of the optimality conditions, and a direction from its quadratic
model on that set: coordinate descent sweeps, each followed by a Newton step
on the sign pattern the sweep reached. A line search on the row's working
set sets the step and carries the row's predictors forward; only the rows
that moved get a new gradient. The fit stops when, on fresh predictors,
every row's KKT violation is at most ``tol`` times lambda.
Support selection and error metrics for recovery experiments live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import softplus_change
from .likelihood import _nll_grad_on_design, nll_grad
from .link import LinkSpec, sigmoid
from .simulate import SamplePath, design_matrix
from .tensor import ParamTensor, sparse_approx, stack_tensor, unstack_tensor

__all__ = [
    "FitConfig",
    "FitResult",
    "lambda_policy",
    "soft_threshold",
    "fit",
    "kkt_residual",
    "support_top_s",
    "ErrorMetrics",
    "error_metrics",
]

_ARMIJO = 0.01  # a step must win this share of its model decrease
_MAX_HALVINGS = 50  # line-search halvings before a row counts as stalled
_MAX_SWEEPS = 500  # coordinate-descent sweeps per Newton step
_INNER_RATIO = 0.1  # inner solve stops at this share of the row's violation
_ROUNDING = 64 * np.finfo(float).eps  # relative rounding error of a long sum


@dataclass(frozen=True)
class FitConfig:
    """Solver settings; ``lam`` weights the l1 penalty on the normalized loss.

    ``tol`` is the KKT tolerance relative to ``lam``; at ``lam`` = 0 it is
    relative to the gradient sup-norm at the start point instead.
    """

    lam: float
    max_iters: int = 5000
    tol: float = 1e-8

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class FitResult:
    """Solution tensor plus the record of the descent.

    ``stop_reason`` is "kkt" (converged), "max_iters" or "line_search" (a row
    not yet converged found no descending step). ``iterations`` counts Newton
    steps; ``gradients``, ``inner_sweeps`` and ``halvings`` count the fit's
    loss-and-gradient passes (full at the start and before a stop, else on
    the rows a step moved), coordinate-descent sweeps and halvings.
    ``kkt_over_lambda`` is the final KKT violation over lambda (inf at
    lambda = 0 unless it is 0), ``nnz`` the number of nonzero entries.
    """

    theta_hat: ParamTensor
    objective_trace: np.ndarray = field(repr=False)
    iterations: int
    stop_reason: str
    kkt_over_lambda: float
    nnz: int
    gradients: int
    inner_sweeps: int
    halvings: int

    @property
    def converged(self) -> bool:
        return self.stop_reason == "kkt"


def lambda_policy(
    n: int,
    n_dims: int,
    n_lags: int,
    link: LinkSpec | None = None,
    c2: float | None = None,
    mode: str = "simulation",
) -> float:
    """Regularization weight policies.

    mode "theorem": c2 * (lipschitz / eps) * sqrt(log(N^2 p) / n), the scaling
    under which the penalty dominates the gradient noise at the truth
    (c2 defaults to 1). mode "simulation": c2 * sqrt(log(N^2 p) / n) with c2
    defaulting to 100, the constant used for the reference simulation study;
    that constant is calibrated against the sum-form (unnormalized)
    likelihood, so divide by n before handing it to :func:`fit`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = n_dims * n_dims * n_lags
    base = math.sqrt(math.log(dim) / n)
    if mode == "simulation":
        return (100.0 if c2 is None else c2) * base
    if mode == "theorem":
        if link is None:
            raise ValueError("theorem mode needs a link to supply lipschitz / eps")
        return (1.0 if c2 is None else c2) * (link.lipschitz / link.eps) * base
    raise ValueError(f"unknown lambda mode: {mode!r}")


def soft_threshold(x, lam):
    """Proximal map of lam * |.|, sign(x) * max(|x| - lam, 0); elementwise."""
    x = np.asarray(x)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def fit(
    path: SamplePath,
    link: LinkSpec,
    config: FitConfig,
    theta_init: ParamTensor | None = None,
) -> FitResult:
    """Solve the l1-penalized maximum-likelihood problem on ``path``.

    Starts from ``theta_init`` (zero tensor when omitted) and takes proximal
    Newton steps until every row's KKT violation is at most ``config.tol``
    times lambda (times the start gradient's sup-norm at lambda = 0), until
    ``config.max_iters`` steps, or until every row still above it has found
    no descending step, each stop decided on fresh predictors. The trace
    holds the start objective plus the accepted decreases, so it never
    increases.
    """
    n_dims, p, lam = path.n_dims, path.n_lags, config.lam
    w = np.zeros((n_dims, n_dims * p))
    if theta_init is not None:
        if theta_init.values.shape != (n_dims, n_dims, p):
            raise ValueError("theta_init shape does not match the path")
        w[:] = stack_tensor(theta_init)
    X = design_matrix(path)
    gather = _column_gather(path)
    Y = path.samples().astype(np.float64)
    counts = dict(gradients=0, inner_sweeps=0, halvings=0)
    grad, pred, moved = np.empty_like(w), None, slice(None)
    # a row whose line search failed stays frozen: only its own entries
    # move its gradient, so a retry would fail again
    trace, stalled = [], np.zeros(n_dims, dtype=bool)
    while True:
        if pred is None or moved.size:
            # pred None: fresh predictors, every row's gradient; else the carried
            # predictors and the rows that moved, as the loss separates over rows
            fresh = pred is None
            loss, grad[moved], pred = _nll_grad_on_design(w, X, Y, link, moved, pred)
            counts["gradients"] += 1
        if not trace:
            trace.append(loss + lam * float(np.abs(w).sum()))
            # tol * lam is 0 at lam = 0 and could never be met
            limit = config.tol * (lam if lam > 0 else float(np.abs(grad).max()))
        viol = _row_violations(w, grad, lam)
        rows = np.flatnonzero((viol > limit) & ~stalled)
        if not rows.size or len(trace) > config.max_iters:
            if fresh:
                break
            # carried predictors drift in the last bits, so every stop is
            # decided, and its violation reported, on fresh ones
            pred, moved = None, slice(None)
            continue
        change, failed = _newton_step(w, grad, viol, pred, rows, gather, Y, link, lam, counts)
        stalled[rows[failed]] = True
        trace.append(trace[-1] + change)
        moved = rows[~failed]

    reason = "kkt" if viol.max() <= limit else "line_search" if not rows.size else "max_iters"
    worst = float(viol.max())
    return FitResult(
        theta_hat=unstack_tensor(w, p),
        objective_trace=np.asarray(trace),
        iterations=len(trace) - 1,
        stop_reason=reason,
        kkt_over_lambda=worst / lam if lam > 0 else (math.inf if worst > 0 else 0.0),
        nnz=int(np.count_nonzero(w)),
        **counts,
    )


def _column_gather(path):
    # design column (l - 1) N + j is row [j, p - l] of a read-only (N, p + 1, n)
    # window view of the transposed path, so a gather copies contiguous rows
    data = np.ascontiguousarray(path.data.T, dtype=np.float64)
    windows = np.lib.stride_tricks.sliding_window_view(data, path.n, axis=1)
    return lambda cols: windows[cols % path.n_dims, path.n_lags - 1 - cols // path.n_dims]


def _row_violations(w, grad, lam):
    # per row, the largest violation of the optimality conditions (see kkt_residual)
    on_support = np.abs(grad + lam * np.sign(w))
    off_support = np.maximum(np.abs(grad) - lam, 0.0)
    return np.where(w != 0.0, on_support, off_support).max(axis=-1)


def _newton_step(w, grad, viol, pred, rows, gather, Y, link, lam, counts):
    """One proximal Newton step on ``rows`` of ``w``; ``w`` and ``pred`` move in place.

    Returns (objective change, mask of the rows that found no descending step).
    """
    n, alpha = Y.shape[0], link.alpha
    # working set: the support, then the top max(10, 2 |support|) violators,
    # the first ``sizes`` of ``order``; the padding to one width is not ``valid``
    on = w[rows] != 0.0
    score = np.where(on, np.inf, np.abs(grad[rows]) - lam)
    order = np.argsort(-score, axis=1, kind="stable")
    size = on.sum(axis=1)
    sizes = np.minimum((score > 0.0).sum(axis=1), size + np.maximum(10, 2 * size))
    n_rows, width = len(rows), sizes.max()
    cols, valid = order[:, :width], np.arange(width) < sizes[:, None]
    # each row's weighted Gram, gathered one row at a time to bound memory
    a = alpha * pred[:, rows].T
    weight = alpha * np.sqrt(sigmoid(a) * sigmoid(-a) / n)
    hess = np.zeros((n_rows, width, width))
    for r, k in enumerate(sizes):
        z = gather(cols[r, :k])
        z *= weight[r]
        hess[r, :k, :k] = z @ z.T
    diag = np.maximum(np.where(valid, np.diagonal(hess, axis1=1, axis2=2), 1.0), 1e-12)
    base, g = (np.where(valid, full[rows[:, None], cols], 0.0) for full in (w, grad))

    # coordinate descent on the quadratic models, all rows at once, each
    # sweep followed by a Newton step on the sign pattern it reached
    d, hd = np.zeros((n_rows, width)), np.zeros((n_rows, width))
    live, target = np.ones(n_rows, dtype=bool), _INNER_RATIO * viol[rows]
    for _ in range(_MAX_SWEEPS):
        counts["inner_sweeps"] += 1
        for j in range(width):
            z = base[:, j] + d[:, j]
            z_new = soft_threshold(z - (g[:, j] + hd[:, j]) / diag[:, j], lam / diag[:, j])
            step = live * (z_new - z)
            d[:, j] += step
            hd += hess[:, :, j] * step[:, None]
        d, hd = _face_step(hess, base, g, d, hd, lam, live)
        live &= _row_violations(base + d, g + hd, lam) > target
        if not live.any():
            break

    # the model's decrease; the penalty change is sign(b) d wherever no sign
    # changes, as the rounded |b + d| - |b| would swamp it near the optimum
    same = np.sign(base + d) == np.sign(base)
    pen = np.where(same, np.sign(base) * d, np.abs(base + d) - np.abs(base))
    model = (g * d + lam * pen).sum(axis=1)

    # backtracking line search, row by row on the working-set columns, on the
    # true objective for the move the rounded trial point really makes, each
    # loss term's change taken by softplus_change, not as a difference of two
    # losses; an accepted row carries its predictors forward by its shift
    change, failed = 0.0, model >= 0.0
    for r in np.flatnonzero(~failed):
        i, c, b, e = rows[r], cols[r, : sizes[r]], base[r, : sizes[r]], d[r, : sizes[r]]
        x = gather(c)
        sign = -alpha * (2.0 * Y[:, i] - 1.0)
        margin = sign * pred[:, i]
        for trial in range(_MAX_HALVINGS + 1):
            t = 0.5**trial
            new = b + t * e
            shift = (new - b) @ x
            terms = softplus_change(margin, sign * shift)
            delta = terms.sum() / n + lam * (np.abs(new) - np.abs(b)).sum()
            # a decrease below the rounding error of its own sum proves nothing
            noise = _ROUNDING * np.abs(terms).sum() / n
            if delta <= _ARMIJO * t * model[r] and delta < -noise:
                w[i, c] = new
                pred[:, i] += shift
                change += delta
                break
        else:
            failed[r] = True
        counts["halvings"] += trial
    return float(change), failed


def _face_step(hess, base, g, d, hd, lam, live):
    """Newton step on each live row's sign pattern, cut where a sign would flip.

    The step to the model's minimizer on the face of fixed signs stops at the
    first coordinate that reaches zero; it is kept where it lowers the model.
    """
    z = base + d
    on = (z != 0.0) & live[:, None]
    face = np.where(on[:, :, None] & on[:, None, :], hess, np.eye(z.shape[1]))
    rhs = np.where(on, -(g + hd + lam * np.sign(z)), 0.0)[..., None]
    try:
        e = np.linalg.solve(face, rhs)
    except np.linalg.LinAlgError:  # a singular Gram: take the least-norm step
        e = np.linalg.pinv(face, hermitian=True) @ rhs
    e = np.where(on, e[..., 0], 0.0)
    cut = np.divide(-z, e, out=np.full_like(z, np.inf), where=z * e < 0.0).min(axis=1)
    e *= np.minimum(cut, 1.0)[:, None]
    he = (hess @ e[..., None])[..., 0]
    # on the face the penalty is linear, so the model change needs no |.|
    gain = ((0.5 * he - rhs[..., 0]) * e).sum(axis=1)
    better = (gain <= 0.0)[:, None]
    return d + np.where(better, e, 0.0), hd + np.where(better, he, 0.0)


def kkt_residual(
    theta_hat: ParamTensor, path: SamplePath, link: LinkSpec, lam: float
) -> float:
    """Sup-norm violation of the first-order optimality conditions.

    On the support the gradient must equal -lam * sign(theta); elsewhere its
    magnitude must not exceed lam. Returns the largest violation.
    """
    g = nll_grad(theta_hat, path, link)[1].values
    return float(_row_violations(theta_hat.values.ravel(), g.ravel(), lam))


def support_top_s(t: ParamTensor, s: int) -> frozenset:
    """Index triples of the s largest-magnitude entries (lexicographic ties)."""
    return sparse_approx(t, s).support


@dataclass(frozen=True)
class ErrorMetrics:
    """Frobenius error and fraction of the true support recovered."""

    frob_error: float
    frob_error_sq: float
    support_fraction: float
    support_defined: bool


def error_metrics(
    theta_hat: ParamTensor, theta_star: ParamTensor, s: int
) -> ErrorMetrics:
    """Compare an estimate against the truth.

    ``support_fraction`` counts how many of the s true nonzeros appear among
    the s largest entries of the estimate. With s = 0 the fraction is
    undefined and reported as 1.0 with ``support_defined`` False.
    """
    if theta_hat.values.shape != theta_star.values.shape:
        raise ValueError("shape mismatch between estimate and truth")
    diff = theta_hat.values - theta_star.values
    err_sq = float((diff * diff).sum())
    if s == 0:
        return ErrorMetrics(math.sqrt(err_sq), err_sq, 1.0, False)
    top = support_top_s(theta_hat, s)
    true_support = {
        tuple(int(c) for c in row) for row in np.argwhere(theta_star.values != 0.0)
    }
    frac = len(top & true_support) / s
    return ErrorMetrics(math.sqrt(err_sq), err_sq, frac, True)
