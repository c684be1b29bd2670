"""l1-penalized maximum likelihood fitting by proximal gradient descent.

The solver minimizes the normalized negative log-likelihood plus an
elementwise l1 penalty. Each proximal gradient step backtracks against the
standard quadratic upper model; momentum (restarted whenever the
accelerated step would break monotonicity) speeds convergence while keeping
the objective trace non-increasing. Support selection and error metrics for
recovery experiments live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .likelihood import _nll_grad_on_design, _nll_on_design, nll_grad
from .link import LinkSpec
from .simulate import SamplePath, design_matrix
from .tensor import ParamTensor, stack_tensor, unstack_tensor

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

_MIN_STEP = 1e-14


@dataclass(frozen=True)
class FitConfig:
    """Solver settings; ``lam`` weights the l1 penalty on the normalized loss."""

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
    """Solution tensor plus the record of the descent."""

    theta_hat: ParamTensor
    objective_trace: np.ndarray = field(repr=False)
    iterations: int
    converged: bool
    final_step: float


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
    if np.isscalar(x):
        return math.copysign(max(abs(x) - lam, 0.0), x)
    x = np.asarray(x)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def fit(
    path: SamplePath,
    link: LinkSpec,
    config: FitConfig,
    theta_init: ParamTensor | None = None,
) -> FitResult:
    """Solve the l1-penalized maximum-likelihood problem on ``path``.

    Starts from ``theta_init`` (zero tensor when omitted) at step size 1 and
    iterates accelerated proximal gradient steps until the relative objective
    change drops below ``config.tol`` (converged) or ``config.max_iters`` is
    hit or the step size underflows while backtracking (both not converged).
    The returned trace is non-increasing; at convergence every gradient entry
    lies within the penalty weight of the subdifferential condition.
    """
    n_dims, p, lam = path.n_dims, path.n_lags, config.lam
    if theta_init is None:
        x = np.zeros((n_dims, n_dims * p))
    else:
        if (
            theta_init.n_rows != n_dims
            or theta_init.n_cols != n_dims
            or theta_init.n_lags != p
        ):
            raise ValueError("theta_init shape does not match the path")
        x = stack_tensor(theta_init)

    X = design_matrix(path)
    Y = path.samples().astype(np.float64)

    def penalty(d):
        return lam * float(np.abs(d).sum())

    obj_x = _nll_on_design(x, X, Y, link) + penalty(x)
    if not math.isfinite(obj_x):
        raise RuntimeError("objective is not finite at the initial point")

    trace = [obj_x]
    eta = 1.0
    y = x
    t_mom = 1.0
    converged = False
    iterations = 0

    def step(point):
        nonlocal eta
        cand, f_cand, eta = _prox_step(point, X, Y, link, lam, eta)
        return cand, (math.inf if cand is None else f_cand + penalty(cand))

    for _ in range(config.max_iters):
        iterations += 1
        cand, obj_cand = step(y)
        if obj_cand > obj_x and y is not x:
            # momentum overshoot: redo the step from the last iterate, which
            # the backtracking condition guarantees to descend
            cand, obj_cand = step(x)
            t_mom = 1.0
        if cand is None:
            break  # the step size underflowed: a stall, not convergence
        if not math.isfinite(obj_cand):
            raise RuntimeError("objective became non-finite during descent")
        obj_cand = min(obj_cand, obj_x)  # guard against roundoff in the trace
        rel_change = abs(obj_x - obj_cand) / max(1.0, abs(obj_x))
        x_prev, x = x, cand
        obj_x = obj_cand
        trace.append(obj_x)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        y = x + ((t_mom - 1.0) / t_next) * (x - x_prev)
        t_mom = t_next
        if rel_change <= config.tol:
            converged = True
            break

    return FitResult(
        theta_hat=unstack_tensor(x, p),
        objective_trace=np.asarray(trace),
        iterations=iterations,
        converged=converged,
        final_step=eta,
    )


def _prox_step(point, X, Y, link, lam, eta):
    """One proximal step from ``point``, halving ``eta`` until it descends.

    Returns (cand, loss, eta); ``cand`` is None when ``eta`` falls below
    ``_MIN_STEP`` before the sufficient-decrease test passes.
    """
    f_pt, g = _nll_grad_on_design(point, X, Y, link)
    while True:
        cand = soft_threshold(point - eta * g, eta * lam)
        diff = cand - point
        f_cand = _nll_on_design(cand, X, Y, link)
        quad = f_pt + float((g * diff).sum()) + float((diff * diff).sum()) / (2.0 * eta)
        if f_cand <= quad + 1e-12 * max(1.0, abs(f_pt)):
            return cand, f_cand, eta
        eta *= 0.5
        if eta < _MIN_STEP:
            # cannot make progress beyond floating point resolution
            return None, f_pt, eta


def kkt_residual(
    theta_hat: ParamTensor, path: SamplePath, link: LinkSpec, lam: float
) -> float:
    """Sup-norm violation of the first-order optimality conditions.

    On the support the gradient must equal -lam * sign(theta); elsewhere its
    magnitude must not exceed lam. Returns the largest violation.
    """
    g = nll_grad(theta_hat, path, link)[1].values
    th = theta_hat.values
    on = th != 0.0
    worst = 0.0
    if on.any():
        worst = float(np.abs(g[on] + lam * np.sign(th[on])).max())
    if (~on).any():
        worst = max(worst, float(max(np.abs(g[~on]).max() - lam, 0.0)))
    return worst


def support_top_s(t: ParamTensor, s: int) -> frozenset:
    """Index triples of the s largest-magnitude entries (lexicographic ties)."""
    if not 0 <= s <= t.n_entries:
        raise ValueError(f"s={s} outside [0, {t.n_entries}]")
    flat = np.abs(t.values).ravel()
    order = np.argsort(-flat, kind="stable")[:s]
    return frozenset(
        tuple(int(c) for c in np.unravel_index(k, t.values.shape)) for k in order
    )


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
