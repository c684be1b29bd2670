"""Inverse link functions mapping linear predictors to spike probabilities.

Only the sigmoid family is shipped. The output probability is hard-clipped
to [eps, 1 - eps] so that every conditional law stays bounded away from the
degenerate 0/1 cases; the analytic Lipschitz and curvature constants that
the estimation theory consumes are exposed as properties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LinkSpec", "sigmoid", "sigmoid_link"]


@dataclass(frozen=True)
class LinkSpec:
    """Inverse link with clamp level and its analytic constants.

    Parameters
    ----------
    alpha : float
        Gain of the sigmoid, must be positive.
    eps : float
        Clamp level in (0, 1/2). Output probabilities are clipped to
        [eps, 1 - eps].
    """

    alpha: float = 1.0
    eps: float = 0.05

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not (0.0 < self.eps < 0.5):
            raise ValueError(f"eps must lie in (0, 1/2), got {self.eps}")

    @property
    def lipschitz(self) -> float:
        """Lipschitz constant of the sigmoid, alpha / 4."""
        return self.alpha / 4.0

    @property
    def curvature(self) -> float:
        """Lower curvature bound of -log f and -log(1-f) on the clamp range,
        alpha^2 * eps * (1 - eps)."""
        return self.alpha**2 * self.eps * (1.0 - self.eps)

    @property
    def saturation(self) -> float:
        """Predictor magnitude beyond which the clamp is active,
        log((1 - eps) / eps) / alpha."""
        return math.log((1.0 - self.eps) / self.eps) / self.alpha

    def eval(self, u):
        """Clamped sigmoid probability, clip(1 / (1 + exp(-alpha u)), eps, 1-eps).

        Accepts scalars or arrays; returns the same shape.
        """
        z = sigmoid(self.alpha * np.asarray(u, dtype=np.float64))
        # the method: np.clip's dispatch outweighs the clip on one-row calls
        return z.clip(self.eps, 1.0 - self.eps)


def sigmoid(v):
    """Logistic function 1 / (1 + exp(-v)), elementwise.

    Computes 1 / (1 + exp(-v)) for v >= 0 and exp(v) / (1 + exp(v)) for
    v < 0, with ``exp`` only ever taken of -|v| <= 0 so it never overflows.
    """
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


def sigmoid_link(alpha: float = LinkSpec.alpha, eps: float = LinkSpec.eps) -> LinkSpec:
    """Build a sigmoid link with the given gain and clamp level."""
    return LinkSpec(alpha=alpha, eps=eps)
