"""Shared construction helpers for the test suite."""

import math
import os

import numpy as np

from mbp.link import LinkSpec
from mbp.markov import mixing_coefficients
from mbp.simulate import SamplePath
from mbp.tensor import ParamTensor

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
