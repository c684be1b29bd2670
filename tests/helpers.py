"""Shared construction helpers for the test suite."""

import numpy as np

from mbp.link import LinkSpec
from mbp.simulate import SamplePath
from mbp.tensor import ParamTensor

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
