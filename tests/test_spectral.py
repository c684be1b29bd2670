"""Spectral floor estimation and decay scaling."""

import math

import numpy as np
import pytest

from helpers import scaled_to_mixing

from mbp.link import sigmoid_link
from mbp.simulate import simulate
from mbp.spectral import DECAY_FAMILIES, decay_scaling_report, psd_estimate
from mbp.tensor import ParamTensor

LINK = sigmoid_link(1.0, 0.05)


class TestPsdEstimate:
    def test_fair_coin_floor(self):
        # flat spectrum at the Bernoulli variance 1/4
        path = simulate(ParamTensor.zeros(1, 1, 1), LINK, 60_000, seed=0)
        report = psd_estimate(path, 30, freq_points=32)
        assert 0.2 <= report.spectral_floor <= 0.3

    def test_positive_semidefinite_everywhere(self):
        theta = scaled_to_mixing(np.random.default_rng(1), 2, 1, LINK, 0.5)
        path = simulate(theta, LINK, 20_000, seed=1)
        report = psd_estimate(path, 20, freq_points=64)
        assert report.min_eigs.min() > -1e-10

    def test_self_excitation_dips_spectrum(self):
        theta = ParamTensor(np.array([[[2.0]]]))
        path = simulate(theta, LINK, 60_000, seed=2)
        report = psd_estimate(path, 30, freq_points=32)
        variance = path.data.astype(float).var()
        assert report.spectral_floor < variance

    def test_grid_shape(self):
        path = simulate(ParamTensor.zeros(2, 2, 1), LINK, 4_000, seed=3)
        report = psd_estimate(path, 10, freq_points=16)
        assert len(report.freq_grid) == len(report.min_eigs) == 16
        assert report.freq_grid[0] == pytest.approx(-math.pi)
        assert report.spectral_floor == pytest.approx(report.min_eigs.min())

    def test_too_short_rejected(self):
        path = simulate(ParamTensor.zeros(1, 1, 1), LINK, 30, seed=4)
        with pytest.raises(ValueError):
            psd_estimate(path, 10)


class TestDecayScaling:
    def test_polynomial_inner_norm_plateaus(self):
        rows = decay_scaling_report("polynomial", 3, [16, 128], LINK, c=0.1, alpha=2.0)
        assert abs(rows[1].inner_norm - rows[0].inner_norm) / rows[0].inner_norm < 0.10

    def test_constant_family_slope(self):
        rows = decay_scaling_report("constant", 3, [8, 16, 32, 64, 128], LINK, c=0.1)
        xs = [math.log(r.p) for r in rows]
        ys = [math.log(r.inner_norm) for r in rows]
        slope = float(np.polyfit(xs, ys, 1)[0])
        assert slope == pytest.approx(1.5, abs=0.1)

    def test_exponential_plateaus(self):
        rows = decay_scaling_report("exponential", 3, [16, 128], LINK, c=0.1, beta=1.0)
        assert abs(rows[1].inner_norm - rows[0].inner_norm) / rows[0].inner_norm < 0.10

    def test_divergence_flagged(self):
        rows = decay_scaling_report("constant", 3, [1, 64], LINK, c=1.0)
        assert rows[-1].diverged
        assert math.isinf(rows[-1].concentration)

    def test_magnitudes_match_family_exactly(self):
        rows = decay_scaling_report("polynomial", 1, [4], LINK, c=0.5, alpha=2.0)
        # inner norm computed directly from the magnitude sequence
        mags = 0.5 * np.arange(1, 5, dtype=float) ** -2.0
        suffix = np.cumsum(mags[::-1])[::-1]
        assert rows[0].inner_norm == pytest.approx(float(np.sqrt((suffix**2).sum())), rel=1e-12)

    def test_unsorted_p_values_rejected(self):
        with pytest.raises(ValueError):
            decay_scaling_report("constant", 2, [8, 4], LINK, c=0.1)

    def test_unknown_family_rejected_with_known_names(self):
        with pytest.raises(ValueError, match="'bogus'") as err:
            decay_scaling_report("bogus", 2, [4], LINK, c=0.1)
        assert all(name in str(err.value) for name in DECAY_FAMILIES)
        assert set(DECAY_FAMILIES) == {"constant", "polynomial", "exponential"}
