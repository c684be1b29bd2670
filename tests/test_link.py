"""Clamped sigmoid link and its analytic constants."""

import math

import numpy as np
import pytest

from mbp._kernels import bernoulli_loss_terms
from mbp.link import sigmoid, sigmoid_link


def eval_deriv(link, u):
    """Oracle: derivative of the smooth (unclamped) sigmoid at u."""
    z = sigmoid(link.alpha * np.asarray(u, dtype=np.float64))
    return link.alpha * z * (1.0 - z)


class TestConstruction:
    def test_constants(self):
        link = sigmoid_link(alpha=2.0, eps=0.1)
        assert link.lipschitz == pytest.approx(0.5)
        assert link.curvature == pytest.approx(4.0 * 0.1 * 0.9)

    def test_invalid_eps(self):
        for eps in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError):
                sigmoid_link(1.0, eps)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            sigmoid_link(0.0, 0.05)


class TestEval:
    def test_symmetry_point(self):
        for alpha in (0.5, 1.0, 3.0):
            assert sigmoid_link(alpha, 0.05).eval(0.0) == pytest.approx(0.5)

    def test_clamp_saturation(self):
        link = sigmoid_link(1.0, 0.05)
        assert link.eval(50.0) == pytest.approx(0.95)
        assert link.eval(-50.0) == pytest.approx(0.05)

    def test_scalar_value(self):
        link = sigmoid_link(1.0, 0.01)
        assert link.eval(1.0) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), rel=1e-12)

    def test_monotone(self):
        link = sigmoid_link(1.3, 0.05)
        u = np.linspace(-10, 10, 1001)
        z = link.eval(u)
        assert np.all(np.diff(z) >= 0)

    def test_lipschitz_on_random_pairs(self):
        link = sigmoid_link(2.0, 0.05)
        rng = np.random.default_rng(0)
        u, v = rng.uniform(-20, 20, size=(2, 5000))
        gap = np.abs(np.asarray(link.eval(u)) - np.asarray(link.eval(v)))
        assert np.all(gap <= link.lipschitz * np.abs(u - v) + 1e-12)

    @pytest.mark.parametrize("u", [0.0, -0.0, 1e-3, -1e-3, 30.0, -30.0, 1e4, -1e4])
    def test_matches_sign_branch_formula_bitwise(self, u):
        # eps far below every unclamped value tested, except where exp underflows
        link = sigmoid_link(1.3, 1e-300)
        v = np.float64(link.alpha * u)
        if v >= 0:
            expected = 1.0 / (1.0 + np.exp(-v))
        else:
            expected = np.exp(v) / (1.0 + np.exp(v))
        expected = min(max(expected, link.eps), 1.0 - link.eps)
        assert link.eval(u) == expected
        assert link.eval(np.array([u]))[0] == expected

    @pytest.mark.parametrize("method", ["eval"])
    @pytest.mark.parametrize("u", [0.0, -2.5, 7, np.float64(1e4)])
    def test_scalar_in_scalar_out(self, method, u):
        out = getattr(sigmoid_link(1.0, 0.05), method)(u)
        assert np.ndim(out) == 0
        assert isinstance(out, float)

    def test_no_overflow_at_extremes(self):
        link = sigmoid_link(1.0, 0.05)
        assert np.isfinite(link.eval(np.array([-1e4, 1e4]))).all()


class TestEvalDeriv:
    def test_peak_value(self):
        link = sigmoid_link(1.0, 0.05)
        assert eval_deriv(link, 0.0) == pytest.approx(0.25)
        assert eval_deriv(link, 0.0) == pytest.approx(link.lipschitz)

    def test_bounded_by_lipschitz(self):
        link = sigmoid_link(1.7, 0.05)
        rng = np.random.default_rng(1)
        u = rng.uniform(-30, 30, size=10_000)
        assert np.all(np.abs(eval_deriv(link, u)) <= link.lipschitz + 1e-12)

    def test_scalar_evaluation(self):
        link = sigmoid_link(2.0, 0.05)
        f1 = 1.0 / (1.0 + math.exp(-2.0 * 0.5))
        assert eval_deriv(link, 0.5) == pytest.approx(2.0 * f1 * (1.0 - f1), rel=1e-12)
        h = 1e-6
        fd = (sigmoid(link.alpha * (0.5 + h)) - sigmoid(link.alpha * (0.5 - h))) / (2 * h)
        assert eval_deriv(link, 0.5) == pytest.approx(fd, rel=1e-8)

    def test_not_zeroed_in_clamp_region(self):
        # the loss residual is the chain rule with the smooth derivative, also
        # where the clamp would clip the probability: the loss is unclamped
        link = sigmoid_link(1.0, 0.2)
        u = np.array([[10.0, -10.0, 0.3]])
        y = np.array([[0.0, 1.0, 1.0]])
        assert link.eval(10.0) == pytest.approx(0.8)
        z = sigmoid(link.alpha * u)
        chain = ((1.0 - y) / (1.0 - z) - y / z) * eval_deriv(link, u)
        _, resid = bernoulli_loss_terms(u, y, link.alpha)
        np.testing.assert_allclose(resid, chain, rtol=1e-12)
        assert np.all(np.abs(resid[0, :2]) > 0.99)


class TestCurvature:
    def test_log_loss_curvature_floor(self):
        # second derivative of -log f and -log(1-f), by central differences
        # on the smooth sigmoid, at points where the clamp is inactive
        link = sigmoid_link(1.0, 0.05)
        rng = np.random.default_rng(2)
        h = 1e-5
        raw = lambda u: 1.0 / (1.0 + np.exp(-link.alpha * u))
        for _ in range(200):
            u = rng.uniform(-link.saturation, link.saturation)
            for g in (lambda v: -np.log(raw(v)), lambda v: -np.log(1.0 - raw(v))):
                second = (g(u + h) - 2.0 * g(u) + g(u - h)) / h**2
                assert second >= link.curvature - 1e-6
