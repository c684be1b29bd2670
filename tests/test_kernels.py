"""Public entry points of the numpy kernel layer."""

import numpy as np

from mbp import _kernels
from mbp.link import sigmoid, sigmoid_link
from mbp.simulate import random_sparse_theta, simulate

LINK = sigmoid_link(1.0, 0.05)


class TestDispatch:
    def test_public_wrappers_run(self):
        theta = random_sparse_theta(2, 1, 2, seed=4)
        path = simulate(theta, LINK, 50, seed=4)
        assert path.data.shape == (51, 2)
        total = _kernels.lagged_square_sum(
            path.data.astype(np.float64), theta.values
        )
        assert total >= 0.0


class TestSoftplusChange:
    def test_matches_direct_difference(self):
        rng = np.random.default_rng(0)
        b = rng.uniform(-30, 30, 1000)
        delta = rng.uniform(-5, 5, 1000)
        direct = np.logaddexp(0.0, b + delta) - np.logaddexp(0.0, b)
        np.testing.assert_allclose(
            _kernels.softplus_change(b, delta), direct, rtol=1e-9, atol=1e-12
        )

    def test_change_below_the_values_rounding_keeps_its_digits(self):
        # softplus(b) is O(1), so a difference of two values would lose the
        # change entirely; second-order Taylor expansion as the reference
        b = np.array([-3.0, 0.0, 2.5, 40.0])
        delta = np.array([1e-13, -1e-13, 3e-14, -2e-14])
        expected = delta * sigmoid(b) + 0.5 * delta**2 * sigmoid(b) * sigmoid(-b)
        np.testing.assert_allclose(_kernels.softplus_change(b, delta), expected, rtol=1e-12)
