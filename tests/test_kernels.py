"""Public entry points of the numpy kernel layer."""

import numpy as np

from mbp import _kernels
from mbp.link import sigmoid_link
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
