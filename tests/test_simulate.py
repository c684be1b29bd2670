"""Sample-path simulation, design matrix and random ground truths."""

import importlib
import math
import warnings

import numpy as np
import pytest

from helpers import path_from_rows

from mbp.link import sigmoid_link
from mbp.simulate import (
    SamplePath,
    design_matrix,
    random_sparse_theta,
    read_path,
    simulate,
    simulate_batch,
    write_path,
)
from mbp.tensor import ParamTensor, sparse_approx, stack_tensor

LINK = sigmoid_link(1.0, 0.05)


class TestSimulate:
    def test_deterministic_given_seed(self):
        theta = random_sparse_theta(3, 2, 5, seed=1)
        a = simulate(theta, LINK, 300, burn_in=50, seed=99)
        b = simulate(theta, LINK, 300, burn_in=50, seed=99)
        assert np.array_equal(a.data, b.data)
        assert a.seed == 99

    def test_seed_changes_path(self):
        theta = random_sparse_theta(3, 2, 5, seed=1)
        a = simulate(theta, LINK, 300, seed=1)
        b = simulate(theta, LINK, 300, seed=2)
        assert not np.array_equal(a.data, b.data)

    def test_shapes(self):
        theta = ParamTensor.zeros(4, 4, 3)
        path = simulate(theta, LINK, 123, burn_in=7, seed=0)
        assert path.data.shape == (126, 4)
        assert path.n == 123 and path.n_dims == 4 and path.n_lags == 3

    def test_zero_coupling_mean(self):
        # i.i.d. fair coins: empirical mean of 1e5 draws within 0.5 +- 0.005
        theta = ParamTensor.zeros(5, 5, 1)
        path = simulate(theta, LINK, 20_000, burn_in=0, seed=3)
        draws = path.samples().astype(float)
        assert draws.size == 100_000
        assert abs(draws.mean() - 0.5) <= 0.005  # 3 sigma band

    def test_conditional_frequency_strong_coupling(self):
        # single series, self-excitation +5: P(1 | previous 1) clips at 0.95
        theta = ParamTensor(np.array([[[5.0]]]))
        path = simulate(theta, LINK, 100_000, seed=4)
        x = path.data.ravel()
        prev, cur = x[:-1].astype(bool), x[1:]
        f_on = cur[prev].mean()
        f_off = cur[~prev].mean()
        assert f_on == pytest.approx(0.95, abs=0.01)
        assert f_off == pytest.approx(float(LINK.eval(0.0)), abs=0.01)

    def test_conditional_frequencies_match_link_both_states(self):
        theta = ParamTensor(np.array([[[1.2]]]))
        path = simulate(theta, LINK, 80_000, seed=5)
        x = path.data.ravel()
        prev, cur = x[:-1].astype(bool), x[1:]
        for state, sel in ((1, prev), (0, ~prev)):
            freq = cur[sel].mean()
            target = float(LINK.eval(1.2 * state))
            se = math.sqrt(target * (1 - target) / sel.sum())
            assert abs(freq - target) <= 3.0 * se

    def test_zero_coupling_lag1_autocovariance(self):
        theta = ParamTensor.zeros(3, 3, 1)
        path = simulate(theta, LINK, 50_000, burn_in=0, seed=6)
        x = path.data.astype(float)
        for i in range(3):
            col = x[:, i] - x[:, i].mean()
            cov = (col[:-1] * col[1:]).mean()
            se = 0.25 / math.sqrt(col.size - 1)
            assert abs(cov) <= 3.0 * se

    def test_burn_in_zero_records_initial_window(self):
        theta = ParamTensor.zeros(2, 2, 2)
        path = simulate(theta, LINK, 10, burn_in=0, seed=7)
        rng = np.random.default_rng(7)
        expected_hist = (rng.random((2, 2)) < 0.5).astype(np.uint8)
        assert np.array_equal(path.history(), expected_hist)

    def test_saturated_predictors_raise_no_overflow_warning(self):
        # |alpha * W h| reaches 2000, far past where exp overflows
        theta = ParamTensor(np.full((2, 2, 1), 500.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = simulate(theta, sigmoid_link(2.0, 0.05), 50, burn_in=10, seed=1)
        assert path.data.shape == (51, 2)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            simulate(ParamTensor.zeros(2, 3, 1), LINK, 10, seed=0)

    def test_bad_args_rejected(self):
        theta = ParamTensor.zeros(2, 2, 1)
        with pytest.raises(ValueError):
            simulate(theta, LINK, 0, seed=0)
        with pytest.raises(ValueError):
            simulate(theta, LINK, 10, burn_in=-1, seed=0)
        with pytest.raises(ValueError):
            simulate(theta, LINK, 10, seed=-5)


def reference_chain(theta, link, n, burn_in, seed):
    """Step-by-step chain on one replicate: x_t = [u_t < link.eval(W h_t)]."""
    p = theta.n_lags
    u = np.random.default_rng(seed).random((p + burn_in + n, theta.n_rows))
    states = list((u[:p] < 0.5).astype(np.uint8))
    stacked = stack_tensor(theta)
    for t in range(p, u.shape[0]):
        window = np.concatenate(states[: -p - 1 : -1])  # most recent state first
        states.append((u[t] < link.eval(stacked @ window)).astype(np.uint8))
    return np.array(states[burn_in:])


class TestSimulateBatch:
    SEEDS = [3 + 1000 * r for r in range(30)]

    @pytest.mark.parametrize(
        "replicates, n_lags, scale",
        [(1, 1, 0.8), (30, 1, 0.8), (1, 3, 0.8), (30, 3, 0.8), (30, 3, 800.0)],
    )
    def test_each_path_equals_serial_call(self, replicates, n_lags, scale):
        # scale 800: |alpha * W h| passes 709, where exp(-|v|) underflows,
        # so the sigmoid reaches 0 or 1 and the clip decides the draws
        rng = np.random.default_rng(n_lags)
        theta = ParamTensor(scale * rng.standard_normal((3, 3, n_lags)))
        seeds = self.SEEDS[:replicates]
        paths = simulate_batch(theta, LINK, 200, seeds, burn_in=40)
        assert [path.seed for path in paths] == seeds
        for path, seed in zip(paths, seeds):
            assert np.array_equal(path.data, simulate(theta, LINK, 200, burn_in=40, seed=seed).data)
            assert np.array_equal(path.data, reference_chain(theta, LINK, 200, 40, seed))

    def test_sweep_size_path_equals_serial_call(self):
        # N = p = 20: each step's product sums over 400 lag entries, where the
        # batched and the one-row BLAS calls may round differently
        theta = random_sparse_theta(20, 20, 200, seed=11)
        paths = simulate_batch(theta, LINK, 60, self.SEEDS, burn_in=20)
        for path, seed in zip(paths, self.SEEDS):
            assert np.array_equal(path.data, simulate(theta, LINK, 60, burn_in=20, seed=seed).data)

    def test_chunked_batch_equals_serial(self, monkeypatch):
        theta = random_sparse_theta(2, 2, 4, seed=8)
        steps = 2 + 10 + 50
        # room for the uniforms of 3 replicates: 7 replicates run as 3 + 3 + 1
        module = importlib.import_module("mbp.simulate")  # mbp.simulate is the function
        monkeypatch.setattr(module, "MAX_BATCH_BYTES", 3 * 8 * steps * 2)
        seeds = list(range(7))
        paths = simulate_batch(theta, LINK, 50, seeds, burn_in=10)
        for path, seed in zip(paths, seeds):
            assert np.array_equal(path.data, simulate(theta, LINK, 50, burn_in=10, seed=seed).data)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            simulate_batch(ParamTensor.zeros(2, 2, 1), LINK, 10, [1, -1])


class TestDesignMatrix:
    def test_hand_unrolled_two_lags(self):
        # rows x^{-1}, x^0, x^1, x^2 = 1, 0, 1, 1; row for t=1 is [x^0 x^{-1}]
        path = path_from_rows([[1], [0], [1], [1]], n_lags=2)
        X = design_matrix(path)
        assert X.data.shape == (2, 2)
        assert np.array_equal(X.data, [[0.0, 1.0], [1.0, 0.0]])

    def test_all_zero_path(self):
        path = path_from_rows(np.zeros((6, 3)), n_lags=2)
        assert not design_matrix(path).data.any()

    def test_identity_lag_extraction(self):
        theta = random_sparse_theta(3, 2, 6, seed=8)
        path = simulate(theta, LINK, 50, seed=8)
        X = design_matrix(path)
        for t in range(1, path.n + 1):
            for lag in range(1, 3):
                for j in range(3):
                    assert (
                        X.data[t - 1, (lag - 1) * 3 + j]
                        == path.data[path.n_lags + t - lag - 1, j]
                    )

    def test_column_norms(self):
        theta = random_sparse_theta(4, 3, 10, seed=9)
        path = simulate(theta, LINK, 200, seed=9)
        X = design_matrix(path).data
        norms = np.linalg.norm(X, axis=0)
        assert np.all(norms <= math.sqrt(path.n) + 1e-12)

    def test_row_shift_property(self):
        theta = random_sparse_theta(3, 2, 4, seed=10)
        path = simulate(theta, LINK, 30, seed=10)
        X = design_matrix(path).data
        samples = path.samples()
        for t in range(path.n - 1):
            assert np.array_equal(X[t + 1, :3], samples[t].astype(float))


class TestRandomSparseTheta:
    def test_zero_budget(self):
        assert not random_sparse_theta(3, 2, 0, seed=0).values.any()

    def test_full_budget(self):
        t = random_sparse_theta(3, 2, 18, seed=0)
        assert np.all(t.values != 0.0)

    def test_exact_count_at_scale(self):
        t = random_sparse_theta(20, 20, 50, seed=11)
        assert int((t.values != 0).sum()) == 50
        assert sparse_approx(t, 50).l1_residual == 0.0

    def test_magnitude_range_and_sign(self):
        t = random_sparse_theta(10, 3, 40, 0.3, 1.0, seed=12)
        mags = np.abs(t.values[t.values != 0])
        assert mags.min() >= 0.3 and mags.max() <= 1.0
        assert (t.values > 0).any() and (t.values < 0).any()

    def test_deterministic(self):
        a = random_sparse_theta(5, 2, 10, seed=13)
        b = random_sparse_theta(5, 2, 10, seed=13)
        assert np.array_equal(a.values, b.values)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            random_sparse_theta(2, 2, 9, seed=0)
        with pytest.raises(ValueError):
            random_sparse_theta(2, 2, 2, magnitude_low=0.0, seed=0)


class TestPathFiles:
    def test_roundtrip(self, tmp_path):
        theta = random_sparse_theta(4, 2, 6, seed=14)
        path = simulate(theta, LINK, 37, seed=14)
        fname = tmp_path / "path.txt"
        write_path(path, fname)
        back = read_path(fname)
        assert np.array_equal(back.data, path.data)
        assert (back.n, back.n_dims, back.n_lags, back.seed) == (37, 4, 2, 14)

    def test_header(self, tmp_path):
        path = path_from_rows([[1, 0], [0, 1], [1, 1]], n_lags=1)
        fname = tmp_path / "p.txt"
        write_path(path, fname)
        assert fname.read_text().splitlines()[0] == "2 2 1 -1"

    def test_malformed_rejected(self, tmp_path):
        fname = tmp_path / "bad.txt"
        fname.write_text("2 2 1 0\n1 0\n")
        with pytest.raises(ValueError):
            read_path(fname)


class TestSamplePathValidation:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            SamplePath(data=np.array([[2, 0], [0, 1]]), n_lags=1)

    def test_rejects_too_few_rows(self):
        with pytest.raises(ValueError):
            SamplePath(data=np.zeros((2, 2)), n_lags=2)
