"""Loss, gradient, quadratic form, Taylor remainder and the Monte-Carlo trials."""

import math

import numpy as np
import pytest

from helpers import clamp_free_tensor, path_from_rows, scaled_to_mixing

from mbp import likelihood
from mbp.config import ExperimentConfig
from mbp.experiments import run_experiment
from mbp.likelihood import (
    EXACT_MEAN_MAX_BITS,
    concentration_trial,
    grad_bound_trial,
    nll,
    nll_grad,
    quad_form,
    rsc_probe,
    stationary_quad_form,
    taylor_remainder,
)
from mbp.link import sigmoid_link
from mbp.markov import MAX_KERNEL_BITS
from mbp.simulate import design_matrix, random_sparse_theta, simulate, simulate_batch
from mbp.tensor import ParamTensor, stack_tensor, tensor_norm

LINK = sigmoid_link(1.0, 0.05)


def reference_nll(theta, path, link):
    """Independent double-loop implementation on raw path rows.

    The loss is the unclamped logistic one: no probability is clipped.
    """
    v = theta.values
    n, n_dims, p = path.n, path.n_dims, path.n_lags
    total = 0.0
    for t in range(1, n + 1):
        for i in range(n_dims):
            u = 0.0
            for j in range(n_dims):
                for lag in range(1, p + 1):
                    u += v[i, j, lag - 1] * path.data[p + t - lag - 1, j]
            z = 1.0 / (1.0 + math.exp(-link.alpha * u))
            x = path.data[p + t - 1, i]
            total -= x * math.log(z) + (1 - x) * math.log(1.0 - z)
    return total / n


class TestNll:
    def test_symmetric_predictor_single_series(self):
        path = path_from_rows([[1], [0], [1], [1]], n_lags=1)
        assert nll(ParamTensor.zeros(1, 1, 1), path, LINK) == pytest.approx(math.log(2))

    def test_symmetric_predictor_sums_over_coordinates(self):
        # per-sample normalization only: N fair coins cost N log 2 per sample
        theta = ParamTensor.zeros(3, 3, 1)
        path = simulate(theta, LINK, 20, seed=0)
        assert nll(theta, path, LINK) == pytest.approx(3 * math.log(2))

    def test_single_term_hand_evaluation(self):
        path = path_from_rows([[1], [1]], n_lags=1)
        assert nll(ParamTensor.zeros(1, 1, 1), path, LINK) == pytest.approx(math.log(2))

    def test_matches_double_loop_reference(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            n_dims, p = rng.integers(1, 4), rng.integers(1, 3)
            theta_sim = random_sparse_theta(n_dims, p, n_dims * p, seed=trial)
            path = simulate(theta_sim, LINK, 40, seed=trial)
            theta = ParamTensor(rng.standard_normal((n_dims, n_dims, p)))
            assert nll(theta, path, LINK) == pytest.approx(
                reference_nll(theta, path, LINK), rel=1e-12
            )

    def test_shape_mismatch(self):
        path = path_from_rows([[1], [0], [1]], n_lags=1)
        with pytest.raises(ValueError):
            nll(ParamTensor.zeros(2, 2, 1), path, LINK)


class TestGrad:
    def test_single_term_hand_evaluation(self):
        # x^0 = 1, x^1 = 1, theta = 0: (0 - 1/0.5) * 0.25 * 1 = -0.5
        path = path_from_rows([[1], [1]], n_lags=1)
        g = nll_grad(ParamTensor.zeros(1, 1, 1), path, LINK)[1]
        assert g.values[0, 0, 0] == pytest.approx(-0.5)

    def test_zero_history_column_kills_entries(self):
        rows = np.array([[1, 0], [0, 0], [1, 0], [1, 0], [0, 0]])
        path = path_from_rows(rows, n_lags=1)
        g = nll_grad(ParamTensor.zeros(2, 2, 1), path, LINK)[1]
        assert np.all(g.values[:, 1, :] == 0.0)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(2)
        for trial in range(6):
            n_dims = int(rng.integers(1, 5))
            p = int(rng.integers(1, 4))
            theta_sim = clamp_free_tensor(rng, n_dims, p, LINK)
            path = simulate(theta_sim, LINK, 60, seed=trial)
            theta = clamp_free_tensor(rng, n_dims, p, LINK, fill=0.7)
            g = nll_grad(theta, path, LINK)[1].values
            h = 1e-6
            for idx in [(0, 0, 0), (n_dims - 1, n_dims - 1, p - 1)]:
                bump = np.zeros_like(theta.values)
                bump[idx] = h
                fd = (
                    nll(ParamTensor(theta.values + bump), path, LINK)
                    - nll(ParamTensor(theta.values - bump), path, LINK)
                ) / (2 * h)
                assert g[idx] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_sup_norm_bound_even_when_saturated(self):
        rng = np.random.default_rng(3)
        bound = LINK.lipschitz / LINK.eps
        for trial in range(10):
            theta_sim = ParamTensor(rng.standard_normal((3, 3, 2)) * 3.0)
            path = simulate(theta_sim, LINK, 50, seed=trial)
            theta = ParamTensor(rng.standard_normal((3, 3, 2)) * 4.0)
            assert tensor_norm(nll_grad(theta, path, LINK)[1], "inf") <= bound + 1e-12

    def test_value_and_grad_consistent(self):
        rng = np.random.default_rng(4)
        theta_sim = random_sparse_theta(2, 2, 4, seed=5)
        path = simulate(theta_sim, LINK, 80, seed=5)
        theta = clamp_free_tensor(rng, 2, 2, LINK, fill=0.7)
        value, grad = nll_grad(theta, path, LINK)
        assert value == pytest.approx(nll(theta, path, LINK), rel=1e-14)
        h = 1e-6
        for idx in np.ndindex(*theta.values.shape):
            bump = np.zeros_like(theta.values)
            bump[idx] = h
            fd = (
                nll(ParamTensor(theta.values + bump), path, LINK)
                - nll(ParamTensor(theta.values - bump), path, LINK)
            ) / (2 * h)
            assert grad.values[idx] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestQuadForm:
    def test_zero_delta(self):
        path = path_from_rows([[1], [0], [1]], n_lags=1)
        assert quad_form(ParamTensor.zeros(1, 1, 1), path, LINK) == 0.0

    def test_two_term_hand_evaluation(self):
        # history bits all ones: both inner products equal d
        path = path_from_rows([[1], [1], [1]], n_lags=1)
        d = 0.7
        expected = LINK.curvature * d * d
        assert quad_form(ParamTensor(np.array([[[d]]])), path, LINK) == pytest.approx(expected)

    def test_matches_stacked_form(self):
        rng = np.random.default_rng(6)
        for trial in range(30):
            n_dims, p = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            theta_sim = random_sparse_theta(n_dims, p, n_dims, seed=trial)
            path = simulate(theta_sim, LINK, 50, seed=trial)
            delta = ParamTensor(rng.standard_normal((n_dims, n_dims, p)))
            lhs = quad_form(delta, path, LINK)
            X = design_matrix(path)
            rhs = LINK.curvature * float(((X @ stack_tensor(delta).T) ** 2).sum()) / path.n
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_non_negative(self):
        rng = np.random.default_rng(7)
        theta_sim = random_sparse_theta(3, 2, 5, seed=8)
        path = simulate(theta_sim, LINK, 40, seed=8)
        for _ in range(10):
            delta = ParamTensor(rng.standard_normal((3, 3, 2)))
            assert quad_form(delta, path, LINK) >= 0.0


class TestTaylorRemainder:
    def test_zero_perturbation(self):
        theta_sim = random_sparse_theta(2, 1, 2, seed=9)
        path = simulate(theta_sim, LINK, 60, seed=9)
        theta = ParamTensor(np.full((2, 2, 1), 0.2))
        assert taylor_remainder(theta, ParamTensor.zeros(2, 2, 1), path, LINK) == 0.0

    def test_dominates_quadratic_form(self):
        rng = np.random.default_rng(10)
        for trial in range(40):
            n_dims = int(rng.integers(1, 5))
            p = int(rng.integers(1, 4))
            base = clamp_free_tensor(rng, n_dims, p, LINK, fill=0.45)
            delta = clamp_free_tensor(rng, n_dims, p, LINK, fill=0.45)
            path = simulate(base, LINK, 50, seed=trial)
            rem = taylor_remainder(base, delta, path, LINK)
            assert rem >= quad_form(delta, path, LINK) - 1e-9

    def test_non_negative_in_smooth_region(self):
        rng = np.random.default_rng(11)
        base = clamp_free_tensor(rng, 3, 2, LINK, fill=0.45)
        delta = clamp_free_tensor(rng, 3, 2, LINK, fill=0.45)
        path = simulate(base, LINK, 70, seed=12)
        assert taylor_remainder(base, delta, path, LINK) >= -1e-9

    def test_midpoint_convexity_smooth_region(self):
        rng = np.random.default_rng(13)
        a = clamp_free_tensor(rng, 2, 2, LINK, fill=0.45)
        b = clamp_free_tensor(rng, 2, 2, LINK, fill=0.45)
        path = simulate(a, LINK, 60, seed=14)
        mid = ParamTensor(0.5 * (a.values + b.values))
        assert nll(mid, path, LINK) <= 0.5 * (
            nll(a, path, LINK) + nll(b, path, LINK)
        ) + 1e-9


class TestGradBoundTrial:
    def test_bound_value(self):
        # (L/eps) sqrt(c1 log(N^2 p) / n) at L/eps = 5, c1 = 4, dim 50, n = 500
        theta = ParamTensor.zeros(5, 5, 2)
        report = grad_bound_trial(theta, LINK, n=500, c1=4.0, replicates=1, seed=0)
        expected = 5.0 * math.sqrt(4.0 * math.log(50.0) / 500.0)
        assert report.rows[0][2] == pytest.approx(expected, rel=1e-12)

    def test_single_replicate_rate(self):
        theta = ParamTensor.zeros(2, 2, 1)
        report = grad_bound_trial(theta, LINK, n=200, c1=4.0, replicates=1, seed=1)
        assert report.rate in (0.0, 1.0)

    def test_requires_c1_above_two(self):
        with pytest.raises(ValueError):
            grad_bound_trial(ParamTensor.zeros(2, 2, 1), LINK, 100, 2.0, 5, 0)

    def test_violation_rate_within_contract(self):
        theta = ParamTensor.zeros(3, 3, 1)
        report = grad_bound_trial(theta, LINK, n=300, c1=4.0, replicates=40, seed=2)
        se = math.sqrt(max(report.bound_rate * (1 - report.bound_rate), 0.25 / 40) / 40)
        assert report.rate <= report.bound_rate + 3.0 * se + 1e-12

    @staticmethod
    def trial_csv(tmp_path, **keys):
        """The per-replicate CSV of a grad-bound diagnose config with these keys."""
        config = ExperimentConfig.from_mapping({
            "experiment": "diagnose", "diagnose.check": "grad-bound",
            "output_dir": str(tmp_path), **keys,
        })
        run_experiment(config)
        return tmp_path / "diagnose_grad_bound.csv"

    def test_csv_rows(self, tmp_path):
        # the zero tensor at N = 2, p = 1
        fname = self.trial_csv(tmp_path, N="2", p="1", **{
            "diagnose.s": "0", "diagnose.n": "100", "diagnose.c1": "4",
            "diagnose.replicates": "3", "diagnose.seed": "3",
        })
        lines = fname.read_text().splitlines()
        assert lines[0] == "replicate,statistic,bound,violated"
        assert len(lines) == 4

    def test_csv_bytes_fixed_at_seed(self, tmp_path):
        # written by the serial one-path-per-replicate trial; the batched
        # chain must reproduce every path, hence every byte
        expected = (
            "replicate,statistic,bound,violated\n"
            "0,0.0488499979279,1.20215884098,0\n"
            "1,0.0457827438478,1.20215884098,0\n"
            "2,0.0439008465946,1.20215884098,0\n"
            "3,0.0375,1.20215884098,0\n"
            "4,0.055,1.20215884098,0\n"
            "5,0.0470279113598,1.20215884098,0\n"
        )
        # the truth is random_sparse_theta(3, 2, 6, seed=4)
        fname = self.trial_csv(tmp_path, N="3", p="2", **{
            "diagnose.s": "6", "diagnose.theta_seed": "4", "diagnose.n": "200",
            "diagnose.c1": "4", "diagnose.replicates": "6", "diagnose.seed": "21",
            "sim.burn_in": "100",
        })
        assert fname.read_bytes() == expected.encode("ascii")


class TestRscProbe:
    def test_non_negative(self):
        theta = random_sparse_theta(3, 1, 3, seed=15)
        path = simulate(theta, LINK, 100, seed=15)
        assert rsc_probe(theta, LINK, path, s=3, n_directions=5, seed=0) >= 0.0

    def test_single_on_support_direction(self):
        theta = random_sparse_theta(2, 1, 4, seed=16)
        path = simulate(theta, LINK, 100, seed=16)
        # full support: the lone direction is dense normal, value = ratio
        value = rsc_probe(theta, LINK, path, s=4, n_directions=1, seed=7)
        rng = np.random.default_rng(7)
        direction = np.zeros((2, 2, 1))
        direction[np.ones((2, 2, 1), dtype=bool)] = rng.standard_normal(4)
        expected = quad_form(ParamTensor(direction), path, LINK) / float(
            (direction**2).sum()
        )
        assert value == pytest.approx(expected, rel=1e-12)

    def test_iid_curvature_near_quarter(self):
        # independent fair coins: population curvature is c * 1/4
        theta = ParamTensor.zeros(5, 5, 1)
        path = simulate(theta, LINK, 5000, seed=17)
        value = rsc_probe(theta, LINK, path, s=5, n_directions=40, seed=8)
        target = LINK.curvature * 0.25
        assert target / 2 <= value <= target * 2


class TestStationaryQuadForm:
    @pytest.mark.parametrize("n_dims, n_lags", [(2, 2), (3, 1)])
    def test_matches_long_run_estimate(self, n_dims, n_lags):
        # 200k steps: 20 independent 10k-step paths, whose quad forms are the
        # batch means; 4 standard errors of their mean bound the gap
        rng = np.random.default_rng(10 * n_dims + n_lags)
        theta = scaled_to_mixing(rng, n_dims, n_lags, LINK, 0.6)
        delta = ParamTensor(rng.standard_normal((n_dims, n_dims, n_lags)))
        paths = simulate_batch(theta, LINK, 10_000, range(20), burn_in=200)
        batch = np.array([quad_form(delta, path, LINK) for path in paths])
        se = batch.std(ddof=1) / math.sqrt(batch.size)
        exact = stationary_quad_form(delta, theta, LINK)
        assert abs(exact - batch.mean()) <= 4.0 * se

    def test_iid_fair_coins(self):
        # independent fair coins: E <Delta_k, x>^2 = (sum_j d_kj^2 + (sum_j d_kj)^2) / 4
        delta = ParamTensor(np.array([[[1.0], [2.0]], [[-1.0], [0.5]]]))
        d = delta.values[:, :, 0]
        expected = LINK.curvature * ((d**2).sum() + (d.sum(axis=1) ** 2).sum()) / 4.0
        value = stationary_quad_form(delta, ParamTensor.zeros(2, 2, 1), LINK)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            stationary_quad_form(ParamTensor.zeros(2, 2, 1), ParamTensor.zeros(2, 2, 2), LINK)


class TestConcentrationTrial:
    @staticmethod
    def replicate_quad_forms(theta, delta, n, replicates, seed):
        # replicate seeds are children 1.. of the trial seed; child 0 is the
        # fallback reference run's
        children = np.random.SeedSequence(seed).spawn(replicates + 1)
        seeds = [int(c.generate_state(1, np.uint64)[0]) for c in children]
        forms = [quad_form(delta, simulate(theta, LINK, n, seed=s), LINK) for s in seeds[1:]]
        return seeds[0], np.array(forms)

    @pytest.mark.parametrize("n_dims,n_lags", [(2, 2), (EXACT_MEAN_MAX_BITS, 1)])
    def test_exact_mean_up_to_exact_cap(self, n_dims, n_lags):
        rng = np.random.default_rng(21)
        theta = scaled_to_mixing(rng, n_dims, n_lags, LINK, 0.5)
        delta = ParamTensor(rng.standard_normal((n_dims, n_dims, n_lags)))
        report = concentration_trial(theta, LINK, delta, n=300, t=0.1, replicates=4, seed=5)
        _, forms = self.replicate_quad_forms(theta, delta, 300, 4, seed=5)
        expected = np.abs(forms - stationary_quad_form(delta, theta, LINK))
        assert np.array_equal([row[1] for row in report.rows], expected)

    # above EXACT_MEAN_MAX_BITS, within the kernel cap (N p = 11, 12) and beyond it
    @pytest.mark.parametrize(
        "n_dims,n_lags", [(EXACT_MEAN_MAX_BITS + 1, 1), (6, 2), (MAX_KERNEL_BITS + 1, 1)]
    )
    def test_long_chain_fallback_above_exact_cap(self, monkeypatch, n_dims, n_lags):
        # a 400-step reference chain instead of the 10^6-term one
        monkeypatch.setattr(likelihood, "REFERENCE_TERMS", n_dims * 400)
        theta = ParamTensor.zeros(n_dims, n_dims, n_lags)
        delta = ParamTensor(
            np.random.default_rng(22).standard_normal((n_dims, n_dims, n_lags))
        )
        report = concentration_trial(
            theta, LINK, delta, n=50, t=0.1, replicates=2, seed=6,
        )
        ref_seed, forms = self.replicate_quad_forms(theta, delta, 50, 2, seed=6)
        mean = quad_form(delta, simulate(theta, LINK, 400, seed=ref_seed), LINK)
        assert np.array_equal([row[1] for row in report.rows], np.abs(forms - mean))


    def test_zero_direction(self):
        rng = np.random.default_rng(18)
        theta = scaled_to_mixing(rng, 2, 1, LINK, 0.4)
        report = concentration_trial(
            theta, LINK, ParamTensor.zeros(2, 2, 1), n=200, t=0.01,
            replicates=5, seed=0,
        )
        assert report.rate == 0.0

    def test_requires_contracting_process(self):
        theta = ParamTensor(np.full((2, 2, 1), 4.0))
        with pytest.raises(ValueError):
            concentration_trial(
                theta, LINK, ParamTensor.zeros(2, 2, 1), n=100, t=0.1,
                replicates=2, seed=0,
            )

    def test_small_tail_rate(self):
        rng = np.random.default_rng(19)
        theta = scaled_to_mixing(rng, 2, 1, LINK, 0.4)
        delta = ParamTensor(rng.standard_normal((2, 2, 1)))
        report = concentration_trial(
            theta, LINK, delta, n=1200, t=0.12, replicates=30, seed=1,
        )
        se = math.sqrt(0.25 / 30)
        assert report.rate <= report.bound_rate + 3.0 * se + 1e-12

    def test_iid_deviation_quantile_sub_gaussian(self):
        # 99th percentile of deviations within 3x the tail-bound scale
        from mbp.tensor import concentration_constant

        rng = np.random.default_rng(20)
        theta = ParamTensor.zeros(2, 2, 1)
        delta = ParamTensor(rng.standard_normal((2, 2, 1)))
        n = 2000
        mega = simulate(theta, LINK, 250_000, seed=999)
        e_mean = quad_form(delta, mega, LINK)
        devs = [
            abs(quad_form(delta, simulate(theta, LINK, n, seed=3000 + rep), LINK) - e_mean)
            for rep in range(100)
        ]
        g = concentration_constant(theta, LINK)
        scale = math.sqrt(g * math.log(200.0) / n) * tensor_norm(delta, "211") ** 2
        assert float(np.percentile(devs, 99)) <= 3.0 * scale
