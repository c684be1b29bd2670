"""Penalty policies, soft thresholding, the proximal Newton solver and error metrics."""

import hashlib
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import path_from_rows

from mbp.estimator import (
    SIMULATION_C2,
    FitConfig,
    _column_gather,
    error_metrics,
    fit,
    kkt_residual,
    lambda_policy,
    soft_threshold,
    support_top_s,
)
from mbp.likelihood import nll, nll_grad
from mbp.link import sigmoid_link
from mbp.simulate import design_matrix, random_sparse_theta, simulate
from mbp.tensor import ParamTensor, stack_tensor, tensor_norm, unstack_tensor

LINK = sigmoid_link(1.0, 0.05)
TOL = 1e-8  # tighter than FitConfig's default, so the solver runs to its last steps


def objective(theta, path, lam):
    return nll(theta, path, LINK) + lam * float(np.abs(theta.values).sum())


def ista_oracle(path, lam, iterations=20_000):
    """Plain proximal gradient from zero at the fixed step 1/L; its last iterate.

    L = alpha^2 ||X||_2^2 / (4 n) bounds the curvature of the normalized
    logistic loss, so every step descends and the iterates converge.
    """
    X = design_matrix(path)
    Y = path.samples().astype(np.float64)
    n, alpha = X.shape[0], LINK.alpha
    step = 4.0 * n / (alpha**2 * np.linalg.norm(X, 2) ** 2)
    w = np.zeros((path.n_dims, X.shape[1]))
    for _ in range(iterations):
        resid = alpha * (1.0 / (1.0 + np.exp(-alpha * (X @ w.T))) - Y)
        v = w - step * (resid.T @ X) / n
        w = np.sign(v) * np.maximum(np.abs(v) - step * lam, 0.0)
    return unstack_tensor(w, path.n_lags)


class TestLambdaPolicy:
    def test_simulation_reference_value(self):
        value = lambda_policy(4490, 20, 20, c2=100.0)
        assert value == pytest.approx(100.0 * math.sqrt(math.log(8000.0) / 4490.0), rel=1e-12)
        assert value == pytest.approx(4.474, abs=5e-4)

    def test_simulation_default_c2(self):
        # one default, scaled for the normalized loss (100 shrinks every fit to 0)
        assert SIMULATION_C2 == 0.25
        assert lambda_policy(4490, 20, 20) == lambda_policy(4490, 20, 20, c2=SIMULATION_C2)

    def test_sqrt_scaling(self):
        assert lambda_policy(4 * 700, 5, 3) == pytest.approx(
            lambda_policy(700, 5, 3) / 2.0, rel=1e-12
        )

    def test_theorem_mode(self):
        value = lambda_policy(500, 5, 2, link=LINK, c2=1.0, mode="theorem")
        assert value == pytest.approx(5.0 * math.sqrt(math.log(50.0) / 500.0), rel=1e-12)
        assert value == pytest.approx(0.4423, abs=5e-4)

    def test_theorem_mode_needs_link(self):
        with pytest.raises(ValueError):
            lambda_policy(100, 2, 2, mode="theorem")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            lambda_policy(100, 2, 2, mode="bogus")


class TestSoftThreshold:
    def test_scalar_cases(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-0.5, 1.0) == 0.0
        assert soft_threshold(2.5, 0.0) == 2.5
        assert soft_threshold(-3.0, 1.0) == -2.0

    def test_elementwise_on_arrays(self):
        x = np.array([3.0, -0.5, 0.0, -2.0])
        np.testing.assert_allclose(soft_threshold(x, 1.0), [2.0, 0.0, 0.0, -1.0])

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(0, 5, allow_nan=False),
    )
    def test_is_prox_of_l1(self, x, lam):
        # grid-search oracle for argmin_z 0.5 (z - x)^2 + lam |z|
        grid = np.linspace(-12, 12, 9601)
        objective = 0.5 * (grid - x) ** 2 + lam * np.abs(grid)
        best = grid[int(np.argmin(objective))]
        assert soft_threshold(x, lam) == pytest.approx(best, abs=5e-3)


class TestFit:
    def test_zero_is_stationary_when_penalty_dominates(self):
        theta = random_sparse_theta(3, 1, 4, seed=0)
        path = simulate(theta, LINK, 400, seed=0)
        g0 = tensor_norm(nll_grad(ParamTensor.zeros(3, 3, 1), path, LINK)[1], "inf")
        res = fit(path, LINK, FitConfig(lam=g0 * 1.05, tol=TOL))
        assert not res.theta_hat.values.any()
        assert res.converged

    def test_matches_scalar_newton_oracle(self):
        theta = ParamTensor(np.array([[[0.8]]]))
        path = simulate(theta, LINK, 10_000, seed=1)
        x = path.data.ravel().astype(float)
        prev, cur = x[:-1], x[1:]
        t_hat = 0.0
        for _ in range(100):
            s = 1.0 / (1.0 + np.exp(-t_hat * prev))
            step = ((s - cur) * prev).mean() / ((s * (1 - s) * prev * prev).mean())
            t_hat -= step
            if abs(step) < 1e-14:
                break
        res = fit(path, LINK, FitConfig(lam=0.0, tol=1e-12, max_iters=3000))
        assert res.converged
        assert res.theta_hat.values[0, 0, 0] == pytest.approx(t_hat, abs=1e-4)

    def test_objective_trace_monotone(self):
        theta = random_sparse_theta(4, 2, 8, seed=2)
        path = simulate(theta, LINK, 300, seed=2)
        res = fit(path, LINK, FitConfig(lam=0.01, tol=TOL))
        assert np.all(np.diff(res.objective_trace) <= 0.0)

    def test_kkt_residual_at_convergence(self):
        theta = random_sparse_theta(3, 2, 6, seed=3)
        path = simulate(theta, LINK, 500, seed=3)
        lam = 0.02
        res = fit(path, LINK, FitConfig(lam=lam, tol=1e-10, max_iters=4000))
        assert res.converged
        assert kkt_residual(res.theta_hat, path, LINK, lam) <= 1e-4

    def test_each_lambda_satisfies_own_kkt(self):
        theta = random_sparse_theta(2, 2, 4, seed=4)
        path = simulate(theta, LINK, 400, seed=4)
        for lam in (0.005, 0.05):
            res = fit(path, LINK, FitConfig(lam=lam, tol=1e-10, max_iters=4000))
            assert kkt_residual(res.theta_hat, path, LINK, lam) <= 1e-4

    def test_more_samples_reduce_error_same_truth(self):
        # paired comparison on one ground truth, policy-scaled penalty
        theta = random_sparse_theta(20, 20, 50, seed=77)
        errors = {}
        for n in (500, 4490):
            path = simulate(theta, LINK, n, seed=78)
            lam = lambda_policy(n, 20, 20, c2=0.25)
            res = fit(path, LINK, FitConfig(lam=lam, tol=1e-6))
            errors[n] = error_metrics(res.theta_hat, theta, 50).frob_error
        assert errors[4490] < errors[500]

    def test_max_iters_exhaustion_flagged(self):
        theta = random_sparse_theta(3, 2, 6, seed=5)
        path = simulate(theta, LINK, 200, seed=5)
        res = fit(path, LINK, FitConfig(lam=1e-4, tol=1e-14, max_iters=3))
        assert not res.converged
        assert res.stop_reason == "max_iters"
        assert res.iterations == 3
        # the start, one pass per step on the rows it moved, the exact refresh
        assert res.gradients == 5

    @pytest.mark.parametrize("reason", ["kkt", "max_iters", "line_search"])
    def test_stop_decided_on_exact_predictors(self, monkeypatch, reason):
        # the solver carries its predictors from step to step; whatever stops
        # it, the violation it reports is the one kkt_residual computes afresh
        module = importlib.import_module("mbp.estimator")
        path = simulate(random_sparse_theta(3, 2, 6, seed=5), LINK, 200, seed=5)
        lam = 1e-4
        if reason == "line_search":
            # from the fourth step on no trial step descends, so every row
            # still above tolerance stalls on predictors carried three steps
            step, change, steps = module._newton_step, module.softplus_change, []

            def fourth_step_stalls(*args):
                steps.append(None)
                if len(steps) == 4:
                    monkeypatch.setattr(
                        module, "softplus_change", lambda b, delta: change(b, delta) + 1.0
                    )
                return step(*args)

            monkeypatch.setattr(module, "_newton_step", fourth_step_stalls)
        config = {
            "kkt": FitConfig(lam=lam, tol=TOL),
            "max_iters": FitConfig(lam=lam, tol=1e-14, max_iters=3),
            "line_search": FitConfig(lam=lam, tol=1e-14),
        }[reason]
        res = fit(path, LINK, config)
        assert res.stop_reason == reason
        assert res.iterations >= 3
        assert res.kkt_over_lambda * lam == pytest.approx(
            kkt_residual(res.theta_hat, path, LINK, lam), rel=1e-12, abs=0.0
        )

    def test_carried_predictors_follow_each_move(self, monkeypatch):
        # each accepted row shifts its predictors by its working-set columns
        # times its move: X @ move up to rounding
        module = importlib.import_module("mbp.estimator")
        path = simulate(random_sparse_theta(4, 2, 8, seed=2), LINK, 300, seed=2)
        step, moves = module._newton_step, []

        def recorded(w, grad, viol, pred, *rest):
            w0, pred0 = w.copy(), pred.copy()
            out = step(w, grad, viol, pred, *rest)
            moves.append((w - w0, pred - pred0))
            return out

        monkeypatch.setattr(module, "_newton_step", recorded)
        fit(path, LINK, FitConfig(lam=0.01, tol=TOL))
        X = design_matrix(path)
        assert len(moves) > 1 and all(move.any() for move, _ in moves)
        for move, shift in moves:
            np.testing.assert_allclose(shift, X @ move.T, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "n_dims, p, n", [(3, 1, 50), (1, 1, 40), (20, 20, 4490)], ids=["p1", "Np1", "sweep_p20"]
    )
    def test_gathered_columns_are_design_columns(self, n_dims, p, n):
        rng = np.random.default_rng(n_dims + p)
        path = path_from_rows(rng.integers(0, 2, size=(n + p, n_dims)), n_lags=p)
        cols = rng.permutation(n_dims * p)
        rows = _column_gather(path)(cols)
        assert rows.flags.c_contiguous
        assert rows.tobytes() == np.ascontiguousarray(design_matrix(path)[:, cols].T).tobytes()

    def test_step_underflow_is_not_convergence(self, monkeypatch):
        # every trial step scores 1.0 above its true loss change, so no step
        # descends: each row's line search halves until it gives up
        module = importlib.import_module("mbp.estimator")
        change = module.softplus_change
        monkeypatch.setattr(module, "softplus_change", lambda b, delta: change(b, delta) + 1.0)
        path = simulate(random_sparse_theta(3, 2, 6, seed=5), LINK, 200, seed=5)
        res = fit(path, LINK, FitConfig(lam=1e-4, tol=TOL))
        assert res.converged is False
        assert res.stop_reason == "line_search"
        assert res.iterations == 1
        assert res.halvings == 3 * module._MAX_HALVINGS
        assert not res.theta_hat.values.any()
        assert np.all(res.objective_trace == res.objective_trace[0])

    def test_duplicate_columns_singular_gram(self):
        # two identical series give identical design columns; a warm start
        # with both entries of a row nonzero makes the Gram on that sign
        # pattern exactly singular
        bits = np.random.default_rng(11).integers(0, 2, size=(400, 1))
        path = path_from_rows(np.hstack([bits, bits]), n_lags=1)
        warm = ParamTensor(np.full((2, 2, 1), 0.5))
        lam = 0.01
        res = fit(path, LINK, FitConfig(lam=lam, tol=TOL), theta_init=warm)
        assert res.converged
        oracle = objective(ista_oracle(path, lam), path, lam)
        assert objective(res.theta_hat, path, lam) <= oracle + 1e-10

    def test_theta_init_used_and_validated(self):
        theta = random_sparse_theta(2, 1, 2, seed=6)
        path = simulate(theta, LINK, 100, seed=6)
        warm = fit(path, LINK, FitConfig(lam=0.01, tol=TOL), theta_init=theta)
        assert warm.converged
        with pytest.raises(ValueError):
            fit(path, LINK, FitConfig(lam=0.01), theta_init=ParamTensor.zeros(3, 3, 1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(lam=-1.0)
        with pytest.raises(ValueError):
            FitConfig(lam=0.0, tol=0.0)
        with pytest.raises(ValueError):
            FitConfig(lam=0.0, max_iters=0)

    @pytest.mark.parametrize(
        "lam, iterations, theta_digest, trace_digest",
        [
            (0.01, 4,
             "0ae43faf4f6f92a0817b3dbc712bb5a9ccb10fed9c3be43bb59677f4cd4da1c9",
             "79c1b769b4c154059d6e27aad3083a071e8b88f19c0b54ed0f6d1ac5fca082c4"),
            (0.0, 4,
             "04313a4f15f038841c6ad709998db590784b3c1af7d6c3011f5213a3bdac7274",
             "1dda05376a9f7f36c1730e99381d02e1ce2fd33173150dafd1b60054f9b0b9ef"),
        ],
        ids=["lam_0.01", "lam_0"],
    )
    def test_fixed_seed_fit(self, lam, iterations, theta_digest, trace_digest):
        # digests of the proximal Newton iterates: any changed working set,
        # inner solve or line-search step changes them
        path = simulate(random_sparse_theta(4, 2, 8, seed=2), LINK, 300, seed=2)
        res = fit(path, LINK, FitConfig(lam=lam, tol=TOL))
        assert (res.iterations, res.stop_reason) == (iterations, "kkt")
        assert hashlib.sha256(res.theta_hat.values.tobytes()).hexdigest() == theta_digest
        assert hashlib.sha256(res.objective_trace.tobytes()).hexdigest() == trace_digest
        # the trace accumulates decreases; its end is the true objective
        assert res.objective_trace[-1] == pytest.approx(
            objective(res.theta_hat, path, lam), rel=1e-12, abs=0.0
        )

    @pytest.mark.parametrize(
        "n_dims, p, s, n, lam, low, high",
        [
            (3, 2, 6, 300, 0.01, 0.3, 1.0),
            (2, 1, 2, 200, 0.05, 0.3, 1.0),
            (4, 2, 8, 400, 0.003, 0.3, 1.0),
            (3, 1, 6, 300, 0.005, 3.0, 5.0),
        ],
        ids=["small", "penalty_heavy", "penalty_light", "clamped"],
    )
    def test_no_worse_than_ista_oracle(self, n_dims, p, s, n, lam, low, high):
        truth = random_sparse_theta(n_dims, p, s, low, high, seed=n_dims + s)
        path = simulate(truth, LINK, n, seed=n)
        res = fit(path, LINK, FitConfig(lam=lam, tol=TOL))
        assert res.converged
        oracle = objective(ista_oracle(path, lam), path, lam)
        assert objective(res.theta_hat, path, lam) <= oracle + 1e-10
        assert res.kkt_over_lambda == pytest.approx(
            kkt_residual(res.theta_hat, path, LINK, lam) / lam, rel=1e-12, abs=0.0
        )
        assert res.nnz == np.count_nonzero(res.theta_hat.values)
        if high > LINK.saturation:
            # the fitted predictors reach the region the simulator clamps
            pred = design_matrix(path) @ stack_tensor(res.theta_hat).T
            assert np.abs(LINK.alpha * pred).max() > LINK.saturation


class TestSupportSelection:
    def test_top_s_empty_budget(self):
        t = ParamTensor(np.array([3.0, -2.0, 1.0]).reshape(1, 1, 3))
        assert support_top_s(t, 0) == frozenset()

    def test_top_s_sorting(self):
        t = ParamTensor(np.array([3.0, -2.0, 1.0]).reshape(1, 1, 3))
        assert support_top_s(t, 2) == {(0, 0, 0), (0, 0, 1)}

    def test_top_s_of_zero_tensor_is_lexicographic_prefix(self):
        t = ParamTensor.zeros(2, 2, 2)
        assert support_top_s(t, 3) == {(0, 0, 0), (0, 0, 1), (0, 1, 0)}


class TestErrorMetrics:
    def test_exact_recovery(self):
        t = random_sparse_theta(4, 2, 6, seed=7)
        m = error_metrics(t, t, 6)
        assert m.frob_error == 0.0
        assert m.support_fraction == 1.0
        assert m.support_defined

    def test_zero_estimate_lexicographic_chance(self):
        star = random_sparse_theta(4, 2, 6, seed=8)
        zero = ParamTensor.zeros(4, 4, 2)
        m = error_metrics(zero, star, 6)
        true_support = {
            tuple(int(c) for c in row) for row in np.argwhere(star.values != 0)
        }
        expected = len(support_top_s(zero, 6) & true_support) / 6
        assert m.support_fraction == pytest.approx(expected)
        assert m.frob_error == pytest.approx(tensor_norm(star, "frob"))

    def test_disjoint_supports(self):
        a = np.zeros((2, 2, 2))
        a[0, 0, 0] = 1.0
        b = np.zeros((2, 2, 2))
        b[1, 1, 1] = 1.0
        m = error_metrics(ParamTensor(a), ParamTensor(b), 1)
        assert m.support_fraction == 0.0

    def test_s_zero_flagged(self):
        z = ParamTensor.zeros(2, 2, 1)
        m = error_metrics(z, z, 0)
        assert m.support_fraction == 1.0
        assert not m.support_defined

    def test_frob_error_sq_consistent(self):
        a = random_sparse_theta(3, 2, 5, seed=9)
        b = random_sparse_theta(3, 2, 5, seed=10)
        m = error_metrics(a, b, 5)
        assert m.frob_error_sq == pytest.approx(m.frob_error**2, rel=1e-12)
