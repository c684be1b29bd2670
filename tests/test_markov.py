"""Exact block kernels, contraction coefficients, mixing bounds and KL lemmas."""

import math

import numpy as np
import pytest

from helpers import scaled_to_mixing

from mbp.link import sigmoid_link
from mbp.markov import (
    ResourceLimitError,
    build_kernel,
    check_mixing_coefficient_bound,
    contraction_check,
    dobrushin_coefficient,
    kl_bernoulli,
    kl_bernoulli_bound,
    kl_chain_decomposition,
    mixing_coefficient_exact,
    mixing_coefficients,
    mixing_row_sum_exact,
    mixing_sum_bound,
    state_to_history,
    stationary_law,
)
from mbp.tensor import ParamTensor

LINK = sigmoid_link(1.0, 0.05)


class TestBuildKernel:
    def test_fair_coin_chain(self):
        k = build_kernel(ParamTensor.zeros(1, 1, 1), LINK)
        np.testing.assert_allclose(k.probs, 0.5 * np.ones((2, 2)))

    def test_scalar_rows_by_hand(self):
        theta = ParamTensor(np.array([[[1.0]]]))
        k = build_kernel(theta, LINK)
        f0, f1 = float(LINK.eval(0.0)), float(LINK.eval(1.0))
        np.testing.assert_allclose(k.probs, [[1 - f0, f0], [1 - f1, f1]])

    def test_shift_constraint_zero_pattern(self):
        theta = ParamTensor(np.array([0.7, -0.4]).reshape(1, 1, 2))
        k = build_kernel(theta, LINK)
        assert k.probs.shape == (4, 4)
        assert np.array_equal((k.probs > 0).sum(axis=1), [2, 2, 2, 2])
        # new state keeps the old recent block one lag back
        for state in range(4):
            successors = np.flatnonzero(k.probs[state])
            for nxt in successors:
                assert (nxt >> 1) & 1 == state & 1

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        theta = ParamTensor(rng.standard_normal((2, 2, 2)))
        k = build_kernel(theta, LINK)
        np.testing.assert_allclose(k.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            build_kernel(ParamTensor.zeros(4, 4, 4), LINK)

    def test_state_decoding(self):
        hist = state_to_history(0b0110, n_dims=2, n_lags=2)
        assert np.array_equal(hist, [[0, 1], [1, 0]])


class TestStationaryLaw:
    @pytest.mark.parametrize("n_dims, n_lags", [(1, 1), (2, 2), (3, 1), (1, 3), (5, 2)])
    def test_is_a_fixed_point_distribution(self, n_dims, n_lags):
        rng = np.random.default_rng(n_dims * 10 + n_lags)
        kernel = build_kernel(scaled_to_mixing(rng, n_dims, n_lags, LINK, 0.8), LINK)
        pi = stationary_law(kernel)
        assert pi.shape == (kernel.n_states,)
        assert pi.min() >= 0.0
        assert abs(pi.sum() - 1.0) <= 1e-12
        assert np.abs(pi @ kernel.probs - pi).sum() <= 1e-12

    def test_two_state_chain_by_hand(self):
        # P(0 -> 1) = a, P(1 -> 0) = b: pi = (b, a) / (a + b)
        kernel = build_kernel(ParamTensor(np.array([[[1.5]]])), LINK)
        a, b = kernel.probs[0, 1], kernel.probs[1, 0]
        assert np.allclose(stationary_law(kernel), [b / (a + b), a / (a + b)], rtol=1e-14)


class TestDobrushin:
    def test_identity_kernel(self):
        assert dobrushin_coefficient(np.eye(2)) == pytest.approx(1.0)

    def test_rank_one_kernel(self):
        P = np.array([[0.3, 0.7], [0.3, 0.7]])
        assert dobrushin_coefficient(P) == pytest.approx(0.0)

    def test_two_state_formula(self):
        P = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert dobrushin_coefficient(P) == pytest.approx(0.7)
        assert dobrushin_coefficient(P) == pytest.approx(abs(1 - 0.9 - 0.8))

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            dobrushin_coefficient(np.array([[0.5, 0.6], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            dobrushin_coefficient(np.array([[1.2, -0.2], [0.5, 0.5]]))


class TestContraction:
    def test_zero_coupling(self):
        res = contraction_check(ParamTensor.zeros(1, 1, 1), LINK)
        assert res.tau1_p_step == pytest.approx(0.0)
        assert res.mixing_norm_value == 0.0
        assert res.holds

    def test_random_tensors_never_violate(self):
        rng = np.random.default_rng(1)
        for trial in range(60):
            n_dims, p = [(1, 1), (1, 2), (2, 1), (2, 2)][trial % 4]
            theta = scaled_to_mixing(rng, n_dims, p, LINK, rng.uniform(0.05, 0.95))
            assert contraction_check(theta, LINK).holds

    def test_single_step_chain_does_not_contract_below_p(self):
        # tau1(K^r) = 1 for r < p: rows with different recent blocks stay orthogonal
        theta = ParamTensor(np.array([0.7, -0.4]).reshape(1, 1, 2))
        k = build_kernel(theta, LINK)
        assert dobrushin_coefficient(k.probs) == pytest.approx(1.0)
        two_step = np.linalg.matrix_power(k.probs, 2)
        assert dobrushin_coefficient(two_step) < 1.0
        assert (two_step > 0).all()


class TestMixingCoefficients:
    def test_independent_process(self):
        eta = mixing_coefficients(ParamTensor.zeros(1, 1, 1), LINK, 4)
        np.testing.assert_allclose(eta, np.eye(4), atol=1e-12)

    def test_point_mass_on_diagonal(self):
        theta = ParamTensor(np.array([[[0.5]]]))
        assert mixing_coefficient_exact(theta, LINK, 4, 2, 2) == 1.0

    def test_one_step_equals_dobrushin(self):
        theta = ParamTensor(np.array([[[1.0]]]))
        tau = dobrushin_coefficient(build_kernel(theta, LINK).probs)
        eta = mixing_coefficients(theta, LINK, 5)
        for k in range(4):
            assert eta[k, k + 1] == pytest.approx(tau, rel=1e-12)

    def test_bound_holds_with_equality_next_step(self):
        theta = ParamTensor(np.array([[[1.0]]]))
        assert check_mixing_coefficient_bound(theta, LINK, 5)
        tau = contraction_check(theta, LINK).tau1_p_step
        assert mixing_coefficient_exact(theta, LINK, 5, 1, 2) == pytest.approx(tau)

    def test_bound_holds_for_two_lag_models(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            theta = scaled_to_mixing(rng, 1, 2, LINK, rng.uniform(0.1, 0.9))
            assert check_mixing_coefficient_bound(theta, LINK, 6)

    def test_budget_enforced(self):
        with pytest.raises(ResourceLimitError):
            mixing_coefficients(ParamTensor.zeros(2, 2, 1), LINK, 12)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            mixing_coefficient_exact(ParamTensor.zeros(1, 1, 1), LINK, 4, 3, 2)


class TestRowSumBound:
    def test_formula_values(self):
        assert mixing_sum_bound(0.5, 2) == pytest.approx(10.0)
        assert mixing_sum_bound(0.0, 7) == pytest.approx(2.0)

    def test_rejects_tau_at_one(self):
        with pytest.raises(ValueError):
            mixing_sum_bound(1.0, 2)

    def test_dominates_exact_row_sum(self):
        rng = np.random.default_rng(3)
        for p in (1, 2):
            theta = scaled_to_mixing(rng, 1, p, LINK, 0.5)
            tau = contraction_check(theta, LINK).tau1_p_step
            h = mixing_row_sum_exact(theta, LINK, 6)
            assert h * h <= mixing_sum_bound(tau, p) + 1e-10


class TestKlBernoulli:
    def test_identical_laws(self):
        assert kl_bernoulli(0.4, 0.4) == 0.0
        assert kl_bernoulli_bound(0.4, 0.4, 0.1) == 0.0

    def test_reference_values(self):
        assert kl_bernoulli(0.3, 0.7) == pytest.approx(0.4 * math.log(7.0 / 3.0), rel=1e-12)
        assert kl_bernoulli_bound(0.3, 0.7, 0.3) == pytest.approx(3.0 * 0.16 / 0.84, rel=1e-12)

    def test_bound_dominates_on_grid(self):
        eps = 0.05
        grid = np.arange(0.05, 0.96, 0.05)
        for p_ in grid:
            for q_ in grid:
                assert kl_bernoulli(p_, q_) <= kl_bernoulli_bound(p_, q_, eps) + 1e-12

    def test_band_validation(self):
        with pytest.raises(ValueError):
            kl_bernoulli_bound(0.02, 0.5, 0.05)
        with pytest.raises(ValueError):
            kl_bernoulli(0.0, 0.5)


class TestKlDecomposition:
    def test_identical_histories(self):
        theta = ParamTensor(np.array([0.6, -0.2]).reshape(1, 1, 2))
        res = kl_chain_decomposition(theta, LINK, 2, 2)
        assert res.lhs == pytest.approx(0.0, abs=1e-14)
        assert res.rhs == pytest.approx(0.0, abs=1e-14)
        assert res.agree

    def test_memoryless_process(self):
        res = kl_chain_decomposition(ParamTensor.zeros(1, 1, 2), LINK, 0, 3)
        assert res.lhs == pytest.approx(0.0, abs=1e-14)
        assert res.agree

    def test_all_pairs_agree(self):
        rng = np.random.default_rng(4)
        for trial in range(4):
            theta = ParamTensor(rng.standard_normal((1, 1, 2)) * 0.8)
            for z in range(4):
                for y in range(4):
                    res = kl_chain_decomposition(theta, LINK, z, y)
                    assert res.agree, (trial, z, y, res.lhs, res.rhs)

    def test_multivariate_pair(self):
        rng = np.random.default_rng(5)
        theta = ParamTensor(rng.standard_normal((2, 2, 1)) * 0.6)
        res = kl_chain_decomposition(theta, LINK, 0, 3)
        assert res.agree

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            kl_chain_decomposition(ParamTensor.zeros(4, 4, 3), LINK, 0, 1)
