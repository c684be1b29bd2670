"""Exact block kernels, contraction coefficients, mixing bounds and KL lemmas."""

import functools
import importlib
import math

import numpy as np
import pytest

from helpers import (
    check_mixing_coefficient_bound,
    kernel_oracle,
    kl_bernoulli,
    kl_bernoulli_bound,
    mixing_row_sum_exact,
    mixing_sum_bound,
    p_step_by_paths,
    p_step_oracle,
    scaled_to_mixing,
    window_probs_oracle,
)

from mbp.link import sigmoid_link
from mbp.markov import (
    DOBRUSHIN_PIVOTS,
    ResourceLimitError,
    _path_law,
    _window_probs,
    build_kernel,
    contraction_check,
    dobrushin_coefficient,
    kl_chain_decomposition,
    mixing_coefficients,
    stationary_law,
)
from mbp.tensor import ParamTensor, stack_tensor

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


@pytest.mark.parametrize(
    "enumeration",
    [
        build_kernel,
        contraction_check,
        kl_chain_decomposition,
        functools.partial(mixing_coefficients, n=2),
    ],
    ids=["build_kernel", "contraction_check", "kl_chain_decomposition", "mixing_coefficients"],
)
def test_every_enumeration_refuses_a_non_square_tensor(enumeration):
    with pytest.raises(ValueError, match="square"):
        enumeration(ParamTensor.zeros(1, 2, 1), LINK)


# (N, p) from one state bit up to the 1024 states of the diagnose workload
TABLE_SHAPES = [(1, 1), (2, 1), (1, 3), (2, 2), (5, 2), (3, 3), (10, 1), (1, 4), (2, 5), (1, 10)]
# weight scales: predictors well inside the clamp-free band up to far past it
TABLE_SCALES = [0.1, 1.0, 4.0]


def p_step_kernel(theta):
    """P^p as contraction_check and kl_chain_decomposition build it."""
    return _path_law(_window_probs(theta, LINK)[1], theta.n_lags)


def ulp_gap(a, b):
    """Largest distance in units in the last place between two positive float arrays."""
    return int(np.abs(a.view(np.int64) - b.view(np.int64)).max())


@pytest.mark.parametrize("scale", TABLE_SCALES)
@pytest.mark.parametrize("n_dims, n_lags", TABLE_SHAPES)
class TestExactTables:
    """The window table, the kernel and the p-step kernel against slow oracles."""

    @pytest.fixture
    def theta(self, n_dims, n_lags, scale):
        rng = np.random.default_rng(100 * n_dims + n_lags)
        return ParamTensor(scale * rng.standard_normal((n_dims, n_dims, n_lags)))

    def test_window_table_equals_block_loop(self, theta, scale):
        probs_one, block_probs = _window_probs(theta, LINK)
        want_one, want_block = window_probs_oracle(theta, LINK)
        assert np.array_equal(probs_one, want_one)
        assert np.array_equal(block_probs, want_block)
        if scale == TABLE_SCALES[-1]:
            assert probs_one.min() == LINK.eps or probs_one.max() == 1.0 - LINK.eps

    def test_kernel_equals_scatter(self, theta):
        assert np.array_equal(build_kernel(theta, LINK).probs, kernel_oracle(theta, LINK))

    def test_p_step_equals_path_products(self, theta):
        assert np.array_equal(p_step_kernel(theta), p_step_by_paths(theta, LINK))

    def test_p_step_equals_matrix_power(self, theta, n_lags):
        # matrix_power pairs the factors left to right only for p <= 3
        got, want = p_step_kernel(theta), p_step_oracle(theta, LINK)
        assert got.shape == want.shape and (got > 0).all()
        if n_lags <= 3:
            assert np.array_equal(got, want)
        else:
            assert ulp_gap(got, want) <= 8


def state_to_history(state, n_dims, n_lags):
    """Decode a state integer into a (p, N) array, most recent lag in row 0."""
    bits = [(state >> (u * n_dims + i)) & 1 for u in range(n_lags) for i in range(n_dims)]
    return np.array(bits, dtype=np.uint8).reshape(n_lags, n_dims)


def path_law_oracle(theta, link, n, start_state):
    """Joint law of n steps from one start window, built predictor by predictor.

    Paths are integers with step t in bits [(t-1) N, t N).
    """
    n_dims, p = theta.n_rows, theta.n_lags
    stacked = stack_tensor(theta)
    start_hist = state_to_history(start_state, n_dims, p)
    probs = np.ones(1)
    for t in range(1, n + 1):
        n_prefix = probs.size
        prefix = np.arange(n_prefix, dtype=np.int64)
        pred = np.zeros((n_prefix, n_dims))
        for lag in range(1, p + 1):
            src = t - lag
            for j in range(n_dims):
                if src >= 1:
                    bit = ((prefix >> ((src - 1) * n_dims + j)) & 1).astype(np.float64)
                else:
                    bit = float(start_hist[-src, j])  # lag reaching into the start block
                for i in range(n_dims):
                    w = stacked[i, (lag - 1) * n_dims + j]
                    if w != 0.0:
                        pred[:, i] += w * bit
        z = np.asarray(link.eval(pred))
        new = np.empty(n_prefix << n_dims)
        for block in range(1 << n_dims):
            cond = np.ones(n_prefix)
            for i in range(n_dims):
                cond = cond * (z[:, i] if (block >> i) & 1 else 1.0 - z[:, i])
            new[block * n_prefix : (block + 1) * n_prefix] = probs * cond
        probs = new
    return probs


def mixing_coefficients_oracle(theta, link, n):
    """eta from one start window at a time, each from its own path law."""
    n_dims, p = theta.n_rows, theta.n_lags
    block = 1 << n_dims
    eta = np.eye(n)
    for start_state in range(1 << (n_dims * p)):
        law = path_law_oracle(theta, link, n, start_state)
        for k in range(1, n + 1):
            n_suffix = 1 << (n_dims * (n - k))
            cube = law.reshape(n_suffix, block, -1)
            cond = cube / cube.sum(axis=0)[None, :, :]
            for l in range(k + 1, n + 1):
                n_block = 1 << (n_dims * (n - l + 1))
                marg = cond.reshape(n_block, n_suffix // n_block, block, -1).sum(axis=1)
                for w1 in range(block - 1):
                    d = 0.5 * np.abs(marg[:, w1 + 1 :, :] - marg[:, w1 : w1 + 1, :]).sum(axis=0)
                    eta[k - 1, l - 1] = max(eta[k - 1, l - 1], float(d.max()))
    return eta


def kl_decomposition_oracle(theta, link):
    """(lhs, rhs) pair by pair; rhs by the chain-rule recursion over partial paths."""
    n_dims, p = theta.n_rows, theta.n_lags
    p_step = p_step_by_paths(theta, link)
    n_states = p_step.shape[0]
    stacked = stack_tensor(theta)
    hists = [state_to_history(s, n_dims, p).astype(np.float64) for s in range(n_states)]

    @functools.cache
    def step_probs(recent, start):
        # recent: sampled states as bit tuples, most recent first; window start fills the rest
        window = np.concatenate([np.array(recent[:p]).reshape(-1, n_dims), hists[start]])[:p]
        return np.asarray(link.eval(stacked @ window.ravel()))

    @functools.cache
    def partials(start, depth):
        # (recent, weight) of every partial path of depth steps, drawn from start
        if depth == 0:
            return [((), 1.0)]
        out = []
        for recent, weight in partials(start, depth - 1):
            pz = step_probs(recent, start)
            for block in range(1 << n_dims):
                bits = tuple(float((block >> i) & 1) for i in range(n_dims))
                prob = float(np.prod(np.where(np.array(bits) > 0, pz, 1.0 - pz)))
                out.append(((bits,) + recent, weight * prob))
        return out

    def chain_rule(z, y):
        rhs = 0.0
        for depth in range(p):
            contrib = 0.0
            for recent, weight in partials(z, depth):
                pz, py = step_probs(recent, z), step_probs(recent, y)
                contrib += weight * sum(kl_bernoulli(float(a), float(b)) for a, b in zip(pz, py))
            rhs += contrib
        return rhs

    lhs, rhs = np.empty((n_states, n_states)), np.empty((n_states, n_states))
    for z, y in np.ndindex(n_states, n_states):
        row_z, row_y = p_step[z], p_step[y]
        lhs[z, y] = float((row_z * np.log(row_z / row_y)).sum())
        rhs[z, y] = chain_rule(z, y)
    return lhs, rhs


# (N, p, n for eta): 15 draws over ten shapes, mixing norms uniform in (0.05, 0.95);
# the last three have n < p, n = p and n = p at N p = 5
ORACLE_DRAWS = [
    (1, 1, 6), (1, 1, 3), (1, 2, 6), (1, 2, 5), (1, 3, 6), (1, 3, 4),
    (2, 1, 6), (2, 1, 4), (2, 2, 5), (2, 2, 3), (3, 1, 4), (1, 4, 6),
    (1, 4, 2), (2, 3, 3), (1, 5, 5),
]


def oracle_thetas():
    rng = np.random.default_rng(11)
    for n_dims, n_lags, n in ORACLE_DRAWS:
        theta = scaled_to_mixing(rng, n_dims, n_lags, LINK, rng.uniform(0.05, 0.95))
        yield pytest.param(theta, n, id=f"N{n_dims}-p{n_lags}-n{n}")


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


def full_scan_dobrushin(P):
    """The unpruned O(S^3) scan: every row against all rows below it."""
    worst = 0.0
    for i in range(P.shape[0] - 1):
        d = 0.5 * np.abs(P[i + 1 :] - P[i]).sum(axis=1).max()
        worst = max(worst, float(d))
    return worst


def p_step_kernels(n_dims, n_lags, count, seed):
    """p-step kernels of dense tensors with mixing norm uniform in (0.05, 0.95)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        theta = scaled_to_mixing(rng, n_dims, n_lags, LINK, rng.uniform(0.05, 0.95))
        yield p_step_oracle(theta, LINK)


def hadamard_halves(order):
    """0/1 rows marking the +1 entries of a Sylvester Hadamard matrix."""
    h = np.ones((1, 1))
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    return h > 0


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

    @pytest.mark.parametrize(
        "n_dims, n_lags, count", [(2, 2, 8), (3, 2, 8), (6, 1, 4), (5, 2, 2), (10, 1, 1)]
    )
    def test_dense_kernels_equal_full_scan(self, n_dims, n_lags, count):
        # 16, 64 and 1024 states; bit-for-bit equality, not closeness
        for P in p_step_kernels(n_dims, n_lags, count, seed=n_dims * 10 + n_lags):
            assert dobrushin_coefficient(P) == full_scan_dobrushin(P)

    def test_permutation_prunes_nothing(self):
        # every pair sits at distance 1, so no triangle bound rules one out
        P = np.eye(64)[np.random.default_rng(6).permutation(64)]
        assert dobrushin_coefficient(P) == full_scan_dobrushin(P) == 1.0

    def test_rank_one_is_zero(self):
        P = np.tile(np.random.default_rng(7).dirichlet(np.ones(32)), (32, 1))
        assert dobrushin_coefficient(P) == full_scan_dobrushin(P) == 0.0

    def test_single_state(self):
        assert dobrushin_coefficient(np.ones((1, 1))) == 0.0

    def test_max_pair_without_pivot(self):
        # uniform laws on the halves of a Hadamard code: the 14 filler rows
        # lie at distance 0.5 from each other and from rows a and b, which
        # are complements at distance 1. All nearest-pivot distances tie, so
        # farthest-first takes the fillers in index order, and the largest
        # pair (a, b) is found by the pruned scan, not by a pivot
        halves = hadamard_halves(16)
        rows = np.vstack([halves[2:], halves[1], ~halves[1]]) / 8.0
        assert rows.shape[0] - 2 > DOBRUSHIN_PIVOTS
        assert dobrushin_coefficient(rows) == full_scan_dobrushin(rows) == 1.0

    def test_slack_covers_rounding_at_a_tight_bound(self, monkeypatch):
        # k lies on the segment from a to b, so the triangle bound of (a, b)
        # through k is tight; a' and b' are a and b with their columns
        # permuted, at the same true distance. Rounding puts the computed
        # d(a, b) above both its computed bound and d(a', b'), the largest
        # pivot distance, so only the slack keeps the pair in the scan
        monkeypatch.setattr(importlib.import_module("mbp.markov"), "DOBRUSHIN_PIVOTS", 2)
        rng = np.random.default_rng(82)
        a, b = np.zeros(8), np.zeros(8)
        a[:6], b[:6] = rng.dirichlet(np.ones(6), size=2)
        k = 0.4 * a + 0.6 * b
        perm = np.r_[rng.permutation(6), 6, 7]
        P = np.vstack([k, a[perm], b[perm], a, b, k, k, k])

        def tv(x, y):
            return 0.5 * np.abs(x - y).sum()

        assert tv(a, b) > max(tv(a, k) + tv(k, b), tv(a[perm], b[perm]))
        assert dobrushin_coefficient(P) == full_scan_dobrushin(P) == tv(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            dobrushin_coefficient(np.array([[bad, bad], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="non-finite"):
            dobrushin_coefficient(np.array([[0.5, 0.5], [bad, 0.0]]))

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
        assert mixing_coefficients(theta, LINK, 4)[1, 1] == 1.0

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
        assert mixing_coefficients(theta, LINK, 5)[0, 1] == pytest.approx(tau)

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
            mixing_coefficients(ParamTensor.zeros(1, 1, 1), LINK, 0)

    @pytest.mark.parametrize("theta, n", oracle_thetas())
    def test_equals_one_start_at_a_time(self, theta, n):
        assert np.array_equal(mixing_coefficients(theta, LINK, n),
                              mixing_coefficients_oracle(theta, LINK, n))


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
        res = kl_chain_decomposition(theta, LINK)
        assert res.lhs.shape == res.rhs.shape == res.agree.shape == (4, 4)
        np.testing.assert_allclose(np.diag(res.lhs), 0.0, atol=1e-14)
        np.testing.assert_allclose(np.diag(res.rhs), 0.0, atol=1e-14)
        assert res.agree.all()

    def test_memoryless_process(self):
        res = kl_chain_decomposition(ParamTensor.zeros(1, 1, 2), LINK)
        np.testing.assert_allclose(res.lhs, 0.0, atol=1e-14)
        assert res.agree.all()

    def test_all_pairs_agree(self):
        rng = np.random.default_rng(4)
        for trial in range(4):
            theta = ParamTensor(rng.standard_normal((1, 1, 2)) * 0.8)
            res = kl_chain_decomposition(theta, LINK)
            assert res.agree.all(), (trial, res.lhs, res.rhs)

    def test_multivariate_pair(self):
        rng = np.random.default_rng(5)
        theta = ParamTensor(rng.standard_normal((2, 2, 1)) * 0.6)
        res = kl_chain_decomposition(theta, LINK)
        assert res.agree[0, 3]

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            kl_chain_decomposition(ParamTensor.zeros(4, 4, 3), LINK)

    @pytest.mark.parametrize("theta, n", oracle_thetas())
    def test_matches_pair_by_pair_recursion(self, theta, n):
        # lhs sums each pair's row as the oracle does; rhs sums in another order
        res = kl_chain_decomposition(theta, LINK)
        lhs, rhs = kl_decomposition_oracle(theta, LINK)
        assert np.array_equal(res.lhs, lhs)
        np.testing.assert_allclose(res.rhs, rhs, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n_dims, n_lags", [(4, 2), (2, 4)])
    def test_all_pairs_agree_at_eight_bits(self, n_dims, n_lags):
        rng = np.random.default_rng(n_dims * 10 + n_lags)
        theta = scaled_to_mixing(rng, n_dims, n_lags, LINK, 0.7)
        res = kl_chain_decomposition(theta, LINK)
        assert res.agree.shape == (256, 256)
        assert res.agree.all()
        assert (np.diag(res.rhs) == 0.0).all()
