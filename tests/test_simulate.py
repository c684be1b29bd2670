"""Sample-path simulation, design matrix and random ground truths."""

import hashlib
import importlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import path_from_rows

from mbp import _kernels
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


def reference_chain(theta, link, n, burn_in, seed, uniforms=None, pin_every=0):
    """Step-by-step chain on one replicate: x_t = [u_t < link.eval(W h_t)].

    ``uniforms`` replaces the seed's (p + burn_in + n, N) draws. With
    ``pin_every`` = m, at every m-th step the uniforms of the coordinates
    whose probability the clip leaves alone are overwritten in place, before
    the step draws: even coordinates get the probability itself (the draw is
    0), odd ones the float just below it (the draw is 1).
    """
    p = theta.n_lags
    u = np.random.default_rng(seed).random((p + burn_in + n, theta.n_rows))
    u = u if uniforms is None else uniforms
    states = list((u[:p] < 0.5).astype(np.uint8))
    stacked = stack_tensor(theta)
    for t in range(p, u.shape[0]):
        window = np.concatenate(states[: -p - 1 : -1])  # most recent state first
        prob = link.eval(stacked @ window)
        if pin_every and t % pin_every == 0:
            pin = (prob > link.eps) & (prob < 1.0 - link.eps)
            pinned = np.where(np.arange(len(prob)) % 2, np.nextafter(prob, 0.0), prob)
            u[t, pin] = pinned[pin]
        states.append((u[t] < prob).astype(np.uint8))
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

    @pytest.mark.parametrize("burn_in", [0, 1, 2, 3])
    def test_burn_in_up_to_p_keeps_the_start_window_rows(self, burn_in):
        # with burn_in < p the recorded history begins inside the start window
        theta = random_sparse_theta(3, 3, 8, seed=2)
        paths = simulate_batch(theta, LINK, 30, self.SEEDS[:4], burn_in=burn_in)
        for path, seed in zip(paths, self.SEEDS):
            assert np.array_equal(path.data, reference_chain(theta, LINK, 30, burn_in, seed))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            simulate_batch(ParamTensor.zeros(2, 2, 1), LINK, 10, [1, -1])


class TestTableChain:
    """Single chains with N p <= TABLE_MAX_BITS run from a table of window states."""

    @pytest.mark.parametrize("scale", [0.8, 800.0])
    @pytest.mark.parametrize("n_dims, n_lags", [(1, 1), (5, 2), (10, 1), (2, 5), (11, 1)])
    def test_path_equals_step_by_step_reference(self, n_dims, n_lags, scale):
        # N p = 1 and 10 run from the table, N p = 11 steps; scale 800 makes
        # the sigmoid reach 0 or 1, so the clip decides the draws
        rng = np.random.default_rng(n_dims * 10 + n_lags)
        theta = ParamTensor(scale * rng.standard_normal((n_dims, n_dims, n_lags)))
        path = simulate(theta, LINK, 400, burn_in=30, seed=21)
        assert np.array_equal(path.data, reference_chain(theta, LINK, 400, 30, 21))

    def test_selected_by_replicates_and_window_bits(self, monkeypatch):
        calls = []
        table_chain = _kernels._table_chain
        monkeypatch.setattr(
            _kernels, "_table_chain", lambda *args: calls.append(1) or table_chain(*args)
        )
        assert _kernels.TABLE_MAX_BITS == 10
        simulate(ParamTensor.zeros(5, 5, 2), LINK, 20, burn_in=0, seed=1)
        assert len(calls) == 1
        simulate(ParamTensor.zeros(11, 11, 1), LINK, 20, burn_in=0, seed=1)
        simulate_batch(ParamTensor.zeros(5, 5, 2), LINK, 20, [1, 2], burn_in=0)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "theta, n, burn_in, seed, digest",
        [
            # the spectral-floor run: fair coins, N = p = 1, 100k steps
            (ParamTensor.zeros(1, 1, 1), 100_000, 1000, 7,
             "131cedb07d56c239c1f951fadfd6fd318f20353ca57fec2a9fb845c2c4f1f8d5"),
            (random_sparse_theta(5, 2, 20, seed=3), 5000, 100, 11,
             "c15fe821c4d3cce380a3dbc0e134e285d20f49883e1c8e7790c4906813f15872"),
        ],
        ids=["psd_scale", "n5_p2"],
    )
    def test_fixed_seed_fingerprint(self, theta, n, burn_in, seed, digest):
        # digests of the paths the step-by-step loop draws at these seeds:
        # any changed draw changes them
        path = simulate(theta, LINK, n, burn_in=burn_in, seed=seed)
        assert hashlib.sha256(path.data.tobytes()).hexdigest() == digest

    def test_memory_is_the_uniforms_and_a_byte_per_draw(self):
        # N = p = 1, 10^5 steps: the uniforms take 0.8 MB, the states and the
        # path 0.1 MB each. A copy of the uniforms would add 0.8 MB
        simulate(ParamTensor.zeros(1, 1, 1), LINK, 10, burn_in=0)  # first-call allocations
        n = 100_000
        tracemalloc.start()
        try:
            simulate(ParamTensor.zeros(1, 1, 1), LINK, n, burn_in=0, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * 8 * (1 + n)


def pinned_run(theta, link, n, burn_in, seeds, pin_every):
    """Kernel states and reference paths of replicates whose uniforms are
    pinned to their steps' probabilities (see ``reference_chain``)."""
    p = theta.n_lags
    steps = p + burn_in + n
    u = np.stack([np.random.default_rng(seed).random((steps, theta.n_rows)) for seed in seeds], 1)
    refs = [
        reference_chain(theta, link, n, burn_in, seed, uniforms=u[:, r], pin_every=pin_every)
        for r, seed in enumerate(seeds)
    ]
    init_hist = (u[:p] < 0.5).astype(np.uint8)
    states = _kernels.chain_steps(init_hist.transpose(1, 0, 2), stack_tensor(theta), link, u[p:])
    paths = np.concatenate([init_hist, states])[burn_in:]
    return [paths[:, r] for r in range(len(seeds))], refs


class TestLoopChain:
    """Several replicates, or N p > TABLE_MAX_BITS, run the step loop."""

    @pytest.mark.parametrize(
        "draw, digest",
        [
            # one replicate at sweep_p20 sizes: N = p = 20, 400-bit windows
            (lambda: [simulate(random_sparse_theta(20, 20, 200, seed=5), LINK, 4490,
                               burn_in=1000, seed=17)],
             "9fdb599777f1232cd8468745af00e04c2d810f5f9f1b98d7d7b44a3be8392701"),
            # 30 replicates in one batched chain at N = 5, p = 2
            (lambda: simulate_batch(random_sparse_theta(5, 2, 20, seed=3), LINK, 5000,
                                    TestSimulateBatch.SEEDS, burn_in=100),
             "648a86d0a2576fe93baa74626aa89c4c43da7bc789f28f7cc0d01f4359afa0e0"),
        ],
        ids=["sweep_p20", "batch_n5_p2"],
    )
    def test_fixed_seed_fingerprint(self, draw, digest):
        # digests of the paths the one-row sigmoid form draws at these seeds,
        # step by step: any changed draw changes them
        data = b"".join(path.data.tobytes() for path in draw())
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize(
        "replicates, n_lags, scale, alpha, eps, pin_every",
        [
            (1, 1, 0.8, 1.0, 0.05, 3),
            (30, 1, 0.8, 1.0, 0.05, 3),
            (1, 3, 0.8, 2.5, 1e-6, 3),
            (30, 3, 0.8, 2.5, 1e-6, 3),
            # scale 800: few predictors escape the clip, so every step is pinned
            (30, 3, 800.0, 1.0, 0.05, 1),
        ],
    )
    def test_draws_at_their_cuts_are_replayed(
        self, monkeypatch, replicates, n_lags, scale, alpha, eps, pin_every
    ):
        # the pinned steps' predictors sit on their cuts, inside the windows
        # of doubt; half of those draws are 1 only by the exact sigmoid
        calls = []
        exact_probs = _kernels._exact_probs
        monkeypatch.setattr(
            _kernels, "_exact_probs", lambda *args: calls.append(1) or exact_probs(*args)
        )
        rng = np.random.default_rng(n_lags)
        theta = ParamTensor(scale * rng.standard_normal((12, 12, n_lags)))
        link = sigmoid_link(alpha, eps)
        seeds = TestSimulateBatch.SEEDS[:replicates]
        paths, refs = pinned_run(theta, link, 200, 40, seeds, pin_every)
        assert calls
        for path, ref in zip(paths, refs):
            assert np.array_equal(path, ref)

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_blocks_of_any_size_give_the_same_paths(self, monkeypatch, block):
        # blocks shorter than p run p steps; of 240 steps, blocks of 7 leave 2
        monkeypatch.setattr(_kernels, "BLOCK_STEPS", block)
        theta = random_sparse_theta(4, 3, 20, seed=6)
        paths, refs = pinned_run(theta, LINK, 200, 40, TestSimulateBatch.SEEDS[:4], 5)
        for path, ref in zip(paths, refs):
            assert np.array_equal(path, ref)

    def test_memory_beyond_uniforms_is_a_few_blocks(self):
        # N = 100, 10^4 steps, one replicate: the uniforms take 8 MB and the
        # states 1 MB; the loop adds a few arrays of one block, not of T steps
        n_dims, n_steps = 100, 10_000
        stacked = stack_tensor(random_sparse_theta(n_dims, 1, 300, seed=2))
        uniforms = np.random.default_rng(0).random((n_steps, 1, n_dims))
        init_hist = np.zeros((1, 1, n_dims), dtype=np.uint8)
        tracemalloc.start()
        try:
            states = _kernels.chain_steps(init_hist, stacked, LINK, uniforms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= states.nbytes + 16 * 8 * _kernels.BLOCK_DRAWS

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_batch_memory_is_one_chunk_and_the_paths(self, monkeypatch, chunks):
        # 80 replicates at N = 10: the uniforms take 14 MB, the states 1.8 MB
        # and the paths 1.6 MB. A copy of the whole chain made on the way to
        # the paths would add 1.8 MB; a chunk's uniforms kept while the next
        # chunk draws would add 7 MB
        monkeypatch.setattr(_kernels, "BLOCK_DRAWS", 1 << 12)
        theta = random_sparse_theta(10, 2, 30, seed=8)
        n, burn_in, seeds = 2000, 200, range(80)
        steps = theta.n_lags + burn_in + n
        chunk_draws = steps * len(seeds) * theta.n_rows // chunks
        module = importlib.import_module("mbp.simulate")  # mbp.simulate is the function
        monkeypatch.setattr(module, "MAX_BATCH_BYTES", 8 * chunk_draws)
        tracemalloc.start()
        try:
            paths = simulate_batch(theta, LINK, n, seeds, burn_in=burn_in)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a chunk's uniforms (8 bytes a draw, filled in place), its states, all
        # the paths and the kernel's blocks
        paths_bytes = sum(path.data.nbytes for path in paths)
        blocks = 16 * 8 * _kernels.BLOCK_DRAWS
        assert peak <= 9 * chunk_draws + paths_bytes + blocks


class TestClampEdges:
    """Uniforms on the clamp's edges draw as the exact form does, on every path."""

    @pytest.mark.parametrize(
        "replicates, n_dims, n_lags",
        [(1, 3, 2), (1, 4, 3), (3, 4, 3)],
        ids=["table", "loop_one_replicate", "loop_three_replicates"],
    )
    def test_draw_is_uniform_below_clamped_link(self, replicates, n_dims, n_lags):
        eps = LINK.eps
        edges = [0.0, np.nextafter(eps, 0.0), eps, np.nextafter(1.0 - eps, 0.0), 1.0 - eps]
        rng = np.random.default_rng(n_dims * 10 + n_lags)
        # odd rows of gain 800 saturate the sigmoid, so the clamp makes their
        # probabilities exactly eps or 1 - eps; even rows of gain 0.5 stay inside
        gain = np.where(np.arange(n_dims) % 2, 800.0, 0.5)[:, None, None]
        theta = ParamTensor(gain * rng.standard_normal((n_dims, n_dims, n_lags)))
        w_t = np.ascontiguousarray(stack_tensor(theta)).T
        n_steps = 300
        uniforms = rng.choice(edges, size=(n_steps, replicates, n_dims))
        init_hist = rng.integers(0, 2, size=(replicates, n_lags, n_dims), dtype=np.uint8)
        states = _kernels.chain_steps(init_hist, stack_tensor(theta), LINK, uniforms)
        for r in range(replicates):
            rows = np.concatenate([init_hist[r], states[:, r]])  # oldest first
            for t in range(n_steps):
                h = rows[t : t + n_lags][::-1].reshape(1, -1).astype(np.float64)
                assert np.array_equal(states[t, r], uniforms[t, r] < LINK.eval(h @ w_t)[0])


class TestDesignMatrix:
    def test_hand_unrolled_two_lags(self):
        # rows x^{-1}, x^0, x^1, x^2 = 1, 0, 1, 1; row for t=1 is [x^0 x^{-1}]
        path = path_from_rows([[1], [0], [1], [1]], n_lags=2)
        X = design_matrix(path)
        assert X.shape == (2, 2) and X.dtype == np.float64
        assert not X.flags.writeable
        assert np.array_equal(X, [[0.0, 1.0], [1.0, 0.0]])

    def test_all_zero_path(self):
        path = path_from_rows(np.zeros((6, 3)), n_lags=2)
        assert not design_matrix(path).any()

    def test_identity_lag_extraction(self):
        theta = random_sparse_theta(3, 2, 6, seed=8)
        path = simulate(theta, LINK, 50, seed=8)
        X = design_matrix(path)
        for t in range(1, path.n + 1):
            for lag in range(1, 3):
                for j in range(3):
                    assert (
                        X[t - 1, (lag - 1) * 3 + j]
                        == path.data[path.n_lags + t - lag - 1, j]
                    )

    def test_column_norms(self):
        theta = random_sparse_theta(4, 3, 10, seed=9)
        path = simulate(theta, LINK, 200, seed=9)
        X = design_matrix(path)
        norms = np.linalg.norm(X, axis=0)
        assert np.all(norms <= math.sqrt(path.n) + 1e-12)

    def test_row_shift_property(self):
        theta = random_sparse_theta(3, 2, 4, seed=10)
        path = simulate(theta, LINK, 30, seed=10)
        X = design_matrix(path)
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

    @pytest.mark.parametrize("bit", ["256", "-1", "2", "0.5"])
    def test_bad_bit_rejected(self, tmp_path, bit):
        # a ValueError, which the command line reports as an error line
        fname = tmp_path / "bad.txt"
        fname.write_text(f"2 2 1 0\n1 0\n0 {bit}\n1 1\n")
        with pytest.raises(ValueError):
            read_path(fname)


class TestSamplePathValidation:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            SamplePath(data=np.array([[2, 0], [0, 1]]), n_lags=1)

    @pytest.mark.parametrize(
        "bad", [0.5, 256, -1, np.nan, np.uint8(2)], ids=["0.5", "256", "-1", "nan", "uint8_2"]
    )
    def test_rejects_non_binary_before_the_cast(self, bad):
        # a cast to uint8 would read 0.5 and 256 as 0
        data = np.array([[bad, 0], [0, 1]], dtype=np.asarray(bad).dtype)
        with pytest.raises(ValueError, match="0/1"):
            SamplePath(data=data, n_lags=1)

    def test_accepts_bool_and_float_bits(self):
        for dtype in (bool, float, np.int64):
            path = SamplePath(data=np.array([[1, 0], [0, 1]], dtype=dtype), n_lags=1)
            assert path.data.dtype == np.uint8
            assert path.data.tolist() == [[1, 0], [0, 1]]

    def test_rejects_too_few_rows(self):
        with pytest.raises(ValueError):
            SamplePath(data=np.zeros((2, 2)), n_lags=2)
