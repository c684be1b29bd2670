"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Every tolerance and runtime budget is pinned here.
The sweep criteria (11-13) drive the experiment harness through real config
objects, so they exercise the same code paths as the command line.
"""

import csv
import math
import time

import numpy as np
from scipy.stats import spearmanr

from helpers import (
    check_mixing_coefficient_bound,
    clamp_free_tensor,
    kl_bernoulli,
    kl_bernoulli_bound,
    mixing_row_sum_exact,
    mixing_sum_bound,
    scaled_to_mixing,
)

from mbp.config import ExperimentConfig
from mbp.estimator import FitConfig, fit, kkt_residual
from mbp.experiments import run_experiment
from mbp.likelihood import (
    concentration_trial,
    grad_bound_trial,
    nll,
    nll_grad,
    quad_form,
    taylor_remainder,
)
from mbp.link import sigmoid_link
from mbp.markov import contraction_check, kl_chain_decomposition
from mbp.simulate import design_matrix, random_sparse_theta, simulate
from mbp.spectral import decay_scaling_report, psd_estimate
from mbp.tensor import ParamTensor, concentration_constant, stack_tensor

LINK = sigmoid_link(1.0, 0.05)


def verdict(index, label, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {index:02d} {status} [{elapsed:7.1f}s / {budget:.0f}s] {label}")
    assert ok, f"criterion {index} failed: {label}"
    assert elapsed < budget, f"criterion {index} exceeded {budget}s ({elapsed:.1f}s)"


def test_01_gradient_matches_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst, clamped = 0.0, 0
    for trial in range(30):
        n_dims = int(rng.integers(1, 5))
        p = int(rng.integers(1, 4))
        n = int(rng.integers(30, 101))
        truth = clamp_free_tensor(rng, n_dims, p, LINK)
        path = simulate(truth, LINK, n, seed=trial)
        # the last 10 trials put predictors up to 3x past the clamp point
        theta = clamp_free_tensor(rng, n_dims, p, LINK, fill=0.7 if trial < 20 else 3.0)
        pred = design_matrix(path) @ stack_tensor(theta).T
        clamped += int(np.any(np.abs(LINK.alpha * pred) > LINK.saturation))
        grad = nll_grad(theta, path, LINK)[1].values
        h = 1e-6
        fd = np.zeros_like(grad)
        for idx in np.ndindex(*theta.values.shape):
            bump = np.zeros_like(grad)
            bump[idx] = h
            fd[idx] = (
                nll(ParamTensor(theta.values + bump), path, LINK)
                - nll(ParamTensor(theta.values - bump), path, LINK)
            ) / (2 * h)
        scale = max(np.abs(fd).max(), 1e-8)
        worst = max(worst, float(np.abs(grad - fd).max() / scale))
    verdict(
        1, f"gradient vs central differences, worst rel err {worst:.2e} < 1e-6, "
        f"{clamped} of 30 instances with clamped predictors",
        worst < 1e-6 and clamped >= 10, time.perf_counter() - start, 10.0,
    )


def test_02_taylor_remainder_dominates_quadratic_form():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    violations = 0
    for trial in range(500):
        n_dims = int(rng.integers(1, 5))
        p = int(rng.integers(1, 4))
        base = clamp_free_tensor(rng, n_dims, p, LINK, fill=0.45)
        delta = clamp_free_tensor(rng, n_dims, p, LINK, fill=0.45)
        path = simulate(base, LINK, int(rng.integers(20, 60)), seed=trial, burn_in=100)
        rem = taylor_remainder(base, delta, path, LINK)
        if rem < quad_form(delta, path, LINK) - 1e-9:
            violations += 1
    verdict(
        2, f"remainder >= quadratic form on 500 triples, {violations} violations",
        violations == 0, time.perf_counter() - start, 30.0,
    )


def test_03_quadratic_form_matches_stacked_route():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(100):
        n_dims = int(rng.integers(1, 5))
        p = int(rng.integers(1, 4))
        truth = random_sparse_theta(n_dims, p, n_dims, seed=trial)
        path = simulate(truth, LINK, int(rng.integers(20, 80)), seed=trial, burn_in=100)
        delta = ParamTensor(rng.standard_normal((n_dims, n_dims, p)))
        lhs = quad_form(delta, path, LINK)
        X = design_matrix(path)
        rhs = LINK.curvature * float(((X @ stack_tensor(delta).T) ** 2).sum()) / path.n
        if rhs > 0:
            worst = max(worst, abs(lhs - rhs) / rhs)
    verdict(
        3, f"tensor vs stacked quadratic form, worst rel gap {worst:.2e} < 1e-10",
        worst < 1e-10, time.perf_counter() - start, 10.0,
    )


def test_04_p_step_contraction_below_mixing_norm():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    violations = 0
    for trial in range(100):
        n_dims, p = [(1, 1), (1, 2), (2, 1), (2, 2)][trial % 4]
        theta = scaled_to_mixing(rng, n_dims, p, LINK, rng.uniform(0.05, 0.95))
        if not contraction_check(theta, LINK).holds:
            violations += 1
    verdict(
        4, f"p-step contraction <= mixing norm on 100 exact kernels, {violations} violations",
        violations == 0, time.perf_counter() - start, 60.0,
    )


def test_05_mixing_coefficients_and_row_sum_bounds():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    violations = 0
    for trial in range(20):
        p = 1 if trial % 2 == 0 else 2
        theta = scaled_to_mixing(rng, 1, p, LINK, rng.uniform(0.1, 0.9))
        if not check_mixing_coefficient_bound(theta, LINK, 6):
            violations += 1
        tau = contraction_check(theta, LINK).tau1_p_step
        row_sum = mixing_row_sum_exact(theta, LINK, 6)
        if row_sum**2 > mixing_sum_bound(tau, p) + 1e-10:
            violations += 1
    verdict(
        5, f"mixing coefficient and row-sum bounds, {violations} violations",
        violations == 0, time.perf_counter() - start, 120.0,
    )


def test_06_kl_chain_decomposition_exact():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    bad = 0
    for trial in range(10):
        theta = ParamTensor(rng.standard_normal((1, 1, 2)))
        bad += int((~kl_chain_decomposition(theta, LINK).agree).sum())
    verdict(
        6, f"block KL equals chain-rule sum on 160 pairs, {bad} disagreements",
        bad == 0, time.perf_counter() - start, 60.0,
    )


def test_07_bernoulli_kl_bound_on_grid():
    start = time.perf_counter()
    eps = 0.05
    grid = np.arange(1, 20) * 0.05
    bad = 0
    for p_ in grid:
        for q_ in grid:
            if kl_bernoulli(p_, q_) > kl_bernoulli_bound(p_, q_, eps) + 1e-12:
                bad += 1
    verdict(
        7, f"quadratic KL bound on the 19x19 grid, {bad} violations",
        bad == 0, time.perf_counter() - start, 1.0,
    )


def test_08_gradient_sup_norm_tail_bound():
    start = time.perf_counter()
    theta = ParamTensor.zeros(5, 5, 2)
    report = grad_bound_trial(theta, LINK, n=500, c1=4.0, replicates=200, seed=808)
    cap = report.bound_rate  # (N^2 p)^(1 - c1/2) = 1/50
    se = math.sqrt(cap * (1 - cap) / 200)
    limit = cap + 3 * se
    verdict(
        8, f"gradient tail rate {report.rate:.4f} <= {limit:.4f}",
        report.rate <= limit, time.perf_counter() - start, 120.0,
    )


def test_09_quadratic_form_concentration():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    theta = scaled_to_mixing(rng, 2, 1, LINK, 0.45)
    delta = ParamTensor(rng.standard_normal((2, 2, 1)))
    n = 2000
    g = concentration_constant(theta, LINK)
    t_dev = math.sqrt(g * math.log(2.0 / 1e-3) / n)  # tail bound equals 1e-3
    report = concentration_trial(theta, LINK, delta, n=n, t=t_dev, replicates=300, seed=909)
    se = math.sqrt(1e-3 * (1 - 1e-3) / 300)
    limit = 1e-3 + 3 * se
    verdict(
        9, f"concentration tail rate {report.rate:.4f} <= {limit:.4f}",
        report.rate <= limit, time.perf_counter() - start, 300.0,
    )


def test_10_spectral_floor_of_fair_coins():
    start = time.perf_counter()
    path = simulate(ParamTensor.zeros(1, 1, 1), LINK, 200_000, seed=1010)
    # 64 grid points keep ~2n/64 degrees of freedom per pooled estimate
    value = psd_estimate(path, 50, freq_points=64).spectral_floor
    verdict(
        10, f"spectral floor {value:.4f} in [0.22, 0.28]",
        0.22 <= value <= 0.28, time.perf_counter() - start, 60.0,
    )


def _trend_violations(means, stds):
    """Adjacent-pair increases and whether each stays within one std."""
    bad = []
    for i in range(len(means) - 1):
        if not means[i + 1] < means[i]:
            bad.append(means[i + 1] - means[i] <= stds[i])
    return bad


def test_11_error_decreases_with_sample_size(tmp_path):
    start = time.perf_counter()
    cfg = ExperimentConfig.from_mapping(
        {
            "experiment": "error_vs_n",
            "N": "20",
            "p": "20",
            "sweep.s_values": "50",
            "sweep.n_values": "500,1000,2000,4490",
            "replicates": "20",
            "lambda.mode": "simulation",
            "lambda.c2": "0.25",
            "fit.tol": "1e-6",
            "master_seed": "1111",
            "output_dir": str(tmp_path / "evn"),
        }
    )
    _, summary = run_experiment(cfg)
    rows = list(csv.DictReader(open(summary)))
    means = [float(r["mean_frob_error"]) for r in rows]
    stds = [float(r["std_frob_error"]) for r in rows]
    bad = _trend_violations(means, stds)
    ok = len(bad) == 0 or (len(bad) == 1 and bad[0])
    printable = ", ".join(f"{m:.3f}" for m in means)
    verdict(
        11, f"mean error over n grid [{printable}], {len(bad)} trend violations",
        ok, time.perf_counter() - start, 1800.0,
    )


def test_12_error_grows_with_sparsity(tmp_path):
    start = time.perf_counter()
    cfg = ExperimentConfig.from_mapping(
        {
            "experiment": "error_vs_sparsity",
            "N": "20",
            "p": "20",
            "sweep.s_values": "10,50,100,200",
            "sweep.n_values": "4490",
            "replicates": "20",
            "lambda.mode": "simulation",
            "lambda.c2": "0.25",
            "fit.tol": "1e-6",
            "master_seed": "1212",
            "output_dir": str(tmp_path / "evs"),
        }
    )
    _, summary, _ = run_experiment(cfg)
    rows = list(csv.DictReader(open(summary)))
    s_values = [int(r["s"]) for r in rows]
    means = [float(r["mean_frob_error"]) for r in rows]
    rho = float(spearmanr(s_values, means).statistic)
    verdict(
        12, f"error vs sparsity Spearman correlation {rho:.3f} > 0.9",
        rho > 0.9, time.perf_counter() - start, 1800.0,
    )


def test_13_support_recovery_shape(tmp_path):
    start = time.perf_counter()
    cfg = ExperimentConfig.from_mapping(
        {
            "experiment": "support_recovery",
            "N": "100",
            "p": "1",
            "sweep.s_values": "10",
            "sweep.n_values": "50,200,800,3000,6000",
            "replicates": "20",
            "lambda.mode": "simulation",
            "lambda.c2": "0.25",
            "fit.tol": "1e-6",
            "master_seed": "1313",
            "output_dir": str(tmp_path / "sup"),
        }
    )
    _, summary = run_experiment(cfg)
    rows = list(csv.DictReader(open(summary)))
    fracs = [float(r["mean_support_fraction"]) for r in rows]
    stds = [float(r["std_support_fraction"]) for r in rows]
    increases = [
        fracs[i] - fracs[i + 1] <= stds[i] for i in range(len(fracs) - 1)
        if not fracs[i + 1] >= fracs[i]
    ]
    shape_ok = len(increases) == 0 or (len(increases) == 1 and increases[0])
    printable = ", ".join(f"{f:.2f}" for f in fracs)
    ok = fracs[-1] >= 0.95 and fracs[0] <= 0.2 and shape_ok
    verdict(
        13, f"support recovery over n grid [{printable}]",
        ok, time.perf_counter() - start, 1200.0,
    )


def test_14_lag_decay_scaling():
    start = time.perf_counter()
    poly = decay_scaling_report("polynomial", 3, [16, 128], LINK, c=0.1, alpha=2.0)
    variation = abs(poly[1].inner_norm - poly[0].inner_norm) / poly[0].inner_norm
    const = decay_scaling_report("constant", 3, [8, 16, 32, 64, 128], LINK, c=0.1)
    slope = float(
        np.polyfit(
            [math.log(r.p) for r in const], [math.log(r.inner_norm) for r in const], 1
        )[0]
    )
    ok = variation < 0.10 and abs(slope - 1.5) <= 0.1
    verdict(
        14, f"decay scaling: plateau variation {variation:.3f}, slope {slope:.3f}",
        ok, time.perf_counter() - start, 10.0,
    )


def test_15_solver_contract():
    start = time.perf_counter()
    truth = random_sparse_theta(3, 2, 6, seed=1515)
    path = simulate(truth, LINK, 600, seed=1515)
    lam = 0.02
    res = fit(path, LINK, FitConfig(lam=lam, tol=1e-10, max_iters=4000))
    monotone = bool(np.all(np.diff(res.objective_trace) <= 0.0))
    kkt = kkt_residual(res.theta_hat, path, LINK, lam)

    scalar_truth = ParamTensor(np.array([[[0.8]]]))
    scalar_path = simulate(scalar_truth, LINK, 10_000, seed=1516)
    x = scalar_path.data.ravel().astype(float)
    prev, cur = x[:-1], x[1:]
    t_hat = 0.0
    for _ in range(100):
        s = 1.0 / (1.0 + np.exp(-t_hat * prev))
        step = ((s - cur) * prev).mean() / ((s * (1 - s) * prev * prev).mean())
        t_hat -= step
        if abs(step) < 1e-14:
            break
    scalar_res = fit(scalar_path, LINK, FitConfig(lam=0.0, tol=1e-12, max_iters=3000))
    newton_gap = abs(scalar_res.theta_hat.values[0, 0, 0] - t_hat)

    ok = monotone and res.converged and kkt <= 1e-4 and newton_gap <= 1e-4
    verdict(
        15,
        f"solver contract: monotone={monotone}, kkt={kkt:.2e}, newton gap={newton_gap:.2e}",
        ok, time.perf_counter() - start, 60.0,
    )
