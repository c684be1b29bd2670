"""Configuration-driven experiment sweeps with CSV artifacts.

Every sweep point (sparsity s, sample size n) runs ``replicates``
independent repetitions: a fresh ground-truth tensor, a fresh simulated
path, one penalized fit, and the error metrics, all recorded as one CSV row.
Per-replicate seeds are derived from (master_seed, s, n, replicate) only, so
sweeps that share a point reuse identical draws and a grid row reproduces
the corresponding single-axis sweep exactly. Summary files hold per-point
means and standard deviations. Plotting is left to external tools.
"""

from __future__ import annotations

import csv
import inspect
import math
import os
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .config import ConfigError, ExperimentConfig, field_error
from .estimator import FitConfig, error_metrics, fit, lambda_policy
from .likelihood import concentration_trial, grad_bound_trial, rsc_probe
from .markov import (
    contraction_check,
    kl_chain_decomposition,
    mixing_bound_rows,
    mixing_coefficients,
)
from .simulate import random_sparse_theta, simulate
from .spectral import DECAY_FAMILIES, decay_scaling_report, psd_estimate
from .tensor import ParamTensor, mixing_norm, read_tensor

__all__ = ["RunRecord", "RECORD_COLUMNS", "run_experiment"]


@dataclass(frozen=True)
class RunRecord:
    """One (sweep point, replicate) outcome."""

    experiment: str
    replicate: int
    n_dims: int
    n_lags: int
    s: int
    n: int
    lam: float
    frob_error: float
    frob_error_sq: float
    support_fraction: float
    iterations: int
    converged: bool
    wall_seconds: float
    seed: int


# the runs CSV header: RunRecord's fields, three of them under shorter names
RECORD_COLUMNS = tuple(
    {"n_dims": "N", "n_lags": "p", "lam": "lambda"}.get(f.name, f.name) for f in fields(RunRecord)
)


def _cell(x):
    if isinstance(x, (bool, np.bool_)):
        return int(x)
    if isinstance(x, float):
        return repr(float(x))  # "nan" for NaN
    return x


def _write(config: ExperimentConfig, name: str, columns, rows) -> str:
    """Write one CSV into the output directory; returns its path."""
    fname = os.path.join(config.output_dir, name)
    with open(fname, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(x) for x in row] for row in rows)
    return fname


def _point_seeds(master_seed: int, s: int, n: int, replicate: int):
    # seeds depend only on (master_seed, point, replicate): sweeps sharing a
    # point share draws, so a grid row equals the matching 1-D sweep
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(s), int(n), int(replicate)))
    # (theta seed, path seed)
    return tuple(int(child.generate_state(1, np.uint64)[0]) for child in ss.spawn(2))


def _effective_lambda(config: ExperimentConfig, n: int) -> float:
    if config.lambda_mode == "fixed":
        return float(config.lambda_value)
    return lambda_policy(n, config.n_dims, config.n_lags, link=config.link,
                         c2=config.lambda_c2, mode=config.lambda_mode)


def _run_replicate(config: ExperimentConfig, s: int, n: int, rep: int) -> RunRecord:
    theta_seed, path_seed = _point_seeds(config.master_seed, s, n, rep)
    lam = _effective_lambda(config, n)
    start = time.perf_counter()
    theta_star = random_sparse_theta(
        config.n_dims, config.n_lags, s,
        config.magnitude_low, config.magnitude_high, seed=theta_seed,
    )
    path = simulate(theta_star, config.link, n, burn_in=config.burn_in, seed=path_seed)
    result = fit(
        path,
        config.link,
        FitConfig(lam=lam, max_iters=config.fit_max_iters, tol=config.fit_tol),
    )
    metrics = error_metrics(result.theta_hat, theta_star, s)
    return RunRecord(
        experiment=config.experiment, replicate=rep, n_dims=config.n_dims,
        n_lags=config.n_lags, s=s, n=n, lam=lam,
        frob_error=metrics.frob_error,
        frob_error_sq=metrics.frob_error_sq,
        support_fraction=metrics.support_fraction,
        iterations=result.iterations,
        converged=result.converged,
        wall_seconds=time.perf_counter() - start,
        seed=path_seed,
    )


def _sweep(config: ExperimentConfig):
    """All replicates over s_values x n_values, s-major, in config order."""
    return [
        _run_replicate(config, s, n, rep)
        for s in config.s_values
        for n in config.n_values
        for rep in range(config.replicates)
    ]


def _group(records, key):
    groups = {}
    for rec in records:
        groups.setdefault(key(rec), []).append(rec)
    return groups


def _mean_std(values):
    return float(np.mean(values)), float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def _axis_summary(config, records, key):
    """Per-value means along one sweep axis, ascending; the s axis adds a linear trend."""
    groups = _group(records, lambda r: getattr(r, key))
    rows = []
    for value in sorted(groups):
        recs = groups[value]
        errs = np.array([r.frob_error for r in recs])
        mean, std = _mean_std(errs)
        fracs = [r.support_fraction for r in recs]
        rows.append([value, len(recs), mean, std, float(np.mean(errs**2)),
                     float(np.mean(fracs)), recs[0].lam])
    columns = [key, "replicates", "mean_frob_error", "std_frob_error",
               "mean_frob_error_sq", "mean_support_fraction", "lambda"]
    files = [_write(config, f"{config.experiment}_summary.csv", columns, rows)]
    if key == "s":
        if len(rows) >= 2:
            slope, intercept = np.polyfit([r[0] for r in rows], [r[2] for r in rows], deg=1)
        else:
            slope, intercept = math.nan, rows[0][2]
        files.append(_write(config, "error_vs_sparsity_trend.csv", ["slope", "intercept"],
                            [[float(slope), float(intercept)]]))
    return files


def _grid_matrix(config, records):
    """Mean error pivoted to one row per s and one column per n, in config order."""
    groups = _group(records, lambda r: (r.s, r.n))
    rows = [
        [s] + [float(np.mean([r.frob_error for r in groups[(s, n)]])) for n in config.n_values]
        for s in config.s_values
    ]
    return [_write(config, "grid_matrix.csv", ["s_by_n", *config.n_values], rows)]


def _support_summary(config, records):
    """Support-recovery fraction per (s, n) in config order, with n / log(N^2 p)."""
    groups = _group(records, lambda r: (r.s, r.n))
    log_dim = math.log(config.n_dims**2 * config.n_lags)
    rows = [
        [s, n, n / log_dim, *_mean_std([r.support_fraction for r in groups[(s, n)]])]
        for s in config.s_values
        for n in config.n_values
    ]
    columns = ["s", "n", "n_over_log", "mean_support_fraction", "std_support_fraction"]
    return [_write(config, "support_recovery_summary.csv", columns, rows)]


# experiment -> (sweep axis that must hold exactly one value, summary writer)
_SWEEPS = {
    "error_vs_n": ("s", lambda config, records: _axis_summary(config, records, "n")),
    "error_vs_sparsity": ("n", lambda config, records: _axis_summary(config, records, "s")),
    "grid": (None, _grid_matrix),
    "support_recovery": (None, _support_summary),
}


# Diagnostic checks: (config, **settings) -> files written. A check's keyword
# parameters are its diagnose.* settings, with their defaults; _diagnose passes
# the config.diagnose entries (typed by ExperimentConfig.from_mapping) that name
# them. The shared keys check, seed, theta, s and theta_seed are read from
# config.diagnose. The benchmark rebinds fit, simulate, the trials and the
# markov/spectral routines here, so they are looked up as module globals at
# call time, never captured in a dict, default or partial.

_SAMPLES = 100  # random mixing tensors of gf-bound, eta-bound and kl-decomp


def _settings(fn, spec: dict) -> dict:
    """The entries of ``spec`` named by a parameter of ``fn`` after its first."""
    names = list(inspect.signature(fn).parameters)[1:]
    return {name: spec[name] for name in names if name in spec}


def _seed(config: ExperimentConfig) -> int:
    return config.diagnose.get("seed", config.master_seed)


def _diag_theta(config: ExperimentConfig):
    spec = config.diagnose
    if "theta" in spec:
        return read_tensor(spec["theta"])
    s = spec.get("s", config.s_values[0] if config.s_values else 0)
    seed = spec.get("theta_seed", config.master_seed)
    return random_sparse_theta(
        config.n_dims, config.n_lags, s,
        config.magnitude_low, config.magnitude_high, seed=seed,
    )


def _mixing_thetas(config: ExperimentConfig, samples: int):
    """``samples`` dense random tensors rescaled to a mixing norm uniform in
    (0.05, 0.95), from a fresh master-seed stream on every call."""
    rng = np.random.default_rng(config.master_seed)
    for _ in range(samples):
        values = rng.standard_normal((config.n_dims, config.n_dims, config.n_lags))
        target = rng.uniform(0.05, 0.95)
        yield ParamTensor(values * (target / mixing_norm(ParamTensor(values), config.link)))


def _gf_bound(config, samples=_SAMPLES):
    rows = []
    for i, theta in enumerate(_mixing_thetas(config, samples)):
        res = contraction_check(theta, config.link)
        rows.append([i, res.tau1_p_step, res.mixing_norm_value, res.holds])
    columns = ["sample", "tau1_p_step", "mixing_norm", "holds"]
    return [_write(config, "diagnose_gf_bound.csv", columns, rows)]


def _eta_bound(config, samples=_SAMPLES, n=6):
    rows = []
    for i, theta in enumerate(_mixing_thetas(config, samples)):
        tau = contraction_check(theta, config.link).tau1_p_step
        eta = mixing_coefficients(theta, config.link, n)
        rows += [[i, *row] for row in mixing_bound_rows(eta, tau, config.n_lags)]
    columns = ["sample", "k", "l", "eta", "bound", "holds"]
    return [_write(config, "diagnose_eta_bound.csv", columns, rows)]


def _kl_decomp(config, samples=_SAMPLES):
    rows = []
    for i, theta in enumerate(_mixing_thetas(config, samples)):
        res = kl_chain_decomposition(theta, config.link)
        for z, y in np.ndindex(res.lhs.shape):
            rows.append([i, z, y, res.lhs[z, y], res.rhs[z, y], res.agree[z, y]])
    columns = ["sample", "z", "y", "lhs", "rhs", "agree"]
    return [_write(config, "diagnose_kl_decomp.csv", columns, rows)]


def _psd(config, n=200_000, segments=50, freq_points=256):
    path = simulate(_diag_theta(config), config.link, n, burn_in=config.burn_in, seed=_seed(config))
    report = psd_estimate(path, segments, freq_points)
    return [
        _write(config, "diagnose_psd.csv", ["freq", "min_eig"],
               zip(report.freq_grid, report.min_eigs)),
        _write(config, "diagnose_psd_summary.csv", ["spectral_floor"],
               [[report.spectral_floor]]),
    ]


def _decay_table(config, family="polynomial", p_values=(1, 2, 4, 8, 16, 32, 64, 128)):
    # the family's parameters after the lags (c, alpha, beta) are diagnose.* keys
    params = _settings(DECAY_FAMILIES[family], config.diagnose)
    rows = [
        [r.p, r.inner_norm, r.mixing_norm, r.concentration, r.diverged]
        for r in decay_scaling_report(family, config.n_dims, p_values, config.link, **params)
    ]
    columns = ["p", "inner_norm", "mixing_norm", "concentration", "diverged"]
    return [_write(config, "diagnose_decay_table.csv", columns, rows)]


def _trial_files(config, stem, report):
    rows = [(rep, format(stat, ".12g"), format(bound, ".12g"), violated)
            for rep, stat, bound, violated in report.rows]
    columns = ["replicate", "statistic", "bound", "violated"]
    summary = [[report.rate, report.bound_rate]]
    return [_write(config, f"diagnose_{stem}.csv", columns, rows),
            _write(config, f"diagnose_{stem}_summary.csv", ["rate", "bound_rate"], summary)]


def _grad_bound(config, n=500, c1=4.0, replicates=200):
    report = grad_bound_trial(
        _diag_theta(config), config.link, n=n, c1=c1, replicates=replicates,
        seed=_seed(config), burn_in=config.burn_in,
    )
    return _trial_files(config, "grad_bound", report)


def _concentration(config, n=2000, t=0.1, replicates=300):
    theta = _diag_theta(config)
    seed = _seed(config)
    delta = ParamTensor(np.random.default_rng(seed + 1).standard_normal(theta.values.shape))
    report = concentration_trial(
        theta, config.link, delta, n=n, t=t, replicates=replicates,
        seed=seed, burn_in=config.burn_in,
    )
    return _trial_files(config, "concentration", report)


def _rsc(config, n=2000, directions=64):
    theta = _diag_theta(config)
    seed = _seed(config)
    path = simulate(theta, config.link, n, burn_in=config.burn_in, seed=seed)
    value = rsc_probe(
        theta, config.link, path,
        s=config.diagnose.get("s", max(1, config.s_values[0] if config.s_values else 1)),
        n_directions=directions, seed=seed,
    )
    return [_write(config, "diagnose_rsc.csv", ["curvature"], [[value]])]


_CHECKS = {
    "gf-bound": _gf_bound,
    "eta-bound": _eta_bound,
    "kl-decomp": _kl_decomp,
    "psd": _psd,
    "decay-table": _decay_table,
    "grad-bound": _grad_bound,
    "concentration": _concentration,
    "rsc": _rsc,
}


def _diagnose(config: ExperimentConfig):
    """Run the configured checks (comma separated) and index their files.

    Check names and the decay family are validated before any check runs.
    The index names files relative to the output directory; an empty check
    list writes only its header row.
    """
    names = [c.strip() for c in config.diagnose.get("check", "").split(",") if c.strip()]
    for name in names:
        if name not in _CHECKS:
            raise ConfigError(
                f"key 'diagnose.check': unknown check {name!r}; "
                f"known checks: {', '.join(sorted(_CHECKS))}"
            )
    family = config.diagnose.get("family")
    if family is not None and family not in DECAY_FAMILIES:
        raise ConfigError(
            f"key 'diagnose.family': unknown family {family!r}; "
            f"known families: {', '.join(DECAY_FAMILIES)}"
        )
    os.makedirs(config.output_dir, exist_ok=True)
    files, index = [], []
    for name in names:
        check = _CHECKS[name]
        written = check(config, **_settings(check, config.diagnose))
        files += written
        index.append([name, ";".join(os.path.basename(f) for f in written)])
    return files + [_write(config, "diagnose_index.csv", ["check", "files"], index)]


def run_experiment(config: ExperimentConfig):
    """Run config.experiment and return the list of files written."""
    if config.experiment == "diagnose":
        return _diagnose(config)
    single, summarize = _SWEEPS[config.experiment]
    if single and len(getattr(config, f"{single}_values")) != 1:
        raise field_error(f"{single}_values", f"{config.experiment} needs exactly one {single}")
    records = _sweep(config)
    os.makedirs(config.output_dir, exist_ok=True)
    runs = _write(config, f"{config.experiment}_runs.csv", RECORD_COLUMNS, map(astuple, records))
    return [runs] + summarize(config, records)
