"""Workloads of the benchmark: harness config mappings and output checks.

Each workload is one pass of the paper's protocol, given as the config
mappings that ``mbp experiment --config`` would read, and run through
``mbp.experiments.run_experiment``. A pass is fully determined by its seed.
Why these two:

- ``sweep_p20``: error vs sparsity at N=20, p=20, n=4490. The design matrix
  is 400 columns wide, so the fit's predictor and gradient matmuls carry
  about 60 % of the fit and the loss pass about 40 %. Every point above
  s=10 takes either about 100 or about 200 iterations, depending on the
  seed, which gives the per-fit tail.
- ``diagnose``: no fit at all. Monte-Carlo trials made of many short chains
  plus long single chains (the concentration reference and the psd path),
  and exact enumeration at 10 or fewer state bits (the O(S^3) Dobrushin
  scan at 10 bits, KL decompositions, mixing coefficients).

Support recovery at N=100, p=1 is not a workload. Its fit runs the same loss
pass and matmuls as ``sweep_p20``, only in other proportions (the loss pass
carries about 80 %), and a third workload would shorten every run below the
length that averages out ``sweep_p20``'s seed-to-seed iteration counts.

``smoke=True`` gives the same structure at tiny sizes; it is the warm-up
unit of every run and the size the benchmark's own tests use.
"""

from __future__ import annotations

import csv
import math
import os

# concentration-trial bound targeted when choosing its deviation level t
CONCENTRATION_BOUND = 0.01
PSD_FLOOR_RANGE = (0.22, 0.28)  # fair-coin spectral floor is 1/4

_SWEEP_COMMON = {
    "lambda.mode": "simulation",
    "lambda.c2": "0.25",
    "fit.tol": "1e-6",
}


def _sweep_p20(seed, smoke):
    return [{
        "experiment": "error_vs_sparsity",
        "N": "20",
        "p": "20",
        "sweep.s_values": "10,50" if smoke else "10,50,100,200",
        "sweep.n_values": "300" if smoke else "4490",
        "replicates": "1",
        "master_seed": str(seed),
        **_SWEEP_COMMON,
    }]


def _concentration_t(mapping, n):
    """Deviation level at which the trial's tail bound equals the target."""
    from mbp import concentration_constant, random_sparse_theta, sigmoid_link

    theta = random_sparse_theta(
        int(mapping["N"]), int(mapping["p"]), int(mapping["diagnose.s"]),
        float(mapping["theta.magnitude_low"]), float(mapping["theta.magnitude_high"]),
        seed=int(mapping["diagnose.theta_seed"]),
    )
    g = concentration_constant(theta, sigmoid_link())
    return math.sqrt(g * math.log(2.0 / CONCENTRATION_BOUND) / n)


def _diagnose(seed, smoke):
    # magnitudes 0.05-0.1 with s=4 keep the mixing norm below 0.8 for every
    # draw, which the concentration trial requires
    weak = {
        "diagnose.s": "4",
        "theta.magnitude_low": "0.05",
        "theta.magnitude_high": "0.1",
        "diagnose.theta_seed": str(seed),
    }
    grad = {
        "experiment": "diagnose",
        "N": "2" if smoke else "5",
        "p": "2",
        "diagnose.check": "grad-bound,gf-bound",
        "diagnose.n": "100" if smoke else "500",
        "diagnose.replicates": "3" if smoke else "30",
        "diagnose.samples": "1",
        **weak,
    }
    conc_n = 100 if smoke else 2000
    conc = {
        "experiment": "diagnose",
        # the reference chain has 10^6 / N steps
        "N": "100" if smoke else "10",
        "p": "1",
        "diagnose.check": "concentration",
        "diagnose.n": str(conc_n),
        "diagnose.replicates": "3" if smoke else "20",
        **weak,
    }
    conc["diagnose.t"] = repr(_concentration_t(conc, conc_n))
    psd = {
        "experiment": "diagnose",
        "N": "1",
        "p": "1",
        "diagnose.check": "psd",
        "diagnose.s": "0",
        "diagnose.n": "8000" if smoke else "100000",
        "diagnose.segments": "8" if smoke else "50",
        "diagnose.freq_points": "8" if smoke else "64",
    }
    exact = {
        "experiment": "diagnose",
        "N": "2",
        "p": "2",
        "diagnose.check": "kl-decomp,eta-bound",
        "diagnose.samples": "1" if smoke else "2",
        "diagnose.n": "4" if smoke else "6",
    }
    configs = [grad, conc, psd, exact]
    for c in configs:
        c["master_seed"] = str(seed)
    return configs


WORKLOADS = {
    "sweep_p20": _sweep_p20,
    "diagnose": _diagnose,
}


def pass_configs(workload: str, seed: int, out_dir: str, smoke: bool = False):
    """Config mappings of one pass; config k writes under ``out_dir/k``."""
    configs = WORKLOADS[workload](seed, smoke)
    for k, c in enumerate(configs):
        c["output_dir"] = os.path.join(out_dir, str(k))
    return configs


def pass_calls(workload: str, seed: int, out_dir: str, smoke: bool = False):
    """One pass split into its smallest harness calls; call k writes under ``out_dir/k``.

    A sweep config becomes one config per (s, n) point. The harness derives
    a point's seeds from (master_seed, s, n, replicate) only, so the calls
    compute exactly what the whole sweep computes. A diagnose config is one
    call. Call k of every pass is the same point or config, with other seeds.
    """
    calls = []
    for c in WORKLOADS[workload](seed, smoke):
        if c["experiment"] == "diagnose":
            calls.append(c)
            continue
        calls.extend({**c, "sweep.s_values": s, "sweep.n_values": n}
                     for s in c["sweep.s_values"].split(",")
                     for n in c["sweep.n_values"].split(","))
    for k, c in enumerate(calls):
        c["output_dir"] = os.path.join(out_dir, str(k))
    return calls


# ---------------------------------------------------------------------------
# output checks: one verdict per unit; a unit is one (point, replicate) row
# of a sweep or one named check of a diagnose config
# ---------------------------------------------------------------------------


def units(mapping) -> list:
    """Labels of the units a config runs, in the order the harness runs them."""
    if mapping["experiment"] == "diagnose":
        return [c.strip() for c in mapping["diagnose.check"].split(",")]
    s_values = mapping["sweep.s_values"].split(",")
    n_values = mapping["sweep.n_values"].split(",")
    reps = range(int(mapping["replicates"]))
    return [(int(s), int(n), r) for s in s_values for n in n_values for r in reps]


def _rows(fname):
    with open(fname, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _by_name(files):
    return {os.path.basename(f): f for f in files}


def check_sweep(mapping, files) -> dict:
    """Unit -> failure reason (None when the row passes every check)."""
    verdict = dict.fromkeys(units(mapping), "missing row")
    runs = next(f for f in files if f.endswith("_runs.csv"))
    max_iters = int(mapping.get("fit.max_iters", 5000))
    for row in _rows(runs):
        key = (int(row["s"]), int(row["n"]), int(row["replicate"]))
        err, err_sq = float(row["frob_error"]), float(row["frob_error_sq"])
        frac = float(row["support_fraction"])
        if key not in verdict or verdict[key] != "missing row":
            verdict[key] = "unexpected or duplicate row"
        elif not (math.isfinite(err) and math.isfinite(err_sq)):
            verdict[key] = "non-finite error"
        elif not 0.0 <= frac <= 1.0:
            verdict[key] = f"support_fraction {frac} outside [0, 1]"
        elif row["converged"] != "1" or int(row["iterations"]) >= max_iters:
            verdict[key] = "not converged"
        else:
            verdict[key] = None
    return verdict


def _rate_ok(rows_file, summary_file):
    replicates = len(_rows(rows_file))
    summary = _rows(summary_file)[0]
    rate, bound = float(summary["rate"]), float(summary["bound_rate"])
    limit = bound + 3.0 * math.sqrt(bound * (1.0 - bound) / replicates)
    return None if rate <= limit else f"rate {rate} above {limit}"


def _all_ones(fname, column):
    bad = sum(1 for row in _rows(fname) if row[column] != "1")
    return None if bad == 0 else f"{bad} rows with {column} != 1"


def check_diagnose(mapping, files) -> dict:
    f = _by_name(files)
    verdict = {}
    for check in units(mapping):
        if check == "gf-bound":
            verdict[check] = _all_ones(f["diagnose_gf_bound.csv"], "holds")
        elif check == "eta-bound":
            verdict[check] = _all_ones(f["diagnose_eta_bound.csv"], "holds")
        elif check == "kl-decomp":
            verdict[check] = _all_ones(f["diagnose_kl_decomp.csv"], "agree")
        elif check in ("grad-bound", "concentration"):
            stem = "diagnose_" + check.replace("-", "_")
            verdict[check] = _rate_ok(f[stem + ".csv"], f[stem + "_summary.csv"])
        elif check == "psd":
            floor = float(_rows(f["diagnose_psd_summary.csv"])[0]["spectral_floor"])
            lo, hi = PSD_FLOOR_RANGE
            verdict[check] = None if lo <= floor <= hi else f"psd floor {floor}"
    return verdict


def check(mapping, files) -> dict:
    if mapping["experiment"] == "diagnose":
        return check_diagnose(mapping, files)
    return check_sweep(mapping, files)


def frob_errors(files) -> list:
    runs = [f for f in files if f.endswith("_runs.csv")]
    return [float(row["frob_error"]) for f in runs for row in _rows(f)]


def csv_bytes(files) -> int:
    """Bytes written, not counting the values of the ``wall_seconds`` column.

    Timing values change length from run to run; everything else in the
    output is fixed by the seed, so this count repeats exactly.
    """
    total = 0
    for fname in files:
        with open(fname, newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))
        total += os.path.getsize(fname)
        if rows and "wall_seconds" in rows[0]:
            col = rows[0].index("wall_seconds")
            total -= sum(len(r[col]) for r in rows[1:])
    return total
