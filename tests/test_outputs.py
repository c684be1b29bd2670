"""Golden outputs: every experiment and diagnose check writes the same CSVs.

Each case runs one experiment at tiny sizes and compares the sha256 of each
CSV it writes with a recorded digest; ``wall_seconds`` values are blanked
first, since they are the only cells that depend on the run. A change meant
to keep the outputs (a refactor, a deletion) must keep these digests; a
change that alters the numbers on purpose records new ones and says why.
"""

import csv
import hashlib
import os

import pytest

from helpers import TINY_CHECKS

from mbp.config import ExperimentConfig
from mbp.experiments import run_experiment

SWEEP = {
    "N": "4",
    "p": "2",
    "sweep.s_values": "2",
    "sweep.n_values": "100,220",
    "replicates": "2",
    "fit.tol": "1e-7",
    "master_seed": "42",
}

# case -> config keys; the diagnose cases run each check at its tiny size
CASES = {
    "error_vs_n": {**SWEEP, "experiment": "error_vs_n"},
    "error_vs_sparsity": {
        **SWEEP, "experiment": "error_vs_sparsity",
        "sweep.s_values": "1,4,8", "sweep.n_values": "220",
    },
    "grid": {**SWEEP, "experiment": "grid", "sweep.s_values": "2,4"},
    "support_recovery": {
        **SWEEP, "experiment": "support_recovery", "N": "8", "p": "1",
        "sweep.s_values": "4,1", "sweep.n_values": "120,300",
    },
}
for check, (n_dims, n_lags, extra) in TINY_CHECKS.items():
    CASES[check] = {
        "experiment": "diagnose", "N": str(n_dims), "p": str(n_lags),
        "master_seed": "5", "diagnose.check": check,
        **{f"diagnose.{k}": str(v) for k, v in extra.items()},
    }
# "decay-table" runs the default polynomial family; the other two families run
# at non-default parameters
for family, params in {"constant": {"c": 0.06}, "exponential": {"c": 0.3, "beta": 0.7}}.items():
    CASES[f"decay-table-{family}"] = {
        **CASES["decay-table"], "N": "2", "diagnose.family": family,
        "diagnose.p_values": "1,2,4,8", **{f"diagnose.{k}": str(v) for k, v in params.items()},
    }

# case -> {file name: sha256 of its CSV with wall_seconds blanked}
DIGESTS = {
    "concentration": {
        "diagnose_concentration.csv":
            "3aaa8b91d095182ddf5cdf1daeab631c96dd37a386e796eef9da1f7d174fe21a",
        "diagnose_concentration_summary.csv":
            "ec22927d74013b68402c8cc534609076a7ad194e6eff380a4f3657693d3d3b74",
        "diagnose_index.csv":
            "29f0be7135e2adc5840c27dfe74f0bf941a735460ae502dcb72f1bd3a7b4b228",
    },
    "decay-table": {
        "diagnose_decay_table.csv":
            "3d0bbcc690a52893fcfdeb80f2a5fd8b4037e4514d6936c000e21e9dd3ff2ed1",
        "diagnose_index.csv":
            "35be29202be6b9fadb836b06218dc6e895e9676d8b8329d8d0389a7afa2a55a8",
    },
    "decay-table-constant": {
        "diagnose_decay_table.csv":
            "f20e2765548cd999c0e191bb73a43b8967272dd04af4f0144e25e8a7bfbb810c",
        "diagnose_index.csv":
            "35be29202be6b9fadb836b06218dc6e895e9676d8b8329d8d0389a7afa2a55a8",
    },
    "decay-table-exponential": {
        "diagnose_decay_table.csv":
            "1f8da9919d47845e983aac83f24d5d9b34de2b9b2fcb8ff4109e850f0b69737c",
        "diagnose_index.csv":
            "35be29202be6b9fadb836b06218dc6e895e9676d8b8329d8d0389a7afa2a55a8",
    },
    "error_vs_n": {
        "error_vs_n_runs.csv":
            "1a0ed6aee5f7877b3d32311fc192ed658ba9b536c75a49f520a9379d427937b6",
        "error_vs_n_summary.csv":
            "680070097b447263602762af9ccb17082a2d63e92e5c5ffa4f6cde0f45241252",
    },
    "error_vs_sparsity": {
        "error_vs_sparsity_runs.csv":
            "3f5769e7c1cdd32c85f5a5c3aa8d8763541534f6de0706fd3104bce355633d63",
        "error_vs_sparsity_summary.csv":
            "76c0f27dd616105e19b998b534c18a7372e95d37ed2b531d17d0c51240b33857",
        "error_vs_sparsity_trend.csv":
            "1c79038e89710ba2c555fd2b892f12e3662117bcfaa9b49dbcfd62cb14dc70be",
    },
    "eta-bound": {
        "diagnose_eta_bound.csv":
            "005e4e304728de03c67cc3aaa0f74e723abc9c0244bfb40f28beb073337879d3",
        "diagnose_index.csv":
            "b2a62801069299c732079e65bb0612ffaa37788446c705d7be293ee1da08494d",
    },
    "gf-bound": {
        "diagnose_gf_bound.csv":
            "64872af2df9df4b144a446d97fc54acc31d3de138590fe168e2856cce39e4990",
        "diagnose_index.csv":
            "b139d98473ffb40a7b3a370198fc6f0ba755706a40ac6b2d8bc08d1c39ac2f3f",
    },
    "grad-bound": {
        "diagnose_grad_bound.csv":
            "355076b33f3e0967986f5a42cf08ee12ed6152acbda99394ae0e5304594fcb50",
        "diagnose_grad_bound_summary.csv":
            "f33a75c51669ab3997efe2f96402a09ca44898e6742cb97fc1480973461b8715",
        "diagnose_index.csv":
            "fd71238fde47ea5d9b040167a8c25f26caf863f0b398de504f2fc084a51ec683",
    },
    "grid": {
        "grid_matrix.csv":
            "50170543c075e5f38b748ce154e8abbad393fa202d782644daa243f470cb99c9",
        "grid_runs.csv":
            "1c457b97df9d16c78afa4c28b80df2d07f230c3ffb11268af8e515426998a6e5",
    },
    "kl-decomp": {
        "diagnose_index.csv":
            "47d474cd0f3e36cfc6bf63cc9a8545f9503b13b0bd86e4a6306837a8080ee9e4",
        "diagnose_kl_decomp.csv":
            "050f7b63d8363ac7f0e2059b2a14eaa705f4ab30b5728f18c19fbeba5ebea484",
    },
    "psd": {
        "diagnose_index.csv":
            "0c9ec78160025e9fe6dea397b6c6d1148fb1f9504f1289c607e20352c0c773e0",
        "diagnose_psd.csv":
            "fcd9de746ce3fd88c5e8f764bbafda05217daeeae73f3954fd03fa8f093a5651",
        "diagnose_psd_summary.csv":
            "e5d416d9f1b9ed96c4569214755023e943ba07ec24b306cb6b2ad0877ed9ac2c",
    },
    "rsc": {
        "diagnose_index.csv":
            "a19fc5114cf6ee63c7cd8a565e58241ba3ce740b17a0706101fbbb6914957a50",
        "diagnose_rsc.csv":
            "f70cecf5ec9a4eb5141a546ead5c711fe156f7dceea797f8062e370f2b9a2956",
    },
    "support_recovery": {
        "support_recovery_runs.csv":
            "3661226dd94f4a3bcdaaefbea4bf14c88b02e4275e363499de492f5e67099f60",
        "support_recovery_summary.csv":
            "2fcc6d72b9aecdec472333602bc7c479b315d63bc98ad27ed3c1bb12b11718dc",
    },
}


def blanked_digest(fname):
    with open(fname, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    if "wall_seconds" in rows[0]:
        col = rows[0].index("wall_seconds")
        for row in rows[1:]:
            row[col] = ""
    text = "".join(",".join(row) + "\n" for row in rows)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def case_digests(case, out_dir):
    config = ExperimentConfig.from_mapping({**CASES[case], "output_dir": str(out_dir)})
    return {os.path.basename(f): blanked_digest(f) for f in run_experiment(config)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_recorded_digests(tmp_path, case):
    assert case_digests(case, tmp_path) == DIGESTS[case]
