"""Experiment sweeps: determinism, summaries, seed sharing and diagnostics."""

import csv
import dataclasses
import inspect
import math
import os
import re

import numpy as np
import pytest

from helpers import README, TINY_CHECKS

from mbp import experiments
from mbp.config import KEYS, ConfigError, ExperimentConfig
from mbp.estimator import lambda_policy
from mbp.experiments import RECORD_COLUMNS, run_experiment
from mbp.simulate import random_sparse_theta
from mbp.spectral import DECAY_FAMILIES


def make_config(tmp_path, name, **overrides):
    base = {
        "experiment": "error_vs_n",
        "N": "4",
        "p": "2",
        "sweep.s_values": "2",
        "sweep.n_values": "100,220",
        "replicates": "3",
        "fit.tol": "1e-7",
        "master_seed": "42",
        "output_dir": str(tmp_path / name),
    }
    base.update({k: str(v) for k, v in overrides.items()})
    return ExperimentConfig.from_mapping(base)


def read_rows(fname):
    with open(fname) as fh:
        return list(csv.DictReader(fh))


def masked_bytes(fname):
    rows = list(csv.reader(open(fname)))
    idx = rows[0].index("wall_seconds")
    for row in rows[1:]:
        row[idx] = "X"
    return repr(rows)


class TestErrorVsN:
    def test_record_layout_and_counts(self, tmp_path):
        cfg = make_config(tmp_path, "a")
        runs, summary = run_experiment(cfg)
        rows = read_rows(runs)
        assert len(rows) == 2 * 3
        assert tuple(rows[0].keys()) == RECORD_COLUMNS

    def test_deterministic_modulo_timing(self, tmp_path):
        cfg1 = make_config(tmp_path, "b1")
        cfg2 = make_config(tmp_path, "b2")
        files1 = run_experiment(cfg1)
        files2 = run_experiment(cfg2)
        assert masked_bytes(files1[0]) == masked_bytes(files2[0])
        assert open(files1[1]).read() == open(files2[1]).read()

    def test_lambda_column_matches_policy(self, tmp_path):
        cfg = make_config(tmp_path, "c")
        runs, _ = run_experiment(cfg)
        for row in read_rows(runs):
            expected = lambda_policy(int(row["n"]), 4, 2, c2=0.25)
            assert float(row["lambda"]) == pytest.approx(expected, rel=1e-12)

    def test_summary_equals_arithmetic_mean(self, tmp_path):
        cfg = make_config(tmp_path, "d")
        runs, summary = run_experiment(cfg)
        rows = read_rows(runs)
        for srow in read_rows(summary):
            group = [float(r["frob_error"]) for r in rows if r["n"] == srow["n"]]
            assert float(srow["mean_frob_error"]) == pytest.approx(
                float(np.mean(group)), abs=1e-12
            )
            assert float(srow["std_frob_error"]) == pytest.approx(
                float(np.std(group, ddof=1)), abs=1e-12
            )

    def test_zero_truth_shrinks_to_small_error(self, tmp_path):
        cfg = make_config(
            tmp_path, "e", **{"sweep.s_values": "0", "sweep.n_values": "2000",
                              "N": "5", "p": "2", "replicates": "2"}
        )
        runs, _ = run_experiment(cfg)
        for row in read_rows(runs):
            assert float(row["frob_error"]) <= 0.5

    def test_requires_single_s(self, tmp_path):
        cfg = make_config(tmp_path, "f", **{"sweep.s_values": "1,2"})
        with pytest.raises(ConfigError, match="s_values"):
            run_experiment(cfg)


class TestErrorVsSparsity:
    @pytest.mark.parametrize("s_values", ["1,4,8", "4,1"])
    def test_outputs_and_trend_file(self, tmp_path, s_values):
        cfg = make_config(
            tmp_path, "g",
            experiment="error_vs_sparsity",
            **{"sweep.s_values": s_values, "sweep.n_values": "220"},
        )
        runs, summary, trend = run_experiment(cfg)
        srows = read_rows(summary)
        ascending = sorted(int(s) for s in s_values.split(","))
        assert [int(r["s"]) for r in srows] == ascending
        trend_row = read_rows(trend)[0]
        xs = np.array(ascending, dtype=float)
        ys = np.array([float(r["mean_frob_error"]) for r in srows])
        slope = np.polyfit(xs, ys, 1)[0]
        assert float(trend_row["slope"]) == pytest.approx(float(slope), rel=1e-9)

    def test_single_s_gives_one_row(self, tmp_path):
        cfg = make_config(
            tmp_path, "h",
            experiment="error_vs_sparsity",
            **{"sweep.s_values": "3", "sweep.n_values": "150"},
        )
        _, summary, _ = run_experiment(cfg)
        assert len(read_rows(summary)) == 1


class TestGrid:
    @pytest.mark.parametrize("s_values", ["2,4", "4,1"])
    def test_cardinality_and_matrix(self, tmp_path, s_values):
        cfg = make_config(
            tmp_path, "i",
            experiment="grid",
            **{"sweep.s_values": s_values, "sweep.n_values": "100,220"},
        )
        runs, matrix = run_experiment(cfg)
        assert len(read_rows(runs)) == 4 * 3
        lines = open(matrix).read().splitlines()
        assert lines[0] == "s_by_n,100,220"
        # matrix rows follow the config order of s
        assert [line.split(",")[0] for line in lines[1:]] == s_values.split(",")

    def test_matrix_means_match_records(self, tmp_path):
        cfg = make_config(
            tmp_path, "j",
            experiment="grid",
            **{"sweep.s_values": "2", "sweep.n_values": "100"},
        )
        runs, matrix = run_experiment(cfg)
        rows = read_rows(runs)
        mean = np.mean([float(r["frob_error"]) for r in rows])
        cell = float(open(matrix).read().splitlines()[1].split(",")[1])
        assert cell == pytest.approx(float(mean), abs=1e-12)

    def test_grid_row_reproduces_single_axis_sweep(self, tmp_path):
        grid_cfg = make_config(
            tmp_path, "k1",
            experiment="grid",
            **{"sweep.s_values": "2,3", "sweep.n_values": "100,220"},
        )
        line_cfg = make_config(tmp_path, "k2")  # s = 2, same n values, same seed
        grid_runs, _ = run_experiment(grid_cfg)
        line_runs, _ = run_experiment(line_cfg)
        grid_rows = [r for r in read_rows(grid_runs) if r["s"] == "2"]
        line_rows = read_rows(line_runs)
        for a, b in zip(grid_rows, line_rows):
            assert a["frob_error"] == b["frob_error"]
            assert a["seed"] == b["seed"]


class TestSupportRecovery:
    @pytest.mark.parametrize("s_values", ["2", "4,1"])
    def test_summary_columns(self, tmp_path, s_values):
        cfg = make_config(
            tmp_path, "l",
            experiment="support_recovery",
            N="8", p="1",
            **{"sweep.s_values": s_values, "sweep.n_values": "120,600"},
        )
        runs, summary = run_experiment(cfg)
        srows = read_rows(summary)
        # summary rows follow the config order of s, then n
        assert [(r["s"], r["n"]) for r in srows] == [
            (s, n) for s in s_values.split(",") for n in ("120", "600")
        ]
        dim_log = math.log(64.0)
        assert float(srows[0]["n_over_log"]) == pytest.approx(120.0 / dim_log, rel=1e-12)
        fracs = [float(r["mean_support_fraction"]) for r in srows]
        assert all(0.0 <= f <= 1.0 for f in fracs)

    def test_full_support_recovers_trivially(self, tmp_path):
        cfg = make_config(
            tmp_path, "m",
            experiment="support_recovery",
            N="2", p="1", replicates="2",
            **{"sweep.s_values": "4", "sweep.n_values": "300"},
        )
        _, summary = run_experiment(cfg)
        assert float(read_rows(summary)[0]["mean_support_fraction"]) == 1.0


class TestDiagnoseDispatch:
    def diag_config(self, tmp_path, name, check, n_dims=1, n_lags=2, **extra):
        mapping = {
            "experiment": "diagnose",
            "N": str(n_dims),
            "p": str(n_lags),
            "master_seed": "5",
            "output_dir": str(tmp_path / name),
            "diagnose.check": check,
        }
        mapping.update({f"diagnose.{k}": str(v) for k, v in extra.items()})
        return ExperimentConfig.from_mapping(mapping)

    def test_gf_bound_all_hold(self, tmp_path):
        cfg = self.diag_config(tmp_path, "d1", "gf-bound", samples=10)
        out, _ = run_experiment(cfg)
        rows = read_rows(out)
        assert len(rows) == 10
        assert all(r["holds"] == "1" for r in rows)

    def test_eta_bound(self, tmp_path):
        cfg = self.diag_config(tmp_path, "d2", "eta-bound", samples=2, n=5)
        out, _ = run_experiment(cfg)
        assert all(r["holds"] == "1" for r in read_rows(out))

    def test_kl_decomp(self, tmp_path):
        cfg = self.diag_config(tmp_path, "d3", "kl-decomp", samples=2)
        out, _ = run_experiment(cfg)
        rows = read_rows(out)
        assert len(rows) == 2 * 16
        assert all(r["agree"] == "1" for r in rows)

    def test_empty_check_list_header_only(self, tmp_path):
        cfg = self.diag_config(tmp_path, "d_empty", "")
        (index,) = run_experiment(cfg)
        assert open(index).read() == "check,files\n"

    def test_multiple_checks_run_together(self, tmp_path):
        cfg = self.diag_config(
            tmp_path, "d_multi", "gf-bound,decay-table", samples=3,
            p_values="2,4",
        )
        files = run_experiment(cfg)
        assert any("gf_bound" in f for f in files)
        assert any("decay_table" in f for f in files)
        index_rows = read_rows(files[-1])
        assert [r["check"] for r in index_rows] == ["gf-bound", "decay-table"]

    def test_psd(self, tmp_path):
        cfg = self.diag_config(
            tmp_path, "d4", "psd", n_dims=1, n_lags=1, n=20000, segments=20,
            freq_points=16, s=0,
        )
        out, summary, _ = run_experiment(cfg)
        value = float(read_rows(summary)[0]["spectral_floor"])
        assert 0.15 <= value <= 0.35

    def test_decay_table(self, tmp_path):
        cfg = self.diag_config(
            tmp_path, "d5", "decay-table", family="polynomial", alpha=2.0,
            c=0.1, p_values="4,8,16",
        )
        out, _ = run_experiment(cfg)
        rows = read_rows(out)
        assert [r["p"] for r in rows] == ["4", "8", "16"]

    def test_bad_value_names_key_and_makes_no_output_dir(self, tmp_path):
        with pytest.raises(ConfigError, match="diagnose.samples"):
            run_experiment(self.diag_config(tmp_path, "d_bad", "gf-bound", samples="ten"))
        assert not os.path.exists(tmp_path / "d_bad")

    def test_bad_family_fails_before_any_check_runs(self, tmp_path):
        cfg = self.diag_config(tmp_path, "d_family", "gf-bound,decay-table", samples=2,
                               family="bogus")
        with pytest.raises(ConfigError, match="diagnose.family"):
            run_experiment(cfg)
        assert not os.path.exists(tmp_path / "d_family")

    def test_unknown_check(self, tmp_path):
        cfg = self.diag_config(tmp_path, "d6", "nope")
        with pytest.raises(ConfigError, match="check") as err:
            run_experiment(cfg)
        assert "gf-bound" in str(err.value)

    @pytest.mark.parametrize("check", sorted(TINY_CHECKS))
    def test_every_check_writes_indexed_files(self, tmp_path, check):
        n_dims, n_lags, extra = TINY_CHECKS[check]
        cfg = self.diag_config(tmp_path, "d8", check, n_dims=n_dims, n_lags=n_lags, **extra)
        *written, index = run_experiment(cfg)
        assert read_rows(index) == [
            {"check": check, "files": ";".join(os.path.basename(f) for f in written)}
        ]
        for fname in written:
            assert len(open(fname).read().splitlines()) >= 2, fname

    def test_index_independent_of_output_dir(self, tmp_path):
        indexes = []
        for name in ("d9", "d9_a_much_longer_directory_name"):
            cfg = self.diag_config(tmp_path, name, "gf-bound,decay-table", samples=2,
                                   p_values="1,2")
            indexes.append(open(run_experiment(cfg)[-1], "rb").read())
        assert indexes[0] == indexes[1]

    def test_grad_bound_trial_csv(self, tmp_path):
        cfg = self.diag_config(
            tmp_path, "d7", "grad-bound", n_dims=2, n_lags=1, s=2, n=150,
            replicates=5,
        )
        out, summary, _ = run_experiment(cfg)
        assert len(read_rows(out)) == 5
        assert "rate" in read_rows(summary)[0]


def readme_rows(key_prefix):
    """Cells of the README table rows whose key cell starts with key_prefix."""
    with open(README, encoding="utf-8") as fh:
        return [
            [cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in fh
            if line.startswith(f"| `{key_prefix}")
        ]


class TestReadmeDefaults:
    # diagnose keys whose README default names another setting, not a value
    SYMBOLIC = {"check", "seed", "theta", "s", "theta_seed"}

    @staticmethod
    def settings(fn):
        """The parameters of a check or a decay family after its first."""
        return list(inspect.signature(fn).parameters.values())[1:]

    def check_defaults(self):
        """{(check, key): default}: each check's keyword parameters, decay-table's
        with the parameters of the decay families it passes them to."""
        defaults = {(check, q.name): q.default
                    for check, fn in experiments._CHECKS.items() for q in self.settings(fn)}
        for family in DECAY_FAMILIES.values():
            for q in self.settings(family):
                assert defaults.setdefault(("decay-table", q.name), q.default) == q.default
        return defaults

    def test_diagnose_table_matches_check_defaults(self):
        documented = {}
        for key_cell, default_cell, read_by in readme_rows("diagnose."):
            keys = re.findall(r"`diagnose\.(\w+)`", key_cell)
            if set(keys) <= self.SYMBOLIC:
                continue
            checks = [c for c in re.findall(r"`([a-z-]+)`", read_by) if c in experiments._CHECKS]
            cells = default_cell.split(", ") if len(keys) > 1 else [default_cell]
            for key, cell in zip(keys, cells, strict=True):
                values = cell.split(" / ") if " / " in cell else [cell] * len(checks)
                parse = KEYS[f"diagnose.{key}"][1]
                for check, value in zip(checks, values, strict=True):
                    documented[check, key] = parse(value.strip("`"))
        assert documented == self.check_defaults()

    def test_every_diagnose_key_is_read(self):
        # a diagnose.* key is a setting of a check or a decay family, or shared
        keys = {key.partition(".")[2] for key in KEYS if key.startswith("diagnose.")}
        assert keys == {key for _, key in self.check_defaults()} | self.SYMBOLIC

    def test_magnitude_row_matches_config_and_library(self):
        ((_, cell, _),) = readme_rows("theta.magnitude_low/high")
        documented = tuple(float(x) for x in cell.split(" / "))
        fields = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
        assert documented == (fields["magnitude_low"], fields["magnitude_high"])
        params = inspect.signature(random_sparse_theta).parameters
        assert documented == (params["magnitude_low"].default, params["magnitude_high"].default)
