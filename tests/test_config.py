"""Config file parsing and validation."""

import pathlib

import pytest

from mbp.config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config_text,
)

SHIPPED = sorted((pathlib.Path(__file__).parents[1] / "configs").glob("*.cfg"))

MINIMAL = """
experiment = error_vs_n
N = 4
p = 2
sweep.s_values = 3
sweep.n_values = 100,200
"""


class TestParsing:
    def test_key_values_and_comments(self):
        text = "# comment\n\na = 1\nlink.alpha = 2.0\nlist = 1,2,3\n"
        assert parse_config_text(text) == {
            "a": "1",
            "link.alpha": "2.0",
            "list": "1,2,3",
        }

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just a line\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("= value\n")


class TestExperimentConfig:
    def test_minimal_defaults(self):
        cfg = ExperimentConfig.from_mapping(parse_config_text(MINIMAL))
        assert cfg.experiment == "error_vs_n"
        assert cfg.replicates == 20
        assert cfg.link.alpha == 1.0 and cfg.link.eps == 0.05
        assert cfg.lambda_mode == "simulation"
        assert cfg.effective_c2() == pytest.approx(0.25)
        assert cfg.burn_in == 1000

    def test_explicit_c2_overrides_default(self):
        cfg = ExperimentConfig.from_mapping(
            parse_config_text(MINIMAL + "lambda.c2 = 7\n")
        )
        assert cfg.effective_c2() == 7.0

    def test_unknown_experiment_names_key(self):
        with pytest.raises(ConfigError, match="experiment"):
            ExperimentConfig.from_mapping(
                parse_config_text(MINIMAL.replace("error_vs_n", "bogus"))
            )

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            ExperimentConfig.from_mapping(parse_config_text(MINIMAL + "mystery = 1\n"))

    @pytest.mark.parametrize(
        "typo",
        ["fit.tols = 1e-12", "lambda.C2 = 9", "diagnose.sample = 3", "run.point_timeout_seconds = 5"],
    )
    def test_misspelled_key_under_known_prefix_rejected(self, typo):
        key = typo.split(" =")[0]
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            ExperimentConfig.from_mapping(parse_config_text(MINIMAL + typo + "\n"))

    def test_sparsity_budget_validated(self):
        with pytest.raises(ConfigError, match="s_values"):
            ExperimentConfig.from_mapping(
                parse_config_text(MINIMAL.replace("sweep.s_values = 3", "sweep.s_values = 99"))
            )

    def test_bad_number_names_key(self):
        with pytest.raises(ConfigError, match="link.alpha"):
            ExperimentConfig.from_mapping(parse_config_text(MINIMAL + "link.alpha = abc\n"))

    @pytest.mark.parametrize("line", ["link.alpha = -1", "link.eps = 0.7"])
    def test_bad_link_value_names_key(self, line):
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=f"key '{key}'"):
            ExperimentConfig.from_mapping(parse_config_text(MINIMAL + line + "\n"))

    def test_fixed_lambda_requires_value(self):
        with pytest.raises(ConfigError, match="lambda.value"):
            ExperimentConfig.from_mapping(parse_config_text(MINIMAL + "lambda.mode = fixed\n"))

    def test_diagnose_keys_passed_through(self):
        text = (
            "experiment = diagnose\nN = 1\np = 2\n"
            "diagnose.check = gf-bound\ndiagnose.samples = 9\n"
        )
        cfg = ExperimentConfig.from_mapping(parse_config_text(text))
        assert cfg.diagnose == {"check": "gf-bound", "samples": 9}

    def test_diagnose_values_typed(self):
        text = (
            "experiment = diagnose\nN = 1\np = 2\ndiagnose.check = decay-table\n"
            "diagnose.samples = 9\ndiagnose.p_values = 1,2\ndiagnose.t = 0.5\n"
        )
        cfg = ExperimentConfig.from_mapping(parse_config_text(text))
        assert cfg.diagnose == {
            "check": "decay-table", "samples": 9, "p_values": (1, 2), "t": 0.5,
        }

    def test_accelerate_key_rejected(self):
        # the solver always uses momentum; configs that still set it fail loudly
        with pytest.raises(ConfigError, match="fit.accelerate"):
            ExperimentConfig.from_mapping(parse_config_text(MINIMAL + "fit.accelerate = true\n"))

    def test_link_kind_key_rejected(self):
        # sigmoid is the only link, so the key that chose it is gone
        with pytest.raises(ConfigError, match="unknown key 'link.kind'"):
            ExperimentConfig.from_mapping(parse_config_text(MINIMAL + "link.kind = sigmoid\n"))

    def test_load_config_file(self, tmp_path):
        fname = tmp_path / "exp.cfg"
        fname.write_text(MINIMAL)
        cfg = load_config(fname)
        assert cfg.n_dims == 4 and cfg.n_values == (100, 200)


def test_configs_found():
    assert len(SHIPPED) >= 6


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_shipped_config_loads(path):
    # a renamed or removed key fails here, not in a user's run
    assert load_config(path).experiment in path.stem
