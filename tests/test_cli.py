"""End-to-end runs of the command-line interface."""

import importlib
import re
import shlex

import numpy as np
import pytest
from helpers import README
from mbp.cli import EXIT_ERROR, EXIT_NOT_CONVERGED, EXIT_OK, build_parser, main
from mbp.config import ExperimentConfig
from mbp.experiments import _effective_lambda
from mbp.simulate import read_path
from mbp.tensor import read_tensor


def test_simulate_writes_path_and_theta(tmp_path):
    out = tmp_path / "path.txt"
    theta_out = tmp_path / "theta.txt"
    code = main(
        [
            "simulate", "--random", "3,2,4", "--n", "120", "--seed", "9",
            "--out", str(out), "--theta-out", str(theta_out),
        ]
    )
    assert code == EXIT_OK
    path = read_path(out)
    assert (path.n, path.n_dims, path.n_lags) == (120, 3, 2)
    theta = read_tensor(theta_out)
    assert int((theta.values != 0).sum()) == 4


def test_simulate_from_tensor_file(tmp_path):
    theta_out = tmp_path / "theta.txt"
    main(
        ["simulate", "--random", "2,1,2", "--n", "50", "--seed", "3",
         "--out", str(tmp_path / "a.txt"), "--theta-out", str(theta_out)]
    )
    code = main(
        ["simulate", "--theta", str(theta_out), "--n", "50", "--seed", "3",
         "--out", str(tmp_path / "b.txt")]
    )
    assert code == EXIT_OK
    a = read_path(tmp_path / "a.txt")
    b = read_path(tmp_path / "b.txt")
    assert np.array_equal(a.data, b.data)


def test_fit_converged_exit_code(tmp_path):
    data = tmp_path / "path.txt"
    out = tmp_path / "fit.txt"
    main(["simulate", "--random", "2,1,3", "--n", "400", "--seed", "2", "--out", str(data)])
    code = main(["fit", "--data", str(data), "--lambda", "0.05", "--out", str(out)])
    assert code == EXIT_OK
    assert read_tensor(out).values.shape == (2, 2, 1)


def test_fit_max_iters_exit_code(tmp_path):
    data = tmp_path / "path.txt"
    main(["simulate", "--random", "2,1,3", "--n", "400", "--seed", "2", "--out", str(data)])
    code = main(
        ["fit", "--data", str(data), "--lambda", "0.001", "--out",
         str(tmp_path / "f.txt"), "--max-iters", "2", "--tol", "1e-14"]
    )
    assert code == EXIT_NOT_CONVERGED


def test_fit_step_underflow_reported(tmp_path, monkeypatch, capsys):
    # every trial step scores 1.0 above its true loss change, so no step
    # descends and the line search halves the step until it gives up
    module = importlib.import_module("mbp.estimator")
    change = module.softplus_change
    monkeypatch.setattr(module, "softplus_change", lambda b, delta: change(b, delta) + 1.0)
    data = tmp_path / "path.txt"
    main(["simulate", "--random", "3,2,6", "--n", "200", "--seed", "5", "--out", str(data)])
    capsys.readouterr()
    code = main(["fit", "--data", str(data), "--lambda", "1e-4", "--out", str(tmp_path / "f.txt")])
    assert code == EXIT_NOT_CONVERGED
    assert "(stopped: line_search)" in capsys.readouterr().out


def test_fit_lambda_policy_flag(tmp_path):
    data = tmp_path / "path.txt"
    main(["simulate", "--random", "2,1,2", "--n", "300", "--seed", "4", "--out", str(data)])
    code = main(
        ["fit", "--data", str(data), "--lambda-policy", "simulation,0.25",
         "--out", str(tmp_path / "f.txt")]
    )
    assert code == EXIT_OK


def test_fit_lambda_policy_default_c2_matches_config(tmp_path, capsys):
    # the policy constant a config leaves unset is the one the CLI uses
    data = tmp_path / "path.txt"
    main(["simulate", "--random", "3,2,4", "--n", "400", "--seed", "2", "--out", str(data)])
    capsys.readouterr()
    out = tmp_path / "f.txt"
    code = main(["fit", "--data", str(data), "--lambda-policy", "simulation", "--out", str(out)])
    assert code == EXIT_OK
    config = ExperimentConfig.from_mapping(
        {"experiment": "error_vs_n", "N": "3", "p": "2", "sweep.s_values": "4",
         "sweep.n_values": "400"}
    )
    assert f"lambda={_effective_lambda(config, 400):.6g} " in capsys.readouterr().out
    assert np.count_nonzero(read_tensor(out).values) > 0


def test_diagnose_config_writes_to_default_out(tmp_path, monkeypatch):
    # a check, the process sizes and one check setting; no output_dir key
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "gf.cfg"
    cfg.write_text("experiment = diagnose\nN = 1\np = 2\ndiagnose.check = gf-bound\n"
                   "diagnose.samples = 4\n")
    assert main(["experiment", "--config", str(cfg)]) == EXIT_OK
    assert len((tmp_path / "out" / "diagnose_gf_bound.csv").read_text().splitlines()) == 5


def test_experiment_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "experiment = error_vs_n\nN = 3\np = 1\nsweep.s_values = 2\n"
        f"sweep.n_values = 80,160\nreplicates = 2\noutput_dir = {tmp_path / 'out'}\n"
        "master_seed = 1\nfit.tol = 1e-6\n"
    )
    code = main(["experiment", "--config", str(cfg)])
    assert code == EXIT_OK
    assert (tmp_path / "out" / "error_vs_n_runs.csv").exists()
    assert (tmp_path / "out" / "error_vs_n_summary.csv").exists()


def test_diagnose_config_runs_as_experiment(tmp_path):
    cfg = tmp_path / "diag.cfg"
    cfg.write_text(
        "experiment = diagnose\nN = 1\np = 2\ndiagnose.check = gf-bound\n"
        f"diagnose.samples = 3\noutput_dir = {tmp_path / 'out'}\n"
    )
    assert main(["experiment", "--config", str(cfg)]) == EXIT_OK
    assert len((tmp_path / "out" / "diagnose_gf_bound.csv").read_text().splitlines()) == 4
    with pytest.raises(SystemExit):  # diagnose itself takes no config file
        main(["diagnose", "--config", str(cfg)])


def test_bad_config_reports_error(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = bogus\nN = 2\np = 1\n")
    assert main(["experiment", "--config", str(cfg)]) == EXIT_ERROR


def test_diagnose_subcommand_removed(capsys):
    with pytest.raises(SystemExit):
        main(["diagnose"])
    err = capsys.readouterr().err
    assert "invalid choice" in err and "diagnose" in err


def test_bad_random_spec(tmp_path):
    code = main(
        ["simulate", "--random", "3,2", "--n", "10", "--out", str(tmp_path / "x.txt")]
    )
    assert code == EXIT_ERROR


def test_readme_command_lines_parse():
    # every `mbp ...` line of the README's shell blocks names a subcommand and
    # flags the parser knows, so the README cannot show a removed one
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("mbp ")]
    assert len(lines) >= 4
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
