"""Tests of the benchmark itself: hooks, self-time arithmetic, smoke runs.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
import mbp  # noqa: E402
import mbp._kernels  # noqa: E402
import mbp.experiments  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _tiny_path():
    theta = mbp.random_sparse_theta(3, 2, 4, seed=5)
    return theta, mbp.simulate(theta, mbp.sigmoid_link(), 200, burn_in=50, seed=6)


def test_hooks_install_and_restore():
    originals = {(m, a): getattr(__import__(m, fromlist=[a]), a) for m, a, _, _ in spans.HOOKS}
    recorder = spans.Recorder()
    with spans.Hooks(recorder) as hooks:
        assert hooks.absent == []
        assert mbp._kernels.bernoulli_loss_terms is not originals[
            ("mbp._kernels", "bernoulli_loss_terms")]
        theta, path = _tiny_path()
        mbp.experiments.fit(path, mbp.sigmoid_link(), mbp.FitConfig(lam=0.01))
    for (module, attr), original in originals.items():
        assert getattr(__import__(module, fromlist=[attr]), attr) is original
    names = {s.name for s in recorder.spans}
    assert {"estimator.fit", "_kernels.loss_pass", "simulate.design_matrix"} <= names
    fit = next(s for s in recorder.spans if s.name == "estimator.fit")
    assert fit.counts["width"] == 6 and fit.counts["iterations"] >= 1


def test_hooks_restore_when_body_raises():
    original = mbp._kernels.chain_steps
    with pytest.raises(RuntimeError):
        with spans.Hooks(spans.Recorder()):
            assert mbp._kernels.chain_steps is not original
            raise RuntimeError("boom")
    assert mbp._kernels.chain_steps is original


def test_absent_targets_are_reported_not_fatal():
    hooks = (
        ("mbp._kernels", "no_such_kernel", "_kernels.gone", None),
        ("mbp.no_such_module", "fit", "estimator.fit", None),
        ("mbp.experiments", "simulate", "simulate.simulate", spans._simulate_counts),
    )
    recorder = spans.Recorder()
    with spans.Hooks(recorder, hooks) as h:
        assert h.absent == ["mbp._kernels.no_such_kernel", "mbp.no_such_module.fit"]
        root = recorder.open(spans.ROOT_SPAN)
        theta, _ = _tiny_path()
        mbp.experiments.simulate(theta, mbp.sigmoid_link(), 100, burn_in=10, seed=1)
        recorder.close(root)
    assert not hasattr(mbp._kernels, "no_such_kernel")
    m = spans.layer_metrics(recorder.spans)
    assert m["estimator.fits"] == (0, "count")
    assert m["simulate.steps"] == (2 + 10 + 100, "count")


def test_counting_failure_marks_span_uncounted():
    recorder = spans.Recorder()
    wrapped = recorder.wrap("simulate.simulate", lambda x: x, spans._simulate_counts)
    assert wrapped(3) == 3
    assert recorder.spans[0].counts == {"uncounted": 1}


def _span(name, start, end, parent, **counts):
    return spans.Span(name, float(start), float(end), parent, counts)


def test_self_time_arithmetic_on_nested_spans():
    tree = [
        _span("pass", 0, 10, -1),
        _span("experiments.run_experiment", 0.5, 9.5, 0),
        _span("estimator.fit", 1, 7, 1, width=4, iterations=3, converged=True),
        _span("_kernels.loss_pass", 2, 3, 2, elems=10, grad=True),
        _span("_kernels.loss_pass", 4, 4.5, 2, elems=10, grad=False),
        _span("simulate.simulate", 7.5, 9, 1, steps=20),
        _span("_kernels.chain", 8, 8.75, 5),
        _span("_kernels.loss_pass", 9.1, 9.2, 1, elems=10, grad=True),
    ]
    assert spans.self_seconds(tree) == pytest.approx([1, 1.4, 4.5, 1, 0.5, 0.75, 0.75, 0.1])
    m = {k: v for k, (v, _) in spans.layer_metrics(tree).items()}
    assert m["other.self_s"] == pytest.approx(1.0)
    assert m["experiments.self_s"] == pytest.approx(1.4)
    assert m["estimator.self_s"] == m["estimator.fit.self_s"] == pytest.approx(4.5)
    assert m["kernels.self_s"] == pytest.approx(1 + 0.5 + 0.75 + 0.1)
    assert m["simulate.self_s"] == pytest.approx(0.75)
    layer_sum = sum(v for k, v in m.items() if k.endswith(".self_s") and k != "estimator.fit.self_s")
    assert layer_sum == pytest.approx(m["trace.wall_s"]) == pytest.approx(10.0)
    # only the two loss passes inside the fit are counted
    assert (m["kernels.loss_pass.calls_grad"], m["kernels.loss_pass.calls_value"]) == (1, 1)
    assert m["kernels.loss_pass.elems"] == 20
    assert m["kernels.loss_pass.s"] == pytest.approx(1.5)
    assert m["estimator.restarts"] == 1 - 3
    assert m["estimator.backtracks"] == 1 - 1 - 1
    assert m["estimator.matmul_gflop"] == pytest.approx((2 * 10 * 4 * 2 + 2 * 10 * 4) / 1e9)


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(np.arange(1.0, 31.0))
    tail, pct = spans._tail(values)
    assert sum(v > tail for v in values) == 10
    assert tail == 20.0 and pct == pytest.approx(100 * 20 / 30)
    assert spans._tail([3.0, 1.0]) == (3.0, 100.0)


def _run(cwd, *args, timeout=300):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_declared_metric(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    run = json.loads(out.stdout.strip().splitlines()[-2])["run"]
    assert run["absent"] == []
    if trace:
        assert run["count_mismatches"] == [] and run["self_times_add_up"]
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, rel), tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(str(tmp_path), "--workload", "diagnose", "--seed", "1", "--seconds", "1",
               "--trace", "0", timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_pass_calls_compute_what_the_whole_pass_computes(tmp_path):
    from mbp.config import ExperimentConfig

    whole = workloads.pass_configs("sweep_p20", 4, str(tmp_path / "whole"), smoke=True)
    calls = workloads.pass_calls("sweep_p20", 4, str(tmp_path / "calls"), smoke=True)
    assert len(calls) == len(workloads.units(whole[0])) == 2

    def rows(mapping):
        files = mbp.experiments.run_experiment(ExperimentConfig.from_mapping(mapping))
        runs = next(f for f in files if f.endswith("_runs.csv"))
        return [(r["s"], r["n"], r["frob_error"], r["iterations"]) for r in workloads._rows(runs)]

    assert rows(whole[0]) == [row for call in calls for row in rows(call)]
