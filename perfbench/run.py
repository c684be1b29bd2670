"""Benchmark of mbp on the paper's protocols, run through the shipped harness.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep_p20 --seed 1 --seconds 55 --trace 0

Workloads: ``sweep_p20`` and ``diagnose`` (see ``workloads.py``). The
package is imported from ``src/`` of the checkout the script sits in;
without it the script exits with an error.

``--trace 0`` measures end to end with no timing wrappers installed. After
an untimed warm-up it runs the harness calls of a pass (one per sweep point
or diagnose config, see ``workloads.pass_calls``) round after round, each
round with its own seed derived from ``--seed``, until the next call would
end after ``--seconds``. It reports:

- ``setup_s``: median over separate processes of the time from process
  start through ``import mbp``, building the pass config and one warm-up
  unit (the workload at smoke size);
- ``wall_s``: wall time of one pass, as the sum over its calls of the mean
  time of that call. Call k of every round is the same sweep point or
  diagnose config, so the sum is a whole pass however many rounds fit in
  the window, and no time is lost waiting for a whole pass to fit. Means,
  not medians, because a fit's iteration count is bimodal across seeds
  (about 100 or about 200 at every sweep point above s=10);
- ``peak_rss_mb``: the process's memory high-water mark after the passes.

``--trace 1`` runs one untraced pass and then the same pass twice with
wrappers around the public functions of each ``mbp`` module (see
``spans.py``), and reports per-layer times and exact work counts. The two
traced passes must agree on every count, and the layers' self times plus
``other.self_s`` add up to the traced wall time.

Every pass's outputs are checked (see ``workloads.check``). The KKT
residual over lambda of every fit is evaluated after the timer stops and
reported as ``kkt_over_lambda_max``. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; a manifest
line before it records the seed, versions and host.

BLAS, OpenMP and MKL are pinned to one thread before numpy is imported,
for this process and the set-up probes it starts.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import inspect  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def import_mbp():
    """Import mbp from this checkout's src/ only; exit if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "mbp", "__init__.py")):
        raise SystemExit(f"perfbench: no mbp package under {SRC}")
    sys.path.insert(0, SRC)
    import mbp

    if not os.path.abspath(mbp.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported mbp from {mbp.__file__}, not {SRC}")
    return mbp


def pass_seed(seed: int, index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class FitCapture:
    """Rebinds ``mbp.experiments.fit`` to record its arguments and result.

    No timing: the captured fits are evaluated after the pass's timer stops.
    Drain after every pass: holding fits across passes fragmented the heap
    and raised peak RSS on sweep_p20 by 8 MB in some runs and not others.
    """

    def __init__(self):
        self.fits = []
        self.absent = False

    def __enter__(self):
        import mbp.experiments as ex

        self._module, self._original = ex, getattr(ex, "fit", None)
        if self._original is None:
            self.absent = True
            return self
        original, fits = self._original, self.fits

        @functools.wraps(original)
        def fit(*args, **kwargs):
            result = original(*args, **kwargs)
            fits.append((args, kwargs, result))
            return result

        ex.fit = fit
        return self

    def __exit__(self, *exc):
        if self._original is not None:
            self._module.fit = self._original
        return False

    def drain(self):
        """KKT residual over lambda of each fit captured since the last call.

        In call order; the captured fits are released.
        """
        if self.absent:
            return []
        from mbp.estimator import kkt_residual

        signature = inspect.signature(self._original)
        out = []
        for args, kwargs, result in self.fits:
            a = signature.bind(*args, **kwargs).arguments
            lam = a["config"].lam
            out.append(kkt_residual(result.theta_hat, a["path"], a["link"], lam) / lam)
        self.fits.clear()
        return out


@dataclasses.dataclass
class PassResult:
    seconds: float
    failures: dict  # unit label -> reason, failed units only
    units: list  # every unit label, in run order
    csv_bytes: int
    frob_errors: list


def run_pass(mappings, recorder=None) -> PassResult:
    """Run the configs of one pass through the harness, then check outputs.

    Only the ``run_experiment`` calls are timed. With a recorder, the pass
    is its root span and each ``run_experiment`` call a child span.
    """
    from mbp.config import ExperimentConfig
    from mbp.experiments import run_experiment

    configs = [ExperimentConfig.from_mapping(m) for m in mappings]
    outputs = []
    root = recorder.open(spans.ROOT_SPAN) if recorder else None
    start = time.perf_counter()
    for config in configs:
        span = recorder.open("experiments.run_experiment") if recorder else None
        try:
            outputs.append(run_experiment(config))
        except Exception:  # a failing unit is reported, not fatal
            outputs.append(traceback.format_exc())
        finally:
            if span:
                recorder.close(span)
    seconds = time.perf_counter() - start
    if root:
        recorder.close(root)

    failures, units, size, errors = {}, [], 0, []
    for k, (mapping, files) in enumerate(zip(mappings, outputs)):
        labels = [(k, u) for u in workloads.units(mapping)]
        units.extend(labels)
        if isinstance(files, str):
            failures.update(dict.fromkeys(labels, "raised: " + files.strip().splitlines()[-1]))
            print(files, file=sys.stderr)
            continue
        try:
            verdicts = workloads.check(mapping, files)
            size += workloads.csv_bytes(files)
            errors.extend(workloads.frob_errors(files))
        except (OSError, KeyError, ValueError, StopIteration, IndexError) as exc:
            verdicts = dict.fromkeys(workloads.units(mapping), f"unreadable output: {exc!r}")
        for unit, reason in verdicts.items():
            if reason is not None:
                failures[(k, unit)] = reason
    return PassResult(seconds, failures, units, size, errors)


def measure_setup(args) -> list:
    """Wall time of separate processes that import, configure and warm up."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    probes = 1 if args.smoke else SETUP_PROBES
    out = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - start)
    return out


def warm_up(args, out_dir, full_size=False):
    """Run the smoke pass untimed: imports, JIT compiles and lazy set-up land here.

    With ``full_size``, then also the pass's first call at full size, so that
    the allocator has grown to the sizes the timed calls use: the first
    full-size call of a process ran 0.5 to 1.5 s slower on sweep_p20.
    """
    warm_dir = os.path.join(out_dir, "warmup")
    run_pass(workloads.pass_configs(args.workload, args.seed, warm_dir, smoke=True))
    if full_size:
        run_pass(workloads.pass_calls(args.workload, pass_seed(args.seed, 0), warm_dir)[:1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def call_stream(args, pass_dir):
    """(round, k, config) for call k of round after round of the pass."""
    for round_ in itertools.count():
        calls = workloads.pass_calls(
            args.workload, pass_seed(args.seed, round_), pass_dir, args.smoke)
        for k, mapping in enumerate(calls):
            yield round_, k, mapping


def timed_run(args, out_dir):
    calls_per_pass = len(workloads.pass_calls(args.workload, 0, "", args.smoke))
    seconds = [[] for _ in range(calls_per_pass)]
    results, iterations, kkt = [], 0, []
    pass_dir = os.path.join(out_dir, "pass")
    deadline = time.perf_counter() + args.seconds
    with FitCapture() as capture:
        for round_, k, mapping in call_stream(args, pass_dir):
            # the first round always runs whole, so every call has a sample
            if round_ and time.perf_counter() + statistics.median(seconds[k]) > deadline:
                break
            result = run_pass([mapping])
            results.append(result)
            seconds[k].append(result.seconds)
            iterations += sum(getattr(r, "iterations", 0) for _, _, r in capture.fits)
            kkt.extend(capture.drain())
    metrics = {
        "wall_s": (sum(statistics.fmean(t) for t in seconds), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {
        "call_seconds": seconds,
        "fit_iterations": iterations,
        "fits": len(kkt),
        "absent": ["mbp.experiments.fit"] if capture.absent else [],
    }
    return results, metrics, kkt, info


def traced_run(args, out_dir):
    mappings = workloads.pass_configs(
        args.workload, pass_seed(args.seed, 0), os.path.join(out_dir, "pass"), args.smoke)
    untraced = run_pass(mappings)
    traced, recorders, absent = [], [], []
    with FitCapture() as capture:
        for _ in range(2):
            recorder = spans.Recorder()
            with spans.Hooks(recorder) as hooks:
                traced.append(run_pass(mappings, recorder=recorder))
            recorders.append(recorder)
            absent = hooks.absent + (["mbp.experiments.fit"] if capture.absent else [])
    kkt = capture.drain()

    per_pass = [spans.layer_metrics(r.spans) for r in recorders]
    for m, p in zip(per_pass, traced):
        m["experiments.units"] = (len(p.units), "count")
        m["experiments.csv_bytes"] = (p.csv_bytes, "count")
    counts = spans.COUNT_METRICS + ("experiments.units", "experiments.csv_bytes")
    mismatched = [c for c in counts if per_pass[0][c] != per_pass[1][c]]
    metrics = {
        name: (value if name in counts else 0.5 * (value + per_pass[1][name][0]), unit)
        for name, (value, unit) in per_pass[0].items()
    }
    self_sum = sum(metrics[name][0] for name in spans.LAYER_SELF)
    wall = metrics["trace.wall_s"][0]
    accounted = abs(self_sum - wall) <= 1e-9 * max(1.0, wall)
    traced_wall = statistics.mean(p.seconds for p in traced)
    errors = [e for p in traced for e in p.frob_errors]
    metrics["trace.overhead_frac"] = ((traced_wall - untraced.seconds) / untraced.seconds, "frac")
    metrics["kkt_over_lambda_max"] = (max(kkt, default=0.0), "ratio")
    metrics["frob_error_mean"] = (statistics.mean(errors) if errors else 0.0, "1")

    spans_file = os.path.join(out_dir, "spans.json")
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump([[vars(s) for s in r.spans] for r in recorders], fh)
    info = {
        "absent": absent,
        "count_mismatches": mismatched,
        "self_times_add_up": accounted,
        "untraced_pass_s": untraced.seconds,
        "traced_pass_s": [p.seconds for p in traced],
        "spans_file": os.path.relpath(spans_file, ROOT),
    }
    ok = not mismatched and accounted
    return [untraced] + traced, metrics, kkt, info, ok


def manifest(args, mbp) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    kernels = getattr(mbp, "_kernels", None)
    backend = getattr(kernels, "backend_name", None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_commit": git_commit(),
        "mbp_version": getattr(mbp, "__version__", "unknown"),
        "kernels_backend": backend() if callable(backend) else None,
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
    }


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up probe, for the benchmark's tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    mbp = import_mbp()
    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    if args.setup_probe:
        workloads.pass_configs(args.workload, pass_seed(args.seed, 0), out_dir, args.smoke)
        warm_up(args, os.path.join(out_dir, "probe"))
        return 0

    setup = measure_setup(args)
    warm_up(args, out_dir, full_size=not args.smoke)
    if args.trace:
        passes, metrics, kkt, info, ok = traced_run(args, out_dir)
    else:
        passes, metrics, kkt, info = timed_run(args, out_dir)
        metrics = {"setup_s": (statistics.median(setup), "s"), **metrics}
        ok = True
    failures = [(str(u), r) for p in passes for u, r in p.failures.items()]
    attempted = sum(len(p.units) for p in passes)
    info.update({
        "setup_s_samples": setup,
        "kkt_over_lambda_max": max(kkt, default=None),
        "failures": failures[:20],
        "process_s": time.perf_counter() - _T0,
    })
    print(json.dumps({"manifest": manifest(args, mbp), "run": info}))
    print(json.dumps({
        "correct": ok and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
