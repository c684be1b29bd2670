"""Span recording around the public functions of each ``mbp`` module.

Tracing is done from outside the package: :class:`Hooks` rebinds module
attributes (for example ``mbp._kernels.bernoulli_loss_terms`` or
``mbp.experiments.fit``) to timing wrappers and puts the originals back on
exit. Every call through a wrapper appends one :class:`Span` (name, start,
end, parent, counts) to an in-memory list; nothing is written until the run
ends. A hook whose module or attribute no longer exists is reported as
absent rather than failing, so the benchmark keeps running on commits that
remove or rename a layer.

Span names are ``<layer>.<what>``; the layer is the ``mbp`` module the span
measures. A layer's self time is its spans' time minus the time their
direct child spans cover; the root span of a pass belongs to ``other``, so
the self times of all layers add up to the pass's wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from dataclasses import dataclass, field

ROOT_SPAN = "pass"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return "other" if self.name == ROOT_SPAN else self.name.split(".", 1)[0]


class Recorder:
    """In-memory span list with a stack of open spans (single thread)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def open(self, name: str) -> Span:
        parent = self._open[-1] if self._open else -1
        span = Span(name, self.clock(), 0.0, parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped so each call records a span named ``name``.

        ``count(arguments, result)`` may return a dict of counts for the
        span; ``arguments`` maps every parameter name to its bound value.
        """
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.counts = count(bound.arguments, result)
                except (KeyError, AttributeError, TypeError):
                    # the target's signature or result changed shape
                    span.counts = {"uncounted": 1}
            return result

        return wrapper


def _loss_counts(a, _):
    return {"elems": int(a["pred"].size), "grad": bool(a["want_residual"])}


def _simulate_counts(a, _):
    return {"steps": int(a["theta"].n_lags + a["burn_in"] + a["n"])}


def _fit_counts(a, result):
    path = a["path"]
    return {
        "width": int(path.n_dims * path.n_lags),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
    }


def _kernel_counts(_, result):
    return {"states": int(result.n_states)}


def _dobrushin_counts(a, _):
    kernel = a["kernel"]
    size = kernel.n_states if hasattr(kernel, "n_states") else len(kernel)
    return {"row_pairs": size * (size - 1) // 2}


# (module, attribute, span name, counter). A call made through a name that a
# module imported into its own namespace is hooked in that namespace.
HOOKS = (
    ("mbp._kernels", "bernoulli_loss_terms", "_kernels.loss_pass", _loss_counts),
    ("mbp._kernels", "chain_steps", "_kernels.chain", None),
    ("mbp._kernels", "lagged_square_sum", "_kernels.lagged_square_sum", None),
    ("mbp.experiments", "fit", "estimator.fit", _fit_counts),
    ("mbp.experiments", "simulate", "simulate.simulate", _simulate_counts),
    ("mbp.likelihood", "simulate", "simulate.simulate", _simulate_counts),
    ("mbp.estimator", "design_matrix", "simulate.design_matrix", None),
    ("mbp.likelihood", "design_matrix", "simulate.design_matrix", None),
    ("mbp.experiments", "grad_bound_trial", "likelihood.grad_bound_trial", None),
    ("mbp.experiments", "concentration_trial", "likelihood.concentration_trial", None),
    ("mbp.likelihood", "quad_form", "likelihood.quad_form", None),
    ("mbp.experiments", "contraction_check", "markov.contraction_check", None),
    ("mbp.experiments", "mixing_coefficients", "markov.mixing_coefficients", None),
    ("mbp.experiments", "kl_chain_decomposition", "markov.kl_chain_decomposition", None),
    ("mbp.markov", "build_kernel", "markov.build_kernel", _kernel_counts),
    ("mbp.markov", "dobrushin_coefficient", "markov.dobrushin", _dobrushin_counts),
    ("mbp.experiments", "psd_estimate", "spectral.psd_estimate", None),
)


class Hooks:
    """Rebinds hook targets to recorder wrappers; a context manager.

    On entry every target is resolved by name; ``absent`` lists the
    ``module.attribute`` targets that could not be found. On exit the
    original attributes are restored, also when the body raised.
    """

    def __init__(self, recorder: Recorder, hooks=HOOKS):
        self.recorder = recorder
        self.hooks = hooks
        self.absent: list[str] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for module_name, attr, span_name, count in self.hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.recorder.wrap(span_name, original, count))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False


def self_seconds(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.seconds
    return out


LAYERS = ("experiments", "simulate", "_kernels", "estimator", "likelihood", "markov", "spectral", "other")
# metric names must start with a letter or digit
LAYER_SELF = tuple(f"{layer.lstrip('_')}.self_s" for layer in LAYERS)

COUNT_METRICS = (
    "kernels.loss_pass.calls_grad",
    "kernels.loss_pass.calls_value",
    "kernels.loss_pass.elems",
    "estimator.fits",
    "estimator.iterations",
    "estimator.restarts",
    "estimator.backtracks",
    "estimator.converged",
    "simulate.calls",
    "simulate.steps",
    "likelihood.quad_form.calls",
    "markov.dobrushin.row_pairs",
    "markov.kl_chain_decomposition.calls",
    "markov.states",
    "trace.uncounted",
)


def _tail(values):
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With ten samples or fewer no percentile qualifies; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(values)
    if len(ordered) <= 10:
        return (ordered[-1] if ordered else 0.0), 100.0
    k = len(ordered) - 11  # ten samples lie strictly above ordered[k]
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass, as ``{name: (value, unit)}``.

    ``spans`` holds exactly one root span (the pass) and its descendants.
    Loss-pass counts include only calls made inside ``estimator.fit``.
    """
    own = self_seconds(spans)
    secs, calls = {}, {}
    for s in spans:
        secs[s.name] = secs.get(s.name, 0.0) + s.seconds
        calls[s.name] = calls.get(s.name, 0) + 1
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, own):
        layer_self[s.layer] += t

    fit_idx = [i for i, s in enumerate(spans) if s.name == "estimator.fit"]
    fit_of = {}
    for i, s in enumerate(spans):
        if s.name == "_kernels.loss_pass":
            j = s.parent
            while j >= 0 and spans[j].name != "estimator.fit":
                j = spans[j].parent
            if j >= 0:
                fit_of[i] = j
    grad = sum(1 for i in fit_of if spans[i].counts.get("grad"))
    value = len(fit_of) - grad
    elems = sum(spans[i].counts.get("elems", 0) for i in fit_of)
    loss_s = sum(spans[i].seconds for i in fit_of)
    flop = sum(
        2.0 * spans[i].counts.get("elems", 0) * spans[j].counts.get("width", 0)
        * (2 if spans[i].counts.get("grad") else 1)
        for i, j in fit_of.items()
    )
    fits = len(fit_idx)
    iterations = sum(spans[i].counts.get("iterations", 0) for i in fit_idx)
    converged = sum(1 for i in fit_idx if spans[i].counts.get("converged"))
    fit_times = [spans[i].seconds for i in fit_idx]
    fit_s = sum(fit_times)
    tail, tail_pct = _tail(fit_times)
    steps = sum(s.counts.get("steps", 0) for s in spans if s.name == "simulate.simulate")
    sim_s = secs.get("simulate.simulate", 0.0)
    root = next(s for s in spans if s.name == ROOT_SPAN)

    def s_of(name):
        return secs.get(name, 0.0)

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    m = {
        "kernels.loss_pass.s": (loss_s, "s"),
        "kernels.loss_pass.calls_grad": (grad, "count"),
        "kernels.loss_pass.calls_value": (value, "count"),
        "kernels.loss_pass.elems": (elems, "count"),
        "kernels.loss_pass.ns_per_elem": (1e9 * loss_s / elems if elems else 0.0, "ns"),
        "kernels.chain.s": (s_of("_kernels.chain"), "s"),
        "estimator.fit.s": (fit_s, "s"),
        "estimator.fit.self_s": (sum(own[i] for i in fit_idx), "s"),
        "estimator.matmul_gflop": (flop / 1e9, "GFLOP"),
        "estimator.fit_s_p50": (statistics.median(fit_times) if fit_times else 0.0, "s"),
        "estimator.fit_s_tail": (tail, "s"),
        "estimator.fit_s_tail_pct": (tail_pct, "%"),
        "estimator.fits": (fits, "count"),
        "estimator.iterations": (iterations, "count"),
        "estimator.restarts": (grad - iterations, "count"),
        "estimator.backtracks": (value - fits - grad, "count"),
        "estimator.converged": (converged, "count"),
        "estimator.s_per_iter": (fit_s / iterations if iterations else 0.0, "s"),
        "estimator.converged_frac": (converged / fits if fits else 0.0, "frac"),
        "simulate.calls": (calls.get("simulate.simulate", 0), "count"),
        "simulate.s": (sim_s, "s"),
        "simulate.steps": (steps, "count"),
        "simulate.ns_per_step": (1e9 * sim_s / steps if steps else 0.0, "ns"),
        "simulate.design_matrix.s": (s_of("simulate.design_matrix"), "s"),
        "likelihood.grad_bound_trial.s": (s_of("likelihood.grad_bound_trial"), "s"),
        "likelihood.concentration_trial.s": (s_of("likelihood.concentration_trial"), "s"),
        "likelihood.quad_form.calls": (calls.get("likelihood.quad_form", 0), "count"),
        "likelihood.quad_form.s": (s_of("likelihood.quad_form"), "s"),
        "markov.contraction_check.s": (s_of("markov.contraction_check"), "s"),
        "markov.build_kernel.s": (s_of("markov.build_kernel"), "s"),
        "markov.dobrushin.s": (s_of("markov.dobrushin"), "s"),
        "markov.dobrushin.row_pairs": (total("markov.dobrushin", "row_pairs"), "count"),
        "markov.mixing_coefficients.s": (s_of("markov.mixing_coefficients"), "s"),
        "markov.kl_chain_decomposition.calls": (
            calls.get("markov.kl_chain_decomposition", 0), "count"),
        "markov.kl_chain_decomposition.s": (s_of("markov.kl_chain_decomposition"), "s"),
        "markov.states": (total("markov.build_kernel", "states"), "count"),
        "spectral.psd_estimate.s": (s_of("spectral.psd_estimate"), "s"),
        "trace.wall_s": (root.seconds, "s"),
        "trace.uncounted": (sum(s.counts.get("uncounted", 0) for s in spans), "count"),
    }
    for layer, name in zip(LAYERS, LAYER_SELF):
        m[name] = (layer_self[layer], "s")
    return m
