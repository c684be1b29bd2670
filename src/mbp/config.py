"""Line-oriented ``key = value`` configuration files with dotted keys.

Example::

    experiment = error_vs_n
    N = 20
    p = 20
    sweep.s_values = 50
    sweep.n_values = 500,1000,2000,4490
    replicates = 20
    link.alpha = 1.0
    link.eps = 0.05
    lambda.mode = simulation
    lambda.c2 = 0.25
    master_seed = 1234
    output_dir = out

Lines starting with ``#`` and blank lines are ignored. List values are
comma separated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .link import LinkSpec, sigmoid_link

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_text", "load_config"]

EXPERIMENTS = ("error_vs_n", "error_vs_sparsity", "grid", "support_recovery", "diagnose")


def _int_list(text: str):
    return tuple(int(x) for x in text.split(",") if x.strip())


# keys the diagnose checks read, as diagnose.<key>, with their value types
DIAGNOSE_KEYS = {
    "check": str, "samples": int, "seed": int, "n": int, "segments": int,
    "freq_points": int, "family": str, "c": float, "alpha": float, "beta": float,
    "p_values": _int_list, "c1": float, "replicates": int, "t": float,
    "directions": int, "s": int, "theta": str, "theta_seed": int,
}
KNOWN_KEYS = frozenset((
    "experiment", "N", "p", "replicates", "master_seed", "output_dir",
    "sweep.s_values", "sweep.n_values", "link.kind", "link.alpha", "link.eps",
    "lambda.mode", "lambda.c2", "lambda.value",
    "theta.magnitude_low", "theta.magnitude_high", "sim.burn_in",
    "fit.tol", "fit.max_iters", "fit.accelerate", "run.point_timeout_seconds",
)) | {f"diagnose.{key}" for key in DIAGNOSE_KEYS}

# Penalty constant used by the harness when the config does not set
# lambda.c2. The nominal constant 100 of the reference protocol presumes an
# unnormalized (summed) likelihood; against the normalized loss this solver
# minimizes it exceeds the gradient scale a hundredfold and shrinks every
# fit to zero, so the harness default is recalibrated to track the gradient
# noise scale instead. Fully recorded in every run CSV.
DEFAULT_SIMULATION_C2 = 0.25


class ConfigError(ValueError):
    """Invalid or missing configuration entry; the message names the key."""


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into a flat string dict."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def _get(mapping, key, default, conv):
    if key not in mapping:
        if default is None:
            raise ConfigError(f"missing required key '{key}'")
        return default
    try:
        return conv(mapping[key])
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"key '{key}': cannot parse {mapping[key]!r} ({exc})") from exc


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated settings of one experiment run."""

    experiment: str
    n_dims: int
    n_lags: int
    s_values: tuple
    n_values: tuple
    replicates: int = 20
    link: LinkSpec = field(default_factory=sigmoid_link)
    lambda_mode: str = "simulation"
    lambda_c2: float | None = None
    lambda_value: float | None = None
    magnitude_low: float = 0.3
    magnitude_high: float = 1.0
    burn_in: int = 1000
    fit_tol: float = 1e-6
    fit_max_iters: int = 5000
    fit_accelerate: bool = True
    point_timeout: float = 0.0
    master_seed: int = 0
    output_dir: str = "out"
    # diagnose.<key> values under <key>, converted as DIAGNOSE_KEYS says
    diagnose: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"key 'experiment': {self.experiment!r} not one of {EXPERIMENTS}"
            )
        if self.n_dims < 1:
            raise ConfigError("key 'N': must be a positive integer")
        if self.n_lags < 1:
            raise ConfigError("key 'p': must be a positive integer")
        if self.replicates < 1:
            raise ConfigError("key 'replicates': must be >= 1")
        if self.experiment != "diagnose":
            if not self.n_values:
                raise ConfigError("key 'sweep.n_values': must be non-empty")
            if not self.s_values:
                raise ConfigError("key 'sweep.s_values': must be non-empty")
            if any(n < 1 for n in self.n_values):
                raise ConfigError("key 'sweep.n_values': every n must be >= 1")
            cap = self.n_dims * self.n_dims * self.n_lags
            if any(not 0 <= s <= cap for s in self.s_values):
                raise ConfigError(f"key 'sweep.s_values': every s must lie in [0, {cap}]")
        if self.lambda_mode not in ("simulation", "theorem", "fixed"):
            raise ConfigError("key 'lambda.mode': must be simulation, theorem or fixed")
        if self.lambda_mode == "fixed" and self.lambda_value is None:
            raise ConfigError("key 'lambda.value': required when lambda.mode = fixed")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        link = sigmoid_link(
            alpha=_get(mapping, "link.alpha", 1.0, float),
            eps=_get(mapping, "link.eps", 0.05, float),
        )
        kind = _get(mapping, "link.kind", "sigmoid", str)
        if kind != "sigmoid":
            raise ConfigError(f"key 'link.kind': unsupported link {kind!r}")
        for key in mapping:
            if key not in KNOWN_KEYS:
                raise ConfigError(f"unknown key '{key}'")
        diagnose = {
            key: _get(mapping, f"diagnose.{key}", None, conv)
            for key, conv in DIAGNOSE_KEYS.items()
            if f"diagnose.{key}" in mapping
        }
        return cls(
            experiment=_get(mapping, "experiment", None, str),
            n_dims=_get(mapping, "N", None, int),
            n_lags=_get(mapping, "p", None, int),
            s_values=_get(mapping, "sweep.s_values", (), _int_list),
            n_values=_get(mapping, "sweep.n_values", (), _int_list),
            replicates=_get(mapping, "replicates", 20, int),
            link=link,
            lambda_mode=_get(mapping, "lambda.mode", "simulation", str),
            lambda_c2=_get(mapping, "lambda.c2", -1.0, float) if "lambda.c2" in mapping else None,
            lambda_value=_get(mapping, "lambda.value", -1.0, float) if "lambda.value" in mapping else None,
            magnitude_low=_get(mapping, "theta.magnitude_low", 0.3, float),
            magnitude_high=_get(mapping, "theta.magnitude_high", 1.0, float),
            burn_in=_get(mapping, "sim.burn_in", 1000, int),
            fit_tol=_get(mapping, "fit.tol", 1e-6, float),
            fit_max_iters=_get(mapping, "fit.max_iters", 5000, int),
            fit_accelerate=_get(mapping, "fit.accelerate", True, _bool),
            point_timeout=_get(mapping, "run.point_timeout_seconds", 0.0, float),
            master_seed=_get(mapping, "master_seed", 0, int),
            output_dir=_get(mapping, "output_dir", "out", str),
            diagnose=diagnose,
        )

    def effective_c2(self) -> float | None:
        if self.lambda_c2 is not None:
            return self.lambda_c2
        if self.lambda_mode == "simulation":
            return DEFAULT_SIMULATION_C2
        return None  # theorem mode keeps the policy default


def load_config(path) -> ExperimentConfig:
    """Read and validate a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_mapping(parse_config_text(fh.read()))
