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

from dataclasses import MISSING, dataclass, field, fields

from .estimator import FitConfig
from .link import LinkSpec
from .simulate import DEFAULT_BURN_IN, MAGNITUDE_HIGH, MAGNITUDE_LOW

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_text", "load_config"]

EXPERIMENTS = ("error_vs_n", "error_vs_sparsity", "grid", "support_recovery", "diagnose")


def _int_list(text: str):
    return tuple(int(x) for x in text.split(",") if x.strip())


# Every config key: key -> (ExperimentConfig field, parser). A key whose field
# is named by the key's prefix ("link.alpha", "diagnose.n") sets the entry
# after the dot: a LinkSpec field, or the dict the diagnose checks read. A key
# left out keeps its field's default; a field without a default is required.
KEYS = {
    "experiment": ("experiment", str),
    "N": ("n_dims", int),
    "p": ("n_lags", int),
    "sweep.s_values": ("s_values", _int_list),
    "sweep.n_values": ("n_values", _int_list),
    "replicates": ("replicates", int),
    "link.alpha": ("link", float),
    "link.eps": ("link", float),
    "lambda.mode": ("lambda_mode", str),
    "lambda.c2": ("lambda_c2", float),
    "lambda.value": ("lambda_value", float),
    "theta.magnitude_low": ("magnitude_low", float),
    "theta.magnitude_high": ("magnitude_high", float),
    "sim.burn_in": ("burn_in", int),
    "fit.tol": ("fit_tol", float),
    "fit.max_iters": ("fit_max_iters", int),
    "master_seed": ("master_seed", int),
    "output_dir": ("output_dir", str),
    **{f"diagnose.{part}": ("diagnose", parse) for part, parse in {
        "check": str, "samples": int, "seed": int, "n": int, "segments": int,
        "freq_points": int, "family": str, "c": float, "alpha": float, "beta": float,
        "p_values": _int_list, "c1": float, "replicates": int, "t": float,
        "directions": int, "s": int, "theta": str, "theta_seed": int,
    }.items()},
}


class ConfigError(ValueError):
    """Invalid or missing configuration entry; the message names the key."""


def field_error(name: str, problem: str) -> ConfigError:
    """ConfigError naming the config key of ExperimentConfig field ``name``."""
    key = next(key for key, (field_name, _) in KEYS.items() if field_name == name)
    return ConfigError(f"key '{key}': {problem}")


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


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated settings of one experiment run."""

    experiment: str
    n_dims: int
    n_lags: int
    s_values: tuple = ()
    n_values: tuple = ()
    replicates: int = 20
    link: LinkSpec = field(default_factory=LinkSpec)
    lambda_mode: str = "simulation"
    lambda_c2: float | None = None
    lambda_value: float | None = None
    magnitude_low: float = MAGNITUDE_LOW
    magnitude_high: float = MAGNITUDE_HIGH
    burn_in: int = DEFAULT_BURN_IN
    fit_tol: float = FitConfig.tol
    fit_max_iters: int = FitConfig.max_iters
    master_seed: int = 0
    output_dir: str = "out"
    # diagnose.<key> values under <key>, parsed as KEYS says
    diagnose: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise field_error("experiment", f"{self.experiment!r} not one of {EXPERIMENTS}")
        if self.n_dims < 1:
            raise field_error("n_dims", "must be a positive integer")
        if self.n_lags < 1:
            raise field_error("n_lags", "must be a positive integer")
        if self.replicates < 1:
            raise field_error("replicates", "must be >= 1")
        if self.experiment != "diagnose":
            if not self.n_values:
                raise field_error("n_values", "must be non-empty")
            if not self.s_values:
                raise field_error("s_values", "must be non-empty")
            if any(n < 1 for n in self.n_values):
                raise field_error("n_values", "every n must be >= 1")
            cap = self.n_dims * self.n_dims * self.n_lags
            if any(not 0 <= s <= cap for s in self.s_values):
                raise field_error("s_values", f"every s must lie in [0, {cap}]")
        if self.lambda_mode not in ("simulation", "theorem", "fixed"):
            raise field_error("lambda_mode", "must be simulation, theorem or fixed")
        if self.lambda_mode == "fixed" and self.lambda_value is None:
            raise field_error("lambda_value", "required when the lambda mode is fixed")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        values = {}
        for key, text in mapping.items():
            if key not in KEYS:
                raise ConfigError(f"unknown key '{key}'")
            name, parse = KEYS[key]
            try:
                value = parse(text)
            except ValueError as exc:
                raise ConfigError(f"key '{key}': cannot parse {text!r} ({exc})") from exc
            prefix, dot, part = key.partition(".")
            if dot and name == prefix:
                values.setdefault(name, {})[part] = value
            else:
                values[name] = value
        required = {f.name for f in fields(cls)
                    if f.default is MISSING and f.default_factory is MISSING}
        for key, (name, _) in KEYS.items():
            if name in required and name not in values:
                raise ConfigError(f"missing required key '{key}'")
        for part, value in values.get("link", {}).items():
            try:  # LinkSpec checks each field alone: this names the bad key
                LinkSpec(**{part: value})
            except ValueError as exc:
                raise ConfigError(f"key 'link.{part}': {exc}") from exc
        if "link" in values:
            values["link"] = LinkSpec(**values["link"])
        return cls(**values)


def load_config(path) -> ExperimentConfig:
    """Read and validate a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_mapping(parse_config_text(fh.read()))
