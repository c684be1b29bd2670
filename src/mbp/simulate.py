"""Sample-path generation for the binary autoregressive process.

Each of the N coordinates at time t is an independent Bernoulli draw whose
probability is the clamped link applied to the inner product between that
coordinate's interaction slice and the p-lag history. The simulator draws an
i.i.d. Ber(1/2) initial window, advances through a discarded burn-in, then
records n + p consecutive states (the last p burn-in states become the
recorded history). One RNG stream per replicate, consumed in (t, i) order,
fixes determinism: :func:`simulate_batch` advances many replicates in one
batched chain, each from its own seed's draws, so replicate r's path is the
path :func:`simulate` draws from that seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .link import LinkSpec
from .tensor import ParamTensor, stack_tensor

__all__ = [
    "SamplePath",
    "simulate",
    "simulate_batch",
    "design_matrix",
    "random_sparse_theta",
    "read_path",
    "write_path",
]

DEFAULT_BURN_IN = 1000
# uniforms held at once by simulate_batch; more replicates run in several chunks.
# The kernel's states and the paths (one copy of the recorded rows) take one
# byte per draw each, and the kernel's block arrays a few MiB: a full chunk
# peaks at about 1.2 x this (38.5 MiB under tracemalloc at N = 10, 3001 steps,
# 139 replicates; two chunks peak at 41.1 MiB).
MAX_BATCH_BYTES = 1 << 25
# magnitude range of the nonzeros of random_sparse_theta (theta.magnitude_low/high)
MAGNITUDE_LOW, MAGNITUDE_HIGH = 0.3, 1.0


@dataclass(frozen=True)
class SamplePath:
    """Binary observations of shape (n + p, N); the first p rows are history.

    ``seed`` records the RNG seed the path was drawn with (or -1 for paths
    assembled from external data).
    """

    data: np.ndarray
    n_lags: int
    seed: int = -1

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 2:
            raise ValueError(f"path data must be 2-dimensional, got {arr.shape}")
        # tested before the cast, which would read 0.5 and 256 as 0; on uint8
        # input the max is the whole test and allocates nothing
        uint8 = arr.dtype == np.uint8
        if arr.size and not (arr.max() <= 1 if uint8 else np.array_equal(arr, arr != 0)):
            raise ValueError("path entries must be 0/1")
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        if self.n_lags < 1:
            raise ValueError("n_lags must be positive")
        if arr.shape[0] <= self.n_lags:
            raise ValueError(
                f"path needs more than n_lags={self.n_lags} rows, got {arr.shape[0]}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        """Number of regression samples (rows after the initial history)."""
        return self.data.shape[0] - self.n_lags

    @property
    def n_dims(self) -> int:
        return self.data.shape[1]

    def history(self) -> np.ndarray:
        return self.data[: self.n_lags]

    def samples(self) -> np.ndarray:
        return self.data[self.n_lags :]


def simulate(
    theta: ParamTensor,
    link: LinkSpec,
    n: int,
    burn_in: int = DEFAULT_BURN_IN,
    seed: int = 0,
) -> SamplePath:
    """Draw a sample path of length n (plus p recorded history rows).

    The initial window is i.i.d. Ber(1/2); ``burn_in`` steps are then taken
    and discarded before recording, so with mixing dynamics the recorded
    block is close to stationarity. Deterministic given ``seed``: the path
    is the one-replicate case of :func:`simulate_batch`.
    """
    return simulate_batch(theta, link, n, [seed], burn_in=burn_in)[0]


def simulate_batch(
    theta: ParamTensor,
    link: LinkSpec,
    n: int,
    seeds,
    burn_in: int = DEFAULT_BURN_IN,
) -> list[SamplePath]:
    """One sample path per seed, all replicates advanced in one batched chain.

    Replicate r's ``default_rng(seeds[r])`` fills its (p + burn_in + n, N)
    rows of one replicate-major buffer in place, exactly as :func:`simulate`
    does for that seed: the first p rows give the initial window, the rest
    drive the chain, which reads the buffer step-major through a transposed
    view. So replicate r's path equals
    ``simulate(theta, link, n, burn_in, seeds[r])`` bit for bit (see
    ``_kernels.chain_steps``). Replicates run in chunks that hold at most
    ``MAX_BATCH_BYTES`` of uniforms (the chunk's peak memory is about 1.2
    times that; a single chain's about 1.25 times its uniforms).
    """
    if not theta.is_square:
        raise ValueError(
            f"process tensor must be square, got {theta.n_rows}x{theta.n_cols}"
        )
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    seeds = [int(seed) for seed in seeds]
    if seeds and min(seeds) < 0:
        raise ValueError(f"seeds must be non-negative integers, got {min(seeds)}")
    p, n_dims = theta.n_lags, theta.n_rows
    steps = p + burn_in + n
    stacked = stack_tensor(theta)
    chunk = max(1, MAX_BATCH_BYTES // (8 * steps * n_dims))
    paths = []
    for start in range(0, len(seeds), chunk):
        part = seeds[start : start + chunk]
        # replicate-major, so each seed's stream fills its rows in place
        buf = np.empty((len(part), steps, n_dims))
        for r, seed in enumerate(part):
            np.random.default_rng(seed).random(out=buf[r])
        uniforms = buf.swapaxes(0, 1)
        init_hist = (uniforms[:p] < 0.5).astype(np.uint8)  # rows old -> recent
        states = _kernels.chain_steps(init_hist.transpose(1, 0, 2), stacked, link, uniforms[p:])
        # the recorded rows, copied once into one contiguous path per replicate
        recorded = np.empty((len(part), n + p, n_dims), dtype=np.uint8)
        np.concatenate([init_hist[burn_in:], states[max(burn_in - p, 0) :]],
                       out=recorded.swapaxes(0, 1))
        del buf, uniforms, states  # freed before the paths are checked and the next chunk drawn
        paths += [SamplePath(data=recorded[r], n_lags=p, seed=seed) for r, seed in enumerate(part)]
    return paths


def design_matrix(path: SamplePath) -> np.ndarray:
    """Read-only float64 (n, N p) lag matrix with X[t, (l-1)N + j] = x^{t-l}_j.

    Row t holds the lagged regressors [(x^{t-1})' (x^{t-2})' ... (x^{t-p})'].
    """
    p, n, n_dims = path.n_lags, path.n, path.n_dims
    data = path.data
    cols = np.empty((n, n_dims * p), dtype=np.float64)
    for lag in range(1, p + 1):
        cols[:, (lag - 1) * n_dims : lag * n_dims] = data[p - lag : p - lag + n]
    cols.setflags(write=False)
    return cols


def random_sparse_theta(
    n_dims: int,
    n_lags: int,
    s: int,
    magnitude_low: float = MAGNITUDE_LOW,
    magnitude_high: float = MAGNITUDE_HIGH,
    seed: int = 0,
) -> ParamTensor:
    """Square tensor with exactly s nonzeros at uniform random positions.

    Magnitudes are uniform on [magnitude_low, magnitude_high] with random
    sign. Deterministic given ``seed``.
    """
    total = n_dims * n_dims * n_lags
    if not 0 <= s <= total:
        raise ValueError(f"s={s} outside [0, {total}]")
    if not 0 < magnitude_low <= magnitude_high:
        raise ValueError("need 0 < magnitude_low <= magnitude_high")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(int(seed))
    flat = np.zeros(total)
    idx = rng.choice(total, size=s, replace=False)
    mags = rng.uniform(magnitude_low, magnitude_high, size=s)
    signs = rng.integers(0, 2, size=s) * 2 - 1
    flat[idx] = mags * signs
    return ParamTensor(flat.reshape(n_dims, n_dims, n_lags))


def write_path(path: SamplePath, fname) -> None:
    """Write as text: header "n N p seed", then n + p rows of N bits."""
    with open(fname, "w", encoding="ascii") as fh:
        fh.write(f"{path.n} {path.n_dims} {path.n_lags} {path.seed}\n")
        for row in path.data:
            fh.write(" ".join(str(int(b)) for b in row) + "\n")


def read_path(fname) -> SamplePath:
    """Read a path written by :func:`write_path`."""
    with open(fname, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ValueError(f"malformed path header: {header}")
        n, n_dims, p, seed = (int(x) for x in header)
        try:
            rows = np.array(fh.read().split(), dtype=np.uint8)
        except OverflowError as exc:  # a bit below 0 or above 255
            raise ValueError(f"path entries must be 0/1 ({exc})") from exc
    if rows.size != (n + p) * n_dims:
        raise ValueError(f"expected {(n + p) * n_dims} bits, found {rows.size}")
    return SamplePath(data=rows.reshape(n + p, n_dims), n_lags=p, seed=seed)
