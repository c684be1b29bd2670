"""Interaction-tensor data type, norms, sparse approximation and stacking.

The coupling weights of an N-dimensional process with p feedback lags form a
dense N x N x p tensor. Entry (i, j, l) is the weight with which series j,
observed l steps in the past, drives series i. This module holds that data
type together with the norms, the best-s-term approximation report, the
mixing norm that controls how fast the process forgets its past, and the
reshape between tensors and their N x (N p) stacked-matrix form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .link import LinkSpec

__all__ = [
    "ParamTensor",
    "SparsityReport",
    "tensor_norm",
    "sparse_approx",
    "mixing_norm",
    "concentration_constant",
    "stack_tensor",
    "unstack_tensor",
    "read_tensor",
    "write_tensor",
]


@dataclass(frozen=True)
class ParamTensor:
    """Dense real interaction tensor of shape (n_rows, n_cols, n_lags).

    The array is coerced to C-contiguous float64 and held as a read-only view:
    C-contiguous float64 input is shared with the caller, not copied, and the
    caller's array stays writable. All entries must be finite.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.float64).view()
        if arr.ndim != 3:
            raise ValueError(f"tensor must be 3-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("tensor must have positive dimensions")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def n_lags(self) -> int:
        return self.values.shape[2]

    @property
    def n_entries(self) -> int:
        return self.values.size

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int, n_lags: int) -> "ParamTensor":
        return cls(np.zeros((n_rows, n_cols, n_lags)))


@dataclass(frozen=True)
class SparsityReport:
    """Best-s-term approximation of a tensor.

    ``support`` holds the retained index triples, ``l1_residual`` the l1 mass
    left outside the support, ``tau_sq`` the squared residual divided by s
    (defined as 0 at s = 0), and ``tau_tilde_sq = tau_sq + l1_residual``.
    """

    s: int
    support: frozenset = field(repr=False)
    l1_residual: float
    tau_sq: float
    tau_tilde_sq: float


def tensor_norm(t: ParamTensor, kind: str) -> float:
    """Tensor norm obtained by collapsing dimensions from right to left.

    kind "111": sum of absolute entries. kind "inf": largest absolute entry.
    kind "frob": Euclidean norm of all entries. kind "211": the l2 norm over
    the first index of the per-slice absolute sums,
    sqrt(sum_i (sum_{j,l} |t_ijl|)^2).
    """
    v = t.values
    if kind == "111":
        return float(np.abs(v).sum())
    if kind == "inf":
        return float(np.abs(v).max())
    if kind == "frob":
        return float(np.sqrt((v * v).sum()))
    if kind == "211":
        row_l1 = np.abs(v).sum(axis=(1, 2))
        return float(np.sqrt((row_l1 * row_l1).sum()))
    raise ValueError(f"unknown norm kind: {kind!r}")


def sparse_approx(t: ParamTensor, s: int) -> SparsityReport:
    """Best approximation of ``t`` by a tensor supported on s entries.

    Keeps the s largest-magnitude entries; ties are broken by lexicographic
    (i, j, l) order so reports are deterministic across runs. The greedy
    choice attains the minimal l1 residual over all supports of size s.
    """
    if s < 0:
        raise ValueError(f"support budget must be non-negative, got {s}")
    if s > t.n_entries:
        raise ValueError(f"support budget {s} exceeds tensor size {t.n_entries}")
    flat = np.abs(t.values).ravel()  # C order = lexicographic (i, j, l)
    order = np.argsort(-flat, kind="stable")
    kept = order[:s]
    residual = float(flat[order[s:]].sum())
    support = frozenset(
        tuple(int(c) for c in np.unravel_index(k, t.values.shape)) for k in kept
    )
    tau_sq = 0.0 if s == 0 else residual**2 / s
    return SparsityReport(
        s=int(s),
        support=support,
        l1_residual=residual,
        tau_sq=tau_sq,
        tau_tilde_sq=tau_sq + residual,
    )


def mixing_norm(t: ParamTensor, link: LinkSpec) -> float:
    """Norm of the interaction tensor that controls how fast the process mixes.

    Values below 1 guarantee that the p-step block chain contracts. Computed
    as sqrt((3 L^2 / (2 eps)) * sum_{l,i} (sum_j sum_{k>=l} |t_ijk|)^2) with
    L the link's Lipschitz constant and eps its clamp level.
    """
    return math.sqrt(3.0 * link.lipschitz**2 / (2.0 * link.eps)) * _inner_decay_norm(
        t.values
    )


def _inner_decay_norm(values: np.ndarray) -> float:
    """sqrt(sum_{l,i} (sum_j sum_{k>=l} |values[i,j,k]|)^2), no link prefactor."""
    col_l1 = np.abs(values).sum(axis=1)  # (i, k)
    suffix = np.cumsum(col_l1[:, ::-1], axis=1)[:, ::-1]  # (i, l): sums over k >= l
    return float(np.sqrt((suffix * suffix).sum()))


def concentration_constant(t: ParamTensor, link: LinkSpec) -> float:
    """Constant governing tail bounds of the empirical quadratic form.

    Returns 8 c^2 [1 + p^2 / (1/m - 1)^2] where c is the link curvature and
    m the mixing norm of ``t``. When m >= 1 the mixing argument breaks down
    and the tagged value ``inf`` is returned (a loggable value, not an error)
    so sweeps can record divergence.
    """
    m = mixing_norm(t, link)
    if m >= 1.0:
        return math.inf
    if m == 0.0:
        return 8.0 * link.curvature**2
    return 8.0 * link.curvature**2 * (1.0 + t.n_lags**2 / (1.0 / m - 1.0) ** 2)


def stack_tensor(t: ParamTensor) -> np.ndarray:
    """Reshape to the N x (N p) matrix [T_..1  T_..2  ...  T_..p].

    Column (l-1)*N + j holds entry (i, j, l). The map is a bijection and an
    isometry for the Frobenius norm; invert with :func:`unstack_tensor`.
    """
    v = t.values
    n, m, p = v.shape
    return np.ascontiguousarray(v.transpose(0, 2, 1).reshape(n, p * m))


def unstack_tensor(mat: np.ndarray, n_lags: int) -> ParamTensor:
    """Inverse of :func:`stack_tensor` for a matrix with n_lags lag blocks."""
    mat = np.asarray(mat, dtype=np.float64)
    n, cols = mat.shape
    if cols % n_lags != 0:
        raise ValueError(f"column count {cols} not divisible by n_lags {n_lags}")
    m = cols // n_lags
    return ParamTensor(mat.reshape(n, n_lags, m).transpose(0, 2, 1))


def write_tensor(t: ParamTensor, path) -> None:
    """Write as text: header line "n_rows n_cols n_lags", then all entries in
    (i-major, j, l-minor) order, whitespace separated."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{t.n_rows} {t.n_cols} {t.n_lags}\n")
        flat = t.values.ravel()
        for start in range(0, flat.size, 8):
            chunk = flat[start : start + 8]
            fh.write(" ".join(format(x, ".17g") for x in chunk) + "\n")


def read_tensor(path) -> ParamTensor:
    """Read a tensor written by :func:`write_tensor`."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"malformed tensor header: {header}")
        n, m, p = (int(x) for x in header)
        data = np.array(fh.read().split(), dtype=np.float64)
    if data.size != n * m * p:
        raise ValueError(f"expected {n * m * p} entries, found {data.size}")
    return ParamTensor(data.reshape(n, m, p))
