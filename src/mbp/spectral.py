"""Power-spectral-density estimation and lag-decay scaling reports.

The estimation theory assumes the process's spectral density matrix has its
minimum eigenvalue bounded away from zero over all frequencies. This module
estimates that bound with a Bartlett-averaged periodogram (disjoint
segments, no taper) and tabulates how the mixing norm and concentration
constant scale with the number of lags for standard magnitude-decay families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .link import LinkSpec
from .simulate import SamplePath
from .tensor import (
    ParamTensor,
    _inner_decay_norm,
    concentration_constant,
    mixing_norm,
)

__all__ = [
    "SpectralReport",
    "psd_estimate",
    "DECAY_FAMILIES",
    "DecayRow",
    "decay_scaling_report",
]


@dataclass(frozen=True)
class SpectralReport:
    """Minimum spectral eigenvalue over a frequency grid."""

    freq_grid: np.ndarray = field(repr=False)
    min_eigs: np.ndarray = field(repr=False)
    spectral_floor: float


def psd_estimate(path: SamplePath, n_segments: int, freq_points: int = 256) -> SpectralReport:
    """Bartlett estimate of the spectral density and its eigenvalue floor.

    The mean-centered path is cut into ``n_segments`` disjoint segments whose
    periodogram matrices (outer products of the segment Fourier transforms,
    no taper) are averaged over segments and over the Fourier bins nearest to
    each of ``freq_points`` equispaced grid frequencies on [-pi, pi). The
    band pooling keeps the estimate Hermitian positive semidefinite and
    leaves about 2 n / freq_points degrees of freedom per grid point, so the
    grid minimum is not dragged down by single-bin noise. Returns the
    per-frequency minimum eigenvalue and the grid minimum.
    """
    if n_segments < 1 or freq_points < 1:
        raise ValueError("n_segments and freq_points must be positive")
    if path.n < 4 * n_segments:
        raise ValueError(f"path too short: n={path.n} but need at least {4 * n_segments}")
    x = path.data.astype(np.float64)
    x = x - x.mean(axis=0)
    seg_len = x.shape[0] // n_segments
    x = x[: n_segments * seg_len]
    segments = x.reshape(n_segments, seg_len, path.n_dims)
    d = np.fft.fft(segments, axis=1)  # (S, L, N) at bins 2 pi k / L
    # per-bin average over segments of (1/L) d d^H
    per_bin = np.einsum("skn,skm->knm", d, d.conj()) / (n_segments * seg_len)
    # wrap bins to [-pi, pi) and pool them onto the nearest grid point
    bin_freqs = 2.0 * math.pi * np.arange(seg_len) / seg_len
    bin_freqs = np.where(bin_freqs >= math.pi, bin_freqs - 2.0 * math.pi, bin_freqs)
    band = np.rint((bin_freqs + math.pi) * freq_points / (2.0 * math.pi)).astype(int)
    band %= freq_points
    spectra = np.zeros((freq_points, path.n_dims, path.n_dims), dtype=complex)
    counts = np.bincount(band, minlength=freq_points).astype(float)
    np.add.at(spectra, band, per_bin)
    filled = np.flatnonzero(counts)  # grid points that received a bin
    min_eigs = np.linalg.eigvalsh(spectra[filled] / counts[filled][:, None, None]).min(axis=1)
    freqs = -math.pi + 2.0 * math.pi * filled / freq_points
    return SpectralReport(freq_grid=freqs, min_eigs=min_eigs, spectral_floor=float(min_eigs.min()))


# ---------------------------------------------------------------------------
# lag-decay scaling of the mixing norm
# ---------------------------------------------------------------------------


# family name -> |theta_ijk| at the lags k = 1..p (a float array) given the
# family's parameters; a parameter's default is its diagnose.* default
DECAY_FAMILIES = {
    "constant": lambda lags, c=0.1: np.full(len(lags), c),
    "polynomial": lambda lags, c=0.1, alpha=2.0: c * lags ** (-alpha),
    "exponential": lambda lags, c=0.1, beta=1.0: c * np.exp(-beta * lags),
}


@dataclass(frozen=True)
class DecayRow:
    """One table row of the lag-scaling report."""

    p: int
    inner_norm: float
    mixing_norm: float
    concentration: float
    diverged: bool


def decay_scaling_report(family: str, n_dims: int, p_values, link: LinkSpec, **params):
    """Mixing-norm scaling across lag counts for a magnitude-decay family.

    ``family`` names an entry of ``DECAY_FAMILIES`` and ``params`` are its
    parameters. For each p a tensor with |entries| given exactly by the
    family is built; the row reports the raw inner norm (no link prefactor),
    the mixing norm, and the concentration constant (inf marked diverged
    when the mixing norm reaches 1). ``p_values`` must be sorted ascending.
    """
    if family not in DECAY_FAMILIES:
        known = ", ".join(DECAY_FAMILIES)
        raise ValueError(f"unknown decay family {family!r}; known families: {known}")
    p_values = list(p_values)
    if p_values != sorted(p_values):
        raise ValueError("p_values must be sorted ascending")
    rows = []
    for p in p_values:
        mags = DECAY_FAMILIES[family](np.arange(1, p + 1, dtype=np.float64), **params)
        t = ParamTensor(np.broadcast_to(mags, (n_dims, n_dims, p)))
        g = concentration_constant(t, link)
        inner, m = _inner_decay_norm(t.values), mixing_norm(t, link)
        rows.append(DecayRow(int(p), inner, m, concentration=g, diverged=math.isinf(g)))
    return rows
