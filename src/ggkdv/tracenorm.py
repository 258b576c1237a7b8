"""Discrete fractional Sobolev norms for boundary trace time series.

Boundary data classes on (0, T) are H^{1/3} (Dirichlet), L^2 (Neumann) and
H^{-1/3} (second derivative).  A sampled series is extended to (0, 2T) by
even reflection (which preserves its mean and avoids spurious jump energy at
t = 0, T), and the norm is computed from DFT coefficients,

    ||f||_{H^s}^2 = dt/(4M) * sum_k (1 + w_k^2)^s |F_k|^2,

with w_k the angular frequencies of the reflected grid.  At s = 0 this is
exactly the composite trapezoid rule for the L^2(0, T) norm.

The polarized inner product and the Riesz map

    <riesz_map(f, s), g>_L2(0,T)  =  <f, g>_{H^s}

are exact identities of the discretization (the reflected multiplier is a
symmetric circulant preserving even symmetry), which is what keeps duality
pairings built from these maps symmetric at the matrix level.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstraintViolation

__all__ = [
    "sobolev_trace_norm",
    "sobolev_inner",
    "riesz_map",
    "sobolev_norms_batch",
]

_VALID_S = (-1.0 / 3.0, 0.0, 1.0 / 3.0)
# the fewest time samples a trace series may have
MIN_SAMPLES = 4


def _check(series: np.ndarray, T: float) -> np.ndarray:
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ValueError("series must be 1-d")
    if len(series) < MIN_SAMPLES:
        raise ConstraintViolation(f"series too short (< {MIN_SAMPLES} samples)")
    if not np.all(np.isfinite(series)):
        raise ValueError("series contains NaN or Inf")
    if not (T > 0 and np.isfinite(T)):
        raise ValueError("T must be positive and finite")
    return series


def _weights(M: int, dt: float, s: float) -> np.ndarray:
    om = 2.0 * np.pi * np.fft.fftfreq(2 * M, d=dt)
    return (1.0 + om**2) ** s


def _reflect(series: np.ndarray) -> np.ndarray:
    return np.concatenate([series, series[-2:0:-1]])


def sobolev_inner(f, g, s: float, T: float) -> float:
    """Polarized H^s(0,T) inner product of two sampled series."""
    f = _check(f, T)
    g = _check(g, T)
    if len(f) != len(g):
        raise ValueError("series length mismatch")
    if s not in _VALID_S:
        raise ValueError("s must be one of -1/3, 0, 1/3")
    M = len(f) - 1
    dt = T / M
    F = np.fft.fft(_reflect(f))
    G = np.fft.fft(_reflect(g))
    w = _weights(M, dt, s)
    return float(np.real(np.sum(w * F * np.conj(G))) * dt / (4 * M))


def sobolev_trace_norm(series, s: float, T: float) -> float:
    """H^s(0,T) norm of a sampled series, s in {-1/3, 0, 1/3}."""
    return float(np.sqrt(max(sobolev_inner(series, series, s, T), 0.0)))


def riesz_map(series, s: float, T: float) -> np.ndarray:
    """Apply the H^s Riesz multiplier (1 + w^2)^s in reflected frequency."""
    series = _check(series, T)
    if s not in _VALID_S:
        raise ValueError("s must be one of -1/3, 0, 1/3")
    M = len(series) - 1
    dt = T / M
    if s == 0.0:
        return series.copy()
    F = np.fft.fft(_reflect(series)) * _weights(M, dt, s)
    return np.fft.ifft(F).real[: M + 1]


def sobolev_norms_batch(block: np.ndarray, s: float, T: float) -> np.ndarray:
    """H^s norms of many series at once; ``block`` has series in columns."""
    block = np.asarray(block, dtype=float)
    if block.shape[0] < MIN_SAMPLES:
        raise ConstraintViolation(f"series too short (< {MIN_SAMPLES} samples)")
    M = block.shape[0] - 1
    dt = T / M
    ext = np.concatenate([block, block[-2:0:-1, :]], axis=0)
    F = np.fft.rfft(ext, axis=0)
    om = 2.0 * np.pi * np.fft.rfftfreq(2 * M, d=dt)
    w = (1.0 + om**2) ** s
    # full-spectrum sum from the half spectrum of a real signal
    mult = np.full(M + 1, 2.0)
    mult[0] = 1.0
    mult[M] = 1.0
    sq = (w * mult) @ np.abs(F) ** 2 * dt / (4 * M)
    return np.sqrt(np.maximum(sq, 0.0))
