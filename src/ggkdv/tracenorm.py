"""Discrete fractional Sobolev norms for boundary trace time series.

Boundary data classes on (0, T) are H^{1/3} (Dirichlet), L^2 (Neumann) and
H^{-1/3} (second derivative).  A sampled series is extended to (0, 2T) by
even reflection (which preserves its mean and avoids spurious jump energy at
t = 0, T), and the norm is computed from DFT coefficients,

    ||f||_{H^s}^2 = dt/(4M) * sum_k (1 + w_k^2)^s |F_k|^2,

with w_k the angular frequencies of the reflected grid.  At s = 0 this is
exactly the composite trapezoid rule for the L^2(0, T) norm.  Every norm and
Riesz map here comes from one kernel, the real FFT of the reflected series
down the columns of a block: a Riesz map has the bits of its column in a
block, a norm may not (BLAS sums a block's spectra in another order).

The Riesz map ``riesz_columns`` applies the multiplier (1 + w^2)^s in
reflected frequency.  With R_s f the series f after ``riesz_columns(f, s,
T)``, the trapezoid pairing with a second series g is the polarized H^s
inner product, and at g = f it is the squared norm:

    <R_s f, g>_L2(0,T)  =  <f, g>_{H^s},      <R_s f, f>_L2(0,T) = ||f||_{H^s}^2.

Both are exact identities of the discretization (the reflected multiplier
is a symmetric circulant preserving even symmetry), which is what keeps
duality pairings built from these maps symmetric at the matrix level.
"""

from __future__ import annotations

import numpy as np

from .core import _binary_exponent
from .errors import ConstraintViolation

__all__ = [
    "sobolev_trace_norm",
    "riesz_columns",
    "sobolev_norms_batch",
]

_VALID_S = (-1.0 / 3.0, 0.0, 1.0 / 3.0)
# the fewest time samples a trace series may have
MIN_SAMPLES = 4


def _check(series: np.ndarray, s: float, T: float) -> np.ndarray:
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ValueError("series must be 1-d")
    if len(series) < MIN_SAMPLES:
        raise ConstraintViolation(f"series too short (< {MIN_SAMPLES} samples)")
    if not np.all(np.isfinite(series)):
        raise ValueError("series contains NaN or Inf")
    if not (T > 0 and np.isfinite(T)):
        raise ValueError("T must be positive and finite")
    if s not in _VALID_S:
        raise ValueError("s must be one of -1/3, 0, 1/3")
    return series


def _spectrum(block: np.ndarray, s: float, T: float):
    """The rfft down each column of the even reflection of ``block`` (M+1,
    ...), and the weights (1 + w^2)^s of its M+1 angular frequencies.
    Above w = 2^64, where 1 + w^2 rounds to w^2 and w^2 may overflow, a
    weight is w^(2s) instead."""
    M = block.shape[0] - 1
    ext = np.concatenate([block, block[-2:0:-1]])
    om = 2.0 * np.pi * np.fft.rfftfreq(2 * M, d=T / M)
    big = om > 2.0**64
    w = np.empty_like(om)
    w[~big] = (1.0 + om[~big] ** 2) ** s
    w[big] = om[big] ** (2.0 * s)
    return np.fft.rfft(ext, axis=0), w


def _spectral_sum(w: np.ndarray, power: np.ndarray, T: float) -> np.ndarray:
    """dt/(4M) times the sum of ``w * power`` over the full reflected
    spectrum, from its half spectrum (the spectrum of a real series)."""
    M = len(w) - 1
    mult = np.full(M + 1, 2.0)
    mult[0] = 1.0
    mult[M] = 1.0
    return (w * mult) @ power * (T / M) / (4 * M)


def sobolev_trace_norm(series, s: float, T: float) -> float:
    """H^s(0,T) norm of a sampled series, s in {-1/3, 0, 1/3}.  It is taken
    on the series scaled by a power of two (``core._binary_exponent``) and
    scaled back, which is exact and keeps a tiny series' squares from
    underflowing."""
    series = _check(series, s, T)
    e = _binary_exponent(series)
    norm = sobolev_norms_batch(np.ldexp(series, -e)[:, None], s, T)[0]
    return float(np.ldexp(norm, e))


def riesz_columns(block: np.ndarray, s: float, T: float) -> None:
    """The H^s Riesz map, the multiplier (1 + w^2)^s in reflected
    frequency, down each column of ``block`` (M+1, m), or of a 1-d series,
    in place; s = 0 is the identity.  Columns are transformed 32 at a time,
    so that the transforms of the reflected series never hold a copy of the
    whole block."""
    if s == 0.0:
        return
    if block.ndim == 1:
        block = block[:, None]
    M = block.shape[0] - 1
    for j in range(0, block.shape[1], 32):
        cols = block[:, j:j + 32]
        F, w = _spectrum(cols, s, T)
        cols[:] = np.fft.irfft(F * w[:, None], n=2 * M, axis=0)[: M + 1]


def sobolev_norms_batch(block: np.ndarray, s: float, T: float) -> np.ndarray:
    """H^s norms of many series at once; ``block`` has series in columns."""
    block = np.asarray(block, dtype=float)
    if block.shape[0] < MIN_SAMPLES:
        raise ConstraintViolation(f"series too short (< {MIN_SAMPLES} samples)")
    F, w = _spectrum(block, s, T)
    sq = _spectral_sum(w, np.abs(F) ** 2, T)
    return np.sqrt(np.maximum(sq, 0.0))
