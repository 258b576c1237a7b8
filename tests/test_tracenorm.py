import warnings

import numpy as np
import pytest

from ggkdv import tracenorm
from ggkdv.tracenorm import riesz_columns, sobolev_norms_batch, sobolev_trace_norm


def riesz_map(series, s, T):
    """The Riesz map of one series, on a copy, through the block kernel."""
    out = np.array(series, dtype=float)
    riesz_columns(out, s, T)
    return out


def sobolev_inner(f, g, s, T):
    """Independent oracle: the polarized H^s(0,T) inner product, summed over
    the full DFT of the two reflected series, dt/(4M) sum (1+w^2)^s F conj(G)."""
    M = len(f) - 1
    F = np.fft.fft(np.concatenate([f, f[-2:0:-1]]))
    G = np.fft.fft(np.concatenate([g, g[-2:0:-1]]))
    om = 2 * np.pi * np.fft.fftfreq(2 * M, d=T / M)
    return float(np.sum((1 + om**2) ** s * (F * np.conj(G)).real) * (T / M) / (4 * M))


def direct_dft_norm(series, s, T):
    """Independent oracle: reflected extension + explicit DFT double sum."""
    M = len(series) - 1
    dt = T / M
    ext = np.concatenate([series, series[-2:0:-1]])
    n = len(ext)
    total = 0.0
    for k in range(n):
        Fk = 0.0 + 0.0j
        for j in range(n):
            Fk += ext[j] * np.exp(-2j * np.pi * k * j / n)
        om = 2 * np.pi * (k if k <= n // 2 else k - n) / (n * dt)
        total += (1 + om**2) ** s * abs(Fk) ** 2
    return np.sqrt(total * dt / (2 * n))


def test_zero_series():
    z = np.zeros(17)
    for s in (-1 / 3, 0.0, 1 / 3):
        assert sobolev_trace_norm(z, s, 2.0) == 0.0


def test_constant_l2_norm():
    # series of ones over T = 2: L^2 norm sqrt(2)
    ones = np.ones(33)
    assert sobolev_trace_norm(ones, 0.0, 2.0) == pytest.approx(np.sqrt(2.0), rel=1e-13)


def test_l2_matches_trapezoid():
    rng = np.random.default_rng(0)
    f = rng.standard_normal(65)
    T = 1.7
    dt = T / 64
    w = np.full(65, dt)
    w[0] = w[-1] = dt / 2
    assert sobolev_trace_norm(f, 0.0, T) == pytest.approx(
        np.sqrt(np.sum(w * f**2)), rel=1e-13
    )


@pytest.mark.parametrize("s", [-1 / 3, 1 / 3])
def test_fractional_norm_against_direct_sum(s):
    T = 1.0
    t = np.linspace(0, T, 33)
    f = np.sin(2 * np.pi * t / T)
    assert sobolev_trace_norm(f, s, T) == pytest.approx(
        direct_dft_norm(f, s, T), rel=1e-10
    )


def test_fractional_norm_random_against_direct_sum():
    rng = np.random.default_rng(3)
    f = rng.standard_normal(17)
    T = 0.8
    for s in (-1 / 3, 0.0, 1 / 3):
        assert sobolev_trace_norm(f, s, T) == pytest.approx(
            direct_dft_norm(f, s, T), rel=1e-10
        )


def test_norm_ordering():
    # smoothing weight: H^{-1/3} <= L^2 <= H^{1/3}
    rng = np.random.default_rng(5)
    f = rng.standard_normal(65)
    T = 1.0
    n_minus = sobolev_trace_norm(f, -1 / 3, T)
    n_zero = sobolev_trace_norm(f, 0.0, T)
    n_plus = sobolev_trace_norm(f, 1 / 3, T)
    assert n_minus <= n_zero <= n_plus


def test_riesz_pairing_identity():
    # <riesz_map(f, s), g>_trapezoid == <f, g>_{H^s}, an exact identity
    rng = np.random.default_rng(11)
    T = 1.3
    M = 48
    f = rng.standard_normal(M + 1)
    g = rng.standard_normal(M + 1)
    dt = T / M
    w = np.full(M + 1, dt)
    w[0] = w[-1] = dt / 2
    for s in (-1 / 3, 0.0, 1 / 3):
        lhs = float(np.sum(w * riesz_map(f, s, T) * g))
        rhs = sobolev_inner(f, g, s, T)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_riesz_inverts():
    rng = np.random.default_rng(2)
    f = rng.standard_normal(33)
    T = 2.0
    back = riesz_map(riesz_map(f, 1 / 3, T), -1 / 3, T)
    np.testing.assert_allclose(back, f, atol=1e-12)


def test_polarization_consistency():
    rng = np.random.default_rng(4)
    f = rng.standard_normal(25)
    T = 1.0
    for s in (-1 / 3, 0.0, 1 / 3):
        assert sobolev_inner(f, f, s, T) == pytest.approx(
            sobolev_trace_norm(f, s, T) ** 2, rel=1e-12
        )


def test_batch_matches_single():
    rng = np.random.default_rng(9)
    block = rng.standard_normal((33, 7))
    T = 1.0
    for s in (-1 / 3, 0.0, 1 / 3):
        batch = sobolev_norms_batch(block, s, T)
        for j in range(block.shape[1]):
            assert batch[j] == pytest.approx(
                sobolev_trace_norm(block[:, j], s, T), rel=1e-12
            )


def test_single_series_are_batch_columns():
    # one kernel: a single series' norm is the one-column batch, and its
    # Riesz map is its column of a block map, bit for bit, in either chunk
    rng = np.random.default_rng(13)
    block = rng.standard_normal((49, 40))
    T = 1.1
    for s in (-1 / 3, 0.0, 1 / 3):
        mapped = block.copy()
        riesz_columns(mapped, s, T)
        for j in (3, 35):
            f = block[:, j]
            assert sobolev_trace_norm(f, s, T) == sobolev_norms_batch(f[:, None], s, T)[0]
            assert np.array_equal(riesz_map(f, s, T), mapped[:, j])


@pytest.mark.parametrize("M", [3, 16, 63, 128, 255])
def test_riesz_columns_of_a_block_are_the_columns_mapped_alone(M):
    # the FFT kernel treats each column alone, in either 32-column chunk;
    # norms do not share this: their spectral sum is a gemv for a block
    rng = np.random.default_rng(M)
    block = rng.standard_normal((M + 1, 40))
    for s in (-1 / 3, 1 / 3):
        mapped = block.copy()
        riesz_columns(mapped, s, 0.7)
        for j in range(block.shape[1]):
            assert riesz_map(block[:, j], s, 0.7).tobytes() == mapped[:, j].tobytes()


def test_short_series_rejected():
    with pytest.raises(ValueError, match="short"):
        sobolev_trace_norm(np.ones(3), 0.0, 1.0)


def test_bad_exponent_rejected():
    with pytest.raises(ValueError):
        sobolev_trace_norm(np.ones(9), 0.5, 1.0)


def test_weights_past_the_double_range_do_not_overflow():
    # at T = 1e-300 the angular frequencies reach about 1e302, whose squares
    # overflow; above 2^64 the weight is w^(2s), which 1 + w^2 rounds to anyway
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sobolev_norms_batch(np.zeros((33, 2)), 1 / 3, 1e-300).tolist() == [0.0, 0.0]
        for s in (-1 / 3, 0.0, 1 / 3):
            for T in (1.0, 1e-15, 1e-300):
                w = tracenorm._spectrum(np.zeros((65, 1)), s, T)[1]
                om = 2.0 * np.pi * np.fft.rfftfreq(128, d=T / 64)
                big = om > 2.0**64
                assert np.all(np.isfinite(w)) and big.any() == (T == 1e-300)
                # every weight in range keeps its bits
                assert w[~big].tobytes() == ((1.0 + om[~big] ** 2) ** s).tobytes()
                assert w[big].tobytes() == (om[big] ** (2 * s)).tobytes()
