"""Block marching: ``Stepper.run`` on a (2nx, k) block against per-column
marches, bit for bit."""

import numpy as np
import pytest

from ggkdv import pde
from ggkdv.core import Grid, Parameters
from ggkdv.errors import NumericalError

P = Parameters(a=0.2, b=1.0, c=1.0, r=1.0)
G = Grid(L=1.0, N=16, T=0.5, M=32)


def single_run(stp, z0, bc=None, forcing=None):
    """The single-vector march loop, kept as the oracle of the block march."""
    g, theta = stp.g, stp.theta
    out = np.empty((g.nt, 2 * stp.nx))
    z = np.asarray(z0, dtype=float).copy()
    if stp.direction == "forward":
        out[0] = z
    else:
        out[g.M] = z
    if forcing is not None:
        forc = np.asarray(forcing, dtype=float).copy()
        forc[:, stp.bc_rows] = 0.0
    for n in range(g.M):
        rhs = stp.B @ z
        if forcing is not None:
            rhs += theta * forc[n + 1] + (1.0 - theta) * forc[n]
        if bc is not None:
            rhs[stp.bc_rows] = bc[:, n + 1]
        else:
            rhs[stp.bc_rows] = 0.0
        z = stp.lu.solve(rhs)
        if not np.all(np.isfinite(z)):
            raise NumericalError("solution lost finiteness", time_level=n + 1)
        if stp.direction == "forward":
            out[n + 1] = z
        else:
            out[g.M - 1 - n] = z
    return out


@pytest.mark.parametrize("k", [1, 3, 20])
def test_adjoint_block_matches_columns(k):
    ad = pde.stepper(P, G, "adjoint", 0.5)
    block = np.random.default_rng(k).standard_normal((2 * G.nx, k))
    got = ad.run(block)
    assert got.shape == (k, G.nt, 2 * G.nx)
    for j in range(k):
        assert got[j].flags.c_contiguous
        assert np.array_equal(got[j], single_run(ad, block[:, j]))


def test_forward_block_with_bc_and_forcing_matches_single():
    fw = pde.stepper(P, G, "forward", 0.5)
    rng = np.random.default_rng(7)
    z0 = rng.standard_normal(2 * G.nx)
    bc = rng.standard_normal((6, G.nt))
    forcing = rng.standard_normal((G.nt, 2 * G.nx))
    want = single_run(fw, z0, bc=bc, forcing=forcing)
    one = fw.run(z0, bc=bc, forcing=forcing)
    assert one.shape == (G.nt, 2 * G.nx)
    assert np.array_equal(one, want)
    got = fw.run(z0[:, None], bc=bc, forcing=forcing)
    assert got.shape == (1, G.nt, 2 * G.nx)
    assert np.array_equal(got[0], want)


def overflowing_columns(*scales):
    """A finite column and columns of mesh-scale data near overflow."""
    rng = np.random.default_rng(0)
    good = rng.standard_normal(2 * G.nx)
    bad = rng.standard_normal(2 * G.nx)
    return good, [s * bad for s in scales]


def oracle_level(stp, z0, bc=None):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as single:
            single_run(stp, z0, bc=bc)
    return single.value.time_level


def test_block_reports_first_non_finite_level():
    # a column scaled to overflow after the first step: the block fails at
    # the level where that column alone fails, not at the end
    ad = pde.stepper(P, G, "adjoint", 0.5)
    rng = np.random.default_rng(0)
    good = rng.standard_normal(2 * G.nx)
    bad = 1.9e302 * rng.standard_normal(2 * G.nx)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as single:
            single_run(ad, bad)
        with pytest.raises(NumericalError, match="finiteness") as block:
            ad.run(np.stack([good, bad, good], axis=1))
    assert single.value.time_level >= 2
    assert block.value.time_level == single.value.time_level


@pytest.mark.parametrize("direction, scales", [
    ("adjoint", (1.9e302, 1e303)),
    ("forward", (1e303,)),
    ("forward", (1e303, 1e304)),
])
def test_block_reports_the_first_level_any_column_fails(direction, scales):
    # the block fails at the first level where any of its columns alone
    # fails; the march itself leaks no overflow warning
    stp = pde.stepper(P, G, direction, 0.5)
    good, bad = overflowing_columns(*scales)
    levels = [oracle_level(stp, col) for col in bad]
    assert len(set(levels)) == len(levels)  # columns fail at distinct levels
    with pytest.raises(NumericalError, match="finiteness") as block:
        stp.run(np.stack([good, *bad, good], axis=1))
    assert block.value.time_level == min(levels)


def test_adjoint_overflow_counts_steps_from_level_M():
    ad = pde.stepper(P, G, "adjoint", 0.5)
    _, (bad,) = overflowing_columns(1.9e302)
    with pytest.raises(NumericalError) as err:
        ad.run(bad)
    # march on without a check; note the first non-finite level below M
    lam, first = bad, None
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(G.M - 1, -1, -1):
            lam = ad.lu.solve(ad.B @ lam)
            if first is None and not np.all(np.isfinite(lam)):
                first = level
    assert err.value.time_level == G.M - first == oracle_level(ad, bad)
    assert first != G.M - first  # a level index would not match


def test_forward_overflow_from_boundary_data_reports_its_level():
    # simulate with h2 = 1e306 sin(2 pi t) at N=16/M=16: level 7
    g = Grid(L=1.0, N=16, T=0.25, M=16)
    fw = pde.stepper(P, g, "forward", 0.5)
    bc = np.zeros((6, g.nt))
    bc[2] = 1e306 * np.sin(6.283185307179586 * g.t)
    z0 = np.zeros(2 * g.nx)
    with pytest.raises(NumericalError) as err:
        fw.run(z0, bc=bc)
    assert err.value.time_level == 7 == oracle_level(fw, z0, bc=bc)
    # the same level when a finite column rides along in a block
    with pytest.raises(NumericalError) as block:
        fw.run(np.zeros((2 * g.nx, 2)), bc=bc)
    assert block.value.time_level == 7
