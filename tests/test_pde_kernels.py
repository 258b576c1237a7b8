"""The per-level kernels of ``pde.Stepper`` against the generic operations
they stand in for, bit for bit: the sparsetools CSR products against ``@``, the
band-ordered marches and sweeps against stacked-order loops with ``@``
products and gathered solves, and the Gramian against an assembly with a
per-level ``X += ...`` fold, which any other fold must reproduce.

At N=256 (2 nx = 516 > 512) the fold's bytes are promised with one
OpenBLAS thread only, so a process with more runs those cases in a child
process with one thread and checks that they passed there."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

from ggkdv import hum, pde
from ggkdv.core import ControlConfig, ControlKind, Grid, Parameters
from ggkdv.hum import GramianOperator
from stacked_view import stacked_ops

P = Parameters(a=0.2, b=1.0, c=1.0, r=1.0)
# N=256 has 2 nx = 516 > 512 unknowns, past a blocking size of the BLAS
GRIDS = [Grid(L=1.0, N=24, T=1.0, M=96), Grid(L=1.0, N=256, T=1.0, M=12)]
ONE_THREAD = os.environ.get("OPENBLAS_NUM_THREADS") == "1"


@pytest.fixture(scope="module")
def one_thread_report(request):
    """The ``-rA`` report of this file's N=256 cases, run in a child process
    with one OpenBLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         "-k", "256", __file__],
        cwd=request.config.rootpath, env=env, capture_output=True, text=True,
    ).stdout


def runs_here(N, request):
    """Whether this process runs the case itself; if not, assert that the
    one-thread child passed it."""
    if N < 256 or ONE_THREAD:
        return True
    report = request.getfixturevalue("one_thread_report")
    assert f"PASSED {request.node.nodeid}" in report, report
    return False


def level_product(A, x):
    """``A @ x`` as the level loop of ``pde.Stepper._sweep`` forms it: ``x``
    held in a C-ordered buffer, and the private sparsetools kernel adding
    into a zeroed C-ordered buffer through flat views, the vector kernel
    for one column (as ``@`` takes it), the multi-vector one for a block."""
    n, k = A.shape[0], x.size // len(x)
    z, y = np.empty(x.shape), np.empty(x.shape)
    z[...] = x
    y.fill(0.0)
    if k == 1:
        csr_matvec(n, n, A.indptr, A.indices, A.data, z.reshape(-1), y.reshape(-1))
    else:
        csr_matvecs(n, n, k, A.indptr, A.indices, A.data, z.reshape(-1), y.reshape(-1))
    return y


@pytest.mark.parametrize("direction", ["forward", "adjoint"])
@pytest.mark.parametrize("N", [16, 64])
def test_sparsetools_kernels_have_the_bytes_of_matmul(direction, N):
    g = Grid(L=1.0, N=N, T=1.0, M=4 * N)
    stp = pde.Stepper(P, g, direction)
    rng = np.random.default_rng(N)
    n = 2 * g.nx
    # 1-d, C-ordered and Fortran-ordered blocks, the one-column block that
    # ``@`` takes as a vector, and a block as dgbtrs returns it (Fortran)
    inputs = [rng.standard_normal(n)]
    for k in (1, 3, 6):
        block = rng.standard_normal((n, k))
        inputs += [block, np.asfortranarray(block)]
    inputs.append(stp.lu.solve(rng.standard_normal((n, 4))))
    assert sum(not x.flags.c_contiguous for x in inputs) == 3
    for A in (stp.B, stp.BT):
        for x in inputs:
            got = level_product(A, x)
            want = A @ x
            assert got.shape == want.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


def oracle_run(stp, z0, bc=None, forcing=None):
    """The march in stacked order: ``@`` products, a gathered solve and a
    per-level blend of the forcing; (M+1, 2nx) or (k, M+1, 2nx)."""
    g, theta, st = stp.g, stp.theta, stacked_ops(stp)
    z = np.array(z0, dtype=float)
    levels = range(g.nt) if stp.direction == "forward" else range(g.M, -1, -1)
    out = np.empty(z.shape[1:] + (g.nt, 2 * stp.nx))
    out[..., levels[0], :] = z.T
    if forcing is not None:
        forc = np.array(forcing, dtype=float)
        forc[:, st.bc_rows] = 0.0
    for n, level in enumerate(levels[1:]):
        rhs = st.B @ z
        if forcing is not None:
            blend = theta * forc[n + 1] + (1.0 - theta) * forc[n]
            rhs += blend.reshape(blend.shape + (1,) * (z.ndim - 1))
        if bc is not None:
            rhs[st.bc_rows] = bc[:, n + 1].reshape((6,) + (1,) * (z.ndim - 1))
        z = st.solve(rhs)
        out[..., level, :] = z.T
    return out


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"N={g.N}")
def test_run_has_the_bytes_of_the_stacked_march(g, request):
    if not runs_here(g.N, request):
        return
    fw = pde.Stepper(P, g, "forward")
    ad = pde.Stepper(P, g, "adjoint")
    rng = np.random.default_rng(g.N)
    n = 2 * g.nx
    bc = rng.standard_normal((6, g.nt))
    forcing = rng.standard_normal((g.nt, n))
    z0, block = rng.standard_normal(n), rng.standard_normal((n, 3))
    cases = [(fw, z0, bc, forcing), (fw, block, bc, forcing),
             (fw, np.asfortranarray(block), bc, None), (fw, block, None, forcing),
             (ad, z0, None, None), (ad, block, None, None)]
    for stp, start, b, f in cases:
        got = stp.run(start, bc=b, forcing=f)
        want = oracle_run(stp, start, bc=b, forcing=f)
        assert got.flags.c_contiguous
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def oracle_readout_transpose(ad, readvecs):
    g, st = ad.g, stacked_ops(ad)
    theta = np.empty((len(readvecs), g.nt, 2 * ad.nx))
    theta[:, g.M] = readvecs
    lam = readvecs.T
    for n in range(g.M - 1, -1, -1):
        lam = st.BT @ st.solve(lam, trans="T")
        theta[:, n] = lam.T
    return theta


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"N={g.N}")
@pytest.mark.parametrize("k", [1, 4])
def test_readout_transpose_has_the_bytes_of_the_stacked_sweep(g, k, request):
    if not runs_here(g.N, request):
        return
    ad = pde.Stepper(P, g, "adjoint")
    readvecs = np.random.default_rng(k).standard_normal((k, 2 * g.nx))
    got = ad.readout_transpose(readvecs)
    assert got.tobytes() == oracle_readout_transpose(ad, readvecs).tobytes()


def oracle_input_transpose(fw, d, signals):
    """The stacked sweep with the ``X += d[:, n, :].T @ resp.T`` fold."""
    g, st = fw.g, stacked_ops(fw)
    rows = st.bc_rows[signals]
    pulse = np.zeros((2 * g.nx, len(rows)))
    pulse[rows, np.arange(len(rows))] = 1.0
    resp = st.solve(pulse)
    X = d[:, g.M, :].T @ resp.T
    for n in range(g.M - 1, 0, -1):
        resp = st.solve(st.B @ resp)
        X += d[:, n, :].T @ resp.T
    return X


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"N={g.N}")
@pytest.mark.parametrize("signals", [[4], [0, 1, 2, 4]])
def test_input_transpose_has_the_bytes_of_the_stacked_fold(g, signals, request):
    if not runs_here(g.N, request):
        return
    fw = pde.Stepper(P, g, "forward")
    rng = np.random.default_rng(len(signals))
    d = rng.standard_normal((len(signals), g.nt, 2 * g.nx))
    got = fw.input_transpose(d, signals)
    want = oracle_input_transpose(fw, d, signals)
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()


def oracle_gramian(cfg, p, g):
    """The assembly with stacked sweeps and a per-level ``X += ...`` fold."""
    fw = pde.stepper(p, g, "forward", 0.5)
    ad = pde.stepper(p, g, "adjoint", 0.5)
    active = [i for i in range(6) if cfg.mask[i]]
    d = oracle_readout_transpose(ad, hum.combo_read_vectors(p, g)[active])
    hum._controls_in_place(d, active, p, g.T)
    return oracle_input_transpose(fw, d, active).T


@pytest.mark.parametrize("N", [16, 64, 128, 256])
@pytest.mark.parametrize("mask", [
    (0, 0, 0, 0, 1, 0),
    (1, 0, 0, 1, 0, 0),
    (1, 1, 1, 1, 0, 0),
    (1, 1, 1, 1, 1, 1),
])
def test_gramian_fold_has_the_bytes_and_strides_of_the_per_level_fold(N, mask, request):
    if not runs_here(N, request):
        return
    g = Grid(L=1.0, N=N, T=1.0, M=2 * N if N == 16 else 4 * N)
    cfg = ControlConfig(ControlKind.CUSTOM, mask)
    got = GramianOperator(cfg, P, g).G
    want = oracle_gramian(cfg, P, g)
    # Fortran order: CGLS's ``G @ x`` takes the BLAS path it was measured on
    assert got.flags.f_contiguous
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()
