"""The per-level kernels of ``pde.Stepper`` against the generic operations
they stand in for, bit for bit: the direct CSR products against ``@``, and
the Gramian against an assembly with ``@`` products and a per-level
``X += ...`` fold, which any other fold must reproduce."""

import numpy as np
import pytest

from ggkdv import hum, pde
from ggkdv.core import ControlConfig, ControlKind, Grid, Parameters
from ggkdv.hum import GramianOperator

P = Parameters(a=0.2, b=1.0, c=1.0, r=1.0)


@pytest.mark.parametrize("direction", ["forward", "adjoint"])
@pytest.mark.parametrize("N", [16, 64])
def test_csr_dot_has_the_bytes_of_matmul(direction, N):
    g = Grid(L=1.0, N=N, T=1.0, M=4 * N)
    stp = pde.Stepper(P, g, direction)
    rng = np.random.default_rng(N)
    n = 2 * g.nx
    # 1-d, C-ordered and Fortran-ordered blocks (readout_transpose starts
    # from a transposed C block), the one-column block that ``@`` takes as
    # a vector, and a block as lu.solve returns it
    inputs = [rng.standard_normal(n)]
    for k in (1, 3, 6):
        block = rng.standard_normal((n, k))
        inputs += [block, np.asfortranarray(block)]
    inputs.append(stp.lu.solve(rng.standard_normal((n, 4))))
    assert sum(not x.flags.c_contiguous for x in inputs) == 2
    for A in (stp.B, stp.BT):
        for x in inputs:
            got = pde._csr_dot(A, x)
            want = A @ x
            assert got.shape == want.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


def oracle_gramian(cfg, p, g):
    """The assembly with ``@`` products and a per-level ``X += ...`` fold."""
    fw = pde.stepper(p, g, "forward", 0.5)
    ad = pde.stepper(p, g, "adjoint", 0.5)
    active = [i for i in range(6) if cfg.mask[i]]
    readvecs = hum.combo_read_vectors(p, g)[active]
    d = np.empty((len(active), g.nt, 2 * g.nx))
    d[:, g.M] = readvecs
    lam = readvecs.T
    for n in range(g.M - 1, -1, -1):
        lam = ad.BT @ ad.lu.solve(lam, trans="T")
        d[:, n] = lam.T
    hum._controls_in_place(d, active, p, g.T)
    rows = fw.bc_rows[active]
    pulse = np.zeros((2 * g.nx, len(rows)))
    pulse[rows, np.arange(len(rows))] = 1.0
    resp = fw.lu.solve(pulse)
    X = d[:, g.M, :].T @ resp.T
    for n in range(g.M - 1, 0, -1):
        resp = fw.lu.solve(fw.B @ resp)
        X += d[:, n, :].T @ resp.T
    return X.T


@pytest.mark.parametrize("N", [16, 64, 128, 256])
@pytest.mark.parametrize("mask", [
    (0, 0, 0, 0, 1, 0),
    (1, 0, 0, 1, 0, 0),
    (1, 1, 1, 1, 0, 0),
    (1, 1, 1, 1, 1, 1),
])
def test_gramian_fold_has_the_bytes_and_strides_of_the_per_level_fold(N, mask):
    g = Grid(L=1.0, N=N, T=1.0, M=2 * N if N == 16 else 4 * N)
    cfg = ControlConfig(ControlKind.CUSTOM, mask)
    got = GramianOperator(cfg, P, g).G
    want = oracle_gramian(cfg, P, g)
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()
