"""Operator assembly against the per-row LIL assembly it replaced, bit for bit.

The oracle below keeps the scalar Fornberg recursion, the row-by-row LIL
derivative matrices and the step-matrix row replacement on LIL lists.  The
CSR arrays of D1/D2/D3, the CSC arrays handed to ``splu``, the stepper's
B and B^T and the SuperLU factors must all have the oracle's bytes.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ggkdv import fdops, pde
from ggkdv.core import Grid, Parameters
from ggkdv.fdops import boundary_stencils, fd_weights

NX = list(range(3, 81)) + [130, 258, 514]
LENGTHS = (0.05, 1.0, 3.7)
PARAMS = (Parameters(a=0.2, b=1.0, c=1.0, r=1.0),
          Parameters(a=0.9, b=1.2, c=0.05, r=1.0))


def oracle_fd_weights(x0, nodes, m):
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    w = np.zeros((m + 1, n))
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, i] = c1 * (k * w[k - 1, i - 1] - c5 * w[k, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, j] = (c4 * w[k, j] - k * w[k - 1, j]) / c3
            w[0, j] = c4 * w[0, j] / c3
        c1 = c2
    return w[m]


def oracle_banded(nx, dx, m, width):
    D = sp.lil_matrix((nx, nx))
    x = np.arange(nx) * dx
    npts = 2 * width + 1
    for i in range(nx):
        lo = i - width
        hi = i + width
        if lo < 0:
            lo, hi = 0, npts - 1
        elif hi > nx - 1:
            lo, hi = nx - npts, nx - 1
        cols = np.arange(lo, hi + 1)
        D[i, cols] = oracle_fd_weights(x[i], x[cols], m)
    return D


def oracle_d2(nx, dx):
    D = oracle_banded(nx, dx, 2, 1).tolil()
    x = np.arange(nx) * dx
    for i, cols in ((0, np.arange(4)), (nx - 1, np.arange(nx - 4, nx))):
        D[i, :] = 0.0
        D[i, cols] = oracle_fd_weights(x[i], x[cols], 2)
    return D.tocsr()


ORACLES = {
    "first_derivative_matrix": lambda nx, dx: oracle_banded(nx, dx, 1, 1).tocsr(),
    "second_derivative_matrix": oracle_d2,
    "third_derivative_matrix": lambda nx, dx: oracle_banded(nx, dx, 3, 2).tocsr(),
}


def oracle_step_matrices(p, g, direction, theta):
    """The stepper's A (as the CSC handed to splu), and B, built on LIL."""
    nx, dx, dt = g.nx, g.dx, g.dt
    a, b, c, r = p.a, p.b, p.c, p.r
    D3 = ORACLES["third_derivative_matrix"](nx, dx)
    D1 = ORACLES["first_derivative_matrix"](nx, dx)
    Lop = sp.vstack([sp.hstack([-D3, -a * D3]),
                     sp.hstack([-a * b * D3, -(D3 + r * D1)])]).tocsr()
    if direction == "adjoint":
        Lop = -Lop
    Mdiag = sp.diags(np.concatenate([np.ones(nx), c * np.ones(nx)]))
    A = (Mdiag / dt - theta * Lop).tolil()
    B = (Mdiag / dt + (1.0 - theta) * Lop).tolil()
    st = boundary_stencils(nx, dx)
    rows = []
    if direction == "forward":
        cr1, wr1 = st[("right", 1)]
        cr2, wr2 = st[("right", 2)]
        for v0 in (0, nx):
            rows.append((v0, np.array([v0]), np.array([1.0])))
            rows.append((v0 + g.N, v0 + cr1, wr1))
            rows.append((v0 + g.N + 1, v0 + cr2, wr2))
    else:
        cl1, wl1 = st[("left", 1)]
        cr2, wr2 = st[("right", 2)]
        rows.append((0, np.array([0]), np.array([1.0])))
        rows.append((1, cl1, wl1))
        rows.append((g.N + 1, np.concatenate([cr2, nx + cr2]),
                     np.concatenate([wr2, a * wr2])))
        rows.append((nx, np.array([nx]), np.array([1.0])))
        rows.append((nx + 1, nx + cl1, wl1))
        rows.append((nx + g.N + 1, np.concatenate([cr2, nx + cr2, [2 * nx - 1]]),
                     np.concatenate([a * b * wr2, wr2, [r]])))
    for row, cols, wts in rows:
        A.rows[row] = list(np.asarray(cols, dtype=int))
        A.data[row] = list(np.asarray(wts, dtype=float))
        B.rows[row] = []
        B.data[row] = []
    return A.tocsc(), B.tocsr()


def assert_same_arrays(got, want, fields=("indptr", "indices", "data")):
    for name in fields:
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype, name
        assert x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("L", LENGTHS)
@pytest.mark.parametrize("name", sorted(ORACLES))
def test_derivative_matrices_have_the_oracle_bytes(name, L):
    build = getattr(fdops, name)
    for nx in NX:
        dx = L / (nx - 1)
        try:
            want = ORACLES[name](nx, dx)
        except IndexError:
            # fewer samples than the stencil needs, at the oracle too
            with pytest.raises(IndexError):
                build(nx, dx)
            continue
        assert_same_arrays(build(nx, dx), want)


def test_batched_weights_are_the_scalar_calls():
    rng = np.random.default_rng(5)
    for m, n in ((0, 1), (1, 3), (2, 3), (2, 4), (3, 5), (3, 7)):
        nodes = np.sort(rng.uniform(-2.0, 2.0, (40, n)), axis=1)
        x0 = np.where(rng.random(40) < 0.5, nodes[:, 0], rng.uniform(-2, 2, 40))
        got = fd_weights(x0, nodes, m)
        assert got.shape == (40, n)
        for i in range(40):
            scalar = fd_weights(x0[i], nodes[i], m)
            assert scalar.shape == (n,)
            assert got[i].tobytes() == scalar.tobytes()
            assert scalar.tobytes() == oracle_fd_weights(x0[i], nodes[i], m).tobytes()


@pytest.mark.parametrize("p", PARAMS, ids=("a=0.2", "a=0.9"))
@pytest.mark.parametrize("direction", ("forward", "adjoint"))
@pytest.mark.parametrize("N", (8, 48, 128))
def test_stepper_matrices_and_factors_have_the_oracle_bytes(monkeypatch, p, direction, N):
    g = Grid(L=1.0, N=N, T=1.0, M=4 * N)
    handed = []
    splu = spla.splu

    def recording(A, *args, **kwargs):
        handed.append(A.copy())
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(pde.spla, "splu", recording)
    stp = pde.Stepper(p, g, direction, 0.5)
    A, B = oracle_step_matrices(p, g, direction, 0.5)
    assert len(handed) == 1
    assert_same_arrays(handed[0], A)
    assert_same_arrays(stp.B, B)
    assert_same_arrays(stp.BT, B.T.tocsr())
    lu = splu(A)
    assert_same_arrays(stp.lu.L, lu.L)
    assert_same_arrays(stp.lu.U, lu.U)
    assert stp.lu.perm_r.tobytes() == lu.perm_r.tobytes()
    assert stp.lu.perm_c.tobytes() == lu.perm_c.tobytes()
