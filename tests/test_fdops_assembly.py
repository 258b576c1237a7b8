"""Operator assembly against the per-row LIL assembly it replaced, bit for bit.

The oracle below keeps the scalar Fornberg recursion, the row-by-row LIL
derivative matrices and the step-matrix row replacement on LIL lists.  The
CSR arrays of D1/D2/D3, the band array handed to ``dgbtrf``, the stepper's
B and B^T (read back in stacked order) and the band LU factors must all
have the oracle's bytes; the band solve is checked for its width, its
backward error and its agreement with SuperLU.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ggkdv import fdops, hum, pde
from ggkdv.core import ControlConfig, Grid, Parameters
from ggkdv.errors import NumericalError
from ggkdv.fdops import boundary_stencils, fd_weights
from stacked_view import stacked_ops

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
    """The stepper's A (as CSC) and B, built on LIL."""
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
            # fewer samples than the stencil needs: the oracle fails on an
            # index, the builder names its minimum
            with pytest.raises(ValueError, match="needs at least"):
                build(nx, dx)
            continue
        assert_same_arrays(build(nx, dx), want)


@pytest.mark.parametrize("name, need", [
    ("first_derivative_matrix", 3), ("second_derivative_matrix", 4),
    ("third_derivative_matrix", 5), ("boundary_stencils", 4)])
def test_tiny_grids_name_the_minimum_sample_count(name, need):
    build = getattr(fdops, name)
    for nx in range(need):
        with pytest.raises(ValueError, match=f"{name} needs at least {need} "):
            build(nx, 0.1)
    build(need, 0.1)


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


def oracle_band(A, nx, kl, ku):
    """Dense ``A`` renumbered (u_0, v_0, u_1, v_1, ...) and packed into
    LAPACK band storage with kl rows of fill-in space; also asserts that
    no entry lies outside the band."""
    order = np.arange(2 * nx).reshape(2, nx).T.ravel()
    dense = A.toarray()[np.ix_(order, order)]
    ab = np.zeros((2 * kl + ku + 1, 2 * nx), order="F")
    for i, j in zip(*np.nonzero(dense)):
        assert -ku <= i - j <= kl, (i, j)
        ab[kl + ku + i - j, j] = dense[i, j]
    return ab


@pytest.mark.parametrize("p", PARAMS, ids=("a=0.2", "a=0.9"))
@pytest.mark.parametrize("direction", ("forward", "adjoint"))
@pytest.mark.parametrize("N", (8, 48, 128))
def test_stepper_matrices_and_factors_have_the_oracle_bytes(monkeypatch, p, direction, N):
    g = Grid(L=1.0, N=N, T=1.0, M=4 * N)
    handed = []
    dgbtrf = pde.dgbtrf

    def recording(ab, kl, ku, **kwargs):
        handed.append((ab.copy(order="F"), kl, ku))
        return dgbtrf(ab, kl, ku, **kwargs)

    monkeypatch.setattr(pde, "dgbtrf", recording)
    stp = pde.Stepper(p, g, direction, 0.5)
    A, B = oracle_step_matrices(p, g, direction, 0.5)
    assert len(handed) == 1
    ab, kl, ku = handed[0]
    assert (kl, ku) == ((6, 7) if direction == "forward" else (7, 5))
    want = oracle_band(A, g.nx, kl, ku)
    assert ab.dtype == want.dtype and ab.shape == want.shape
    assert ab.tobytes(order="F") == want.tobytes(order="F")
    # band-ordered B and BT are relabeled stacked ones, entry order kept
    assert_same_arrays(stacked_ops(stp).B, B)
    assert_same_arrays(stacked_ops(stp).BT, B.T.tocsr())
    lu, piv, info = dgbtrf(want, kl, ku)
    assert info == 0
    assert stp.lu.ab.tobytes(order="F") == lu.tobytes(order="F")
    assert stp.lu.piv.tobytes() == piv.tobytes()


GENERIC = Parameters(a=0.3, b=1.3, c=0.8, r=0.9)
# theta 0.6 and 1.0 at every size, and theta 0.5 where the test above does
# not reach: N=256 and generic parameters
CASES = [(theta, N, p) for theta in (0.5, 0.6, 1.0) for N in (8, 48, 256)
         for p in PARAMS + (GENERIC,) if theta != 0.5 or N == 256 or p is GENERIC]


@pytest.mark.parametrize("direction", ("forward", "adjoint"))
@pytest.mark.parametrize("theta, N, p", CASES, ids=[
    f"theta={theta}-N={N}-a={p.a}" for theta, N, p in CASES])
def test_stepper_bytes_hold_at_other_thetas_sizes_and_parameters(
        monkeypatch, theta, N, p, direction):
    g = Grid(L=1.0, N=N, T=1.0, M=4 * N)
    handed = []
    dgbtrf = pde.dgbtrf

    def recording(ab, kl, ku, **kwargs):
        handed.append((ab.copy(order="F"), kl, ku))
        return dgbtrf(ab, kl, ku, **kwargs)

    monkeypatch.setattr(pde, "dgbtrf", recording)
    stp = pde.Stepper(p, g, direction, theta)
    A, B = oracle_step_matrices(p, g, direction, theta)
    [(ab, kl, ku)] = handed
    assert (kl, ku) == ((6, 7) if direction == "forward" else (7, 5))
    want = oracle_band(A, g.nx, kl, ku)
    assert ab.shape == want.shape
    assert ab.tobytes(order="F") == want.tobytes(order="F")
    assert_same_arrays(stacked_ops(stp).B, B)
    assert_same_arrays(stacked_ops(stp).BT, B.T.tocsr())
    lu, piv, info = dgbtrf(want, kl, ku)
    assert info == 0
    assert stp.lu.ab.tobytes(order="F") == lu.tobytes(order="F")
    assert stp.lu.piv.tobytes() == piv.tobytes()


def test_both_steppers_of_a_grid_evaluate_its_stencils_once(monkeypatch):
    calls = []
    for name in ("first_derivative_matrix", "third_derivative_matrix"):
        def counting(nx, dx, build=getattr(fdops, name), name=name):
            calls.append(name)
            return build(nx, dx)
        monkeypatch.setattr(pde, name, counting)
    for cache in (pde._stencils, fdops.boundary_stencils):
        cache.cache_clear()
    g = Grid(L=1.0, N=24, T=1.0, M=48)
    fw, ad = (pde.Stepper(PARAMS[0], g, d, 0.5) for d in ("forward", "adjoint"))
    assert sorted(calls) == ["first_derivative_matrix", "third_derivative_matrix"]
    assert fdops.boundary_stencils.cache_info().misses == 1
    # the nonlinear terms and the hidden-regularity norms read the same D1
    pde.nonlinear_forcing(np.zeros((g.nt, 2 * g.nx)), PARAMS[0], g)
    hum.estimate_observability(ControlConfig.of("FOUR_I"), 2, PARAMS[0], g, seed=3)
    assert sorted(calls) == ["first_derivative_matrix", "third_derivative_matrix"]
    # B's transpose is built only for a transposed sweep
    fw.run(np.zeros(2 * g.nx))
    ad.run(np.zeros(2 * g.nx))
    assert "BT" not in vars(fw) and "BT" not in vars(ad)
    ad.readout_transpose(np.ones((1, 2 * g.nx)))
    assert "BT" in vars(ad)


def test_boundary_stencils_are_shared_and_read_only():
    st = boundary_stencils(12, 0.1)
    assert boundary_stencils(12, 0.1) is st
    with pytest.raises(TypeError):
        st[("left", 0)] = st[("left", 1)]
    for cols, wts in st.values():
        assert not cols.flags.writeable and not wts.flags.writeable


# normwise backward error |A x - b| / (|A| |x| + |b|) in the inf-norm, per
# column; the largest measured over these cases is 0.40 eps (N=256 forward)
BACKWARD_EPS = 4.0
# agreement with SuperLU's solution, relative to its largest entry; the
# largest measured is 2.0e-9 (N=256 forward, a=0.9)
SPLU_AGREE = 2e-8


@pytest.mark.parametrize("p", PARAMS, ids=("a=0.2", "a=0.9"))
@pytest.mark.parametrize("direction", ("forward", "adjoint"))
@pytest.mark.parametrize("N", (8, 48, 128, 256))
def test_band_lu_is_narrow_and_backward_stable(p, direction, N):
    g = Grid(L=1.0, N=N, T=1.0, M=4 * N)
    stp = pde.Stepper(p, g, direction, 0.5)
    assert stp.lu.kl <= 7 and stp.lu.ku <= 7
    A, _ = oracle_step_matrices(p, g, direction, 0.5)
    splu = spla.splu(A)
    rng = np.random.default_rng(N)
    n = 2 * g.nx
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 5))):
        for trans, op in (("N", A), ("T", A.T.tocsr())):
            x = stacked_ops(stp).solve(rhs, trans=trans)
            assert x.shape == rhs.shape and x.flags.c_contiguous
            resid = np.max(np.abs(op @ x - rhs), axis=0)
            scale = (abs(op).sum(axis=1).max() * np.max(np.abs(x), axis=0)
                     + np.max(np.abs(rhs), axis=0))
            assert np.all(resid <= BACKWARD_EPS * np.finfo(float).eps * scale)
            y = splu.solve(rhs, trans=trans)
            assert np.max(np.abs(x - y)) <= SPLU_AGREE * np.max(np.abs(y))


def test_singular_step_matrix_raises_at_level_zero():
    nx = 5
    band = np.arange(2 * nx)  # the identity with a zero in the v_1 row
    diag = np.where(band == pde._band_index(6, nx), 0.0, 1.0)
    with pytest.raises(NumericalError, match=r"singular step matrix: zero pivot in column 6 \(") as err:
        pde.BandLU(band, band, diag, 2 * nx)
    assert err.value.time_level == 0
