import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ggkdv.core import SIGNALS, Grid, Parameters, StatePair, x_norm
from ggkdv.errors import ConstraintViolation
from ggkdv.fdops import boundary_stencils, third_derivative_matrix
from ggkdv.pde import (
    TRACE_KEYS,
    TRACE_NAMES,
    BoundarySignals,
    SchemeConfig,
    extract_traces,
    solve_linear_forward,
)

P = Parameters(a=0.2, b=1.0, c=1.0, r=1.0)


def manufactured(p, g):
    """Forcing and boundary data for (u*, v*) = (sin(pi x) e^-t, cos(pi x) e^-t).

    Substituting into u_t + u_xxx + a v_xxx = p and
    c v_t + r v_x + a b u_xxx + v_xxx = q gives the forcing by hand:
    u*_t = -u*, u*_xxx = -pi^3 cos(pi x) e^-t, v*_xxx = pi^3 sin(pi x) e^-t.
    """
    x, t = g.x, g.t
    pi = np.pi
    E = np.exp(-t)[:, None]
    sin, cos = np.sin(pi * x)[None, :], np.cos(pi * x)[None, :]
    u_star = sin * E
    v_star = cos * E
    pf = (-sin - pi**3 * cos + p.a * pi**3 * sin) * E
    qf = (-p.c * cos - p.r * pi * sin - p.a * p.b * pi**3 * cos + pi**3 * sin) * E
    e = np.exp(-t)
    bc = BoundarySignals(
        h0=np.zeros(g.nt),
        h1=pi * np.cos(pi * g.L) * e,
        h2=-(pi**2) * np.sin(pi * g.L) * e,
        g0=e,
        g1=-pi * np.sin(pi * g.L) * e,
        g2=-(pi**2) * np.cos(pi * g.L) * e,
    )
    return u_star, v_star, pf, qf, bc


def mms_error(p, N, M):
    g = Grid(L=1.0, N=N, T=1.0, M=M)
    u_star, v_star, pf, qf, bc = manufactured(p, g)
    init = StatePair(u_star[0].copy(), v_star[0].copy())
    traj, _ = solve_linear_forward(p, g, init, bc, forcing=(pf, qf))
    return max(
        np.max(np.abs(traj.u - u_star)),
        np.max(np.abs(traj.v - v_star)),
    )


def test_zero_data_gives_zero():
    g = Grid(L=1.0, N=24, T=1.0, M=32)
    traj, traces = solve_linear_forward(P, g, StatePair.zeros(g),
                                        BoundarySignals.zeros(g))
    assert np.max(np.abs(traj.z)) == 0.0
    assert all(np.max(np.abs(col)) == 0.0 for col in traces.values())


def test_traces_are_keyed_in_trace_key_order():
    # traces.csv writes the values in this order under TRACE_NAMES
    g = Grid(L=1.0, N=24, T=1.0, M=32)
    traces = extract_traces(np.zeros((g.nt, 2 * g.nx)), g)
    assert list(traces) == TRACE_KEYS
    assert TRACE_NAMES[:3] == ["u_x0", "ux_x0", "uxx_x0"]
    assert len(TRACE_NAMES) == len(TRACE_KEYS) == 12


def test_manufactured_solution_convergence():
    errs = [mms_error(P, N, 4 * N) for N in (16, 32, 64)]
    for e0, e1 in zip(errs, errs[1:]):
        assert e0 / e1 >= 1.8, f"convergence ratio {e0 / e1:.2f} below first order"


def test_manufactured_solution_is_second_order_in_space():
    # M = 4N keeps the time error below the spatial one, so the ratios show
    # the stencils' second order (4 in the limit)
    errs = [mms_error(P, N, 4 * N) for N in (32, 64, 128)]
    for e0, e1 in zip(errs, errs[1:]):
        assert e0 / e1 >= 3.5, f"convergence ratio {e0 / e1:.2f} below second order"


def quadratic_in_x_error(theta, M):
    """The largest X-norm error over the time levels for the solution
    u = (1 + x + x^2/2) sin(1 + t), v = (0.3 - x + x^2) cos 2t.

    Every stencil differentiates a quadratic exactly (u_xxx = v_xxx = 0), so
    the forcing is p = u_t, q = c v_t + r v_x and only the time step errs.
    """
    p = Parameters(a=0.2, b=1.0, c=1.3, r=0.9)
    g = Grid(L=1.0, N=16, T=1.0, M=M)
    x, t, L = g.x[None, :], g.t[:, None], g.L
    u_shape, v_shape = 1 + x + x**2 / 2, 0.3 - x + x**2
    u, v = u_shape * np.sin(1 + t), v_shape * np.cos(2 * t)
    pf = u_shape * np.cos(1 + t)
    qf = -2 * p.c * v_shape * np.sin(2 * t) + p.r * (2 * x - 1) * np.cos(2 * t)
    su, cv = np.sin(1 + g.t), np.cos(2 * g.t)
    # the exact traces u(0), u_x(L), u_xx(L) and the same of v
    bc = BoundarySignals(h0=su, h1=(1 + L) * su, h2=su,
                         g0=0.3 * cv, g1=(2 * L - 1) * cv, g2=2 * cv)
    init = StatePair(u[0].copy(), v[0].copy())
    traj, _ = solve_linear_forward(p, g, init, bc, forcing=(pf, qf),
                                   scheme=SchemeConfig(theta=theta))
    return float(np.max(x_norm(traj.z - np.concatenate([u, v], axis=1), p, g)))


@pytest.mark.parametrize("theta, order", [(0.5, 2), (1.0, 1)])
def test_manufactured_solution_pins_the_time_order(theta, order):
    # halving dt divides the error by 2^order: measured 4.013, 4.001, 4.001,
    # 4.000 for Crank-Nicolson and 1.986 ... 1.999 for backward Euler
    errs = [quadratic_in_x_error(theta, M) for M in (8, 16, 32, 64, 128)]
    for e0, e1 in zip(errs, errs[1:]):
        assert 2**order - 0.1 <= e0 / e1 <= 2**order + 0.1, (
            f"ratio {e0 / e1:.3f} is not order {order} in time")


def test_decoupled_matches_scalar_kdv():
    # a = 0, r = 0: the coupled solve equals two independent scalar solves
    # assembled with the same stencils and theta scheme
    p = Parameters(a=0.0, b=1.0, c=2.0, r=0.0)
    g = Grid(L=1.0, N=32, T=0.5, M=64)
    rng = np.random.default_rng(1)
    x = g.x
    init = StatePair(
        np.sin(np.pi * x) * rng.uniform(0.5, 1.0),
        np.sin(2 * np.pi * x) * rng.uniform(0.5, 1.0),
    )
    t = g.t
    bc = BoundarySignals(
        h0=np.sin(2 * np.pi * t),
        h1=0.3 * np.sin(np.pi * t),
        h2=np.zeros(g.nt),
        g0=0.2 * np.sin(3 * np.pi * t),
        g1=np.zeros(g.nt),
        g2=0.1 * np.sin(np.pi * t),
    )
    traj, _ = solve_linear_forward(p, g, init, bc)

    def scalar_kdv(w0, k0, k1, k2, mass):
        # mass * w_t + w_xxx = 0 with w(0), w_x(L), w_xx(L) prescribed
        nx, dx, dt = g.nx, g.dx, g.dt
        D3 = third_derivative_matrix(nx, dx)
        theta = 0.5
        A = (sp.eye(nx) * mass / dt + theta * D3).tolil()
        B = (sp.eye(nx) * mass / dt - (1 - theta) * D3).tolil()
        st = boundary_stencils(nx, dx)
        rows = [(0, np.array([0]), np.array([1.0]))]
        c1, w1 = st[("right", 1)]
        rows.append((g.N, c1, w1))
        c2, w2 = st[("right", 2)]
        rows.append((g.N + 1, c2, w2))
        for row, cols, wts in rows:
            A.rows[row] = list(cols)
            A.data[row] = list(wts)
            B.rows[row] = []
            B.data[row] = []
        lu = spla.splu(A.tocsc())
        Bc = B.tocsr()
        w = w0.copy()
        out = [w.copy()]
        for n in range(g.M):
            rhs = Bc @ w
            rhs[0] = k0[n + 1]
            rhs[g.N] = k1[n + 1]
            rhs[g.N + 1] = k2[n + 1]
            w = lu.solve(rhs)
            out.append(w.copy())
        return np.array(out)

    u_ref = scalar_kdv(init.u, bc.h0, bc.h1, bc.h2, 1.0)
    v_ref = scalar_kdv(init.v, bc.g0, bc.g1, bc.g2, p.c)
    # the block reduction is exact; the two sparse factorizations pivot
    # differently, leaving a few-ulp disagreement at O(1) amplitudes
    np.testing.assert_allclose(traj.u, u_ref, atol=1e-11)
    np.testing.assert_allclose(traj.v, v_ref, atol=1e-11)


def test_superposition():
    g = Grid(L=1.0, N=24, T=0.5, M=48)
    rng = np.random.default_rng(5)

    def rand_case():
        init = StatePair(rng.standard_normal(g.nx), rng.standard_normal(g.nx))
        bc = BoundarySignals(*(0.3 * rng.standard_normal(g.nt) for _ in range(6)))
        pf = rng.standard_normal((g.nt, g.nx))
        qf = rng.standard_normal((g.nt, g.nx))
        return init, bc, pf, qf

    i1, b1, p1, q1 = rand_case()
    i2, b2, p2, q2 = rand_case()
    t1, _ = solve_linear_forward(P, g, i1, b1, forcing=(p1, q1))
    t2, _ = solve_linear_forward(P, g, i2, b2, forcing=(p2, q2))
    i12 = StatePair(i1.u + i2.u, i1.v + i2.v)
    b12 = BoundarySignals.from_array(b1.as_array() + b2.as_array())
    t12, _ = solve_linear_forward(P, g, i12, b12, forcing=(p1 + p2, q1 + q2))
    scale = np.max(np.abs(t12.z))
    np.testing.assert_allclose(t12.z, t1.z + t2.z, atol=1e-12 * max(scale, 1))


def compatible_random_state(rng, g):
    """Mollified noise shaped to satisfy the homogeneous boundary rows.

    The x (1 - x)^3 factor zeroes the value at x = 0 and the first and
    second derivatives at x = L; without it, enforcing the boundary rows on
    incompatible data launches a large dispersive transient at step one.
    """
    xh = g.x / g.L
    shape = xh * (1.0 - xh) ** 3
    out = []
    for _ in range(2):
        raw = rng.standard_normal(g.nx)
        for _ in range(3):
            raw[1:-1] = 0.25 * raw[:-2] + 0.5 * raw[1:-1] + 0.25 * raw[2:]
        out.append(raw * shape)
    return StatePair(*out)


def test_dissipativity_homogeneous():
    # with zero boundary data the weighted norm may not increase beyond
    # an O(dx) boundary-truncation slack at any step
    g = Grid(L=1.0, N=48, T=1.0, M=96)
    rng = np.random.default_rng(42)
    for _ in range(5):
        init = compatible_random_state(rng, g)
        traj, _ = solve_linear_forward(P, g, init, BoundarySignals.zeros(g))
        energies = [x_norm(traj.state(n), P, g) ** 2 for n in range(g.nt)]
        slack = g.dx * energies[0]
        for e0, e1 in zip(energies, energies[1:]):
            assert e1 <= e0 + slack


def test_traces_are_one_sided_differences():
    g = Grid(L=1.0, N=24, T=0.5, M=24)
    rng = np.random.default_rng(3)
    init = StatePair(rng.standard_normal(g.nx), rng.standard_normal(g.nx))
    bc = BoundarySignals(*(0.2 * rng.standard_normal(g.nt) for _ in range(6)))
    traj, traces = solve_linear_forward(P, g, init, bc)
    st = boundary_stencils(g.nx, g.dx)
    for var in (0, 1):
        for order in (0, 1, 2):
            for side, key in (("0", "left"), ("L", "right")):
                cols, wts = st[(key, order)]
                expected = traj.z[:, var * g.nx + cols] @ wts
                np.testing.assert_array_equal(
                    traces[var, order, side], expected
                )


def test_imposed_boundary_data_recovered_in_traces():
    g = Grid(L=1.0, N=24, T=0.5, M=24)
    rng = np.random.default_rng(8)
    bc = BoundarySignals(*(rng.standard_normal(g.nt) for _ in range(6)))
    traj, traces = solve_linear_forward(P, g, StatePair.zeros(g), bc)
    # at every level after the first, the bc rows hold exactly: each signal's
    # imposed trace reads back its series
    for s in SIGNALS:
        side, order = s.trace
        got = traces[s.var, order, "0" if side == "left" else "L"]
        np.testing.assert_allclose(got[1:], getattr(bc, s.name)[1:],
                                   atol=1e-9 if order == 2 else 1e-10, err_msg=s.name)


def test_nan_inputs_rejected():
    g = Grid(L=1.0, N=16, T=0.5, M=8)
    bad = StatePair(np.full(g.nx, np.nan), np.zeros(g.nx))
    with pytest.raises(ConstraintViolation):
        solve_linear_forward(P, g, bad, BoundarySignals.zeros(g))
    sig = np.zeros(g.nt)
    sig[3] = np.inf
    with pytest.raises(ConstraintViolation):
        BoundarySignals(sig, *(np.zeros(g.nt) for _ in range(5)))


def test_scheme_config_bounds():
    with pytest.raises(ValueError):
        SchemeConfig(theta=0.3)
    with pytest.raises(ValueError):
        SchemeConfig(picard_max=0)
    # frozen, so the checked settings cannot leave their bounds later
    scheme = SchemeConfig()
    for name, value in (("theta", 0.3), ("picard_tol", -1.0), ("picard_max", 0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(scheme, name, value)
    assert scheme == SchemeConfig()


@pytest.mark.parametrize("direction", ["forward", "adjoint"])
def test_step_operator_is_contractive(direction):
    # spectral radius of the homogeneous one-step map stays at or below one
    # (strongly advective parameter sets need the grid to resolve the
    # transport; coarse grids can show an O(dx) eigenvalue excess)
    from ggkdv.pde import Stepper

    rng = np.random.default_rng(7)
    for _ in range(6):
        while True:  # draw, then build only what passes
            a, b = rng.uniform(-1.2, 1.2), rng.uniform(0.2, 2.5)
            c, r = rng.uniform(0.2, 2.5), rng.uniform(-2.0, 2.0)
            if 1 - a**2 * b > 0.05:
                p = Parameters(a=a, b=b, c=c, r=r)
                break
        g = Grid(L=rng.uniform(0.5, 2.0), N=32, T=1.0, M=64)
        stp = Stepper(p, g, direction)
        n = 2 * g.nx
        G = np.zeros((n, n))
        eye = np.eye(n)
        for j in range(n):
            col = stp.B @ eye[:, j]
            col[stp.bc_rows] = 0.0
            G[:, j] = stp.lu.solve(col)
        rho = np.max(np.abs(np.linalg.eigvals(G)))
        assert rho <= 1.0 + 1e-7, (p, rho)
