import numpy as np
import pytest

from ggkdv import pde
from ggkdv.core import Grid, Parameters, StatePair, _stacked
from ggkdv.errors import NonConvergence
from ggkdv.pde import (
    BoundarySignals,
    SchemeConfig,
    solve_linear_forward,
    solve_nonlinear,
)

P = Parameters(a=0.2, b=1.0, c=1.0, r=1.0, a1=0.4, a2=0.3)


def gaussian_state(g, eps):
    u = eps * np.exp(-50 * (g.x - g.L / 2) ** 2)
    return StatePair(u, 0.5 * u.copy())


@pytest.mark.parametrize("levels", [-4, -3, -1, 1])
def test_boundary_series_off_the_time_grid_are_rejected(levels):
    # Stepper.run reads the series, so every forward solve checks them there
    g = Grid(L=1.0, N=16, T=1.0, M=32)
    bc = BoundarySignals(*(np.zeros(g.nt + levels) for _ in range(6)))
    init = gaussian_state(g, 1e-3)
    match = "boundary signals do not match the time grid"
    with pytest.raises(ValueError, match=match):
        solve_nonlinear(P, g, init, bc)
    with pytest.raises(ValueError, match=match):
        solve_linear_forward(P, g, init, bc)
    with pytest.raises(ValueError, match=match):
        pde.stepper(P, g, "forward", 0.5).run(_stacked(init, g), bc=bc.as_array())


def test_zero_data_zero_solution():
    g = Grid(L=1.0, N=24, T=0.5, M=32)
    traj, _ = solve_nonlinear(P, g, StatePair.zeros(g), BoundarySignals.zeros(g))
    assert np.max(np.abs(traj.z)) == 0.0


@pytest.mark.parametrize("a1, a2", [(0.0, 0.0), (0.4, 0.3)])
def test_nonlinear_defect_is_quadratic_in_the_data(a1, a2):
    # every nonlinear term is quadratic: halving the data quarters the gap
    # between the nonlinear and the linear solution, self terms alone
    # (a1 = a2 = 0) or with the coupling terms
    p = Parameters(a=0.2, b=1.0, c=1.0, r=1.0, a1=a1, a2=a2)
    g = Grid(L=1.0, N=32, T=0.5, M=64)
    scheme = SchemeConfig(picard_tol=1e-12)
    gaps = []
    for eps in (0.2, 0.1, 0.05, 0.025, 0.0125):
        init = gaussian_state(g, eps)
        traj_nl, _ = solve_nonlinear(p, g, init, BoundarySignals.zeros(g), scheme=scheme)
        traj_lin, _ = solve_linear_forward(p, g, init, BoundarySignals.zeros(g))
        gaps.append(np.max(np.abs(traj_nl.z - traj_lin.z)))
    ratios = [big / small for big, small in zip(gaps, gaps[1:])]
    assert all(3.9 <= r <= 4.1 for r in ratios), ratios


def test_picard_contracts_for_small_data():
    g = Grid(L=1.0, N=32, T=0.5, M=64)
    init = gaussian_state(g, 1e-2)
    scheme = SchemeConfig(picard_tol=1e-12, picard_max=30)
    traj, _ = solve_nonlinear(P, g, init, BoundarySignals.zeros(g), scheme=scheme)
    hist = traj.picard_history
    assert hist is not None and len(hist) >= 2
    ratios = [h1 / h0 for h0, h1 in zip(hist, hist[1:]) if h0 > 0]
    # geometric decay of the sweep updates
    assert all(rr < 0.2 for rr in ratios)
    assert np.all(np.isfinite(traj.z))


def test_large_data_reports_nonconvergence():
    g = Grid(L=1.0, N=32, T=0.5, M=64)
    init = gaussian_state(g, 40.0)
    with pytest.raises(NonConvergence) as info:
        solve_nonlinear(P, g, init, BoundarySignals.zeros(g),
                        scheme=SchemeConfig(picard_tol=1e-10, picard_max=12))
    assert len(info.value.history) > 0
    assert np.all(np.isfinite(info.value.history))


def test_nonlinearity_actually_matters():
    g = Grid(L=1.0, N=32, T=0.5, M=64)
    init = gaussian_state(g, 0.5)
    scheme = SchemeConfig(picard_tol=1e-10, picard_max=30)
    traj_nl, _ = solve_nonlinear(P, g, init, BoundarySignals.zeros(g), scheme=scheme)
    traj_lin, _ = solve_linear_forward(P, g, init, BoundarySignals.zeros(g))
    assert np.max(np.abs(traj_nl.z - traj_lin.z)) > 1e-4


def test_nonlinear_forcing_matches_the_model_terms_at_generic_coefficients():
    # the forcing is minus the model's nonlinear terms,
    #   u u_x + a1 v v_x + a2 (u v)_x          (first equation)
    #   v v_x + a2 b u u_x + a1 b (u v)_x      (second equation),
    # with every coefficient distinct, so a dropped or swapped factor shows;
    # the error of its second-order differences falls about 4x per doubling
    p = Parameters(a=0.2, b=1.3, c=0.8, r=1.0, a1=0.4, a2=-0.7)
    errors = []
    for N in (32, 64, 128, 256):
        g = Grid(L=1.0, N=N, T=1.0, M=4)
        x, t = g.x[None, :], g.t[:, None]
        u, ux = np.sin(2 * x + 0.3) * np.exp(-t), 2 * np.cos(2 * x + 0.3) * np.exp(-t)
        v, vx = np.cos(3 * x - 0.2) * (1 + t), -3 * np.sin(3 * x - 0.2) * (1 + t)
        uvx = ux * v + u * vx
        want = -np.concatenate([u * ux + p.a1 * v * vx + p.a2 * uvx,
                                v * vx + p.a2 * p.b * u * ux + p.a1 * p.b * uvx],
                               axis=1)
        got = pde.nonlinear_forcing(np.concatenate([u, v], axis=1), p, g)
        errors.append(np.max(np.abs(got - want)))
    ratios = [e0 / e1 for e0, e1 in zip(errors, errors[1:])]
    assert min(ratios) >= 3.5, (errors, ratios)
