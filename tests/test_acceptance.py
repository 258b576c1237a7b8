"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance below is fixed, not calibrated at run time.
"""

import time

import numpy as np
import pytest

from ggkdv.core import ControlConfig, Grid, Parameters, StatePair, x_inner, x_norm
from ggkdv.hum import (
    gramian_operator,
    solve_control,
    solve_nonlinear_control,
)
from ggkdv.pde import (
    BoundarySignals,
    SchemeConfig,
    solve_adjoint_backward,
    solve_linear_forward,
)
from ggkdv.scenario import run_scenario
from ggkdv.spectral import (
    Verdict,
    build_P,
    lambert_solve,
    r0_eigencheck,
    roots_P,
    ucp_sweep,
)

P = Parameters(a=0.2, b=1.0, c=1.0, r=1.0)


def _report(num, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:2d} [{status}] {label}: {detail}")
    assert passed, f"criterion {num} ({label}): {detail}"


def shaped_state(rng, g, kmax=4, decay=1.5, scale=1.0):
    xh = g.x / g.L
    shape = 30.0 * xh**2 * (1.0 - xh) ** 3
    comps = []
    for _ in range(2):
        f = np.zeros(g.nx)
        for k in range(1, kmax + 1):
            f += rng.standard_normal() / k**decay * np.sin(k * np.pi * xh)
            f += rng.standard_normal() / k**decay * np.cos(k * np.pi * xh)
        comps.append(scale * f * shape)
    return StatePair(*comps)


def smooth_signal(rng, g):
    out = np.zeros(g.nt)
    for k in range(1, 5):
        out += rng.standard_normal() * np.sin(k * np.pi * g.t / g.T)
    return out


def gaussian_target(g, eps):
    return StatePair(eps * np.exp(-50 * (g.x - g.L / 2) ** 2), np.zeros(g.nx))


def trapz(series, dt):
    w = np.full(len(series), dt)
    w[0] = w[-1] = dt / 2
    return float(np.sum(w * series))


def test_criterion_1_manufactured_convergence():
    t0 = time.time()
    pi = np.pi

    def error(N, M):
        g = Grid(L=1.0, N=N, T=1.0, M=M)
        x, t = g.x, g.t
        E = np.exp(-t)[:, None]
        sin, cos = np.sin(pi * x)[None, :], np.cos(pi * x)[None, :]
        u_star, v_star = sin * E, cos * E
        pf = (-sin - pi**3 * cos + P.a * pi**3 * sin) * E
        qf = (-P.c * cos - P.r * pi * sin - P.a * P.b * pi**3 * cos
              + pi**3 * sin) * E
        e = np.exp(-t)
        bc = BoundarySignals(
            h0=np.zeros(g.nt),
            h1=pi * np.cos(pi * g.L) * e,
            h2=-(pi**2) * np.sin(pi * g.L) * e,
            g0=e,
            g1=-pi * np.sin(pi * g.L) * e,
            g2=-(pi**2) * np.cos(pi * g.L) * e,
        )
        init = StatePair(u_star[0].copy(), v_star[0].copy())
        traj, _ = solve_linear_forward(P, g, init, bc, forcing=(pf, qf))
        du = traj.u - u_star
        dv = traj.v - v_star
        per_level = np.sqrt((P.b / P.c) * (du**2 @ _w(g)) + dv**2 @ _w(g))
        return float(np.max(per_level))

    errs = [error(N, 4 * N) for N in (32, 64, 128)]
    ratios = [e0 / e1 for e0, e1 in zip(errs, errs[1:])]
    ok = all(rr >= 1.8 for rr in ratios) and time.time() - t0 < 30
    _report(1, "manufactured-solution convergence", ok,
            f"sup-X errors {['%.3e' % e for e in errs]}, "
            f"ratios {['%.2f' % r for r in ratios]}, {time.time()-t0:.1f}s")


def _w(g):
    w = np.full(g.nx, g.dx)
    w[0] = w[-1] = g.dx / 2
    return w


def duality_residual(p, g, seed):
    """The relative residual of the discrete duality identity for one draw
    of six boundary signals and one adjoint final state."""
    rng = np.random.default_rng(seed)
    bc = BoundarySignals(*(smooth_signal(rng, g) for _ in range(6)))
    final = shaped_state(rng, g, decay=1.0)
    fw, _ = solve_linear_forward(p, g, StatePair.zeros(g), bc)
    _, tr = solve_adjoint_backward(p, g, final)
    lhs = x_inner(fw.final_state, final, p, g)
    a, b, c = p.a, p.b, p.c
    terms = [
        -(b / c) * trapz(bc.h2 * (tr[0, 0, "L"] + a * tr[1, 0, "L"]), g.dt),
        (b / c) * trapz(bc.h1 * (tr[0, 1, "L"] + a * tr[1, 1, "L"]), g.dt),
        (b / c) * trapz(bc.h0 * (tr[0, 2, "0"] + a * tr[1, 2, "0"]), g.dt),
        -(1 / c) * trapz(bc.g2 * (a * b * tr[0, 0, "L"] + tr[1, 0, "L"]), g.dt),
        (1 / c) * trapz(bc.g1 * (a * b * tr[0, 1, "L"] + tr[1, 1, "L"]), g.dt),
        (1 / c) * trapz(bc.g0 * (a * b * tr[0, 2, "0"] + tr[1, 2, "0"]), g.dt),
    ]
    rhs = sum(terms)
    # backward-stable scale: the six pairings may cancel in the sum
    scale = max(abs(lhs), abs(rhs), sum(abs(t) for t in terms))
    return abs(lhs - rhs) / scale


def test_criterion_2_duality_identity():
    t0 = time.time()
    g1 = Grid(L=1.0, N=64, T=1.0, M=256)
    g2 = Grid(L=1.0, N=128, T=1.0, M=512)
    worst1 = max(duality_residual(P, g1, s) for s in range(10))
    worst2 = max(duality_residual(P, g2, s) for s in range(10))
    ok = worst1 <= 5e-2 and worst2 < worst1 and time.time() - t0 < 60
    _report(2, "discrete duality identity", ok,
            f"worst rel residual {worst1:.3e} at N=64, {worst2:.3e} at N=128, "
            f"{time.time()-t0:.1f}s")


# At b = c = 1 the X-norm weight b/c is 1 whichever way round it is written;
# these parameters tell b/c from c/b (worst residuals over seeds 0-9 at
# N=64 / N=128: 2.93e-2 / 7.29e-3, 6.28e-2 / 1.28e-2, 2.81e-2 / 7.21e-3;
# with the weight written c/b the N=128 residuals are 0.99, 0.73, 1.06).
# The second exceeds criterion 2's 5e-2 at N=64, a resolution bound for
# a = 0.2, so the bound here is on N=128 and on the fall from N=64.
@pytest.mark.parametrize("a, b, c, r", [(0.3, 0.8, 1.5, 0.5), (0.5, 1.2, 0.6, 1.2),
                                        (-0.4, 0.6, 1.8, 1.5)])
def test_duality_identity_at_generic_parameters(a, b, c, r):
    p = Parameters(a=a, b=b, c=c, r=r)
    worst1, worst2 = (max(duality_residual(p, Grid(L=1.0, N=N, T=1.0, M=4 * N), s)
                          for s in range(10)) for N in (64, 128))
    assert worst2 <= 2e-2 and 3 * worst2 <= worst1, (worst1, worst2)


def test_criterion_3_gramian_symmetry_positivity():
    t0 = time.time()
    cfg = ControlConfig.of("FOUR_I")

    def stats(g):
        op = gramian_operator(cfg, P, g, 0.5)
        worst = 0.0
        pos_ok = True
        for s in range(20):
            xs = shaped_state(np.random.default_rng(100 + s), g)
            ys = shaped_state(np.random.default_rng(300 + s), g)
            gx = op.apply(np.concatenate([xs.u, xs.v]))
            gy = op.apply(np.concatenate([ys.u, ys.v]))
            ip1 = x_inner(gx, ys, P, g)
            ip2 = x_inner(xs, gy, P, g)
            worst = max(worst, abs(ip1 - ip2) / max(abs(ip1), abs(ip2)))
            pos_ok = (pos_ok and x_inner(gx, xs, P, g) > 0.0
                      and x_inner(gy, ys, P, g) > 0.0)
        return worst, pos_ok

    coarse, pos1 = stats(Grid(L=1.0, N=64, T=1.0, M=256))
    fine, pos2 = stats(Grid(L=1.0, N=128, T=1.0, M=512))
    ok = (coarse <= 5e-2 and fine < coarse and pos1 and pos2
          and time.time() - t0 < 300)
    _report(3, "Gramian symmetry and positivity", ok,
            f"defect {coarse:.3e} at N=64 vs {fine:.3e} at N=128, "
            f"positivity {pos1 and pos2}, {time.time()-t0:.1f}s")


def test_criterion_4_linear_controllability():
    t0 = time.time()
    g = Grid(L=1.0, N=128, T=1.0, M=512)
    target = gaussian_target(g, 1e-2)
    details = []
    ok = True
    for kind in ("FOUR_I", "FOUR_II", "FOUR_III", "FOUR_IV"):
        res = solve_control(ControlConfig.of(kind), StatePair.zeros(g),
                            target, 1e-3, P, g)
        err = x_norm(StatePair(res.achieved.u - target.u,
                               res.achieved.v - target.v), P, g)
        rel = err / x_norm(target, P, g)
        details.append(f"{kind}: {rel:.2e} ({res.iterations} it)")
        ok = ok and rel <= 1e-2
    ok = ok and time.time() - t0 < 600
    _report(4, "linear controllability, four-control configs", ok,
            "; ".join(details) + f", {time.time()-t0:.0f}s")


def test_criterion_5_three_control_feasibility(tmp_path):
    t0 = time.time()
    okays = []
    for kind in ("THREE_V", "THREE_VI"):
        scen = tmp_path / f"{kind}.yaml"
        scen.write_text(
            f"""
command: control
params: {{a: 0.9, b: 1.2, c: 1.5, r: 1.0}}
grid: {{L: 1.0, N: 48, T: 1.0, M: 192}}
config: {kind}
target: {{u: "1e-3*gaussian(0.5,0.1)", v: "0"}}
tol: 1.0e-2
"""
        )
        result = run_scenario(str(scen), output_dir=str(tmp_path / kind))
        okays.append(result.exit_code == 0)
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        """
command: control
params: {a: 0.1, b: 0.1, c: 0.05, r: 1.0}
grid: {L: 1.0, N: 24, T: 1.0, M: 96}
config: THREE_V
target: {u: "1e-3*gaussian(0.5,0.1)", v: "0"}
"""
    )
    res_bad = run_scenario(str(bad), output_dir=str(tmp_path / "bad"))
    ok = all(okays) and res_bad.exit_code == 4
    _report(5, "three-control feasibility path", ok,
            f"feasible runs {okays}, adversarial exit code {res_bad.exit_code}, "
            f"{time.time()-t0:.0f}s")


def test_criterion_6_nonlinear_control():
    t0 = time.time()
    p = Parameters(a=0.2, b=1.0, c=1.0, r=1.0, a1=0.4, a2=0.3)
    g = Grid(L=1.0, N=64, T=1.0, M=256)
    target = gaussian_target(g, 1e-3)
    res = solve_nonlinear_control(
        StatePair.zeros(g), target, ControlConfig.of("FOUR_I"), 0.1, p, g,
        scheme=SchemeConfig(picard_tol=1e-6), tol=1e-3,
    )
    geometric = all(h1 < h0 for h0, h1 in zip(res.history, res.history[1:]))
    ok = (res.iterations <= 10 and geometric and res.terminal_error <= 2e-2
          and time.time() - t0 < 900)
    _report(6, "nonlinear fixed-point control", ok,
            f"outer iterations {res.iterations}, history "
            f"{['%.2e' % h for h in res.history]}, terminal "
            f"{res.terminal_error:.2e}, {time.time()-t0:.0f}s")


def test_criterion_7_newton_girard():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        while True:  # draw, then build only what passes
            a, b = rng.uniform(-1.2, 1.2), rng.uniform(0.2, 2.5)
            c, r = rng.uniform(0.2, 2.5), rng.uniform(-2, 2)
            if 1 - a**2 * b > 0.05:
                params = Parameters(a=a, b=b, c=c, r=r)
                break
        p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(p) < 0.1:
            p += 0.5
        rs = roots_P(build_P([p], params))
        worst = max(worst, float(np.max(rs.girard_residuals[0])))
    ok = worst <= 1e-8 and time.time() - t0 < 5
    _report(7, "Newton-Girard residuals", ok,
            f"worst of 600 elementary-symmetric residuals {worst:.3e}, "
            f"{time.time()-t0:.1f}s")


def test_criterion_8_lambert_residuals():
    t0 = time.time()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        alpha = np.exp(rng.uniform(np.log(0.1), np.log(10.0)))
        alpha = alpha * np.exp(2j * np.pi * rng.uniform())
        k = rng.integers(-3, 4)
        z = lambert_solve(alpha, int(k))
        worst = max(worst, abs(z * np.exp(z) - alpha) / max(1.0, abs(alpha)))
    exact = abs(lambert_solve(np.e, 0) - 1.0)
    ok = worst <= 1e-10 and exact <= 1e-12 and time.time() - t0 < 1
    _report(8, "Lambert branch residuals", ok,
            f"worst residual {worst:.3e}, |z(e)-1| = {exact:.2e}, "
            f"{time.time()-t0:.2f}s")


def test_criterion_9_ucp_sweep():
    t0 = time.time()
    sweep = ucp_sweep(200, P, seed=11)
    inconclusive = np.flatnonzero(~sweep.confirmed)
    assert all(sweep.verdict(k).verdict is Verdict.INCONCLUSIVE for k in inconclusive)
    for k in inconclusive:
        print(f"  INCONCLUSIVE finding: L={sweep.L[k]:.4f} p={sweep.p[k]} "
              f"multiple roots {sweep.multiple[k]}, min separation "
              f"{sweep.min_separation[k]:.3e}, dispersion {sweep.dispersion[k]:.3e}")
    ok = len(inconclusive) == 0 and time.time() - t0 < 30
    _report(9, "unique-continuation sweep", ok,
            f"200 draws, {len(inconclusive)} inconclusive, "
            f"{time.time()-t0:.1f}s")


def test_criterion_10_r0_eigencheck():
    t0 = time.time()
    L, re, im = (a.ravel() for a in np.meshgrid(
        [0.5, 1.0, np.pi, 5.0], np.linspace(-10, 10, 9), np.linspace(-10, 10, 9),
        indexing="ij"))
    s = np.empty(L.size, dtype=complex)
    s.real, s.imag = re, im
    worst = float(np.min(r0_eigencheck(L, s).sigma_min))
    ok = L.size == 324 and worst > 1e-8 and time.time() - t0 < 10
    _report(10, "decoupled eigenproblem sweep", ok,
            f"smallest singular value {worst:.3e} over 324 points, "
            f"{time.time()-t0:.1f}s")


def test_criterion_11_dissipativity():
    t0 = time.time()
    g = Grid(L=1.0, N=64, T=1.0, M=256)
    rng = np.random.default_rng(5)
    worst_excess = -np.inf
    ok = True
    for _ in range(20):
        init = shaped_state(rng, g, kmax=6, decay=0.5)
        traj, _ = solve_linear_forward(P, g, init, BoundarySignals.zeros(g))
        e = np.array([x_norm(traj.state(n), P, g) ** 2 for n in range(g.nt)])
        slack = g.dx * e[0]
        excess = float(np.max(e[1:] - e[:-1]))
        worst_excess = max(worst_excess, excess / e[0])
        ok = ok and np.all(e[1:] <= e[:-1] + slack)
    ok = ok and time.time() - t0 < 30
    _report(11, "homogeneous dissipativity", ok,
            f"worst step increase {worst_excess:.2e} of initial energy "
            f"(slack dx = {g.dx:.2e}), {time.time()-t0:.1f}s")
