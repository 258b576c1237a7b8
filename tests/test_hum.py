import numpy as np
import pytest

from ggkdv.core import (SIGNAL_NAMES, ControlConfig, Grid, Parameters, StatePair,
                        trapezoid_weights, x_inner, x_norm)
from ggkdv import hum, pde
from ggkdv.errors import (ConstraintViolation, FeasibilityError, NonConvergence,
                          NumericalError)
from ggkdv.fdops import second_derivative_matrix
from ggkdv.hum import (
    GramianOperator,
    controls_from_adjoint,
    estimate_observability,
    gramian_apply,
    gramian_operator,
    random_final_state,
    solve_control,
    solve_nonlinear_control,
)
from ggkdv.pde import (
    BoundarySignals,
    SchemeConfig,
    solve_adjoint_backward,
    solve_linear_forward,
)
from ggkdv.tracenorm import riesz_map, sobolev_norms_batch, sobolev_trace_norm

P = Parameters(a=0.2, b=1.0, c=1.0, r=1.0)
FOUR_I = ControlConfig.of("FOUR_I")


def shaped_random_state(rng, g, kmax=4, decay=1.5, scale=1.0):
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


def gaussian_target(g, eps=1e-2):
    return StatePair(eps * np.exp(-50 * (g.x - g.L / 2) ** 2), np.zeros(g.nx))


def test_zero_traces_give_zero_controls():
    g = Grid(L=1.0, N=24, T=1.0, M=32)
    traj, _ = solve_adjoint_backward(P, g, StatePair.zeros(g))
    bundle = controls_from_adjoint(FOUR_I, traj, P)
    assert all(np.max(np.abs(getattr(bundle.signals, n))) == 0.0
               for n in ("h0", "h1", "h2", "g0", "g1", "g2"))
    assert all(v == 0.0 for v in bundle.norms.values())


def test_control_formulas_decoupled_coefficients():
    # a = 0, b = c = 1: h1 = phi_x(t,L), g1 = psi_x(t,L), and the g2
    # combination is -psi(t,L) (its signal carries the H^{-1/3} Riesz weight)
    p0 = Parameters(a=0.0, b=1.0, c=1.0, r=1.0)
    g = Grid(L=1.0, N=32, T=1.0, M=64)
    rng = np.random.default_rng(0)
    final = shaped_random_state(rng, g)
    traj, traces = solve_adjoint_backward(p0, g, final)
    bundle = controls_from_adjoint(ControlConfig.of("FOUR_II"), traj, p0)
    np.testing.assert_allclose(bundle.signals.h1,
                               traces.series(0, 1, "L"), atol=1e-13)
    np.testing.assert_allclose(bundle.signals.g1,
                               traces.series(1, 1, "L"), atol=1e-13)
    recovered = riesz_map(bundle.signals.g2, -1 / 3, g.T)
    np.testing.assert_allclose(recovered, -traces.series(1, 0, "L"), atol=1e-12)
    # FOUR_II mask: h0, h2 inactive
    assert np.max(np.abs(bundle.signals.h0)) == 0.0
    assert np.max(np.abs(bundle.signals.h2)) == 0.0


def test_inactive_signals_masked_to_zero():
    g = Grid(L=1.0, N=24, T=1.0, M=32)
    rng = np.random.default_rng(1)
    traj, _ = solve_adjoint_backward(P, g, shaped_random_state(rng, g))
    for kind in ("FOUR_I", "FOUR_II", "FOUR_III", "FOUR_IV", "THREE_V", "THREE_VI"):
        cfg = ControlConfig.of(kind)
        bundle = controls_from_adjoint(cfg, traj, P)
        for name, active in zip(("h0", "h1", "h2", "g0", "g1", "g2"), cfg.mask):
            mag = np.max(np.abs(getattr(bundle.signals, name)))
            if active:
                assert mag > 0.0
            else:
                assert mag == 0.0


def test_duality_pairing_is_sum_of_squared_trace_norms():
    # <Gramian x, x>_X approximates the sum of squared class norms of the
    # active combinations.  The discrete trace norms converge to the pairing
    # from above at first order with a sizable constant (the squared norms
    # integrate the traces' slowly-decaying boundary-layer content), so the
    # check is on the decay of the residual under refinement.
    cfg = FOUR_I
    classes = {"h0": -1 / 3, "h1": 0.0, "h2": 1 / 3,
               "g0": -1 / 3, "g1": 0.0, "g2": 1 / 3}
    res = []
    for N, M in ((48, 192), (96, 384), (192, 768)):
        g = Grid(L=1.0, N=N, T=1.0, M=M)
        xh = g.x / g.L
        f = 30 * xh**2 * (1 - xh) ** 3
        final = StatePair(f, 0.5 * f)
        traj, _ = solve_adjoint_backward(P, g, final)
        cb = hum.combo_read_vectors(P, g) @ traj.z.T
        expected = sum(
            sobolev_trace_norm(cb[i], classes[n], g.T) ** 2
            for i, n in enumerate(("h0", "h1", "h2", "g0", "g1", "g2"))
            if cfg.mask[i]
        )
        got = x_inner(gramian_apply(cfg, final, P, g), final, P, g)
        res.append(abs(got - expected) / max(got, expected))
    assert res[1] < 0.62 * res[0]
    assert res[2] < 0.62 * res[1]
    assert res[2] < 0.15


def test_gramian_zero():
    g = Grid(L=1.0, N=24, T=1.0, M=32)
    out = gramian_apply(FOUR_I, StatePair.zeros(g), P, g)
    assert np.max(np.abs(out.u)) == 0.0 and np.max(np.abs(out.v)) == 0.0


def test_gramian_symmetry_and_positivity():
    g = Grid(L=1.0, N=48, T=1.0, M=192)
    rng = np.random.default_rng(5)
    for _ in range(4):
        xs = shaped_random_state(rng, g)
        ys = shaped_random_state(rng, g)
        gx = gramian_apply(FOUR_I, xs, P, g)
        gy = gramian_apply(FOUR_I, ys, P, g)
        ip1 = x_inner(gx, ys, P, g)
        ip2 = x_inner(xs, gy, P, g)
        assert abs(ip1 - ip2) / max(abs(ip1), abs(ip2)) < 8e-2
        assert x_inner(gx, xs, P, g) > 0.0


def test_gramian_star_is_exact_transpose():
    g = Grid(L=1.0, N=24, T=0.5, M=48)
    op = GramianOperator(FOUR_I, P, g)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(2 * g.nx)
    v = rng.standard_normal(2 * g.nx)
    ip1 = op.xdot(op.apply(u), v)
    ip2 = op.xdot(u, op.apply_star(v))
    assert ip1 == pytest.approx(ip2, rel=1e-11)


def test_solve_control_zero_rhs():
    g = Grid(L=1.0, N=24, T=1.0, M=32)
    rng = np.random.default_rng(2)
    init = shaped_random_state(rng, g, scale=0.1)
    # target exactly the free evolution: rhs = 0, zero controls, 0 iterations
    traj, _ = solve_linear_forward(P, g, init, BoundarySignals.zeros(g))
    res = solve_control(FOUR_I, init, traj.final_state, 1e-3, P, g)
    assert res.iterations == 0
    assert all(np.max(np.abs(getattr(res.controls.signals, n))) == 0.0
               for n in ("h0", "h1", "h2", "g0", "g1", "g2"))


def test_solve_control_hits_gaussian_target():
    g = Grid(L=1.0, N=64, T=1.0, M=256)
    target = gaussian_target(g)
    res = solve_control(FOUR_I, StatePair.zeros(g), target, 1e-3, P, g)
    err = x_norm(StatePair(res.achieved.u - target.u, res.achieved.v - target.v), P, g)
    assert err / x_norm(target, P, g) <= 1e-2
    assert res.iterations <= 500


def test_solve_control_verification_is_reproducible():
    g = Grid(L=1.0, N=48, T=1.0, M=96)
    target = gaussian_target(g)
    res = solve_control(FOUR_I, StatePair.zeros(g), target, 5e-3, P, g)
    traj, _ = solve_linear_forward(P, g, StatePair.zeros(g), res.controls.signals)
    np.testing.assert_array_equal(traj.final_state.u, res.achieved.u)
    np.testing.assert_array_equal(traj.final_state.v, res.achieved.v)


def test_minimal_norm_spot_check():
    # perturbing the adjoint minimizer never lowers the terminal error
    g = Grid(L=1.0, N=48, T=1.0, M=96)
    target = gaussian_target(g)
    res = solve_control(FOUR_I, StatePair.zeros(g), target, 1e-3, P, g)
    base = x_norm(StatePair(res.achieved.u - target.u, res.achieved.v - target.v), P, g)
    op = GramianOperator(FOUR_I, P, g)
    rng = np.random.default_rng(4)
    x_star = np.concatenate([res.adjoint_final.u, res.adjoint_final.v])
    tvec = np.concatenate([target.u, target.v])
    for _ in range(3):
        pert = shaped_random_state(rng, g, scale=0.05)
        z = x_star + np.concatenate([pert.u, pert.v])
        err = op.apply(z) - tvec
        assert np.sqrt(op.xdot(err, err)) >= base * (1 - 1e-9)


def test_cross_configuration_same_target():
    g = Grid(L=1.0, N=48, T=1.0, M=192)
    target = gaussian_target(g)
    finals = {}
    for kind in ("FOUR_I", "FOUR_III"):
        res = solve_control(ControlConfig.of(kind), StatePair.zeros(g),
                            target, 2e-3, P, g)
        finals[kind] = res.achieved
    d = StatePair(finals["FOUR_I"].u - finals["FOUR_III"].u,
                  finals["FOUR_I"].v - finals["FOUR_III"].v)
    assert x_norm(d, P, g) <= 4e-3 * x_norm(target, P, g) * 2


def test_observability_report_and_monotonicity():
    g = Grid(L=1.0, N=32, T=1.0, M=64)
    rep4 = estimate_observability(FOUR_I, 4, P, g, seed=11)
    rep8 = estimate_observability(FOUR_I, 8, P, g, seed=11)
    assert rep4.quotient_min > 0
    assert rep8.sample_count == 8
    # same seed: the first four samples coincide, the minimum cannot rise
    assert rep8.quotient_min <= rep4.quotient_min
    assert np.all(rep4.c_hidden >= 0)


def test_three_control_feasibility_gate():
    g = Grid(L=1.0, N=32, T=1.0, M=128)
    target = gaussian_target(g, eps=1e-3)
    bad = Parameters(a=0.1, b=0.1, c=0.05, r=1.0)
    with pytest.raises(FeasibilityError):
        solve_control(ControlConfig.of("THREE_V"), StatePair.zeros(g),
                      target, 1e-2, bad, g)


def test_three_control_runs_when_feasible():
    g = Grid(L=1.0, N=48, T=1.0, M=192)
    p = Parameters(a=0.9, b=1.2, c=1.0, r=1.0)
    target = gaussian_target(g, eps=1e-3)
    res = solve_control(ControlConfig.of("THREE_V"), StatePair.zeros(g),
                        target, 1e-2, p, g)
    assert res.iterations <= 400
    err = x_norm(StatePair(res.achieved.u - target.u, res.achieved.v - target.v), p, g)
    assert err / x_norm(target, p, g) <= 5e-2


def test_nonlinear_control_reduces_to_linear():
    p = Parameters(a=0.2, b=1.0, c=1.0, r=1.0, a1=0.0, a2=0.0)
    g = Grid(L=1.0, N=48, T=1.0, M=192)
    target = gaussian_target(g, eps=1e-3)
    res = solve_nonlinear_control(StatePair.zeros(g), target,
                                  FOUR_I, 0.1, p, g,
                                  scheme=SchemeConfig(picard_tol=1e-8),
                                  tol=1e-3, self_terms=False)
    assert res.iterations == 1


def test_nonlinear_control_small_target():
    p = Parameters(a=0.2, b=1.0, c=1.0, r=1.0, a1=0.4, a2=0.3)
    g = Grid(L=1.0, N=48, T=1.0, M=192)
    target = gaussian_target(g, eps=1e-3)
    res = solve_nonlinear_control(StatePair.zeros(g), target, FOUR_I, 0.1, p, g,
                                  scheme=SchemeConfig(picard_tol=1e-6), tol=1e-3)
    assert res.iterations <= 10
    assert res.terminal_error <= 2e-2
    assert all(h1 < h0 for h0, h1 in zip(res.history, res.history[1:]))


def test_nonlinear_control_rejects_oversized_data():
    g = Grid(L=1.0, N=32, T=1.0, M=64)
    big = StatePair(10 * np.ones(g.nx), np.zeros(g.nx))
    with pytest.raises(ConstraintViolation, match="delta"):
        solve_nonlinear_control(StatePair.zeros(g), big, FOUR_I, 0.1, P, g)


def test_nonlinear_control_diverges_cleanly_for_large_target():
    p = Parameters(a=0.2, b=1.0, c=1.0, r=1.0, a1=0.4, a2=0.3)
    g = Grid(L=1.0, N=32, T=1.0, M=64)
    target = gaussian_target(g, eps=10.0)
    with pytest.raises(NonConvergence):
        solve_nonlinear_control(StatePair.zeros(g), target, FOUR_I, 100.0, p, g,
                                scheme=SchemeConfig(picard_tol=1e-6, picard_max=12),
                                tol=1e-2)


def test_observability_regression_value():
    # frozen observed minimum for the reference configuration; guards the
    # whole adjoint + trace-norm pipeline against silent drift
    g = Grid(L=1.0, N=64, T=1.0, M=256)
    rep = estimate_observability(FOUR_I, 50, P, g, seed=2024)
    assert rep.sample_count == 50
    assert rep.quotient_min > 0
    assert rep.quotient_min == pytest.approx(4.088813048378866, rel=1e-9)


def test_report_json_serialization():
    import json

    g = Grid(L=1.0, N=24, T=1.0, M=32)
    rep = estimate_observability(FOUR_I, 2, P, g, seed=0)
    blob = json.dumps(rep.as_json_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["config"] == "FOUR_I"
    assert parsed["sample_count"] == 2
    assert len(parsed["c_hidden"]) == 3

    rng = np.random.default_rng(0)
    traj, _ = solve_adjoint_backward(P, g, shaped_random_state(rng, g))
    bundle = controls_from_adjoint(FOUR_I, traj, P)
    blob = json.dumps(bundle.as_json_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["mask"] == [True, True, True, False, True, False]
    assert set(parsed["norms"]) == {"h0", "h1", "h2", "g0", "g1", "g2"}
    assert len(parsed["signals"]["h1"]) == g.nt


def count_calls(monkeypatch, name):
    """Record the arguments of every call to the Stepper method ``name``."""
    calls = []
    orig = getattr(pde.Stepper, name)

    def counting(self, *args, **kwargs):
        calls.append(args)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(pde.Stepper, name, counting)
    return calls


def test_stepper_cache_factorizes_once_per_direction(monkeypatch):
    pde.stepper.cache_clear()
    gramian_operator.cache_clear()
    inits = count_calls(monkeypatch, "__init__")
    g = Grid(L=1.0, N=16, T=0.5, M=24)
    final = shaped_random_state(np.random.default_rng(8), g)
    first = gramian_apply(FOUR_I, final, P, g)
    second = gramian_apply(FOUR_I, final, P, g)
    assert [a[2] for a in inits] == ["forward", "adjoint"]
    gramian_apply(FOUR_I, final, P, g, scheme=SchemeConfig(theta=0.6))
    assert len(inits) == 4
    g2 = Grid(L=1.0, N=18, T=0.5, M=24)
    gramian_apply(FOUR_I, shaped_random_state(np.random.default_rng(8), g2), P, g2)
    assert len(inits) == 6
    # assembling from a freshly built pair of steppers gives the same bits
    monkeypatch.setattr(hum, "stepper", lambda *key: pde.Stepper(*key))
    fresh = GramianOperator(FOUR_I, P, g).apply(np.concatenate([final.u, final.v]))
    assert len(inits) == 8
    for got in (first, second):
        assert np.array_equal(np.concatenate([got.u, got.v]), fresh)


def test_gramian_assembles_once_per_key(monkeypatch):
    gramian_operator.cache_clear()
    sweeps = count_calls(monkeypatch, "readout_transpose")
    g = Grid(L=1.0, N=16, T=0.5, M=24)
    final = shaped_random_state(np.random.default_rng(3), g)
    gramian_apply(FOUR_I, final, P, g)
    gramian_apply(FOUR_I, final, P, g)
    assert len(sweeps) == 1
    gramian_apply(FOUR_I, final, P, g, scheme=SchemeConfig(theta=0.6))
    assert len(sweeps) == 2
    g2 = Grid(L=1.0, N=18, T=0.5, M=24)
    gramian_apply(FOUR_I, shaped_random_state(np.random.default_rng(3), g2), P, g2)
    assert len(sweeps) == 3
    gramian_apply(ControlConfig.of("FOUR_II"), final, P, g)
    assert len(sweeps) == 4
    # zero rhs: the free evolution already hits the target, nothing assembles
    gz = Grid(L=1.0, N=20, T=0.5, M=24)
    init = shaped_random_state(np.random.default_rng(2), gz, scale=0.1)
    traj, _ = solve_linear_forward(P, gz, init, BoundarySignals.zeros(gz))
    assert solve_control(FOUR_I, init, traj.final_state, 1e-3, P, gz).iterations == 0
    assert len(sweeps) == 4
    # one assembly serves every outer sweep of a nonlinear run
    pn = Parameters(a=0.2, b=1.0, c=1.0, r=1.0, a1=0.4, a2=0.3)
    gn = Grid(L=1.0, N=32, T=1.0, M=128)
    res = solve_nonlinear_control(StatePair.zeros(gn), gaussian_target(gn, 1e-3),
                                  FOUR_I, 0.1, pn, gn, tol=1e-2)
    assert res.iterations >= 2
    assert len(sweeps) == 5


def sparse_apply(op, z):
    """The per-vector Gramian: adjoint march, controls, forward march."""
    cfg, p, g = op.cfg, op.p, op.g
    ad = pde.stepper(p, g, "adjoint", 0.5)
    fw = pde.stepper(p, g, "forward", 0.5)
    cb = hum.combo_read_vectors(p, g) @ ad.run(z).T
    coef = hum._coefficients(p)
    sig = np.zeros_like(cb)
    for i, name in enumerate(SIGNAL_NAMES):
        if cfg.mask[i]:
            sig[i] = coef[name] * riesz_map(cb[i], hum.TRACE_CLASS[name], g.T)
    return fw.run(np.zeros(2 * g.nx), bc=sig)[-1]


def sparse_apply_star(op, y):
    """The per-vector transpose of ``sparse_apply`` in the weighted product:
    the exact transposes of the two step recursions, one vector at a time."""
    cfg, p, g = op.cfg, op.p, op.g
    ad = pde.stepper(p, g, "adjoint", 0.5)
    fw = pde.stepper(p, g, "forward", 0.5)
    q = np.zeros((6, g.nt))
    lam = op.w_stacked * y
    for n in range(g.M, 0, -1):
        mu = fw.lu.solve(lam, trans="T")
        q[:, n] = mu[fw.bc_rows]
        lam = fw.BT @ mu
    wt = trapezoid_weights(g.nt, g.dt)
    coef = hum._coefficients(p)
    d = np.zeros_like(q)
    for i, name in enumerate(SIGNAL_NAMES):
        if not cfg.mask[i]:
            continue
        s = hum.TRACE_CLASS[name]
        if s == 0.0:
            d[i] = coef[name] * q[i]
        else:
            d[i] = coef[name] * wt * riesz_map(q[i] / wt, s, g.T)
    read = hum.combo_read_vectors(p, g)
    acc = read.T @ d[:, 0]
    for n in range(1, g.nt):
        acc = ad.BT @ ad.lu.solve(acc, trans="T")
        acc += read.T @ d[:, n]
    return acc / op.w_stacked


@pytest.mark.parametrize("kind", ["FOUR_I", "FOUR_II", "FOUR_III", "FOUR_IV",
                                  "THREE_V", "THREE_VI"])
def test_assembled_gramian_matches_sparse_sweeps(kind):
    g = Grid(L=1.0, N=48, T=1.0, M=192)
    op = GramianOperator(ControlConfig.of(kind), P, g)
    rng = np.random.default_rng(17)
    for _ in range(3):
        xs = shaped_random_state(rng, g)
        z = np.concatenate([xs.u, xs.v])
        for dense, sparse in ((op.apply, sparse_apply),
                              (op.apply_star, sparse_apply_star)):
            want = sparse(op, z)
            got = dense(z)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("kind", ["FOUR_I", "FOUR_II", "FOUR_III", "FOUR_IV",
                                  "THREE_V", "THREE_VI"])
def test_returned_controls_steer_like_the_gramian(kind):
    # the controls solve_control returns, read off an adjoint march and
    # marched forward from rest, land where the assembled Gramian does
    cfg = ControlConfig.of(kind)
    g = Grid(L=1.0, N=48, T=1.0, M=192)
    rng = np.random.default_rng(17)
    for _ in range(3):
        xs = shaped_random_state(rng, g)
        adjoint, _ = solve_adjoint_backward(P, g, xs)
        bundle = controls_from_adjoint(cfg, adjoint, P)
        traj, _ = solve_linear_forward(P, g, StatePair.zeros(g), bundle.signals)
        got = np.concatenate([traj.final_state.u, traj.final_state.v])
        want = gramian_apply(cfg, xs, P, g)
        want = np.concatenate([want.u, want.v])
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_observability_builds_first_derivative_once(monkeypatch):
    # the observe grid's D1 and its transpose come from one cached assembly,
    # shared by the adjoint stepper and the hidden-regularity norms
    from ggkdv import fdops

    calls = []

    def counting(nx, dx):
        calls.append(nx)
        return fdops.first_derivative_matrix(nx, dx)

    for module in (pde, hum):
        if hasattr(module, "first_derivative_matrix"):
            monkeypatch.setattr(module, "first_derivative_matrix", counting)
    pde._first_derivative.cache_clear()
    pde.stepper.cache_clear()
    g = Grid(L=1.0, N=20, T=0.5, M=40)
    estimate_observability(FOUR_I, 2, P, g, seed=3)
    assert calls == [g.nx]


def test_observability_marches_each_sample_once(monkeypatch):
    g = Grid(L=1.0, N=24, T=0.5, M=48)
    runs = count_calls(monkeypatch, "run")
    rep = estimate_observability(FOUR_I, 5, P, g, seed=11)
    # one block march: a single Stepper.run call carrying all five columns
    assert rep.sample_count == 5 and len(runs) == 1
    assert runs[0][0].shape == (2 * g.nx, 5)
    # each quotient equals that of its sample marched alone
    ad = pde.stepper(P, g, "adjoint", 0.5)
    rng = np.random.default_rng(11)
    for q in rep.quotients:
        final = random_final_state(rng, P, g)
        z = ad.run(np.concatenate([final.u, final.v]))
        assert hum._quotient(FOUR_I, z, x_norm(final, P, g), P, g) == q


def test_observability_constants_match_per_sample_marches():
    # c_hidden from the block march equals per-sample marches, bit for bit
    g = Grid(L=1.0, N=24, T=0.5, M=48)
    rep = estimate_observability(FOUR_I, 5, P, g, seed=11)
    D1 = pde._first_derivative(g.nx, g.dx)[1]
    D2 = second_derivative_matrix(g.nx, g.dx).T.tocsr()
    rng = np.random.default_rng(11)
    want = np.zeros(3)
    for _ in range(5):
        z = solve_adjoint_backward(P, g, random_final_state(rng, P, g))[0].z
        for var in (0, 1):
            blk = z[:, var * g.nx : (var + 1) * g.nx]
            for j, deriv in ((0, blk), (1, blk @ D1), (2, blk @ D2)):
                norms = sobolev_norms_batch(deriv, (1.0 - j) / 3.0, g.T)
                want[j] = max(want[j], float(np.max(norms)))
    assert np.array_equal(rep.c_hidden, want)


def test_observability_rejects_non_finite_estimates():
    # at T = 1e-300 the trace norms overflow; the report must not carry them
    g = Grid(L=1.0, N=16, T=1.0e-300, M=32)
    with pytest.raises(NumericalError, match="finite"):
        estimate_observability(FOUR_I, 3, P, g)


def marched_solve_control(cfg, init, target, tol, p, g, scheme=None, x0=None):
    """solve_control marching every step: the free evolution even from rest,
    and the verification.  Returns (controls, achieved, iterations,
    residuals, adjoint final data)."""
    theta = (scheme or SchemeConfig()).theta
    rhs = (np.concatenate([target.u, target.v])
           - pde.stepper(p, g, "forward", theta).run(np.concatenate([init.u, init.v]))[-1])
    z0 = np.concatenate([x0.u, x0.v]) if x0 is not None else None
    xsol, iters, hist = hum._cgls(gramian_operator(cfg, p, g, theta), rhs, tol,
                                  hum.MAXITER, x0=z0)
    final = StatePair(xsol[: g.nx].copy(), xsol[g.nx :].copy())
    adjoint, _ = solve_adjoint_backward(p, g, final, scheme=scheme)
    bundle = controls_from_adjoint(cfg, adjoint, p)
    traj, _ = solve_linear_forward(p, g, init, bundle.signals, scheme=scheme)
    return bundle, traj.final_state, iters, hist, final


def marched_nonlinear_control(init, target, cfg, p, g, scheme, tol):
    """The outer loop of solve_nonlinear_control on marched_solve_control;
    returns (controls, outer history, terminal error)."""
    fw = pde.stepper(p, g, "forward", scheme.theta)
    adjusted, warm, history = target.copy(), None, []
    tnorm = x_norm(target, p, g)
    for _ in range(scheme.picard_max):
        bundle, _, _, _, warm = marched_solve_control(cfg, init, adjusted, tol, p, g,
                                                      scheme, warm)
        traj, _ = pde.solve_nonlinear(p, g, init, bundle.signals, scheme=scheme)
        ups = fw.run(np.zeros(2 * g.nx), forcing=-pde.nonlinear_forcing(traj.z, p, g))[-1]
        new = StatePair(target.u + ups[: g.nx], target.v + ups[g.nx :])
        history.append(x_norm(StatePair(new.u - adjusted.u, new.v - adjusted.v), p, g)
                       / tnorm)
        adjusted = new
        if history[-1] <= scheme.picard_tol:
            break
    end = traj.final_state
    return bundle, history, x_norm(StatePair(end.u - target.u, end.v - target.v), p, g) / tnorm


def assert_same_controls(got, want):
    assert got.signals.as_array().tobytes() == want.signals.as_array().tobytes()
    assert got.norms == want.norms


@pytest.mark.parametrize("scale", [0.0, 0.05])
def test_solve_control_marches_the_free_evolution_only_from_a_nonzero_state(
        monkeypatch, scale):
    g = Grid(L=1.0, N=48, T=1.0, M=96)
    init = shaped_random_state(np.random.default_rng(6), g, scale=scale)
    target = gaussian_target(g)
    want = marched_solve_control(FOUR_I, init, target, 5e-3, P, g)
    runs = count_calls(monkeypatch, "run")
    res = solve_control(FOUR_I, init, target, 5e-3, P, g)
    # adjoint and verification; the free evolution too from a nonzero state
    assert len(runs) == (2 if scale == 0.0 else 3)
    assert_same_controls(res.controls, want[0])
    for got, ref in ((res.achieved, want[1]), (res.adjoint_final, want[4])):
        assert np.concatenate([got.u, got.v]).tobytes() == np.concatenate([ref.u, ref.v]).tobytes()
    assert (res.iterations, res.residuals) == (want[2], want[3])


@pytest.mark.parametrize("scale", [0.0, 1e-4])
def test_nonlinear_control_makes_no_discarded_march(monkeypatch, scale):
    p = Parameters(a=0.2, b=1.0, c=1.0, r=1.0, a1=0.4, a2=0.3)
    g = Grid(L=1.0, N=24, T=1.0, M=64)
    init = shaped_random_state(np.random.default_rng(9), g, scale=scale)
    target = gaussian_target(g, eps=1e-3)
    scheme = SchemeConfig(picard_tol=1e-6)
    controls, history, err = marched_nonlinear_control(init, target, FOUR_I, p, g,
                                                       scheme, 1e-3)
    runs = count_calls(monkeypatch, "run")
    sweeps = []
    picard = hum.solve_nonlinear

    def counting(*args, **kwargs):
        out = picard(*args, **kwargs)
        sweeps.append(len(out[0].picard_history))
        return out

    monkeypatch.setattr(hum, "solve_nonlinear", counting)
    res = solve_nonlinear_control(init, target, FOUR_I, 0.1, p, g, scheme=scheme,
                                  tol=1e-3)
    assert res.iterations == len(sweeps) >= 2
    # per outer iteration: the adjoint march, the Picard marches (one more
    # than its sweeps) and the Duhamel march; the free evolution only from
    # a nonzero state, and never a verification march
    free = 0 if scale == 0.0 else 1
    assert len(runs) == sum(3 + free + s for s in sweeps)
    assert_same_controls(res.controls, controls)
    assert res.history == history
    assert res.terminal_error == err
