"""Boundary control synthesis by duality (HUM) and observability estimation.

The control operator maps adjoint final data (phi_T, psi_T) to boundary
inputs read off the adjoint solution's traces:

    h1 = (c/b) (phi_x + a psi_x)(t, L)        g1 = c (a b phi_x + psi_x)(t, L)
    h0 = (c/b) R[ (phi_xx + a psi_xx)(t, 0) ]  g0 = c R[ (a b phi_xx + psi_xx)(t, 0) ]
    h2 = -(c/b) R[ (phi + a psi)(t, L) ]       g2 = -c R[ (a b phi + psi)(t, L) ]

where R is the Riesz multiplier of the trace's fractional class, so that
every active term of the duality identity becomes the squared class norm of
its trace combination.  The Gramian is the composition

    adjoint solve -> controls -> forward solve (zero init) -> state at T,

a linear map of the final data.  It is assembled once per (configuration,
parameters, grid, theta) as a dense matrix, by one transposed adjoint sweep
and one forward sweep of the boundary pulses.  The control problem
Gramian(x) = target - free evolution is solved by conjugate gradient on the
normal equations (CGLS) in the weighted state inner product, with the
exact transpose of the assembled matrix.  Plain CG on the Gramian itself is
not usable here: the forward/adjoint discretizations are only weak-sense
adjoints of each other, and the composite operator loses symmetry on
unresolved mesh-scale data.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .core import (
    SIGNAL_NAMES,
    ControlConfig,
    Grid,
    Parameters,
    StatePair,
    trapezoid_weights,
    validate_params,
    x_norm,
)
from .errors import (
    ConstraintViolation,
    FeasibilityError,
    NonConvergence,
    NumericalError,
)
from .fdops import boundary_stencils, second_derivative_matrix
from .pde import (
    BoundarySignals,
    SchemeConfig,
    Trajectory,
    _first_derivative,
    nonlinear_forcing,
    solve_adjoint_backward,
    solve_linear_forward,
    solve_nonlinear,
    stepper,
)
from .tracenorm import riesz_columns, sobolev_norms_batch, sobolev_trace_norm

__all__ = [
    "ControlBundle",
    "ObservabilityReport",
    "ControlResult",
    "NonlinearControlResult",
    "controls_from_adjoint",
    "gramian_apply",
    "gramian_operator",
    "solve_control",
    "estimate_observability",
    "solve_nonlinear_control",
    "random_final_state",
]

# fractional class of each control's paired trace combination; the control
# signal itself (Dirichlet / Neumann / second derivative) has the opposite one
TRACE_CLASS = dict(zip(SIGNAL_NAMES, (-1 / 3, 0.0, 1 / 3) * 2))
CONTROL_CLASS = {name: 0.0 - s for name, s in TRACE_CLASS.items()}
# the CGLS iteration cap, and the samples of the three-control gate
MAXITER = 500
FEASIBILITY_SAMPLES = 8


def _coefficients(p: Parameters) -> dict:
    cb = p.c / p.b
    return dict(zip(SIGNAL_NAMES, (cb, cb, -cb, p.c, p.c, -p.c)))


@dataclass
class ControlBundle:
    """Boundary control signals with their configuration and class norms."""

    signals: BoundarySignals
    config: ControlConfig
    norms: dict

    def as_json_dict(self) -> dict:
        return {
            "config": self.config.kind.value,
            "mask": list(self.config.mask),
            "norms": {k: float(v) for k, v in self.norms.items()},
            "signals": {n: getattr(self.signals, n).tolist() for n in SIGNAL_NAMES},
        }


@dataclass
class ObservabilityReport:
    """Sampled observability quotients and hidden-regularity constants."""

    config: ControlConfig
    L: float
    T: float
    quotient_min: float
    sample_count: int
    c_hidden: np.ndarray
    quotients: np.ndarray = field(default=None)
    rejected: int = 0

    @property
    def c1_squared(self) -> float:
        return float(self.c_hidden[1] ** 2)

    def feasible_three_control(self, p: Parameters) -> bool:
        gap = 1.0 - p.a**2 * p.b
        return 0.0 < self.c1_squared * gap < p.c

    def as_json_dict(self) -> dict:
        return {
            "config": self.config.kind.value,
            "L": self.L,
            "T": self.T,
            "quotient_min": float(self.quotient_min),
            "sample_count": int(self.sample_count),
            "c_hidden": [float(v) for v in self.c_hidden],
            "c1_squared": self.c1_squared,
            "rejected": int(self.rejected),
        }


@dataclass
class ControlResult:
    controls: ControlBundle
    achieved: StatePair
    iterations: int
    residuals: list
    adjoint_final: StatePair


@dataclass
class NonlinearControlResult:
    controls: ControlBundle
    iterations: int
    history: list
    terminal_error: float
    achieved: StatePair
    trajectory: Trajectory


def combo_read_vectors(p: Parameters, g: Grid) -> np.ndarray:
    """Read-out vectors r with combo_s(t) = r_s . stacked state(t).

    Order h0..g2; combinations are the ones appearing in the observability
    inequalities: second derivatives at x = 0 for h0/g0, first derivatives
    at x = L for h1/g1, values at x = L for h2/g2.
    """
    st = boundary_stencils(g.nx, g.dx)
    nx = g.nx
    a, b = p.a, p.b

    def vec(key, w_u, w_v):
        cols, wts = st[key]
        out = np.zeros(2 * nx)
        out[cols] = w_u * wts
        out[nx + cols] = w_v * wts
        return out

    return np.stack(
        [
            vec(("left", 2), 1.0, a),        # h0 slot
            vec(("right", 1), 1.0, a),       # h1 slot
            vec(("right", 0), 1.0, a),       # h2 slot
            vec(("left", 2), a * b, 1.0),    # g0 slot
            vec(("right", 1), a * b, 1.0),   # g1 slot
            vec(("right", 0), a * b, 1.0),   # g2 slot
        ]
    )


def _active(cfg: ControlConfig) -> list:
    return [i for i in range(6) if cfg.mask[i]]


def _controls_in_place(rows: np.ndarray, active: list, p: Parameters, T: float):
    """Turn each combination history ``rows[k]`` of signal ``active[k]``
    (time along its first axis) into the control history coef_i R_i of
    that signal, in place."""
    coef = _coefficients(p)
    for row, i in zip(rows, active):
        name = SIGNAL_NAMES[i]
        riesz_columns(row, TRACE_CLASS[name], T)
        row *= coef[name]


def controls_from_adjoint(
    cfg: ControlConfig, traj: Trajectory, p: Parameters
) -> ControlBundle:
    """Boundary controls read off an adjoint trajectory, masked to the
    configuration.

    Inactive signals are identically zero.  Active ones are the scaled
    (Riesz-weighted, for the fractional classes) trace combinations, so the
    duality pairing against the adjoint solution becomes the sum of squared
    class norms of the active combinations.
    """
    validate_params(p)
    g = traj.grid
    active = _active(cfg)
    sig = np.zeros((6, g.nt))
    rows = combo_read_vectors(p, g)[active] @ traj.z.T
    _controls_in_place(rows, active, p, g.T)
    sig[active] = rows
    norms = {
        name: sobolev_trace_norm(sig[i], CONTROL_CLASS[name], g.T)
        for i, name in enumerate(SIGNAL_NAMES)
    }
    return ControlBundle(signals=BoundarySignals.from_array(sig), config=cfg,
                         norms=norms)


class GramianOperator:
    """The HUM map G, assembled once as a dense (2nx, 2nx) matrix.

    G = sum over active signals i of coef_i F_i R_i Theta_i, with Theta_i
    the read-outs of the adjoint trace combination i at every level, R_i
    its Riesz multiplier along time and F_i the forward responses at T to
    unit pulses on boundary row i.  Theta comes from one transposed adjoint
    block sweep, F from one forward block sweep; build it through the
    cached ``gramian_operator``.
    """

    def __init__(self, cfg: ControlConfig, p: Parameters, g: Grid, theta: float = 0.5):
        validate_params(p)
        self.cfg, self.p, self.g = cfg, p, g
        w = trapezoid_weights(g.nx, g.dx)
        self.w_stacked = np.concatenate([(p.b / p.c) * w, w])
        fw = stepper(p, g, "forward", theta)
        ad = stepper(p, g, "adjoint", theta)
        active = _active(cfg)
        # Theta, turned in place into the control histories coef_i R_i Theta_i
        d = ad.readout_transpose(combo_read_vectors(p, g)[active])
        _controls_in_place(d, active, p, g.T)
        self.G = fw.input_transpose(d, active).T
        if not np.all(np.isfinite(self.G)):
            raise NumericalError("Gramian assembly lost finiteness")
        self.G.flags.writeable = False  # shared through the cache

    def xdot(self, z1: np.ndarray, z2: np.ndarray) -> float:
        return float(np.sum(self.w_stacked * z1 * z2))

    def apply(self, z_final: np.ndarray) -> np.ndarray:
        return self.G @ z_final

    def apply_star(self, y: np.ndarray) -> np.ndarray:
        """The transpose of ``apply`` in the weighted inner product."""
        return (self.G.T @ (self.w_stacked * y)) / self.w_stacked


@functools.lru_cache(maxsize=8)
def gramian_operator(cfg: ControlConfig, p: Parameters, g: Grid,
                     theta: float) -> GramianOperator:
    """The assembled Gramian of a key, shared by all callers (read-only);
    pass the arguments positionally, so that equal keys share one entry."""
    return GramianOperator(cfg, p, g, theta)


def gramian_apply(
    cfg: ControlConfig, final: StatePair, p: Parameters, g: Grid,
    scheme: SchemeConfig = None,
) -> StatePair:
    """Adjoint solve -> controls -> forward solve from rest; state at t = T."""
    final.check(g)
    op = gramian_operator(cfg, p, g, (scheme or SchemeConfig()).theta)
    out = op.apply(np.concatenate([final.u, final.v]))
    return StatePair(out[: g.nx].copy(), out[g.nx :].copy())


def _cgls(op: GramianOperator, rhs: np.ndarray, tol: float, maxiter: int,
          x0: np.ndarray = None):
    """CG on the normal equations in the weighted state inner product.

    The normal residual directions are kept fully orthogonal (modified
    Gram-Schmidt against all previous ones); without this, roundoff stalls
    the iteration well above the target on ill-conditioned configurations.
    Each iteration costs two dense products with the assembled Gramian and
    one pass over the stored basis.
    """
    nrhs = np.sqrt(op.xdot(rhs, rhs))
    x = np.zeros_like(rhs) if x0 is None else x0.copy()
    res = rhs - op.apply(x) if x0 is not None else rhs.copy()
    s = op.apply_star(res)
    gam = op.xdot(s, s)
    hist = [np.sqrt(op.xdot(res, res)) / nrhs]
    if hist[0] <= tol:
        return x, 0, hist
    pdir = s.copy()
    basis = [s / np.sqrt(gam)] if gam > 0 else []
    best_x, best_res = x.copy(), hist[0]
    for it in range(1, maxiter + 1):
        if gam <= 0:
            break
        q = op.apply(pdir)
        qq = op.xdot(q, q)
        if qq <= 0:
            break
        alpha = gam / qq
        x = x + alpha * pdir
        res = res - alpha * q
        rel = np.sqrt(op.xdot(res, res)) / nrhs
        hist.append(rel)
        if rel < best_res:
            best_x, best_res = x.copy(), rel
        if rel <= tol:
            return x, it, hist
        s = op.apply_star(res)
        for u in basis:
            s = s - op.xdot(s, u) * u
        gam_new = op.xdot(s, s)
        if gam_new <= 0:
            break
        basis.append(s / np.sqrt(gam_new))
        pdir = s + (gam_new / gam) * pdir
        gam = gam_new
    if best_res <= 10 * tol:
        return best_x, len(hist) - 1, hist
    raise NonConvergence(
        f"control CG stalled at relative residual {best_res:.3e} "
        f"(target {tol:.1e}, {len(hist) - 1} iterations)",
        history=hist,
    )


def _steer(
    cfg: ControlConfig,
    init: StatePair,
    target: StatePair,
    tol: float,
    p: Parameters,
    g: Grid,
    scheme: SchemeConfig = None,
    x0: StatePair = None,
    check_feasibility: bool = True,
) -> tuple:
    """The controls of ``solve_control``, without its verification march.

    Returns (ControlBundle, iterations, residuals, adjoint final data).
    """
    validate_params(p)
    init.check(g)
    target.check(g)
    if cfg.is_three_control and check_feasibility:
        rep = estimate_observability(cfg, FEASIBILITY_SAMPLES, p, g, scheme=scheme)
        if not rep.feasible_three_control(p):
            gap = 1.0 - p.a**2 * p.b
            raise FeasibilityError(
                f"three-control condition failed: C1 (1 - a^2 b) = "
                f"{rep.c1_squared * gap:.4g} not inside (0, c = {p.c:.4g})"
            )
    theta = (scheme or SchemeConfig()).theta
    z_init = np.concatenate([init.u, init.v])
    rhs = np.concatenate([target.u, target.v])
    if np.any(z_init):  # the homogeneous march keeps a zero state at zero
        rhs = rhs - stepper(p, g, "forward", theta).run(z_init)[-1]
    if x_norm(StatePair(rhs[: g.nx], rhs[g.nx :]), p, g) < 1e-14:
        bundle = ControlBundle(
            signals=BoundarySignals.zeros(g), config=cfg,
            norms={n: 0.0 for n in SIGNAL_NAMES},
        )
        return bundle, 0, [0.0], StatePair.zeros(g)
    z0 = np.concatenate([x0.u, x0.v]) if x0 is not None else None
    op = gramian_operator(cfg, p, g, theta)
    xsol, iters, hist = _cgls(op, rhs, tol, MAXITER, x0=z0)
    adjoint_final = StatePair(xsol[: g.nx].copy(), xsol[g.nx :].copy())
    adjoint, _ = solve_adjoint_backward(p, g, adjoint_final, scheme=scheme)
    return controls_from_adjoint(cfg, adjoint, p), iters, hist, adjoint_final


def solve_control(
    cfg: ControlConfig,
    init: StatePair,
    target: StatePair,
    tol: float,
    p: Parameters,
    g: Grid,
    scheme: SchemeConfig = None,
    x0: StatePair = None,
    check_feasibility: bool = True,
) -> ControlResult:
    """Steer ``init`` to ``target`` at time T with the masked boundary controls.

    Solves Gramian(x) = target - free evolution by CGLS until the relative
    residual (which equals the terminal error, by linearity) drops below
    ``tol``; the achieved state is re-verified with a plain forward solve
    using the returned controls.
    """
    bundle, iters, hist, adjoint_final = _steer(
        cfg, init, target, tol, p, g, scheme, x0, check_feasibility)
    traj, _ = solve_linear_forward(p, g, init, bundle.signals, scheme=scheme)
    return ControlResult(
        controls=bundle,
        achieved=traj.final_state,
        iterations=iters,
        residuals=hist,
        adjoint_final=adjoint_final,
    )


def _mollify(f: np.ndarray, passes: int = 3) -> np.ndarray:
    for _ in range(passes):
        out = f.copy()
        out[1:-1] = 0.25 * f[:-2] + 0.5 * f[1:-1] + 0.25 * f[2:]
        out[0] = 0.5 * (f[0] + f[1])
        out[-1] = 0.5 * (f[-1] + f[-2])
        f = out
    return f


def resolved_mode_count(g: Grid) -> int:
    """Largest cosine mode whose dispersive time scale the grid resolves.

    A spatial mode k pi / L oscillates at frequency ~ (k pi / L)^3; modes
    beyond the Nyquist-resolved band saturate the discrete trace norms at
    mesh-dependent values, so quotient and constant estimates sample only
    the resolved band (which widens under refinement).  The band is capped
    at N + 1 modes, the most the spatial grid can carry; without the cap a
    tiny T asks for astronomically many.
    """
    k = (np.pi / g.dt) ** (1.0 / 3.0) * g.L / np.pi
    return int(min(max(2.0, k), g.N + 1))


def random_final_state(rng: np.random.Generator, p: Parameters, g: Grid) -> StatePair:
    """Unit-norm random final data for observability sampling.

    Random trigonometric series over the time-resolved modal band, softened
    by three nearest-neighbor averaging passes; raw nodal noise would put
    most of its energy where the scheme cannot propagate it and inflate
    every trace-norm estimate with the mesh.
    """
    kres = resolved_mode_count(g)
    xh = g.x / g.L
    comps = []
    for _ in range(2):
        f = np.zeros(g.nx)
        for k in range(1, kres + 1):
            f += rng.standard_normal() * np.sin(k * np.pi * xh)
            f += rng.standard_normal() * np.cos(k * np.pi * xh)
        comps.append(_mollify(f))
    s = StatePair(*comps)
    nrm = x_norm(s, p, g)
    if nrm < 1e-14:
        return random_final_state(rng, p, g)
    s.u /= nrm
    s.v /= nrm
    return s


def _quotient(cfg: ControlConfig, z: np.ndarray, nrm: float, p: Parameters,
              g: Grid) -> float:
    """The observability quotient of the adjoint trajectory ``z`` (M+1, 2nx)
    marched from final data of X-norm ``nrm``.  Each active term is the
    trapezoid pairing of the control read off ``z`` with its combination
    c_i, <coef_i R_i c_i, c_i> / coef_i, which is ||c_i||^2 in the class of
    c_i (an exact identity of the discrete Riesz map)."""
    active = _active(cfg)
    combos = combo_read_vectors(p, g)[active] @ z.T
    controls = combos.copy()
    _controls_in_place(controls, active, p, g.T)
    coef = np.array([_coefficients(p)[SIGNAL_NAMES[i]] for i in active])
    pairs = (controls * combos) @ trapezoid_weights(g.nt, g.dt) / coef
    return float(np.sum(pairs)) / nrm**2


def estimate_observability(
    cfg: ControlConfig,
    nsamples: int,
    p: Parameters,
    g: Grid,
    seed: int = 0,
    scheme: SchemeConfig = None,
) -> ObservabilityReport:
    """Sample the observability quotient and hidden-regularity constants.

    For unit-norm random final data the report records the smallest observed
    quotient and, for each derivative order j, the largest H^{(1-j)/3}(0,T)
    norm of the adjoint traces over every grid abscissa (the discrete
    surrogate of the hidden-regularity constants C_j).  All samples are
    drawn first and marched as one block; each is then read from its slice.
    Raises NumericalError when a quotient or constant is not finite.
    """
    validate_params(p)
    if nsamples < 1:
        raise ValueError("nsamples must be >= 1")
    rng = np.random.default_rng(seed)
    finals = [random_final_state(rng, p, g) for _ in range(nsamples)]
    ad = stepper(p, g, "adjoint", (scheme or SchemeConfig()).theta)
    block = ad.run(np.stack([np.concatenate([f.u, f.v]) for f in finals], axis=1))
    D1 = _first_derivative(g.nx, g.dx)[1]
    D2 = second_derivative_matrix(g.nx, g.dx).T.tocsr()
    quots = np.empty(nsamples)
    c_hidden = np.zeros(3)
    # overflow only happens on a degenerate time grid; the check below turns
    # it into a clean error
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (final, states) in enumerate(zip(finals, block)):
            quots[k] = _quotient(cfg, states, x_norm(final, p, g), p, g)
            for var in (0, 1):
                blk = states[:, var * g.nx : (var + 1) * g.nx]
                for j, deriv in ((0, blk), (1, blk @ D1), (2, blk @ D2)):
                    norms = sobolev_norms_batch(deriv, (1.0 - j) / 3.0, g.T)
                    c_hidden[j] = np.maximum(c_hidden[j], np.max(norms))
    if not (np.all(np.isfinite(quots)) and np.all(np.isfinite(c_hidden))):
        raise NumericalError("observability estimates lost finiteness")
    return ObservabilityReport(
        config=cfg,
        L=g.L,
        T=g.T,
        quotient_min=float(np.min(quots)),
        sample_count=nsamples,
        c_hidden=c_hidden,
        quotients=quots,
    )


def solve_nonlinear_control(
    init: StatePair,
    target: StatePair,
    cfg: ControlConfig,
    delta: float,
    p: Parameters,
    g: Grid,
    scheme: SchemeConfig = None,
    tol: float = 1e-3,
    self_terms: bool = True,
) -> NonlinearControlResult:
    """Fixed-point loop steering the full nonlinear system to ``target``.

    Each sweep solves the linear control problem toward the target adjusted
    by the endpoint Duhamel correction of the current nonlinear trajectory,
    then re-simulates the nonlinear system with the new controls.  Fails
    with NonConvergence when the data is too large for contraction.
    """
    validate_params(p)
    scheme = scheme or SchemeConfig(picard_tol=1e-6)
    sizes = x_norm(init, p, g) + x_norm(target, p, g)
    if sizes > delta:
        raise ConstraintViolation(
            f"data too large: ||init|| + ||target|| = {sizes:.3g} > delta = {delta:.3g}"
        )
    fw = stepper(p, g, "forward", scheme.theta)
    adjusted = target.copy()
    warm = None
    history = []
    controls = None
    traj = None
    tnorm = max(x_norm(target, p, g), 1e-30)
    converged = False
    for it in range(1, scheme.picard_max + 1):
        # solve_control's verification march is left out: its achieved
        # state would not be read
        controls, _, _, warm = _steer(cfg, init, adjusted, tol, p, g, scheme,
                                      warm, check_feasibility=(it == 1))
        try:
            traj, _ = solve_nonlinear(p, g, init, controls.signals,
                                      scheme=scheme, self_terms=self_terms)
        except (NonConvergence, NumericalError) as exc:
            raise NonConvergence(
                "nonlinear resimulation diverged (delta too large); outer "
                f"history {history}",
                history=history,
            ) from exc
        # endpoint Duhamel correction of the nonlinear terms
        forc = -nonlinear_forcing(traj.z, p, g, self_terms)
        ups = fw.run(np.zeros(2 * g.nx), forcing=forc)[-1]
        adjusted_new = StatePair(target.u + ups[: g.nx], target.v + ups[g.nx :])
        change = x_norm(
            StatePair(adjusted_new.u - adjusted.u, adjusted_new.v - adjusted.v),
            p, g,
        )
        history.append(change / tnorm)
        adjusted = adjusted_new
        if history[-1] <= scheme.picard_tol:
            converged = True
            break
        if len(history) >= 3 and history[-1] > 4.0 * history[0]:
            raise NonConvergence(
                "outer fixed point diverging (delta too large); "
                f"contraction history {history}",
                history=history,
            )
    if not converged and history and history[-1] > 10 * scheme.picard_tol:
        raise NonConvergence(
            f"outer fixed point did not settle in {scheme.picard_max} sweeps; "
            f"history {history}",
            history=history,
        )
    terminal = traj.final_state
    err = x_norm(StatePair(terminal.u - target.u, terminal.v - target.v), p, g)
    return NonlinearControlResult(
        controls=controls,
        iterations=it,
        history=history,
        terminal_error=err / tnorm,
        achieved=terminal,
        trajectory=traj,
    )


