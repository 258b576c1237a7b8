"""Boundary control synthesis by duality (HUM) and observability estimation.

The control operator maps adjoint final data (phi_T, psi_T) to boundary
inputs read off the adjoint solution's traces: each signal of
``core.SIGNALS`` is its coefficient times R[its paired trace combination],
R the Riesz multiplier of the combination's fractional class, so that every
active term of the duality identity becomes the squared class norm of its
trace combination.  The Gramian is the composition

    adjoint solve -> controls -> forward solve (zero init) -> state at T,

a linear map of the final data.  It is assembled once per (configuration,
parameters, grid, theta) as a dense matrix, by one transposed adjoint sweep
and one forward sweep of the boundary pulses.  The control problem
Gramian(x) = target - free evolution is solved by conjugate gradient on the
normal equations (CGLS) in the weighted state inner product, with the
exact transpose of the assembled matrix, and the controls of its solution
are read off the control histories the assembly kept.  Plain CG on the
Gramian itself is not usable here: the forward/adjoint discretizations are
only weak-sense adjoints of each other, and the composite operator loses
symmetry on unresolved mesh-scale data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    SIGNAL_NAMES,
    SIGNALS,
    ControlConfig,
    Grid,
    Parameters,
    StatePair,
    _binary_exponent,
    _stacked,
    _x_sum,
    pair_weights,
    trapezoid_weights,
    x_norm,
    x_weights,
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
    Stepper,
    _stencils,
    nonlinear_forcing,
    solve_nonlinear,
    stepper,
)
from .tracenorm import riesz_columns, sobolev_norms_batch, sobolev_trace_norm

__all__ = [
    "ControlBundle",
    "ObservabilityReport",
    "ControlResult",
    "NonlinearControlResult",
    "gramian_operator",
    "solve_control",
    "estimate_observability",
    "solve_nonlinear_control",
    "check_data_size",
    "random_final_state",
]

# the fractional class of each control signal, opposite to its combination's
CONTROL_CLASS = {s.name: 0.0 - s.trace_class for s in SIGNALS}
# the samples of the three-control gate
FEASIBILITY_SAMPLES = 8
# the most observe samples marched as one block: their trajectories are the
# largest memory an observe run holds
OBSERVE_GROUP = 5


@dataclass
class ControlBundle:
    """Boundary control signals with their class norms."""

    signals: BoundarySignals
    norms: dict


@dataclass
class ObservabilityReport:
    """Sampled observability quotients and hidden-regularity constants."""

    config: ControlConfig
    L: float
    T: float
    quotient_min: float
    sample_count: int
    c_hidden: np.ndarray
    quotients: np.ndarray

    @property
    def c1_squared(self) -> float:
        return float(self.c_hidden[1] ** 2)

    def feasible_three_control(self, p: Parameters) -> bool:
        gap = 1.0 - p.a**2 * p.b
        return 0.0 < self.c1_squared * gap < p.c


@dataclass
class ControlResult:
    """``terminal_error`` is ||achieved - target||_X / ||target||_X."""

    controls: ControlBundle
    achieved: StatePair
    iterations: int
    residuals: list
    adjoint_final: StatePair
    terminal_error: float


@dataclass
class NonlinearControlResult:
    controls: ControlBundle
    iterations: int
    history: list
    terminal_error: float
    achieved: StatePair


def combo_read_vectors(p: Parameters, g: Grid) -> np.ndarray:
    """Read-out vectors r with combo_s(t) = r_s . stacked state(t).

    Order h0..g2; row s reads the adjoint combination ``core.SIGNALS[s]``
    is paired with: its trace of (phi, psi), with the ``pair_weights``.
    """
    st = boundary_stencils(g.nx, g.dx)
    out = np.zeros((6, 2 * g.nx))
    for row, s in zip(out, SIGNALS):
        cols, wts = st[s.paired]
        w_u, w_v = pair_weights(p, s.var)
        row[cols] = w_u * wts
        row[g.nx + cols] = w_v * wts
    return out


def _pair(z: np.ndarray, g: Grid) -> StatePair:
    return StatePair(z[: g.nx].copy(), z[g.nx :].copy())


def _controls_in_place(rows: np.ndarray, active: list, p: Parameters, T: float):
    """Turn each combination history ``rows[k]`` of signal ``active[k]``
    (time along its first axis) into the control history coef_i R_i of
    that signal, in place."""
    for row, i in zip(rows, active):
        riesz_columns(row, SIGNALS[i].trace_class, T)
        row *= SIGNALS[i].coefficient(p)


def _bundle(sig: np.ndarray, T: float) -> ControlBundle:
    """The ControlBundle of the (6, M+1) signal array ``sig``, with the
    class norm of each row."""
    norms = {
        name: sobolev_trace_norm(sig[i], CONTROL_CLASS[name], T)
        for i, name in enumerate(SIGNAL_NAMES)
    }
    return ControlBundle(signals=BoundarySignals.from_array(sig), norms=norms)


class GramianOperator:
    """The HUM map G, assembled once as a dense (2nx, 2nx) matrix.

    G = sum over active signals i of coef_i F_i R_i Theta_i, with Theta_i
    the read-outs of the adjoint trace combination i at every level, R_i
    its Riesz multiplier along time and F_i the forward responses at T to
    unit pulses on boundary row i.  Theta comes from one transposed adjoint
    block sweep, F from one forward block sweep; build it through the
    cached ``gramian_operator``.  The control histories
    d = coef_i R_i Theta_i (k, M+1, 2nx) of the k active signals are kept,
    read-only: by linearity, the controls of final data x are d @ x.  W
    holds the X-norm weights of ``x_weights``.
    """

    def __init__(self, cfg: ControlConfig, p: Parameters, g: Grid, theta: float = 0.5):
        self.cfg, self.p, self.g = cfg, p, g
        self.W = x_weights(p, g)
        fw = stepper(p, g, "forward", theta)
        ad = stepper(p, g, "adjoint", theta)
        self.active = list(cfg.active)
        # Theta, turned in place into the control histories coef_i R_i Theta_i
        self.d = ad.readout_transpose(combo_read_vectors(p, g)[self.active])
        _controls_in_place(self.d, self.active, p, g.T)
        self.G = fw.input_transpose(self.d, self.active).T
        if not np.all(np.isfinite(self.G)):
            raise NumericalError("Gramian assembly lost finiteness")
        self.G.flags.writeable = False  # shared through the cache
        self.d.flags.writeable = False

    def xdot(self, z1: np.ndarray, z2: np.ndarray) -> float:
        return float(_x_sum(self.W, z1, z2))

    def apply(self, z_final: np.ndarray) -> np.ndarray:
        return self.G @ z_final

    def apply_star(self, y: np.ndarray) -> np.ndarray:
        """The transpose of ``apply`` in the weighted inner product."""
        return (self.G.T @ (self.W * y)) / self.W

    def controls(self, z_final: np.ndarray) -> np.ndarray:
        """The (6, M+1) control signals of the final data ``z_final``: the
        ones whose forward response from rest is ``apply(z_final)``, with
        zeros in the inactive rows."""
        sig = np.zeros((6, self.g.nt))
        sig[self.active] = self.d @ z_final
        return sig


_GRAMIAN = {}  # the one kept key -> its operator


def gramian_operator(cfg: ControlConfig, p: Parameters, g: Grid,
                     theta: float) -> GramianOperator:
    """The assembled Gramian of a key, shared by all callers (read-only).

    One key is kept: the previous operator is dropped before a new key is
    assembled, so its control histories never share the peak with the new
    ones.  ``gramian_operator.cache_clear()`` drops it."""
    key = (cfg, p, g, theta)
    op = _GRAMIAN.get(key)
    if op is None:
        _GRAMIAN.clear()
        op = _GRAMIAN[key] = GramianOperator(cfg, p, g, theta)
    return op


gramian_operator.cache_clear = _GRAMIAN.clear


def _cgls(op: GramianOperator, rhs: np.ndarray, tol: float, x0: np.ndarray = None):
    """CG on the normal equations in the weighted state inner product.

    The normal residual directions are kept fully orthogonal (modified
    Gram-Schmidt against all previous ones); without this, roundoff stalls
    the iteration well above the target on ill-conditioned configurations.
    Each iteration costs two dense products with the assembled Gramian and
    one pass over the stored basis.  Stops at ``tol``, a breakdown or after
    ``len(rhs)`` iterations, the most directions the basis can hold; returns
    the best iterate, its number and the residual history up to it if it is
    within ``tol``, or within 10·tol and below the residual 1 of no control,
    else raises NonConvergence.
    """
    nrhs = np.sqrt(op.xdot(rhs, rhs))
    x = np.zeros_like(rhs) if x0 is None else x0.copy()
    res = rhs - op.apply(x) if x0 is not None else rhs.copy()
    s = op.apply_star(res)
    gam = op.xdot(s, s)
    hist = [np.sqrt(op.xdot(res, res)) / nrhs]
    pdir = s.copy()
    basis = [s / np.sqrt(gam)] if gam > 0 else []
    best, k_best = x, 0
    for it in range(1, len(rhs) + 1):
        if hist[-1] <= tol or gam <= 0:
            break
        q = op.apply(pdir)
        qq = op.xdot(q, q)
        if qq <= 0:
            break
        alpha = gam / qq
        x = x + alpha * pdir
        res = res - alpha * q
        hist.append(np.sqrt(op.xdot(res, res)) / nrhs)
        if hist[-1] < hist[k_best]:
            best, k_best = x, it
        if hist[-1] <= tol:
            break
        s = op.apply_star(res)
        for u in basis:
            s = s - op.xdot(s, u) * u
        gam_new = op.xdot(s, s)
        if gam_new > 0:
            basis.append(s / np.sqrt(gam_new))
            pdir = s + (gam_new / gam) * pdir
        gam = gam_new
    res_best = hist[k_best]
    if not (res_best <= tol or (res_best <= 10 * tol and res_best < 1)):  # NaN too
        raise NonConvergence(
            f"control CG stalled at relative residual {res_best:.3e} "
            f"(target {tol:.1e}, {len(hist) - 1} iterations)",
            history=hist,
        )
    return best, k_best, hist[:k_best + 1]


def _three_control_gate(cfg: ControlConfig, p: Parameters, g: Grid,
                        scheme: SchemeConfig):
    """Raise FeasibilityError unless a three-control configuration passes
    0 < C1 (1 - a^2 b) < c; other configurations pass untested."""
    if not cfg.is_three_control:
        return
    rep = estimate_observability(cfg, FEASIBILITY_SAMPLES, p, g, scheme=scheme)
    if not rep.feasible_three_control(p):
        gap = 1.0 - p.a**2 * p.b
        raise FeasibilityError(
            f"three-control condition failed: C1 (1 - a^2 b) = "
            f"{rep.c1_squared * gap:.4g} not inside (0, c = {p.c:.4g})"
        )


def _free_end(fw: Stepper, z_init: np.ndarray):
    """The stacked state the uncontrolled march from ``z_init`` reaches at
    T, or None from a zero state, which that march keeps at zero."""
    return fw.run(z_init)[-1] if np.any(z_init) else None


# extreme T overflows: the Gramian, CGLS stall and strict-JSON checks catch it
@np.errstate(over="ignore", invalid="ignore")
def _steer(
    cfg: ControlConfig,
    z_free: np.ndarray,
    z_target: np.ndarray,
    tol: float,
    p: Parameters,
    g: Grid,
    scheme: SchemeConfig = None,
    x0: np.ndarray = None,
) -> tuple:
    """The controls that add ``z_target - z_free`` to the state at T (the
    free end ``z_free`` of ``_free_end``, None for zero), without
    ``solve_control``'s checks, gate and verification march.

    CGLS starts at the stacked final data ``x0`` (the nonlinear loop's warm
    start), or at zero.  Returns (ControlBundle, iterations, residuals,
    stacked adjoint final data).
    """
    theta = (scheme or SchemeConfig()).theta
    rhs = z_target if z_free is None else z_target - z_free
    if not np.any(rhs):  # CGLS is scale-free: only exact zero is skipped
        return _bundle(np.zeros((6, g.nt)), g.T), 0, [0.0], np.zeros(2 * g.nx)
    op = gramian_operator(cfg, p, g, theta)
    # CGLS runs on rhs scaled by a power of two, exactly, so that the
    # squares of a tiny rhs do not underflow
    e = _binary_exponent(rhs)
    xsol, iters, hist = _cgls(op, np.ldexp(rhs, -e), tol,
                              x0=None if x0 is None else np.ldexp(x0, -e))
    xsol = np.ldexp(xsol, e)
    return _bundle(op.controls(xsol), g.T), iters, hist, xsol


def _x_ratio(z: np.ndarray, z_target: np.ndarray, p: Parameters, g: Grid) -> float:
    """||z||_X / ||target||_X; an exactly zero target counts as norm 1e-30."""
    return x_norm(z, p, g) / (x_norm(z_target, p, g) if np.any(z_target) else 1e-30)


def solve_control(
    cfg: ControlConfig,
    init: StatePair,
    target: StatePair,
    tol: float,
    p: Parameters,
    g: Grid,
    scheme: SchemeConfig = None,
) -> ControlResult:
    """Steer ``init`` to ``target`` at time T with the masked boundary controls.

    A three-control configuration first takes the feasibility gate.  Solves
    Gramian(x) = target - free evolution by CGLS from x = 0 until the
    relative residual (which equals the terminal error, by linearity) drops
    below ``tol``; the achieved state is re-verified with a plain forward
    solve using the returned controls.
    """
    init.check(g)
    target.check(g)
    _three_control_gate(cfg, p, g, scheme)
    z_init, z_target = _stacked(init, g), _stacked(target, g)
    fw = stepper(p, g, "forward", (scheme or SchemeConfig()).theta)
    bundle, iters, hist, xsol = _steer(cfg, _free_end(fw, z_init), z_target, tol,
                                       p, g, scheme)
    achieved = fw.run(z_init, bc=bundle.signals.as_array())[-1]
    return ControlResult(
        controls=bundle,
        achieved=_pair(achieved, g),
        iterations=iters,
        residuals=hist,
        adjoint_final=_pair(xsol, g),
        terminal_error=_x_ratio(achieved - z_target, z_target, p, g),
    )


def _mollify(f: np.ndarray) -> np.ndarray:
    for _ in range(3):  # the passes random_final_state documents
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
    every trace-norm estimate with the mesh.  A draw is never retried: one
    whose X-norm is not positive and finite raises NumericalError.
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
    if not (0.0 < nrm < np.inf):
        raise NumericalError(f"random final data has X-norm {nrm!r}")
    s.u /= nrm
    s.v /= nrm
    return s


def _quotient(terms: tuple, z: np.ndarray, nrm: float, p: Parameters,
              g: Grid) -> float:
    """The observability quotient of the adjoint trajectory ``z`` (M+1, 2nx)
    marched from final data of X-norm ``nrm``, with ``terms`` those of
    ``_quotient_terms``.  Each active term is the trapezoid pairing of the
    control read off ``z`` with its combination c_i,
    <coef_i R_i c_i, c_i> / coef_i, which is ||c_i||^2 in the class of c_i
    (an exact identity of the discrete Riesz map)."""
    active, read, coef, weights = terms
    combos = read @ z.T
    controls = combos.copy()
    _controls_in_place(controls, active, p, g.T)
    pairs = (controls * combos) @ weights / coef
    return float(np.sum(pairs)) / nrm**2


def _quotient_terms(cfg: ControlConfig, p: Parameters, g: Grid) -> tuple:
    """The active signals of ``cfg``, their read-out vectors and
    coefficients and the time trapezoid weights, which ``_quotient`` reads
    for every sample."""
    active = cfg.active
    read = combo_read_vectors(p, g)[list(active)]
    coef = np.array([SIGNALS[i].coefficient(p) for i in active])
    return active, read, coef, trapezoid_weights(g.nt, g.dt)


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
    drawn first, then marched in groups of at most ``OBSERVE_GROUP``, each
    group reduced to its quotients and constants before the next is marched;
    a sample's march has the bytes of that sample marched alone.  A march
    that loses finiteness raises from the first group that does, with that
    group's first non-finite time level.
    Raises NumericalError when a quotient or constant is not finite.
    """
    if nsamples < 1:
        raise ValueError("nsamples must be >= 1")
    rng = np.random.default_rng(seed)
    finals = [random_final_state(rng, p, g) for _ in range(nsamples)]
    ad = stepper(p, g, "adjoint", (scheme or SchemeConfig()).theta)
    terms = _quotient_terms(cfg, p, g)
    derivs = (_stencils(g.nx, g.dx)[4], second_derivative_matrix(g.nx, g.dx))
    quots = np.empty(nsamples)
    c_hidden = np.zeros(3)
    for start in range(0, nsamples, OBSERVE_GROUP):
        group = finals[start:start + OBSERVE_GROUP]
        quots[start:start + len(group)] = _observe_group(terms, ad, derivs, group,
                                                         c_hidden, p, g)
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


def _observe_group(terms: tuple, ad: Stepper, derivs: tuple, finals: list,
                   c_hidden: np.ndarray, p: Parameters, g: Grid) -> np.ndarray:
    """March the final states ``finals`` as one block; returns their
    quotients and raises ``c_hidden`` to their constants, in place, with
    ``terms`` those of ``_quotient_terms`` and ``derivs`` the CSR D1 and
    D2.  The block's trajectories are released on return."""
    D1, D2 = derivs
    block = ad.run(np.stack([_stacked(f, g) for f in finals], axis=1))
    quots = np.empty(len(finals))
    # overflow only happens on a degenerate time grid; the caller's check
    # turns it into a clean error
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (final, states) in enumerate(zip(finals, block)):
            quots[k] = _quotient(terms, states, x_norm(final, p, g), p, g)
            for var in (0, 1):
                blk = states[:, var * g.nx : (var + 1) * g.nx]
                for j, deriv in ((0, blk), (1, (D1 @ blk.T).T), (2, (D2 @ blk.T).T)):
                    norms = sobolev_norms_batch(deriv, (1.0 - j) / 3.0, g.T)
                    c_hidden[j] = np.maximum(c_hidden[j], np.max(norms))
    return quots


def check_data_size(init: StatePair, target: StatePair, delta: float,
                    p: Parameters, g: Grid):
    """Raise ConstraintViolation unless ||init||_X + ||target||_X <= ``delta``,
    the data size ``solve_nonlinear_control`` takes."""
    sizes = x_norm(init, p, g) + x_norm(target, p, g)
    if sizes > delta:
        raise ConstraintViolation(
            f"data too large: ||init|| + ||target|| = {sizes:.3g} > delta = {delta:.3g}")


def solve_nonlinear_control(
    init: StatePair,
    target: StatePair,
    cfg: ControlConfig,
    delta: float,
    p: Parameters,
    g: Grid,
    scheme: SchemeConfig = None,
    tol: float = 1e-3,
) -> NonlinearControlResult:
    """Fixed-point loop steering the full nonlinear system to ``target``.

    Each sweep solves the linear control problem toward the target adjusted
    by the endpoint Duhamel correction of the current nonlinear trajectory,
    then re-simulates the nonlinear system with the new controls.  Fails
    with NonConvergence when the data is too large for contraction.
    """
    scheme = scheme or SchemeConfig()
    check_data_size(init, target, delta, p, g)
    init.check(g)
    target.check(g)
    _three_control_gate(cfg, p, g, scheme)
    fw = stepper(p, g, "forward", scheme.theta)
    z_target = _stacked(target, g)
    z_free = _free_end(fw, _stacked(init, g))  # the same in every sweep
    adjusted = z_target
    warm = None
    history = []
    for it in range(1, scheme.picard_max + 1):
        # solve_control's verification march is left out: its achieved
        # state would not be read
        controls, _, _, warm = _steer(cfg, z_free, adjusted, tol, p, g, scheme,
                                      warm)
        try:
            traj, _ = solve_nonlinear(p, g, init, controls.signals, scheme=scheme)
        except (NonConvergence, NumericalError) as exc:
            cause = (f"failed: {exc}" if isinstance(exc, NonConvergence)
                     else "diverged (delta too large)")
            raise NonConvergence(f"nonlinear resimulation {cause}; outer history "
                                 f"{history}", history=history) from exc
        # endpoint Duhamel correction of the nonlinear terms
        forc = -nonlinear_forcing(traj.z, p, g)
        ups = fw.run(np.zeros(2 * g.nx), forcing=forc)[-1]
        adjusted_new = z_target + ups
        history.append(_x_ratio(adjusted_new - adjusted, z_target, p, g))
        adjusted = adjusted_new
        if history[-1] <= scheme.picard_tol:
            break
        if len(history) >= 3 and history[-1] > 4.0 * history[0]:
            raise NonConvergence(
                "outer fixed point diverging (delta too large); "
                f"contraction history {history}",
                history=history,
            )
    if history[-1] > 10 * scheme.picard_tol:
        raise NonConvergence(
            f"outer fixed point did not settle in {scheme.picard_max} sweeps; "
            f"history {history}",
            history=history,
        )
    return NonlinearControlResult(
        controls=controls,
        iterations=it,
        history=history,
        terminal_error=_x_ratio(traj.z[-1] - z_target, z_target, p, g),
        achieved=traj.final_state,
    )
