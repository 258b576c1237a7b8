"""Semidiscrete solvers for the coupled KdV system.

Forward (nonhomogeneous boundary) system on (0,L) x (0,T):

    u_t + u_xxx + a v_xxx = p(t,x),
    c v_t + r v_x + a b u_xxx + v_xxx = q(t,x),

with boundary inputs u(t,0), u_x(t,L), u_xx(t,L) and the same pattern for v.
Backward adjoint system (final data at t = T):

    phi_t + phi_xxx + a psi_xxx = 0,
    c psi_t + a b phi_xxx + r psi_x + psi_xxx = 0,

with phi(t,0) = phi_x(t,0) = psi(t,0) = psi_x(t,0) = 0 and the coupled
second-derivative conditions at x = L, which combine into
(1 - a^2 b) psi_xx(t,L) + r psi(t,L) = 0.

Discretization: second-order centered stencils (one-sided next to the
boundary), boundary conditions imposed as algebraic rows replacing PDE rows,
and a theta-scheme in time (Crank-Nicolson by default) with one sparse LU
factorization reused across all steps.  Boundary rows for derivatives use
the same one-sided stencils as trace extraction, so traces of a solution
reproduce imposed boundary data identically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import (SIGNAL_NAMES, Grid, Parameters, StatePair, trapezoid_weights,
                   validate_params)
from .errors import ConstraintViolation, NonConvergence, NumericalError
from .fdops import (
    boundary_stencils,
    first_derivative_matrix,
    third_derivative_matrix,
)

__all__ = [
    "BoundarySignals",
    "SchemeConfig",
    "Trajectory",
    "TraceBundle",
    "Stepper",
    "stepper",
    "solve_linear_forward",
    "solve_adjoint_backward",
    "solve_nonlinear",
    "nonlinear_forcing",
]


@dataclass
class BoundarySignals:
    """The six boundary input series, each sampled on the M+1 time levels.

    h0, g0 prescribe values at x = 0 (H^{1/3} class), h1, g1 first
    derivatives at x = L (L^2 class), h2, g2 second derivatives at x = L
    (H^{-1/3} class).
    """

    h0: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    g0: np.ndarray
    g1: np.ndarray
    g2: np.ndarray

    def __post_init__(self):
        n = None
        for name in SIGNAL_NAMES:
            arr = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, arr)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a 1-d series")
            if n is None:
                n = len(arr)
            elif len(arr) != n:
                raise ValueError("all six series must share the time grid")
        if not all(np.all(np.isfinite(getattr(self, nm))) for nm in SIGNAL_NAMES):
            raise ConstraintViolation("boundary signals contain NaN or Inf")

    @classmethod
    def zeros(cls, g: Grid) -> "BoundarySignals":
        return cls(*(np.zeros(g.nt) for _ in range(6)))

    def as_array(self) -> np.ndarray:
        return np.stack([getattr(self, n) for n in SIGNAL_NAMES])

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BoundarySignals":
        return cls(*(arr[i] for i in range(6)))


@dataclass
class SchemeConfig:
    """Time-stepping and fixed-point iteration settings.

    theta >= 1/2 keeps the linear step unconditionally stable; 1/2 is
    Crank-Nicolson.  picard_tol is relative, measured in the sup-over-time
    weighted state norm.
    """

    theta: float = 0.5
    picard_tol: float = 1e-8
    picard_max: int = 40

    def __post_init__(self):
        if not (0.5 <= self.theta <= 1.0):
            raise ValueError("theta must lie in [1/2, 1]")
        if self.picard_tol <= 0 or self.picard_max < 1:
            raise ValueError("invalid Picard settings")


@dataclass
class Trajectory:
    """Solution samples: ``z[n]`` is the stacked (u, v) state at level n.

    ``picard_history`` carries the per-sweep relative updates when the
    trajectory came out of the nonlinear fixed-point solver.
    """

    z: np.ndarray
    grid: Grid
    picard_history: list = None

    def __post_init__(self):
        if self.z.shape != (self.grid.nt, 2 * self.grid.nx):
            raise ValueError("trajectory shape does not match the grid")

    @property
    def u(self) -> np.ndarray:
        return self.z[:, : self.grid.nx]

    @property
    def v(self) -> np.ndarray:
        return self.z[:, self.grid.nx :]

    def state(self, n: int) -> StatePair:
        nx = self.grid.nx
        return StatePair(self.z[n, :nx].copy(), self.z[n, nx:].copy())

    @property
    def final_state(self) -> StatePair:
        return self.state(self.grid.M)

    @property
    def initial_state(self) -> StatePair:
        return self.state(0)


# trace keys: (var, order, side); var 0 is u (or phi), var 1 is v (or psi)
TRACE_KEYS = [
    (var, order, side) for var in (0, 1) for side in ("0", "L") for order in (0, 1, 2)
]


@dataclass
class TraceBundle:
    """Boundary traces of a trajectory: value, first and second derivative
    at x = 0 and x = L, extracted by one-sided second-order stencils."""

    data: dict
    grid: Grid

    def series(self, var: int, order: int, side: str) -> np.ndarray:
        return self.data[(var, order, side)]

    def column_names(self) -> list:
        return [f"{'uv'[var]}{('', 'x', 'xx')[order]}_x{side}"
                for var, order, side in TRACE_KEYS]

    def columns(self) -> list:
        return [self.data[k] for k in TRACE_KEYS]


def extract_traces(z: np.ndarray, g: Grid) -> TraceBundle:
    """One-sided finite-difference traces of a stacked trajectory array."""
    st = boundary_stencils(g.nx, g.dx)
    data = {}
    for var, order, side in TRACE_KEYS:
        cols, wts = st[("left" if side == "0" else "right", order)]
        data[(var, order, side)] = z[:, var * g.nx + cols] @ wts
    return TraceBundle(data=data, grid=g)


class Stepper:
    """One theta-scheme step operator with its LU factorization.

    direction "forward" marches the nonhomogeneous system in t; "adjoint"
    marches the adjoint system in tau = T - t (so the same loop serves
    both, and the adjoint trajectory is reversed on output).  The exact
    transposes of the discrete input and readout maps are exposed as block
    sweeps, from which the HUM Gramian is assembled.
    """

    def __init__(self, p: Parameters, g: Grid, direction: str, theta: float = 0.5):
        validate_params(p)
        if direction not in ("forward", "adjoint"):
            raise ValueError("direction must be 'forward' or 'adjoint'")
        self.p, self.g, self.direction, self.theta = p, g, direction, theta
        nx, dx, dt = g.nx, g.dx, g.dt
        a, b, c, r = p.a, p.b, p.c, p.r

        D3 = third_derivative_matrix(nx, dx)
        D1 = _first_derivative(nx, dx)[0]
        Lop = sp.vstack(
            [
                sp.hstack([-D3, -a * D3]),
                sp.hstack([-a * b * D3, -(D3 + r * D1)]),
            ]
        ).tocsr()
        if direction == "adjoint":
            Lop = -Lop
        Mdiag = sp.diags(np.concatenate([np.ones(nx), c * np.ones(nx)]))
        A = (Mdiag / dt - theta * Lop).tocsr()
        B = (Mdiag / dt + (1.0 - theta) * Lop).tocsr()

        st = boundary_stencils(nx, dx)
        rows = []
        if direction == "forward":
            cr1, wr1 = st[("right", 1)]
            cr2, wr2 = st[("right", 2)]
            for v0 in (0, nx):  # u block then v block: h0,h1,h2 then g0,g1,g2
                rows.append((v0, np.array([v0]), np.array([1.0])))
                rows.append((v0 + g.N, v0 + cr1, wr1))
                rows.append((v0 + g.N + 1, v0 + cr2, wr2))
        else:
            cl1, wl1 = st[("left", 1)]
            cr2, wr2 = st[("right", 2)]
            rows.append((0, np.array([0]), np.array([1.0])))
            rows.append((1, cl1, wl1))
            rows.append(
                (g.N + 1, np.concatenate([cr2, nx + cr2]), np.concatenate([wr2, a * wr2]))
            )
            rows.append((nx, np.array([nx]), np.array([1.0])))
            rows.append((nx + 1, nx + cl1, wl1))
            rows.append(
                (
                    nx + g.N + 1,
                    np.concatenate([cr2, nx + cr2, [2 * nx - 1]]),
                    np.concatenate([a * b * wr2, wr2, [r]]),
                )
            )
        self.bc_rows = [row for row, _, _ in rows]
        A = _replace_rows(A, {row: (cols, wts) for row, cols, wts in rows})
        empty = (np.array([], dtype=int), np.array([]))
        self.B = _replace_rows(B, dict.fromkeys(self.bc_rows, empty))
        try:
            self.lu = spla.splu(A.tocsc())
        except RuntimeError as exc:
            raise NumericalError(f"singular step matrix: {exc}", time_level=0)
        self.BT = self.B.T.tocsr()
        self.nx = nx

    # -- marching ---------------------------------------------------------

    def run(self, z0: np.ndarray, bc: np.ndarray = None, forcing: np.ndarray = None):
        """March M steps from ``z0``; returns states with ascending time.

        ``z0`` is one (2 nx,) state, giving (M+1, 2 nx), or a (2 nx, k)
        block of k states marched together, one multi-RHS solve per level,
        giving (k, M+1, 2 nx): column j's trajectory is the contiguous
        ``out[j]``, with the bytes of a march of that column alone.
        ``bc`` is a (6, M+1) array (forward only; level-0 entries are the
        initial data's own traces and are not read).  ``forcing`` is a
        (M+1, 2 nx) array of stacked (p, q) samples applied on PDE rows.
        Both apply to every column of a block.
        """
        g = self.g
        theta = self.theta
        z = np.asarray(z0, dtype=float).copy()
        cols = (1,) * (z.ndim - 1)  # bc and forcing broadcast over a block
        out = np.empty(z.shape[1:] + (g.nt, 2 * self.nx))
        if self.direction == "forward":
            start, levels = 0, range(1, g.nt)
        else:
            start, levels = g.M, range(g.M - 1, -1, -1)
            if forcing is not None:
                raise ValueError("the adjoint system is marched homogeneously")
        out[..., start, :] = z.T
        if forcing is not None:
            forc = np.asarray(forcing, dtype=float).copy()
            forc[:, self.bc_rows] = 0.0
            forc = forc.reshape(forc.shape + cols)
        if bc is not None:
            bc = np.asarray(bc).reshape(np.shape(bc) + cols)
        # B's boundary rows are empty and the forcing's are zeroed, so the
        # right-hand side is zero there unless bc says otherwise.  A march
        # that overflows runs on to the end; the scan below names the first
        # non-finite level in march order, counted in steps.
        with np.errstate(over="ignore", invalid="ignore"):
            for n, level in enumerate(levels):
                rhs = self.B @ z
                if forcing is not None:
                    rhs += theta * forc[n + 1] + (1.0 - theta) * forc[n]
                if bc is not None:
                    rhs[self.bc_rows] = bc[:, n + 1]
                z = self.lu.solve(rhs)
                out[..., level, :] = z.T
        finite = np.isfinite(out).all(axis=-1).reshape(-1, g.nt).all(axis=0)
        bad = np.flatnonzero(~finite[levels])
        if bad.size:
            raise NumericalError("solution lost finiteness",
                                 time_level=int(bad[0]) + 1)
        return out

    # -- block sweeps that assemble the HUM Gramian ---------------------------

    def input_transpose(self, d: np.ndarray, signals) -> np.ndarray:
        """The input transpose paired with ``m`` signal histories, as a matrix.

        For final weights w, the transpose of the zero-init input map
        bc -> z(T) is q(w)[i, n] = d(w . z(T)) / d(bc_i at level n).  This
        returns X (m, 2 nx) with

            X[j] . w = sum over k, n of d[k, n, j] q(w)[signals[k], n],

        so X.T is the input map applied to the histories d[:, :, j].  ``d``
        is (k, M+1, m) in ascending time; level 0 is not read.  One forward
        sweep of the k boundary-row pulses makes it; their responses are
        folded into X level by level and never stored.
        """
        if self.direction != "forward":
            raise ValueError("input_transpose applies to the forward stepper")
        g = self.g
        rows = [self.bc_rows[i] for i in signals]
        pulse = np.zeros((2 * self.nx, len(rows)))
        pulse[rows, np.arange(len(rows))] = 1.0
        resp = self.lu.solve(pulse)  # z(T) after a unit pulse at level M
        X = d[:, g.M, :].T @ resp.T
        for n in range(g.M - 1, 0, -1):
            resp = self.lu.solve(self.B @ resp)
            X += d[:, n, :].T @ resp.T
        return X

    def readout_transpose(self, readvecs: np.ndarray) -> np.ndarray:
        """The transpose of final data -> (readvecs . state) sequences.

        Returns Theta (k, M+1, 2 nx) in ascending time, with Theta[i, l] the
        gradient of readvecs[i] . z(l) with respect to the final data z(T).
        One transposed sweep of the k read-out vectors makes it.
        """
        if self.direction != "adjoint":
            raise ValueError("readout_transpose applies to the adjoint stepper")
        g = self.g
        theta = np.empty((len(readvecs), g.nt, 2 * self.nx))
        theta[:, g.M] = readvecs
        lam = readvecs.T
        for n in range(g.M - 1, -1, -1):
            lam = self.BT @ self.lu.solve(lam, trans="T")
            theta[:, n] = lam.T
        return theta


@functools.lru_cache(maxsize=8)
def stepper(p: Parameters, g: Grid, direction: str, theta: float) -> Stepper:
    """The factorized Stepper of a key, shared by all callers (read-only);
    pass the arguments positionally, so that equal keys share one entry."""
    return Stepper(p, g, direction, theta)


@functools.lru_cache(maxsize=8)
def _first_derivative(nx: int, dx: float) -> tuple:
    """D1 and its CSR transpose, built once per (nx, dx); read-only."""
    D1 = first_derivative_matrix(nx, dx)
    return D1, D1.T.tocsr()


def _replace_rows(M: sp.csr_matrix, new: dict) -> sp.csr_matrix:
    """``M`` with each row ``new`` names replaced by its (cols, weights).

    The entries are kept in the given order, duplicates and zeros included,
    as assigning a LIL row's lists does.
    """
    indices, data, lengths = [], [], np.diff(M.indptr)
    start = 0
    for row in sorted(new):
        cols, wts = new[row]
        indices += [M.indices[M.indptr[start]:M.indptr[row]], cols]
        data += [M.data[M.indptr[start]:M.indptr[row]], wts]
        lengths[row] = len(cols)
        start = row + 1
    indices.append(M.indices[M.indptr[start]:])
    data.append(M.data[M.indptr[start]:])
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    return sp.csr_matrix((np.concatenate(data), np.concatenate(indices), indptr),
                         shape=M.shape)


def _stack(s: StatePair) -> np.ndarray:
    return np.concatenate([s.u, s.v])


def _forcing_array(forcing, g: Grid) -> np.ndarray:
    """Normalize a (p_field, q_field) pair into a stacked (M+1, 2nx) array."""
    pf, qf = forcing
    pf = np.asarray(pf, dtype=float)
    qf = np.asarray(qf, dtype=float)
    if pf.shape != (g.nt, g.nx) or qf.shape != (g.nt, g.nx):
        raise ValueError("forcing fields must have shape (M+1, N+2)")
    if not (np.all(np.isfinite(pf)) and np.all(np.isfinite(qf))):
        raise ConstraintViolation("forcing contains NaN or Inf")
    return np.concatenate([pf, qf], axis=1)


def solve_linear_forward(
    p: Parameters,
    g: Grid,
    init: StatePair,
    bc: BoundarySignals,
    forcing=None,
    scheme: SchemeConfig = None,
):
    """Solve the linearized forward system; returns (Trajectory, TraceBundle)."""
    validate_params(p)
    init.check(g)
    if len(bc.h0) != g.nt:
        raise ValueError("boundary signals do not match the time grid")
    scheme = scheme or SchemeConfig()
    stp = stepper(p, g, "forward", scheme.theta)
    forc = _forcing_array(forcing, g) if forcing is not None else None
    z = stp.run(_stack(init), bc=bc.as_array(), forcing=forc)
    traj = Trajectory(z=z, grid=g)
    return traj, extract_traces(z, g)


def solve_adjoint_backward(
    p: Parameters,
    g: Grid,
    final: StatePair,
    scheme: SchemeConfig = None,
):
    """Solve the backward adjoint system from final data at t = T."""
    validate_params(p)
    final.check(g)
    scheme = scheme or SchemeConfig()
    stp = stepper(p, g, "adjoint", scheme.theta)
    z = stp.run(_stack(final))
    traj = Trajectory(z=z, grid=g)
    return traj, extract_traces(z, g)


def nonlinear_forcing(
    traj_z: np.ndarray, p: Parameters, g: Grid, self_terms: bool = True
) -> np.ndarray:
    """Stacked forcing -(nonlinear terms) evaluated along a trajectory.

    Includes the quadratic self terms u u_x (first equation) and v v_x
    (second equation) unless ``self_terms`` is False, plus the coupling
    terms weighted by a1, a2.
    """
    nx = g.nx
    D1T = _first_derivative(nx, g.dx)[1]
    u = traj_z[:, :nx]
    v = traj_z[:, nx:]
    # overflow here only happens on diverging Picard iterates; the stepper's
    # finiteness check turns it into a clean error
    with np.errstate(over="ignore", invalid="ignore"):
        ux = u @ D1T
        vx = v @ D1T
        uvx = (u * v) @ D1T
        pf = -(p.a1 * v * vx + p.a2 * uvx)
        qf = -(p.a2 * p.b * u * ux + p.a1 * p.b * uvx)
        if self_terms:
            pf = pf - u * ux
            qf = qf - v * vx
    return np.concatenate([pf, qf], axis=1)


def solve_nonlinear(
    p: Parameters,
    g: Grid,
    init: StatePair,
    bc: BoundarySignals,
    scheme: SchemeConfig = None,
    self_terms: bool = True,
):
    """Solve the full nonlinear system by Picard iteration on the linear one.

    Each sweep re-solves the linear system with the nonlinear terms frozen
    at the previous iterate; convergence is measured in the sup-over-time
    weighted state norm, relative to the trajectory size.
    """
    validate_params(p)
    init.check(g)
    scheme = scheme or SchemeConfig()
    stp = stepper(p, g, "forward", scheme.theta)
    bc_arr = bc.as_array()
    z0 = _stack(init)

    z_prev = stp.run(z0, bc=bc_arr)
    history = []
    for it in range(scheme.picard_max):
        forc = nonlinear_forcing(z_prev, p, g, self_terms)
        z_new = stp.run(z0, bc=bc_arr, forcing=forc)
        with np.errstate(over="ignore", invalid="ignore"):
            diff = np.max(np.sqrt(_xnorm_sq_rows(z_new - z_prev, p, g)))
            scale = max(np.max(np.sqrt(_xnorm_sq_rows(z_new, p, g))), 1e-30)
            update = diff / scale
        history.append(min(update, 1e300) if np.isfinite(update) else 1e300)
        z_prev = z_new
        if history[-1] <= scheme.picard_tol:
            traj = Trajectory(z=z_new, grid=g, picard_history=history)
            return traj, extract_traces(z_new, g)
    ratio = history[-1] / history[-2] if len(history) > 1 and history[-2] > 0 else float("nan")
    raise NonConvergence(
        f"Picard iteration did not reach {scheme.picard_tol:.1e} in "
        f"{scheme.picard_max} sweeps (last contraction ratio {ratio:.3g})",
        history=history,
    )


def _xnorm_sq_rows(z: np.ndarray, p: Parameters, g: Grid) -> np.ndarray:
    """Squared weighted state norm of each row of a stacked trajectory."""
    w = trapezoid_weights(g.nx, g.dx)
    nx = g.nx
    return (p.b / p.c) * (z[:, :nx] ** 2 @ w) + z[:, nx:] ** 2 @ w
