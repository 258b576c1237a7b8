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
and a theta-scheme in time (Crank-Nicolson by default) with one banded LU
factorization reused across all steps.  Boundary rows for derivatives use
the same one-sided stencils as trace extraction, so traces of a solution
reproduce imposed boundary data identically.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

from .core import (SIGNAL_NAMES, SIGNALS, Grid, Parameters, StatePair, _stacked,
                   boundary_row, pair_weights, x_norm)
from .errors import ConstraintViolation, NonConvergence, NumericalError
from .fdops import (
    _csr,
    boundary_stencils,
    first_derivative_matrix,
    third_derivative_matrix,
)

__all__ = [
    "BoundarySignals",
    "SchemeConfig",
    "Trajectory",
    "Stepper",
    "stepper",
    "solve_linear_forward",
    "solve_adjoint_backward",
    "solve_nonlinear",
    "nonlinear_forcing",
]


class BoundarySignals:
    """The six boundary input series of ``core.SIGNALS``, each sampled on
    the M+1 time levels, held as the rows h0 .. g2 of one (6, M+1) array."""

    h0, h1, h2, g0, g1, g2 = (property(lambda self, i=i: self._array[i])
                              for i in range(6))

    def __init__(self, h0, h1, h2, g0, g1, g2):
        rows = [np.asarray(s, dtype=float) for s in (h0, h1, h2, g0, g1, g2)]
        for name, arr in zip(SIGNAL_NAMES, rows):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a 1-d series")
        if len({len(arr) for arr in rows}) > 1:
            raise ValueError("all six series must share the time grid")
        self._array = np.stack(rows)
        if not np.all(np.isfinite(self._array)):
            raise ConstraintViolation("boundary signals contain NaN or Inf")

    @classmethod
    def zeros(cls, g: Grid) -> "BoundarySignals":
        return cls(*(np.zeros(g.nt) for _ in range(6)))

    def as_array(self) -> np.ndarray:
        """The stored (6, M+1) array itself, not a copy."""
        return self._array

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BoundarySignals":
        return cls(*(arr[i] for i in range(6)))


@dataclass(frozen=True)
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


# trace keys: (var, order, side); var 0 is u (or phi), var 1 is v (or psi)
TRACE_KEYS = [
    (var, order, side) for var in (0, 1) for side in ("0", "L") for order in (0, 1, 2)
]
# the traces.csv column of each key, in the same order
TRACE_NAMES = [f"{'uv'[var]}{('', 'x', 'xx')[order]}_x{side}"
               for var, order, side in TRACE_KEYS]


def extract_traces(z: np.ndarray, g: Grid) -> dict:
    """The boundary traces of a stacked trajectory array: value, first and
    second derivative at x = 0 and x = L by one-sided second-order
    stencils, keyed by ``TRACE_KEYS`` in that order."""
    st = boundary_stencils(g.nx, g.dx)
    traces = {}
    for var, order, side in TRACE_KEYS:
        cols, wts = st[("left" if side == "0" else "right", order)]
        traces[(var, order, side)] = z[:, var * g.nx + cols] @ wts
    return traces


_TRANS = {"N": 0, "T": 1}  # dgbtrs's codes for A x = b and A^T x = b


class Stepper:
    """One theta-scheme step operator with its banded LU factorization.

    direction "forward" marches the nonhomogeneous system in t; "adjoint"
    marches the adjoint system in tau = T - t (so the same loop serves
    both, and the adjoint trajectory is reversed on output).  The exact
    transposes of the discrete input and readout maps are exposed as block
    sweeps, from which the HUM Gramian is assembled.

    The step matrices ``B`` and ``BT`` (CSR; ``BT`` is built on first use),
    the factors ``lu`` and the boundary rows ``bc_rows`` are all in the band
    order of ``BandLU``, the unknowns (u_0, v_0, u_1, v_1, ...), and are
    assembled in that order from the grid's stencils.  A march or sweep carries its state
    in that order from start to finish, in buffers allocated once per call
    (``_sweep``): inputs and outputs are stacked (u, v) states, converted
    by a strided copy once on input and once per stored level.
    """

    def __init__(self, p: Parameters, g: Grid, direction: str, theta: float = 0.5):
        if direction not in ("forward", "adjoint"):
            raise ValueError("direction must be 'forward' or 'adjoint'")
        self.p, self.g, self.direction, self.theta = p, g, direction, theta
        nx, n, dt = g.nx, 2 * g.nx, g.dt
        a, b, c, r = p.a, p.b, p.c, p.r
        d3, d1, diag, band_cols, _ = _stencils(nx, g.dx)

        st = boundary_stencils(nx, g.dx)
        rows = {}  # row -> (cols, weights) of the boundary condition replacing it
        if direction == "forward":  # each signal imposes its trace on its variable
            for s in SIGNALS:
                cols, wts = st[s.trace]
                rows[boundary_row(s.var, s.trace, nx)] = (s.var * nx + cols, wts)
        else:
            # the adjoint imposes, per variable, each trace that no signal is
            # paired with: at x = 0 on its own variable, at x = L over
            # (phi, psi) with the paired combination's weights, plus the
            # transport term r psi in psi's row
            for var in (0, 1):
                paired = {s.paired for s in SIGNALS if s.var == var}
                for trace in (t for t in st if t not in paired):
                    cols, wts = st[trace]
                    if trace[0] == "left":
                        cols = var * nx + cols
                    else:
                        w_u, w_v = pair_weights(p, var)
                        cols = np.concatenate([cols, nx + cols])
                        wts = np.concatenate([w_u * wts, w_v * wts])
                        if var == 1:
                            cols, wts = np.append(cols, 2 * nx - 1), np.append(wts, r)
                    rows[boundary_row(var, trace, nx)] = (cols, wts)
        self.bc_rows = _band_index(np.array(list(rows)), nx)

        # L = -[[D3, a D3], [a b D3, D3 + r D1]] (negated for the adjoint),
        # A = M/dt - theta L and B = M/dt + (1 - theta) L, M = diag(1, c),
        # each band row on its ten ``band_cols``, with the entrywise
        # arithmetic of the sparse algebra they replace: M/dt is m (1/dt),
        # a missing entry is 0 and an exact-zero result is left out.  The
        # boundary rows are zeroed: B's stay empty, and A's hold their
        # conditions instead, entries in the given order and duplicates
        # added.  Stencil weights that overflow make A non-finite, which
        # BandLU rejects.
        with np.errstate(all="ignore"):
            lop = np.empty((nx, 2, 2, 5))  # [row, row var, column var, column]
            lop[:, 0, 0], lop[:, 0, 1] = -d3, -a * d3
            lop[:, 1, 0], lop[:, 1, 1] = -a * b * d3, -(d3 + r * d1)
            if direction == "adjoint":
                lop = -lop
            mass = np.zeros_like(lop)
            mass[diag[0], 0, 0, diag[1]] = 1.0 / dt
            mass[diag[0], 1, 1, diag[1]] = c * (1.0 / dt)
            A = (mass - theta * lop).reshape(n, 10)
            B = (mass + (1.0 - theta) * lop).reshape(n, 10)
        A[self.bc_rows] = B[self.bc_rows] = 0.0
        keep = A != 0
        cols, wts = (np.concatenate(x) for x in zip(*rows.values()))
        self.lu = BandLU(
            np.concatenate([np.nonzero(keep)[0],
                            np.repeat(self.bc_rows, [len(w) for _, w in rows.values()])]),
            np.concatenate([band_cols[keep], _band_index(cols, nx)]),
            np.concatenate([A[keep], wts]), n)
        self.B = _csr(band_cols, B)
        self.nx = nx

    @functools.cached_property
    def BT(self) -> sp.csr_matrix:
        """B's transpose in band order, built on first use (a transposed
        sweep): row j holds column j of B, its entries in the stacked order
        of their rows, as ``B.T.tocsr()`` of the stacked B orders them."""
        B, n = self.B, 2 * self.nx
        rows = np.repeat(np.arange(n), np.diff(B.indptr))
        order = np.lexsort((rows // 2 + rows % 2 * self.nx, B.indices))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(B.indices, minlength=n))])
        return sp.csr_matrix((B.data[order], rows[order], indptr), shape=(n, n))

    # -- marching ---------------------------------------------------------

    def run(self, z0: np.ndarray, bc: np.ndarray = None, forcing: np.ndarray = None):
        """March M steps from ``z0``; returns states with ascending time.

        ``z0`` is one (2 nx,) state, giving (M+1, 2 nx), or a (2 nx, k)
        block of k states marched together, one multi-RHS solve per level,
        giving (k, M+1, 2 nx): column j's trajectory is the contiguous
        ``out[j]``, with the bytes of a march of that column alone.
        ``bc`` is a (6, M+1) array, any other shape a ValueError (forward
        only; level-0 entries are the initial data's own traces, not read).
        ``forcing`` is a (M+1, 2 nx) array of stacked (p, q) samples applied
        on PDE rows.  Both apply to every column of a block.  Besides
        ``out``, a march allocates a few states, a copy of ``bc`` and, when
        forced, the band-ordered blend of the forcing, one history; its
        levels allocate nothing (``_sweep``).
        """
        g = self.g
        theta = self.theta
        z0 = np.asarray(z0, dtype=float)
        cols = (1,) * (z0.ndim - 1)  # bc and forcing broadcast over a block
        out = np.empty(z0.shape[1:] + (g.nt, 2 * self.nx))
        if self.direction == "forward":
            start, levels = 0, range(1, g.nt)
        else:
            start, levels = g.M, range(g.M - 1, -1, -1)
            if forcing is not None:
                raise ValueError("the adjoint system is marched homogeneously")
            if bc is not None:
                raise ValueError("the adjoint system takes no boundary data")
        out[..., start, :] = z0.T
        if bc is not None:
            if np.shape(bc) != (6, g.nt):
                raise ValueError("boundary signals do not match the time grid")
            # row n holds level n + 1's six values
            bc = np.ascontiguousarray(np.transpose(bc)[1:], dtype=float)
            bc = bc.reshape(bc.shape + cols)
        z = np.empty_like(z0)
        _band(z0, z)
        by_level = np.moveaxis(_split(out), -3, 0)  # level l as (..., 2, nx)
        forc = None
        # B's boundary rows are empty and the forcing's are zeroed, so the
        # right-hand side is zero there unless bc says otherwise.  A march
        # that overflows runs on to the end; the scan below names the first
        # non-finite level in march order, counted in steps.
        with np.errstate(over="ignore", invalid="ignore"):
            if forcing is not None:
                # row n is theta f[n + 1] + (1 - theta) f[n], blended in the
                # levels of ``out`` the march has yet to write (``forc``
                # holds the second term), then copied to band order into
                # ``forc``: no history-sized temporary, and only contiguous
                # operands, which numpy's ufuncs do not buffer
                forcing = np.asarray(forcing, dtype=float)
                forc = np.empty((g.M, 2 * self.nx))
                blend = out.reshape(-1, g.nt, 2 * self.nx)[0, 1:]
                np.multiply(theta, forcing[1:], out=blend)
                np.multiply(1.0 - theta, forcing[:-1], out=forc)
                blend += forc
                _band(blend.T, forc.T)
                forc[:, self.bc_rows] = 0.0
                forc = forc.reshape(forc.shape + cols)
            for level, (zs, _) in zip(levels, self._sweep(z, g.M, forc=forc, bc=bc)):
                by_level[level] = zs
            # a level with a non-finite entry has a non-finite sum, and so
            # can a finite one, by overflow: those are scanned entry by entry
            finite = np.isfinite(out.sum(axis=-1)).reshape(-1, g.nt).all(axis=0)
        for step in np.flatnonzero(~finite[levels]) + 1:
            if not np.isfinite(out[..., levels[step - 1], :]).all():
                raise NumericalError("solution lost finiteness",
                                     time_level=int(step))
        return out

    def _sweep(self, x, count, trans="N", forc=None, bc=None, solve_first=False):
        """The level loop of every march and transpose sweep, in band order.

        From the band-ordered (2 nx,) state or (2 nx, k) block ``x``, level
        n forms y = B z (``trans="T"``: BT z), adds ``forc[n]``, writes
        ``bc[n]`` into the boundary rows and solves A z = y (A^T z = y) in
        place.  With ``solve_first``, ``x`` is the first y and each level
        solves before its product.  After each of ``count`` levels it
        yields z and y viewed in stacked order, (..., 2, nx) with a block's
        columns first, until the next level overwrites them.

        The buffers are allocated once per call.  z and y are C-ordered for
        the ``csr_matvec(s)`` kernels of ``scipy.sparse._sparsetools``,
        which ``@`` ends in, and y is zeroed before each product, as ``@``
        does.  One column, 1-d or (2 nx, 1), takes the vector kernel, as
        with ``@``, and is solved in y, after which z and y trade buffers;
        a block is solved in a Fortran copy.  So every level has the bytes
        of ``A @ z`` and ``BandLU.solve``.
        """
        A, n2, k = (self.B if trans == "N" else self.BT), len(x), x.size // len(x)
        indptr, indices, data = A.indptr, A.indices, A.data
        lu, rows, tr = self.lu, self.bc_rows, _TRANS[trans]
        ab, kl, ku, piv = lu.ab, lu.kl, lu.ku, lu.piv
        z, y = np.empty(x.shape), np.empty(x.shape)
        (y if solve_first else z)[...] = x
        z1, y1, zs, ys = z.reshape(-1), y.reshape(-1), _as_stacked(z), _as_stacked(y)
        f = np.empty(x.shape, order="F") if k > 1 else None
        steps = (not solve_first, solve_first)  # a level's two: product or solve
        for n in range(count):
            for product in steps:
                if product:
                    y.fill(0.0)
                    if k == 1:
                        csr_matvec(n2, n2, indptr, indices, data, z1, y1)
                    else:
                        csr_matvecs(n2, n2, k, indptr, indices, data, z1, y1)
                    if forc is not None:
                        y += forc[n]
                    if bc is not None:
                        y[rows] = bc[n]
                elif k == 1:
                    dgbtrs(ab, kl, ku, y, piv, trans=tr, overwrite_b=1)
                    z, y, z1, y1, zs, ys = y, z, y1, z1, ys, zs
                else:
                    f[...] = y
                    dgbtrs(ab, kl, ku, f, piv, trans=tr, overwrite_b=1)
                    z[...] = f
            yield zs, ys

    # -- block sweeps that assemble the HUM Gramian ---------------------------

    def input_transpose(self, d: np.ndarray, signals) -> np.ndarray:
        """The input transpose paired with ``m`` signal histories, as a matrix.

        For final weights w, the transpose of the zero-init input map
        bc -> z(T) is q(w)[i, n] = d(w . z(T)) / d(bc_i at level n).  This
        returns X (m, 2 nx) with

            X[j] . w = sum over k, n of d[k, n, j] q(w)[signals[k], n],

        so X.T is the input map applied to the histories d[:, :, j].  ``d``
        is (k, M+1, m) in ascending time; level 0 is not read.  One forward
        sweep of the k boundary-row pulses makes it; each level's responses
        are copied to stacked order and folded into X in place by one BLAS
        ``dgemm`` (X.T is Fortran-ordered), with the bytes of
        ``X += d[:, n, :].T @ resp.T``.  They are never stored.
        """
        if self.direction != "forward":
            raise ValueError("input_transpose applies to the forward stepper")
        g = self.g
        rows = self.bc_rows[signals]
        pulse = np.zeros((2 * self.nx, len(rows)))
        pulse[rows, np.arange(len(rows))] = 1.0
        rs = np.empty((2 * self.nx, len(rows)), order="F")
        stacked = _split(rs.T)  # stacked rows: in band order the fold rounds differently
        X = np.zeros((d.shape[2], 2 * self.nx))
        # z(T) after a unit pulse at level M is the solve of the pulses; each
        # earlier level is one more level of the sweep
        z = self.lu.solve(pulse)
        sweep = itertools.chain([(_as_stacked(z), None)], self._sweep(z, g.M - 1))
        for n, (resp, _) in zip(range(g.M, 0, -1), sweep):
            stacked[...] = resp
            dgemm(1.0, rs, d[:, n, :], 1.0, X.T, overwrite_c=True)
        return X

    def readout_transpose(self, readvecs: np.ndarray) -> np.ndarray:
        """The transpose of final data -> (readvecs . state) sequences.

        Returns Theta (k, M+1, 2 nx) in ascending time, with Theta[i, l] the
        gradient of readvecs[i] . z(l) with respect to the final data z(T).
        One transposed sweep of the k read-out vectors makes it: each level
        solves with A^T, then multiplies by BT.
        """
        if self.direction != "adjoint":
            raise ValueError("readout_transpose applies to the adjoint stepper")
        g = self.g
        theta = np.empty((len(readvecs), g.nt, 2 * self.nx))
        theta[:, g.M] = readvecs
        by_level = np.moveaxis(_split(theta), 1, 0)
        lam = np.empty(readvecs.T.shape)
        _band(readvecs.T, lam)
        sweep = self._sweep(lam, g.M, trans="T", solve_first=True)
        for n, (_, lam) in zip(range(g.M - 1, -1, -1), sweep):
            by_level[n] = lam
        return theta


class BandLU:
    """LAPACK's band LU of a step matrix in band order.

    The matrix comes as entries ``data`` at ``(row, col)`` of an (n, n)
    matrix whose unknowns are numbered (u_0, v_0, u_1, v_1, ...) instead of
    stacked, so the coupled five-point stencils fit in a band of ``kl``
    sub- and ``ku`` superdiagonals (at most 7 each), which ``dgbtrf``
    factors once; duplicate entries add up, in the given order.  ``solve``
    takes and returns band-ordered vectors and calls ``dgbtrs`` on them
    directly; ``Stepper._sweep`` calls ``dgbtrs`` on ``ab`` and ``piv``
    itself, in place on its own buffers, with the same arguments.
    """

    def __init__(self, row: np.ndarray, col: np.ndarray, data: np.ndarray, n: int):
        self.kl = int(np.max(row - col, initial=0))
        self.ku = int(np.max(col - row, initial=0))
        # LAPACK band storage, with kl extra rows for the fill-in of pivoting
        ab = np.zeros((2 * self.kl + self.ku + 1, n), order="F")
        np.add.at(ab, (self.kl + self.ku + row - col, col), data)
        if not np.isfinite(ab).all():
            raise NumericalError("step matrix is not finite", time_level=0)
        self.ab, self.piv, info = dgbtrf(ab, self.kl, self.ku, overwrite_ab=True)
        if info > 0:  # named by its stacked column
            j = info - 1
            raise NumericalError("singular step matrix: zero pivot in column "
                                 f"{j // 2 + j % 2 * (n // 2)}", time_level=0)

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """A^{-1} rhs (``trans="N"``) or A^{-T} rhs (``"T"``), for a 1-d or a
        (2 nx, k) band-ordered ``rhs``.  A 1-d or Fortran-ordered ``rhs`` is
        overwritten and returned; another is copied to Fortran order first.
        A block result is Fortran-ordered."""
        x, _ = dgbtrs(self.ab, self.kl, self.ku, rhs, self.piv,
                      trans=_TRANS[trans], overwrite_b=True)
        return x


def _band_index(i, nx: int):
    """The band position of stacked unknown ``i`` (u_j -> 2j, v_j -> 2j+1)."""
    return 2 * (i % nx) + i // nx


def _band(z: np.ndarray, out: np.ndarray):
    """Copy the stacked state(s) ``z`` into ``out`` in band order (first
    axis 2 nx for both)."""
    nx = len(z) // 2
    out[0::2], out[1::2] = z[:nx], z[nx:]


def _as_stacked(z: np.ndarray) -> np.ndarray:
    """The band-ordered state(s) ``z`` (first axis 2 nx) viewed in stacked
    order, as (2, nx) or, for a (2 nx, k) block, (k, 2, nx)."""
    return z.reshape((len(z) // 2, 2) + z.shape[1:]).T


def _split(a: np.ndarray) -> np.ndarray:
    """The stacked states ``a`` (last axis 2 nx) viewed as (..., 2, nx)."""
    return a.reshape(a.shape[:-1] + (2, a.shape[-1] // 2))


@functools.lru_cache(maxsize=8)
def stepper(p: Parameters, g: Grid, direction: str, theta: float) -> Stepper:
    """The factorized Stepper of a key, shared by all callers (read-only);
    pass the arguments positionally, so that equal keys share one entry."""
    return Stepper(p, g, direction, theta)


@functools.lru_cache(maxsize=8)
def _stencils(nx: int, dx: float) -> tuple:
    """The derivative stencils of a grid, built once per (nx, dx) for both
    step matrices and the nonlinear and hidden-regularity terms; read-only.

    D3's row i has the columns lo_i .. lo_i + 4 (clipped to the grid);
    ``d3`` and ``d1`` are the rows of D3 and D1 on those columns (nx, 5),
    0 where a matrix has no entry.  ``diag`` is the (row, column) position
    of each row's diagonal, and ``band_cols`` (2 nx, 10) are the columns of
    band row 2i + var: lo_i .. lo_i + 4 of u, then of v, in stacked order.
    ``D1`` is the CSR matrix itself; its products with a block of states in
    rows are taken as ``(D1 @ z.T).T``.
    """
    D3, D1 = third_derivative_matrix(nx, dx), first_derivative_matrix(nx, dx)
    i = np.arange(nx)
    lo = np.clip(i - 2, 0, nx - 5)  # as fdops places its five-point rows
    d3, d1 = np.zeros((nx, 5)), np.zeros((nx, 5))
    for w, D in ((d3, D3), (d1, D1)):
        at = np.repeat(i, np.diff(D.indptr))
        w[at, D.indices - lo[at]] = D.data
    diag = np.stack([i, i - lo])
    cols = 2 * (lo[:, None, None, None] + np.arange(5)) + np.arange(2)[:, None]
    band_cols = np.repeat(cols, 2, axis=1).reshape(2 * nx, 10)
    for x in (d3, d1, diag, band_cols):
        x.flags.writeable = False
    return d3, d1, diag, band_cols, D1


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
    """Solve the linearized forward system; returns (Trajectory, traces)."""
    init.check(g)
    scheme = scheme or SchemeConfig()
    stp = stepper(p, g, "forward", scheme.theta)
    forc = _forcing_array(forcing, g) if forcing is not None else None
    z = stp.run(_stacked(init, g), bc=bc.as_array(), forcing=forc)
    traj = Trajectory(z=z, grid=g)
    return traj, extract_traces(z, g)


def solve_adjoint_backward(
    p: Parameters,
    g: Grid,
    final: StatePair,
    scheme: SchemeConfig = None,
):
    """Solve the backward adjoint system from final data at t = T."""
    final.check(g)
    scheme = scheme or SchemeConfig()
    stp = stepper(p, g, "adjoint", scheme.theta)
    z = stp.run(_stacked(final, g))
    traj = Trajectory(z=z, grid=g)
    return traj, extract_traces(z, g)


def nonlinear_forcing(traj_z: np.ndarray, p: Parameters, g: Grid) -> np.ndarray:
    """Stacked forcing -(nonlinear terms) evaluated along a trajectory: the
    quadratic self terms u u_x (first equation) and v v_x (second
    equation), plus the coupling terms weighted by a1, a2.
    """
    nx = g.nx
    D1 = _stencils(nx, g.dx)[4]
    u = traj_z[:, :nx]
    v = traj_z[:, nx:]
    # overflow here only happens on diverging Picard iterates; the stepper's
    # finiteness check turns it into a clean error
    with np.errstate(over="ignore", invalid="ignore"):
        ux = (D1 @ u.T).T
        vx = (D1 @ v.T).T
        uvx = (D1 @ (u * v).T).T
        pf = -(p.a1 * v * vx + p.a2 * uvx) - u * ux
        qf = -(p.a2 * p.b * u * ux + p.a1 * p.b * uvx) - v * vx
    return np.concatenate([pf, qf], axis=1)


def solve_nonlinear(
    p: Parameters,
    g: Grid,
    init: StatePair,
    bc: BoundarySignals,
    scheme: SchemeConfig = None,
):
    """Solve the full nonlinear system by Picard iteration on the linear one.

    Each sweep re-solves the linear system with the nonlinear terms frozen
    at the previous iterate; convergence is measured in the sup-over-time
    weighted state norm, relative to the trajectory size.
    """
    init.check(g)
    scheme = scheme or SchemeConfig()
    stp = stepper(p, g, "forward", scheme.theta)
    bc_arr = bc.as_array()
    z0 = _stacked(init, g)

    z_prev = stp.run(z0, bc=bc_arr)
    history = []
    for it in range(scheme.picard_max):
        forc = nonlinear_forcing(z_prev, p, g)
        z_new = stp.run(z0, bc=bc_arr, forcing=forc)
        with np.errstate(over="ignore", invalid="ignore"):
            diff = np.max(x_norm(z_new - z_prev, p, g))
            scale = max(np.max(x_norm(z_new, p, g)), 1e-30)
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

