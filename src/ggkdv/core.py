"""Domain types, checked at construction, and the weighted state norm.

The model is a pair of coupled KdV equations on (0, L),

    u_t + u u_x + u_xxx + a v_xxx + a1 v v_x + a2 (u v)_x = 0,
    c v_t + r v_x + v v_x + a b u_xxx + v_xxx + a2 b u u_x + a1 b (u v)_x = 0,

whose well-posed regime requires b > 0, c > 0 and 1 - a^2 b > 0;
``Parameters`` refuses any other at construction.  States (u, v) are
measured in the weighted norm

    ||(u, v)||_X = sqrt( (b/c) int u^2 dx + int v^2 dx ),

which is the norm in which the linear spatial operator is dissipative.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintViolation

__all__ = [
    "Parameters",
    "Grid",
    "StatePair",
    "ControlKind",
    "ControlConfig",
    "x_norm",
    "x_inner",
    "x_weights",
    "trapezoid_weights",
    "Signal",
    "SIGNALS",
    "SIGNAL_NAMES",
    "boundary_row",
    "pair_weights",
]


@dataclass(frozen=True)
class Parameters:
    """Physical coefficients of the coupled system.

    ``a`` couples the dispersive terms, ``a1``/``a2`` the nonlinear ones,
    ``b`` and ``c`` are the (positive) modal weights and ``r`` is the
    transport coefficient of the second equation.  Construction checks the
    well-posed regime: every coefficient finite, b > 0, c > 0, b/c and c/b
    finite and 1 - a^2 b > 0, raising ConstraintViolation naming the first
    failed condition, so every ``Parameters`` in hand is valid.
    """

    a: float
    b: float
    c: float
    r: float
    a1: float = 0.0
    a2: float = 0.0

    def __post_init__(self):
        for name in ("a", "b", "c", "r", "a1", "a2"):
            if not np.isfinite(getattr(self, name)):
                raise ConstraintViolation(f"{name} is not finite")
        if self.b <= 0:
            raise ConstraintViolation("b <= 0")
        if self.c <= 0:
            raise ConstraintViolation("c <= 0")
        if not (np.isfinite(self.b / self.c) and np.isfinite(self.c / self.b)):
            raise ConstraintViolation("b/c or c/b is not finite")
        try:
            well_posed = 1.0 - self.a**2 * self.b > 0
        except OverflowError:  # |a| above about 1.3e154: a^2 b is far beyond 1
            well_posed = False
        if not well_posed:
            raise ConstraintViolation("1 - a^2 b <= 0")


def _whole_at_least(n, least: int) -> bool:
    try:
        return int(n) == n and n >= least
    except (OverflowError, ValueError):  # inf, NaN
        return False


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid on (0, L) x (0, T).

    ``N`` counts interior spatial points; arrays carry N + 2 samples
    including both endpoints.  ``M`` counts time steps; time series carry
    M + 1 levels.
    """

    L: float
    N: int
    T: float
    M: int

    def __post_init__(self):
        if not (self.L > 0 and np.isfinite(self.L)):
            raise ValueError("L must be positive and finite")
        if not (self.T > 0 and np.isfinite(self.T)):
            raise ValueError("T must be positive and finite")
        if not _whole_at_least(self.N, 8):
            raise ValueError("N must be an integer >= 8")
        if not _whole_at_least(self.M, 2):
            raise ValueError("M must be an integer >= 2")
        # N = 16.0 is stored as 16, so every derived size is an int
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "M", int(self.M))

    @property
    def dx(self) -> float:
        return self.L / (self.N + 1)

    @property
    def dt(self) -> float:
        return self.T / self.M

    @property
    def nx(self) -> int:
        """Number of spatial samples (N + 2, endpoints included)."""
        return self.N + 2

    @property
    def nt(self) -> int:
        """Number of time levels (M + 1)."""
        return self.M + 1

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.nx)

    @property
    def t(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt)


@dataclass
class StatePair:
    """The pair (u, v) sampled on the spatial grid (endpoints included)."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.u.ndim != 1 or self.v.ndim != 1 or self.u.shape != self.v.shape:
            raise ValueError("u and v must be 1-d arrays of identical length")

    @classmethod
    def zeros(cls, g: Grid) -> "StatePair":
        return cls(np.zeros(g.nx), np.zeros(g.nx))

    def copy(self) -> "StatePair":
        return StatePair(self.u.copy(), self.v.copy())

    def check_grid(self, g: Grid):
        if len(self.u) != g.nx:
            raise ValueError(
                f"state has {len(self.u)} spatial samples, grid expects {g.nx}"
            )

    def check(self, g: Grid):
        """Raise unless the state is sampled on ``g`` and finite."""
        self.check_grid(g)
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise ConstraintViolation("state contains NaN or Inf")


class ControlKind(enum.Enum):
    """The control configurations (i)-(vi), plus a free-form mask."""

    FOUR_I = "FOUR_I"
    FOUR_II = "FOUR_II"
    FOUR_III = "FOUR_III"
    FOUR_IV = "FOUR_IV"
    THREE_V = "THREE_V"
    THREE_VI = "THREE_VI"
    CUSTOM = "CUSTOM"


# Active signals per configuration, ordered (h0, h1, h2, g0, g1, g2).
_KIND_MASKS = {
    ControlKind.FOUR_I: (True, True, True, False, True, False),
    ControlKind.FOUR_II: (False, True, False, True, True, True),
    ControlKind.FOUR_III: (True, True, False, True, True, False),
    ControlKind.FOUR_IV: (False, True, True, False, True, True),
    ControlKind.THREE_V: (True, True, False, True, False, False),
    ControlKind.THREE_VI: (True, False, False, True, True, False),
}


@dataclass(frozen=True)
class Signal:
    """A row of ``SIGNALS``; a trace is a (side, order) key of
    ``fdops.boundary_stencils``."""

    name: str
    var: int  # 0: the signal imposes a trace of u, 1: of v
    trace: tuple  # the trace it imposes in the forward system
    paired: tuple  # the adjoint trace HUM pairs it with, combined by pair_weights
    trace_class: float  # the Sobolev class of that combination
    sign: float

    def coefficient(self, p: Parameters) -> float:
        """c/b for a u signal, c for a v signal, times ``sign``."""
        return self.sign * (p.c / p.b if self.var == 0 else p.c)


# The six boundary signals, in their order everywhere in the package.  The
# HUM control of each is coefficient(p) R[paired combination], R the Riesz
# multiplier of the combination's class; the signal has the opposite class:
#   h0 = u(0)      (c/b) R[(phi_xx + a psi_xx)(0)]   H^{-1/3}
#   h1 = u_x(L)    (c/b) (phi_x + a psi_x)(L)        L^2
#   h2 = u_xx(L)  -(c/b) R[(phi + a psi)(L)]         H^{1/3}
# and g0 .. g2 the same for v, with c (a b phi + psi) for (c/b) (phi + a psi).
SIGNALS = (
    Signal("h0", 0, ("left", 0), ("left", 2), -1 / 3, 1.0),
    Signal("h1", 0, ("right", 1), ("right", 1), 0.0, 1.0),
    Signal("h2", 0, ("right", 2), ("right", 0), 1 / 3, -1.0),
    Signal("g0", 1, ("left", 0), ("left", 2), -1 / 3, 1.0),
    Signal("g1", 1, ("right", 1), ("right", 1), 0.0, 1.0),
    Signal("g2", 1, ("right", 2), ("right", 0), 1 / 3, -1.0),
)
SIGNAL_NAMES = tuple(s.name for s in SIGNALS)


def pair_weights(p: Parameters, var: int) -> tuple:
    """The (phi, psi) weights of the combination paired with a signal of
    ``var``: (1, a) for u, (a b, 1) for v, as in the adjoint's rows at L."""
    return (1.0, p.a) if var == 0 else (p.a * p.b, 1.0)


def boundary_row(var: int, trace: tuple, nx: int) -> int:
    """The stacked row that a condition on ``trace`` of ``var`` replaces:
    order k takes block row k at x = 0 and nx - 3 + k at x = L."""
    side, order = trace
    return var * nx + (order if side == "left" else nx - 3 + order)


@dataclass(frozen=True)
class ControlConfig:
    """Which of the six boundary signals are available as controls."""

    kind: ControlKind
    mask: tuple = field(default=None)

    def __post_init__(self):
        if self.kind is ControlKind.CUSTOM:
            if self.mask is None or len(self.mask) != 6:
                raise ValueError("CUSTOM config requires a 6-entry mask")
            object.__setattr__(self, "mask", tuple(bool(m) for m in self.mask))
        else:
            expected = _KIND_MASKS[self.kind]
            if self.mask is not None and tuple(self.mask) != expected:
                raise ValueError(
                    f"mask {self.mask} does not match the {self.kind.value} pattern"
                )
            object.__setattr__(self, "mask", expected)

    @classmethod
    def of(cls, kind) -> "ControlConfig":
        if isinstance(kind, str):
            kind = ControlKind(kind)
        return cls(kind=kind)

    @property
    def is_three_control(self) -> bool:
        """Whether the mask is a three-control pattern, whatever the kind."""
        return self.mask in (_KIND_MASKS[ControlKind.THREE_V],
                             _KIND_MASKS[ControlKind.THREE_VI])

    @property
    def active(self) -> tuple:
        """The indices into ``SIGNALS`` of the active signals, ascending
        (index arrays with ``list(cfg.active)``)."""
        return tuple(i for i, m in enumerate(self.mask) if m)


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Trapezoid weights of ``n`` samples ``h`` apart."""
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def x_weights(p: Parameters, g: Grid) -> np.ndarray:
    """The stacked X-norm weights W = [(b/c) w, w], w the spatial trapezoid
    weights: ||(u, v)||_X^2 = sum W z^2 with z = [u, v]."""
    w = trapezoid_weights(g.nx, g.dx)
    return np.concatenate([(p.b / p.c) * w, w])


def _binary_exponent(z):
    """The binary exponent e of the largest magnitude along the last axis of
    ``z`` (0 for zeros): the exact ``np.ldexp(z, -e)`` peaks in [1/2, 1)."""
    return np.frexp(np.max(np.abs(z), axis=-1))[1]


def _x_sum(W: np.ndarray, z1, z2):
    """The one X reduction, over the last axis."""
    return np.sum(W * z1 * z2, axis=-1)


def _stacked(s, g: Grid):
    if isinstance(s, StatePair):
        s.check_grid(g)
        return np.concatenate([s.u, s.v])
    if np.shape(s)[-1:] != (2 * g.nx,):
        raise ValueError(f"stacked states need a last axis of {2 * g.nx}")
    return s


def x_inner(s1, s2, p: Parameters, g: Grid):
    """The weighted inner product (b/c) int u1 u2 + int v1 v2 (trapezoid) of
    two StatePairs or stacked [u, v] arrays: a float for one state, one
    value per row for a block.  A state, its stacked vector and that vector
    as a row of a block give the same bits."""
    out = _x_sum(x_weights(p, g), _stacked(s1, g), _stacked(s2, g))
    return out if out.ndim else float(out)


def x_norm(s, p: Parameters, g: Grid):
    """The weighted state norm sqrt((b/c) int u^2 + int v^2) (trapezoid), of
    one state or of each row, as ``x_inner`` takes them.

    A state whose weighted sum of squares is not finite or is below 2^-960
    (a subnormal term is under 2^-62 of that) is normed again as 2^-e times
    itself (``_binary_exponent``) and scaled back.  That is exact: other
    norms keep their bits, and a finite state's norm is finite unless it is
    past the largest double.
    """
    W, z = x_weights(p, g), _stacked(s, g)
    with np.errstate(over="ignore"):
        sq = np.asarray(_x_sum(W, z, z))  # never negative: (W z) z
        out = np.sqrt(sq, out=np.empty(sq.shape))
        redo = ~((sq >= 2.0**-960) & (sq < np.inf))
        e = _binary_exponent(z[redo])
        y = np.ldexp(z[redo], -e[:, None])
        out[redo] = np.ldexp(np.sqrt(_x_sum(W, y, y)), e)
    return out if out.ndim else float(out)
