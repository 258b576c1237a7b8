"""Numerical certificates for the spectral unique-continuation obstructions.

A nontrivial stationary adjoint solution with all relevant traces vanishing
would force, after Fourier extension, a rational function with denominator

    Q(xi) = (1 - a^2 b) xi^6 - r xi^4 - (c+1) p xi^3 + p r xi + c p^2

to be entire, hence every root xi_j of the normalized

    P(xi) = Q(-xi) / (1 - a^2 b)

to satisfy xi_j^2 exp(i L xi_j) = gamma / beta for one common nonzero ratio.
The certificate computes the six roots, the values w_j = xi_j^2 e^{i L xi_j},
and confirms the obstruction when the w_j fail to share a common value (so
no admissible gamma/beta exists).  The transcendental structure behind the
case analysis is z e^z = alpha, whose branch-k solution W_k(alpha) comes
from scipy's Lambert W in the standard branches.

Degree certificates cover the configurations where the obstruction is purely
algebraic: the printed numerators are degree <= 5 against the degree-6
denominator, so the quotient can never be entire unless the trace
coefficients all vanish.
"""

from __future__ import annotations

import cmath
import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .core import Parameters
from .errors import NonConvergence, NumericalError

__all__ = [
    "PolyP",
    "RootSet",
    "CaseTag",
    "Verdict",
    "UcpVerdict",
    "UcpSweep",
    "CASE_TAGS",
    "DegreeReport",
    "EigencheckReport",
    "q_coefficients",
    "build_P",
    "roots_P",
    "lambert_solve",
    "ucp_certificate",
    "ucp_sweep",
    "degree_certificate",
    "r0_eigencheck",
]


class CaseTag(enum.Enum):
    COMPLEX = "COMPLEX"
    REAL = "REAL"
    IMAGINARY = "IMAGINARY"
    ZERO = "ZERO"


class Verdict(enum.Enum):
    OBSTRUCTION_CONFIRMED = "OBSTRUCTION_CONFIRMED"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class PolyP:
    """The monic degree-6 polynomials P(xi) = Q(-xi)/(1 - a^2 b) of the
    Fourier reduction, one row of ``coeffs`` (leading coefficient first)
    per entry of the complex array ``p``.
    """

    coeffs: np.ndarray
    p: np.ndarray


@dataclass
class RootSet:
    """The six roots of each row of a PolyP, with their residuals |P(xi_j)|
    and Vieta (Girard) residuals, one row per polynomial."""

    roots: np.ndarray
    residuals: np.ndarray
    girard_residuals: np.ndarray


@dataclass
class UcpVerdict:
    L: float
    p: complex
    case_tag: CaseTag
    dispersion: float
    verdict: Verdict


def q_coefficients(ps, params: Parameters) -> np.ndarray:
    """Coefficients of Q(xi), degree 6 first, one row per value of ``ps``.

    Each row is built by CPython arithmetic on that value, as a scalar
    evaluation would: numpy's vectorized complex multiply can round the last
    bit differently.  A value whose p^2 overflows gives a row of NaN.
    """
    a, b, c, r = params.a, params.b, params.c, params.r

    def row(p):
        try:
            return [1.0 - a**2 * b, 0.0, -r, -(c + 1.0) * p, 0.0, p * r, c * p**2]
        except OverflowError:
            return [np.nan] * 7

    rows = [row(p) for p in np.asarray(ps, dtype=complex).tolist()]
    return np.array(rows, dtype=complex).reshape(len(rows), 7)


_ODD_SIGNS = np.array([1, -1, 1, -1, 1, -1, 1], dtype=complex)


def build_P(ps, params: Parameters) -> PolyP:
    """The normalized polynomials P(xi) = Q(-xi) / (1 - a^2 b), monic, one
    row of ``coeffs`` per value of ``ps``."""
    p = np.asarray(ps, dtype=complex)
    # Q(-xi): flip the sign of odd-degree coefficients (degrees 6..0)
    coeffs = _ODD_SIGNS * q_coefficients(p, params) / (1.0 - params.a**2 * params.b)
    coeffs[:, 0] = 1.0  # exact, complex division rounds the leading entry
    return PolyP(coeffs=coeffs, p=p)


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row k of ``coeffs`` evaluated at every entry of row k of ``x``, by the
    recurrence of np.polyval."""
    y = np.zeros_like(x)
    for k in range(coeffs.shape[1]):
        y = y * x + coeffs[:, k:k + 1]
    return y


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """The roots of each row of ``coeffs`` as np.roots finds them.

    The eigenvalues of the companion matrices of all rows come from one
    stacked eigvals call; trailing zero coefficients are stripped first and
    their zero roots appended.
    """
    n, deg = coeffs.shape[0], coeffs.shape[1] - 1
    trailing = np.argmax(coeffs[:, ::-1] != 0, axis=1)
    roots = np.zeros((n, deg), dtype=complex)
    for t in np.unique(trailing):
        rows = np.flatnonzero(trailing == t)
        k = deg - t
        if k == 0:
            continue
        c = coeffs[rows, :k + 1]
        A = np.zeros((len(rows), k, k), dtype=complex)
        A[:, np.arange(1, k), np.arange(k - 1)] = 1.0
        A[:, 0, :] = -c[:, 1:] / c[:, :1]
        roots[rows, :k] = np.linalg.eigvals(A)
    return roots


def _polish_roots(coeffs: np.ndarray, roots: np.ndarray):
    dcoeffs = coeffs[:, :-1] * np.arange(coeffs.shape[1] - 1, 0, -1)
    for _ in range(3):  # Newton sweeps
        val = _horner(coeffs, roots)
        der = _horner(dcoeffs, roots)
        safe = np.abs(der) > 0
        step = np.zeros_like(roots)
        step[safe] = val[safe] / der[safe]
        roots = roots - step
    return roots


def _elementary_symmetric(roots: np.ndarray) -> np.ndarray:
    """e_1..e_m of each row of m values, by the recurrence e_k += z e_{k-1}."""
    n, m = roots.shape
    e = np.zeros((n, m + 1), dtype=complex)
    e[:, 0] = 1.0
    for j in range(m):
        e[:, 1:] = e[:, 1:] + roots[:, j:j + 1] * e[:, :-1]
    return e[:, 1:]


def _pair_distances(z: np.ndarray) -> np.ndarray:
    """|z_i - z_j| over the pairs i < j of each row, in combinations order.

    np.hypot rounds as Python's abs of a complex scalar does; np.abs on a
    complex array can take a SIMD path that differs in the last bit.
    """
    i, j = np.array(list(itertools.combinations(range(z.shape[1]), 2))).T
    d = z[:, i] - z[:, j]
    return np.hypot(d.real, d.imag)


def _row_scale(x: np.ndarray) -> np.ndarray:
    """max(1, max_j |x_j|) of each row (along the last axis)."""
    top = np.max(np.abs(x), axis=-1)
    return np.where(top > 1.0, top, 1.0)


def roots_P(poly: PolyP) -> RootSet:
    """Companion-matrix roots of P with Newton polishing and Vieta checks.

    The girard_residuals compare the elementary symmetric functions of the
    computed roots against the coefficient pattern (e1 = 0, e4 = 0,
    e2 = -r/(1-a^2 b), e6 = c p^2/(1-a^2 b), and so on), relatively scaled.
    Every row of ``poly`` gets one row of each field, from one stacked
    eigenvalue call.
    """
    coeffs = poly.coeffs
    roots = _companion_roots(coeffs)
    # huge coefficients overflow the polish to NaN, which fails the check below
    with np.errstate(over="ignore", invalid="ignore"):
        roots = _polish_roots(coeffs, roots)
        residuals = np.abs(_horner(coeffs, roots))
    scale = _row_scale(coeffs)
    worst = np.max(residuals, axis=1)
    failed = np.flatnonzero(~(worst <= 1e-8 * scale))
    if failed.size:
        k = failed[0]
        raise NumericalError(
            f"root refinement failed at p = {complex(poly.p[k])!r}: worst "
            f"residual {worst[k]:.3e} (tolerance {1e-8 * scale[k]:.3e})"
        )
    e_roots = _elementary_symmetric(roots)
    e_coeffs = coeffs[:, 1:] * np.array([-1, 1, -1, 1, -1, 1])
    girard = np.abs(e_roots - e_coeffs) / np.maximum(1.0, np.abs(e_coeffs))
    return RootSet(roots=roots, residuals=residuals, girard_residuals=girard)


def lambert_solve(alpha: complex, k: int) -> complex:
    """The branch-k solution W_k(alpha) of z e^z = alpha, by scipy's lambertw.

    The branches are the standard ones of Corless, Gonnet, Hare, Jeffrey &
    Knuth, "On the Lambert W function", Adv. Comput. Math. 5 (1996); off
    their cuts, branch k satisfies z + log z - log alpha = 2 k pi i.  A root
    that is not finite, or whose residual |z e^z - alpha| exceeds
    1e-10 max(1, |alpha|), raises NonConvergence, and so does an alpha whose
    modulus overflows a double.
    """
    from scipy.special import lambertw  # here, to keep it out of `import ggkdv`

    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("alpha = 0 is degenerate (no isolated solutions)")
    z = complex(lambertw(alpha, k))
    # a finite root has real part below 710, so cmath.exp cannot overflow;
    # abs() can, for finite parts whose modulus is past the largest double
    try:
        solved = (cmath.isfinite(z) and abs(z * cmath.exp(z) - alpha)
                  <= 1e-10 * max(1.0, abs(alpha)))
    except OverflowError:
        solved = False
    if not solved:
        raise NonConvergence(
            f"no branch-{k} root of z e^z = {alpha!r} (lambertw gave {z!r})"
        )
    return z


# UcpSweep.case_tag holds indices into CASE_TAGS, the order of CaseTag.
CASE_TAGS = tuple(CaseTag)
_COMPLEX, _REAL, _IMAGINARY, _ZERO = range(len(CASE_TAGS))


def _classify(p: np.ndarray) -> np.ndarray:
    """The case of each entry of the complex array ``p``, as indices into
    CASE_TAGS.  np.hypot rounds |p| as Python's abs of a complex does."""
    ap = np.hypot(p.real, p.imag)
    return np.select([ap < 1e-14, np.abs(p.imag) <= 1e-12 * ap,
                      np.abs(p.real) <= 1e-12 * ap],
                     [_ZERO, _REAL, _IMAGINARY], _COMPLEX)


@dataclass
class UcpSweep:
    """The certificates of n draws (L, p) as arrays, one row per draw.

    ``case_tag`` indexes CASE_TAGS.  ``confirmed`` is the verdict
    (OBSTRUCTION_CONFIRMED or INCONCLUSIVE) and ``multiple`` flags
    near-coincident roots, which leave a row unconfirmed with dispersion 0.
    ``w`` holds w_j = xi_j^2 e^{i L xi_j} and ``w_scale`` max_j |w_j|.
    Rows with p = 0 are confirmed with infinite dispersion and need no roots:
    their ``roots``, ``w``, ``w_scale``, ``min_separation`` and
    ``girard_residuals`` are NaN.  ``verdict(k)`` gives row k as a
    UcpVerdict.
    """

    L: np.ndarray
    p: np.ndarray
    case_tag: np.ndarray
    dispersion: np.ndarray
    confirmed: np.ndarray
    multiple: np.ndarray
    roots: np.ndarray
    w: np.ndarray
    w_scale: np.ndarray
    min_separation: np.ndarray
    girard_residuals: np.ndarray

    def __len__(self) -> int:
        return len(self.L)

    def verdict(self, k: int) -> UcpVerdict:
        """Row k as a UcpVerdict."""
        verdict = (Verdict.OBSTRUCTION_CONFIRMED if self.confirmed[k]
                   else Verdict.INCONCLUSIVE)
        return UcpVerdict(L=float(self.L[k]), p=complex(self.p[k]),
                          case_tag=CASE_TAGS[self.case_tag[k]],
                          dispersion=float(self.dispersion[k]), verdict=verdict)


def ucp_certificate(L: float, p: complex, params: Parameters,
                    tol: float = 1e-6) -> UcpVerdict:
    """Certify that no common ratio gamma/beta fits the roots of P.

    Evaluates w_j = xi_j^2 e^{i L xi_j} at the computed roots; a spread of
    the w_j beyond ``tol`` (relative) rules out the common value demanded by
    the entire-quotient requirement.  p = 0 is confirmed directly: zero is a
    root of P, forcing gamma = 0 against the nonvanishing assumption.
    Near-multiple roots downgrade the verdict to INCONCLUSIVE.
    """
    return _certify([L], [complex(p)], params, tol).verdict(0)


def _certify(Ls, ps, params: Parameters, tol: float) -> UcpSweep:
    """The certificates of the draws (Ls[k], ps[k]).

    The roots of every nonzero p come from one stacked ``roots_P`` call.
    Near-coincident roots void the simple-root argument: such a row is
    flagged multiple and unconfirmed, with dispersion 0.  A coefficient of
    P or a w_j that is not finite (p^2 or e^{i L xi} overflowing) raises
    NumericalError, naming the first such draw.
    """
    L = np.asarray(Ls, dtype=float)
    p = np.asarray(ps, dtype=complex)
    if np.any(L <= 0):
        raise ValueError("L must be positive")
    n = len(L)
    case_tag = _classify(p)
    roots = np.full((n, 6), np.nan, dtype=complex)
    w = roots.copy()
    girard = np.full((n, 6), np.nan)
    w_scale, min_sep = np.full(n, np.nan), np.full(n, np.nan)
    dispersion = np.full(n, np.inf)
    confirmed = np.ones(n, dtype=bool)
    multiple = np.zeros(n, dtype=bool)
    live = np.flatnonzero(case_tag != _ZERO)
    if live.size:
        poly = build_P(p[live], params)
        _check_finite(poly.coeffs, "P has a non-finite coefficient", L[live], p[live])
        rs = roots_P(poly)
        xi = roots[live] = rs.roots
        girard[live] = rs.girard_residuals
        with np.errstate(over="ignore", invalid="ignore"):
            w[live] = xi**2 * np.exp(1j * L[live][:, None] * xi)
        _check_finite(w[live], "w = xi^2 e^(i L xi) is not finite", L[live], p[live])
        # w finite makes the roots finite, so no NaN reaches min or max
        min_sep[live] = np.min(_pair_distances(xi), axis=1)
        multiple[live] = min_sep[live] < 1e-8 * _row_scale(xi)
        w_scale[live] = np.max(np.abs(w[live]), axis=1)
        with np.errstate(over="ignore"):  # a spread past the double range is inf
            spread = np.max(_pair_distances(w[live]), axis=1)
        dispersion[live] = np.where(multiple[live], 0.0, spread)
        confirmed[live] = ~multiple[live] & (spread > tol * w_scale[live])
    return UcpSweep(L=L, p=p, case_tag=case_tag, dispersion=dispersion,
                    confirmed=confirmed, multiple=multiple, roots=roots, w=w,
                    w_scale=w_scale, min_separation=min_sep,
                    girard_residuals=girard)


def _check_finite(rows: np.ndarray, what: str, L: np.ndarray, p: np.ndarray):
    """Raise NumericalError naming the first draw (L[k], p[k]) whose row of
    ``rows`` is not finite."""
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        k = np.argmin(finite)
        raise NumericalError(f"{what} at L = {float(L[k])!r}, p = {complex(p[k])!r}")


# Doubles that 8 consecutive draws take: L, the radius and a third (angle or
# sign) for each of kinds 0-6, and only L and the radius for kind 7 (p = 0).
_DRAW_BLOCK = 23


def _uniform(u: np.ndarray, low, high) -> np.ndarray:
    """Generator.uniform(low, high) applied to the standard doubles ``u``:
    its arithmetic, low + (high - low) u, and its checks."""
    low, high = float(low), float(high)
    span = high - low
    if not np.isfinite(span):
        raise OverflowError("Range exceeds valid bounds")
    if span < 0:
        raise ValueError("range < 0")
    return low + span * u


def _ucp_draws(nsamples: int, seed, L_range, p_radius) -> tuple:
    """The (L, p) arrays of ``nsamples`` draws, from one block of the seed's
    stream.

    Draw i has kind i % 8 and takes L, then a log-uniform radius, then, but
    for kind 7, a third double u: kinds 0-4 have p = radius e^{2 pi i u},
    kind 5 p = +-radius and kind 6 p = +-i radius (+ where u < 0.5), and
    kind 7 p = 0.  The doubles have the bits of drawing them one at a time
    by ``rng.uniform``; p is built from its parts with the products that
    CPython's complex arithmetic rounds.
    """
    kind = np.arange(nsamples) % 8
    at = _DRAW_BLOCK * (np.arange(nsamples) // 8) + 3 * kind
    u = np.random.default_rng(seed).random(
        _DRAW_BLOCK * (nsamples // 8) + 3 * (nsamples % 8))
    L = _uniform(u[at], *L_range)
    radius = np.exp(_uniform(u[at + 1], np.log(p_radius[0]), np.log(p_radius[1])))
    third = u[np.where(kind < 7, at + 2, 0)]
    sign = np.where(third < 0.5, 1.0, -1.0)
    turn = np.zeros(nsamples, dtype=complex)
    turn.imag = 2.0 * np.pi * third
    unit = np.exp(turn)
    polar, real, imaginary = kind < 5, kind == 5, kind == 6
    p = np.empty(nsamples, dtype=complex)
    p.real = np.select([polar, real, imaginary],
                       [radius * unit.real, radius * sign, 0.0 * sign], 0.0)
    p.imag = np.select([polar, imaginary], [radius * unit.imag, radius * sign], 0.0)
    return L, p


def ucp_sweep(nsamples: int, params: Parameters, seed: int = 0,
              L_range=(0.05, 10.0), p_radius=(0.3, 3.0),
              tol: float = 1e-6) -> UcpSweep:
    """Random (L, p) draws with a share of axis and p = 0 cases included,
    certified together by one stacked root computation, as a UcpSweep."""
    return _certify(*_ucp_draws(nsamples, seed, L_range, p_radius), params, tol)


@dataclass
class DegreeReport:
    config_id: str
    numerator_degrees: tuple
    denominator_degree: int
    coefficient_names: tuple
    independent: bool


def _numerator_arrays(config_id: str, p: complex, params: Parameters) -> tuple:
    """Per-trace-coefficient numerator coefficient arrays (powers 0..6).

    Returns (names, B_rows, C_rows): the two numerators are
    sum_i coef_i * row_i(xi) with generically nonzero trace coefficients.
    """
    a, b, c, r = params.a, params.b, params.c, params.r
    z = lambda: np.zeros(7, dtype=complex)  # noqa: E731  index = power of xi

    if config_id == "ANOTHER2":
        names = ("alpha1", "alpha2")
        B1 = z(); B1[5] = 1j * a
        B2 = z(); B2[2] = 1j * p * c; B2[3] = 1j * r; B2[5] = -1j
        C1 = z(); C1[2] = 1j * p; C1[5] = -1j
        C2 = z(); C2[5] = 1j * a * b
        return names, [B1, B2], [C1, C2]
    if config_id == "ANOTHER3":
        names = ("c1", "c2")  # c1 = ab phixx(0)+psixx(0), c2 = phixx(0)+a psixx(0)
        B1 = z(); B1[3] = -1j * a
        B2 = z(); B2[0] = -1j * p * c; B2[1] = 1j * r; B2[3] = 1j
        C1 = z(); C1[0] = -1j * p; C1[3] = 1j
        C2 = z(); C2[3] = -1j * a * b
        return names, [B1, B2], [C1, C2]
    if config_id == "THREE_V":
        names = ("alpha1", "alpha2", "alpha3")
        B1 = z(); B1[4] = -a
        B2 = z(); B2[5] = 1j * a
        B3 = z(); B3[2] = 1j * p * c; B3[3] = 1j * r; B3[5] = -1j
        C1 = z(); C1[2] = -1j * p; C1[5] = 1j
        C2 = z()
        C3 = z(); C3[5] = 1j * a * b; C3[1] = -p; C3[4] = 1.0
        return names, [B1, B2, B3], [C1, C2, C3]
    if config_id == "THREE_VI":
        names = ("alpha1", "alpha2", "beta1")
        # from the same Fourier elimination with traces
        # alpha1 = (ab phi + psi)(L), alpha2 = (phi + a psi)(L),
        # beta1 = (phi_x + a psi_x)(L)
        B1 = z(); B1[5] = -1j * a
        B2 = z(); B2[2] = -1j * p * c; B2[3] = -1j * r; B2[5] = 1j
        B3 = z(); B3[1] = -p * c; B3[2] = -r; B3[4] = 1.0
        C1 = z(); C1[2] = -1j * p; C1[5] = 1j
        C2 = z(); C2[5] = -1j * a * b
        C3 = z(); C3[4] = -a * b
        return names, [B1, B2, B3], [C1, C2, C3]
    raise ValueError(f"unknown degree-certificate configuration {config_id!r}")


def degree_certificate(config_id: str, p: complex = 0.7 + 0.3j,
                       params: Parameters = None) -> DegreeReport:
    """Degrees of the Fourier-reduction numerators against deg P = 6.

    The numerators are assembled as coefficient arrays in the (symbolic)
    trace coefficients; the certificate reports the generic degrees, checks
    that nothing reaches degree 6, and that the stacked coefficient map is
    injective (a nonzero trace vector cannot give identically vanishing
    numerators).  All-zero trace coefficients are the excluded trivial case.
    """
    params = params or Parameters(a=0.3, b=1.1, c=1.7, r=0.9)
    names, B_rows, C_rows = _numerator_arrays(config_id, p, params)

    def degree(rows):
        deg = -1
        for row in rows:
            nz = np.nonzero(np.abs(row) > 1e-14)[0]
            if len(nz):
                deg = max(deg, int(nz[-1]))
        return deg

    deg_b = degree(B_rows)
    deg_c = degree(C_rows)
    if max(deg_b, deg_c) >= 6:
        raise NumericalError(
            f"{config_id}: numerator degree reached that of the denominator"
        )
    stacked = np.stack([np.concatenate([bb, cc])
                        for bb, cc in zip(B_rows, C_rows)])
    rank = np.linalg.matrix_rank(stacked, tol=1e-10)
    return DegreeReport(
        config_id=config_id,
        numerator_degrees=(deg_b, deg_c),
        denominator_degree=6,
        coefficient_names=names,
        independent=bool(rank == len(names)),
    )


@dataclass
class EigencheckReport:
    """The r = 0 check over its points (L, s), one array entry per point."""

    L: np.ndarray
    s: np.ndarray
    sigma_min: np.ndarray
    certified: np.ndarray


# the most r0-check points assembled and decomposed at once: their stacked
# 5 x 3 matrices and temporaries are the largest memory r0-check holds
R0_BLOCK = 4096


def r0_eigencheck(L, s, tol: float = 1e-8) -> EigencheckReport:
    """Certify that s phi = phi''' with the five clamped conditions

        phi(0) = phi_x(0) = phi_xx(0) = phi_x(L) = phi_xx(L) = 0

    admits only phi = 0.  Assembles the five boundary functionals on the
    three-dimensional solution space (exponentials with mu^3 = s, or the
    monomials 1, x, x^2 when s = 0) and reports the smallest singular value
    of the row-normalized 5 x 3 matrix.

    ``L`` and ``s`` are equal-length 1-D arrays of points; they are
    assembled and decomposed ``R0_BLOCK`` points at a time, each block by
    one stacked SVD, which treats every point alone.
    """
    Ls = np.asarray(L, dtype=float)
    ss = np.asarray(s, dtype=complex)
    if np.any(Ls <= 0):
        raise ValueError("L must be positive")
    smin = np.concatenate([_r0_sigma_min(Ls[k:k + R0_BLOCK], ss[k:k + R0_BLOCK])
                           for k in range(0, len(ss), R0_BLOCK)] or [np.empty(0)])
    return EigencheckReport(L=Ls, s=ss, sigma_min=smin, certified=smin > tol)


def _r0_sigma_min(Ls: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """The smallest singular value of the r = 0 boundary matrix at each
    point (L, s) of one block; NumericalError names the first point whose
    matrix is not finite."""
    zero = np.hypot(ss.real, ss.imag) < 1e-14
    live = ~zero
    # the principal cube root by CPython's complex power, one point at a time;
    # an infinite s, where that power raises OverflowError, gets NaN instead
    mu0 = np.array([v ** (1.0 / 3.0) if cmath.isfinite(v) else np.nan
                    for v in ss[live].tolist()], dtype=complex)
    A = np.zeros((len(ss), 5, 3), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        # monomials 1, x, x^2: rows phi(0), phi_x(0), phi_xx(0), phi_x(L), phi_xx(L)
        A[zero] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0],
                   [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]
        A[zero, 3, 2] = 2.0 * Ls[zero]
        mus = mu0[:, None] * np.exp(2j * np.pi * np.arange(3) / 3.0)
        eL = np.exp(mus * Ls[live][:, None])
        A[live, 0] = 1.0
        A[live, 1] = mus
        A[live, 2] = mus**2
        A[live, 3] = mus * eL
        A[live, 4] = mus**2 * eL
        norms = np.max(np.abs(A), axis=2)
        norms[norms == 0] = 1.0
        A /= norms[:, :, None]
    finite = np.isfinite(A).all(axis=(1, 2))
    if not finite.all():
        k = np.argmin(finite)
        raise NumericalError(
            f"r0 boundary matrix is not finite at L = {float(Ls[k])!r}, "
            f"s = {complex(ss[k])!r}"
        )
    return np.linalg.svd(A, compute_uv=False)[:, -1]
