import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ggkdv.core import (
    ControlConfig,
    ControlKind,
    Grid,
    Parameters,
    StatePair,
    x_inner,
    x_norm,
    x_weights,
)
from ggkdv.errors import ConstraintViolation
from ggkdv.hum import gramian_operator


def test_validate_accepts_valid():
    p = Parameters(a=0.5, b=1.0, c=1.0, r=1.0)  # 1 - 0.25 = 0.75 > 0
    # the checked type is still a plain value
    assert p == Parameters(0.5, 1.0, 1.0, 1.0)
    assert hash(p) == hash((0.5, 1.0, 1.0, 1.0, 0.0, 0.0))


def test_validate_rejects_large_coupling():
    # |a| above about 1.3e154 overflows a^2: still the coupling violation
    for a in (2.0, 1.0e200, -1.0e200):
        with pytest.raises(ConstraintViolation, match="a\\^2 b"):
            Parameters(a=a, b=1.0, c=1.0, r=0.0)


def test_validate_rejects_nonpositive_c():
    with pytest.raises(ConstraintViolation, match="c"):
        Parameters(a=0.0, b=1.0, c=-1.0, r=0.0)


def test_validate_rejects_nonpositive_b():
    with pytest.raises(ConstraintViolation, match="b"):
        Parameters(a=0.0, b=0.0, c=1.0, r=0.0)


def test_validate_rejects_overflowing_coefficient_ratios():
    # b/c weighs u in the X-norm and c/b enters the control read-out; an
    # overflow of either would put inf or NaN into run.json
    for b, c in ((1.0, 1.0e-320), (1.0e-320, 1.0), (1.0e300, 1.0e-10)):
        with pytest.raises(ConstraintViolation, match="b/c or c/b is not finite"):
            Parameters(a=0.0, b=b, c=c, r=0.0)
    Parameters(a=0.0, b=1.0e150, c=1.0e-150, r=0.0)  # b/c = 1e300 builds


def test_validate_rejects_nonfinite():
    with pytest.raises(ConstraintViolation):
        Parameters(a=np.nan, b=1.0, c=1.0, r=0.0)


@given(
    a=st.floats(-3, 3),
    b=st.floats(-1, 4),
    c=st.floats(-1, 4),
    r=st.floats(-2, 2),
)
@settings(max_examples=200, deadline=None)
def test_validate_matches_inequality_region(a, b, c, r):
    should_pass = (b > 0 and c > 0 and np.isfinite(b / c) and np.isfinite(c / b)
                   and 1 - a * a * b > 0)
    if should_pass:
        p = Parameters(a=a, b=b, c=c, r=r)
        assert (p.a, p.b, p.c, p.r) == (a, b, c, r)
    else:
        with pytest.raises(ConstraintViolation):
            Parameters(a=a, b=b, c=c, r=r)


def test_x_norm_zero():
    g = Grid(L=1.0, N=16, T=1.0, M=4)
    p = Parameters(a=0.1, b=1.0, c=1.0, r=0.0)
    assert x_norm(StatePair.zeros(g), p, g) == 0.0


def test_x_norm_constant():
    # u = 1, v = 0, L = 1, b = 2, c = 1: sqrt((b/c) * 1) = sqrt(2)
    g = Grid(L=1.0, N=16, T=1.0, M=4)
    p = Parameters(a=0.1, b=2.0, c=1.0, r=0.0)
    s = StatePair(np.ones(g.nx), np.zeros(g.nx))
    assert x_norm(s, p, g) == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_x_norm_against_quadrature_oracle():
    # trigonometric data below the Nyquist limit: the trapezoid rule is
    # exact up to roundoff, so adaptive quadrature must agree to 1e-10
    rng = np.random.default_rng(7)
    L = 2.0
    g = Grid(L=L, N=127, T=1.0, M=4)
    p = Parameters(a=0.3, b=1.5, c=2.0, r=1.0)
    cu = rng.standard_normal((2, 5))
    cv = rng.standard_normal((2, 5))

    def fn(coefs):
        def f(x):
            out = 0.0
            for k in range(5):
                out += coefs[0, k] * np.sin(2 * np.pi * (k + 1) * x / L)
                out += coefs[1, k] * np.cos(2 * np.pi * (k + 1) * x / L)
            return out
        return f

    fu, fv = fn(cu), fn(cv)
    s = StatePair(np.array([fu(x) for x in g.x]), np.array([fv(x) for x in g.x]))
    iu = quad(lambda x: fu(x) ** 2, 0, L, limit=200)[0]
    iv = quad(lambda x: fv(x) ** 2, 0, L, limit=200)[0]
    expected = np.sqrt((p.b / p.c) * iu + iv)
    assert x_norm(s, p, g) == pytest.approx(expected, rel=1e-10)


@given(alpha=st.floats(-100, 100, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_x_norm_homogeneous(alpha):
    g = Grid(L=1.0, N=16, T=1.0, M=4)
    p = Parameters(a=0.2, b=1.0, c=2.0, r=0.5)
    rng = np.random.default_rng(12)
    s = StatePair(rng.standard_normal(g.nx), rng.standard_normal(g.nx))
    scaled = StatePair(alpha * s.u, alpha * s.v)
    assert x_norm(scaled, p, g) == pytest.approx(
        abs(alpha) * x_norm(s, p, g), rel=1e-12, abs=1e-12
    )


@pytest.mark.parametrize("k", [600, -600])
def test_x_norm_of_a_scaled_state_is_its_norm_scaled_exactly(k):
    # 2^600 overflows the squares and 2^-600 underflows them: both states
    # are summed again at their own binary exponent
    g = Grid(L=1.3, N=37, T=1.0, M=16)
    p = Parameters(a=0.3, b=1.7, c=0.6, r=0.5)
    rng = np.random.default_rng(8)
    block = rng.standard_normal((4, 2 * g.nx))
    block[2] = 0.0
    want = np.ldexp(x_norm(block, p, g), k)
    assert 0.0 < want[0] < np.inf
    assert x_norm(np.ldexp(block, k), p, g).tobytes() == want.tobytes()
    s = StatePair(np.ldexp(block[1, :g.nx], k), np.ldexp(block[1, g.nx:], k))
    assert x_norm(s, p, g) == want[1]


def test_x_inner_dimension_mismatch():
    g = Grid(L=1.0, N=16, T=1.0, M=4)
    p = Parameters(a=0.0, b=1.0, c=1.0, r=0.0)
    bad = StatePair(np.zeros(5), np.zeros(5))
    with pytest.raises(ValueError):
        x_inner(bad, bad, p, g)
    for z in (np.zeros(10), np.zeros((3, 2 * g.nx + 1)), 0.0):
        with pytest.raises(ValueError, match="last axis"):
            x_norm(z, p, g)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_x_norm_is_one_reduction_for_every_form(seed):
    # a StatePair, its stacked vector, that vector as a row of a block and
    # the Gramian's CGLS product give the same bits
    g = Grid(L=1.3, N=37, T=1.0, M=16)
    p = Parameters(a=0.3, b=1.7, c=0.6, r=0.5)
    rng = np.random.default_rng(seed)
    s = StatePair(rng.standard_normal(g.nx), rng.standard_normal(g.nx))
    t = StatePair(rng.standard_normal(g.nx), rng.standard_normal(g.nx))
    z, y = np.concatenate([s.u, s.v]), np.concatenate([t.u, t.v])
    block = rng.standard_normal((5, 2 * g.nx))
    block[3] = z
    op = gramian_operator(ControlConfig.of("FOUR_I"), p, g, 0.5)
    norms = x_norm(block, p, g)
    assert isinstance(x_norm(s, p, g), float) and norms.shape == (5,)
    assert x_norm(s, p, g) == x_norm(z, p, g) == norms[3] == np.sqrt(op.xdot(z, z))
    inner = x_inner(s, t, p, g)
    assert inner == x_inner(z, y, p, g) == x_inner(block, y, p, g)[3] == op.xdot(z, y)
    assert np.array_equal(op.W, x_weights(p, g))
    w = np.full(g.nx, g.dx)
    w[0] = w[-1] = g.dx / 2
    assert np.array_equal(x_weights(p, g), np.concatenate([p.b / p.c * w, w]))


def test_control_config_masks():
    assert ControlConfig.of("FOUR_I").mask == (True, True, True, False, True, False)
    assert ControlConfig.of("THREE_VI").mask == (True, False, False, True, True, False)
    with pytest.raises(ValueError):
        ControlConfig(kind=ControlKind.FOUR_I, mask=(1, 1, 1, 1, 1, 1))
    custom = ControlConfig(kind=ControlKind.CUSTOM, mask=(1, 0, 0, 0, 0, 0))
    assert custom.active == (0,)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(L=-1.0, N=16, T=1.0, M=4)
    with pytest.raises(ValueError):
        Grid(L=1.0, N=4, T=1.0, M=4)
    g = Grid(L=2.0, N=9, T=3.0, M=6)
    assert g.dx == pytest.approx(0.2)
    assert g.dt == pytest.approx(0.5)
    assert len(g.x) == g.nx == 11
    assert len(g.t) == g.nt == 7


@pytest.mark.parametrize("size", [{"N": float("inf")}, {"M": float("inf")},
                                  {"N": float("nan")}, {"M": -float("inf")}])
def test_grid_rejects_sizes_that_are_not_finite(size):
    # a ValueError naming the size, as for any other bad size; int(inf)
    # would raise OverflowError
    with pytest.raises(ValueError, match=f"{next(iter(size))} must be an integer"):
        Grid(**dict(dict(L=1, N=16, T=1, M=8), **size))


def test_grid_stores_whole_sizes_as_int():
    # a float size is the same grid as its int: equal, one hash, int sizes
    g = Grid(L=1, N=16.0, T=1, M=8.0)
    assert g == Grid(L=1, N=16, T=1, M=8)
    assert hash(g) == hash(Grid(L=1, N=16, T=1, M=8))
    assert type(g.N) is int and type(g.M) is int
    assert len(g.x) == 18 and len(g.t) == 9
