"""The array float kernel against Python's ``'%.16e' % x``, element by
element, over drawn floats, random bit patterns and the hard families."""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ggkdv
from ggkdv import emit


def oracle(values) -> str:
    return "".join("%.16e\n" % v for v in np.asarray(values, dtype=float).tolist())


def kernel(values) -> str:
    values = np.asarray(values, dtype=float)
    return emit.csv_rows((values.size,), [emit.format_e16(values)])


def assert_matches(values):
    got, want = kernel(values), oracle(values)
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(np.ravel(values).tolist(),
                                            got.splitlines(), want.splitlines()) if g != w]
        pytest.fail(f"{len(bad)} mismatches, first {bad[:3]}")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_drawn_floats(values):
    assert_matches(values)


def test_random_bit_patterns():
    rng = np.random.default_rng(20231018)
    for _ in range(10):
        bits = rng.integers(0, 2**64, size=10**5, dtype=np.uint64, endpoint=False)
        assert_matches(bits.view(np.float64))


def _neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


FAMILIES = {
    "two-to-minus-k": np.ldexp(1.0, -np.arange(1, 1075)),
    "two-to-k": np.ldexp(1.0, np.arange(0, 1024)),
    "ten-to-k-and-neighbours": _neighbours([float("1e%d" % k) for k in range(-307, 309)]),
    "seventeen-nines-round-up": [float("9.99999999999999999e%d" % k) for k in range(-307, 309)],
    "half-way-nines": [float("9.99999999999999995e%d" % k) for k in range(-307, 309)],
    "specials": [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                 1.7976931348623157e308, -1.7976931348623157e308],
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_families(family):
    values = np.asarray(FAMILIES[family], dtype=float)
    assert_matches(values)
    assert_matches(-values)


def test_exact_tie_takes_the_fallback():
    values = np.array([2.0**-25, 0.5, 0.0, np.nan])
    _, _, fallback = emit._decimal(values)
    assert fallback.tolist() == [True, False, False, True]
    assert kernel(values[:1]) == "2.9802322387695312e-08\n"


def test_power_of_ten_table_is_exact():
    for k in range(-345, 345):
        hi, lo, s = emit._power_of_ten(k)
        scaled = Fraction(10) ** k / Fraction(2) ** s
        assert 1 <= hi < 2
        assert hi == float(scaled) and lo == float(scaled - Fraction(hi))


def test_power_of_ten_table_is_not_built_at_import():
    code = ("import ggkdv.scenario, ggkdv.emit as e; "
            "assert e._power_of_ten.cache_info().currsize == 0")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ggkdv.__file__)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
