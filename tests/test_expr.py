import math
import re

import numpy as np
import pytest

from ggkdv.errors import ExpressionError
from ggkdv.expr import MAX_DEPTH, compile_expression


def test_zero():
    assert compile_expression("0")(3.7) == 0.0


def test_sin_example():
    fn = compile_expression("sin(3.141592653589793*x)")
    assert fn(0.5) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_matches_formula():
    fn = compile_expression("gaussian(0.5,0.1)")
    xs = np.linspace(0.0, 1.0, 130)
    expected = np.exp(-(((xs - 0.5) / 0.1) ** 2))
    got = np.array([fn(x) for x in xs])
    np.testing.assert_allclose(got, expected, rtol=1e-14)


def test_arithmetic_and_precedence():
    assert compile_expression("1+2*3")(0.0) == 7.0
    assert compile_expression("(1+2)*3")(0.0) == 9.0
    assert compile_expression("2^3^2")(0.0) == 512.0  # right-associative
    assert compile_expression("-x^2")(2.0) == -4.0
    assert compile_expression("6/3/2")(0.0) == 1.0
    assert compile_expression("exp(0)+cos(0)")(0.0) == 2.0
    assert compile_expression("1e-2*x")(3.0) == pytest.approx(0.03)


def test_variable():
    assert compile_expression("x*x - x")(4.0) == 12.0


def test_syntax_error_position():
    with pytest.raises(ExpressionError) as err:
        compile_expression("1 + * 2")(0.0)
    assert err.value.position == 4


def test_unknown_name_rejected():
    with pytest.raises(ExpressionError, match="unknown name"):
        compile_expression("y + 1")(0.0)
    with pytest.raises(ExpressionError, match="unknown name"):
        compile_expression("__import__(1)")(0.0)


def test_division_by_zero_reports_position():
    fn = compile_expression("1/(x-1)")
    assert fn(2.0) == 1.0
    with pytest.raises(ExpressionError, match="division by zero"):
        fn(1.0)


@pytest.mark.parametrize("text, at, message", [
    ("x^-1", 1, "power failed: 0.0 cannot be raised to a negative power"),
    ("2*(x-0)^(-0.5)", 7, "power failed"),
    ("gaussian(0,0)", 0, "gaussian failed: float division by zero"),
])
def test_arithmetic_failure_at_a_point_is_an_expression_error(text, at, message):
    with pytest.raises(ExpressionError, match=re.escape(message)) as err:
        compile_expression(text)(0.0)
    assert err.value.position == at
    assert str(err.value).count("(at position") == 1


def test_wrong_arity():
    with pytest.raises(ExpressionError, match="argument"):
        compile_expression("sin(1, 2)")(0.0)
    with pytest.raises(ExpressionError, match="argument"):
        compile_expression("gaussian(1)")(0.0)


def test_trailing_garbage():
    with pytest.raises(ExpressionError, match="trailing"):
        compile_expression("1 + 2 )")(0.0)


def test_nested_functions():
    assert compile_expression("sin(cos(0)*x)")(1.0) == pytest.approx(math.sin(1.0))


@pytest.mark.parametrize("text", [
    "(" * 200 + "x" + ")" * 200,  # the parser recursed once per parenthesis
    "+".join(["x"] * 1501),  # parsed in a loop, but evaluated recursively
    "-" * 2000 + "x",
    "sin(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
    "^".join(["x"] * (MAX_DEPTH + 1)),
], ids=["parentheses", "long-sum", "signs", "calls", "powers"])
def test_too_deep_is_an_expression_error(text):
    with pytest.raises(ExpressionError, match=f"nested more than {MAX_DEPTH} levels"):
        compile_expression(text)


def test_the_deepest_allowed_expressions_evaluate():
    inner = MAX_DEPTH - 1  # the value itself is one level
    assert compile_expression("(" * inner + "x" + ")" * inner)(0.5) == 0.5
    assert compile_expression("+".join(["x"] * MAX_DEPTH))(0.5) == MAX_DEPTH / 2
    assert compile_expression("-" * inner + "x")(0.5) == -0.5
    assert compile_expression("x" + "*1" * (MAX_DEPTH - 1))(0.5) == 0.5
