"""Tiny analytic-expression language for initial/target/boundary data.

Grammar: numeric literals, the free variable ``x``, the operators
+ - * / ^ (caret is right-associative power), parentheses, the functions
sin, cos, exp, and gaussian(center, width) = exp(-((x - center)/width)^2).
Parse and evaluation errors carry the character position.  An
expression nests at most ``MAX_DEPTH`` levels: a parenthesis, a function's
arguments, a sign or an exponent opens a level, and each further term of a
sum or product adds one to the tree.  The parser and the evaluator recurse
once per level, so deeper input is an error, not a ``RecursionError``.
"""

from __future__ import annotations

import math

from .errors import ExpressionError

__all__ = ["compile_expression", "MAX_DEPTH"]

_FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "gaussian": 2}
# a parenthesis costs the parser 5 frames, well within Python's 1,000
MAX_DEPTH = 100


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^(),":
            tokens.append((ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExpressionError(f"bad number {text[i:j]!r}", position=i)
            tokens.append((("num", value), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((("name", text[i:j]), i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {ch!r}", position=i)
    tokens.append(("end", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, symbol):
        tok, at = self.next()
        if tok != symbol:
            raise ExpressionError(f"expected {symbol!r}", position=at)

    @staticmethod
    def node(at, kind, *fields):
        """The tree node ``(kind, *fields, height)``; its children are the
        nodes among ``fields`` and in a list among them."""
        height = 1
        for field in fields:
            for child in field if isinstance(field, list) else [field]:
                if isinstance(child, tuple):
                    height = max(height, child[-1] + 1)
        if height > MAX_DEPTH:
            raise _too_deep(at)
        return (kind, *fields, height)

    # expression := term (('+'|'-') term)*
    def expression(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, at = self.next()
            rhs = self.term()
            node = self.node(at, "add" if op == "+" else "sub", node, rhs)
        return node

    # term := unary (('*'|'/') unary)*
    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, at = self.next()
            rhs = self.unary()
            node = self.node(at, "mul" if op == "*" else "div", node, rhs, at)
        return node

    # unary := ('+'|'-') unary | power; every nesting passes here
    def unary(self):
        tok, at = self.peek()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _too_deep(at)
        if tok == "-":
            self.next()
            node = self.node(at, "neg", self.unary())
        elif tok == "+":
            self.next()
            node = self.unary()
        else:
            node = self.power()
        self.depth -= 1
        return node

    # power := atom ('^' unary)?   (right-associative)
    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            _, at = self.next()
            exponent = self.unary()
            node = self.node(at, "pow", node, exponent, at)
        return node

    def atom(self):
        tok, at = self.next()
        if isinstance(tok, tuple) and tok[0] == "num":
            return self.node(at, "num", tok[1])
        if isinstance(tok, tuple) and tok[0] == "name":
            name = tok[1]
            if name == "x":
                return self.node(at, "var")
            if name in _FUNCTIONS:
                self.expect("(")
                args = [self.expression()]
                while self.peek()[0] == ",":
                    self.next()
                    args.append(self.expression())
                self.expect(")")
                if len(args) != _FUNCTIONS[name]:
                    raise ExpressionError(
                        f"{name} expects {_FUNCTIONS[name]} argument(s)",
                        position=at,
                    )
                return self.node(at, "call", name, args, at)
            raise ExpressionError(f"unknown name {name!r}", position=at)
        if tok == "(":
            node = self.expression()
            self.expect(")")
            return node
        raise ExpressionError("expected a value", position=at)


def _too_deep(at: int) -> ExpressionError:
    return ExpressionError(f"expression nested more than {MAX_DEPTH} levels deep",
                           position=at)


def _eval(node, x: float) -> float:
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return x
    if kind == "neg":
        return -_eval(node[1], x)
    if kind == "add":
        return _eval(node[1], x) + _eval(node[2], x)
    if kind == "sub":
        return _eval(node[1], x) - _eval(node[2], x)
    if kind == "mul":
        return _eval(node[1], x) * _eval(node[2], x)
    if kind == "div":
        denom = _eval(node[2], x)
        if denom == 0.0:
            raise ExpressionError("division by zero", position=node[3])
        return _eval(node[1], x) / denom
    if kind == "pow":
        base = _eval(node[1], x)
        exponent = _eval(node[2], x)
        try:
            out = base**exponent
        except (ArithmeticError, ValueError) as exc:
            raise ExpressionError(f"power failed: {exc}", position=node[3])
        if isinstance(out, complex):
            raise ExpressionError("power produced a complex value",
                                  position=node[3])
        return out
    if kind == "call":
        name, args, at = node[1], node[2], node[3]
        vals = [_eval(arg, x) for arg in args]
        try:
            if name == "sin":
                return math.sin(vals[0])
            if name == "cos":
                return math.cos(vals[0])
            if name == "exp":
                return math.exp(vals[0])
            if name == "gaussian":
                center, width = vals
                return math.exp(-(((x - center) / width) ** 2))
        except (ArithmeticError, ValueError) as exc:
            raise ExpressionError(f"{name} failed: {exc}", position=at)
    raise ExpressionError(f"internal: bad node {kind!r}")


def compile_expression(text: str):
    """Parse once, returning a callable of the grid coordinate."""
    parser = _Parser(text)
    ast = parser.expression()
    tok, at = parser.peek()
    if tok != "end":
        raise ExpressionError("trailing input", position=at)
    return lambda x: _eval(ast, float(x))

