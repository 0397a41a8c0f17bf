"""Tiny arithmetic expression grammar for potential and metric fields.

+ - * / ^ (``**`` an alias) in Python's precedence (``-q^2`` is ``-(q^2)``),
parentheses, unary plus, sin, cos, exp, pi, e, decimal literals and the given
coordinate names: Python parses the text, and a node whitelist allows no more.
"""
from __future__ import annotations

import ast
import operator
import re

import numpy as np

_DECIMAL = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
_BINARY = {ast.Add: (operator.add, "+"), ast.Sub: (operator.sub, "-"),
           ast.Mult: (operator.mul, "*"), ast.Div: (operator.truediv, "/"),
           ast.Pow: (operator.pow, "^")}
_UNARY = {ast.USub: operator.neg, ast.UAdd: operator.pos}
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": np.pi, "e": np.e}


class ExpressionError(ValueError):
    """Syntax or name error in a field expression."""


def _check(node, src: str, names: tuple[str, ...]) -> None:
    """Raise :class:`ExpressionError` unless every node under ``node`` is allowed."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        _check(node.left, src, names)
        _check(node.right, src, names)
    elif isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        _check(node.operand, src, names)
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and len(node.args) == 1 and not node.keywords):
        # a parenthesized name, as in (sin)(q), is not a function
        if node.func.id not in _FUNCTIONS or node.func.col_offset != node.col_offset:
            raise ExpressionError(f"unknown function {node.func.id!r}")
        _check(node.args[0], src, names)
    elif isinstance(node, ast.Name):
        if node.id not in _CONSTANTS and node.id not in names:
            raise ExpressionError(f"unknown name {node.id!r} (coordinates: {names})")
    elif isinstance(node, ast.Constant) and _DECIMAL.fullmatch(
            text := ast.get_source_segment(src, node)):
        node.value = float(text)  # every literal a float; an overlong integer reads inf
    else:
        raise ExpressionError(f"not allowed: {ast.get_source_segment(src, node)!r}")


def _evaluate(node, env):
    if isinstance(node, ast.BinOp):
        op, symbol = _BINARY[type(node.op)]
        left, right = _evaluate(node.left, env), _evaluate(node.right, env)
        try:
            return op(left, right)
        except ArithmeticError as exc:  # float operands only: 0^-1, 1/0, 10^400
            what = ("overflow" if isinstance(exc, OverflowError)
                    else "zero to a negative power" if symbol == "^" else "division by zero")
            raise type(exc)(f"{what} in {symbol!r}") from None
    if isinstance(node, ast.UnaryOp):
        return _UNARY[type(node.op)](_evaluate(node.operand, env))
    if isinstance(node, ast.Call):
        return _FUNCTIONS[node.func.id](_evaluate(node.args[0], env))
    return env[node.id] if isinstance(node, ast.Name) else node.value


def compile_expression(text: str, names: tuple[str, ...]):
    """Compile to a callable taking coordinate arrays in ``names`` order."""
    if not isinstance(text, str):
        raise ExpressionError(f"expected an expression string, got {type(text).__name__}")
    # Python would end at a line break, skip a '#' comment and NFKC-fold names.
    src = " ".join(text.split()).replace("^", "**")
    if not (src.isascii() and src.isprintable()) or "#" in src:
        raise ExpressionError(f"unexpected character in {text!r}")
    try:
        tree = ast.parse(src, mode="eval").body
        _check(tree, src, names)
    except (SyntaxError, MemoryError, RecursionError) as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc}") from exc

    def fn(*coords):
        if len(coords) != len(names):
            raise ExpressionError(f"expected {len(names)} coordinate arrays")
        value = _evaluate(tree, dict(zip(names, coords), **_CONSTANTS))
        if type(value) is complex:  # only a float power makes one: (-8)^0.5
            raise TypeError("fractional power of a negative base in '^'")
        out = np.asarray(value, dtype=float)
        if out.ndim == 0 and coords:
            out = np.full(np.shape(coords[0]), float(out))
        return out

    return fn
