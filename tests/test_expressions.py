"""Differential test of the field-expression compiler against a reference parser.

The reference is a hand-written regex tokenizer and recursive-descent parser
over the same grammar, kept here unchanged so that the ``ast``-based compiler
must give the same bits and reject the same texts.  The generators below
never write the literals the two read differently by design: integers with
leading zeros (``007``, pinned in ``test_potentials.py``), non-ASCII digits
and integers of over 4,300 digits, all of which the compiler rejects.
"""
import random
import re
import warnings

import numpy as np
import pytest

from stochaction.expressions import ExpressionError, compile_expression

# ---------------------------------------------------------------- reference

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|([A-Za-z_]\w*)|(\*\*|[-+*/^()]))")
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": np.pi, "e": np.e}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ExpressionError(f"unexpected character at position {pos}: {text[pos:]!r}")
            break
        tokens.append(m.group(0).strip())
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, names):
        self.tokens = tokens
        self.pos = 0
        self.names = names

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.take()
        if got != tok:
            raise ExpressionError(f"expected {tok!r}, got {got!r}")

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = (op, node, rhs)
        return node

    def term(self):
        node = self.power()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.power()
            node = (op, node, rhs)
        return node

    def power(self):
        if self.peek() in ("-", "+"):
            op = self.take()
            node = self.power()
            return ("neg", node, None) if op == "-" else node
        node = self.primary()
        if self.peek() in ("^", "**"):
            self.take()
            return ("^", node, self.power())
        return node

    def primary(self):
        tok = self.take()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        if tok == "(":
            node = self.expr()
            self.expect(")")
            return node
        if re.fullmatch(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?", tok):
            return ("num", float(tok), None)
        if re.fullmatch(r"[A-Za-z_]\w*", tok):
            if self.peek() == "(":
                if tok not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {tok!r}")
                self.take()
                arg = self.expr()
                self.expect(")")
                return ("call", tok, arg)
            if tok in _CONSTANTS:
                return ("num", _CONSTANTS[tok], None)
            if tok in self.names:
                return ("var", tok, None)
            raise ExpressionError(f"unknown name {tok!r} (coordinates: {self.names})")
        raise ExpressionError(f"unexpected token {tok!r}")


def _evaluate(node, env):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        return -_evaluate(node[1], env)
    if kind == "call":
        return _FUNCTIONS[node[1]](_evaluate(node[2], env))
    a = _evaluate(node[1], env)
    b = _evaluate(node[2], env)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    if kind == "/":
        return a / b
    if kind == "^":
        return a ** b
    raise ExpressionError(f"bad node {kind!r}")


def reference_compile(text, names):
    parser = _Parser(_tokenize(text), names)
    tree = parser.expr()
    if parser.peek() is not None:
        raise ExpressionError(f"trailing tokens starting at {parser.peek()!r}")

    def fn(*coords):
        if len(coords) != len(names):
            raise ExpressionError(f"expected {len(names)} coordinate arrays")
        env = dict(zip(names, coords))
        out = np.asarray(_evaluate(tree, env), dtype=float)
        if out.ndim == 0 and coords:
            out = np.full(np.shape(coords[0]), float(out))
        return out

    return fn

# ---------------------------------------------------------------- inputs

NAMES = ("x", "y")
COORDS = (np.array([-2.0, -1.0, -0.5, 0.0, 0.25, 1.0, 3.0]),
          np.array([1.5, -0.0, 2.0, -3.0, 0.5, 0.0, -1.0]))

FIXED = [
    "2 + 3 * x ^ 2", "2 ^ 3 ^ 2", "2 ** 3 ** 2", "2^3**2", "sin(pi * x) + exp(0) - cos(0)",
    "-x^2 + (-1)*x", "x*y - y/2", "0", "-x**2", "(-x)^2", "-2^2", "2^-x^2", "2^-x^-y",
    "e^x", "e**-(x^2+y^2)", "+x", "--x", "- + - x", "x--y", "x+-y", "x*-y", "x/-y/2",
    "x/y/2", "x-y-1", "x-(y-1)", "1e3*x", "1.e-2", ".5*x", "2.5E+2-x", "1.", "00",
    "sin(cos(exp(-x^2)))", "exp(sin(x)^2)^0.5", "sin (x)", "sin((x))",
    "1+0.2*exp(-(x^2+y^2)/8)", "0.05*exp(-(x^2+y^2)/8)", "-0.5*y", "0.5*(x^2+y^2)",
    "1+0.2*sin(x)^2", "1+0.1*cos(x)*exp(-y^2/8)", "0.05*sin(x)*exp(-y^2/8)",
    "0.5*y^2+0.2*cos(x)", " x\t+\ny ", "x * y", "x\x0b+1", "(x\n)", "pi*e",
    "x^0.5", "(-8)^(1/3)", "0^-1", "1/0", "10^400", "2^1024", "x^y", "0*x/0",
    "2^1024/2^1024", "1" + "0" * 400 + "*x",
    # rejected
    "", " ", "x +", "sin(x", "2 ** * 3", "x @ 2", "tan(x)", "unknown + 1", "x y", "2x",
    "x(2)", "pi(x)", "sin", "(sin)(x)", "sin()", "()", "x)", "(x", "x^^2", "x^*2",
    "x***2", "1.5.3", "x.5", "1e", "1e+x", "x # comment", "x \\\n+ 1", "x\x00",
    "ｘ", "xｘ", "q", "x[0]", "x.real", "x < 1", "x//2", "1j*x", "True*x",
    "sin(x, x)", "sin(x=x)", "sin(x, y=1)", "sin(*x)", "lambda: x", "0x10*x", "1_0*x", "'x'", "x,", "(x, y)",
    "x if y else 1", "not x", "~x", "x % 2", "x; y", "x = 1", "x and y", "[x]",
]

_LITERALS = ["2", "3", "10", "0.5", ".5", "1.", "1e3", "2E-2", "1.5e+1", "0.0", "7"]
_SPACES = ["", "", "", " ", "  ", "\t", "\n"]


def random_expression(rng, depth):
    """A random text from the grammar, with optional parentheses and spacing."""
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        text = rng.choice(_LITERALS + ["x", "y", "pi", "e"])
    elif roll < 0.4:
        text = rng.choice(["-", "+"]) + random_expression(rng, depth - 1)
    elif roll < 0.5:
        text = f"{rng.choice(list(_FUNCTIONS))}({random_expression(rng, depth - 1)})"
    else:
        op = rng.choice(["+", "-", "*", "/", "^", "**"])
        text = rng.choice(_SPACES).join([random_expression(rng, depth - 1), op,
                                         random_expression(rng, depth - 1)])
    return f"({text})" if rng.random() < 0.2 else text


_SOUP = ["x", "y", "2", "1.5", ".5", "1e3", "pi", "e", "sin", "cos", "exp", "tan", "+",
         "-", "*", "/", "^", "**", "(", ")", "(", ")", ",", ".", "#", "@", "%", "//",
         "[", "]", "j", "_", "=", "<", ":", ";", "'", "\\", "\x00", "ｘ", "not",
         "lambda", "True", "0x1", " ", "\n", "\t", "\x0b", " "]


def random_soup(rng):
    """A random token sequence; most are not expressions at all."""
    return rng.choice(["", " "]).join(rng.choice(_SOUP) for _ in range(rng.randint(1, 10)))


def random_texts():
    rng = random.Random(20131)
    grammar = [random_expression(rng, rng.randint(1, 5)) for _ in range(5000)]
    return FIXED + grammar + [random_soup(rng) for _ in range(5000)]

# ---------------------------------------------------------------- tests


def outcome(compiler, text):
    """``("reject",)``, the call's exception type, or the result's bits."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")   # "1if" literals, complex powers cast to float
        try:
            fn = compiler(text, NAMES)
        except ExpressionError:
            return ("reject",)
        try:
            out = fn(*COORDS)
        except (ArithmeticError, TypeError) as exc:   # 0.0**-1, 10.0**400, (-8.0)**0.5
            return ("raises", type(exc))
    return ("value", out.shape, out.view(np.uint64).tobytes())


def test_same_bits_and_rejections_as_reference():
    texts = random_texts()
    want = [outcome(reference_compile, text) for text in texts]
    mismatches = [text for text, ref in zip(texts, want)
                  if outcome(compile_expression, text) != ref]
    assert not mismatches, mismatches[:10]
    kinds = [ref[0] for ref in want]
    assert min(kinds.count("value"), kinds.count("reject")) > 2000
    assert kinds.count("raises") > 0


@pytest.mark.parametrize("text", ["-" * 100000 + "x", "(" * 300 + "x" + ")" * 300,
                                  "+".join(["x"] * 100000)])
def test_deep_nesting_is_an_expression_error(text):
    with pytest.raises(ExpressionError):
        compile_expression(text, NAMES)
