"""Symbolic expressions in the two plane variables x and y.

The expression language is deliberately small: real constants, the two
variables, sums, products, quotients, integer powers and negation.  It is
enough to describe polynomial (and mildly rational) coefficient fields of a
metric while keeping exact differentiation trivial.

Trees are immutable plain data; constructors fold constant subtrees and
nothing else, so a parsed expression keeps the shape the user wrote.
Nothing here evaluates a tree: codegen.LayerTable compiles lists of them
into straight-line functions on floats and arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DIV_TOL = 1e-12


class ExprSyntaxError(ValueError):
    """Raised by the parser; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


X = Var("x")
Y = Var("y")
ZERO = Const(0.0)
ONE = Const(1.0)


def const(v: float) -> Const:
    return Const(float(v))


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and abs(b.value) > DIV_TOL:
        return Const(a.value / b.value)
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    return Neg(a)


def powi(base: Expr, exponent: int) -> Expr:
    exponent = int(exponent)
    if exponent == 1:
        return base
    if isinstance(base, Const):
        try:
            return Const(float(base.value) ** exponent)
        except (OverflowError, ZeroDivisionError):
            pass
    return Pow(base, exponent)


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def as_expr(v: Expr | str | float) -> Expr:
    """An expression tree, the text of one, or a number as a constant."""
    if isinstance(v, Expr):
        return v
    if isinstance(v, str):
        return parse(v)
    return const(v)


# ---------------------------------------------------------------------------
# parsing


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ExprSyntaxError:
        return ExprSyntaxError(message, self.pos)

    def folded(self, e: Expr, start: int) -> Expr:
        """e, unless folding made it a constant that is not a finite float
        (a power of a constant stays unfolded only where it raised)."""
        unfolded_pow = isinstance(e, Pow) and isinstance(e.base, Const)
        if unfolded_pow or isinstance(e, Const) and not math.isfinite(e.value):
            self.pos = start
            raise self.error("constant is not a finite float")
        return e

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Expr:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise self.error("empty expression")
        e = self.parse_sum()
        self.skip_ws()
        if self.pos < len(self.text):
            raise self.error(f"unexpected character {self.text[self.pos]!r}")
        return e

    def parse_sum(self) -> Expr:
        self.skip_ws()
        start = self.pos
        e = self.parse_term()
        while True:
            self.skip_ws()
            c = self.peek()
            if c == "+":
                self.pos += 1
                e = self.folded(add(e, self.parse_term()), start)
            elif c == "-":
                self.pos += 1
                e = self.folded(sub(e, self.parse_term()), start)
            else:
                return e

    def parse_term(self) -> Expr:
        self.skip_ws()
        start = self.pos
        e = self.parse_unary()
        while True:
            self.skip_ws()
            c = self.peek()
            if c == "*":
                self.pos += 1
                e = self.folded(mul(e, self.parse_unary()), start)
            elif c == "/":
                self.pos += 1
                e = self.folded(div(e, self.parse_unary()), start)
            else:
                return e

    def parse_unary(self) -> Expr:
        self.skip_ws()
        if self.peek() == "-":
            self.pos += 1
            return neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        self.skip_ws()
        base_start = self.pos
        base = self.parse_atom()
        self.skip_ws()
        if self.peek() != "^":
            return base
        self.pos += 1
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if not self.peek().isdigit():
            self.pos = start
            raise self.error("exponent must be an integer literal")
        while self.peek().isdigit():
            self.pos += 1
        if self.peek() in (".", "e", "E"):
            self.pos = start
            raise self.error("exponent must be an integer literal")
        return self.folded(powi(base, int(self.text[start : self.pos])), base_start)

    def parse_atom(self) -> Expr:
        self.skip_ws()
        c = self.peek()
        if c == "(":
            self.pos += 1
            e = self.parse_sum()
            self.skip_ws()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return e
        if c.isdigit() or c == ".":
            return self.parse_number()
        if c.isalpha() or c == "_":
            start = self.pos
            while self.peek().isalnum() or self.peek() == "_":
                self.pos += 1
            name = self.text[start : self.pos]
            if name not in ("x", "y"):
                self.pos = start
                raise self.error(f"unknown variable {name!r} (only x and y)")
            return Var(name)
        if c == "":
            raise self.error("unexpected end of input")
        raise self.error(f"unexpected character {c!r}")

    def parse_number(self) -> Expr:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if self.peek() == ".":
            self.pos += 1
            while self.peek().isdigit():
                self.pos += 1
        if self.pos == start or self.text[start : self.pos] == ".":
            raise self.error("malformed number")
        if self.peek() in ("e", "E"):
            mark = self.pos
            self.pos += 1
            if self.peek() in ("+", "-"):
                self.pos += 1
            if not self.peek().isdigit():
                self.pos = mark
                raise self.error("malformed exponent in number")
            while self.peek().isdigit():
                self.pos += 1
        value = float(self.text[start : self.pos])
        if not math.isfinite(value):
            self.pos = start
            raise self.error("number is too large for a float")
        return Const(value)


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises ExprSyntaxError (with a byte offset) on malformed input.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# differentiation, printing


def diff(e: Expr, var: str) -> Expr:
    """Exact partial derivative with respect to ``var`` ('x' or 'y')."""
    if var not in ("x", "y"):
        raise ValueError(f"unknown variable {var!r}")
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Add):
        return add(diff(e.a, var), diff(e.b, var))
    if isinstance(e, Mul):
        return add(mul(diff(e.a, var), e.b), mul(e.a, diff(e.b, var)))
    if isinstance(e, Div):
        num = sub(mul(diff(e.a, var), e.b), mul(e.a, diff(e.b, var)))
        return div(num, mul(e.b, e.b))
    if isinstance(e, Neg):
        return neg(diff(e.a, var))
    if isinstance(e, Pow):
        inner = diff(e.base, var)
        return mul(mul(const(e.exponent), powi(e.base, e.exponent - 1)), inner)
    raise TypeError(f"not an expression node: {e!r}")


def swap_xy(e: Expr) -> Expr:
    """Return the tree with the roles of x and y exchanged."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return Y if e.name == "x" else X
    if isinstance(e, Add):
        return Add(swap_xy(e.a), swap_xy(e.b))
    if isinstance(e, Mul):
        return Mul(swap_xy(e.a), swap_xy(e.b))
    if isinstance(e, Div):
        return Div(swap_xy(e.a), swap_xy(e.b))
    if isinstance(e, Neg):
        return Neg(swap_xy(e.a))
    if isinstance(e, Pow):
        return Pow(swap_xy(e.base), e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(e: Expr) -> int:
    if isinstance(e, Add):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Const) and e.value < 0:
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _wrap(e: Expr, need_above: int) -> str:
    s = to_string(e)
    if _prec(e) <= need_above:
        return "(" + s + ")"
    return s


def to_string(e: Expr) -> str:
    """Print so that parse(to_string(e)) reproduces the tree exactly."""
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        left = _wrap(e.a, _PREC_ADD - 1)
        if isinstance(e.b, Neg):
            return left + " - " + _wrap(e.b.a, _PREC_ADD)
        if isinstance(e.b, Const) and e.b.value < 0:
            return left + " - " + _fmt_const(-e.b.value)
        return left + " + " + _wrap(e.b, _PREC_ADD)
    if isinstance(e, Mul):
        return _wrap(e.a, _PREC_MUL - 1) + "*" + _wrap(e.b, _PREC_MUL)
    if isinstance(e, Div):
        return _wrap(e.a, _PREC_MUL - 1) + "/" + _wrap(e.b, _PREC_MUL)
    if isinstance(e, Neg):
        return "-" + _wrap(e.a, _PREC_MUL)
    if isinstance(e, Pow):
        base = to_string(e.base)
        if _prec(e.base) < _PREC_ATOM:
            base = "(" + base + ")"
        return base + "^" + str(e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# polynomial views


def _pad2(c: np.ndarray, rows: int, cols: int) -> np.ndarray:
    out = np.zeros((rows, cols))
    out[: c.shape[0], : c.shape[1]] = c
    return out


def _conv2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if a[i, j] != 0.0:
                out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
    return out


def _trim2(c: np.ndarray) -> np.ndarray:
    rows = c.shape[0]
    while rows > 1 and not np.any(c[rows - 1]):
        rows -= 1
    cols = c.shape[1]
    while cols > 1 and not np.any(c[:rows, cols - 1]):
        cols -= 1
    return c[:rows, :cols].copy()


def expr_to_poly2d(e: Expr) -> np.ndarray:
    """Coefficient table c with e == sum c[i, j] * x**i * y**j.

    Only expressions that are genuinely polynomial in x and y convert;
    division by anything but a nonzero constant, or a negative power,
    raises ValueError.
    """

    def rec(node: Expr) -> np.ndarray:
        if isinstance(node, Const):
            return np.array([[node.value]])
        if isinstance(node, Var):
            if node.name == "x":
                return np.array([[0.0], [1.0]])
            return np.array([[0.0, 1.0]])
        if isinstance(node, Add):
            a, b = rec(node.a), rec(node.b)
            rows = max(a.shape[0], b.shape[0])
            cols = max(a.shape[1], b.shape[1])
            return _pad2(a, rows, cols) + _pad2(b, rows, cols)
        if isinstance(node, Mul):
            return _conv2(rec(node.a), rec(node.b))
        if isinstance(node, Neg):
            return -rec(node.a)
        if isinstance(node, Div):
            if isinstance(node.b, Const) and node.b.value != 0.0:
                return rec(node.a) / node.b.value
            raise ValueError("division makes the expression non-polynomial")
        if isinstance(node, Pow):
            if node.exponent < 0:
                raise ValueError("negative power makes the expression non-polynomial")
            out = np.array([[1.0]])
            base = rec(node.base)
            for _ in range(node.exponent):
                out = _conv2(out, base)
            return out
        raise TypeError(f"not an expression node: {node!r}")

    return _trim2(rec(e))


def poly2d_to_expr(c: np.ndarray) -> Expr:
    """Inverse of expr_to_poly2d up to the ordering of monomials."""
    c = np.atleast_2d(np.asarray(c, dtype=np.float64))
    acc: Expr | None = None
    for i in range(c.shape[0]):
        for j in range(c.shape[1]):
            v = c[i, j]
            if v == 0.0:
                continue
            factors: list[Expr] = []
            if i:
                factors.append(powi(Var("x"), i))
            if j:
                factors.append(powi(Var("y"), j))
            if not factors:
                term: Expr = const(v)
            else:
                term = factors[0]
                for f in factors[1:]:
                    term = mul(term, f)
                if v == -1.0:
                    term = neg(term)
                elif v != 1.0:
                    term = mul(const(v), term)
            acc = term if acc is None else add(acc, term)
    return acc if acc is not None else const(0.0)
