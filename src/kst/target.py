"""Target functions on the unit cube: a registry of built-ins and a small
expression language.

Grammar (EBNF):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | VAR | IDENT '(' expr ')' | '(' expr ')'
    VAR    := 'x' [1-9][0-9]*

Precedence is ^ above unary minus above * and /, with ^ right
associative. NUMBER is a plain decimal literal; all digits and letters
are ASCII. The only functions are sin, cos, exp, abs and sqrt. Parse
and tree nest at most MAX_DEPTH levels (a sum of n terms is n deep).

Targets are evaluated on whole (N, dim) arrays of points; an expression
is compiled once into a closure over numpy ufuncs. A division by zero,
an invalid argument, an overflow or a non-finite value in a batch is a
DomainError; underflow to zero is not.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ExpressionError

FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs, "sqrt": np.sqrt}
# float_power calls the C library's pow like Python's ``**``; power
# takes a vectorized path that differs from it in the last bit.
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.float_power}
MAX_DEPTH = 100  # keeps the parser and the compiled closures off the recursion limit


# -- abstract syntax ---------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Num | Var | Neg | BinOp | Call


# -- tokenizer and parser ----------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'ident', 'var', op character, or 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c in "0123456789.":
            start = i
            seen_dot = False
            while i < len(text) and text[i] in "0123456789.":
                if text[i] == ".":
                    if seen_dot:
                        raise ExpressionError("malformed number", i)
                    seen_dot = True
                i += 1
            lit = text[start:i]
            if lit == ".":
                raise ExpressionError("malformed number", start)
            tokens.append(_Token("num", lit, start))
            continue
        if c.isascii() and c.isalpha():
            start = i
            while i < len(text) and text[i].isascii() and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            if word[0] == "x" and len(word) > 1 and word[1:].isdigit():
                tokens.append(_Token("var", word, start))
            else:
                tokens.append(_Token("ident", word, start))
            continue
        raise ExpressionError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], n: int):
        self.tokens = tokens
        self.n = n
        self.i = 0
        self.nesting = 0  # factor calls under way

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExpressionError(f"expected {kind!r}", tok.pos)
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError("trailing input", tok.pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.nesting == MAX_DEPTH:  # every nested parse passes through here
            raise ExpressionError(f"nested deeper than {MAX_DEPTH} levels", self.peek().pos)
        self.nesting += 1
        if self.peek().kind == "-":
            self.advance()
            node = Neg(self.factor())
        else:
            node = self.power()
        self.nesting -= 1
        return node

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "var":
            self.advance()
            index = int(tok.text[1:])
            if index < 1 or index > self.n:
                raise ExpressionError(
                    f"variable {tok.text} out of range for dimension {self.n}", tok.pos
                )
            return Var(index)
        if tok.kind == "ident":
            self.advance()
            if tok.text not in FUNCTIONS:
                raise ExpressionError(f"unknown identifier {tok.text!r}", tok.pos)
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Call(tok.text, arg)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ExpressionError("expected a value", tok.pos)


def parse(text: str, n: int) -> Expr:
    """Parse an expression over x1..xn; errors carry byte offsets."""
    if not text.strip():
        raise ExpressionError("empty expression", 0)
    tree = _Parser(_tokenize(text), n).parse()
    depth, level = 1, [tree]
    while level := [c for e in level for c in vars(e).values() if isinstance(c, Expr)]:
        depth += 1  # level by level: the tree may be too deep to recurse into
    if depth > MAX_DEPTH:
        raise ExpressionError(f"expression tree {depth} levels deep, over {MAX_DEPTH}")
    return tree


def _compile(e: Expr) -> Callable[[np.ndarray], np.ndarray]:
    """Closure mapping an (N, dim) array to the expression's N values."""
    if isinstance(e, Num):
        return lambda X: np.full(len(X), e.value)
    if isinstance(e, Var):
        return lambda X: X[:, e.index - 1]
    if isinstance(e, Neg):
        operand = _compile(e.operand)
        return lambda X: np.negative(operand(X))
    if isinstance(e, Call):
        func, arg = FUNCTIONS[e.func], _compile(e.arg)
        return lambda X: func(arg(X))
    if isinstance(e, BinOp):
        op, left, right = _BINARY[e.op], _compile(e.left), _compile(e.right)
        return lambda X: op(left(X), right(X))
    raise TypeError(f"not an expression node: {e!r}")


# -- target functions --------------------------------------------------------


def _evaluate(fn: Callable[[np.ndarray], np.ndarray], pts: np.ndarray) -> np.ndarray:
    """fn on an (N, dim) array, refusing floating-point faults and
    non-finite values with DomainError."""
    pts = np.asarray(pts, dtype=float)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            out = np.array(fn(pts), dtype=float)  # a copy, never a view of pts
    except FloatingPointError as exc:
        raise DomainError(f"target is undefined on the sample: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise DomainError(f"target is not finite at {pts[bad[0]].tolist()}")
    return out


@dataclass(frozen=True)
class TargetFunction:
    """A function on [0,1]^dim with a known or estimated sup-norm bound;
    ``fn`` maps an (N, dim) array of points to their N values."""

    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    sup_norm_bound: float
    provenance: dict

    def __call__(self, p: Sequence[float]) -> float:
        return float(self.eval_batch(np.asarray(p, dtype=float)[None, :])[0])

    def eval_batch(self, pts: np.ndarray) -> np.ndarray:
        """Values at the rows of an (N, dim) array of points."""
        return _evaluate(self.fn, pts)


def _builtin_specs(n: int) -> dict[str, tuple[Callable, float]]:
    # columns are summed and multiplied left to right, as sum and
    # math.prod accumulate, so results do not depend on numpy's order
    add = lambda X: functools.reduce(np.add, X.T)
    return {
        "zero": (lambda X: np.zeros(len(X)), 0.0),
        "one": (lambda X: np.ones(len(X)), 1.0),
        "product": (lambda X: functools.reduce(np.multiply, X.T), 1.0),
        "gaussian": (lambda X: np.exp(-add(X * X)), 1.0),
        "ridge": (lambda X: np.sin(np.pi * add(X)) / n, 1.0 / n),
    }


def builtin_names() -> list[str]:
    return sorted(_builtin_specs(2))


def builtin_target(name: str, n: int) -> TargetFunction:
    specs = _builtin_specs(n)
    if name not in specs:
        raise ExpressionError(
            f"unknown builtin {name!r}; choose from {sorted(specs)}"
        )
    fn, bound = specs[name]
    return TargetFunction(
        dim=n,
        fn=fn,
        sup_norm_bound=bound,
        provenance={"kind": "builtin", "name": name},
    )


def default_audit_resolution(n: int) -> int:
    """Points per axis of the default audit mesh: 101**2 points at n = 2;
    31**n keeps n >= 3 at desk scale."""
    return 101 if n <= 2 else 31


def expression_target(text: str, n: int) -> TargetFunction:
    """Target from expression text.

    The sup-norm bound is the sampled maximum on a grid matching the
    default audit resolution; exact bounds are only known for built-ins.
    """
    fn = _compile(parse(text, n))
    pts = mesh_points([np.linspace(0.0, 1.0, default_audit_resolution(n))] * n)
    observed = float(np.max(np.abs(_evaluate(fn, pts))))
    return TargetFunction(
        dim=n,
        fn=fn,
        sup_norm_bound=observed,
        provenance={"kind": "expression", "text": text},
    )


def target_from_provenance(prov: dict, n: int) -> TargetFunction:
    if prov["kind"] == "builtin":
        return builtin_target(prov["name"], n)
    return expression_target(prov["text"], n)


def mesh_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """The points of the product mesh of the axes, in row-major order."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)
