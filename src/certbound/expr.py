"""Expression language: AST, parser, symbolic differentiation, evaluation.

Expressions are immutable trees over named variables.  The same tree supports
point evaluation (floats), interval evaluation (sound enclosures via
:mod:`certbound.intervals`) and symbolic differentiation, so an objective and
its interval extension always come from one source.

Simplification is deliberately conservative: constant folding, 0/1
identities and ``x*x -> sqr(x)`` only.  Interval enclosure width depends on
the written form of an expression, so we never reassociate or collect terms
behind the user's back; tighter manual forms yield tighter bounds.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    DomainError,
    EvaluationError,
    NonDifferentiable,
    ParseError,
    UnboundVariable,
)
from .intervals import Box, Interval, iv_cos, iv_sin, refined_eval

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

NEG, ABS, SQR, SQRT, SIN, COS, EXP = "neg", "abs", "sqr", "sqrt", "sin", "cos", "exp"
ADD, SUB, MUL, DIV = "+", "-", "*", "/"

_FUNCTIONS = ("abs", "cos", "exp", "sin", "sqr", "sqrt")


class Expr:
    """Base class; construction helpers allow ``x * y + 2`` style assembly."""

    __slots__ = ()

    def __add__(self, other) -> "Expr":
        return Binary(ADD, self, as_expr(other))

    def __radd__(self, other) -> "Expr":
        return Binary(ADD, as_expr(other), self)

    def __sub__(self, other) -> "Expr":
        return Binary(SUB, self, as_expr(other))

    def __rsub__(self, other) -> "Expr":
        return Binary(SUB, as_expr(other), self)

    def __mul__(self, other) -> "Expr":
        return Binary(MUL, self, as_expr(other))

    def __rmul__(self, other) -> "Expr":
        return Binary(MUL, as_expr(other), self)

    def __truediv__(self, other) -> "Expr":
        return Binary(DIV, self, as_expr(other))

    def __rtruediv__(self, other) -> "Expr":
        return Binary(DIV, as_expr(other), self)

    def __neg__(self) -> "Expr":
        return Unary(NEG, self)

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True, slots=True, eq=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True, eq=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True, eq=True)
class Unary(Expr):
    op: str
    arg: Expr


@dataclass(frozen=True, slots=True, eq=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True, eq=True)
class PowInt(Expr):
    base: Expr
    exponent: int

    def __post_init__(self) -> None:
        if not isinstance(self.exponent, int) or self.exponent < 1:
            raise DomainError(f"integer exponent must be >= 1, got {self.exponent!r}")


ZERO = Const(0.0)
ONE = Const(1.0)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Const(float(x))
    raise TypeError(f"cannot treat {x!r} as an expression")


def sqr(e: Expr) -> Expr:
    return Unary(SQR, as_expr(e))


def expr_sum(terms: Iterable[Expr]) -> Expr | None:
    """Left-associative sum ``((t1 + t2) + t3) + ...`` of ``terms``, or
    ``None`` when there are none.  The association order is part of the
    written form, so it fixes the enclosures."""
    terms = list(terms)
    return functools.reduce(operator.add, terms) if terms else None


def free_vars(e: Expr) -> frozenset[str]:
    out: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Unary):
            stack.append(node.arg)
        elif isinstance(node, Binary):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, PowInt):
            stack.append(node.base)
    return frozenset(out)


def is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------


def simplify(e: Expr) -> Expr:
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Unary):
        arg = simplify(e.arg)
        if e.op == NEG:
            if isinstance(arg, Const):
                return Const(-arg.value)
            if isinstance(arg, Unary) and arg.op == NEG:
                return arg.arg
        elif isinstance(arg, Const):
            if e.op == SQR:
                return Const(arg.value * arg.value)
            if e.op == ABS:
                return Const(abs(arg.value))
        return Unary(e.op, arg)
    if isinstance(e, PowInt):
        base = simplify(e.base)
        if e.exponent == 1:
            return base
        if isinstance(base, Const):
            return Const(base.value**e.exponent)
        return PowInt(base, e.exponent)
    assert isinstance(e, Binary)
    left = simplify(e.left)
    right = simplify(e.right)
    lc = left.value if isinstance(left, Const) else None
    rc = right.value if isinstance(right, Const) else None
    if e.op == ADD:
        if lc == 0.0:
            return right
        if rc == 0.0:
            return left
        if lc is not None and rc is not None:
            return Const(lc + rc)
    elif e.op == SUB:
        if rc == 0.0:
            return left
        if lc == 0.0:
            return simplify(Unary(NEG, right))
        if lc is not None and rc is not None:
            return Const(lc - rc)
    elif e.op == MUL:
        if lc == 0.0 or rc == 0.0:
            return ZERO
        if lc == 1.0:
            return right
        if rc == 1.0:
            return left
        if lc is not None and rc is not None:
            return Const(lc * rc)
        if left == right:
            return Unary(SQR, left)
    elif e.op == DIV:
        if rc == 1.0:
            return left
        if lc is not None and rc is not None and rc != 0.0:
            return Const(lc / rc)
    return Binary(e.op, left, right)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------


def provably_nonnegative(e: Expr) -> bool:
    """Syntactic certificate that an expression is >= 0 on its whole domain."""
    if isinstance(e, Const):
        return e.value >= 0.0
    if isinstance(e, Unary):
        if e.op in (SQR, ABS, EXP):
            return True
        if e.op == SQRT:
            return True
        return False
    if isinstance(e, PowInt):
        return e.exponent % 2 == 0 or provably_nonnegative(e.base)
    if isinstance(e, Binary):
        if e.op in (ADD, MUL):
            return provably_nonnegative(e.left) and provably_nonnegative(e.right)
        if e.op == DIV:
            return provably_nonnegative(e.left) and provably_nonnegative(e.right)
    return False


def differentiate(e: Expr, v: str) -> Expr:
    """Symbolic partial derivative with respect to variable ``v``."""
    return simplify(_diff(e, v))


def _diff(e: Expr, v: str) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == v else ZERO
    if isinstance(e, PowInt):
        db = _diff(e.base, v)
        if e.exponent == 1:
            return db
        inner = e.base if e.exponent == 2 else PowInt(e.base, e.exponent - 1)
        return Binary(MUL, Binary(MUL, Const(float(e.exponent)), inner), db)
    if isinstance(e, Unary):
        da = _diff(e.arg, v)
        if e.op == NEG:
            return Unary(NEG, da)
        if e.op == SQR:
            return Binary(MUL, Binary(MUL, Const(2.0), e.arg), da)
        if e.op == SQRT:
            return Binary(DIV, da, Binary(MUL, Const(2.0), Unary(SQRT, e.arg)))
        if e.op == SIN:
            return Binary(MUL, Unary(COS, e.arg), da)
        if e.op == COS:
            return Binary(MUL, Unary(NEG, Unary(SIN, e.arg)), da)
        if e.op == EXP:
            return Binary(MUL, Unary(EXP, e.arg), da)
        if e.op == ABS:
            if provably_nonnegative(e.arg):
                return da
            raise NonDifferentiable(
                f"cannot differentiate abs({to_text(e.arg)}): sign not certified"
            )
    assert isinstance(e, Binary)
    dl = _diff(e.left, v)
    dr = _diff(e.right, v)
    if e.op == ADD:
        return Binary(ADD, dl, dr)
    if e.op == SUB:
        return Binary(SUB, dl, dr)
    if e.op == MUL:
        return Binary(ADD, Binary(MUL, dl, e.right), Binary(MUL, e.left, dr))
    return Binary(
        DIV,
        Binary(SUB, Binary(MUL, dl, e.right), Binary(MUL, e.left, dr)),
        Unary(SQR, e.right),
    )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            offset = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", offset)
        if m.lastgroup is None:
            break
        yield m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)
        pos = m.end()
    yield "end", "", len(text)


class _Parser:
    def __init__(self, text: str, constants: Mapping[str, float] | None):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.index = 0
        self.constants = dict(constants or {})

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, symbol: str) -> None:
        kind, value, offset = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"found {value or 'end of input'!r}", offset, (symbol,))
        self.advance()

    def parse(self) -> Expr:
        e = self.sum_expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {value!r}", offset, ("end of input",))
        return e

    def sum_expr(self) -> Expr:
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                e = Binary(ADD if value == "+" else SUB, e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                e = Binary(MUL if value == "*" else DIV, e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Unary(NEG, self.factor())
        if kind == "op" and value == "+":
            self.advance()
            return self.factor()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, offset = self.peek()
            if kind != "number" or not re.fullmatch(r"\d+", value) or int(value) < 1:
                raise ParseError(
                    f"found {value or 'end of input'!r}",
                    offset,
                    ("positive integer exponent",),
                )
            self.advance()
            return PowInt(base, int(value))
        return base

    def atom(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == "number":
            return Const(float(value))
        if kind == "ident":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "(":
                if value not in _FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", offset, _FUNCTIONS)
                self.advance()
                arg = self.sum_expr()
                self.expect_op(")")
                return Unary(value, arg)
            if value in self.constants:
                return Const(float(self.constants[value]))
            return Var(value)
        if kind == "op" and value == "(":
            e = self.sum_expr()
            self.expect_op(")")
            return e
        raise ParseError(
            f"found {value or 'end of input'!r}",
            offset,
            ("number", "identifier", "("),
        )


def parse(text: str, constants: Mapping[str, float] | None = None) -> Expr:
    """Parse an expression; named constants are substituted during parsing."""
    return _Parser(text, constants).parse()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _PREC_ADD if e.op in (ADD, SUB) else _PREC_MUL
    if isinstance(e, Unary):
        return _PREC_NEG if e.op == NEG else _PREC_ATOM
    if isinstance(e, PowInt):
        return _PREC_POW
    if isinstance(e, Const) and e.value < 0:
        return _PREC_NEG
    return _PREC_ATOM


def _wrap(e: Expr, parent_prec: int) -> str:
    text = to_text(e)
    return f"({text})" if _prec(e) < parent_prec else text


def to_text(e: Expr) -> str:
    """Render an expression in the input grammar; parses back to the same tree
    (after canonical simplification)."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, PowInt):
        return f"{_wrap(e.base, _PREC_ATOM)}^{e.exponent}"
    if isinstance(e, Unary):
        if e.op == NEG:
            return "-" + _wrap(e.arg, _PREC_NEG + 1)
        return f"{e.op}({to_text(e.arg)})"
    assert isinstance(e, Binary)
    # Right operands always take parens at equal precedence so the printed
    # form reparses to the identical tree (the parser is left-associative).
    if e.op in (ADD, SUB):
        return f"{_wrap(e.left, _PREC_ADD)} {e.op} {_wrap(e.right, _PREC_ADD + 1)}"
    return f"{_wrap(e.left, _PREC_MUL)}{e.op}{_wrap(e.right, _PREC_MUL + 1)}"


# ---------------------------------------------------------------------------
# Structural keys (dedup of per-nonlinearity subproblems)
# ---------------------------------------------------------------------------


def _flatten(e: Expr, op: str) -> list[Expr]:
    if isinstance(e, Binary) and e.op == op:
        return _flatten(e.left, op) + _flatten(e.right, op)
    return [e]


def _canon_serialize(e: Expr, names: dict[str, str], ranks: dict[str, str]) -> str:
    """Serialize with variables renamed by first appearance.  Commutative
    chains are sorted by (shape, locally renamed form, current global
    naming); the last component lets an outer fixpoint refine tie-breaks."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        if e.name not in names:
            names[e.name] = f"v{len(names)}"
        return names[e.name]
    if isinstance(e, PowInt):
        return f"pow[{e.exponent}]({_canon_serialize(e.base, names, ranks)})"
    if isinstance(e, Unary):
        return f"{e.op}({_canon_serialize(e.arg, names, ranks)})"
    assert isinstance(e, Binary)
    if e.op in (ADD, MUL):
        parts = _flatten(e, e.op)
        parts.sort(
            key=lambda p: (_shape(p), _canon_serialize(p, {}, {}), _ranked(p, ranks))
        )
        body = ",".join(_canon_serialize(p, names, ranks) for p in parts)
        return f"{'add' if e.op == ADD else 'mul'}({body})"
    name = "sub" if e.op == SUB else "div"
    return (
        f"{name}({_canon_serialize(e.left, names, ranks)},"
        f"{_canon_serialize(e.right, names, ranks)})"
    )


def _ranked(e: Expr, ranks: dict[str, str]) -> str:
    """Serialization under a fixed prior naming (unknown names neutral)."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return ranks.get(e.name, "~")
    if isinstance(e, PowInt):
        return f"pow[{e.exponent}]({_ranked(e.base, ranks)})"
    if isinstance(e, Unary):
        return f"{e.op}({_ranked(e.arg, ranks)})"
    assert isinstance(e, Binary)
    if e.op in (ADD, MUL):
        parts = sorted(_ranked(p, ranks) for p in _flatten(e, e.op))
        return f"{'add' if e.op == ADD else 'mul'}({','.join(parts)})"
    name = "sub" if e.op == SUB else "div"
    return f"{name}({_ranked(e.left, ranks)},{_ranked(e.right, ranks)})"


def _shape(e: Expr) -> str:
    return _ranked(e, {})


def _canonicalize(e: Expr) -> tuple[str, dict[str, str]]:
    # Fixpoint over the naming: ties among same-shaped chain operands are
    # re-broken with the naming of the previous pass until stable.
    names: dict[str, str] = {}
    key = ""
    for _ in range(4):
        fresh: dict[str, str] = {}
        new_key = _canon_serialize(e, fresh, names)
        if new_key == key:
            break
        key = new_key
        names = fresh
    return key, names


def structural_key(e: Expr) -> str:
    """Canonical string: invariant under consistent variable renaming and
    reassociation (flattening) of commutative chains."""
    return _canonicalize(e)[0]


def structural_key_with_vars(e: Expr) -> tuple[str, tuple[str, ...]]:
    """Key plus the original variable names in canonical (first-appearance)
    order, so callers can compare the per-variable domains of two matches."""
    key, names = _canonicalize(e)
    return key, tuple(names)


# ---------------------------------------------------------------------------
# Compiled evaluation
# ---------------------------------------------------------------------------

_OP_CONST = 0
_OP_LOAD = 1
_OP_ADD = 2
_OP_SUB = 3
_OP_MUL = 4
_OP_DIV = 5
_OP_NEG = 6
_OP_ABS = 7
_OP_SQR = 8
_OP_SQRT = 9
_OP_EXP = 10
_OP_SIN = 11
_OP_COS = 12
_OP_POW = 13

_UNARY_CODE = {
    NEG: _OP_NEG,
    ABS: _OP_ABS,
    SQR: _OP_SQR,
    SQRT: _OP_SQRT,
    EXP: _OP_EXP,
    SIN: _OP_SIN,
    COS: _OP_COS,
}
_BINARY_CODE = {ADD: _OP_ADD, SUB: _OP_SUB, MUL: _OP_MUL, DIV: _OP_DIV}


class Program:
    """Postfix-compiled expression for repeated point/interval evaluation."""

    __slots__ = ("code", "var_order", "expr")

    def __init__(self, expr: Expr, var_order: Sequence[str]):
        slots = {name: i for i, name in enumerate(var_order)}
        missing = free_vars(expr) - slots.keys()
        if missing:
            raise UnboundVariable(f"unbound variables: {sorted(missing)}")
        code: list[tuple[int, object]] = []
        self._emit(expr, slots, code)
        self.code = tuple(code)
        self.var_order = tuple(var_order)
        self.expr = expr

    def _emit(self, e: Expr, slots: dict[str, int], code: list) -> None:
        if isinstance(e, Const):
            code.append((_OP_CONST, e.value))
        elif isinstance(e, Var):
            code.append((_OP_LOAD, slots[e.name]))
        elif isinstance(e, Unary):
            self._emit(e.arg, slots, code)
            code.append((_UNARY_CODE[e.op], None))
        elif isinstance(e, PowInt):
            self._emit(e.base, slots, code)
            code.append((_OP_POW, e.exponent))
        else:
            assert isinstance(e, Binary)
            self._emit(e.left, slots, code)
            self._emit(e.right, slots, code)
            code.append((_BINARY_CODE[e.op], None))

    def eval_point(self, values: Sequence[float]) -> float:
        stack: list[float] = []
        push = stack.append
        try:
            for op, arg in self.code:
                if op == _OP_CONST:
                    push(arg)  # type: ignore[arg-type]
                elif op == _OP_LOAD:
                    push(values[arg])  # type: ignore[index]
                elif op == _OP_ADD:
                    b = stack.pop()
                    stack[-1] = stack[-1] + b
                elif op == _OP_SUB:
                    b = stack.pop()
                    stack[-1] = stack[-1] - b
                elif op == _OP_MUL:
                    b = stack.pop()
                    stack[-1] = stack[-1] * b
                elif op == _OP_DIV:
                    b = stack.pop()
                    stack[-1] = stack[-1] / b
                elif op == _OP_NEG:
                    stack[-1] = -stack[-1]
                elif op == _OP_ABS:
                    stack[-1] = abs(stack[-1])
                elif op == _OP_SQR:
                    stack[-1] = stack[-1] * stack[-1]
                elif op == _OP_SQRT:
                    stack[-1] = math.sqrt(stack[-1])
                elif op == _OP_EXP:
                    stack[-1] = math.exp(stack[-1])
                elif op == _OP_SIN:
                    stack[-1] = math.sin(stack[-1])
                elif op == _OP_COS:
                    stack[-1] = math.cos(stack[-1])
                else:  # _OP_POW
                    stack[-1] = stack[-1] ** arg  # type: ignore[operator]
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise EvaluationError(f"point evaluation failed: {exc}") from exc
        return stack[0]

    def eval_interval(self, dims: Sequence[Interval], degree: int = 4) -> Interval:
        stack: list[Interval] = []
        push = stack.append
        try:
            for op, arg in self.code:
                if op == _OP_CONST:
                    push(Interval(arg, arg))  # type: ignore[arg-type]
                elif op == _OP_LOAD:
                    push(dims[arg])  # type: ignore[index]
                elif op == _OP_ADD:
                    b = stack.pop()
                    stack[-1] = stack[-1] + b
                elif op == _OP_SUB:
                    b = stack.pop()
                    stack[-1] = stack[-1] - b
                elif op == _OP_MUL:
                    b = stack.pop()
                    stack[-1] = stack[-1] * b
                elif op == _OP_DIV:
                    b = stack.pop()
                    stack[-1] = stack[-1] / b
                elif op == _OP_NEG:
                    stack[-1] = -stack[-1]
                elif op == _OP_ABS:
                    stack[-1] = stack[-1].abs()
                elif op == _OP_SQR:
                    stack[-1] = stack[-1].sqr()
                elif op == _OP_SQRT:
                    stack[-1] = stack[-1].sqrt()
                elif op == _OP_EXP:
                    stack[-1] = stack[-1].exp()
                elif op == _OP_SIN:
                    stack[-1] = iv_sin(stack[-1], degree)
                elif op == _OP_COS:
                    stack[-1] = iv_cos(stack[-1], degree)
                else:  # _OP_POW
                    stack[-1] = stack[-1].pow_int(arg)  # type: ignore[arg-type]
        except OverflowError as exc:
            raise EvaluationError(f"interval evaluation overflow: {exc}") from exc
        return stack[0]


def compile_expr(e: Expr, var_order: Sequence[str]) -> Program:
    return Program(e, var_order)


def eval_real(e: Expr, point: Mapping[str, float]) -> float:
    """Evaluate at a point given as a variable->value mapping."""
    order = sorted(free_vars(e))
    missing = [v for v in order if v not in point]
    if missing:
        raise UnboundVariable(f"missing values for {missing}")
    return Program(e, order).eval_point([float(point[v]) for v in order])


def eval_interval(
    e: Expr, box: Box, segments: int = 1, degree: int = 4
) -> Interval:
    """Sound interval extension over ``box``; with ``segments > 1`` the widest
    dimension is sliced and the slab enclosures hulled."""
    env = box.env()
    missing = free_vars(e) - env.keys()
    if missing:
        raise UnboundVariable(f"box does not cover {sorted(missing)}")
    program = Program(e, box.labels)
    if segments <= 1:
        return program.eval_interval(box.dims, degree)
    return refined_eval(
        lambda b: program.eval_interval(b.dims, degree), box, segments
    )
