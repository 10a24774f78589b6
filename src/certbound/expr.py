"""Expression language: AST, parser, symbolic differentiation, evaluation.

Expressions are immutable trees over named variables.  The same tree supports
point evaluation (floats), interval evaluation (sound enclosures via
:mod:`certbound.intervals`) and symbolic differentiation, so an objective and
its interval extension always come from one source.  A ``Program`` evaluates
a tree by kernels of one step per operation, built in one pass, which run
from a tape at first and are compiled once they have run ``_HOT_RUNS``
times; both tiers make the same calls, so no result depends on the tier.

Every question about a whole tree (simplify, the partials, hash, number
into ops) is answered by one ``walk`` on an explicit stack, and the parser,
the printer and equality keep explicit stacks too, so no depth is refused.
The parser applies ``simplify``'s rules as it builds a model component and
collects its variable names, and one walk then gives all of its partials.

Simplification is deliberately conservative: constant folding, 0/1
identities and ``x*x -> sqr(x)`` only.  A constant folds only to a finite
float: a folded overflow or NaN would be taken as exact and bound nothing,
so such a node is left for evaluation, which rejects it.  Interval enclosure width depends on
the written form of an expression, so we never reassociate or collect terms
behind the user's back; tighter manual forms yield tighter bounds.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence

from .errors import (
    DomainError,
    EvaluationError,
    IntervalError,
    NonDifferentiable,
    ParseError,
    UnboundVariable,
)
from . import intervals
from .intervals import Frozen, slot_setters

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

NEG, ABS, SQR, SQRT, SIN, COS, EXP = "neg", "abs", "sqr", "sqrt", "sin", "cos", "exp"
ADD, SUB, MUL, DIV, MAX = "+", "-", "*", "/", "max"

_FUNCTIONS = ("abs", "cos", "exp", "max", "sin", "sqr", "sqrt")


class Expr(Frozen):
    """Base class of the immutable nodes.  A tree comes from the parser
    (``parse``, ``parse_component``), from ``simplify``'s rules or from the
    node constructors (``Binary(ADD, x, y)``); nodes have no arithmetic
    operators.  Nodes are equal when their fields are, so ``simplify`` can
    tell ``x * x`` from ``x * y``.  A node is immutable, so a copy of it,
    shallow or deep, is the node itself."""

    __slots__ = ()

    def __copy__(self) -> "Expr":
        return self

    def __deepcopy__(self, memo: dict) -> "Expr":
        return self

    def __str__(self) -> str:
        return to_text(self)

    def __eq__(self, other: object) -> bool:
        """Compared pair by pair of nodes from a stack, to the first difference."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is not b:
                if _head(a) != _head(b):
                    return False
                pairs += zip(_children(a), _children(b))
        return True

    def __hash__(self) -> int:
        return walk(self, lambda e, hashes: hash((*_head(e), *hashes)))


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        _set_value(self, value)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _set_name(self, name)


class Unary(Expr):
    __slots__ = ("op", "arg")

    def __init__(self, op: str, arg: Expr) -> None:
        _set_unary_op(self, op)
        _set_arg(self, arg)


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        _set_binary_op(self, op)
        _set_left(self, left)
        _set_right(self, right)


class PowInt(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int) -> None:
        if not isinstance(exponent, int) or exponent < 1:
            raise DomainError(f"integer exponent must be >= 1, got {exponent!r}")
        _set_base(self, base)
        _set_exponent(self, exponent)


(_set_value,), (_set_name,) = slot_setters(Const), slot_setters(Var)
_set_unary_op, _set_arg = slot_setters(Unary)
_set_binary_op, _set_left, _set_right = slot_setters(Binary)
_set_base, _set_exponent = slot_setters(PowInt)

ZERO = Const(0.0)
ONE = Const(1.0)


def simplified_sum(terms: Iterable[Expr]) -> Expr:
    """``simplify`` of the left-associative sum ``((t1 + t2) + t3) + ...``
    of simplified ``terms``; ``0`` when there are none.  The association
    order is part of the written form, so it fixes the enclosures.  The
    terms are folded one by one with ``simplify``'s rule for ``+``
    (``simplified_add``) and not walked, so a sum of any length costs one
    rule per term."""
    total = None
    for term in terms:
        total = term if total is None else simplified_add(total, term)
    return ZERO if total is None else total


def _children(e: Expr) -> tuple[Expr, ...]:
    cls = type(e)
    if cls is Binary:
        return (e.left, e.right)
    if cls is Unary:
        return (e.arg,)
    if cls is PowInt:
        return (e.base,)
    return ()


def _head(e: Expr) -> tuple:
    """The class of ``e`` and its one field that is not a node."""
    cls = type(e)
    if cls is Binary or cls is Unary:
        return (cls, e.op)
    if cls is PowInt:
        return (cls, e.exponent)
    return (cls, e.value) if cls is Const else (cls, e.name)


def walk(root: Expr, leave, children=_children):
    """What ``leave(node, results)`` gives for ``root``, where ``results``
    lists what it gave for ``children(node)``, the operands that a question
    needs: children first, left to right, and a shared node once (by
    ``id``).  The stack is explicit, so depth needs no recursion: an inner
    node goes back under the length of ``done``, its children above it, and
    is left once their results lie on ``done`` from that length on."""
    memo: dict[int, object] = {}  # id of a node left -> its result
    done, todo = [], [root]
    push, pop, out = todo.append, todo.pop, done.append
    while todo:
        node = pop()
        if type(node) is int:
            results = done[node:]
            del done[node:]
            node = pop()
        else:
            result = memo.get(id(node), memo)
            if result is not memo:
                out(result)
                continue
            results = children(node)  # none for a leaf
            if results:
                push(node)
                push(len(done))
                todo += reversed(results)
                continue
        result = memo[id(node)] = leave(node, results)
        out(result)
    return done[0]


def free_vars(e: Expr) -> frozenset[str]:
    """The variable names of ``e``."""
    names: list[str] = []
    walk(e, lambda node, _: names.append(node.name) if type(node) is Var else None)
    return frozenset(names)


def is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------


def simplify(e: Expr) -> Expr:
    """``e`` with the rule for its kind of node applied at every node, from
    the leaves up: ``simplified_unary``, ``simplified_pow`` and the rules
    for the binary operators.  A simplified tree is a fixed point.

    No code of the library calls it: the parser applies the same rules as
    it builds a tree (``parse_component``).  It is kept as the reference
    that the tests hold ``parse_component`` to, and because the
    benchmark's tracer (``perfbench/tracer.py``) wraps it."""
    return walk(e, _simplified)


def _simplified(e: Expr, operands: list[Expr]) -> Expr:
    cls = type(e)
    if cls is Unary:
        return simplified_unary(e.op, operands[0])
    if cls is PowInt:
        return simplified_pow(operands[0], e.exponent)
    if cls is Binary:
        return _simplified_binary(e.op, *operands)
    return e


# ``simplify``'s rules for one node whose operands are already simplified.
# They do not walk the operands again, so a derivative or a long sum built
# from simplified parts with them is simplified without another walk.


def simplified_unary(op: str, arg: Expr) -> Expr:
    """``simplify(Unary(op, arg))`` for a simplified ``arg``."""
    if isinstance(arg, Const):
        value = arg.value
        if op == NEG and math.isfinite(value):
            return Const(-value)
        if op == SQR and math.isfinite(value * value):
            return Const(value * value)
        if op == ABS and math.isfinite(value):
            return Const(abs(value))
    elif op == NEG and isinstance(arg, Unary) and arg.op == NEG:
        return arg.arg
    return Unary(op, arg)


def simplified_pow(base: Expr, exponent: int) -> Expr:
    """``simplify(PowInt(base, exponent))`` for a simplified ``base``."""
    if exponent == 1:
        return base
    if isinstance(base, Const):
        try:
            return Const(base.value**exponent)
        except OverflowError:
            pass  # no float holds the power
    return PowInt(base, exponent)


def simplified_add(left: Expr, right: Expr) -> Expr:
    """``simplify(left + right)`` for simplified ``left`` and ``right``."""
    lc = left.value if isinstance(left, Const) else None
    rc = right.value if isinstance(right, Const) else None
    if lc == 0.0:
        return right
    if rc == 0.0:
        return left
    if lc is not None and rc is not None and math.isfinite(lc + rc):
        return Const(lc + rc)
    return Binary(ADD, left, right)


def simplified_sub(left: Expr, right: Expr) -> Expr:
    """``simplify(left - right)`` for simplified ``left`` and ``right``."""
    lc = left.value if isinstance(left, Const) else None
    rc = right.value if isinstance(right, Const) else None
    if rc == 0.0:
        return left
    if lc == 0.0:
        return simplified_unary(NEG, right)
    if lc is not None and rc is not None and math.isfinite(lc - rc):
        return Const(lc - rc)
    return Binary(SUB, left, right)


def simplified_mul(left: Expr, right: Expr) -> Expr:
    """``simplify(left * right)`` for simplified ``left`` and ``right``."""
    lc = left.value if isinstance(left, Const) else None
    rc = right.value if isinstance(right, Const) else None
    if lc == 0.0 or rc == 0.0:
        return ZERO
    if lc == 1.0:
        return right
    if rc == 1.0:
        return left
    if lc is not None and rc is not None and math.isfinite(lc * rc):
        return Const(lc * rc)
    if type(left) is type(right) and left == right:
        return Unary(SQR, left)
    return Binary(MUL, left, right)


def simplified_div(left: Expr, right: Expr) -> Expr:
    """``simplify(left / right)`` for simplified ``left`` and ``right``."""
    lc = left.value if isinstance(left, Const) else None
    rc = right.value if isinstance(right, Const) else None
    if rc == 1.0:
        return left
    if lc is not None and rc is not None and rc != 0.0 and math.isfinite(lc / rc):
        return Const(lc / rc)
    return Binary(DIV, left, right)


_BINARY_RULES = {
    ADD: simplified_add, SUB: simplified_sub, MUL: simplified_mul, DIV: simplified_div,
}


def _simplified_binary(op: str, left: Expr, right: Expr) -> Expr:
    """``simplify(Binary(op, left, right))`` for simplified operands."""
    rule = _BINARY_RULES.get(op)
    return Binary(op, left, right) if rule is None else rule(left, right)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------


def provably_nonnegative(e: Expr) -> bool:
    """Syntactic certificate that an expression is >= 0 on its whole domain."""
    return walk(e, _nonnegative, _sign_operands)


def _sign_operands(e: Expr) -> tuple[Expr, ...]:
    if type(e) is Binary and e.op in (ADD, MUL, DIV):
        return (e.left, e.right)
    return (e.base,) if type(e) is PowInt and e.exponent % 2 else ()


def _nonnegative(e: Expr, operands: list[bool]) -> bool:
    if type(e) is Const:
        return e.value >= 0.0
    if type(e) is Unary:
        return e.op in (SQR, ABS, EXP, SQRT)
    return (type(e) is PowInt or type(e) is Binary and e.op in (ADD, MUL, DIV)) and all(operands)


_TWO = Const(2.0)


def differentiate(e: Expr, v: str) -> Expr:
    """Symbolic partial derivative of ``e`` with respect to variable ``v``:
    ``partials(e, (v,))``, and exactly ``0`` (the object ``ZERO``) when
    ``v`` does not occur in ``e``."""
    return partials(e, (v,)).get(v, ZERO)


def partials(e: Expr, names: Sequence[str]) -> dict[str, Expr]:
    """The partial derivative of ``e`` by each of ``names`` that occurs in
    it, in the order of ``names``, all from one walk; a name that does not
    occur has none (its partial is exactly ``0``), and no partial holds
    debris such as ``0/sqrt(y)`` from the subtrees in which its variable
    does not occur.  Raises ``NonDifferentiable`` for the first of
    ``names`` whose partial meets a kink (see ``_partial``).

    Every node of a partial is built by ``simplify``'s rule for it from
    simplified parts, so for a simplified ``e`` (as every model component
    is) the result is ``simplify`` of the chain rule's tree, without a walk
    of its own.  The parts taken from an unsimplified ``e`` are left as
    written.

    Each node's partials are a dict from the names that occur in it to
    their derivatives, made from its operands' by ``_partial`` per name."""
    wanted = set(names)

    def leave(e: Expr, parts: list[dict]) -> dict:
        if not parts:
            return {e.name: ONE} if type(e) is Var and e.name in wanted else _NO_PARTIALS
        first = parts[0]
        second = parts[1] if len(parts) == 2 else _NO_PARTIALS
        ds = {v: _partial(e, d, second.get(v)) for v, d in first.items()}
        for v, d in second.items():
            if v not in first:
                ds[v] = _partial(e, None, d)
        return ds

    ds = walk(e, leave)
    found = {v: ds[v] for v in names if v in ds}
    for d in found.values():
        if type(d) is tuple:
            kink = d[0]
            why = "sign not certified" if kink.op == ABS else "not smooth"
            raise NonDifferentiable(f"cannot differentiate {to_text(kink)}: {why}")
    return found


_NO_PARTIALS: dict = {}  # shared, never changed


def _partial(e: Expr, da, db):
    """The derivative of the inner node ``e`` by one variable that occurs
    in it, from its operands': ``da`` of its first and ``db`` of its second,
    each ``None`` when the variable does not occur there, so that a kink
    above a derivative that folds to zero is still refused.  A kink is
    ``(kink,)``: the first ``abs`` of uncertified sign or ``max`` that a
    walk from the root, left operand first, meets, a ``max`` before the
    kinks below it and an ``abs`` after those of its argument."""
    cls = type(e)
    if cls is Binary and e.op == MAX:
        return (e,)
    if type(da) is tuple:
        return da
    if type(db) is tuple:
        return db
    if cls is PowInt:
        if e.exponent == 1:
            return da
        inner = e.base if e.exponent == 2 else simplified_pow(e.base, e.exponent - 1)
        return simplified_mul(simplified_mul(Const(float(e.exponent)), inner), da)
    if cls is Unary:
        op = e.op
        if op == NEG:
            return simplified_unary(NEG, da)
        if op == SQR:
            return simplified_mul(simplified_mul(_TWO, e.arg), da)
        if op == SQRT:  # ``e`` is ``simplify(Unary(SQRT, e.arg))``
            return simplified_div(da, simplified_mul(_TWO, e))
        if op == SIN:
            return simplified_mul(simplified_unary(COS, e.arg), da)
        if op == COS:
            return simplified_mul(simplified_unary(NEG, simplified_unary(SIN, e.arg)), da)
        if op == EXP:
            return simplified_mul(e, da)
        return da if provably_nonnegative(e.arg) else (e,)  # ``abs``
    dl = ZERO if da is None else da
    dr = ZERO if db is None else db
    if e.op == ADD:
        return simplified_add(dl, dr)
    if e.op == SUB:
        return simplified_sub(dl, dr)
    if e.op == MUL:
        return simplified_add(simplified_mul(dl, e.right), simplified_mul(e.left, dr))
    numerator = simplified_sub(simplified_mul(dl, e.right), simplified_mul(e.left, dr))
    return simplified_div(numerator, simplified_unary(SQR, e.right))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        yield m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)
        pos = m.end()
    yield "end", "", len(text)


_BINARY_PRECEDENCE = {ADD: 1, SUB: 1, MUL: 2, DIV: 2}
_NO_NAMES: frozenset[str] = frozenset()


def parse(text: str, constants: Mapping[str, float] | None = None) -> Expr:
    """Parse an expression, as written; named constants are substituted
    during parsing.  A number literal that is no finite float, such as
    ``1e999``, is a ``ParseError`` at its offset."""
    return _parse(text, constants, Unary, PowInt, Binary)[0]


def parse_component(
    text: str, constants: Mapping[str, float] | None = None
) -> tuple[Expr, frozenset[str]]:
    """``simplify(parse(text, constants))`` and its variable names (its
    ``free_vars``): how model components and ``--expr`` are read.  The
    parser applies ``simplify``'s rule to each node as it builds it, so
    neither needs a walk of the tree."""
    return _parse(text, constants, simplified_unary, simplified_pow, _simplified_binary)


def _parse(text: str, constants, unary, power, binary) -> tuple[Expr, frozenset[str]]:
    """The tree of ``text``, each node built by ``unary(op, arg)``,
    ``power(base, exponent)`` or ``binary(op, left, right)`` from its
    operands, and its variable names.  A unary node or a power has its
    operand's names: ``simplify``'s rules for them fold only a constant
    operand and drop none.  A binary node has none when it is a constant,
    its operand's when it is an operand (as a rule may return), else the
    union of its operands' (see ``_joined``).  Each operand's names are
    used by its parent only, so a union grows the larger of the two sets
    in place, and a sum of any number of distinct variables takes time
    ``n log n``.

    One loop over two stacks, so any nesting parses: ``operands`` holds the
    left operands of the binary operators on ``pending``, each with its
    names, and ``pending`` also holds the signs (``neg``) before an operand
    and the open brackets: ``(``, a function's name, and ``max`` then ``,``
    for the operands of a ``max``."""
    constants = constants or {}
    tokens = list(_tokenize(text))
    operands: list[tuple[Expr, set[str]]] = []
    pending: list[str] = []
    i = 0
    while True:
        # An operand: signs and opening brackets, then an atom.
        kind, value, offset = tokens[i]
        i += 1
        if value in ("+", "-", "("):
            if value != "+":
                pending.append(NEG if value == "-" else value)
            continue
        if kind == "ident" and tokens[i][:2] == ("op", "("):
            if value not in _FUNCTIONS:
                raise ParseError(f"unknown function {value!r}", offset, _FUNCTIONS)
            pending.append(value)
            i += 1
            continue
        names = _NO_NAMES
        if kind == "number":
            x = float(value)
            if not math.isfinite(x):  # such as 1e999: no kernel could enclose it
                raise ParseError(f"non-finite number {value!r}", offset)
            e = Const(x)
        elif kind == "ident":
            if value in constants:
                e = Const(float(constants[value]))
            else:
                e = Var(value)
                names = {value}
        else:
            raise ParseError(
                f"found {value or 'end of input'!r}", offset, ("number", "identifier", "(")
            )
        # After an atom: its power and signs, then a binary operator, or the
        # end of the innermost bracket, which closes into an atom again.
        while True:
            kind, value, offset = tokens[i]
            if value == "^":
                kind, value, offset = tokens[i + 1]
                try:
                    exponent = int(value) if kind == "number" and re.fullmatch(r"\d+", value) else 0
                except ValueError:  # more digits than ``int`` converts
                    raise ParseError(f"exponent too long: {len(value)} digits", offset) from None
                if exponent > 2**53:  # derivatives take ``float(k)``, exact up to 2**53
                    raise ParseError("exponent too large: above 2**53", offset)
                if exponent < 1:
                    raise ParseError(
                        f"found {value or 'end of input'!r}", offset, ("positive integer exponent",)
                    )
                e = power(e, exponent)
                i += 2
                kind, value, offset = tokens[i]
            while pending and pending[-1] == NEG:
                pending.pop()
                e = unary(NEG, e)
            precedence = _BINARY_PRECEDENCE.get(value, 0)
            while pending and _BINARY_PRECEDENCE.get(pending[-1], 0) >= max(precedence, 1):
                e, names = _joined(binary, pending.pop(), *operands.pop(), e, names)
            if precedence:
                operands.append((e, names))
                pending.append(value)
                i += 1
                break
            if not pending:
                if kind != "end":
                    raise ParseError(f"trailing input {value!r}", offset, ("end of input",))
                return e, frozenset(names)
            bracket = pending.pop()
            closing = "," if bracket == MAX else ")"
            if kind != "op" or value != closing:
                raise ParseError(f"found {value or 'end of input'!r}", offset, (closing,))
            i += 1
            if bracket == MAX:
                operands.append((e, names))
                pending.append(",")
                break
            if bracket == ",":
                e, names = _joined(binary, MAX, *operands.pop(), e, names)
            elif bracket != "(":
                e = unary(bracket, e)


def _joined(binary, op: str, left: Expr, left_names, right: Expr, right_names):
    """``binary(op, left, right)`` and its names, made from its operands'
    sets, which are not used again."""
    e = binary(op, left, right)
    if type(e) is Const:
        return e, _NO_NAMES
    if e is left or not right_names:
        return e, left_names
    if e is right or not left_names:
        return e, right_names
    if len(left_names) < len(right_names):
        left_names, right_names = right_names, left_names
    left_names |= right_names
    return e, left_names


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        if e.op == MAX:
            return _PREC_ATOM
        return _PREC_ADD if e.op in (ADD, SUB) else _PREC_MUL
    if isinstance(e, Unary):
        return _PREC_NEG if e.op == NEG else _PREC_ATOM
    if isinstance(e, PowInt):
        return _PREC_POW
    if isinstance(e, Const) and e.value < 0:
        return _PREC_NEG
    return _PREC_ATOM


def to_text(e: Expr) -> str:
    """Render an expression in the input grammar; parses back to the same tree
    (after canonical simplification).  The pieces are emitted into one list
    in the order of the text, from a stack of nodes and pieces still to
    print, and joined once."""
    pieces: list[str] = []
    out = pieces.append
    todo: list = [e]
    while todo:
        node = todo.pop()
        cls = type(node)
        if cls is str:
            out(node)
        elif cls is Const:
            out(repr(node.value))
        elif cls is Var:
            out(node.name)
        else:
            todo += reversed(_pieces(node))
    return "".join(pieces)


def _pieces(e: Expr) -> tuple:
    """The text of the inner node ``e``: strings and its operands, in order."""
    cls = type(e)
    if cls is PowInt:
        return (*_wrapped(e.base, _PREC_ATOM), f"^{e.exponent}")
    if cls is Unary:
        if e.op == NEG:
            return ("-", *_wrapped(e.arg, _PREC_NEG + 1))
        return (e.op, "(", e.arg, ")")
    if e.op == MAX:
        return ("max(", e.left, ", ", e.right, ")")
    # Right operands always take parens at equal precedence so the printed
    # form reparses to the identical tree (the parser is left-associative).
    if e.op in (ADD, SUB):
        return (*_wrapped(e.left, _PREC_ADD), f" {e.op} ", *_wrapped(e.right, _PREC_ADD + 1))
    return (*_wrapped(e.left, _PREC_MUL), e.op, *_wrapped(e.right, _PREC_MUL + 1))


def _wrapped(e: Expr, parent_prec: int) -> tuple:
    return ("(", e, ")") if _prec(e) < parent_prec else (e,)


# ---------------------------------------------------------------------------
# Kernels: run from a tape, compiled once hot
# ---------------------------------------------------------------------------
#
# A Program numbers the values of the tree into ops in postfix order (see
# ``_postfix``), and each of its kernels is one tuple of steps built from
# them in one pass (``_forward_steps``).  A step ``(function, a, b)`` calls
# ``function`` on values at slots of one list, which holds the variables'
# values ``d``, the constants ``c`` and, for the interval kernels, their
# pairs ``p``, then the literals of the shape (``_literals``), then the
# value of each step in turn.  A constant or a variable is read in place by
# the steps that use it, so only the other ops get a step, and the result
# in any case.  The interval kernel calls the ``pair_*`` functions of
# ``intervals`` on ``(lo, hi)`` pairs; the point kernel uses plain float
# arithmetic.
#
# Two tiers run the same steps.  A kernel of a new shape runs them from a
# tape (``_tape``).  Once it has run ``_HOT_RUNS`` times, ``_source``
# renders them as one Python function, one statement per step, which is
# compiled and installed in place of the tape.  Both tiers call the same
# functions on the same operands in the same order, so they give the same
# values and raise the same exceptions, and no result depends on the tier.
#
# Kernels are cached by program shape (see ``_shape_kernels``): the ops and
# the number of variable slots.  Constant values are not part of the steps:
# every constant is finite (``Program`` refuses another) and read in place
# from the values passed in at call time, so programs that differ only in
# their constants, such as the hundreds of Jacobian entries of one model,
# share one kernel, and one count of its runs.  Each program holds its
# shape's list of kernels, each built on its first call and replaced in
# place once compiled: an evaluation is one call.
#
# Gradient: the gradient kernel encloses every partial derivative on a box
# in one forward and one reverse pass over the ops (Griewank & Walther,
# *Evaluating Derivatives*, 2008), so its cost is that of a few evaluations
# whatever the number of variables.  Its steps are those of the interval
# kernel, then those of the reverse pass (``_reverse_steps``), which read
# the forward values at their slots of the same list.  It is built on the
# shape's first gradient, so a program that is only evaluated builds no
# reverse pass.

# The runs after which a kernel is compiled: below the run count at which
# the tape's extra time has paid for a compile.  Measured with CPython 3.11
# on a 2-CPU VM (``timeit``, best of 5): ``compile()`` costs 11-22 µs per
# step, and a tape run 0.10-0.26 µs per step more than a compiled one, so
# the point, interval and gradient kernels of the traffic s5 case-1
# objective (243, 243 and 456 steps) break even after 100-130 runs, and
# those of 6-13 steps (``x*y - sqr(x)*y + 3*x``) after 80-100.  Compiling
# sooner pays where a kernel runs on: the four ``kinks-and-trig`` jobs of
# the benchmark took 142 / 164 / 156 ms in-process (medians of 15) when
# compiling at 64 / 256 runs / never.
_HOT_RUNS = 64

_CONST, _LOAD, _POW = "const", "load", "pow"

# The literals of the reverse pass: the adjoints known to be exactly 1 or
# -1, which cost a multiplication neither a step nor a rounding, and the
# exact zero of a variable that the expression does not contain.
_ONE, _MINUS_ONE, _ZERO_PAIR = (1.0, 1.0), (-1.0, -1.0), (0.0, 0.0)


def _same(x):
    return x


def _negated_pair(a):
    return -a[1], -a[0]


def _square(x):
    return x * x


# The function that the step of each op calls, in the interval kernel and
# in the point kernel.  The operands of a power are its base and its
# exponent, a literal.
_PAIR_FUNCTIONS = {
    NEG: _negated_pair, ADD: intervals.pair_add, SUB: intervals.pair_sub,
    MUL: intervals.pair_mul, DIV: intervals.pair_div, MAX: intervals.pair_max,
    ABS: intervals.pair_abs, SQR: intervals.pair_sqr, SQRT: intervals.pair_sqrt,
    EXP: intervals.pair_exp, SIN: intervals.pair_sin, COS: intervals.pair_cos,
    _POW: intervals.pair_pow,
}
_POINT_FUNCTIONS = {
    NEG: operator.neg, ADD: operator.add, SUB: operator.sub, MUL: operator.mul,
    DIV: operator.truediv, MAX: max, ABS: abs, SQR: _square, SQRT: math.sqrt,
    EXP: math.exp, SIN: math.sin, COS: math.cos, _POW: operator.pow,
}
# The source of a step that does not call its function by name, in which
# ``{0}``, ``{1}`` stand for the operands: what the function computes.
_TEMPLATES = {
    _same: "{0}", _negated_pair: "(-{0}[1], -{0}[0])", _square: "{0} * {0}",
    operator.neg: "-{0}", operator.add: "{0} + {1}", operator.sub: "{0} - {1}",
    operator.mul: "{0} * {1}", operator.truediv: "{0} / {1}", operator.pow: "{0} ** {1}",
}
_KERNEL_GLOBALS = {
    name: value for name, value in vars(intervals).items() if name.startswith("pair_")
}
_KERNEL_GLOBALS.update(sqrt=math.sqrt, exp=math.exp, sin=math.sin, cos=math.cos)


def _compile(source: str):
    """The function ``kernel`` that ``source`` defines."""
    scope: dict[str, object] = {}
    exec(compile(source, "<certbound kernel>", "exec"), _KERNEL_GLOBALS, scope)
    return scope["kernel"]


def _postfix(expr: Expr, slots: dict[str, int]):
    """Ops ``(kind, arg, operands)`` in postfix order and the constants
    they index.  A variable missing from ``slots`` gets the next free slot,
    so an empty ``slots`` numbers the variables by first occurrence.

    Values are numbered: equal constants (by ``repr``, so ``0.0`` and
    ``-0.0`` stay apart) are one op, so are ops of equal ``(kind, arg,
    operands)``, and a node that several parents share is walked once.  An
    op computes what each of its occurrences in the tree would, so the
    numbering changes no result."""
    ops: list[tuple[str, object, tuple[int, ...]]] = []
    constants: list[float] = []
    number: dict[object, int] = {}  # value key -> op index

    def leave(node: Expr, operands: list[int]) -> int:
        cls = type(node)
        if cls is Const:
            key, op = repr(node.value), (_CONST, len(constants), ())
        elif cls is Var:
            key = op = (_LOAD, slots.setdefault(node.name, len(slots)), ())
        elif cls is PowInt:
            key = op = (_POW, node.exponent, tuple(operands))
        else:
            key = op = (node.op, None, tuple(operands))
        index = number.get(key)
        if index is None:
            index = number[key] = len(ops)
            ops.append(op)
            if cls is Const:
                constants.append(node.value)
        return index

    walk(expr, leave)
    return tuple(ops), tuple(constants)


def _varying(code) -> list[bool]:
    """Per op of ``code``, whether it depends on a variable."""
    varying: list[bool] = []
    for kind, _, operands in code:
        varying.append(kind == _LOAD or any(map(varying.__getitem__, operands)))
    return varying


def structural_key_with_vars(e: Expr) -> tuple[tuple, tuple[str, ...]]:
    """A key that two expressions share exactly when their numbered ops
    (``_postfix``) are equal, with the variables slotted by first occurrence
    and the constants compared by ``repr``; and the variable names in slot
    order, so that callers can compare the per-slot domains of two matches.
    Equal keys mean the same function up to renaming the variables.
    Operand order counts: ``x + y`` and ``y + x`` get different keys."""
    names: dict[str, int] = {}
    code, constants = _postfix(e, names)
    return (code, tuple(map(repr, constants))), tuple(names)


def structural_key(e: Expr) -> tuple:
    """The key of ``structural_key_with_vars``, without the names; kept
    because the benchmark's tracer (``perfbench/tracer.py``) wraps it."""
    return structural_key_with_vars(e)[0]


@functools.lru_cache(maxsize=256)
def _shape_kernels(code, n: int) -> list:
    """The point kernel, the interval kernel and the gradient kernel of one
    shape: the ops ``code`` and the number ``n`` of variable slots.  Each
    entry starts as a stub that builds its kernel (``_kernel``) in its
    place on its first call, then runs it.  The 256 most recent shapes are
    kept."""

    def stub(index: int):
        def build(*args):
            if kernels[index] is build:
                kernels[index] = _kernel(code, n, index, kernels)
            return kernels[index](*args)

        return build

    kernels = [stub(0), stub(1), stub(2)]
    return kernels


def _literals(code) -> tuple:
    """The literals that the kernels of ``code`` read, each once by
    ``repr`` (so ``2`` and ``2.0`` stay apart): those of the reverse pass
    and its factor ``2.0``, and per power ``x^k`` its exponent and the
    ``k - 1`` and ``float(k)`` of its derivative."""
    values = {repr(x): x for x in (_ONE, _MINUS_ONE, _ZERO_PAIR, 2.0)}
    for kind, k, _ in code:
        if kind == _POW:
            for x in (k, k - 1, float(k)):
                values.setdefault(repr(x), x)
    return tuple(values.values())


def _kernel(code, n: int, index: int, home: list):
    """The kernel ``home[index]`` of the shape of ``_shape_kernels``, a tape
    that puts its compiled form in its place once hot: the point kernel
    ``kernel(d, c)`` (0), which returns the value of the expression at a
    point, the interval kernel ``kernel(d, c, p)`` (1), which returns its
    enclosure on a box, or the gradient kernel ``kernel(d, c, p)`` (2),
    which returns that enclosure and the tuple of the partial derivatives'.
    ``d`` holds the variables' values or pairs, ``c`` the constants and
    ``p`` their pairs."""
    pair = index > 0
    m = sum(kind == _CONST for kind, _, _ in code)
    sizes = (n, m, m) if pair else (n, m)
    literals = _literals(code)
    literal = {repr(x): sum(sizes) + i for i, x in enumerate(literals)}
    steps, where = _forward_steps(code, n, m, pair, literal)
    grads = None
    if index == 2:
        grads = _reverse_steps(code, n, m, literal, steps, where)
    return _tape(home, index, (sizes, literals, tuple(steps), where[-1], grads))


def _product(a: int, b: int, n: int, m: int) -> tuple:
    """The step of the interval product of the values at the slots ``a``
    and ``b``.  Where one of them is a constant's pair ``p[k]``, read in
    place (so it is finite), the left one first, the step is ``pair_scale``
    of the constant's float ``c[k]`` and the other: the bits of
    ``pair_mul``, from two products instead of four."""
    for k, x in ((a, b), (b, a)):
        if n + m <= k < n + 2 * m:
            return (intervals.pair_scale, k - m, x)
    return (intervals.pair_mul, a, b)


def _forward_steps(code, n: int, m: int, pair: bool, literal: dict):
    """The steps of the interval kernel (``pair``) or the point kernel of
    ``code``, over ``n`` variable slots and ``m`` constants, and the slot
    of each op's value; ``literal`` holds each literal's slot by ``repr``.
    A load reads ``d``, a constant ``p`` or ``c``, in place, and the result
    is a step, ``_same`` of its slot where it is a load or a constant."""
    functions = _PAIR_FUNCTIONS if pair else _POINT_FUNCTIONS
    constants = n + m if pair else n  # the slot of ``p[0]``, or of ``c[0]``
    start = constants + m + len(literal)  # the slot of the first step's value
    steps: list[tuple] = []
    where: list[int] = []
    last = len(code) - 1
    for i, (kind, arg, operands) in enumerate(code):
        if kind == _LOAD or kind == _CONST:
            slot = arg if kind == _LOAD else constants + arg
            if i < last:
                where.append(slot)
                continue
            step = (_same, slot, None)
        else:
            a = where[operands[0]]
            if kind == _POW:
                step = (functions[kind], a, literal[repr(arg)])
            elif len(operands) == 1:
                step = (functions[kind], a, None)
            elif kind == MUL and pair:
                step = _product(a, where[operands[1]], n, m)
            else:
                step = (functions[kind], a, where[operands[1]])
        where.append(start + len(steps))
        steps.append(step)
    return steps, where


def _reverse_steps(code, n: int, m: int, literal: dict, steps: list, where: list) -> tuple:
    """Appends to ``steps``, those of the interval kernel of ``code`` (see
    ``_forward_steps``, whose arguments these are), the steps of its
    reverse pass, and returns the slots of its outputs: the enclosures, on
    the box, of the partial derivatives by the ``n`` variable slots.  An
    op's value is read at its slot ``where[j]``.

    The pass visits the ops that depend on a variable from the result down.
    Each sends its adjoint (the enclosure of the derivative of the result
    by the op's value) times its local partial derivatives to its operands,
    and an op's adjoint is the sum of what it receives.  At a kink the local
    partial derivative is Clarke's generalized one, enclosed by
    ``pair_abs_adjoint`` and ``pair_max_adjoint``.  An adjoint known to be
    exactly 1 or -1 is kept as a literal, so multiplying by it costs neither
    a step nor a rounding, and equal steps are emitted once."""
    start = n + 2 * m + len(literal)  # the slot of the first step's value
    first = start + len(steps)  # that of the reverse pass's first step
    one, minus_one = literal[repr(_ONE)], literal[repr(_MINUS_ONE)]
    emitted: dict[tuple, int] = {}
    varying = _varying(code)
    root = len(code) - 1
    adjoint: dict[int, int] = {root: one} if varying[root] else {}

    def emit(function, a, b=None) -> int:
        """The slot of the value of the step ``(function, a, b)`` (see
        ``_tape``): a new step unless an equal one is there already."""
        step = (function, a, b)
        slot = emitted.get(step)
        if slot is None:
            slot = emitted[step] = start + len(steps)
            steps.append(step)
        return slot

    def neg(x: int) -> int:
        if x == one or x == minus_one:
            return minus_one if x == one else one
        if x >= first and steps[x - start][0] is _negated_pair:
            return steps[x - start][1]  # -(-y) is y
        return emit(_negated_pair, x)

    def times(x: int, y: int) -> int:
        if x == one or x == minus_one:
            return y if x == one else neg(y)
        return emit(*_product(x, y, n, m))

    def scaled(k: float, x: int) -> int:
        return emit(intervals.pair_scale, literal[repr(k)], x)

    ops = {op: i for i, op in enumerate(code)}

    def apply(kind: str, j: int, arg=None) -> int:
        """The value of ``kind`` applied to op ``j``'s: an op's if there is
        one (``sin(x)`` next to ``cos(x)``), else a new step."""
        i = ops.get((kind, arg, (j,)))
        if i is not None:
            return where[i]
        return emit(_PAIR_FUNCTIONS[kind], where[j], None if arg is None else literal[repr(arg)])

    def send(j: int, x: int) -> None:
        adjoint[j] = emit(intervals.pair_add, adjoint[j], x) if j in adjoint else x

    div = intervals.pair_div
    for i in range(root, -1, -1):
        g = adjoint.get(i)
        if g is None:
            continue
        kind, arg, operands = code[i]
        a, b = (operands + (None, None))[:2]
        if kind in (ADD, SUB):
            if varying[a]:
                send(a, g)
            if varying[b]:
                send(b, g if kind == ADD else neg(g))
        elif kind == MUL:
            if varying[a]:
                send(a, times(g, where[b]))
            if varying[b]:
                send(b, times(g, where[a]))
        elif kind == DIV:
            if varying[a]:
                send(a, emit(div, g, where[b]))
            if varying[b]:
                send(b, neg(emit(div, times(g, where[i]), where[b])))
        elif kind == MAX:
            if varying[a]:
                send(a, emit(intervals.pair_max_adjoint, None, (where[a], where[b], g)))
            if varying[b]:
                send(b, emit(intervals.pair_max_adjoint, None, (where[b], where[a], g)))
        elif kind == NEG or (kind == _POW and arg == 1):
            send(a, neg(g) if kind == NEG else g)
        elif kind == SQR or kind == _POW and arg == 2:
            send(a, times(g, scaled(2.0, where[a])))
        elif kind == _POW:
            send(a, times(g, scaled(float(arg), apply(_POW, a, arg - 1))))
        elif kind == SQRT:
            send(a, emit(div, g, scaled(2.0, where[i])))
        elif kind == EXP:
            send(a, times(g, where[i]))
        elif kind == SIN:
            send(a, times(g, apply(COS, a)))
        elif kind == COS:
            send(a, neg(times(g, apply(SIN, a))))
        elif kind == ABS:
            send(a, emit(intervals.pair_abs_adjoint, where[a], g))
    loads = {arg: i for i, (kind, arg, _) in enumerate(code) if kind == _LOAD}
    zero = literal[repr(_ZERO_PAIR)]
    return tuple(adjoint.get(loads.get(k), zero) for k in range(n))


def _source(sizes: Sequence[int], literals: tuple, steps: tuple, root: int, grads) -> str:
    """Source of ``def kernel(d, c)``, or ``(d, c, p)`` for ``sizes`` of
    three areas, which runs ``steps`` (see ``_tape``) as one statement each,
    ``v{i} = ...`` for the ``i``-th, and returns the value at the slot
    ``root``, followed by the tuple of those at ``grads`` unless that is
    ``None``.  A slot below the steps' is read in place: ``d[k]``, ``c[k]``
    or ``p[k]``, or a literal, as its ``repr``."""
    names = [f"{area}[{k}]" for area, size in zip("dcp", sizes) for k in range(size)]
    names += map(repr, literals)
    start = len(names)
    lines = []
    for i, (function, a, b) in enumerate(steps):
        args = [names[x] for x in ((a,) if b is None else b if a is None else (a, b))]
        template = _TEMPLATES.get(function)
        rhs = template.format(*args) if template else f"{function.__name__}({', '.join(args)})"
        lines.append(f"v{i} = {rhs}")
        names.append(f"v{i}")
    returned = names[root]
    if grads is not None:
        returned += ", (" + "".join(names[x] + ", " for x in grads) + ")"
    lines.append("return " + returned)
    params = ", ".join("dcp"[: len(sizes)])
    return f"def kernel({params}):\n    " + "\n    ".join(lines) + "\n"


def _tape(home: list, key: int, form: tuple):
    """The kernel that ``_source(*form)`` defines, where ``form`` is
    ``(sizes, literals, steps, root, grads)``, run from a tape until it has
    run ``_HOT_RUNS`` times; then it is compiled and stored as
    ``home[key]``, where the tape was.

    The tape runs ``steps`` over one list of values: the entries of ``d``,
    ``c`` and, for ``sizes`` of three areas, ``p``, then the ``literals``,
    then the value of each step in turn.  A step ``(function, a, b)``
    appends ``function`` of the values at the slots ``a`` and ``b``, or of
    the value at ``a`` alone when ``b`` is ``None``, or of those at the
    slots ``b`` when ``a`` is ``None``: the call, or the arithmetic, that
    its statement makes, on the same operands.  Branching on the arity,
    instead of unpacking a tuple of slots in each step, cuts the time that
    the tape takes beyond the compiled kernel by four fifths."""
    _, literals, steps, root, grads = form
    runs = 0

    def kernel(d, c, p=()):
        nonlocal runs
        runs += 1
        if runs == _HOT_RUNS:
            home[key] = _compile(_source(*form))
        vals = [*d, *c, *p, *literals]
        append = vals.append
        for function, a, b in steps:
            if b is None:
                append(function(vals[a]))
            elif a is None:
                append(function(*map(vals.__getitem__, b)))
            else:
                append(function(vals[a], vals[b]))
        if grads is None:
            return vals[root]
        return vals[root], tuple(map(vals.__getitem__, grads))

    return kernel


def _overflow(exc: OverflowError) -> IntervalError:
    """The error of an interval kernel that overflowed."""
    return IntervalError(f"interval evaluation overflow: {exc}")


class Program:
    """Expression turned into kernels for repeated point and interval
    evaluation and for its gradient, each run from a tape and compiled once
    hot (see ``_tape``).

    ``code`` holds the numbered ops in postfix order (see ``_postfix``).
    Calling the program on a sequence of ``(lo, hi)`` pairs, one per
    variable of ``var_order``, gives its enclosure there as a pair, so a
    program is itself an interval function for ``intervals.refined_eval``.
    ``gradient(dims)`` returns that enclosure together with those of the
    partial derivatives there, from which the branch-and-bound takes
    first-order bounds.  A program keeps no result between calls: each
    answer is a function of the arguments alone, on either kernel tier.

    Each method checks the number of its arguments, one per variable, and
    then calls its kernels itself, one frame per run; a wrong number raises
    ``UnboundVariable`` (``_miscount``), and an interval kernel's
    ``OverflowError`` becomes an ``IntervalError``.  A call of the program
    goes through ``eval_interval``, which the benchmark's tracer wraps.
    """

    __slots__ = ("code", "var_order", "expr", "_constants", "_pairs", "_kernels")

    def __init__(self, expr: Expr, var_order: Sequence[str], keyed: tuple | None = None):
        """``expr`` compiled over ``var_order``.  Given ``keyed``, which
        must be ``structural_key_with_vars(expr)``, the ops are those of the
        key, with each load's slot moved from the order of first occurrence
        to that of ``var_order``, and ``expr`` is not walked again.  Raises
        ``UnboundVariable`` for a variable outside ``var_order``, and
        ``IntervalError`` for a constant that is not finite: no kernel could
        enclose it."""
        slots = {name: i for i, name in enumerate(var_order)}
        bound = len(slots)
        if keyed is None:
            self.code, self._constants = _postfix(expr, slots)
        else:
            (code, constants), names = keyed
            slot = [slots.setdefault(name, len(slots)) for name in names]
            self.code = tuple(
                (_LOAD, slot[op[1]], op[2]) if op[0] == _LOAD else op for op in code
            )
            self._constants = tuple(map(float, constants))  # ``float`` undoes ``repr``
        if len(slots) > bound:  # a name not in ``var_order`` was slotted
            raise UnboundVariable(f"unbound variables: {sorted(list(slots)[bound:])}")
        for x in self._constants:
            if not math.isfinite(x):
                raise IntervalError(f"non-finite constant {x!r}")
        self._pairs = tuple((x, x) for x in self._constants)
        self.var_order = tuple(var_order)
        self.expr = expr
        self._kernels = _shape_kernels(self.code, len(self.var_order))

    def _miscount(self, args: Sequence) -> UnboundVariable:
        """The error of a call with other than one argument per variable."""
        n = len(self.var_order)
        return UnboundVariable(f"the program takes {n} values, one per variable, got {len(args)}")

    def gradient(self, dims: Sequence[tuple[float, float]]) -> tuple[tuple[float, float], tuple]:
        """The enclosure of the expression on the box ``dims`` (pairs), the
        same bits that ``eval_interval(dims)`` gives, and those of its
        partial derivatives there, one pair per variable of ``var_order``,
        from one run of the gradient kernel: the steps of the interval
        kernel, then the reverse pass.  At a kink of ``abs`` or ``max`` the partials
        enclose Clarke's generalized gradient, so the mean value theorem
        holds with them in Lebourg's form.  A variable the expression does
        not contain gets exactly ``(0.0, 0.0)``.  Raises ``IntervalError``
        where an enclosure fails."""
        if len(dims) != len(self.var_order):
            raise self._miscount(dims)
        try:
            return self._kernels[2](dims, self._constants, self._pairs)
        except OverflowError as exc:
            raise _overflow(exc) from exc

    def eval_point(self, values: Sequence[float]) -> float:
        if len(values) != len(self.var_order):
            raise self._miscount(values)
        try:
            return self._kernels[0](values, self._constants)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise EvaluationError(f"point evaluation failed: {exc}") from exc

    def eval_interval(self, dims: Sequence[tuple[float, float]]) -> tuple[float, float]:
        if len(dims) != len(self.var_order):
            raise self._miscount(dims)
        try:
            return self._kernels[1](dims, self._constants, self._pairs)
        except OverflowError as exc:
            raise _overflow(exc) from exc

    def __call__(self, dims: Sequence[tuple[float, float]]) -> tuple[float, float]:
        return self.eval_interval(dims)
