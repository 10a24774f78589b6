"""The compiled kernels of ``expr.Program`` against a reference evaluator.

The reference composes ``Interval`` methods and ``iv_sin``/``iv_cos`` node by
node over the tree, and slices boxes slab by slab.  The kernels, which work on
``(lo, hi)`` pairs, must agree with it exactly: the same endpoints by
``repr`` (signed zeros count), and the same exception class and message where
evaluation fails.
"""

from __future__ import annotations

import ast
import functools
import math
import random

import pytest

from certbound import expr as expr_module
from certbound.bnb import BnBStats, _Bounder, _first_order, _Negated
from certbound.errors import (
    DivisionByZeroInterval,
    EvaluationError,
    IntervalError,
    NonDifferentiable,
)
from certbound.expr import (
    ABS,
    COS,
    EXP,
    MAX,
    NEG,
    SIN,
    SQR,
    SQRT,
    Binary,
    Const,
    Expr,
    PowInt,
    Program,
    Unary,
    Var,
    differentiate,
    expr_sum,
    free_vars,
    parse,
    simplify,
    structural_key_with_vars,
)
from certbound.intervals import Box, Interval, iv_cos, iv_sin, pair_pow, refined_eval
from conftest import chain_rule_derivative, pairs, point_interval

NAMES = ("x0", "x1", "x2", "x3")
UNARY = (NEG, ABS, SQR, SQRT, EXP, SIN, COS)
BINARY = ("+", "-", "*", "/", MAX)


# ---------------------------------------------------------------------------
# Reference evaluators
# ---------------------------------------------------------------------------


def _ref_node(e: Expr, env: dict[str, Interval]) -> Interval:
    if isinstance(e, Const):
        return Interval(e.value, e.value)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, PowInt):
        base = _ref_node(e.base, env)
        return Interval(*pair_pow((base.lo, base.hi), e.exponent))
    if isinstance(e, Unary):
        a = _ref_node(e.arg, env)
        if e.op == NEG:
            return -a
        if e.op == SIN:
            return iv_sin(a)
        if e.op == COS:
            return iv_cos(a)
        return {ABS: a.abs, SQR: a.sqr, SQRT: a.sqrt, EXP: a.exp}[e.op]()
    left = _ref_node(e.left, env)
    right = _ref_node(e.right, env)
    if e.op == "+":
        return left + right
    if e.op == "-":
        return left - right
    if e.op == "*":
        return left * right
    if e.op == MAX:
        return Interval(max(left.lo, right.lo), max(left.hi, right.hi))
    return left / right


def ref_interval(e: Expr, box: Box) -> Interval:
    try:
        return _ref_node(e, dict(zip(box.labels, box.dims)))
    except OverflowError as exc:
        raise IntervalError(f"interval evaluation overflow: {exc}") from exc


def ref_refined(e: Expr, box: Box, segments: int) -> Interval:
    def fn(dims):
        iv = ref_interval(e, Box(tuple(Interval(*pair) for pair in dims), box.labels))
        return iv.lo, iv.hi

    return refined_eval(fn, box, segments)


def _ref_point_node(e: Expr, env: dict[str, float]) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, PowInt):
        return _ref_point_node(e.base, env) ** e.exponent
    if isinstance(e, Unary):
        a = _ref_point_node(e.arg, env)
        if e.op == NEG:
            return -a
        if e.op == SQR:
            return a * a
        return {ABS: abs, SQRT: math.sqrt, EXP: math.exp, SIN: math.sin, COS: math.cos}[e.op](a)
    left = _ref_point_node(e.left, env)
    right = _ref_point_node(e.right, env)
    if e.op == "/":
        return left / right
    return {"+": left + right, "-": left - right, "*": left * right, MAX: max(left, right)}[e.op]


def ref_point(e: Expr, names, values) -> float:
    try:
        return _ref_point_node(e, dict(zip(names, values)))
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise EvaluationError(f"point evaluation failed: {exc}") from exc


def outcome(fn, *args):
    """``repr`` of the endpoints (of an ``Interval`` or a pair), or the
    exception class and message."""
    try:
        result = fn(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    if isinstance(result, Interval):
        result = result.lo, result.hi
    if isinstance(result, tuple):
        return tuple(map(repr, result))
    return repr(result)


# ---------------------------------------------------------------------------
# Random trees and boxes
# ---------------------------------------------------------------------------


def _copy(e: Expr) -> Expr:
    """An equal tree that shares no node with ``e``."""
    if isinstance(e, Const):
        return Const(e.value)
    if isinstance(e, Var):
        return Var(e.name)
    if isinstance(e, PowInt):
        return PowInt(_copy(e.base), e.exponent)
    if isinstance(e, Unary):
        return Unary(e.op, _copy(e.arg))
    return Binary(e.op, _copy(e.left), _copy(e.right))


def random_tree(rng: random.Random, depth: int, pool: list[Expr] | None = None) -> Expr:
    """A random tree.  With a ``pool`` (the subtrees drawn so far), a
    subtree is now and then one drawn before, as the same node or as an
    equal copy, so that value numbering merges it."""
    if pool and rng.random() < 0.15:
        e = rng.choice(pool)
        return e if rng.random() < 0.5 else _copy(e)
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.35:
            e: Expr = Const(rng.choice([0.0, -0.0, 1.0, 2.0, 0.5, -3.0, rng.uniform(-4, 4)]))
        else:
            e = Var(rng.choice(NAMES))
    else:
        kind = rng.random()
        if kind < 0.45:
            op = rng.choice(BINARY)
            e = Binary(op, random_tree(rng, depth - 1, pool), random_tree(rng, depth - 1, pool))
        elif kind < 0.9:
            e = Unary(rng.choice(UNARY), random_tree(rng, depth - 1, pool))
        else:
            e = PowInt(random_tree(rng, depth - 1, pool), rng.randint(1, 5))
    if pool is not None:
        pool.append(e)
    return e


def random_box(rng: random.Random) -> Box:
    bounds = []
    for name in NAMES:
        scale = rng.choice([0.5, 2.0, 4.0])
        a, b = sorted(rng.uniform(-scale, scale) for _ in range(2))
        if rng.random() < 0.15:
            b = a
        elif rng.random() < 0.2:
            a, b = rng.choice([0.0, -0.0]), abs(b)
        bounds.append((name, a, b))
    return Box.from_bounds(bounds)


def test_random_trees_cover_every_op():
    rng = random.Random(0)
    seen: set[str] = set()
    merged = 0
    for _ in range(200):
        e = random_tree(rng, 5, [])
        program = Program(e, NAMES)
        seen.update(kind for kind, _, _ in program.code)
        merged += len(program.code) < _node_count(e)
    assert seen == {"const", "load", "pow", *UNARY, *BINARY}
    assert merged > 50  # value numbering merged ops in many trees


def _node_count(e: Expr) -> int:
    """Nodes of ``e`` counted as a tree: a shared node once per parent."""
    kids = (e.left, e.right) if isinstance(e, Binary) else (
        (e.arg,) if isinstance(e, Unary) else (e.base,) if isinstance(e, PowInt) else ()
    )
    return 1 + sum(map(_node_count, kids))


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_derivative_is_exactly_zero_where_the_variable_is_absent(seed, shared):
    # Without the variable, a tree's derivative is the constant 0.0 (not
    # -0.0) and never a kink error, whatever abs or max it holds; with it,
    # the derivative uses no variable the tree lacks.
    rng = random.Random(300 + seed)
    absent = raised = 0
    for _ in range(150):
        e = random_tree(rng, 5, [] if shared else None)
        present = free_vars(e)
        for v in NAMES:
            try:
                d = differentiate(e, v)
            except NonDifferentiable:
                assert v in present
                raised += 1
                continue
            if v in present:
                assert free_vars(d) <= present
            else:
                assert isinstance(d, Const) and repr(d.value) == "0.0"
                absent += 1
    assert absent > 50 and raised > 50


def _derivative_or_error(derive, e: Expr, v: str):
    """The key of ``derive(e, v)``, or the class and message it raises."""
    try:
        return structural_key_with_vars(derive(e, v))
    except NonDifferentiable as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_derivative_is_the_simplified_chain_rule(seed, shared):
    # On a simplified tree, ``differentiate`` builds in its one walk the
    # tree that ``simplify`` makes of the chain rule's (compared by key, so
    # -0.0 is not 0.0), and refuses the same kink with the same message.
    rng = random.Random(400 + seed)
    raised = built = 0
    for _ in range(150):
        e = simplify(random_tree(rng, 5, [] if shared else None))
        for v in NAMES:
            got = _derivative_or_error(differentiate, e, v)
            want = _derivative_or_error(lambda e, v: simplify(chain_rule_derivative(e, v)), e, v)
            assert got == want
            if v not in free_vars(e):
                assert differentiate(e, v) is expr_module.ZERO
            elif got[0] is NonDifferentiable:
                raised += 1
            else:
                built += 1
    assert raised > 30 and built > 50


def _postfix_reference(e: Expr, slots: dict[str, int]):
    """``expr._postfix`` as a recursive walk: operands left to right, a node
    numbered after them."""
    ops: list = []
    constants: list[float] = []
    varying: list[bool] = []
    number: dict = {}
    walked: dict[int, int] = {}

    def visit(node: Expr) -> int:
        if id(node) in walked:
            return walked[id(node)]
        if isinstance(node, Const):
            key, op = repr(node.value), ("const", len(constants), ())
        elif isinstance(node, Var):
            key = op = ("load", slots.setdefault(node.name, len(slots)), ())
        elif isinstance(node, Binary):
            key = op = (node.op, None, (visit(node.left), visit(node.right)))
        elif isinstance(node, Unary):
            key = op = (node.op, None, (visit(node.arg),))
        else:
            key = op = ("pow", node.exponent, (visit(node.base),))
        index = number.get(key)
        if index is None:
            index = number[key] = len(ops)
            ops.append(op)
            if op[0] == "const":
                constants.append(node.value)
            varying.append(op[0] == "load" or any(varying[j] for j in op[2]))
        walked[id(node)] = index
        return index

    visit(e)
    return tuple(ops), tuple(constants), tuple(varying)


@pytest.mark.parametrize("seed", range(4))
def test_postfix_matches_a_recursive_walk(seed):
    # Shared nodes and equal copies, repeated constants, 0.0 and -0.0; the
    # constants compared by ``repr``, and the slots given to new names too.
    rng = random.Random(500 + seed)
    for _ in range(200):
        e = random_tree(rng, 6, [])
        for declared in ((), NAMES[2:0:-1]):
            slots = {name: k for k, name in enumerate(declared)}
            ref_slots = dict(slots)
            code, constants, varying = expr_module._postfix(e, slots)
            ref_code, ref_constants, ref_varying = _postfix_reference(e, ref_slots)
            assert (code, varying, slots) == (ref_code, ref_varying, ref_slots)
            assert list(map(repr, constants)) == list(map(repr, ref_constants))


@pytest.mark.parametrize("seed", range(3))
def test_program_from_its_key_is_the_program_walked(seed):
    # The key's ops, with each load moved to its slot in ``var_order``.
    rng = random.Random(600 + seed)
    for _ in range(200):
        e = random_tree(rng, 5, [])
        order = rng.sample(NAMES, len(NAMES))
        walked = Program(e, order)
        keyed = Program(e, order, structural_key_with_vars(e))
        assert (keyed.code, keyed._varying) == (walked.code, walked._varying)
        assert list(map(repr, keyed._constants)) == list(map(repr, walked._constants))
    e = parse("x0*y + z")
    assert outcome(Program, e, ["x0"]) == outcome(Program, e, ["x0"], structural_key_with_vars(e))


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_interval_kernel_matches_reference(seed):
    rng = random.Random(seed)
    failures = 0
    for _ in range(150):
        e = random_tree(rng, rng.randint(1, 7), [])
        program = Program(e, NAMES)
        for _ in range(4):
            box = random_box(rng)
            expected = outcome(ref_interval, e, box)
            assert outcome(program, pairs(box)) == expected, (str(e), box)
            failures += isinstance(expected[0], type)
            segments = rng.choice([2, 3, 10])
            assert outcome(refined_eval, program, box, segments) == outcome(
                ref_refined, e, box, segments
            ), (str(e), box, segments)
            # ``minimize`` maximizes ``_Negated(program)``: its sliced
            # enclosure is the negated one, signed zeros included.
            for segments in (1, 3):
                assert outcome(refined_eval, _Negated(program), box, segments) == outcome(
                    lambda: -refined_eval(program, box, segments)
                ), (str(e), box, segments)
    assert failures > 0  # the error paths were reached


@pytest.mark.parametrize("seed", range(3))
def test_point_kernel_matches_reference(seed):
    rng = random.Random(100 + seed)
    for _ in range(200):
        e = random_tree(rng, rng.randint(1, 7), [])
        program = Program(e, NAMES)
        for _ in range(4):
            values = [rng.choice([0.0, -0.0, rng.uniform(-4, 4)]) for _ in NAMES]
            assert outcome(program.eval_point, values) == outcome(ref_point, e, NAMES, values)


X = ("x",)


def _box(lo: float, hi: float) -> Box:
    return Box.from_bounds([("x", lo, hi)])


@pytest.mark.parametrize(
    "text, lo, hi, error, message",
    [
        ("1/x", -1.0, 1.0, "DivisionByZeroInterval", "divisor [-1.0, 1.0] contains zero"),
        ("1/(x - 1)", 0.0, 1.0, "DivisionByZeroInterval", "divisor [-1.0, 5e-324] contains zero"),
        ("sqrt(x)", -1.0, 1.0, "DomainError", "sqrt of interval [-1.0, 1.0] with negative part"),
        ("x*x*x", 1e200, 1e200, "IntervalError", "non-finite endpoint in [1.7976931348623157e+308, inf]"),
        ("sqr(x)", 1e200, 1e200, "IntervalError", "non-finite endpoint in [1.7976931348623157e+308, inf]"),
        ("x + x", 1e308, 1e308, "IntervalError", "non-finite endpoint in [1.7976931348623157e+308, inf]"),
        ("x^3", 1e200, 1e200, "IntervalError", "interval evaluation overflow: (34, 'Numerical result out of range')"),
        ("exp(x)", 1000.0, 1000.0, "IntervalError", "interval evaluation overflow: math range error"),
    ],
)
def test_error_class_and_message(text, lo, hi, error, message):
    e = parse(text)
    expected = outcome(ref_interval, e, _box(lo, hi))
    assert (expected[0].__name__, expected[1]) == (error, message)
    assert outcome(Program(e, X), pairs(_box(lo, hi))) == expected


@pytest.mark.parametrize("text", ["sin(x)", "cos(x)"])
@pytest.mark.parametrize("lo, hi", [(-10.0, 10.0), (2.0, 4.0), (-4.0, -2.0), (0.5, 0.5), (-3.0, 3.0)])
def test_trig_lobes_and_fallback(text, lo, hi):
    e = parse(text)
    assert outcome(Program(e, X), pairs(_box(lo, hi))) == outcome(ref_interval, e, _box(lo, hi))


def test_nonfinite_constant_raises_at_evaluation():
    program = Program(Const(math.inf) * Var("x"), X)
    assert program.eval_point([2.0]) == math.inf
    expected = (IntervalError, "non-finite endpoint in [inf, inf]")
    assert outcome(ref_interval, program.expr, _box(1.0, 2.0)) == expected
    assert outcome(program, [(1.0, 2.0)]) == expected


def test_slabs_never_evaluate_the_whole_box():
    # The denominator's enclosure on [0, 2] contains 0, on every tenth not.
    e = parse("1/(x*x - 2*x + 2)")
    box = _box(0.0, 2.0)
    program = Program(e, X)
    with pytest.raises(DivisionByZeroInterval):
        program(pairs(box))
    refined = refined_eval(program, box, 10)
    assert refined.lo <= 0.5 and 1.0 <= refined.hi
    assert repr(refined) == repr(ref_refined(e, box, 10))


# ---------------------------------------------------------------------------
# First-order bounds of the branch-and-bound
# ---------------------------------------------------------------------------


def _point_enclosure(program, point):
    """The interval kernel at ``point``, as an ``Interval``: it encloses the
    exact value there, which a float evaluation may miss by its rounding.
    ``None`` where the objective is undefined."""
    try:
        return Interval(*program([(x, x) for x in point]))
    except IntervalError:
        return None


@pytest.mark.parametrize("seed", range(4))
def test_first_order_bounds_contain_sampled_values(seed):
    # On random trees, abs and max among the ops: a subproblem's face lies
    # in its box, its bounds enclose h on the face, and its upper bound is
    # above h anywhere in the box (the maximum lies on the face).
    rng = random.Random(700 + seed)
    sampler = random.Random(seed)
    collapsed = tightened = 0
    for _ in range(120):
        e = random_tree(rng, rng.randint(1, 5))
        program = Program(e, NAMES)
        for _ in range(3):
            box = random_box(rng)
            if rng.random() < 0.5:  # narrower boxes, where the centred form wins
                box = Box(
                    tuple(Interval(iv.lo, min(iv.hi, iv.lo + 0.3)) for iv in box.dims), NAMES
                )
            segments = rng.choice([1, 3])
            for hI, sign in ((program, 1.0), (_Negated(program), -1.0)):
                sub = _Bounder(hI, segments, BnBStats())(box)
                assert all(
                    b.lo <= f.lo <= f.hi <= b.hi for f, b in zip(sub.box.dims, box.dims)
                )
                plain = _Bounder(lambda dims: hI(dims), segments, BnBStats())(sub.box)
                collapsed += sub.box != box
                tightened += sub.lo_bound > plain.lo_bound or sub.hi_bound < plain.hi_bound
                points = [
                    tuple(sampler.uniform(iv.lo, iv.hi) for iv in sub.box.dims)
                    for _ in range(20)
                ]
                points += [sub.box.corner("lo"), sub.box.corner("hi")]
                for point in points:
                    value = _point_enclosure(program, point)
                    if value is not None:
                        lo, hi = sorted((sign * value.lo, sign * value.hi))
                        assert sub.lo_bound <= hi and lo <= sub.hi_bound, (str(e), box, point)
                for _ in range(20):
                    point = tuple(sampler.uniform(iv.lo, iv.hi) for iv in box.dims)
                    value = _point_enclosure(program, point)
                    if value is not None:
                        lo = min(sign * value.lo, sign * value.hi)
                        assert lo <= sub.hi_bound, (str(e), box, point)
    assert collapsed > 0 and tightened > 0  # both first-order steps were taken


def _quotient(program, point, other, k):
    """An enclosure of the difference quotient of the program's expression
    between ``point`` and ``other``, which differ in coordinate ``k`` only;
    ``None`` where the expression is undefined at either."""
    a, b = _point_enclosure(program, point), _point_enclosure(program, other)
    if a is None or b is None:
        return None
    try:
        return (b - a) / (point_interval(other[k]) - point_interval(point[k]))
    except IntervalError:  # the step rounds to an interval around 0
        return None


@pytest.mark.parametrize("seed", range(4))
def test_gradient_encloses_partials_and_difference_quotients(seed):
    # On random trees with repeated subtrees, abs and max among the ops, the
    # adjoint enclosure of each partial derivative on a box, of h and of -h,
    # meets the enclosure of the symbolic partial at points of the box where
    # ``differentiate`` succeeds.  Where it fails (a kink), it meets the
    # difference quotients between points of the box: by Lebourg's mean
    # value theorem each is a component of a generalized gradient there.
    rng = random.Random(900 + seed)
    sampler = random.Random(seed)
    symbolic = quotients = 0
    for _ in range(100):
        e = random_tree(rng, rng.randint(1, 5), [])
        program = Program(e, NAMES)
        try:
            partials = [Program(differentiate(e, v), NAMES) for v in NAMES]
        except NonDifferentiable:
            partials = None
        for _ in range(3):
            box = random_box(rng)
            if rng.random() < 0.5:
                box = Box(
                    tuple(Interval(iv.lo, min(iv.hi, iv.lo + 0.3)) for iv in box.dims), NAMES
                )
            for hI, sign in ((program, 1.0), (_Negated(program), -1.0)):
                try:
                    grads = hI.gradient(pairs(box))
                except IntervalError:
                    continue
                for k, name in enumerate(NAMES):
                    if name not in free_vars(e):
                        assert grads[k] == (0.0, 0.0)
                for _ in range(8):
                    point = tuple(sampler.uniform(iv.lo, iv.hi) for iv in box.dims)
                    for k, g in enumerate(grads):
                        if partials is not None:
                            enclosure = _point_enclosure(partials[k], point)
                            symbolic += enclosure is not None
                        else:
                            other = list(point)
                            other[k] = sampler.choice([box.dims[k].lo, box.dims[k].hi])
                            enclosure = None
                            if other[k] != point[k]:
                                enclosure = _quotient(program, point, other, k)
                            quotients += enclosure is not None
                        if enclosure is not None:
                            lo, hi = sorted((sign * enclosure.lo, sign * enclosure.hi))
                            assert g[0] <= hi and lo <= g[1], (str(e), box, point, k)
    assert symbolic > 1000 and quotients > 1000


# ---------------------------------------------------------------------------
# Deep expressions and shared compilation
# ---------------------------------------------------------------------------


def test_deep_sum_compiles_and_evaluates():
    names = [f"x{i}" for i in range(5000)]
    program = Program(expr_sum(Var(n) for n in names), names)
    values = [1.0 + i / 7 for i in range(5000)]
    assert program.eval_point(values) == functools.reduce(lambda a, b: a + b, values)
    dims = [(v, v + 0.5) for v in values]
    total = functools.reduce(Interval.__add__, (Interval(*pair) for pair in dims))
    assert outcome(program.eval_interval, dims) == outcome(lambda: total)


# ---------------------------------------------------------------------------
# The kernel cache: one generated kernel per program shape
# ---------------------------------------------------------------------------

def test_programs_of_one_shape_share_compiled_kernels():
    a = Program(parse("2*x*x + 1"), X)
    b = Program(parse("3*x*x + 5"), X)
    assert a.code == b.code
    for pair in (False, True):
        assert a._kernel(pair) is b._kernel(pair)
    assert a.eval_interval([(1.0, 1.0)]) != b.eval_interval([(1.0, 1.0)])
    assert a.eval_point([1.0]) == 3.0 and b.eval_point([1.0]) == 8.0


@pytest.mark.parametrize("finite_first", [True, False], ids=["finite-first", "inf-first"])
def test_a_nonfinite_constant_makes_another_shape(finite_first):
    # The inf must get a statement of its own, where pair_point rejects it;
    # a finite constant is read in place.
    expr_module._shape_kernels.cache_clear()
    finite = Program(Const(2.0) * Var("x"), X)
    infinite = Program(Const(math.inf) * Var("x"), X)
    assert finite.code == infinite.code
    box = _box(1.0, 2.0)
    first = [finite, infinite] if finite_first else [infinite, finite]
    results = {id(program): outcome(program, pairs(box)) for program in first}
    assert results[id(infinite)] == (IntervalError, "non-finite endpoint in [inf, inf]")
    assert results[id(finite)] == outcome(ref_interval, finite.expr, box)
    for pair in (False, True):
        assert finite._kernel(pair) is not infinite._kernel(pair)


def test_an_extra_variable_slot_makes_another_shape():
    # The reverse pass has one output per slot, so the same ops over a
    # longer ``var_order`` need a longer gradient.
    expr_module._shape_kernels.cache_clear()
    short = Program(parse("x*x"), X)
    wide = Program(parse("x*x"), ("x", "y"))
    assert short.code == wide.code
    (gx,) = short.gradient([(1.0, 2.0)])
    grads = wide.gradient([(1.0, 2.0), (-1.0, 1.0)])
    assert len(grads) == 2 and grads[0] == gx
    assert repr(grads[1]) == "(0.0, 0.0)"
    assert len(short.gradient([(1.0, 2.0)])) == 1


def _count_compiles(monkeypatch) -> list[str]:
    """The sources that ``expr`` compiles from now on, in order."""
    compiled: list[str] = []
    compile_source = expr_module._compile
    monkeypatch.setattr(
        expr_module, "_compile", lambda source: compiled.append(source) or compile_source(source)
    )
    return compiled


def test_each_kernel_is_one_function(monkeypatch):
    # The case-1 objective of traffic s5 (461 ops) has the longest kernels of
    # the benchmark: 243 interval and 213 reverse statements.
    from certbound.bnb import BnBConfig
    from certbound.models import TrafficConfig, build_traffic
    from certbound.params import lipschitz_case1

    model, _ = build_traffic(TrafficConfig(sections=5))
    expr_module._shape_kernels.cache_clear()
    compiled = _count_compiles(monkeypatch)
    lipschitz_case1(model, BnBConfig())
    assert sorted(source.count("\n") for source in compiled) == [215, 245, 245]


ONE = Interval(1.0, 1.0)
ZERO = Interval(0.0, 0.0)


@pytest.mark.parametrize(
    "text, reference",
    [
        # The reverse pass reads the result's own value: the interval kernel
        # returns it once, and the reverse pass takes it as one parameter.
        # The reference is the ``Interval`` formulas of the derivatives.
        ("exp(x)", lambda x, y: (x.exp(), ZERO)),
        ("sqrt(x)", lambda x, y: (ONE / (Interval(2.0, 2.0) * x.sqrt()), ZERO)),
        ("x/y", lambda x, y: (ONE / y, -((x / y) / y))),
        # No statement of the reverse pass: its outputs are source text.
        ("x", lambda x, y: (ONE, ZERO)),
        ("2.5", lambda x, y: (ZERO, ZERO)),
    ],
)
def test_gradient_hand_off_matches_reference(text, reference):
    expr_module._shape_kernels.cache_clear()
    program = Program(parse(text), ("x", "y"))
    forward, _ = program._kernel(True)
    for dims in [[(0.5, 2.0), (1.0, 3.0)], [(1.0, 1.0), (-4.0, -0.25)], [(0.25, 9.0), (2.0, 2.0)]]:
        # no value besides the result
        assert len(forward(dims, program._constants, program._pairs)) == 1
        expected = [(g.lo, g.hi) for g in reference(*(Interval(*pair) for pair in dims))]
        assert list(map(repr, program.gradient(dims))) == list(map(repr, expected)), dims


def test_cold_and_warm_cache_print_the_same_reports(tmp_path, capsys, monkeypatch):
    from certbound.cli import run

    compiled = _count_compiles(monkeypatch)
    model = str(tmp_path / "traffic_s5.nds")
    assert run(["make-model", "traffic", "--sections", "5", "--output", model]) == 0
    for job in (["jacobian"], ["qb"], ["lipschitz", "--case", "2"]):
        expr_module._shape_kernels.cache_clear()
        printed, counts = [], []
        for _ in ("cold", "warm"):
            assert run([*job, "--model", model, "--format", "json", "--no-timing"]) == 0
            printed.append(capsys.readouterr().out)
            counts.append(len(compiled))
        assert printed[0] == printed[1] and printed[0].startswith("[")
        assert counts[0] > 0 and counts[1] == counts[0]  # the warm run compiles nothing
        compiled.clear()


def _pair_calls(program: Program, reverse: bool) -> set[str]:
    """The ``pair_*`` functions that the interval kernel (or its reverse pass) calls."""
    kernel = program._kernel(True)[reverse]
    return {name for name in kernel.__code__.co_names if name.startswith("pair_")}


@pytest.mark.parametrize(
    "text, reverse", [("3.0*x", False), ("x*3.0", False), ("sqr(x)", True), ("x^3", True)]
)
def test_constant_factors_use_pair_scale(text, reverse):
    calls = _pair_calls(Program(parse(text), X), reverse)
    assert "pair_scale" in calls and "pair_mul" not in calls


def test_product_of_variables_uses_pair_mul():
    calls = _pair_calls(Program(parse("x*y"), ("x", "y")), False)
    assert "pair_mul" in calls and "pair_scale" not in calls


# ---------------------------------------------------------------------------
# Pairs below the box: the statement form and the objects per evaluation
# ---------------------------------------------------------------------------


def test_every_interval_statement_binds_one_name(monkeypatch):
    # Each statement of an interval kernel or its reverse pass assigns one
    # pair to one name, e.g. ``v7 = pair_mul(v3, v5)``.
    expr_module._shape_kernels.cache_clear()
    compiled = _count_compiles(monkeypatch)
    rng = random.Random(5)
    for _ in range(60):
        program = Program(random_tree(rng, rng.randint(1, 6), []), NAMES)
        program._kernel(True)
    statements = 0
    for source in compiled:
        (kernel,) = ast.parse(source).body
        *body, returned = kernel.body
        assert isinstance(returned, ast.Return)
        for stmt in body:
            assert isinstance(stmt, ast.Assign) and len(stmt.targets) == 1, source
            assert isinstance(stmt.targets[0], ast.Name), ast.unparse(stmt)
            statements += 1
    assert statements > 300


def _count_inits(monkeypatch, *classes) -> dict[str, int]:
    """The number of instances of each of ``classes`` constructed from now
    on, by class name."""
    counts = {cls.__name__: 0 for cls in classes}
    for cls in classes:
        init = cls.__init__

        def counted(self, *args, init=init, name=cls.__name__):
            counts[name] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def test_refined_eval_builds_no_box_and_one_interval(monkeypatch):
    # The slabs are pairs in one list: the hull is the only object built.
    program = Program(parse("x*y - sqr(x)*y"), ("x", "y"))
    box = Box.from_bounds([("x", 0.0, 2.0), ("y", -1.0, 1.0)])
    expected = repr(ref_refined(program.expr, box, 10))
    counts = _count_inits(monkeypatch, Box, Interval)
    refined = refined_eval(program, box, 10)
    assert counts == {"Box": 0, "Interval": 1}
    assert repr(refined) == expected


def test_first_order_step_builds_only_the_face(monkeypatch):
    # The gradient, the centre and the centred form are pairs.  Where no
    # derivative has a fixed sign, the face is a Box of the same Intervals.
    program = Program(parse("x*y - sqr(x)*y"), ("x", "y"))
    box = Box.from_bounds([("x", 0.25, 0.75), ("y", -1.0, 1.0)])
    counts = _count_inits(monkeypatch, Box, Interval)
    face, lo, hi, _ = _first_order(program, program.gradient, box)
    assert counts == {"Box": 1, "Interval": 0}
    assert face == box and lo <= hi
