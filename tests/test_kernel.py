"""The compiled kernels of ``expr.Program`` against a reference evaluator.

The reference composes the ``pair_*`` functions of ``intervals`` node by node
over the tree, and slices boxes slab by slab.  The kernels, which work on
``(lo, hi)`` pairs, must agree with it exactly: the same endpoints by
``repr`` (signed zeros count), and the same exception class and message where
evaluation fails.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import itertools
import math
import random

import pytest

from certbound import bnb as bnb_module
from certbound import expr as expr_module
from certbound import model as model_module
from certbound.bnb import BnBConfig, BnBStats, _Bounder, _first_order, _Negated, maximize, minimize
from certbound.errors import (
    DivisionByZeroInterval,
    EvaluationError,
    IntervalError,
    NonDifferentiable,
    UnboundVariable,
)
from certbound.expr import (
    ABS,
    COS,
    EXP,
    MAX,
    MUL,
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
    free_vars,
    parse,
    parse_component,
    partials,
    simplify,
    structural_key_with_vars,
    to_text,
)
from certbound.intervals import (
    Box,
    Interval,
    pair_abs,
    pair_add,
    pair_cos,
    pair_div,
    pair_exp,
    pair_max,
    pair_mul,
    pair_pow,
    pair_sin,
    pair_sqr,
    pair_sqrt,
    pair_sub,
    refined_eval,
)
from conftest import chain_rule_derivative, corpus_expressions, expr_sum, make_box, pairs

NAMES = ("x0", "x1", "x2", "x3")
UNARY = (NEG, ABS, SQR, SQRT, EXP, SIN, COS)
BINARY = ("+", "-", "*", "/", MAX)


# ---------------------------------------------------------------------------
# Reference evaluators
# ---------------------------------------------------------------------------


_REF_UNARY = {
    ABS: pair_abs, SQR: pair_sqr, SQRT: pair_sqrt, EXP: pair_exp, SIN: pair_sin, COS: pair_cos
}
_REF_BINARY = {"+": pair_add, "-": pair_sub, "*": pair_mul, "/": pair_div, MAX: pair_max}


def _neg(a: tuple[float, float]) -> tuple[float, float]:
    return -a[1], -a[0]


def _ref_node(e: Expr, env: dict[str, tuple[float, float]]) -> tuple[float, float]:
    if isinstance(e, Const):
        return e.value, e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, PowInt):
        return pair_pow(_ref_node(e.base, env), e.exponent)
    if isinstance(e, Unary):
        a = _ref_node(e.arg, env)
        if e.op == NEG:
            return _neg(a)
        return _REF_UNARY[e.op](a)
    return _REF_BINARY[e.op](_ref_node(e.left, env), _ref_node(e.right, env))


def _ref_pairs(e: Expr, labels, dims: list[tuple[float, float]]) -> tuple[float, float]:
    try:
        return _ref_node(e, dict(zip(labels, dims)))
    except OverflowError as exc:
        raise IntervalError(f"interval evaluation overflow: {exc}") from exc


def ref_interval(e: Expr, box: Box) -> tuple[float, float]:
    return _ref_pairs(e, box.labels, pairs(box))


def ref_refined(e: Expr, box: Box, segments: int) -> tuple[float, float]:
    """The reference sliced along the widest dimension."""
    fn = functools.partial(_ref_pairs, e, box.labels)
    return refined_eval(fn, box, segments, box.widest()[0])


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


def random_tree(
    rng: random.Random, depth: int, pool: list[Expr] | None = None, extra: tuple = ()
) -> Expr:
    """A random tree.  With a ``pool`` (the subtrees drawn so far), a
    subtree is now and then one drawn before, as the same node or as an
    equal copy, so that value numbering merges it.  The constants are drawn
    from a fixed list, to which ``extra`` adds its values."""
    if pool and rng.random() < 0.15:
        e = rng.choice(pool)
        return e if rng.random() < 0.5 else _copy(e)
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.35:
            e: Expr = Const(
                rng.choice([0.0, -0.0, 1.0, 2.0, 0.5, -3.0, rng.uniform(-4, 4), *extra])
            )
        else:
            e = Var(rng.choice(NAMES))
    else:
        kind = rng.random()
        if kind < 0.45:
            op = rng.choice(BINARY)
            left = random_tree(rng, depth - 1, pool, extra)
            e = Binary(op, left, random_tree(rng, depth - 1, pool, extra))
        elif kind < 0.9:
            e = Unary(rng.choice(UNARY), random_tree(rng, depth - 1, pool, extra))
        else:
            e = PowInt(random_tree(rng, depth - 1, pool, extra), rng.randint(1, 5))
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
    return make_box(bounds)


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


def _partials_or_error(derive, e: Expr, names):
    """The keys of the partials that ``derive(e, names)`` gives, or the
    class and message it raises."""
    try:
        return {v: structural_key_with_vars(d) for v, d in derive(e, names).items()}
    except NonDifferentiable as exc:
        return type(exc), str(exc)


def _partials_one_by_one(e: Expr, names) -> dict:
    """``differentiate`` by each of ``names`` in turn, kept where the name
    occurs in ``e``."""
    present = free_vars(e)
    return {v: differentiate(e, v) for v in names if v in present}


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_partials_are_the_derivatives_one_by_one(seed, shared):
    # One walk by every variable gives each variable's derivative, and
    # refuses the first variable, in the order given, that meets a kink,
    # with the message ``differentiate`` gives for it alone.
    rng = random.Random(900 + seed)
    raised = built = 0
    for _ in range(120):
        e = random_tree(rng, 5, [] if shared else None)
        for tree in (e, simplify(e)):
            names = [*NAMES, "absent"]
            rng.shuffle(names)
            got = _partials_or_error(partials, tree, names)
            assert got == _partials_or_error(_partials_one_by_one, tree, names)
            if type(got) is dict:
                assert list(got) == [v for v in names if v in free_vars(tree)]
                built += 1
            else:
                raised += 1
    assert raised > 30 and built > 50


def _parsed_both_ways(text: str, constants=None):
    """Assert that the parser's simplified tree and its names are those of
    ``simplify`` and ``free_vars``, and give the tree."""
    e, names = parse_component(text, constants)
    want = simplify(parse(text, constants))
    assert e == want and to_text(e) == to_text(want)
    assert structural_key_with_vars(e) == structural_key_with_vars(want)
    assert names == free_vars(e)
    return e


@pytest.mark.parametrize("seed", range(3))
def test_the_parser_simplifies_as_it_builds(seed):
    rng = random.Random(1000 + seed)
    for _ in range(300):
        _parsed_both_ways(to_text(random_tree(rng, 6, [])))


@pytest.mark.parametrize(
    "text, expected, names",
    [
        ("0*z", "0.0", ()),
        ("(1-1)*z", "0.0", ()),
        ("z*(2-2) + y", "y", ("y",)),
        ("x*1 + 0/(y*y)", "x + 0.0/sqr(y)", ("x", "y")),
        ("--z", "z", ("z",)),
        ("0 - -z", "z", ("z",)),
        ("(y - y)^1", "y - y", ("y",)),
        ("max(0*z, x)", "max(0.0, x)", ("x",)),
        ("sqr(0*z) + abs(-(0*w))", "0.0", ()),
        ("(2*3)^2 * z^1", "36.0*z", ("z",)),
    ],
)
def test_folded_operands_take_their_names_away(text, expected, names):
    assert to_text(_parsed_both_ways(text)) == expected
    assert parse_component(text)[1] == frozenset(names)


def test_the_names_of_long_sums_of_distinct_variables():
    # Each union grows the larger set in place, so these take n log n.
    names = [f"x{i}" for i in range(5000)]
    for text in ("+".join(names), "-(".join(names) + ")" * (len(names) - 1)):
        e, found = parse_component(text)
        assert found == frozenset(names) == free_vars(e)


def test_the_parser_simplifies_every_bench_component(tmp_path, monkeypatch, workloads):
    # Every component of the benchmark's model files, at two seeds.
    read = []
    parse_text = model_module.parse_component
    monkeypatch.setattr(
        model_module, "parse_component", lambda *args: read.append(args) or parse_text(*args)
    )
    for seed in (0, 1):
        for workload in workloads.WORKLOADS:
            workdir = tmp_path / f"{workload}-{seed}"
            workdir.mkdir()
            workloads.make_jobs(workload, seed, str(workdir))
            for model_file in sorted(workdir.glob("*.nds")):
                model = model_module.load_model(str(model_file))
                assert model.component_vars == tuple(map(free_vars, model.f))
    assert len(read) > 300
    for text, constants in read:
        _parsed_both_ways(text, constants)


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
            code, constants = expr_module._postfix(e, slots)
            ref_code, ref_constants, ref_varying = _postfix_reference(e, ref_slots)
            assert (code, slots) == (ref_code, ref_slots)
            assert tuple(expr_module._varying(code)) == ref_varying
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
        assert keyed.code == walked.code and keyed._kernels is walked._kernels
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
            dim = box.widest()[0]
            assert outcome(refined_eval, program, box, segments, dim) == outcome(
                ref_refined, e, box, segments
            ), (str(e), box, segments)
            # ``minimize`` maximizes ``_Negated(program)``: its sliced
            # enclosure is the negated one, signed zeros included.
            for segments in (1, 3):

                def negated(segments=segments):
                    return _neg(refined_eval(program, box, segments, dim))

                assert outcome(refined_eval, _Negated(program), box, segments, dim) == outcome(
                    negated
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
    return make_box([("x", lo, hi)])


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


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("keyed", [False, True], ids=["walked", "keyed"])
def test_a_nonfinite_constant_is_refused_where_its_program_is_built(value, keyed):
    # No kernel could enclose it, so every kernel reads every constant in
    # place, and the cache key of a shape holds no constant.
    e = Binary(MUL, Const(value), Var("x"))
    with pytest.raises(IntervalError) as info:
        Program(e, X, structural_key_with_vars(e) if keyed else None)
    assert str(info.value) == f"non-finite constant {value!r}"


def test_slabs_never_evaluate_the_whole_box():
    # The denominator's enclosure on [0, 2] contains 0, on every tenth not.
    e = parse("1/(x*x - 2*x + 2)")
    box = _box(0.0, 2.0)
    program = Program(e, X)
    with pytest.raises(DivisionByZeroInterval):
        program(pairs(box))
    refined = refined_eval(program, box, 10, 0)
    assert refined[0] <= 0.5 and 1.0 <= refined[1]
    assert repr(refined) == repr(ref_refined(e, box, 10))


# ---------------------------------------------------------------------------
# First-order bounds of the branch-and-bound
# ---------------------------------------------------------------------------


def _point_enclosure(program, point):
    """The interval kernel at ``point``: it encloses the exact value there,
    which a float evaluation may miss by its rounding.  ``None`` where the
    objective is undefined."""
    try:
        return program([(x, x) for x in point])
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
                box = Box([(lo, min(hi, lo + 0.3)) for lo, hi in box.pairs], NAMES)
            segments = rng.choice([1, 3])
            for hI, sign in ((program, 1.0), (_Negated(program), -1.0)):
                sub = _Bounder(hI, segments, BnBStats())(box)
                assert all(
                    b[0] <= f[0] <= f[1] <= b[1] for f, b in zip(sub.box.pairs, box.pairs)
                )
                plain = _Bounder(lambda dims: hI(dims), segments, BnBStats())(sub.box)
                collapsed += sub.box != box
                tightened += sub.lo_bound > plain.lo_bound or sub.hi_bound < plain.hi_bound
                points = [
                    tuple(sampler.uniform(lo, hi) for lo, hi in sub.box.pairs)
                    for _ in range(20)
                ]
                points += sub.box.corners()
                for point in points:
                    value = _point_enclosure(program, point)
                    if value is not None:
                        lo, hi = sorted((sign * value[0], sign * value[1]))
                        assert sub.lo_bound <= hi and lo <= sub.hi_bound, (str(e), box, point)
                for _ in range(20):
                    point = tuple(sampler.uniform(lo, hi) for lo, hi in box.pairs)
                    value = _point_enclosure(program, point)
                    if value is not None:
                        lo = min(sign * value[0], sign * value[1])
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
        step = pair_sub((other[k], other[k]), (point[k], point[k]))
        return pair_div(pair_sub(b, a), step)
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
                box = Box([(lo, min(hi, lo + 0.3)) for lo, hi in box.pairs], NAMES)
            for hI, sign in ((program, 1.0), (_Negated(program), -1.0)):
                try:
                    _, grads = hI.gradient(pairs(box))
                except IntervalError:
                    continue
                for k, name in enumerate(NAMES):
                    if name not in free_vars(e):
                        assert grads[k] == (0.0, 0.0)
                for _ in range(8):
                    point = tuple(sampler.uniform(lo, hi) for lo, hi in box.pairs)
                    for k, g in enumerate(grads):
                        if partials is not None:
                            enclosure = _point_enclosure(partials[k], point)
                            symbolic += enclosure is not None
                        else:
                            other = list(point)
                            other[k] = sampler.choice(box.pairs[k])
                            enclosure = None
                            if other[k] != point[k]:
                                enclosure = _quotient(program, point, other, k)
                            quotients += enclosure is not None
                        if enclosure is not None:
                            lo, hi = sorted((sign * enclosure[0], sign * enclosure[1]))
                            assert g[0] <= hi and lo <= g[1], (str(e), box, point, k)
    assert symbolic > 1000 and quotients > 1000


# ---------------------------------------------------------------------------
# Deep expressions and shared compilation
# ---------------------------------------------------------------------------


def test_deep_sum_compiles_and_evaluates():
    # From the tape, then from the compiled kernels.
    names = [f"x{i}" for i in range(5000)]
    program = Program(expr_sum(Var(n) for n in names), names)
    values = [1.0 + i / 7 for i in range(5000)]
    dims = [(v, v + 0.5) for v in values]
    total = functools.reduce(pair_add, dims)
    for _ in range(expr_module._HOT_RUNS + 1):
        assert program.eval_point(values) == functools.reduce(lambda a, b: a + b, values)
        assert outcome(program.eval_interval, dims) == outcome(lambda: total)
    assert _compiled(program._kernels[0]) and _compiled(program._kernels[1])


# ---------------------------------------------------------------------------
# The kernel cache: one generated kernel per program shape
# ---------------------------------------------------------------------------

def test_programs_of_one_shape_share_compiled_kernels():
    a = Program(parse("2*x*x + 1"), X)
    b = Program(parse("3*x*x + 5"), X)
    assert a.code == b.code and a._kernels is b._kernels
    assert a.eval_interval([(1.0, 1.0)]) != b.eval_interval([(1.0, 1.0)])
    assert a.eval_point([1.0]) == 3.0 and b.eval_point([1.0]) == 8.0


def test_an_extra_variable_slot_makes_another_shape():
    # The reverse pass has one output per slot, so the same ops over a
    # longer ``var_order`` need a longer gradient.
    expr_module._shape_kernels.cache_clear()
    short = Program(parse("x*x"), X)
    wide = Program(parse("x*x"), ("x", "y"))
    assert short.code == wide.code
    _, (gx,) = short.gradient([(1.0, 2.0)])
    _, grads = wide.gradient([(1.0, 2.0), (-1.0, 1.0)])
    assert len(grads) == 2 and grads[0] == gx
    assert repr(grads[1]) == "(0.0, 0.0)"
    assert len(short.gradient([(1.0, 2.0)])[1]) == 1


def test_a_program_only_evaluated_builds_no_reverse_pass(monkeypatch):
    # The gradient kernel, with its reverse pass, is built on the shape's
    # first gradient, and only then: the point and interval kernels, cold
    # and compiled, build none.
    built = []
    reverse = expr_module._reverse_steps
    monkeypatch.setattr(
        expr_module, "_reverse_steps", lambda *args: built.append(args) or reverse(*args)
    )
    expr_module._shape_kernels.cache_clear()
    program = Program(parse("x*y - sqr(x)*y + 0.375*sin(y) + x^3"), ("x", "y"))
    dims = [(0.25, 0.75), (-1.0, 1.0)]
    for _ in range(expr_module._HOT_RUNS + 1):
        program.eval_point([0.5, -1.0])
        program.eval_interval(dims)
    assert _compiled(program._kernels[0]) and _compiled(program._kernels[1]) and built == []
    value, _ = program.gradient(dims)
    assert len(built) == 1 and value == program.eval_interval(dims)
    Program(parse("3*y*x - x^2*x"), ("x", "y")).gradient(dims)  # another shape
    assert len(built) == 2


def _count_compiles(monkeypatch) -> list[str]:
    """The sources that ``expr`` compiles from now on, in order."""
    compiled: list[str] = []
    compile_source = expr_module._compile
    monkeypatch.setattr(
        expr_module, "_compile", lambda source: compiled.append(source) or compile_source(source)
    )
    return compiled


def _heat(program: Program, values, dims) -> None:
    """Run each kernel of the program's shape ``_HOT_RUNS`` times through
    ``eval_point``, ``eval_interval`` and ``gradient``.  A run that fails
    counts too."""
    calls = ((program.eval_point, values), (program.eval_interval, dims), (program.gradient, dims))
    for _ in range(expr_module._HOT_RUNS):
        for call, arg in calls:
            try:
                call(arg)
            except (EvaluationError, IntervalError):
                pass


def _compiled(kernel) -> bool:
    return kernel.__code__.co_filename == "<certbound kernel>"


def _case1_s5():
    from certbound.bnb import BnBConfig
    from certbound.models import build_traffic
    from certbound.params import lipschitz_case1

    model = build_traffic(5)

    def job() -> tuple:
        """The certified numbers, without the timings."""
        res = lipschitz_case1(model, BnBConfig())
        return res.gamma, res.lower, res.gap, res.eps_optimal, res.stats.evals

    return job


def test_each_kernel_is_one_function(monkeypatch):
    # The case-1 objective of traffic s5 (461 ops) has the longest kernels of
    # the benchmark: 243 point and interval statements, and 243 + 213 in the
    # gradient kernel, whose reverse pass follows the interval kernel's.  One
    # run of the job leaves them cold, so it is repeated until each is
    # compiled; every repeat certifies the same constant.
    job = _case1_s5()
    expr_module._shape_kernels.cache_clear()
    compiled = _count_compiles(monkeypatch)
    first = job()
    for _ in range(expr_module._HOT_RUNS):
        if len(compiled) == 3:
            break
        assert job() == first
    assert sorted(source.count("\n") for source in compiled) == [245, 245, 458]
    assert job() == first and len(compiled) == 3


def test_a_cold_job_compiles_nothing(monkeypatch):
    # The benchmark's case-1 job runs each of its kernels three times.
    job = _case1_s5()
    expr_module._shape_kernels.cache_clear()
    compiled = _count_compiles(monkeypatch)
    job()
    assert compiled == []


def test_each_kernel_is_compiled_once_when_hot(monkeypatch):
    program = Program(parse("x*y - sqr(x)*y + 3*x + 0.375*sin(y)"), ("x", "y"))
    expr_module._shape_kernels.cache_clear()
    compiled = _count_compiles(monkeypatch)
    values, dims = [0.5, -1.0], [(0.0, 1.0), (-1.0, 2.0)]
    calls = ((program.eval_point, values), (program.eval_interval, dims), (program.gradient, dims))
    cold = [outcome(call, arg) for call, arg in calls]
    for _ in range(expr_module._HOT_RUNS - 2):
        for call, arg in calls:
            call(arg)
    assert compiled == []  # each kernel has run _HOT_RUNS - 1 times
    for n, (call, arg) in enumerate(calls):
        assert outcome(call, arg) == cold[n] and len(compiled) == n + 1
    point, interval, gradient = compiled
    assert point.startswith("def kernel(d, c):\n") and interval.startswith("def kernel(d, c, p):\n")
    # The gradient kernel runs the interval kernel's statements, then the
    # reverse pass's, and returns the value and the partials.
    body, returned = interval.rsplit("\n    return ", 1)
    assert gradient.startswith(body + "\n") and gradient.count("\n") > interval.count("\n")
    assert returned.count(",") == 0 and gradient.rsplit("\n    return ", 1)[1].count(",") == 3
    for _ in range(3 * expr_module._HOT_RUNS):
        for call, arg in calls:
            call(arg)
    assert len(compiled) == 3
    assert all(map(_compiled, program._kernels))
    assert [outcome(call, arg) for call, arg in calls] == cold


def _wild_box(rng: random.Random) -> Box:
    """A random box, now and then scaled far enough that products, powers
    and ``exp`` overflow."""
    box = random_box(rng)
    scale = rng.choice([1.0, 1.0, 1.0, 1e80, 1e160, 800.0])
    return make_box([(name, lo * scale, hi * scale) for name, (lo, hi) in zip(NAMES, box.pairs)])


# Trees, as written, for what a kernel's steps read in place or share: a
# constant on either side and on both sides of ``*`` (``pair_scale``), powers
# of one exponent, a result that is a load or a constant, shared subtrees,
# and ``sin`` beside ``cos`` (the reverse pass reads the forward value).
PLACED = (
    "2.5*x0", "x0*0.75", "2.0*3.0", "2.0*3.0*x1 - x0*0.5*x2", "-3.0*x0*x1*4.0",
    "x0^3 + x1^3 + (x0 + x1)^3", "x0^3 - x0^2 + x0^4*x0^3", "x0", "1.5", "-0.0",
    "sqr(x0 + x1) + sin(x0 + x1)*(x0 + x1) - exp(x0 + x1)/(x0 + x1)",
    "sin(x0)*cos(x0) + cos(x1) - sin(x1) + sin(x2)*x2 + cos(x3)^3",
)


@pytest.mark.parametrize("seed", range(4))
def test_tape_and_compiled_kernel_agree(seed, monkeypatch):
    # Random trees over every op, with huge constants and -0.0, then the
    # trees of ``PLACED``, on boxes with zero-containing divisors and
    # overflowing ranges: the point kernel, the interval kernel and the
    # gradient give the same endpoints by ``repr`` and the same errors by
    # class and message from the tape as once compiled.
    rng = random.Random(1000 + seed)
    compiled = _count_compiles(monkeypatch)
    hot = failures = 0
    trees = (random_tree(rng, rng.randint(1, 6), [], (1e308, -1e308, 1e300, -0.0)) for _ in range(60))
    for e in itertools.chain(trees, map(parse, PLACED)):
        program = Program(e, NAMES)
        boxes = [pairs(_wild_box(rng)) for _ in range(3)]
        points = [[rng.choice([0.0, -0.0, 1e200, 800.0, rng.uniform(-4, 4)]) for _ in NAMES]]
        points.append([iv[0] for iv in boxes[0]])

        def outcomes() -> list:
            return [outcome(program.eval_point, values) for values in points] + [
                outcome(call, dims) for dims in boxes for call in (program, program.gradient)
            ]

        expr_module._shape_kernels.cache_clear()
        del compiled[:]
        cold = outcomes()
        assert compiled == []
        defined = [dims for dims in boxes if not isinstance(outcome(program, dims)[0], type)]
        _heat(program, points[0], defined[0] if defined else boxes[0])
        assert outcomes() == cold, str(e)
        hot += len(compiled) == 3
        failures += sum(isinstance(x[0], type) for x in cold)
    assert hot == 60 + len(PLACED) and failures > 40


ONE = (1.0, 1.0)
ZERO = (0.0, 0.0)


@pytest.mark.parametrize(
    "text, reference",
    [
        # The reverse pass reads the result's own value, at its slot of the
        # gradient kernel's list.  The reference is the pair formulas of the
        # derivatives.
        ("exp(x)", lambda x, y: (pair_exp(x), ZERO)),
        ("sqrt(x)", lambda x, y: (pair_div(ONE, pair_mul((2.0, 2.0), pair_sqrt(x))), ZERO)),
        ("x/y", lambda x, y: (pair_div(ONE, y), _neg(pair_div(pair_div(x, y), y)))),
        # No step of the reverse pass: its outputs are read in place.
        ("x", lambda x, y: (ONE, ZERO)),
        ("2.5", lambda x, y: (ZERO, ZERO)),
    ],
)
def test_gradient_hand_off_matches_reference(text, reference):
    expr_module._shape_kernels.cache_clear()
    program = Program(parse(text), ("x", "y"))
    for dims in [[(0.5, 2.0), (1.0, 3.0)], [(1.0, 1.0), (-4.0, -0.25)], [(0.25, 9.0), (2.0, 2.0)]]:
        # the interval kernel returns the value alone, a pair
        alone = program._kernels[1](dims, program._constants, program._pairs)
        assert len(alone) == 2 and {type(x) for x in alone} == {float}
        expected = reference(*dims)
        value, grads = program.gradient(dims)
        assert repr(value) == repr(program.eval_interval(dims))
        assert list(map(repr, grads)) == list(map(repr, expected)), dims


def test_cold_and_warm_cache_print_the_same_reports(tmp_path, capsys, monkeypatch):
    # The Jacobian, QB and case-2 jobs run each kernel a few times, so they
    # compile nothing.  The hyperbola maximization runs its gradient kernel
    # and its interval kernel (on each box's centre) hundreds of times, and
    # compiles both during its cold run, the interval kernel first; it runs
    # its point kernel 48 times a run (a probe is skipped where it cannot
    # raise l), so it compiles that one during its warm run.
    from certbound.cli import run

    compiled = _count_compiles(monkeypatch)
    model = str(tmp_path / "traffic_s5.nds")
    assert run(["make-model", "traffic", "--sections", "5", "--output", model]) == 0
    hyperbola = [
        "maximize", "--expr", "x*y - x*x*y*y", "--bounds", "x=[0,2];y=[0,2]",
        "--segments", "1", "--eps-h", "5e-3",
    ]
    for job in (
        ["jacobian", "--model", model], ["qb", "--model", model],
        ["lipschitz", "--case", "2", "--model", model], hyperbola,
    ):
        expr_module._shape_kernels.cache_clear()
        printed, counts = [], []
        for _ in ("cold", "warm"):
            assert run([*job, "--format", "json", "--no-timing"]) == 0
            printed.append(capsys.readouterr().out)
            counts.append(len(compiled))
        assert printed[0] == printed[1] and printed[0].startswith("[")
        if job is hyperbola:
            assert counts == [2, 3]
            interval, gradient, point = compiled
            assert gradient.startswith("def kernel(d, c, p):") and ", (" in gradient  # cold
            assert interval.startswith("def kernel(d, c, p):") and ", (" not in interval  # cold
            assert point.startswith("def kernel(d, c):")  # warm
        else:
            assert counts[0] == 0
        compiled.clear()


def _pair_calls(program: Program, reverse: bool) -> set[str]:
    """The ``pair_*`` functions that the compiled interval kernel (or the
    gradient kernel, which adds the reverse pass) calls, once it has run
    often enough."""
    dims = [(0.5, 1.5)] * len(program.var_order)
    for _ in range(expr_module._HOT_RUNS):
        program.gradient(dims) if reverse else program.eval_interval(dims)
    kernel = program._kernels[1 + reverse]
    assert _compiled(kernel)
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
    # pair to one name, e.g. ``v7 = pair_mul(v3, v5)``.  The gradient runs
    # often enough to compile each program's interval kernel, and its
    # reverse pass where the interval kernel succeeds on the box.
    expr_module._shape_kernels.cache_clear()
    compiled = _count_compiles(monkeypatch)
    rng = random.Random(5)
    dims = [(0.5, 1.5)] * len(NAMES)
    for _ in range(60):
        program = Program(random_tree(rng, rng.randint(1, 6), []), NAMES)
        for _ in range(expr_module._HOT_RUNS):
            try:
                program.gradient(dims)
            except IntervalError:
                pass
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


def test_refined_eval_builds_no_box_and_no_interval(monkeypatch):
    # The slabs are pairs in one list, and the hull is a pair.
    program = Program(parse("x*y - sqr(x)*y"), ("x", "y"))
    box = make_box([("x", 0.0, 2.0), ("y", -1.0, 1.0)])
    expected = repr(ref_refined(program.expr, box, 10))
    counts = _count_inits(monkeypatch, Box, Interval)
    refined = refined_eval(program, box, 10, 0)
    assert counts == {"Box": 0, "Interval": 0}
    assert repr(refined) == expected


def _count_faces(monkeypatch) -> list:
    """The pairs of each face box that ``_first_order`` builds from now on."""
    faces: list = []
    build = bnb_module.unchecked_box
    monkeypatch.setattr(
        bnb_module, "unchecked_box", lambda pairs, labels: faces.append(pairs) or build(pairs, labels)
    )
    return faces


def test_first_order_step_builds_only_the_face(monkeypatch):
    # The gradient, the centre and the centred form are pairs.  Where no
    # derivative has a fixed sign, the face is the box itself; where one
    # has, the face is one new Box.
    program = Program(parse("x*y - sqr(x)*y"), ("x", "y"))
    box = make_box([("x", 0.25, 0.75), ("y", -1.0, 1.0)])
    counts = _count_inits(monkeypatch, Box, Interval)
    faces = _count_faces(monkeypatch)
    face, lo, hi, _, whole = _first_order(program, program.gradient, box, 0.0)
    assert face is box and lo <= hi and whole == program(box.pairs)
    assert (counts, faces) == ({"Box": 0, "Interval": 0}, [])
    # Of x*y - sqr(x), d/dy = x > 0 where x is in [0.25, 0.75]: y
    # collapses to its upper end.
    program = Program(parse("x*y - sqr(x)"), ("x", "y"))
    box = make_box([("x", 0.25, 0.75), ("y", 0.5, 1.0)])
    counts = _count_inits(monkeypatch, Box, Interval)
    face, lo, hi, _, whole = _first_order(program, program.gradient, box, 0.0)
    assert face.pairs == ((0.25, 0.75), (1.0, 1.0)) and face.labels is box.labels
    assert whole is None  # that enclosure was of the box, not of its face
    assert (counts, faces) == ({"Box": 0, "Interval": 0}, [face.pairs])
    # Where every derivative has a fixed sign, the face is a point, the
    # centre, whose enclosure is handed on; unless a dimension of zero width
    # has ends of two signs of zero, which the centre does not keep.
    program = Program(parse("x*y + y"), ("x", "y"))
    for y, handed in (((0.5, 1.0), True), ((-0.0, 0.0), False), ((0.0, 0.0), True)):
        box = make_box([("x", 0.25, 0.75), ("y", *y)])
        face, lo, hi, split, whole = _first_order(program, program.gradient, box, 0.0)
        assert face.pairs == ((0.75, 0.75), (y[1], y[1]) if y[0] < y[1] else y) and split is None
        assert repr(whole) == (repr(program(face.pairs)) if handed else "None")


@pytest.mark.parametrize("search", [maximize, minimize])
def test_a_search_builds_no_interval(monkeypatch, search):
    program = Program(parse("x*y - x*x*y*y + 0.375*sin(y)"), ("x", "y"))
    box = make_box([("x", 0.0, 2.0), ("y", -1.0, 1.0)])
    counts = _count_inits(monkeypatch, Interval)
    res = search(program.eval_point, program, box, BnBConfig(eps_h=1e-6, segments=3))
    assert res.stats.splits > 0 and counts == {"Interval": 0}


# ---------------------------------------------------------------------------
# The forward pass's value, returned by the gradient and handed on by the search
# ---------------------------------------------------------------------------


HYPERBOLA = "1.0*x*y - 1.0*x*x*y*y"


def test_a_kept_value_is_the_value_of_a_fresh_run():
    # The enclosure that ``gradient`` returns, which the search keeps for
    # the refined evaluation of an unsliced box, is that of a fresh run.
    program = Program(parse("x*y - sqr(x)*y + 0.375*sin(y)"), ("x", "y"))
    dims = ((0.25, 0.75), (-1.0, 1.0))
    value, _ = program.gradient(dims)
    fresh = Program(program.expr, ("x", "y")).eval_interval(list(dims))
    assert repr(value) == repr(fresh) == repr(program.eval_interval(dims)) == repr(ref_interval(
        program.expr, make_box([("x", 0.25, 0.75), ("y", -1.0, 1.0)])
    ))


def _inner_box(rng: random.Random, box: Box) -> Box:
    """A random box inside ``box``, now and then with a degenerate
    dimension or a signed zero at an end."""
    bounds = []
    for name, (lo, hi) in zip(box.labels, box.pairs):
        a, b = sorted(rng.uniform(lo, hi) for _ in range(2))
        if rng.random() < 0.15:
            b = a
        elif lo <= 0.0 <= hi and rng.random() < 0.3:  # the end nearer 0 becomes a zero
            zero = rng.choice([0.0, -0.0])
            a, b = (zero, b) if b >= 0.0 else (a, zero)
        bounds.append((name, a, b))
    return make_box(bounds)


@pytest.mark.parametrize("seed", range(4))
def test_the_gradient_returns_the_enclosure_of_eval_interval(seed):
    # On random trees over every op (abs, max, sin and cos among them) and
    # on the corpus expressions, on boxes with signed zeros and degenerate
    # dimensions, from the tape and once compiled: the enclosure that
    # ``gradient`` returns has the ``repr`` of ``eval_interval``'s and of
    # a fresh program's, and that of ``_Negated`` is its negation.
    rng = random.Random(1300 + seed)
    cases = [(random_tree(rng, rng.randint(1, 5), [], (-0.0,)), make_box(
        [(name, -4.0, 4.0) for name in NAMES]
    )) for _ in range(40)]
    cases += corpus_expressions()
    compared = {False: 0, True: 0}
    for e, domain in cases:
        expr_module._shape_kernels.cache_clear()
        program = Program(e, domain.labels)
        boxes = [pairs(_inner_box(rng, domain)) for _ in range(4)]
        for hot in (False, True):
            for dims in boxes:
                try:
                    value, _ = program.gradient(dims)
                except IntervalError:
                    continue
                fresh = Program(e, domain.labels).eval_interval(list(dims))
                assert repr(value) == repr(program.eval_interval(dims)) == repr(fresh), str(e)
                negated, _ = _Negated(program).gradient(dims)
                assert repr(negated) == repr((-value[1], -value[0]))
                compared[hot] += all(map(_compiled, program._kernels[1:])) == hot
            _heat(program, [lo for lo, _ in boxes[0]], boxes[0])
    assert min(compared.values()) > 80, compared


@pytest.mark.parametrize("method", ["eval_interval", "gradient", "eval_point"])
def test_a_wrong_number_of_arguments_is_refused_on_both_tiers(method):
    # The compiled kernel reads its arguments by position, so it cannot
    # tell the pairs of a wider box from the right ones: the count is
    # checked before either tier runs, with one error for both.
    expr_module._shape_kernels.cache_clear()
    program = Program(parse("x3*x5"), ("x3", "x5"))
    call = getattr(program, method)
    point = method == "eval_point"
    right = [1.5, -6.5] if point else [(1.0, 2.0), (-7.0, -6.0)]
    wrong = {n: (right * 2)[:n] for n in (1, 3, 4)}

    def refusals() -> list:
        return [outcome(call, args) for args in wrong.values()]

    expected = [
        (UnboundVariable, f"the program takes 2 values, one per variable, got {n}") for n in wrong
    ]
    assert refusals() == expected  # before any run
    cold = outcome(call, right)
    _heat(program, [1.5, -6.5], [(1.0, 2.0), (-7.0, -6.0)])
    assert all(map(_compiled, program._kernels))
    assert refusals() == expected and outcome(call, right) == cold


@contextlib.contextmanager
def _forward_runs(program: Program):
    """``[runs, raised]``: the runs of the forward pass while the block
    runs, which the interval kernel and the gradient kernel both make, and
    those of them that raised.  The kernels are compiled first, so that the
    kernel list keeps the counting wrappers."""
    kernels = program._kernels
    saved = kernels[1:]
    runs = [0, 0]

    def counted(kernel):
        def run(*args):
            runs[0] += 1
            try:
                return kernel(*args)
            except Exception:
                runs[1] += 1
                raise

        return run

    kernels[1:] = map(counted, saved)
    try:
        yield runs
    finally:
        kernels[1:] = saved


def test_a_search_runs_the_kernel_once_for_an_unsliced_box():
    # Of the hyperbola's 375 refined evaluations, 367 are of boxes that
    # collapse nothing and are not sliced: the enclosure that the gradient
    # kernel returned on the box is their value.  Its 30 faces that are
    # points would hand on their centre's enclosure, but the first-order
    # bound of each is below l already, so none gets a refined evaluation.
    program = Program(parse(HYPERBOLA), ("x", "y"))
    _heat(program, [0.5, 0.5], [(0.0, 1.0), (0.0, 1.0)])
    box = make_box([("x", 0.0, 2.0), ("y", 0.0, 2.0)])
    with _forward_runs(program) as runs:
        res = maximize(program.eval_point, program, box, BnBConfig(eps_h=5e-3, segments=1))
    assert (res.lower, res.stats.evals) == (0.25, 375)
    assert runs[0] == 906  # 1,273 when each refined evaluation runs the kernel


def test_a_failing_forward_pass_runs_again_for_its_refined_evaluation():
    # sqrt(x)/y has no enclosure on a box that touches y = 0, and its
    # gradient none where x = 0.  A box whose gradient fails hands no value
    # on, so its refined evaluation runs the interval kernel: the one case
    # where a search runs the forward pass twice on one box.
    program = Program(parse("sqrt(x)/y + x"), ("x", "y"))
    _heat(program, [0.5, 0.5], [(0.5, 1.0), (0.5, 1.0)])
    box = make_box([("x", 0.0, 1.0), ("y", 0.0, 1.0)])
    with _forward_runs(program) as runs, pytest.raises(EvaluationError) as caught:
        maximize(program.eval_point, program, box, BnBConfig(eps_om=1e-3, segments=1))
    assert str(caught.value) == (
        "unbounded enclosure: the objective's interval enclosure fails on a box of width"
        " 0.0009765625: divisor [0.0, 0.0009765625] contains zero"
    )
    # 41 boxes, each failing its gradient: two runs each.  The refined
    # evaluation fails again on the 31 whose forward pass fails; on the
    # other 10 only the reverse pass did.
    assert runs == [82, 72]


def test_an_overflow_of_the_forward_pass_is_an_interval_error():
    # ``gradient`` and ``eval_interval`` call their kernels themselves: the
    # kernel's OverflowError becomes an IntervalError, and each call runs
    # the forward pass and raises afresh.
    program = Program(parse("x^3"), ("x",))
    _heat(program, [0.5], [(0.0, 1.0)])
    dims = ((1e200, 1e200),)
    with _forward_runs(program) as runs:
        with pytest.raises(IntervalError) as first:
            program.gradient(dims)
        assert str(first.value) == "interval evaluation overflow: (34, 'Numerical result out of range')"
        assert type(first.value.__cause__) is OverflowError and runs == [1, 1]
        with pytest.raises(IntervalError) as again:
            program.eval_interval(dims)
        assert runs == [2, 2] and again.value is not first.value
        assert str(again.value) == str(first.value)
        assert type(again.value.__cause__) is OverflowError
