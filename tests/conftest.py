"""Shared fixtures: corpus models, corpus expressions, reference oracles."""

from __future__ import annotations

import functools
import importlib.util
import math
import pathlib
import random
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from decimal import Decimal, getcontext

import pytest

from certbound import ModelDef
from certbound import expr as expr_module
from certbound.baselines import halton_points_in_box
from certbound.bnb import Cover
from certbound.eigen import jacobi_eigenvalues
from certbound.errors import NonDifferentiable, UnboundVariable
from certbound.expr import (
    ABS,
    ADD,
    COS,
    DIV,
    EXP,
    MAX,
    MUL,
    NEG,
    ONE,
    SIN,
    SQR,
    SQRT,
    SUB,
    ZERO,
    Binary,
    Const,
    Expr,
    PowInt,
    Program,
    Unary,
    Var,
    free_vars,
    parse,
    provably_nonnegative,
    simplify,
    to_text,
)
from certbound.intervals import Box, refined_eval
from certbound.models import build_generator, build_moving_object, build_traffic
from certbound.report import ConstantRow, RunReport

# ---------------------------------------------------------------------------
# Corpus models
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def traffic_s1() -> ModelDef:
    return build_traffic(1)


@pytest.fixture(scope="session")
def traffic_s5() -> ModelDef:
    return build_traffic(5)


@pytest.fixture(scope="session")
def moving_object() -> ModelDef:
    return build_moving_object()


@pytest.fixture(scope="session")
def moving_object_unit() -> ModelDef:
    return build_moving_object(1.0)


# The generator's parameters: ``build_generator(**GENERATOR_PARAMS)``.
GENERATOR_PARAMS = dict(
    alpha1=0.3,
    alpha3=1.2,
    alpha4=0.7,
    alpha6=0.15,
    alpha8=2.1,
    alpha10=1.4,
    state_bounds=((-0.6, 2.2), (-1.0, 1.0), (0.2, 1.1), (-0.4, 0.9)),
    input_bounds=((0.0, 1.0), (0.0, 1.0), (-1.5, 2.0), (-1.0, 1.6)),
)


@pytest.fixture(scope="session")
def generator() -> ModelDef:
    return build_generator(**GENERATOR_PARAMS)


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's ``perfbench/workloads.py``, loaded by path."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# Corpus expressions (each with a matching evaluation box)
# ---------------------------------------------------------------------------


def corpus_expressions() -> list[tuple[Expr, Box]]:
    """Expressions exercised by the enclosure and gradient suites, paired
    with a box over their variables."""
    delta = 31.3 / (500.0 * 0.053)
    rho = (0.0, 0.0265)
    sym = (-2.0, 2.0)
    pos = (0.1, 3.0)
    cases: list[tuple[str, dict, list[tuple[str, tuple[float, float]]]]] = [
        ("d*x1^2", {"d": delta}, [("x1", rho)]),
        ("d*(x1^2 - x2^2)", {"d": delta}, [("x1", rho), ("x2", rho)]),
        (
            "d*(x1^2 - x2^2 + 0.5*x3^2)",
            {"d": delta},
            [("x1", rho), ("x2", rho), ("x3", rho)],
        ),
        ("-x1*(x1^2 + x2^2)", {}, [("x1", sym), ("x2", sym)]),
        ("x1*(1 - x1)", {}, [("x1", (0.0, 1.0))]),
        ("sin(x1)*cos(x2)", {}, [("x1", (-1.2, 1.2)), ("x2", (-0.5, 2.9))]),
        ("exp(x1/4)*sqrt(x2)", {}, [("x1", sym), ("x2", pos)]),
        ("abs(x1 - x2)", {}, [("x1", sym), ("x2", sym)]),
        ("(x1 + x2)^3 - 2*x1*x2", {}, [("x1", sym), ("x2", sym)]),
        ("cos(2*x1)*x2 + sin(2*x1)", {}, [("x1", (-0.7, 0.7)), ("x2", sym)]),
        ("x1^4 - 3*x1^2 + x1/2", {}, [("x1", sym)]),
        ("sqr(x1)*sqr(x2) + x1*x2", {}, [("x1", sym), ("x2", sym)]),
    ]
    out = []
    for text, constants, bounds in cases:
        e = simplify(parse(text, constants))
        out.append((e, Box([pair for _, pair in bounds], [n for n, _ in bounds])))
    return out


def model_component_expressions(*models: ModelDef) -> list[tuple[Expr, Box]]:
    out = []
    for model in models:
        domain = model.omega()
        for component in model.f:
            out.append((component, domain))
    return out


# ---------------------------------------------------------------------------
# Evaluation and report helpers
# ---------------------------------------------------------------------------


def expr_sum(terms) -> Expr | None:
    """The left-associative sum ``((t1 + t2) + t3) + ...`` of ``terms`` as
    written, or ``None`` when there are none."""
    terms = list(terms)
    return functools.reduce(lambda a, b: Binary(ADD, a, b), terms) if terms else None


def make_box(bounds) -> Box:
    """The box of ``(name, lo, hi)`` entries, in their order."""
    return Box([(lo, hi) for _, lo, hi in bounds], [name for name, _, _ in bounds])


def eval_real(e: Expr, point: Mapping[str, float]) -> float:
    """Evaluate at a point given as a variable->value mapping."""
    order = sorted(free_vars(e))
    missing = [v for v in order if v not in point]
    if missing:
        raise UnboundVariable(f"missing values for {missing}")
    return Program(e, order).eval_point([float(point[v]) for v in order])


def eval_interval(e: Expr, box: Box, segments: int = 1) -> tuple[float, float]:
    """Interval extension of ``e`` over ``box`` as a ``(lo, hi)`` pair, its
    variables named by the box's labels; with ``segments > 1`` the widest
    dimension is sliced and the slab enclosures hulled."""
    return refined_eval(Program(e, box.labels), box, segments, box.widest()[0])


def pairs(box: Box) -> list[tuple[float, float]]:
    """The ``(lo, hi)`` pairs of ``box``'s dimensions, as a list: the
    argument of an interval function, which no program serves a kept
    value for."""
    return list(box.pairs)


def encloses(outer: tuple[float, float], inner: tuple[float, float]) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def box_contains(box: Box, point) -> bool:
    return len(point) == len(box) and all(
        lo <= x <= hi for (lo, hi), x in zip(box.pairs, point)
    )


def report_from_dict(data: dict) -> RunReport:
    """The ``RunReport`` whose ``to_dict()`` is ``data``."""
    return RunReport(
        command=data["command"],
        config=dict(data["config"]),
        model_fingerprint=data["model_fingerprint"],
        results=[ConstantRow(**row) for row in data.get("results", [])],
        label=data.get("label", ""),
    )


# ---------------------------------------------------------------------------
# Reference oracles
# ---------------------------------------------------------------------------


def dec_pi(digits: int = 60) -> Decimal:
    """pi to about ``digits`` digits, by Machin's formula
    ``pi = 16*atan(1/5) - 4*atan(1/239)`` in Decimal arithmetic."""
    getcontext().prec = digits + 10

    def atan_inv(n: int) -> Decimal:
        x = Decimal(1) / n
        term = total = x
        k = 1
        limit = Decimal(10) ** -(digits + 5)
        while abs(term) > limit:
            term = -term * x * x
            total += term / (2 * k + 1)
            k += 1
        return total

    return 16 * atan_inv(5) - 4 * atan_inv(239)


def dec_sin(x: float | Decimal, digits: int = 40) -> Decimal:
    """High-precision sine of a float (or a Decimal) via the Maclaurin
    series in Decimal arithmetic (sufficient for |x| <= 30)."""
    getcontext().prec = digits + 20
    xd = Decimal(x)
    term = xd
    total = xd
    k = 1
    limit = Decimal(10) ** -(digits + 5)
    while abs(term) > limit:
        term = -term * xd * xd / ((2 * k) * (2 * k + 1))
        total += term
        k += 1
    return total


def dec_cos(x: float | Decimal, digits: int = 40) -> Decimal:
    getcontext().prec = digits + 20
    xd = Decimal(x)
    term = Decimal(1)
    total = Decimal(1)
    k = 1
    limit = Decimal(10) ** -(digits + 5)
    while abs(term) > limit:
        term = -term * xd * xd / ((2 * k - 1) * (2 * k))
        total += term
        k += 1
    return total


def random_points(box: Box, count: int, seed: int) -> list[tuple[float, ...]]:
    rng = random.Random(seed)
    return [
        tuple(rng.uniform(lo, hi) for lo, hi in box.pairs) for _ in range(count)
    ]


def random_polynomial(rng: random.Random, dim: int, degree: int = 4) -> Expr:
    """Random multivariate polynomial with bounded total degree."""
    names = [f"x{i + 1}" for i in range(dim)]
    total: Expr = Const(rng.uniform(-1.0, 1.0))
    for _ in range(rng.randint(2, 7)):
        coeff = Const(rng.uniform(-3.0, 3.0))
        monomial: Expr = coeff
        remaining = degree
        for name in names:
            if remaining == 0:
                break
            power = rng.randint(0, remaining)
            remaining -= power
            if power == 0:
                continue
            factor = Var(name) if power == 1 else PowInt(Var(name), power)
            monomial = Binary(MUL, monomial, factor)
        total = Binary(ADD, total, monomial)
    return simplify(total)


def dense_max(
    h, box: Box, extra_points: list[tuple[float, ...]] | None = None
) -> float:
    """Sampled maximum over a grid plus quasi-random points plus any extras;
    a lower bound on the true maximum by construction."""
    dim = len(box)
    per_dim = {1: 400, 2: 60, 3: 18, 4: 10}.get(dim, 6)
    best = -math.inf
    grid_axes = [
        [lo + (hi - lo) * k / (per_dim - 1) for k in range(per_dim)]
        if hi > lo
        else [lo]
        for lo, hi in box.pairs
    ]

    def rec(prefix: list[float], axis: int) -> None:
        nonlocal best
        if axis == dim:
            best = max(best, h(tuple(prefix)))
            return
        for value in grid_axes[axis]:
            prefix.append(value)
            rec(prefix, axis + 1)
            prefix.pop()

    rec([], 0)
    for point in halton_points_in_box(box, 2000):
        best = max(best, h(point))
    for point in extra_points or ():
        if point and box_contains(box, point):
            best = max(best, h(point))
    return best


def reference_text(e: Expr) -> str:
    """``expr.to_text`` as an earlier printer wrote it: each node's text is
    a tuple of pieces built from its operands' by one ``walk``, and the
    nested tuples are flattened once at the end."""
    prec = expr_module._prec
    add, mul, neg, atom = (
        expr_module._PREC_ADD, expr_module._PREC_MUL, expr_module._PREC_NEG, expr_module._PREC_ATOM
    )

    def wrap(node, text, parent_prec):
        return ("(", text, ")") if prec(node) < parent_prec else text

    def leave(node, texts):
        if isinstance(node, Const):
            return repr(node.value)
        if isinstance(node, Var):
            return node.name
        if isinstance(node, PowInt):
            return (wrap(node.base, texts[0], atom), f"^{node.exponent}")
        if isinstance(node, Unary):
            if node.op == NEG:
                return ("-", wrap(node.arg, texts[0], neg + 1))
            return (node.op, "(", texts[0], ")")
        left, right = texts
        if node.op == MAX:
            return ("max(", left, ", ", right, ")")
        if node.op in (ADD, SUB):
            return (wrap(node.left, left, add), f" {node.op} ", wrap(node.right, right, add + 1))
        return (wrap(node.left, left, mul), node.op, wrap(node.right, right, mul + 1))

    pieces: list[str] = []
    todo = [expr_module.walk(e, leave)]
    while todo:
        text = todo.pop()
        if type(text) is str:
            pieces.append(text)
        else:
            todo += reversed(text)
    return "".join(pieces)


def chain_rule_derivative(e: Expr, v: str) -> Expr:
    """The derivative of ``e`` by ``v`` as the chain rule writes it,
    unsimplified: ``ZERO`` itself exactly when ``v`` does not occur in
    ``e``, and the same ``NonDifferentiable`` errors, in the same order, as
    ``expr.differentiate``.  ``simplify`` of it is the tree that
    ``differentiate`` builds for a simplified ``e``."""
    if isinstance(e, Var):
        return ONE if e.name == v else ZERO
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, PowInt):
        db = chain_rule_derivative(e.base, v)
        if db is ZERO or e.exponent == 1:
            return db
        inner = e.base if e.exponent == 2 else PowInt(e.base, e.exponent - 1)
        return Binary(MUL, Binary(MUL, Const(float(e.exponent)), inner), db)
    if isinstance(e, Unary):
        da = chain_rule_derivative(e.arg, v)
        if da is ZERO:
            return ZERO
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
        assert e.op == ABS
        if provably_nonnegative(e.arg):
            return da
        raise NonDifferentiable(f"cannot differentiate abs({to_text(e.arg)}): sign not certified")
    if e.op == MAX:
        if v in free_vars(e):
            raise NonDifferentiable(f"cannot differentiate {to_text(e)}: not smooth")
        return ZERO
    dl = chain_rule_derivative(e.left, v)
    dr = chain_rule_derivative(e.right, v)
    if dl is ZERO and dr is ZERO:
        return ZERO
    if e.op in (ADD, SUB):
        return Binary(e.op, dl, dr)
    if e.op == MUL:
        return Binary(ADD, Binary(MUL, dl, e.right), Binary(MUL, e.left, dr))
    return Binary(
        DIV,
        Binary(SUB, Binary(MUL, dl, e.right), Binary(MUL, e.left, dr)),
        Unary(SQR, e.right),
    )


def gershgorin_upper(a) -> float:
    """Upper bound for the largest eigenvalue of a symmetric matrix: the
    max over rows of diagonal plus absolute off-diagonal row sum."""
    n = len(a)
    return max(
        a[i][i] + sum(abs(a[i][j]) for j in range(n) if j != i) for i in range(n)
    )


def row_gap_upper(a, zeta: float) -> float:
    """Upper bound for the largest eigenvalue of a symmetric matrix of
    dimension >= 2, using the dimension-dependent factor ``zeta`` times the
    largest absolute off-diagonal row entry."""
    n = len(a)
    return max(
        a[i][i] + zeta * max(abs(a[i][j]) for j in range(n) if j != i)
        for i in range(n)
    )


def jacobian_entry(jb, i: int, j: int) -> tuple[float, float]:
    """The enclosure ``(lo, hi)`` of ``df_i/dx_j`` (1-based) in the sparse
    rows of ``params.jacobian_bounds``; ``(0.0, 0.0)`` where the partial is
    identically zero and so has no entry."""
    return dict(jb.entries[i - 1]).get(j - 1, (0.0, 0.0))


def osl_extremal_eigen_sampled(model: ModelDef, count: int = 1000) -> tuple[float, float]:
    """Sampled (non-certified) extremal eigenvalues of the symmetrized
    G-weighted Jacobian over the admissible box: a lower bound on the
    largest eigenvalue and an upper bound on the smallest."""
    domain = model.omega()
    psi = model.symmetrized_jacobian
    rows = [[(j, Program(e, domain.labels)) for j, e in row] for row in psi]
    hi = -math.inf
    lo = math.inf
    for point in halton_points_in_box(domain, count):
        matrix = [[0.0] * model.n for _ in rows]
        for values, row in zip(matrix, rows):
            for j, program in row:
                values[j] = program.eval_point(point)
        eigs = jacobi_eigenvalues(matrix)
        lo = min(lo, eigs[0])
        hi = max(hi, eigs[-1])
    return hi, lo


# ---------------------------------------------------------------------------
# The sandwich of a BnB run as it tightens
# ---------------------------------------------------------------------------


@dataclass
class SandwichTrace:
    """The bounds of ``bnb.maximize`` runs in the order they are reached.
    ``lows`` holds every ``l`` the run prunes the cover with: at the root,
    after each bisection step and after each phase-3 box.  ``highs`` holds
    every ``u``, the upper bound of the box ``Cover.peek_max_hi`` returns:
    at the root and after each step."""

    lows: list[float] = field(default_factory=list)
    highs: list[float] = field(default_factory=list)

    def assert_tightens(self) -> None:
        """l never decreased and u never increased; then forget the run."""
        assert self.lows and self.highs, "no bounds observed"
        for l0, l1 in zip(self.lows, self.lows[1:]):
            assert l1 >= l0 - 1e-12, "lower bound decreased"
        for u0, u1 in zip(self.highs, self.highs[1:]):
            assert u1 <= u0 + 1e-12, "upper bound increased"
        self.lows.clear()
        self.highs.clear()


@pytest.fixture
def sandwich_trace(monkeypatch) -> SandwichTrace:
    """Observe ``Cover.prune`` and ``Cover.peek_max_hi`` for the test."""
    trace = SandwichTrace()
    prune, peek_max_hi = Cover.prune, Cover.peek_max_hi

    def observed_prune(self, l):
        trace.lows.append(l)
        prune(self, l)

    def observed_peek_max_hi(self):
        sub = peek_max_hi(self)
        if sub is not None:
            trace.highs.append(sub.hi_bound)
        return sub

    monkeypatch.setattr(Cover, "prune", observed_prune)
    monkeypatch.setattr(Cover, "peek_max_hi", observed_peek_max_hi)
    return trace
