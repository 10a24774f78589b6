"""Nonlinear system definitions and their on-disk text format.

A model is the nonlinear part of a dynamic system: state and input variables
with ``(lo, hi)`` bounds, a vector of expressions, and an optional mixing
matrix G applied to that vector.  The admissible region is the product box
of all variable bounds (states first, then inputs).

Text format (UTF-8, with or without a BOM; ``#`` comments)::

    [constants]
    delta = 1.18113
    [states]
    x1 = [0, 0.0265]
    [inputs]
    u1 = [-1, 1]
    [f]
    f1 = delta*(x1^2)
    [G]
    1 0
    0 1

Each constant is assigned once, and is substituted while expressions are
parsed.  The i-th line of ``[f]`` is named ``f<i>``.  ``[inputs]``,
``[G]`` and ``[constants]`` may be omitted; an omitted G means the identity
(which requires as many components as states wherever G is actually used).
"""

from __future__ import annotations

import functools
import math

from .errors import DimensionMismatch, MissingBounds, ParseError
from .expr import (
    SQR,
    ZERO,
    Const,
    Expr,
    free_vars,
    is_zero,
    parse_component,
    partials,
    simplified_add,
    simplified_mul,
    simplified_sum,
    simplified_unary,
    to_text,
)
from .intervals import Box, Frozen

Matrix = tuple[tuple[float, ...], ...]
Partials = tuple[tuple[int, Expr], ...]  # a sparse row: (column, entry), no is_zero entry


class ModelDef(Frozen):
    """A nonlinear system: bounded variables plus component expressions.
    Each bound is a ``(lo, hi)`` pair, checked once, by the ``Box`` of all
    of them that ``omega()`` returns (``IntervalError`` for a non-finite or
    inverted one); ``state_bounds`` and ``input_bounds`` are its pairs.  The
    components are expected simplified, as ``parse_model_text`` and the
    built-in models give them: their partial derivatives are built from
    their subtrees as they stand (see ``expr.partials``).  Not slotted:
    ``component_vars`` (each component's variable names: given, as the
    parser gives them, or else found by ``free_vars``), the box and, built
    on first use, ``state_jacobian``, ``weighted_jacobian``,
    ``symmetrized_jacobian`` and ``declared`` live in the ``__dict__``."""

    def __init__(
        self, state_names: tuple[str, ...], state_bounds: tuple[tuple[float, float], ...],
        f: tuple[Expr, ...], input_names: tuple[str, ...] = (),
        input_bounds: tuple[tuple[float, float], ...] = (), G: Matrix | None = None,
        component_vars: tuple[frozenset[str], ...] | None = None,
    ) -> None:
        if not state_names:
            raise MissingBounds("model needs at least one state variable")
        if len(state_names) != len(state_bounds):
            raise MissingBounds("every state variable needs a bound")
        if len(input_names) != len(input_bounds):
            raise MissingBounds("every input variable needs a bound")
        declared = set(state_names) | set(input_names)
        if len(declared) != len(state_names) + len(input_names):
            raise DimensionMismatch("duplicate variable names")
        if not f:
            raise DimensionMismatch("model needs at least one component")
        if component_vars is None:
            component_vars = tuple(map(free_vars, f))
        for i, names in enumerate(component_vars):
            extra = names - declared
            if extra:
                raise DimensionMismatch(
                    f"component {i + 1} uses undeclared variables {sorted(extra)}"
                )
        if G is not None:
            n, g = len(state_names), len(f)
            if len(G) != n or any(len(row) != g for row in G):
                raise DimensionMismatch(
                    f"G must be {n}x{g}, got {len(G)}x{len(G[0]) if G else 0}"
                )
        omega = Box((*state_bounds, *input_bounds), state_names + input_names)
        vars(self).update(
            state_names=state_names, state_bounds=omega.pairs[:len(state_names)], f=f,
            input_names=input_names, input_bounds=omega.pairs[len(state_names):],
            _omega=omega, G=G, component_vars=component_vars,
        )

    def _fields(self) -> tuple:
        return (self.state_names, self.state_bounds, self.f,
                self.input_names, self.input_bounds, self.G)

    @functools.cached_property
    def state_jacobian(self) -> tuple[Partials, ...]:
        """Sparse state Jacobian, built on first use: for each component,
        its partial derivatives ``(j, df_i/dx_j)`` that are not ``is_zero``,
        in state order.  A component is differentiated only by the states
        that occur in it, by all of them in one walk; any other partial is
        exactly 0, and a component without a state is not walked."""
        column = {name: j for j, name in enumerate(self.state_names)}
        rows = []
        for fi, names in zip(self.f, self.component_vars):
            states = sorted(names & column.keys(), key=column.__getitem__)
            ds = partials(fi, states).items() if states else ()
            rows.append(tuple((column[name], d) for name, d in ds if not is_zero(d)))
        return tuple(rows)

    @functools.cached_property
    def weighted_jacobian(self) -> tuple[Partials, ...]:
        """The G-weighted state Jacobian ``xi = G * df/dx``, sparse like
        ``state_jacobian`` and built on first use: row ``i`` holds ``(j,
        xi_ij)``, where ``xi_ij`` sums ``G_ik * df_k/dx_j`` over the
        components ``k`` in order, skipping ``G_ik == 0`` and the zero
        partials, by ``simplify``'s rules.  An omitted G is the identity
        (which needs g == n): ``xi`` is then ``state_jacobian`` itself."""
        if self.G is None:
            if self.g != self.n:
                raise DimensionMismatch(
                    f"implicit identity G needs g == n, got g={self.g}, n={self.n}"
                )
            return self.state_jacobian
        rows = []
        for weights in self.G:
            columns: dict[int, list[Expr]] = {}
            for weight, partials in zip(weights, self.state_jacobian):
                if weight != 0.0:
                    for j, d in partials:
                        columns.setdefault(j, []).append(simplified_mul(Const(weight), d))
            entries = ((j, simplified_sum(columns[j])) for j in sorted(columns))
            rows.append(tuple((j, e) for j, e in entries if not is_zero(e)))
        return tuple(rows)

    @functools.cached_property
    def symmetrized_jacobian(self) -> tuple[Partials, ...]:
        """``psi = (xi + xi^T) / 2`` of ``xi = weighted_jacobian``, sparse
        like it: row ``i`` holds ``(j, 0.5*(xi_ij + xi_ji))`` for ``j = i``,
        and for each other ``j`` of ``xi_ij`` or ``xi_ji`` where it is not zero."""
        xi = self.weighted_jacobian
        transposed: list[dict[int, Expr]] = [{} for _ in xi]
        for i, row in enumerate(xi):
            for j, e in row:
                transposed[j][i] = e
        half = Const(0.5)
        rows = []
        for i, row in enumerate(xi):
            own, other = dict(row), transposed[i]
            entries = (
                (j, simplified_mul(half, simplified_add(own.get(j, ZERO), other.get(j, ZERO))))
                for j in sorted(own.keys() | other.keys() | {i})
            )
            rows.append(tuple((j, e) for j, e in entries if j == i or not is_zero(e)))
        return tuple(rows)

    @property
    def n(self) -> int:
        return len(self.state_names)

    @property
    def m(self) -> int:
        return len(self.input_names)

    @property
    def g(self) -> int:
        return len(self.f)

    def omega(self) -> Box:
        """Full admissible box: states first, then inputs; built once."""
        return self._omega

    @functools.cached_property
    def declared(self) -> dict[str, tuple[int, tuple[float, float]]]:
        """Each variable's position in ``omega()`` and its bound, built on
        first use."""
        omega = self._omega
        return {name: (k, pair) for k, (name, pair) in enumerate(zip(omega.labels, omega.pairs))}


def grad_sq_norm(model: ModelDef, i: int) -> Expr:
    """Squared 2-norm of the state gradient of component ``i`` (1-based):
    the sum over state variables of the squared partial derivatives."""
    if not 1 <= i <= model.g:
        raise DimensionMismatch(f"component index {i} outside 1..{model.g}")
    return simplified_sum(simplified_unary(SQR, d) for _, d in model.state_jacobian[i - 1])


def reduced_domain(model: ModelDef, e: Expr) -> Box:
    """Search box restricted to the variables of ``e`` (declaration order
    preserved); falls back to the full box when there are none, so
    optimization always has a domain."""
    return model.omega().restrict(free_vars(e))


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_SECTIONS = ("constants", "states", "inputs", "f", "G")


def parse_model_text(text: str) -> ModelDef:
    sections: dict[str, list[tuple[int, str]]] = {name: [] for name in _SECTIONS}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section [{name}] on line {lineno}", expected=_SECTIONS)
            current = name
            continue
        if current is None:
            raise ParseError(f"content before any section on line {lineno}")
        sections[current].append((lineno, line))

    constants: dict[str, float] = {}
    constant_lines: dict[str, int] = {}
    for lineno, line in sections["constants"]:
        name, value = _split_assignment(line, lineno)
        if name in constants:
            raise ParseError(f"constant {name} assigned again on line {lineno}")
        constants[name] = _parse_float(value, lineno)
        constant_lines[name] = lineno

    states = [_parse_bound_line(line, lineno) for lineno, line in sections["states"]]
    inputs = [_parse_bound_line(line, lineno) for lineno, line in sections["inputs"]]
    if not states:
        raise MissingBounds("model file declares no [states]")
    # A constant would replace the variable of its name in every component.
    for (name, _), (lineno, _) in zip(states + inputs, sections["states"] + sections["inputs"]):
        if name in constants:
            raise ParseError(
                f"constant {name} on line {constant_lines[name]} "
                f"shadows the variable on line {lineno}"
            )

    f: list[Expr] = []
    component_vars: list[frozenset[str]] = []
    for i, (lineno, line) in enumerate(sections["f"], start=1):
        name, rhs = _split_assignment(line, lineno)
        if name != f"f{i}":
            raise ParseError(f"component {i} is named {name} on line {lineno}, not f{i}")
        rhs = rhs.strip()
        if len(rhs) >= 2 and rhs[0] == '"' and rhs[-1] == '"':
            rhs = rhs[1:-1]
        try:
            e, names = parse_component(rhs, constants)
        except ParseError as exc:
            raise ParseError(f"{name} on line {lineno}: {exc}") from exc
        f.append(e)
        component_vars.append(names)

    G: Matrix | None = None
    if sections["G"]:
        rows = []
        for lineno, line in sections["G"]:
            rows.append(tuple(_parse_float(tok, lineno) for tok in line.split()))
        G = tuple(rows)

    return ModelDef(
        state_names=tuple(name for name, _ in states),
        state_bounds=tuple(pair for _, pair in states),
        f=tuple(f),
        input_names=tuple(name for name, _ in inputs),
        input_bounds=tuple(pair for _, pair in inputs),
        G=G,
        component_vars=tuple(component_vars),
    )


def load_model(path: str) -> ModelDef:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_model_text(fh.read())


def model_to_text(model: ModelDef) -> str:
    """Render a model in the text format (constants already folded in)."""
    lines = ["[states]"]
    for name, (lo, hi) in zip(model.state_names, model.state_bounds):
        lines.append(f"{name} = [{lo!r}, {hi!r}]")
    if model.input_names:
        lines.append("[inputs]")
        for name, (lo, hi) in zip(model.input_names, model.input_bounds):
            lines.append(f"{name} = [{lo!r}, {hi!r}]")
    lines.append("[f]")
    for i, e in enumerate(model.f, start=1):
        lines.append(f"f{i} = {to_text(e)}")
    if model.G is not None:
        lines.append("[G]")
        for row in model.G:
            lines.append(" ".join(repr(x) for x in row))
    return "\n".join(lines) + "\n"


def _split_assignment(line: str, lineno: int) -> tuple[str, str]:
    if "=" not in line:
        raise ParseError(f"expected 'name = value' on line {lineno}", expected=("=",))
    name, value = line.split("=", 1)
    name = name.strip()
    if not name.isidentifier():
        raise ParseError(f"bad identifier {name!r} on line {lineno}")
    return name, value.strip()


def _parse_float(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad number {token!r} on line {lineno}") from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {token!r} on line {lineno}")
    return value


def _parse_bound_line(line: str, lineno: int) -> tuple[str, tuple[float, float]]:
    name, value = _split_assignment(line, lineno)
    try:
        return name, parse_interval(value)
    except ValueError as exc:
        raise ParseError(f"{exc} on line {lineno}") from None


def parse_interval(text: str) -> tuple[float, float]:
    """The ``(lo, hi)`` pair written ``[lo, hi]``.  Raises ``ValueError``
    when the text has another form, an endpoint is not a finite number, or
    ``lo > hi``."""
    text = text.strip()
    parts = text[1:-1].split(",")
    if not (text.startswith("[") and text.endswith("]")) or len(parts) != 2:
        raise ValueError(f"expected [lo, hi], got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"endpoints must be finite in {text!r}")
    if lo > hi:
        raise ValueError(f"lower endpoint above upper in {text!r}")
    return lo, hi
