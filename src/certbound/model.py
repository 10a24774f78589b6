"""Nonlinear system definitions and their on-disk text format.

A model is the nonlinear part of a dynamic system: state and input variables
with box bounds, a vector of expressions, and an optional mixing matrix G
applied to that vector.  The admissible region is the product box of all
variable bounds (states first, then inputs).

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
from typing import Sequence

from .errors import DimensionMismatch, MissingBounds, ParseError
from .expr import (
    SQR,
    Expr,
    differentiate,
    free_vars,
    is_zero,
    parse_simplified,
    simplified_sum,
    simplified_unary,
    to_text,
)
from .intervals import Box, Frozen, Interval

Matrix = tuple[tuple[float, ...], ...]
Partials = tuple[tuple[int, Expr], ...]  # see state_partials


class ModelDef(Frozen):
    """A nonlinear system: bounded variables plus component expressions.
    The components are expected simplified, as ``parse_model_text`` and the
    built-in models give them: their partial derivatives are built from
    their subtrees as they stand (see ``expr.differentiate``).  Not
    slotted: ``state_jacobian`` and ``declared`` cache in the instance
    ``__dict__``."""

    def __init__(
        self, state_names: tuple[str, ...], state_bounds: tuple[Interval, ...],
        f: tuple[Expr, ...], input_names: tuple[str, ...] = (),
        input_bounds: tuple[Interval, ...] = (), G: Matrix | None = None,
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
        for i, e in enumerate(f):
            extra = free_vars(e) - declared
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
        store = object.__setattr__
        store(self, "state_names", state_names)
        store(self, "state_bounds", state_bounds)
        store(self, "f", f)
        store(self, "input_names", input_names)
        store(self, "input_bounds", input_bounds)
        store(self, "G", G)

    def _fields(self) -> tuple:
        return (self.state_names, self.state_bounds, self.f,
                self.input_names, self.input_bounds, self.G)

    @functools.cached_property
    def state_jacobian(self) -> tuple[Partials, ...]:
        """Sparse state Jacobian, built on first use: for each component,
        its partial derivatives by the states that are not identically zero
        (see ``state_partials``)."""
        return tuple(state_partials(fi, self.state_names) for fi in self.f)

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
        """Full admissible box: states first, then inputs."""
        return Box(
            self.state_bounds + self.input_bounds,
            self.state_names + self.input_names,
        )

    @functools.cached_property
    def declared(self) -> dict[str, tuple[int, Interval]]:
        """Each variable's position in ``omega()`` and its bound, built on
        first use."""
        names = self.state_names + self.input_names
        bounds = self.state_bounds + self.input_bounds
        return {name: (k, iv) for k, (name, iv) in enumerate(zip(names, bounds))}

    def effective_G(self) -> Matrix:
        """G, or the identity when omitted (requires g == n)."""
        if self.G is not None:
            return self.G
        if self.g != self.n:
            raise DimensionMismatch(
                f"implicit identity G needs g == n, got g={self.g}, n={self.n}"
            )
        return tuple(
            tuple(1.0 if i == j else 0.0 for j in range(self.n))
            for i in range(self.n)
        )


def state_partials(e: Expr, state_names: Sequence[str]) -> Partials:
    """The partial derivatives of ``e`` that are not ``is_zero``, as
    ``(j, de/dx_j)`` in the order of ``state_names``.  Only the states that
    occur in ``e`` are differentiated by: any other partial is exactly 0."""
    present = free_vars(e)
    partials = (
        (j, differentiate(e, name))
        for j, name in enumerate(state_names)
        if name in present
    )
    return tuple((j, d) for j, d in partials if not is_zero(d))


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
                raise ParseError(f"unknown section [{name}] on line {lineno}", 0, _SECTIONS)
            current = name
            continue
        if current is None:
            raise ParseError(f"content before any section on line {lineno}", 0)
        sections[current].append((lineno, line))

    constants: dict[str, float] = {}
    for lineno, line in sections["constants"]:
        name, value = _split_assignment(line, lineno)
        if name in constants:
            raise ParseError(f"constant {name} assigned again on line {lineno}", 0)
        constants[name] = _parse_float(value, lineno)

    states = [_parse_bound_line(line, lineno) for lineno, line in sections["states"]]
    inputs = [_parse_bound_line(line, lineno) for lineno, line in sections["inputs"]]
    if not states:
        raise MissingBounds("model file declares no [states]")

    f: list[Expr] = []
    for i, (lineno, line) in enumerate(sections["f"], start=1):
        name, rhs = _split_assignment(line, lineno)
        if name != f"f{i}":
            raise ParseError(f"component {i} is named {name} on line {lineno}, not f{i}", 0)
        rhs = rhs.strip()
        if len(rhs) >= 2 and rhs[0] == '"' and rhs[-1] == '"':
            rhs = rhs[1:-1]
        f.append(parse_simplified(rhs, constants))

    G: Matrix | None = None
    if sections["G"]:
        rows = []
        for lineno, line in sections["G"]:
            rows.append(tuple(_parse_float(tok, lineno) for tok in line.split()))
        G = tuple(rows)

    return ModelDef(
        state_names=tuple(name for name, _ in states),
        state_bounds=tuple(iv for _, iv in states),
        f=tuple(f),
        input_names=tuple(name for name, _ in inputs),
        input_bounds=tuple(iv for _, iv in inputs),
        G=G,
    )


def load_model(path: str) -> ModelDef:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_model_text(fh.read())


def model_to_text(model: ModelDef) -> str:
    """Render a model in the text format (constants already folded in)."""
    lines = ["[states]"]
    for name, iv in zip(model.state_names, model.state_bounds):
        lines.append(f"{name} = [{iv.lo!r}, {iv.hi!r}]")
    if model.input_names:
        lines.append("[inputs]")
        for name, iv in zip(model.input_names, model.input_bounds):
            lines.append(f"{name} = [{iv.lo!r}, {iv.hi!r}]")
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
        raise ParseError(f"expected 'name = value' on line {lineno}", 0, ("=",))
    name, value = line.split("=", 1)
    name = name.strip()
    if not name.isidentifier():
        raise ParseError(f"bad identifier {name!r} on line {lineno}", 0)
    return name, value.strip()


def _parse_float(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad number {token!r} on line {lineno}", 0) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {token!r} on line {lineno}", 0)
    return value


def _parse_bound_line(line: str, lineno: int) -> tuple[str, Interval]:
    name, value = _split_assignment(line, lineno)
    try:
        return name, parse_interval(value)
    except ValueError as exc:
        raise ParseError(f"{exc} on line {lineno}", 0) from None


def parse_interval(text: str) -> Interval:
    """The interval written ``[lo, hi]``.  Raises ``ValueError`` when the
    text has another form, an endpoint is not a finite number, or
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
    return Interval(lo, hi)
