"""Nonlinear system definitions and their on-disk text format.

A model is the nonlinear part of a dynamic system: state and input variables
with box bounds, a vector of expressions, and an optional mixing matrix G
applied to that vector.  The admissible region is the product box of all
variable bounds (states first, then inputs).

Text format (UTF-8, ``#`` comments)::

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

Constants are substituted while expressions are parsed.  ``[inputs]``,
``[G]`` and ``[constants]`` may be omitted; an omitted G means the identity
(which requires as many components as states wherever G is actually used).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DimensionMismatch, MissingBounds, ParseError
from .expr import (
    Expr,
    Unary,
    SQR,
    as_expr,
    differentiate,
    expr_sum,
    free_vars,
    is_zero,
    parse,
    simplify,
    to_text,
)
from .intervals import Box, Interval

Matrix = tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class ModelDef:
    """A nonlinear system: bounded variables plus component expressions."""

    state_names: tuple[str, ...]
    state_bounds: tuple[Interval, ...]
    f: tuple[Expr, ...]
    input_names: tuple[str, ...] = ()
    input_bounds: tuple[Interval, ...] = ()
    G: Matrix | None = None

    def __post_init__(self) -> None:
        if not self.state_names:
            raise MissingBounds("model needs at least one state variable")
        if len(self.state_names) != len(self.state_bounds):
            raise MissingBounds("every state variable needs a bound")
        if len(self.input_names) != len(self.input_bounds):
            raise MissingBounds("every input variable needs a bound")
        declared = set(self.state_names) | set(self.input_names)
        if len(declared) != len(self.state_names) + len(self.input_names):
            raise DimensionMismatch("duplicate variable names")
        if not self.f:
            raise DimensionMismatch("model needs at least one component")
        for i, e in enumerate(self.f):
            extra = free_vars(e) - declared
            if extra:
                raise DimensionMismatch(
                    f"component {i + 1} uses undeclared variables {sorted(extra)}"
                )
        if self.G is not None:
            if len(self.G) != self.n or any(len(row) != self.g for row in self.G):
                raise DimensionMismatch(
                    f"G must be {self.n}x{self.g}, got "
                    f"{len(self.G)}x{len(self.G[0]) if self.G else 0}"
                )

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

    def state_box(self) -> Box:
        return Box(self.state_bounds, self.state_names)

    def bound_of(self, name: str) -> Interval:
        for names, bounds in (
            (self.state_names, self.state_bounds),
            (self.input_names, self.input_bounds),
        ):
            if name in names:
                return bounds[names.index(name)]
        raise MissingBounds(f"no bound declared for variable {name!r}")

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


def grad_sq_norm(model: ModelDef, i: int) -> Expr:
    """Squared 2-norm of the state gradient of component ``i`` (1-based):
    the sum over state variables of the squared partial derivatives."""
    if not 1 <= i <= model.g:
        raise DimensionMismatch(f"component index {i} outside 1..{model.g}")
    derivatives = (differentiate(model.f[i - 1], name) for name in model.state_names)
    total = expr_sum(Unary(SQR, d) for d in derivatives if not is_zero(d))
    return simplify(total) if total is not None else as_expr(0.0)


def reduced_domain(model: ModelDef, exprs: Expr | Iterable[Expr]) -> Box:
    """Search box restricted to the variables that actually appear
    (declaration order preserved); falls back to the full box when nothing
    appears, so optimization always has a domain."""
    if isinstance(exprs, Expr):
        exprs = [exprs]
    used: set[str] = set()
    for e in exprs:
        used |= free_vars(e)
    names: list[str] = []
    bounds: list[Interval] = []
    for group_names, group_bounds in (
        (model.state_names, model.state_bounds),
        (model.input_names, model.input_bounds),
    ):
        for name, bound in zip(group_names, group_bounds):
            if name in used:
                names.append(name)
                bounds.append(bound)
    if not names:
        return model.omega()
    return Box(tuple(bounds), tuple(names))


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
        constants[name] = _parse_float(value, lineno)

    states = [_parse_bound_line(line, lineno) for lineno, line in sections["states"]]
    inputs = [_parse_bound_line(line, lineno) for lineno, line in sections["inputs"]]
    if not states:
        raise MissingBounds("model file declares no [states]")

    f: list[Expr] = []
    for lineno, line in sections["f"]:
        _, rhs = _split_assignment(line, lineno)
        rhs = rhs.strip()
        if len(rhs) >= 2 and rhs[0] == '"' and rhs[-1] == '"':
            rhs = rhs[1:-1]
        f.append(simplify(parse(rhs, constants)))

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
    with open(path, "r", encoding="utf-8") as fh:
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
        return float(token)
    except ValueError:
        raise ParseError(f"bad number {token!r} on line {lineno}", 0) from None


def _parse_bound_line(line: str, lineno: int) -> tuple[str, Interval]:
    name, value = _split_assignment(line, lineno)
    value = value.strip()
    if not (value.startswith("[") and value.endswith("]")):
        raise ParseError(f"expected 'name = [lo, hi]' on line {lineno}", 0, ("[",))
    parts = value[1:-1].split(",")
    if len(parts) != 2:
        raise ParseError(f"expected two bounds on line {lineno}", 0)
    lo = _parse_float(parts[0].strip(), lineno)
    hi = _parse_float(parts[1].strip(), lineno)
    return name, Interval(lo, hi)
