"""Built-in model factories: highway traffic, synchronous generator, and a
planar moving object.

The traffic factory wires a free-flow highway of ``s`` identical sections
(four mainline segments, one on-ramp queue, one off-ramp queue) behind a
single source segment, for ``6 s + 1`` states in total.  The per-state
nonlinearities come in five structural types; the wiring below fixes which
segment gets which type:

    source            quadratic inflow                 (type a, once)
    mainline 1        difference with upstream segment (type c)
    mainline 2        difference plus on-ramp feed     (type d)
    mainline 3        difference minus off-ramp drain  (type b)
    mainline 4        difference with mainline 3       (type c)
    on-ramp queue     quadratic inflow                 (type a)
    off-ramp queue    scaled quadratic outflow         (type e)

Only the multiplicity vector (s+1, s, 2s, s, s) for types (a, b, c, d, e) is
observable in the certified constants; the segment-to-type assignment inside
a section is this library's convention.
"""

from __future__ import annotations

import math
import warnings

from .errors import MissingBounds
from .expr import Const, Expr, Var, parse_simplified, simplify, sqr
from .intervals import Frozen
from .model import ModelDef


# ---------------------------------------------------------------------------
# Highway traffic
# ---------------------------------------------------------------------------


class TrafficConfig(Frozen):
    """Free-flow speed ``v_f`` (m/s), maximum density ``rho_m``
    (vehicles/m), segment length ``seg_len`` (m) and ramp splitting ratio
    ``alpha``."""

    __slots__ = ("sections", "v_f", "rho_m", "seg_len", "alpha")

    def __init__(
        self, sections: int = 5, v_f: float = 31.3, rho_m: float = 0.053,
        seg_len: float = 500.0, alpha: float = 0.5,
    ) -> None:
        store = object.__setattr__
        store(self, "sections", sections)
        store(self, "v_f", v_f)
        store(self, "rho_m", rho_m)
        store(self, "seg_len", seg_len)
        store(self, "alpha", alpha)

    @property
    def delta(self) -> float:
        return self.v_f / (self.seg_len * self.rho_m)

    @property
    def rho_c(self) -> float:
        return self.rho_m / 2.0

    @property
    def n(self) -> int:
        return 6 * self.sections + 1


def build_traffic(cfg: TrafficConfig = TrafficConfig()) -> tuple[ModelDef, dict[str, int]]:
    """Free-flow traffic model with ``6 s + 1`` states on ``[0, rho_c]^n``;
    also returns how many states carry each nonlinearity type."""
    if cfg.sections < 1:
        raise MissingBounds("traffic model needs at least one section")
    d = Const(cfg.delta)
    neg_da = Const(-cfg.delta * cfg.alpha)
    a = Const(cfg.alpha)
    counts = {"a": 0, "b": 0, "c": 0, "d": 0, "e": 0}

    def x(i: int) -> Expr:
        return Var(f"x{i}")

    f: list[Expr] = [simplify(d * sqr(x(1)))]  # source segment, type a
    counts["a"] += 1
    prev_mainline = 1
    for section in range(cfg.sections):
        base = 1 + 6 * section
        m1, m2, m3, m4, r_on, r_off = range(base + 1, base + 7)
        f.append(simplify(d * (sqr(x(m1)) - sqr(x(prev_mainline)))))
        counts["c"] += 1
        f.append(simplify(d * (sqr(x(m2)) - sqr(x(m1)) + a * sqr(x(r_on)))))
        counts["d"] += 1
        f.append(simplify(d * (sqr(x(m3)) - sqr(x(m2)) - sqr(x(r_off)))))
        counts["b"] += 1
        f.append(simplify(d * (sqr(x(m4)) - sqr(x(m3)))))
        counts["c"] += 1
        f.append(simplify(d * sqr(x(r_on))))
        counts["a"] += 1
        f.append(simplify(neg_da * sqr(x(r_off))))
        counts["e"] += 1
        prev_mainline = m4

    n = cfg.n
    bound = (0.0, cfg.rho_c)
    model = ModelDef(
        state_names=tuple(f"x{i}" for i in range(1, n + 1)),
        state_bounds=(bound,) * n,
        f=tuple(f),
    )
    return model, counts


# ---------------------------------------------------------------------------
# Synchronous generator
# ---------------------------------------------------------------------------


class GeneratorConfig(Frozen):
    """Machine constants and operating-region bounds.

    The constants default to 1.0 so the structure can be exercised without a
    data source, but certified constants only mean something for measured
    machine parameters and bounds; a warning flags the placeholders.
    """

    __slots__ = (
        "alpha1", "alpha3", "alpha4", "alpha6", "alpha8", "alpha10",
        "state_bounds", "input_bounds",
    )

    def __init__(
        self, alpha1: float = 1.0, alpha3: float = 1.0, alpha4: float = 1.0,
        alpha6: float = 1.0, alpha8: float = 1.0, alpha10: float = 1.0,
        state_bounds: tuple[tuple[float, float], ...] | None = None,
        input_bounds: tuple[tuple[float, float], ...] | None = None,
    ) -> None:
        store = object.__setattr__
        store(self, "alpha1", alpha1)
        store(self, "alpha3", alpha3)
        store(self, "alpha4", alpha4)
        store(self, "alpha6", alpha6)
        store(self, "alpha8", alpha8)
        store(self, "alpha10", alpha10)
        store(self, "state_bounds", state_bounds)
        store(self, "input_bounds", input_bounds)


_GENERATOR_F = (
    "-a1",
    "a3*x4*u4*cos(x1) - a3*x3*u4*sin(x1) - a3*x4*u3*sin(x1)"
    " - a3*x3*u3*cos(x1) + a4*u3*u4*cos(2*x1)"
    " + 0.5*a4*(u4^2 - u3^2)*sin(2*x1) + a6",
    "a8*u4*cos(x1) - a8*u3*sin(x1)",
    "a10*u3*cos(x1) + a10*u4*sin(x1)",
)


def build_generator(cfg: GeneratorConfig) -> ModelDef:
    """Fourth-order generator nonlinearity: four states, four inputs, trig
    terms in the rotor angle including the double-angle harmonics."""
    if cfg.state_bounds is None or cfg.input_bounds is None:
        raise MissingBounds(
            "generator model needs explicit state and input bounds "
            "(the operating region is machine data, not a model property)"
        )
    if len(cfg.state_bounds) != 4 or len(cfg.input_bounds) != 4:
        raise MissingBounds("generator model needs 4 state and 4 input bounds")
    if (
        cfg.alpha1 == cfg.alpha3 == cfg.alpha4 == cfg.alpha6
        == cfg.alpha8 == cfg.alpha10 == 1.0
    ):
        warnings.warn(
            "generator constants are all placeholder 1.0; certified values "
            "will not correspond to a physical machine",
            stacklevel=2,
        )
    constants = {
        "a1": cfg.alpha1,
        "a3": cfg.alpha3,
        "a4": cfg.alpha4,
        "a6": cfg.alpha6,
        "a8": cfg.alpha8,
        "a10": cfg.alpha10,
    }
    return ModelDef(
        state_names=("x1", "x2", "x3", "x4"),
        state_bounds=cfg.state_bounds,
        f=tuple(parse_simplified(text, constants) for text in _GENERATOR_F),
        input_names=("u1", "u2", "u3", "u4"),
        input_bounds=cfg.input_bounds,
    )


# ---------------------------------------------------------------------------
# Moving object in the plane
# ---------------------------------------------------------------------------


class MovingObjectConfig(Frozen):
    __slots__ = ("r",)

    def __init__(self, r: float = 5.0) -> None:
        if not (math.isfinite(r) and r > 0.0):
            raise MissingBounds("moving-object radius must be finite and positive")
        object.__setattr__(self, "r", r)


def build_moving_object(cfg: MovingObjectConfig = MovingObjectConfig()) -> ModelDef:
    """Cubic radial damping in the plane on ``[-r, r]^2``; vanishes at the
    origin, so every function class applies."""
    radius = (-cfg.r, cfg.r)
    x1, x2 = Var("x1"), Var("x2")
    radial = sqr(x1) + sqr(x2)
    return ModelDef(
        state_names=("x1", "x2"),
        state_bounds=(radius, radius),
        f=(simplify(-x1 * radial), simplify(-x2 * radial)),
    )
