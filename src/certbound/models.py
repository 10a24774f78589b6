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

Every built-in model is written as the text of its components and read by
the parser (``expr.parse_component``), as the components of a model file
are, so a built-in model and the file that ``model_to_text`` writes for it
hold the same trees.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable

from .errors import MissingBounds
from .expr import parse_component
from .intervals import Frozen
from .model import ModelDef


def _model(texts: Iterable[str], constants: dict[str, float], **fields) -> ModelDef:
    """The model whose components are ``texts``, read as a model file's
    are, with ``parse_component`` and the named ``constants``."""
    f, component_vars = zip(*(parse_component(text, constants) for text in texts))
    return ModelDef(f=f, component_vars=component_vars, **fields)


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
    s = cfg.sections
    if s < 1:
        raise MissingBounds("traffic model needs at least one section")
    texts = ["d*sqr(x1)"]  # source segment, type a
    prev = "x1"
    for section in range(s):
        base = 1 + 6 * section
        m1, m2, m3, m4, r_on, r_off = (f"x{i}" for i in range(base + 1, base + 7))
        texts += [
            f"d*(sqr({m1}) - sqr({prev}))",  # type c
            f"d*(sqr({m2}) - sqr({m1}) + a*sqr({r_on}))",  # type d
            f"d*(sqr({m3}) - sqr({m2}) - sqr({r_off}))",  # type b
            f"d*(sqr({m4}) - sqr({m3}))",  # type c
            f"d*sqr({r_on})",  # type a
            f"neg_da*sqr({r_off})",  # type e
        ]
        prev = m4
    constants = {"d": cfg.delta, "a": cfg.alpha, "neg_da": -cfg.delta * cfg.alpha}
    n = cfg.n
    bound = (0.0, cfg.rho_c)
    model = _model(
        texts, constants,
        state_names=tuple(f"x{i}" for i in range(1, n + 1)),
        state_bounds=(bound,) * n,
    )
    return model, {"a": s + 1, "b": s, "c": 2 * s, "d": s, "e": s}


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
    return _model(
        _GENERATOR_F, constants,
        state_names=("x1", "x2", "x3", "x4"),
        state_bounds=cfg.state_bounds,
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
    return _model(
        ("-x1*(sqr(x1) + sqr(x2))", "-x2*(sqr(x1) + sqr(x2))"), {},
        state_names=("x1", "x2"),
        state_bounds=(radius, radius),
    )
