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

Each builder is a plain function of the model's parameters and checks them
at its top: a parameter out of range raises ``MissingBounds``, which names
the parameter and its value.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable

from .errors import MissingBounds
from .expr import parse_component
from .model import ModelDef


def _model(texts: Iterable[str], constants: dict[str, float], **fields) -> ModelDef:
    """The model whose components are ``texts``, read as a model file's
    are, with ``parse_component`` and the named ``constants``."""
    f, component_vars = zip(*(parse_component(text, constants) for text in texts))
    return ModelDef(f=f, component_vars=component_vars, **fields)


def _require(ok: bool, name: str, value: object, what: str) -> None:
    """Raise ``MissingBounds`` for parameter ``name`` unless ``ok``."""
    if not ok:
        raise MissingBounds(f"{name} must be {what}, got {value!r}")


def _positive(**params: float) -> None:
    """Require each of ``params`` to be finite and positive."""
    for name, value in params.items():
        _require(math.isfinite(value) and value > 0.0, name, value, "finite and positive")


# ---------------------------------------------------------------------------
# Highway traffic
# ---------------------------------------------------------------------------


def build_traffic(
    sections: int = 5, v_f: float = 31.3, rho_m: float = 0.053,
    seg_len: float = 500.0, alpha: float = 0.5,
) -> ModelDef:
    """Free-flow traffic model of ``sections`` sections, with ``6 s + 1``
    states on ``[0, rho_m / 2]^n``: free-flow speed ``v_f`` (m/s), maximum
    density ``rho_m`` (vehicles/m), segment length ``seg_len`` (m) and ramp
    splitting ratio ``alpha`` in ``[0, 1]``.  The nonlinearity types
    (a, b, c, d, e) are carried by (s+1, s, 2s, s, s) states."""
    _require(isinstance(sections, int) and sections >= 1, "sections", sections, "an integer >= 1")
    _positive(v_f=v_f, rho_m=rho_m, seg_len=seg_len)
    _require(0.0 <= alpha <= 1.0, "alpha", alpha, "in [0, 1]")
    delta = v_f / (seg_len * rho_m) if seg_len * rho_m > 0.0 else math.inf
    _require(math.isfinite(delta), "v_f / (seg_len * rho_m)", delta, "finite")
    texts = ["d*sqr(x1)"]  # source segment, type a
    prev = "x1"
    for section in range(sections):
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
    n = 6 * sections + 1
    return _model(
        texts, {"d": delta, "a": alpha, "neg_da": -delta * alpha},
        state_names=tuple(f"x{i}" for i in range(1, n + 1)),
        state_bounds=((0.0, rho_m / 2.0),) * n,
    )


# ---------------------------------------------------------------------------
# Synchronous generator
# ---------------------------------------------------------------------------


_GENERATOR_F = (
    "-alpha1",
    "alpha3*x4*u4*cos(x1) - alpha3*x3*u4*sin(x1) - alpha3*x4*u3*sin(x1)"
    " - alpha3*x3*u3*cos(x1) + alpha4*u3*u4*cos(2*x1)"
    " + 0.5*alpha4*(u4^2 - u3^2)*sin(2*x1) + alpha6",
    "alpha8*u4*cos(x1) - alpha8*u3*sin(x1)",
    "alpha10*u3*cos(x1) + alpha10*u4*sin(x1)",
)


def build_generator(
    state_bounds: tuple[tuple[float, float], ...],
    input_bounds: tuple[tuple[float, float], ...],
    alpha1: float = 1.0, alpha3: float = 1.0, alpha4: float = 1.0,
    alpha6: float = 1.0, alpha8: float = 1.0, alpha10: float = 1.0,
) -> ModelDef:
    """Fourth-order generator nonlinearity: four states, four inputs, trig
    terms in the rotor angle including the double-angle harmonics.

    The operating region, four ``(lo, hi)`` pairs each for the states and
    the inputs, is machine data, not a model property, so it has no
    default.  The six machine constants must be finite.  They default to
    1.0 so the structure can be exercised without a data source, but
    certified constants only mean something for measured machine
    parameters; a warning flags the placeholders."""
    if len(state_bounds) != 4 or len(input_bounds) != 4:
        raise MissingBounds("generator model needs 4 state and 4 input bounds")
    constants = dict(
        alpha1=alpha1, alpha3=alpha3, alpha4=alpha4, alpha6=alpha6, alpha8=alpha8, alpha10=alpha10
    )
    for name, value in constants.items():
        _require(math.isfinite(value), name, value, "finite")
    if set(constants.values()) == {1.0}:
        warnings.warn(
            "generator constants are all placeholder 1.0; certified values "
            "will not correspond to a physical machine",
            stacklevel=2,
        )
    return _model(
        _GENERATOR_F, constants,
        state_names=("x1", "x2", "x3", "x4"),
        state_bounds=state_bounds,
        input_names=("u1", "u2", "u3", "u4"),
        input_bounds=input_bounds,
    )


# ---------------------------------------------------------------------------
# Moving object in the plane
# ---------------------------------------------------------------------------


def build_moving_object(r: float = 5.0) -> ModelDef:
    """Cubic radial damping in the plane on ``[-r, r]^2`` for a finite,
    positive radius ``r``; vanishes at the origin, so every function class
    applies."""
    _positive(r=r)
    return _model(
        ("-x1*(sqr(x1) + sqr(x2))", "-x2*(sqr(x1) + sqr(x2))"), {},
        state_names=("x1", "x2"),
        state_bounds=((-r, r), (-r, r)),
    )
