"""certbound: certified bounding constants for nonlinear dynamic systems.

A model (loaded from its text format) goes in; certified Jacobian bounds,
Lipschitz, one-sided Lipschitz, quadratic inner-boundedness and quadratic
boundedness constants come out, each from a certified global maximization.
This package exports that pipeline only.  Everything else is imported from
its own module: ``certbound.bnb`` (the optimizer), ``certbound.expr``
(expressions), ``certbound.intervals`` (intervals and boxes),
``certbound.models`` (built-in models), ``certbound.baselines`` (sampled
estimates) and ``certbound.errors`` (the exception hierarchy).
"""

from .bnb import BnBConfig
from .errors import CertboundError
from .model import ModelDef, load_model, parse_model_text
from .params import (
    jacobian_bounds,
    lipschitz_case1,
    lipschitz_case2,
    osl_frobenius,
    osl_gershgorin,
    osl_zeta,
    qb,
    qib,
    qib_to_lipschitz,
)

__version__ = "0.1.0"

__all__ = [
    "BnBConfig",
    "CertboundError",
    "ModelDef",
    "jacobian_bounds",
    "lipschitz_case1",
    "lipschitz_case2",
    "load_model",
    "osl_frobenius",
    "osl_gershgorin",
    "osl_zeta",
    "parse_model_text",
    "qb",
    "qib",
    "qib_to_lipschitz",
]
