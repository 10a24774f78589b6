"""Cross-family soundness: on random models, every certified constant must
dominate its defining inequality on sampled point pairs.

This is the library's core promise, checked end to end: expression layer,
interval enclosures, the optimizer, and the constant assembly all have to be
sound together for these to pass.
"""

import math
import random

import pytest

from certbound import BnBConfig, ModelDef
from certbound.expr import Program, differentiate
from certbound.params import (
    jacobian_bounds,
    lipschitz_case1,
    lipschitz_case2,
    osl_frobenius,
    osl_gershgorin,
    osl_zeta,
    qib,
)
from conftest import jacobian_entry, random_polynomial

# Loose tolerance and a tight step cap: certificates are valid at any
# tolerance, and this suite checks validity, not tightness.
CFG = BnBConfig(eps_h=1e-3, eps_om=1e-7, segments=2, max_steps=2500)


def _random_model(rng: random.Random) -> ModelDef | None:
    n = rng.randint(1, 3)
    names = tuple(f"x{i + 1}" for i in range(n))
    bounds = []
    for _ in range(n):
        lo = rng.uniform(-1.5, 0.3)
        bounds.append((lo, lo + rng.uniform(0.3, 1.8)))
    f = tuple(random_polynomial(rng, n, degree=3) for _ in range(n))
    try:
        return ModelDef(state_names=names, state_bounds=tuple(bounds), f=f)
    except Exception:
        return None


def _tolerant_le(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + 1e-9 * max(1.0, abs(rhs))


@pytest.mark.parametrize("seed", range(8))
def test_certified_constants_dominate_samples(seed):
    rng = random.Random(5000 + seed)
    model = _random_model(rng)
    if model is None:
        pytest.skip("degenerate random model")
    omega = model.omega()
    programs = [Program(fi, omega.labels) for fi in model.f]
    deriv_programs = [
        [Program(differentiate(fi, name), omega.labels) for name in model.state_names]
        for fi in model.f
    ]

    l1 = lipschitz_case1(model, CFG)
    l2 = lipschitz_case2(model, CFG)
    estimators = [osl_gershgorin(model, CFG), osl_frobenius(model, CFG)]
    if model.n >= 2:
        estimators.append(osl_zeta(model, CFG))
    q = qib(model, CFG, eps1=rng.uniform(0.0, 2.0), eps2=rng.uniform(0.0, 2.0))
    jb = jacobian_bounds(model, CFG)

    assert l1.gamma <= l2.gamma + 1e-9

    sampler = random.Random(seed)
    for _ in range(400):
        x = tuple(sampler.uniform(lo, hi) for lo, hi in model.state_bounds)
        xh = tuple(sampler.uniform(lo, hi) for lo, hi in model.state_bounds)
        fx = [p.eval_point(x) for p in programs]
        fxh = [p.eval_point(xh) for p in programs]
        df = [a - b for a, b in zip(fx, fxh)]
        dx = [a - b for a, b in zip(x, xh)]
        ndf = math.sqrt(sum(v * v for v in df))
        ndx = math.sqrt(sum(v * v for v in dx))
        assert _tolerant_le(ndf, l1.gamma * ndx)
        assert _tolerant_le(ndf, l2.gamma * ndx)
        inner = sum(a * b for a, b in zip(df, dx))
        norm2 = ndx * ndx
        for est in estimators:
            assert _tolerant_le(inner, est.gamma_s * norm2), est.estimator
            assert _tolerant_le(est.lower_gamma * norm2, inner), est.estimator
        assert _tolerant_le(ndf * ndf, q.gamma_q1 * norm2 + q.gamma_q2 * inner)
        for i in range(model.g):
            for j in range(model.n):
                value = deriv_programs[i][j].eval_point(x)
                lo, hi = jacobian_entry(jb, i + 1, j + 1)
                assert lo - 1e-9 <= value <= hi + 1e-9
