"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they complete.
"""

from __future__ import annotations

import math
import random

import pytest

from certbound import BnBConfig
from certbound.baselines import sample_max
from certbound.bnb import maximize
from certbound.eigen import jacobi_eigenvalues
from certbound.expr import ADD, Binary, Program, free_vars, simplify
from certbound.intervals import pair_cos, pair_sin
from certbound.model import ModelDef, grad_sq_norm, reduced_domain
from certbound.params import (
    jacobian_bounds,
    lipschitz_case1,
    lipschitz_case2,
    osl_frobenius,
    osl_gershgorin,
    qb,
    qib,
    zeta,
)
from conftest import (
    corpus_expressions,
    dec_cos,
    dec_sin,
    dense_max,
    gershgorin_upper,
    jacobian_entry,
    make_box,
    random_points,
    random_polynomial,
    row_gap_upper,
)
from test_params import zeta_oracle


def verdict(number: int, text: str) -> None:
    print(f"\ncriterion {number:02d}: PASS  [{text}]")


# ---------------------------------------------------------------------------
# Shared expensive runs
# ---------------------------------------------------------------------------

TRAFFIC_CFG = BnBConfig(eps_h=1e-4, eps_om=1e-7, segments=10)
MO_CFG = BnBConfig(eps_h=1e-4, eps_om=1e-8, segments=1)
GEN_CFG = BnBConfig(eps_h=10.0, eps_om=1e-3, segments=2, max_steps=400)


@pytest.fixture(scope="module")
def traffic_case1(traffic_s1, traffic_s5, traffic_s10):
    return {
        model.n: lipschitz_case1(model, TRAFFIC_CFG)
        for model in (traffic_s5, traffic_s10)
    }


@pytest.fixture(scope="session")
def traffic_s10():
    from certbound.models import build_traffic

    return build_traffic(10)


def case1_objective(model: ModelDef):
    total = None
    for i in range(1, model.g + 1):
        term = grad_sq_norm(model, i)
        total = term if total is None else Binary(ADD, total, term)
    objective = simplify(total)
    domain = reduced_domain(model, objective)
    return Program(objective, domain.labels), domain


# ---------------------------------------------------------------------------
# Criteria 1-2: traffic-network regression
# ---------------------------------------------------------------------------


def test_criterion_01_traffic_case1_regression(traffic_case1):
    expected = {31: 0.4579, 61: 0.6445}
    for n, target in expected.items():
        r = traffic_case1[n]
        assert r.gamma == pytest.approx(target, abs=5e-4), f"n={n}"
        assert r.eps_optimal, f"n={n} not eps-optimal"
        assert r.stats.wall_time < 300.0
    verdict(
        1,
        "case-1 constants "
        + ", ".join(f"n={n}: {traffic_case1[n].gamma:.4f}" for n in expected),
    )


def test_criterion_02_traffic_case2_agrees(traffic_s5, traffic_s10, traffic_case1):
    for model in (traffic_s5, traffic_s10):
        r2 = lipschitz_case2(model, TRAFFIC_CFG)
        r1 = traffic_case1[model.n]
        assert r2.gamma == pytest.approx(r1.gamma, abs=1e-3)
        assert r2.stats.wall_time < 5.0
        assert r2.stats.runs == 5  # deduplicated nonlinearity types
    verdict(2, "case-2 matches case-1 within 1e-3 in under 5 s")


# ---------------------------------------------------------------------------
# Criteria 3-4: moving-object one-sided and inner-boundedness constants
# ---------------------------------------------------------------------------


def test_criterion_03_moving_object_osl(moving_object):
    r = osl_gershgorin(moving_object, MO_CFG)
    assert -1e-4 <= r.gamma_s <= 1e-4
    assert r.lower_gamma == pytest.approx(-150.0, abs=1e-3)
    q = qib(moving_object, MO_CFG, eps1=0.0, eps2=0.0)
    assert q.gamma_m == pytest.approx(25000.0, abs=0.1)
    verdict(
        3,
        f"gamma_s={r.gamma_s:.2e}, lower={r.lower_gamma:.4f}, "
        f"gamma_m={q.gamma_m:.4f}",
    )


def test_criterion_04_moving_object_qib(moving_object):
    tight = BnBConfig(eps_h=1e-8, eps_om=1e-10, segments=1)
    for eps1 in (0.0, 1.0, 1e4, 1e5):
        r = qib(moving_object, tight, eps1=eps1, eps2=0.1)
        assert r.gamma_q1 == pytest.approx(25015.0, abs=0.2), f"eps1={eps1}"
        assert r.gamma_q2 == 0.1 - eps1  # exact, not approximate
    verdict(4, "gamma_q1 = 25015 +- 0.2 for eps1 in {0, 1, 1e4, 1e5}")


# ---------------------------------------------------------------------------
# Criterion 5: dimension-factor oracle
# ---------------------------------------------------------------------------


def test_criterion_05_zeta_oracle():
    for n in range(2, 9):
        reference = zeta_oracle(n)
        assert abs(reference - (n - 1)) <= 1e-9
        assert abs(zeta(n) - reference) <= 1e-9
    verdict(5, "zeta(n) == n-1 confirmed against bisection oracle, n=2..8")


# ---------------------------------------------------------------------------
# Criterion 6: sandwich property suite
# ---------------------------------------------------------------------------


def _sandwich_check(program, domain, cfg, trace):
    res = maximize(
        program.eval_point,
        lambda dims: program.eval_interval(dims),
        domain,
        cfg,
    )
    sampled = dense_max(program.eval_point, domain, [tuple(res.lower_witness)])
    assert res.lower - 1e-9 <= sampled <= res.upper + 1e-9
    trace.assert_tightens()
    return res


def test_criterion_06_sandwich_suite(traffic_s1, moving_object_unit, generator, sandwich_trace):
    count = 0
    rng = random.Random(4242)
    while count < 16:
        dim = rng.randint(1, 4)
        e = random_polynomial(rng, dim)
        used = sorted(free_vars(e))
        if not used:
            continue
        bounds = []
        for name in used:
            lo = rng.uniform(-2.0, 0.5)
            bounds.append((name, lo, lo + rng.uniform(0.5, 2.5)))
        domain = make_box(bounds)
        program = Program(e, domain.labels)
        cfg = BnBConfig(eps_h=1e-5, eps_om=1e-9, segments=2, max_steps=15000)
        _sandwich_check(program, domain, cfg, sandwich_trace)
        count += 1

    corpus = [
        (traffic_s1, BnBConfig(eps_h=1e-4, eps_om=1e-7, segments=10)),
        (moving_object_unit, BnBConfig(eps_h=1e-3, eps_om=1e-7, segments=1)),
        (generator, BnBConfig(eps_h=10.0, eps_om=1e-3, segments=2, max_steps=400)),
    ]
    for model, cfg in corpus:
        program, domain = case1_objective(model)
        _sandwich_check(program, domain, cfg, sandwich_trace)
        count += 1

    from certbound.expr import parse

    for text, bounds, eps in (
        ("x*(1 - x)", [("x", 0.0, 1.0)], 1e-7),
        ("-(x - 0.3)^2 + y^2", [("x", -1.0, 1.0), ("y", -1.0, 1.0)], 1e-6),
        ("x^2 - y^2 + 0.5*x*y", [("x", -2.0, 1.0), ("y", -1.0, 1.0)], 1e-6),
        ("abs(x - 0.25) + 0.1*y", [("x", -1.0, 1.0), ("y", 0.0, 1.0)], 1e-6),
    ):
        domain = make_box(bounds)
        program = Program(simplify(parse(text)), domain.labels)
        cfg = BnBConfig(eps_h=eps, eps_om=1e-10, segments=1, max_steps=20000)
        _sandwich_check(program, domain, cfg, sandwich_trace)
        count += 1

    assert count >= 20
    verdict(6, f"sandwich and monotonicity verified on {count} objectives")


# ---------------------------------------------------------------------------
# Criterion 7: enclosure suite
# ---------------------------------------------------------------------------


def test_criterion_07_enclosure_suite(traffic_s1, moving_object, generator):
    from conftest import model_component_expressions

    cases = corpus_expressions() + model_component_expressions(
        traffic_s1, moving_object, generator
    )
    checked = 0
    for index, (e, box) in enumerate(cases):
        program = Program(e, box.labels)
        for point in random_points(box, 10_000, seed=7000 + index):
            value = program.eval_point(point)
            lo, hi = program.eval_interval([(x, x) for x in point])
            assert lo <= value <= hi
            checked += 1

    rng = random.Random(777)
    args = [rng.uniform(-10.0, 10.0) for _ in range(1000)]
    assert sum(1 for x in args if abs(x) > math.pi) > 100
    for x in args:
        slo, shi = pair_sin((x, x))
        clo, chi = pair_cos((x, x))
        assert slo <= float(dec_sin(x)) <= shi
        assert clo <= float(dec_cos(x)) <= chi
    verdict(7, f"{checked} point enclosures plus 1000 trig reference values")


# ---------------------------------------------------------------------------
# Criterion 8: eigenvalue bound suite
# ---------------------------------------------------------------------------


def test_criterion_08_eigen_bounds(traffic_s1, moving_object_unit):
    rng = random.Random(31337)
    worst_margin = math.inf
    for k in range(1000):
        n = 2 + k % 7
        a = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
        sym = [[0.5 * (a[i][j] + a[j][i]) for j in range(n)] for i in range(n)]
        top = jacobi_eigenvalues(sym)[-1]
        for bound in (gershgorin_upper(sym), row_gap_upper(sym, zeta(n))):
            worst_margin = min(worst_margin, bound - top)
            assert bound - top >= -1e-10
    cfg = BnBConfig(eps_h=1e-4, eps_om=1e-7, segments=1)
    for model in (traffic_s1, moving_object_unit):
        frob = osl_frobenius(model, cfg)
        gersh = osl_gershgorin(model, cfg)
        assert frob.gamma_s >= 0.0
        assert gersh.gamma_s <= frob.gamma_s + 1e-9
    verdict(8, f"1000 matrices, worst bound margin {worst_margin:.3e}")


# ---------------------------------------------------------------------------
# Criterion 9: certified-constant sampling suite
# ---------------------------------------------------------------------------

_REL_TOL = 1e-9


def _le(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + _REL_TOL * max(1.0, abs(rhs))


def _model_harness(model: ModelDef, seed: int, pairs: int = 10_000):
    domain = model.omega()
    programs = [Program(fi, domain.labels) for fi in model.f]
    rng = random.Random(seed)
    n = model.n
    G = model.G
    if G is None and model.g == n:  # the identity
        G = tuple(tuple(float(i == j) for j in range(n)) for i in range(n))

    def draw():
        x = [rng.uniform(lo, hi) for lo, hi in model.state_bounds]
        u = [rng.uniform(lo, hi) for lo, hi in model.input_bounds]
        return x, u

    def f_at(x, u):
        return [p.eval_point(tuple(x) + tuple(u)) for p in programs]

    samples = []
    for _ in range(pairs):
        x, u = draw()
        xh, _ = draw()
        fx = f_at(x, u)
        fxh = f_at(xh, u)
        samples.append((x, xh, fx, fxh))
    return samples, G


def _check_lipschitz(samples, gamma):
    for x, xh, fx, fxh in samples:
        df = math.sqrt(sum((a - b) ** 2 for a, b in zip(fx, fxh)))
        dx = math.sqrt(sum((a - b) ** 2 for a, b in zip(x, xh)))
        assert _le(df, gamma * dx)


def _mix(G, vec):
    return [sum(G[i][k] * vec[k] for k in range(len(vec))) for i in range(len(G))]


def _check_osl(samples, G, gamma_s, gamma_lower):
    for x, xh, fx, fxh in samples:
        gdf = _mix(G, [a - b for a, b in zip(fx, fxh)])
        dx = [a - b for a, b in zip(x, xh)]
        inner = sum(a * b for a, b in zip(gdf, dx))
        norm2 = sum(d * d for d in dx)
        assert _le(inner, gamma_s * norm2)
        assert _le(gamma_lower * norm2, inner)


def _check_qib(samples, G, r):
    for x, xh, fx, fxh in samples:
        gdf = _mix(G, [a - b for a, b in zip(fx, fxh)])
        dx = [a - b for a, b in zip(x, xh)]
        lhs = sum(v * v for v in gdf)
        inner = sum(a * b for a, b in zip(gdf, dx))
        norm2 = sum(d * d for d in dx)
        assert _le(lhs, r.gamma_q1 * norm2 + r.gamma_q2 * inner)


def _check_qb(model, diag, seed):
    domain = model.omega()
    programs = [Program(fi, domain.labels) for fi in model.f]
    for point in random_points(domain, 10_000, seed=seed):
        fx = [p.eval_point(point) for p in programs]
        lhs = sum(v * v for v in fx)
        rhs = sum((d * xj) ** 2 for d, xj in zip(diag, point))
        assert _le(lhs, rhs)


def _check_jacobian(model, jb, seed):
    from certbound.expr import differentiate

    domain = model.omega()
    for i in range(1, model.g + 1):
        for j, name in enumerate(model.state_names, start=1):
            d = differentiate(model.f[i - 1], name)
            program = Program(d, domain.labels)
            lo, hi = jacobian_entry(jb, i, j)
            for point in random_points(domain, 300, seed=seed + 31 * i + j):
                value = program.eval_point(point)
                assert lo - 1e-9 <= value <= hi + 1e-9


def test_criterion_09_sampling_suite(traffic_s1, moving_object, generator):
    checks = 0

    # traffic: all five classes apply
    samples, G = _model_harness(traffic_s1, seed=901)
    cfg = BnBConfig(eps_h=1e-4, eps_om=1e-7, segments=1)
    _check_lipschitz(samples, lipschitz_case1(traffic_s1, cfg).gamma)
    _check_lipschitz(samples, lipschitz_case2(traffic_s1, cfg).gamma)
    osl = osl_gershgorin(traffic_s1, cfg)
    _check_osl(samples, G, osl.gamma_s, osl.lower_gamma)
    _check_qib(samples, G, qib(traffic_s1, cfg, eps1=0.7, eps2=0.2))
    _check_qb(traffic_s1, qb(traffic_s1, cfg).diag, seed=902)
    _check_jacobian(traffic_s1, jacobian_bounds(traffic_s1, cfg), seed=903)
    checks += 6

    # moving object
    samples, G = _model_harness(moving_object, seed=911)
    _check_lipschitz(samples, lipschitz_case1(moving_object, MO_CFG).gamma)
    osl = osl_gershgorin(moving_object, MO_CFG)
    _check_osl(samples, G, osl.gamma_s, osl.lower_gamma)
    _check_qib(samples, G, qib(moving_object, MO_CFG, eps1=2.0, eps2=0.5))
    _check_qb(moving_object, qb(moving_object, MO_CFG).diag, seed=912)
    _check_jacobian(moving_object, jacobian_bounds(moving_object, MO_CFG), seed=913)
    checks += 5

    # generator: loose-tolerance certificates are still certificates
    samples, G = _model_harness(generator, seed=921)
    _check_lipschitz(samples, lipschitz_case1(generator, GEN_CFG).gamma)
    _check_lipschitz(samples, lipschitz_case2(generator, GEN_CFG).gamma)
    osl = osl_gershgorin(generator, GEN_CFG)
    _check_osl(samples, G, osl.gamma_s, osl.lower_gamma)
    _check_qib(samples, G, qib(generator, GEN_CFG, eps1=0.3, eps2=0.6))
    _check_jacobian(
        generator,
        jacobian_bounds(generator, BnBConfig(eps_h=0.5, eps_om=1e-3, segments=2, max_steps=200)),
        seed=922,
    )
    checks += 5

    verdict(9, f"{checks} constants verified on 10^4-point samples per model")


# ---------------------------------------------------------------------------
# Criterion 10: baseline dominance
# ---------------------------------------------------------------------------


def test_criterion_10_baseline_dominance(traffic_s5, traffic_case1, moving_object_unit, traffic_s1):
    # quasi-random under-approximation of the 31-state constant
    program, domain = case1_objective(traffic_s5)
    rep = sample_max(program.eval_point, domain, 10_000, method="halton")
    halton_gamma = math.sqrt(max(rep.best_value, 0.0))
    certified = traffic_case1[31]
    assert halton_gamma <= certified.gamma + 1e-9
    assert halton_gamma <= 0.4579 - 0.05

    # every sampling method stays below the certified maximum
    cfg = BnBConfig(eps_h=1e-4, eps_om=1e-7, segments=1)
    for model in (traffic_s1, moving_object_unit):
        program, domain = case1_objective(model)
        res = maximize(
            program.eval_point,
            lambda dims: program.eval_interval(dims),
            domain,
            cfg,
        )
        for method in ("halton", "corners"):
            rep = sample_max(program.eval_point, domain, 2000, method=method)
            assert rep.best_value <= res.upper + 1e-9
    verdict(
        10,
        f"halton estimate {halton_gamma:.4f} < 0.4079; all methods below certified",
    )
