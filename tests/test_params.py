"""Certified constants: Jacobian bounds, Lipschitz, OSL, QIB, QB."""

import math
import random

import pytest

from certbound import (
    BnBConfig,
    Interval,
    ModelDef,
    eval_real,
    parse,
    qib_to_lipschitz,
    zeta,
)
from certbound.errors import (
    InvalidDimension,
    NecessaryConditionViolated,
    PreconditionViolated,
)
from certbound.params import (
    build_psi,
    build_xi,
    jacobian_bounds,
    lipschitz_case1,
    lipschitz_case2,
    osl_frobenius,
    osl_gershgorin,
    osl_zeta,
    qb,
    qib,
)

DELTA = 31.3 / (500.0 * 0.053)
RHO_C = 0.0265

CFG = BnBConfig(eps_h=1e-6, eps_om=1e-9, segments=1)
CFG_COARSE = BnBConfig(eps_h=1e-4, eps_om=1e-7, segments=1)


def small_model(texts, bounds, inputs=(), G=None, constants=None):
    state_names = tuple(name for name, _, _ in bounds)
    return ModelDef(
        state_names=state_names,
        state_bounds=tuple(Interval(lo, hi) for _, lo, hi in bounds),
        f=tuple(parse(t, constants) for t in texts),
        input_names=tuple(name for name, _, _ in inputs),
        input_bounds=tuple(Interval(lo, hi) for _, lo, hi in inputs),
        G=G,
    )


# ---------------------------------------------------------------------------
# The dimension factor and its independent oracle
# ---------------------------------------------------------------------------


def zeta_oracle(n: int, tol: float = 1e-12) -> float:
    """Independent check by bisection on the feasibility of a pivot weight t:
    the other n-1 coordinates must absorb mass 1-t with magnitudes <= t,
    which is possible iff (n-1)*t >= 1-t."""

    def feasible(t: float) -> bool:
        return t > 0.0 and (n - 1) * t >= 1.0 - t

    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return 1.0 / hi - 1.0


class TestZeta:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_oracle(self, n):
        assert zeta(n) == pytest.approx(zeta_oracle(n), abs=1e-9)
        assert zeta(n) == pytest.approx(n - 1, abs=1e-9)

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimension):
            zeta(1)
        with pytest.raises(InvalidDimension):
            zeta(0)


# ---------------------------------------------------------------------------
# Jacobian bounds
# ---------------------------------------------------------------------------


class TestJacobianBounds:
    def test_traffic_segment_derivative(self, traffic_s1):
        jb = jacobian_bounds(traffic_s1, CFG)
        # first mainline segment: d f2 / d x2 = 2*delta*x2 on [0, rho_c]
        iv = jb.entry(2, 2)
        assert iv.lo == pytest.approx(0.0, abs=1e-6)
        assert iv.hi == pytest.approx(2 * DELTA * RHO_C, abs=1e-6)

    def test_zero_derivatives_skip_runs(self, traffic_s1):
        jb = jacobian_bounds(traffic_s1, CFG)
        assert jb.entry(2, 7).lo == jb.entry(2, 7).hi == 0.0
        nonzero = sum(
            1
            for i in range(1, traffic_s1.g + 1)
            for j in range(1, traffic_s1.n + 1)
            if jb.entry(i, j) != Interval(0.0, 0.0)
        )
        assert jb.stats.runs == 2 * nonzero  # one max and one min per entry

    def test_moving_object_entry(self, moving_object):
        jb = jacobian_bounds(moving_object, BnBConfig(eps_h=1e-3, eps_om=1e-7, segments=1))
        iv = jb.entry(1, 1)  # range of -3*x1^2 - x2^2 over [-5, 5]^2
        assert iv.lo == pytest.approx(-100.0, abs=1e-3)
        assert iv.hi == pytest.approx(0.0, abs=1e-3)

    def test_sampled_derivatives_enclosed(self, moving_object):
        from certbound import differentiate

        jb = jacobian_bounds(moving_object, CFG_COARSE)
        rng = random.Random(3)
        for i in (1, 2):
            for j, name in enumerate(moving_object.state_names, start=1):
                d = differentiate(moving_object.f[i - 1], name)
                iv = jb.entry(i, j)
                for _ in range(200):
                    point = {
                        "x1": rng.uniform(-5, 5),
                        "x2": rng.uniform(-5, 5),
                    }
                    value = eval_real(d, point)
                    assert iv.lo - 1e-9 <= value <= iv.hi + 1e-9


# ---------------------------------------------------------------------------
# Lipschitz
# ---------------------------------------------------------------------------


class TestLipschitz:
    def test_identity_map(self):
        m = small_model(["x1", "x2", "x3"], [("x1", -1, 1), ("x2", 0, 2), ("x3", -3, -1)])
        r = lipschitz_case1(m, CFG)
        assert r.gamma == pytest.approx(math.sqrt(3), abs=1e-6)
        assert r.eps_optimal

    def test_single_component_cases_agree(self):
        m = small_model(["x1^2 - x1*x2"], [("x1", -1, 1), ("x2", -1, 1)])
        r1 = lipschitz_case1(m, CFG)
        r2 = lipschitz_case2(m, CFG)
        assert r1.gamma == pytest.approx(r2.gamma, abs=1e-9)

    def test_case_ordering(self, traffic_s1, moving_object_unit):
        for model in (traffic_s1, moving_object_unit):
            r1 = lipschitz_case1(model, CFG_COARSE)
            r2 = lipschitz_case2(model, CFG_COARSE)
            assert r1.gamma <= r2.gamma + 1e-9

    def test_traffic_dedup_counts(self, traffic_s5):
        r = lipschitz_case2(traffic_s5, CFG_COARSE)
        assert r.stats.runs == 5  # five structurally distinct nonlinearities
        assert r.gamma == pytest.approx(0.4579, abs=5e-4)

    def test_moving_object_case1(self, moving_object):
        r = lipschitz_case1(moving_object, CFG_COARSE)
        assert r.gamma == pytest.approx(math.sqrt(25000.0), abs=1e-2)

    def test_constant_model_zero(self):
        m = small_model(["2.5"], [("x1", -1, 1)])
        r = lipschitz_case1(m, CFG)
        assert r.gamma == 0.0 and r.eps_optimal


# ---------------------------------------------------------------------------
# G-weighted Jacobian matrices
# ---------------------------------------------------------------------------


class TestXiPsi:
    def test_moving_object_entries(self, moving_object):
        xi = build_xi(moving_object)
        rng = random.Random(8)
        expect = {
            (0, 0): lambda x1, x2: -3 * x1**2 - x2**2,
            (0, 1): lambda x1, x2: -2 * x1 * x2,
            (1, 0): lambda x1, x2: -2 * x1 * x2,
            (1, 1): lambda x1, x2: -(x1**2) - 3 * x2**2,
        }
        for _ in range(100):
            x1, x2 = rng.uniform(-5, 5), rng.uniform(-5, 5)
            for (i, j), fn in expect.items():
                got = eval_real(xi[i][j], {"x1": x1, "x2": x2})
                assert got == pytest.approx(fn(x1, x2), rel=1e-12, abs=1e-12)

    def test_zero_G(self):
        m = small_model(
            ["x1^2", "x2^2"],
            [("x1", -1, 1), ("x2", -1, 1)],
            G=((0.0, 0.0), (0.0, 0.0)),
        )
        xi = build_xi(m)
        assert all(
            eval_real(xi[i][j], {"x1": 0.3, "x2": 0.4}) == 0.0
            for i in range(2)
            for j in range(2)
        )

    def test_linear_map_constant_xi(self):
        m = small_model(
            ["2*x1 + x2", "x1 + 2*x2"], [("x1", -1, 1), ("x2", -1, 1)]
        )
        xi = build_xi(m)
        values = [
            [eval_real(xi[i][j], {"x1": 0.5, "x2": -0.25}) for j in range(2)]
            for i in range(2)
        ]
        assert values == [[2.0, 1.0], [1.0, 2.0]]

    def test_psi_symmetric(self, moving_object):
        psi = build_psi(moving_object)
        rng = random.Random(5)
        for _ in range(50):
            env = {"x1": rng.uniform(-5, 5), "x2": rng.uniform(-5, 5)}
            assert eval_real(psi[0][1], env) == pytest.approx(
                eval_real(psi[1][0], env)
            )


# ---------------------------------------------------------------------------
# One-sided Lipschitz
# ---------------------------------------------------------------------------


class TestOSL:
    def test_gershgorin_constant_matrix(self):
        m = small_model(
            ["2*x1 + x2", "x1 + 2*x2"], [("x1", -1, 1), ("x2", -1, 1)]
        )
        r = osl_gershgorin(m, CFG)
        assert r.gamma_s == pytest.approx(3.0, abs=1e-6)  # equals lambda_max here
        assert r.lower_gamma == pytest.approx(1.0, abs=1e-6)

    def test_zeta_constant_matrix(self):
        m = small_model(["x2", "x1"], [("x1", -1, 1), ("x2", -1, 1)])
        r = osl_zeta(m, CFG)
        assert r.gamma_s == pytest.approx(1.0, abs=1e-6)

    def test_frobenius_zero_map(self):
        m = small_model(["0*x1", "0*x2"], [("x1", -1, 1), ("x2", -1, 1)])
        r = osl_frobenius(m, CFG)
        assert r.gamma_s == 0.0 and r.eps_optimal
        assert r.stats.runs == 0  # identically-zero matrix short-circuits

    def test_frobenius_negative_identity(self):
        m = small_model(["-x1", "-x2"], [("x1", -1, 1), ("x2", -1, 1)])
        r = osl_frobenius(m, CFG)
        assert r.gamma_s == pytest.approx(math.sqrt(2), abs=1e-6)

    def test_moving_object_gershgorin(self, moving_object):
        r = osl_gershgorin(moving_object, CFG_COARSE)
        assert -1e-4 <= r.gamma_s <= 1e-4
        assert r.lower_gamma == pytest.approx(-150.0, abs=1e-3)
        assert r.eps_optimal

    def test_row_circle_below_frobenius_on_corpus(
        self, moving_object_unit, traffic_s1
    ):
        for model in (moving_object_unit, traffic_s1):
            f = osl_frobenius(model, CFG_COARSE)
            g = osl_gershgorin(model, CFG_COARSE)
            assert f.gamma_s >= 0.0
            assert g.gamma_s <= f.gamma_s + 1e-9

    def test_zeta_ordering_two_state_model(self, moving_object_unit):
        # With two states the dimension factor is 1, so the row bound cannot
        # exceed the Frobenius bound here; for wider models the factor n-1
        # can push it above (no ordering is asserted there).
        f = osl_frobenius(moving_object_unit, CFG_COARSE)
        z = osl_zeta(moving_object_unit, CFG_COARSE)
        assert z.gamma_s <= f.gamma_s + 1e-9

    def test_zeta_on_traffic_sound_but_looser(self, traffic_s1):
        # The tied inner maximum makes the whole boundary face optimal, so
        # run coarse; the certified value must still dominate the sampled
        # extremal eigenvalue.
        from certbound.params import osl_extremal_eigen_sampled

        cfg = BnBConfig(eps_h=5e-3, eps_om=1e-6, segments=1, max_steps=20000)
        z = osl_zeta(traffic_s1, cfg)
        sampled_hi, sampled_lo = osl_extremal_eigen_sampled(traffic_s1, count=300)
        assert z.gamma_s >= sampled_hi - 1e-9
        assert z.lower_gamma <= sampled_lo + 1e-9

    def test_zeta_needs_two_states(self):
        m = small_model(["x1^2"], [("x1", -1, 1)])
        with pytest.raises(InvalidDimension):
            osl_zeta(m, CFG)


# ---------------------------------------------------------------------------
# QIB
# ---------------------------------------------------------------------------


class TestQIB:
    def test_assembly_identities(self, moving_object_unit):
        r = qib(moving_object_unit, CFG_COARSE, eps1=2.0, eps2=0.5)
        assert r.gamma_q2 == 0.5 - 2.0
        assert r.gamma_q1 == pytest.approx(
            2.0 * r.osl_upper - 0.5 * r.osl_lower + r.gamma_m
        )

    def test_zero_weights(self, moving_object_unit):
        r = qib(moving_object_unit, CFG_COARSE, eps1=0.0, eps2=0.0)
        assert r.gamma_q2 == 0.0
        assert r.gamma_q1 == pytest.approx(r.gamma_m)

    def test_negative_weights_rejected(self, moving_object_unit):
        with pytest.raises(PreconditionViolated):
            qib(moving_object_unit, CFG_COARSE, eps1=-1.0, eps2=0.0)

    def test_distributed_at_least_joint(self, moving_object_unit):
        joint = qib(moving_object_unit, CFG_COARSE, eps1=0.0, eps2=0.0)
        split = qib(
            moving_object_unit, CFG_COARSE, eps1=0.0, eps2=0.0, distributed=True
        )
        assert split.gamma_m >= joint.gamma_m - 1e-9

    def test_moving_object_reference_values(self, moving_object):
        cfg = BnBConfig(eps_h=1e-4, eps_om=1e-8, segments=1)
        r = qib(moving_object, cfg, eps1=0.0, eps2=0.1)
        assert r.gamma_m == pytest.approx(25000.0, abs=0.1)
        assert r.osl_lower == pytest.approx(-150.0, abs=1e-3)
        assert r.gamma_q1 == pytest.approx(25015.0, abs=0.2)


class TestQIBEstimators:
    @pytest.mark.parametrize("estimator", ["frobenius", "gershgorin", "zeta"])
    def test_upper_source_selected(self, moving_object_unit, estimator):
        r = qib(moving_object_unit, CFG_COARSE, eps1=1.0, eps2=0.0,
                osl_estimator=estimator)
        assert r.gamma_q2 == -1.0
        # the lower bound always comes from the row-circle estimator
        assert r.osl_lower == pytest.approx(-6.0, abs=1e-3)
        assert r.gamma_q1 == pytest.approx(r.osl_upper - 0.0 + r.gamma_m)

    def test_unknown_estimator(self, moving_object_unit):
        with pytest.raises(ValueError):
            qib(moving_object_unit, CFG_COARSE, eps1=0.0, eps2=0.0,
                osl_estimator="power-iteration")


# ---------------------------------------------------------------------------
# QB
# ---------------------------------------------------------------------------


class TestQB:
    def test_scalar_square(self):
        m = small_model(["x1^2"], [("x1", -1, 1)])
        r = qb(m, CFG)
        assert r.diag[0] == pytest.approx(2.0, abs=1e-5)

    def test_moving_object_unit_box(self, moving_object_unit):
        r = qb(moving_object_unit, CFG_COARSE)
        assert r.diag[0] == pytest.approx(math.sqrt(40.0), abs=1e-3)
        assert r.diag[1] == pytest.approx(math.sqrt(40.0), abs=1e-3)

    def test_inputs_rejected(self):
        m = small_model(
            ["x1*u1"], [("x1", -1, 1)], inputs=(("u1", -1, 1),)
        )
        with pytest.raises(PreconditionViolated):
            qb(m, CFG)

    def test_nonvanishing_origin_rejected(self):
        m = small_model(["x1 + 1"], [("x1", -1, 1)])
        with pytest.raises(PreconditionViolated):
            qb(m, CFG)

    def test_origin_outside_domain_rejected(self):
        m = small_model(["x1^2 - 1"], [("x1", 1, 2)])
        with pytest.raises(PreconditionViolated):
            qb(m, CFG)

    def test_sampled_inequality(self, moving_object_unit):
        r = qb(moving_object_unit, CFG_COARSE)
        rng = random.Random(12)
        for _ in range(500):
            x1, x2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
            f1 = -x1 * (x1**2 + x2**2)
            f2 = -x2 * (x1**2 + x2**2)
            lhs = f1 * f1 + f2 * f2
            rhs = (r.diag[0] * x1) ** 2 + (r.diag[1] * x2) ** 2
            assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------


class TestQIBToLipschitz:
    def test_simple(self):
        assert qib_to_lipschitz(2.0, 0.0) == pytest.approx(2.0)

    def test_round_trip_from_lipschitz(self):
        for gamma in (0.5, 1.0, 7.25):
            assert qib_to_lipschitz(gamma**2 / 2.0, 0.0) == pytest.approx(gamma)

    def test_infeasible_pair(self):
        with pytest.raises(NecessaryConditionViolated):
            qib_to_lipschitz(-1.0, 1.0)
