"""Point-sampled baselines: deterministic, and always below certified bounds."""

import pytest

from certbound import BnBConfig, ModelDef
from certbound.baselines import (
    halton,
    jacobian_norm_sampled,
    sample_max,
)
from certbound.bnb import maximize
from certbound.errors import DomainError
from certbound.expr import ADD, Binary, Program, parse, simplify
from certbound.intervals import Box
from certbound.model import grad_sq_norm, reduced_domain
from certbound.params import lipschitz_case1
from conftest import make_box


class TestHalton:
    def test_base2_prefix(self):
        pts = [p[0] for p in halton(1, 3)]
        assert pts == pytest.approx([0.5, 0.25, 0.75])

    def test_first_point_dim2(self):
        first = next(iter(halton(2, 1)))
        assert first == pytest.approx((0.5, 1.0 / 3.0))

    def test_prefix_in_unit_cube(self):
        for point in halton(5, 300):
            assert all(0.0 <= x <= 1.0 for x in point)

    def test_invalid_dim(self):
        with pytest.raises(DomainError):
            list(halton(0, 1))


class TestSampleMax:
    def test_corners_quadratic(self):
        box = make_box([("x", -1, 1)])
        rep = sample_max(lambda p: p[0] ** 2, box, 10, method="corners")
        assert rep.best_value == pytest.approx(1.0)
        assert abs(rep.best_point[0]) == 1.0

    def test_deterministic(self):
        box = make_box([("x", 0, 1), ("y", 0, 1)])

        def h(p):
            return p[0] * (1 - p[0]) * p[1]

        a = sample_max(h, box, 500, method="halton")
        b = sample_max(h, box, 500, method="halton")
        assert a == b

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            sample_max(lambda p: 0.0, make_box([("x", 0, 1)]), 5, method="sobol")

    def test_corner_cap_large_dimension(self):
        # ``count`` caps the enumeration, whatever the number of corners.
        box = make_box([(f"x{i}", 0, 1) for i in range(40)])
        seen = []
        rep = sample_max(lambda p: seen.append(p) or sum(p), box, 10, method="corners")
        assert rep.samples == len(seen) == 10
        # Mask order: corner m has x_k at its upper end where bit k of m is set.
        assert seen[5] == (1, 0, 1) + (0,) * 37
        assert rep.best_value == 3  # corner 7: x0, x1 and x2 at 1


class TestUnderApproximation:
    @pytest.mark.parametrize(
        "text,bounds,eps_h",
        [
            ("x*(1 - x)", [("x", 0.0, 1.0)], 1e-6),
            ("x^2 - y^2", [("x", -1.0, 2.0), ("y", -1.0, 1.0)], 1e-6),
            ("sin(x)*cos(y)", [("x", -1.2, 1.2), ("y", 0.0, 1.5)], 1e-6),
        ],
    )
    @pytest.mark.parametrize("method", ["halton", "corners"])
    def test_never_exceeds_certified_upper(self, text, bounds, eps_h, method):
        e = simplify(parse(text))
        box = make_box(bounds)
        program = Program(e, box.labels)
        rep = sample_max(program.eval_point, box, 800, method=method)
        res = maximize(
            program.eval_point,
            lambda dims: program.eval_interval(dims),
            box,
            BnBConfig(eps_h=eps_h, eps_om=1e-9, segments=1, max_steps=30000),
        )
        assert rep.best_value <= res.upper + 1e-9

    def test_halton_below_certified_traffic_case1(self, traffic_s1):
        total = None
        for i in range(1, traffic_s1.g + 1):
            term = grad_sq_norm(traffic_s1, i)
            total = term if total is None else Binary(ADD, total, term)
        objective = simplify(total)
        domain = reduced_domain(traffic_s1, objective)
        program = Program(objective, domain.labels)
        rep = sample_max(program.eval_point, domain, 200, method="halton")
        res = maximize(
            program.eval_point,
            lambda dims: program.eval_interval(dims),
            domain,
            BnBConfig(eps_h=1e-4, eps_om=1e-7, segments=1),
        )
        assert rep.best_value <= res.upper + 1e-9


def jacobian_norm_at(model, point):
    """The sampled norm on the zero-width box at ``point``: its one sample."""
    at = Box([(x, x) for x in point], model.omega().labels)
    return jacobian_norm_sampled(model, at, count=1).best_value


class TestJacobianNorm:
    def test_constant_jacobian_shift(self):
        m = ModelDef(
            state_names=("x1", "x2"),
            state_bounds=((-1, 1), (-1, 1)),
            f=(parse("x2"), parse("0*x1")),
        )
        assert jacobian_norm_at(m, (0.3, -0.4)) == pytest.approx(1.0)

    def test_moving_object_corner(self, moving_object):
        assert jacobian_norm_at(moving_object, (5.0, 5.0)) == pytest.approx(150.0)

    def test_sampled_below_certified(self, moving_object_unit):
        rep = jacobian_norm_sampled(moving_object_unit, count=400)
        certified = lipschitz_case1(
            moving_object_unit, BnBConfig(eps_h=1e-6, eps_om=1e-9, segments=1)
        )
        assert rep.best_value <= certified.gamma + 1e-6

    def test_sampled_deterministic(self, moving_object_unit):
        a = jacobian_norm_sampled(moving_object_unit, count=100)
        b = jacobian_norm_sampled(moving_object_unit, count=100)
        assert a == b

