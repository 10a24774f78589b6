"""Built-in case-study models."""

import math
import random
from collections import Counter

import pytest

from certbound import BnBConfig, expr, parse_model_text
from certbound.errors import IntervalError, MissingBounds
from certbound.expr import differentiate, free_vars, structural_key_with_vars
from certbound.model import model_to_text
from certbound.models import build_generator, build_moving_object, build_traffic
from certbound.params import lipschitz_case1, lipschitz_case2
from conftest import GENERATOR_PARAMS, eval_real


class TestTraffic:
    def test_dimensions(self):
        # The nonlinearity types (a, b, c, d, e) are carried by (s+1, s, 2s,
        # s, s) states, counted by shape; the first section has one of each.
        for s in (1, 2, 5):
            model = build_traffic(s)
            assert model.n == 6 * s + 1
            shapes = [structural_key_with_vars(fi)[0] for fi in model.f]
            counts = Counter(shapes)
            a, c, d, b, _, _, e = shapes[:7]
            assert [counts[shape] for shape in (a, b, c, d, e)] == [s + 1, s, 2 * s, s, s]
            assert len(counts) == 5

    def test_delta_default(self):
        # delta = v_f / (seg_len * rho_m) scales every component.
        model = build_traffic()
        assert model.f[0].left.value == pytest.approx(1.1811320754716981, rel=1e-12)
        assert model.state_bounds[0] == (0.0, 0.0265)

    def test_bounds_are_free_flow_range(self):
        model = build_traffic(1)
        assert model.state_bounds == ((0.0, 0.0265),) * model.n

    def test_invalid_sections(self):
        with pytest.raises(MissingBounds, match="^sections must be an integer >= 1, got 0$"):
            build_traffic(0)

    @pytest.mark.parametrize("sections", [1, 2, 3, 4])
    def test_cases_agree(self, sections):
        model = build_traffic(sections)
        cfg = BnBConfig(eps_h=1e-4, eps_om=1e-7, segments=1)
        r1 = lipschitz_case1(model, cfg)
        r2 = lipschitz_case2(model, cfg)
        assert r1.gamma == pytest.approx(r2.gamma, abs=1e-3)
        assert r1.gamma <= r2.gamma + 1e-9

    def test_gradients_match_finite_differences(self):
        _check_gradients(build_traffic(1), seed=1)


class TestGenerator:
    def test_requires_bounds(self):
        with pytest.raises(MissingBounds):
            build_generator(((-1, 1),) * 3, ((-1, 1),) * 4)

    def test_placeholder_constants_warn(self):
        with pytest.warns(UserWarning) as warned:
            build_generator(((-1, 1),) * 4, ((-1, 1),) * 4)
        assert warned[0].filename == __file__  # attributed to the caller

    @pytest.mark.parametrize(
        "bound, message",
        [
            ((1.0, -1.0), "inverted interval [1.0, -1.0]"),
            ((-math.inf, 1.0), "non-finite endpoint in [-inf, 1.0]"),
        ],
    )
    def test_the_model_checks_the_bounds(self, bound, message):
        with pytest.raises(IntervalError) as info:
            build_generator(((-1.0, 1.0),) * 3 + (bound,), ((-1.0, 1.0),) * 4, alpha1=0.3)
        assert str(info.value) == message

    def test_constant_first_component(self, generator):
        point = {f"x{i}": 0.37 for i in range(1, 5)}
        point.update({f"u{i}": -0.21 for i in range(1, 5)})
        assert eval_real(generator.f[0], point) == pytest.approx(-GENERATOR_PARAMS["alpha1"])

    def test_third_component_at_zero_angle(self, generator):
        point = {f"x{i}": 0.0 for i in range(1, 5)}
        point.update({"u1": 0.0, "u2": 0.0, "u3": 0.4, "u4": -0.8})
        # cos 0 = 1, sin 0 = 0
        assert eval_real(generator.f[2], point) == pytest.approx(
            GENERATOR_PARAMS["alpha8"] * -0.8
        )

    def test_fourth_component_angle_derivative(self, generator):
        d = differentiate(generator.f[3], "x1")
        a10 = GENERATOR_PARAMS["alpha10"]
        rng = random.Random(5)
        for _ in range(50):
            x1 = rng.uniform(-0.6, 2.2)
            u3 = rng.uniform(-1.5, 2.0)
            u4 = rng.uniform(-1.0, 1.6)
            point = {"x1": x1, "x2": 0.0, "x3": 0.5, "x4": 0.0,
                     "u1": 0.0, "u2": 0.0, "u3": u3, "u4": u4}
            expected = -a10 * u3 * math.sin(x1) + a10 * u4 * math.cos(x1)
            assert eval_real(d, point) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_double_angle_terms_present(self, generator):
        # f2 depends on x1 through both single and double angle terms
        assert "x1" in free_vars(generator.f[1])
        d = differentiate(generator.f[1], "x1")
        point = {"x1": 0.3, "x2": 0.0, "x3": 0.8, "x4": 0.2,
                 "u1": 0.0, "u2": 0.0, "u3": 0.9, "u4": 1.1}
        step = 1e-6
        up = dict(point, x1=point["x1"] + step)
        down = dict(point, x1=point["x1"] - step)
        fd = (eval_real(generator.f[1], up) - eval_real(generator.f[1], down)) / (2 * step)
        assert eval_real(d, point) == pytest.approx(fd, rel=1e-6)

    def test_gradients_match_finite_differences(self, generator):
        _check_gradients(generator, seed=2)


class TestMovingObject:
    def test_vanishes_at_origin(self, moving_object):
        point = {"x1": 0.0, "x2": 0.0}
        assert eval_real(moving_object.f[0], point) == 0.0
        assert eval_real(moving_object.f[1], point) == 0.0

    def test_unit_point(self, moving_object):
        point = {"x1": 1.0, "x2": 1.0}
        assert eval_real(moving_object.f[0], point) == pytest.approx(-2.0)
        assert eval_real(moving_object.f[1], point) == pytest.approx(-2.0)

    def test_domain_radius(self):
        model = build_moving_object(2.5)
        assert model.state_bounds == ((-2.5, 2.5),) * 2

    def test_invalid_radius(self):
        with pytest.raises(MissingBounds, match=r"^r must be finite and positive, got 0\.0$"):
            build_moving_object(0.0)

    def test_gradients_match_finite_differences(self, moving_object):
        _check_gradients(moving_object, seed=3)


# Each built-in model, by a name for the test ids.
BUILDS = {
    "traffic-s1": lambda: build_traffic(1),
    "traffic-s5": lambda: build_traffic(5),
    "traffic-s20": lambda: build_traffic(20),
    "moving-object-r1": lambda: build_moving_object(1.0),
    "moving-object-r5": lambda: build_moving_object(5.0),
    "generator": lambda: build_generator(**GENERATOR_PARAMS),
}


class TestOneConstructionPath:
    """A built-in model is read from the text of its components, as a model
    file is."""

    @pytest.mark.parametrize("name", ["traffic-s20", "moving-object-r5", "generator"])
    def test_building_walks_no_tree(self, monkeypatch, name):
        # The parser gives each component simplified, with its variable
        # names, so neither ``simplify`` nor ``free_vars`` walks it.
        walked = []
        walk = expr.walk
        monkeypatch.setattr(expr, "walk", lambda root, *a: walked.append(root) or walk(root, *a))
        model = BUILDS[name]()
        assert walked == [] and len(model.component_vars) == len(model.f)

    @pytest.mark.parametrize(
        "name", ["traffic-s1", "traffic-s5", "moving-object-r1", "moving-object-r5", "generator"]
    )
    def test_the_written_file_reads_back_as_the_model(self, name):
        model = BUILDS[name]()
        again = parse_model_text(model_to_text(model))
        assert again == model and again.component_vars == model.component_vars


class TestParameters:
    """Each builder checks its parameters at its top, and a bad one raises
    ``MissingBounds`` naming it with its value."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: build_traffic(2.0), "sections must be an integer >= 1, got 2.0"),
            (lambda: build_traffic(1, v_f=math.inf), "v_f must be finite and positive, got inf"),
            (lambda: build_traffic(1, rho_m=-0.05), "rho_m must be finite and positive, got -0.05"),
            (lambda: build_traffic(1, seg_len=0.0), "seg_len must be finite and positive, got 0.0"),
            (lambda: build_traffic(1, alpha=math.nan), "alpha must be in [0, 1], got nan"),
            (lambda: build_traffic(1, alpha=1.5), "alpha must be in [0, 1], got 1.5"),
            (
                lambda: build_traffic(1, rho_m=1e-200, seg_len=1e-200),
                "v_f / (seg_len * rho_m) must be finite, got inf",
            ),
            (
                lambda: build_generator(((0, 1),) * 4, ((0, 1),) * 4, alpha6=-math.inf),
                "alpha6 must be finite, got -inf",
            ),
            (lambda: build_moving_object(math.nan), "r must be finite and positive, got nan"),
        ],
    )
    def test_a_bad_parameter_is_named(self, build, message):
        with pytest.raises(MissingBounds) as info:
            build()
        assert str(info.value) == message

    def test_a_splitting_ratio_at_either_end_builds(self):
        for alpha in (0.0, 1.0):
            assert build_traffic(1, alpha=alpha).n == 7

    def test_the_bench_model_files_are_what_the_builders_write(self, workloads):
        # ``perfbench/workloads.py`` writes its own model files, byte-identical
        # at seed 0 to ``make-model``'s.
        for s in (1, 5, 20):
            assert model_to_text(build_traffic(s)) == workloads.traffic_text(
                s, 31.3, 0.053, 500.0, 0.5
            )
        assert model_to_text(build_moving_object()) == workloads.moving_object_text(5.0)
        alphas, states, inputs = workloads.GEN_ALPHAS, workloads.GEN_STATES, workloads.GEN_INPUTS
        assert model_to_text(build_generator(states, inputs, *alphas)) == workloads.generator_text(
            alphas, states, inputs
        )


def _check_gradients(model, seed: int, samples: int = 40) -> None:
    rng = random.Random(seed)
    omega = model.omega()
    step = 1e-6
    for fi in model.f:
        names = sorted(free_vars(fi))
        derivs = {name: differentiate(fi, name) for name in names}
        for _ in range(samples):
            env = {
                label: rng.uniform(lo + step, max(lo + step, hi - step))
                for label, (lo, hi) in zip(omega.labels, omega.pairs)
            }
            for name in names:
                hi = dict(env, **{name: env[name] + step})
                lo = dict(env, **{name: env[name] - step})
                fd = (eval_real(fi, hi) - eval_real(fi, lo)) / (2 * step)
                assert eval_real(derivs[name], env) == pytest.approx(
                    fd, rel=1e-5, abs=1e-7
                )
