"""Model definitions, the text format, and gradient assembly."""

import math

import pytest

from certbound import ModelDef, load_model, parse_model_text
from certbound.errors import (
    DimensionMismatch,
    IntervalError,
    MissingBounds,
    ParseError,
)
from certbound import expr
from certbound.expr import ADD, Binary, differentiate, free_vars, is_zero, parse
from certbound.model import grad_sq_norm, model_to_text, parse_interval, reduced_domain
from certbound.models import build_traffic
from conftest import eval_real

DELTA = 31.3 / (500.0 * 0.053)

SAMPLE = """
# free-flow pair of segments
[constants]
delta = {delta}
[states]
x1 = [0, 0.0265]
x2 = [0, 0.0265]
[inputs]
u1 = [-1, 1]
[f]
f1 = delta*x1^2
f2 = "delta*(x2^2 - x1^2)"
[G]
1 0
0 1
""".format(delta=DELTA)


class TestTextFormat:
    def test_parse_sections(self):
        m = parse_model_text(SAMPLE)
        assert m.state_names == ("x1", "x2")
        assert m.input_names == ("u1",)
        assert m.g == 2
        assert m.G == ((1.0, 0.0), (0.0, 1.0))
        assert eval_real(m.f[0], {"x1": 2.0}) == pytest.approx(4 * DELTA)

    def test_quoted_and_bare_expressions_equal(self):
        m = parse_model_text(SAMPLE)
        assert eval_real(m.f[1], {"x1": 1.0, "x2": 2.0}) == pytest.approx(3 * DELTA)

    def test_round_trip(self):
        m = parse_model_text(SAMPLE)
        assert parse_model_text(model_to_text(m)) == m

    def test_unknown_section(self):
        with pytest.raises(ParseError):
            parse_model_text("[bogus]\nx = 1\n")

    def test_missing_states(self):
        with pytest.raises(MissingBounds):
            parse_model_text("[f]\nf1 = 1\n")

    def test_bad_bound_line(self):
        with pytest.raises(ParseError):
            parse_model_text("[states]\nx1 = 0, 1\n[f]\nf1 = x1\n")

    @pytest.mark.parametrize(
        "bound, message",
        [
            ("[1, 0]", "lower endpoint above upper"),
            ("[0, inf]", "endpoints must be finite"),
            ("[nan, 1]", "endpoints must be finite"),
            ("[0, x]", "could not convert"),
            ("[0, 1, 2]", "expected [lo, hi]"),
        ],
    )
    def test_invalid_bound_names_its_line(self, bound, message):
        with pytest.raises(ParseError, match="on line 3") as info:
            parse_model_text(f"[states]\nx1 = [0, 1]\nx2 = {bound}\n[f]\nf1 = x1\n")
        assert message in str(info.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_constant_names_its_line(self, value):
        with pytest.raises(ParseError, match=f"non-finite number '{value}' on line 2"):
            parse_model_text(f"[constants]\na = {value}\n[states]\nx1 = [0, 1]\n[f]\nf1 = a*x1^2\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_G_entry_names_its_line(self, value):
        text = f"[states]\nx1 = [0, 1]\nx2 = [0, 1]\n[f]\nf1 = -x1\nf2 = -x2\n[G]\n1 {value}\n0 1\n"
        with pytest.raises(ParseError, match=f"non-finite number '{value}' on line 8"):
            parse_model_text(text)

    def test_content_before_section(self):
        with pytest.raises(ParseError):
            parse_model_text("x1 = [0, 1]\n")

    def test_components_out_of_order_name_their_line(self):
        # Read in file order, f2's expression would be reported as df1/dx1.
        text = "[states]\nx1 = [0, 1]\nx2 = [0, 1]\n[f]\nf2 = x1\nf1 = x2*x2\n"
        with pytest.raises(ParseError, match="component 1 is named f2 on line 5, not f1"):
            parse_model_text(text)

    def test_repeated_component_names_its_line(self):
        # A second f1 line would add a component that the file does not name.
        text = "[states]\nx1 = [0, 1]\n[f]\nf1 = x1\nf1 = x1\n"
        with pytest.raises(ParseError, match="component 2 is named f1 on line 5, not f2"):
            parse_model_text(text)

    def test_constant_is_assigned_once(self):
        text = "[constants]\na = 1\na = 2\n[states]\nx1 = [0, 1]\n[f]\nf1 = a*x1\n"
        with pytest.raises(ParseError, match="constant a assigned again on line 3"):
            parse_model_text(text)

    def test_file_with_a_byte_order_mark_loads(self, tmp_path):
        path = tmp_path / "bom.nds"
        path.write_bytes(b"\xef\xbb\xbf" + SAMPLE.encode())
        assert load_model(str(path)) == parse_model_text(SAMPLE)


class TestModelDef:
    def test_undeclared_variable_rejected(self):
        with pytest.raises(DimensionMismatch):
            ModelDef(
                state_names=("x1",),
                state_bounds=((0, 1),),
                f=(parse("x1 + x9"),),
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(DimensionMismatch):
            ModelDef(
                state_names=("x1",),
                state_bounds=((0, 1),),
                input_names=("x1",),
                input_bounds=((0, 1),),
                f=(parse("x1"),),
            )

    def test_bad_G_shape(self):
        with pytest.raises(DimensionMismatch):
            ModelDef(
                state_names=("x1", "x2"),
                state_bounds=((0, 1), (0, 1)),
                f=(parse("x1"), parse("x2")),
                G=((1.0,),),
            )

    def test_implicit_identity_needs_square(self):
        m = ModelDef(
            state_names=("x1", "x2"),
            state_bounds=((0, 1), (0, 1)),
            f=(parse("x1*x2"),),
        )
        with pytest.raises(DimensionMismatch, match="implicit identity G needs g == n"):
            m.weighted_jacobian

    def test_omega_orders_states_then_inputs(self):
        m = parse_model_text(SAMPLE)
        omega = m.omega()
        assert omega.labels == ("x1", "x2", "u1")
        assert omega.pairs[2] == (-1.0, 1.0)

    def test_bounds_are_the_pairs_of_one_box(self):
        m = parse_model_text(SAMPLE)
        assert m.omega() is m.omega()
        assert m.state_bounds + m.input_bounds == m.omega().pairs
        assert m.state_bounds == ((0.0, 0.0265), (0.0, 0.0265))

    @pytest.mark.parametrize(
        "bound, message",
        [
            ((1.0, 0.0), "inverted interval [1.0, 0.0]"),
            ((0.0, math.inf), "non-finite endpoint in [0.0, inf]"),
            ((math.nan, 1.0), "non-finite endpoint in [nan, 1.0]"),
        ],
    )
    def test_the_box_checks_each_bound(self, bound, message):
        # A state's bound and an input's; the message is the one that
        # ``intervals.Interval`` gives for the same endpoints.
        for states, inputs in (((bound,), ()), (((0.0, 1.0),), (bound,))):
            names = ("u1",) if inputs else ()
            with pytest.raises(IntervalError) as info:
                ModelDef(("x1",), states, (parse("x1"),), names, inputs)
            assert str(info.value) == message

    def test_parse_interval_gives_a_pair_of_floats(self):
        pair = parse_interval(" [0, 1e-3] ")
        assert type(pair) is tuple and pair == (0.0, 1e-3)
        assert [type(x) for x in pair] == [float, float]


class TestStateJacobian:
    @pytest.mark.parametrize("name", ["traffic_s1", "moving_object", "generator"])
    def test_table_holds_exactly_the_nonzero_partials(self, name, request):
        m = request.getfixturevalue(name)
        assert len(m.state_jacobian) == m.g
        for fi, partials in zip(m.f, m.state_jacobian):
            dense = [(j, differentiate(fi, x)) for j, x in enumerate(m.state_names)]
            assert partials == tuple((j, d) for j, d in dense if not is_zero(d))

    def test_built_once(self, traffic_s1):
        assert traffic_s1.state_jacobian is traffic_s1.state_jacobian

    def test_built_without_simplify(self, monkeypatch):
        # Each partial is built simplified in the walk down its component.
        m = build_traffic(20)
        calls = []
        simplify = expr.simplify
        monkeypatch.setattr(expr, "simplify", lambda e: calls.append(e) or simplify(e))
        assert sum(map(len, m.state_jacobian)) > 200 and calls == []

    @staticmethod
    def _walked(monkeypatch) -> list:
        """The roots that ``expr.walk`` is called on from now on."""
        walked = []
        walk = expr.walk
        monkeypatch.setattr(expr, "walk", lambda root, *a: walked.append(root) or walk(root, *a))
        return walked

    def test_one_walk_per_component(self, monkeypatch):
        # The parser builds each component simplified, with its variable
        # names, so loading walks no tree; then one walk of each component
        # that holds a state gives all of its partials.
        text = model_to_text(build_traffic(20))
        walked = self._walked(monkeypatch)
        m = parse_model_text(text)
        assert walked == []
        assert sum(map(len, m.state_jacobian)) > 200
        states = set(m.state_names)
        holding = [fi for fi, names in zip(m.f, m.component_vars) if names & states]
        assert list(map(id, walked)) == list(map(id, holding))

    def test_a_component_without_a_state_is_not_walked(self, monkeypatch):
        m = parse_model_text(
            "[states]\nx = [0, 1]\n[inputs]\nu = [0, 1]\n[f]\nf1 = sqr(u)\nf2 = x*u\n"
        )
        walked = self._walked(monkeypatch)
        assert [[j for j, _ in row] for row in m.state_jacobian] == [[], [0]]
        assert walked == [m.f[1]]

    def test_quotient_has_no_entry_for_an_absent_state(self):
        m = ModelDef(
            state_names=("x1", "x2", "x3"),
            state_bounds=((0, 1),) * 3,
            f=(parse("x1/(1 + x2^2)"),),
        )
        assert [j for j, _ in m.state_jacobian[0]] == [0, 1]


class TestGradSqNorm:
    def test_single_square(self):
        m = parse_model_text(SAMPLE)
        g1 = grad_sq_norm(m, 1)
        for x in (0.0, 0.01, 0.0265):
            assert eval_real(g1, {"x1": x}) == pytest.approx(4 * DELTA**2 * x**2)

    def test_difference_type(self):
        m = parse_model_text(SAMPLE)
        g2 = grad_sq_norm(m, 2)
        for x1, x2 in ((0.01, 0.02), (0.0, 0.0265)):
            assert eval_real(g2, {"x1": x1, "x2": x2}) == pytest.approx(
                4 * DELTA**2 * (x1**2 + x2**2)
            )

    def test_onramp_merge_type(self):
        # difference term plus a ratio-weighted ramp feed: the squared
        # gradient norm carries the squared ratio on the ramp variable
        m = parse_model_text(
            "[constants]\ndelta = {d}\nalpha = 0.5\n[states]\n"
            "x1 = [0, 0.0265]\nx2 = [0, 0.0265]\nx3 = [0, 0.0265]\n"
            "[f]\nf1 = delta*(x2^2 - x1^2 + alpha*x3^2)\n".format(d=DELTA)
        )
        g = grad_sq_norm(m, 1)
        for x1, x2, x3 in ((0.01, 0.02, 0.005), (0.0265, 0.0265, 0.0265)):
            expected = 4 * DELTA**2 * (x2**2 + x1**2 + 0.25 * x3**2)
            assert eval_real(g, {"x1": x1, "x2": x2, "x3": x3}) == pytest.approx(expected)

    def test_constant_component_is_zero(self):
        m = ModelDef(
            state_names=("x1",),
            state_bounds=((0, 1),),
            f=(parse("3.5"),),
        )
        assert eval_real(grad_sq_norm(m, 1), {"x1": 0.3}) == 0.0

    def test_inputs_not_differentiated(self):
        m = ModelDef(
            state_names=("x1",),
            state_bounds=((0, 1),),
            input_names=("u1",),
            input_bounds=((-2, 2),),
            f=(parse("u1*x1"),),
        )
        g = grad_sq_norm(m, 1)
        assert eval_real(g, {"x1": 0.5, "u1": 2.0}) == pytest.approx(4.0)


class TestReducedDomain:
    def test_keeps_only_used_variables(self):
        m = parse_model_text(SAMPLE)
        box = reduced_domain(m, m.f[0])
        assert box.labels == ("x1",)

    def test_declaration_order_preserved(self):
        m = parse_model_text(SAMPLE)
        box = reduced_domain(m, Binary(ADD, m.f[1], m.f[0]))
        assert box.labels == ("x1", "x2")

    def test_constant_falls_back_to_full_box(self):
        m = ModelDef(
            state_names=("x1",),
            state_bounds=((0, 1),),
            f=(parse("2.0"),),
        )
        assert reduced_domain(m, m.f[0]).labels == ("x1",)

    @pytest.mark.parametrize("fixture", ["traffic_s5", "generator"])
    def test_equals_the_full_box_restricted(self, request, fixture):
        # Every component, every partial, the sum of each pair of
        # neighbouring components, a name the model does not declare, and no
        # name at all.
        m = request.getfixturevalue(fixture)
        partials = [d for row in m.state_jacobian for _, d in row]
        exprs = [*m.f, *partials, *(Binary(ADD, a, b) for a, b in zip(m.f, m.f[1:]))]
        for e in exprs + [parse("zz + x1"), parse("2.0")]:
            assert reduced_domain(m, e) == m.omega().restrict(free_vars(e))

    def test_declared_positions_and_bounds(self):
        m = parse_model_text(SAMPLE)
        assert m.declared["x2"] == (1, (0, 0.0265))
        assert m.declared["u1"] == (2, (-1, 1))
        assert "zz" not in m.declared
