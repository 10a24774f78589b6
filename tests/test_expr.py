"""Expression layer: parser, derivatives, evaluation, structural keys."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import certbound
from certbound import BnBConfig, ModelDef, lipschitz_case2
from certbound import expr as expr_module
from certbound.errors import (
    DivisionByZeroInterval,
    DomainError,
    NonDifferentiable,
    ParseError,
    UnboundVariable,
)
from certbound.expr import (
    Binary,
    Const,
    PowInt,
    Program,
    Unary,
    Var,
    differentiate,
    free_vars,
    parse,
    simplified_sum,
    simplify,
    structural_key,
    structural_key_with_vars,
    to_text,
)
from conftest import (
    corpus_expressions,
    encloses,
    eval_interval,
    eval_real,
    expr_sum,
    make_box,
    random_points,
    random_polynomial,
    reference_text,
)


DELTA = 31.3 / (500.0 * 0.053)


class TestParse:
    def test_difference_of_squares_structure(self):
        e = parse("x1^2 - x2^2")
        assert isinstance(e, Binary) and e.op == "-"
        assert e.left == PowInt(Var("x1"), 2)
        assert e.right == PowInt(Var("x2"), 2)

    def test_product_eval(self):
        e = parse("-2*x1*x2")
        assert eval_real(e, {"x1": 3.0, "x2": 4.0}) == pytest.approx(-24.0)

    def test_unclosed_paren(self):
        with pytest.raises(ParseError) as err:
            parse("sin(x1")
        assert err.value.offset == len("sin(x1")
        assert ")" in err.value.expected

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse("tan(x1)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x1 + 2 3")

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + $2")
        assert err.value.offset == 5

    def test_power_precedence(self):
        # ^ binds above unary minus: -x^2 == -(x^2)
        assert eval_real(parse("-x^2"), {"x": 3.0}) == pytest.approx(-9.0)
        assert eval_real(parse("2*x^2"), {"x": 3.0}) == pytest.approx(18.0)

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("x^2.5")
        with pytest.raises(ParseError):
            parse("x^-1")
        # More digits than ``int`` converts by default.
        with pytest.raises(ParseError) as err:
            parse("x^" + "9" * 5000)
        assert str(err.value) == "exponent too long: 5000 digits at offset 2"
        assert err.value.offset == 2
        # Above 2**53, ``float(k)`` of an exponent is not always exact.
        assert parse(f"x^{2**53}") == PowInt(Var("x"), 2**53)
        with pytest.raises(ParseError) as err:
            parse(f"x + x^{2**53 + 1}")
        assert str(err.value) == "exponent too large: above 2**53 at offset 6"

    def test_constants_substituted(self):
        e = parse("d*x", {"d": 2.5})
        assert free_vars(e) == {"x"}
        assert eval_real(e, {"x": 2.0}) == pytest.approx(5.0)

    def test_scientific_literals(self):
        assert eval_real(parse("1.5e-3 + x"), {"x": 0.0}) == pytest.approx(0.0015)

    def test_max_of_two(self):
        e = parse("max(x1, 2*x2)")
        assert e == Binary("max", Var("x1"), Binary("*", Const(2.0), Var("x2")))
        assert eval_real(e, {"x1": 1.0, "x2": 3.0}) == 6.0

    @pytest.mark.parametrize("text", ["max(x1)", "max(x1, x2, x3)", "max()", "abs(x1, x2)", "x1, x2"])
    def test_max_takes_exactly_two_arguments(self, text):
        with pytest.raises(ParseError):
            parse(text)


class TestDifferentiate:
    def test_difference_of_squares(self):
        e = parse("d*(x1^2 - x0^2)", {"d": DELTA})
        d = differentiate(e, "x1")
        for x1 in (-1.0, 0.0, 0.7, 2.0):
            assert eval_real(d, {"x1": x1, "x0": 0.3}) == pytest.approx(2 * DELTA * x1)

    def test_unrelated_variable(self):
        assert differentiate(parse("x1^2"), "x2") == Const(0.0)

    @pytest.mark.parametrize("text", ["abs(x1 - x2)", "x1/(1 + x2^2)"])
    def test_absent_variable_is_exactly_zero(self, text):
        # Neither a kink nor a quotient-rule residue such as 0/sqr(...).
        assert differentiate(parse(text), "x3") == Const(0.0)

    def test_abs_free_of_the_variable_is_constant(self):
        d = differentiate(parse("x3*abs(x1 - x2)"), "x3")
        assert eval_real(d, {"x1": 1.0, "x2": 3.0, "x3": 5.0}) == 2.0
        assert differentiate(parse("x3 + abs(x1 - x2)"), "x3") == Const(1.0)

    def test_cubic_radial(self):
        d = differentiate(parse("-x1*(x1^2 + x2^2)"), "x1")
        for x1, x2 in ((1.0, 2.0), (-0.5, 0.3), (2.0, -2.0)):
            assert eval_real(d, {"x1": x1, "x2": x2}) == pytest.approx(
                -3 * x1**2 - x2**2
            )

    def test_abs_kink_rejected(self):
        with pytest.raises(NonDifferentiable):
            differentiate(parse("abs(x1)"), "x1")

    def test_abs_of_nonnegative_ok(self):
        d = differentiate(parse("abs(x1^2)"), "x1")
        assert eval_real(d, {"x1": 3.0}) == pytest.approx(6.0)

    def test_max_is_not_differentiated(self):
        with pytest.raises(NonDifferentiable):
            differentiate(parse("x1 + max(x1, x2)"), "x2")
        assert differentiate(parse("max(x1, x2)"), "x3") == Const(0.0)
        assert differentiate(parse("x3*max(x1, x2)"), "x3") == parse("max(x1, x2)")
        # A kink inside a max free of the variable is not differentiated either.
        assert differentiate(parse("x3*max(x1, abs(x2))"), "x3") == parse("max(x1, abs(x2))")

    @pytest.mark.parametrize(
        "text, v, kink",
        [
            # The max is refused before the abs inside it is looked at.
            ("max(abs(x1), x2)", "x1", "max(abs(x1), x2)"),
            ("abs(max(x1, x2))", "x2", "max(x1, x2)"),
        ],
    )
    def test_outermost_max_with_the_variable_is_reported(self, text, v, kink):
        with pytest.raises(NonDifferentiable) as info:
            differentiate(parse(text), v)
        assert str(info.value) == f"cannot differentiate {kink}: not smooth"

    def test_quotient_rule(self):
        d = differentiate(parse("x1/(1 + x2^2)"), "x2")
        assert eval_real(d, {"x1": 2.0, "x2": 1.0}) == pytest.approx(-1.0)

    @pytest.mark.parametrize(
        "text, v, expected",
        [
            ("x1*sqrt(x2)", "x1", "sqrt(x2)"),
            ("sqrt(x2)*x1", "x1", "sqrt(x2)"),
            ("x1/sqrt(x2)", "x1", "sqrt(x2)/sqr(sqrt(x2))"),
            ("x1 + sqrt(x2)/exp(x2)", "x1", "1.0"),
            ("sin(x2)*x1 - cos(x2)", "x1", "sin(x2)"),
        ],
    )
    def test_subtrees_without_the_variable_leave_no_debris(self, text, v, expected):
        # No 0/(2*sqrt(x2)) residue that fails on every box touching x2 = 0.
        assert to_text(differentiate(parse(text), v)) == expected

    def test_shared_subtree_is_differentiated(self):
        inner = parse("x1*x2")
        d = differentiate(Binary("+", inner, Unary("sqr", inner)), "x1")
        assert eval_real(d, {"x1": 3.0, "x2": 2.0}) == pytest.approx(2.0 + 2 * 6.0 * 2.0)

    @pytest.mark.parametrize("case", range(len(corpus_expressions())))
    def test_gradient_matches_finite_differences(self, case):
        e, box = corpus_expressions()[case]
        names = sorted(free_vars(e))
        try:
            derivs = [differentiate(e, name) for name in names]
        except NonDifferentiable:
            pytest.skip("expression has an uncertified kink")
        program = Program(e, box.labels)
        deriv_programs = [Program(d, box.labels) for d in derivs]
        slots = {name: box.labels.index(name) for name in names}
        step = 1e-6
        checked = 0
        for point in random_points(box, 1100, seed=case):
            # stay inside the box so sqrt/abs arguments remain valid
            if any(
                point[slots[n]] - step < lo or point[slots[n]] + step > hi
                for n, (lo, hi) in zip(box.labels, box.pairs)
                if n in names
            ):
                continue
            for name, dprog in zip(names, deriv_programs):
                up = list(point)
                down = list(point)
                up[slots[name]] += step
                down[slots[name]] -= step
                fd = (program.eval_point(up) - program.eval_point(down)) / (2 * step)
                assert dprog.eval_point(point) == pytest.approx(fd, rel=1e-5, abs=5e-6)
            checked += 1
        assert checked >= 1000


class TestGradient:
    """``Program.gradient(dims)``: the enclosure of the expression and every
    partial derivative's, from one run of the gradient kernel."""

    DIMS = [(0.5, 1.0), (1.0, 2.0), (-1.0, 1.0)]

    def test_one_enclosure_per_variable(self, monkeypatch):
        plans = []
        build = expr_module._reverse_steps
        monkeypatch.setattr(
            expr_module, "_reverse_steps", lambda *args: plans.append(args) or build(*args)
        )
        expr_module._shape_kernels.cache_clear()
        program = Program(parse("x*y + sqr(x)"), ("x", "y", "z"))
        value, (gx, gy, gz) = program.gradient(self.DIMS)
        assert value == program.eval_interval(self.DIMS)
        assert gx[0] <= 2.0 and 4.0 <= gx[1] and gx[1] - gx[0] < 2.0 + 1e-14  # y + 2x
        assert (gy, gz) == ((0.5, 1.0), (0.0, 0.0))  # x, exactly 0
        again = Program(parse("x*y + sqr(x)"), ("x", "y", "z"))
        assert program.gradient(self.DIMS) == again.gradient(self.DIMS) == (value, (gx, gy, gz))
        assert len(plans) == 1  # built once, for both programs, by the shared cache

    @pytest.mark.parametrize(
        "text, bounds, expected",
        [
            ("abs(x - y)", [(0.5, 1.0), (1.5, 2.0)], [(-1.0, -1.0), (1.0, 1.0)]),
            ("abs(x - y)", [(0.0, 2.0), (1.0, 2.0)], [(-1.0, 1.0), (-1.0, 1.0)]),
            ("max(x, y)", [(0.5, 1.0), (1.0, 2.0)], [(0.0, 0.0), (1.0, 1.0)]),
            ("max(x, y)", [(0.0, 2.0), (1.0, 2.0)], [(0.0, 1.0), (0.0, 1.0)]),
            ("max(x, y)", [(1.0, 1.0), (1.0, 1.0)], [(0.0, 1.0), (0.0, 1.0)]),
            ("x + abs(y)", [(0.0, 1.0), (-1.0, 1.0)], [(1.0, 1.0), (-1.0, 1.0)]),
            ("x + abs(y)", [(0.0, 1.0), (0.0, 1.0)], [(1.0, 1.0), (1.0, 1.0)]),
        ],
        ids=[
            "abs-below", "abs-straddles", "max-below", "max-overlaps", "max-tie",
            "x+abs-straddles", "x+abs-above",
        ],
    )
    def test_kinks_have_generalized_gradients(self, text, bounds, expected):
        # A kink's one-sided derivatives, hulled where the box straddles it;
        # where the sign of abs's argument or the larger of max's operands
        # is fixed on the box, the derivative of that piece.
        _, grads = Program(parse(text), ("x", "y")).gradient(bounds)
        assert list(grads) == expected

    def test_certified_abs_is_differentiable(self):
        _, ((lo, hi),) = Program(parse("abs(sqr(x))"), ("x",)).gradient([(3.0, 3.0)])
        assert lo <= 6.0 <= hi and hi - lo < 1e-14
        _, ((lo, hi),) = Program(parse("abs(sqr(x))"), ("x",)).gradient([(-1.0, 2.0)])
        assert lo >= -2.0 - 1e-14 and hi <= 4.0 + 1e-14  # 2x, not 2x*[-1, 1]

    def test_failed_enclosure_raises(self):
        program = Program(parse("sqrt(x) + y"), ("x", "y"))
        with pytest.raises(DivisionByZeroInterval):
            program.gradient([(0.0, 1.0), (0.0, 1.0)])
        with pytest.raises(DomainError):
            program.gradient([(-1.0, 1.0), (0.0, 1.0)])


class TestValueNumbering:
    def test_equal_values_are_one_op(self):
        # sin(x) and the constant 2.0 each occur twice in the tree.
        program = Program(parse("2.0*sin(x) + cos(x)*sin(x) - 2.0"), ("x",))
        kinds = [kind for kind, _, _ in program.code]
        assert (kinds.count("sin"), kinds.count("const"), kinds.count("load")) == (1, 1, 1)
        assert len(program.code) == len(set(program.code))

    def test_signed_zeros_stay_apart(self):
        program = Program(Binary("+", Const(0.0), Const(-0.0)), ("x",))
        assert [kind for kind, _, _ in program.code] == ["const", "const", "+"]

    def test_shared_node_is_walked_once(self):
        e = Var("x")
        for _ in range(200):  # 2**200 paths through the tree, 201 nodes
            e = Binary("+", e, e)
        program = Program(e, ("x",))
        assert len(program.code) == 201
        assert program.eval_point([1.0]) == 2.0**200


class TestEval:
    def test_eval_real(self):
        assert eval_real(parse("x1^2 - x2^2"), {"x1": 3, "x2": 1}) == pytest.approx(8.0)

    def test_eval_interval_square(self):
        lo, hi = eval_interval(parse("x1^2"), make_box([("x1", -2, 1)]))
        assert lo == 0.0 and hi == pytest.approx(4.0)

    def test_eval_interval_gradient_norm_bound(self):
        e = parse("c*(x1^2 + x2^2 + x3^2)", {"c": 4 * DELTA**2})
        box = make_box([(f"x{i}", 0.0, 0.0265) for i in (1, 2, 3)])
        _, hi = eval_interval(e, box)
        assert hi == pytest.approx(12 * DELTA**2 * 0.0265**2, rel=1e-4)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            eval_real(parse("x1 + x2"), {"x1": 1.0})
        with pytest.raises(UnboundVariable):
            eval_interval(parse("x1 + x2"), make_box([("x1", 0, 1)]))
        with pytest.raises(UnboundVariable) as info:
            Program(parse("z*x + y"), ["x"])
        assert str(info.value) == "unbound variables: ['y', 'z']"  # sorted

    def test_extension_agrees_on_degenerate_boxes(self):
        for e, box in corpus_expressions():
            for point in random_points(box, 40, seed=17):
                value = eval_real(e, dict(zip(box.labels, point)))
                lo, hi = eval_interval(
                    e, make_box([(n, x, x) for n, x in zip(box.labels, point)])
                )
                assert lo <= value <= hi

    def test_enclosure_over_subboxes(self):
        rng = random.Random(23)
        for e, box in corpus_expressions():
            for _ in range(20):
                # random sub-box, then random points inside it
                subs = []
                for name, (box_lo, box_hi) in zip(box.labels, box.pairs):
                    lo = rng.uniform(box_lo, box_hi)
                    hi = rng.uniform(lo, box_hi)
                    subs.append((name, lo, hi))
                sub = make_box(subs)
                lo, hi = eval_interval(e, sub)
                for point in random_points(sub, 10, seed=rng.randint(0, 10**6)):
                    value = eval_real(e, dict(zip(sub.labels, point)))
                    assert lo - 1e-12 <= value <= hi + 1e-12

    def test_refined_eval_interval_subset(self):
        e = parse("x1*(1 - x1)")
        box = make_box([("x1", 0, 1)])
        plain = eval_interval(e, box, segments=1)
        fine = eval_interval(e, box, segments=10)
        assert encloses(plain, fine)
        assert fine[1] >= 0.25

    def test_program_point_speed_path(self):
        e = simplify(parse("x1^2 + 2*x1*x2 + x2^2"))
        program = Program(e, ("x1", "x2"))
        assert program.eval_point((1.0, 2.0)) == pytest.approx(9.0)
        lo, hi = program.eval_interval([(0.0, 1.0), (0.0, 1.0)])
        assert lo <= 0.0 and hi >= 4.0


class TestStructuralKey:
    def test_renamed_difference_of_squares(self):
        a = parse("d*(x5^2 - x4^2)", {"d": DELTA})
        b = parse("d*(x11^2 - x10^2)", {"d": DELTA})
        assert structural_key(a) == structural_key(b)

    def test_different_structure(self):
        assert structural_key(parse("x1^2")) != structural_key(parse("x1^2 + x2^2"))

    @staticmethod
    def _case2(texts):
        """``lipschitz_case2`` on ``f = texts`` over ``[-1, 1]^2``, where
        both components have the squared gradient norm ``(2*x1 + x2)^2 +
        x1^2`` (maximum 10, at ``x1 = x2 = 1``), written differently."""
        model = ModelDef(
            state_names=("x1", "x2"),
            state_bounds=((-1.0, 1.0),) * 2,
            f=tuple(map(parse, texts)),
        )
        return lipschitz_case2(model, BnBConfig(eps_h=1e-6, eps_om=1e-9, segments=1))

    def _assert_both_run_soundly(self, texts):
        r = self._case2(texts)
        assert r.stats.runs == 2  # not merged, so each component is maximized
        assert Fraction(r.lower) ** 2 <= 20 <= Fraction(r.gamma) ** 2

    def test_commutativity(self):
        # The key is the numbered ops: operand order counts, unless the swap
        # is a renaming of the variables.  So case 2 does not merge the
        # components below, and maximizes each.
        assert structural_key(parse("x1 + x2")) == structural_key(parse("x2 + x1"))
        assert structural_key(parse("x1 + 2")) != structural_key(parse("2 + x1"))
        assert structural_key(parse("x1*x1*x2")) != structural_key(parse("x2*x1*x1"))
        self._assert_both_run_soundly(["x1*x2 + sqr(x1)", "sqr(x1) + x2*x1"])

    def test_coincidence_pattern_distinguished(self):
        assert structural_key(parse("x1*x1 + x2")) != structural_key(parse("x1*x2 + x3"))

    def test_operand_order_with_mixed_patterns(self):
        a = parse("x1*x1 + x1*x2")
        b = parse("x2*x1 + x1*x1")
        assert structural_key(a) != structural_key(b)
        assert structural_key(a) == structural_key(parse("x5*x5 + x5*x4"))
        self._assert_both_run_soundly(["x1*x1 + x1*x2", "x2*x1 + x1*x1"])

    def test_max_is_not_a_quotient(self):
        assert structural_key(parse("max(x,y)")) != structural_key(parse("x/y"))
        assert structural_key(parse("max(x,y)")) == structural_key(parse("max(u,v)"))

    def test_constants_matter(self):
        assert structural_key(parse("2*x1^2")) != structural_key(parse("3*x1^2"))


PRINTED = [
    "x1^2 - x2^2",
    "-2*x1*x2",
    "sin(x1)*cos(x2) + exp(x1)/(1 + sqr(x2))",
    "abs(x1 - 2*x2)^3",
    "x1 - (x2 - x3)",
    "(x1 + x2)*(x1 - x2)",
    "-(x1 + x2)^2",
    "x1/(x2/x3)",
    "sqrt(x1 + 4)",
    "max(x1, -x2)^2 - 3*max(max(abs(x1), x2/x3), 0.5)",
]


class TestPrintRoundTrip:
    @pytest.mark.parametrize("text", PRINTED)
    def test_named_cases(self, text):
        e = simplify(parse(text))
        assert simplify(parse(to_text(e))) == e

    def test_random_polynomials(self):
        rng = random.Random(99)
        for _ in range(60):
            e = random_polynomial(rng, dim=rng.randint(1, 3))
            assert simplify(parse(to_text(e))) == e

    def test_corpus(self):
        for e, _ in corpus_expressions():
            assert simplify(parse(to_text(e))) == e


class TestPrinter:
    """``to_text`` writes what the reference printer writes."""

    def test_corpus(self, traffic_s5, moving_object, generator):
        exprs = [e for e, _ in corpus_expressions()]
        for m in (traffic_s5, moving_object, generator):
            exprs += [*m.f, *(d for row in m.state_jacobian for _, d in row)]
        exprs += [parse(text) for text in PRINTED]
        rng = random.Random(5)
        exprs += [random_polynomial(rng, dim=rng.randint(1, 3)) for _ in range(60)]
        for e in exprs:
            assert to_text(e) == reference_text(e)

    @pytest.mark.parametrize(
        "write",
        [
            lambda n: "x" + "+x" * (n - 1),
            lambda n: "x-(" * n + "x" + ")" * n,
            lambda n: "x" + "/x" * (n - 1),
            lambda n: "max(" * n + "x" + ", y)" * n,
            lambda n: "-" * n + "x",
            lambda n: "sin(" * n + "x" + ")" * n,
            lambda n: "(" * n + "x" + ")^3" * n,
        ],
        ids=["sum", "right-sum", "quotient", "max", "negation", "sin", "power"],
    )
    def test_ten_thousand_levels(self, write):
        e = parse(write(10_000))
        assert to_text(e) == reference_text(e)


class TestSimplify:
    def test_identities(self):
        x = Var("x")
        assert simplify(Binary("+", x, Const(0.0))) == x
        assert simplify(Binary("*", Const(1.0), x)) == x
        assert simplify(Binary("*", Const(0.0), x)) == Const(0.0)
        assert simplify(Binary("-", Const(0.0), x)) == Unary("neg", x)

    def test_square_detection(self):
        x = Var("x")
        assert simplify(Binary("*", x, x)) == Unary("sqr", x)

    def test_constant_folding(self):
        assert simplify(parse("2*3 + 1")) == Const(7.0)
        assert simplify(parse("(2 + 1)^2")) == Const(9.0)
        assert simplify(parse("abs(-1e200)")) == Const(1e200)
        assert simplify(parse("-(1e200*1e100)")) == Const(-1e300)

    def test_power_without_a_float_is_not_folded(self):
        assert simplify(parse("1e200^2")) == PowInt(Const(1e200), 2)

    @pytest.mark.parametrize(
        "text",
        ["sqr(1e200)", "1e200*1e200 - 1e200*1e200", "1e308 + 1e308", "1e300/1e-300", "-(1e200*1e200)"],
    )
    def test_no_fold_to_a_non_finite_float(self, text):
        assert not isinstance(simplify(parse(text)), Const)

    def test_no_reassociation(self):
        # conservative: does not collect like terms
        e = simplify(parse("x + x"))
        assert e == Binary("+", Var("x"), Var("x"))

    @pytest.mark.parametrize("seed", range(10))
    def test_simplified_trees_are_fixed_points(self, seed):
        # The per-node rules (``simplified_add`` and the others) take
        # simplified operands as they are; that gives ``simplify``'s tree
        # only because simplifying a simplified tree changes nothing.
        # Compared by ``structural_key_with_vars``, so ``-0.0`` is not ``0.0``.
        rng = random.Random(seed)

        def tree(depth):
            if depth == 0 or rng.random() < 0.25:
                if rng.random() < 0.5:
                    return Const(rng.choice([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e200, -1e200]))
                return Var(rng.choice("xy"))
            kind = rng.random()
            if kind < 0.6:
                return Binary(rng.choice("+-*/"), tree(depth - 1), tree(depth - 1))
            if kind < 0.9:
                return Unary(rng.choice(["neg", "sqr", "abs", "sqrt"]), tree(depth - 1))
            return PowInt(tree(depth - 1), rng.randint(1, 3))

        for _ in range(300):
            once = simplify(tree(4))
            assert structural_key_with_vars(simplify(once)) == structural_key_with_vars(once)

    @pytest.mark.parametrize("seed", range(25))
    def test_sum_or_zero_is_the_simplified_sum(self, seed):
        # ``simplified_sum`` of simplified terms is the simplified written
        # sum, or zero when there are none.  Terms that fold to zeros of either sign, finite and overflowing
        # constants, and polynomials left unsimplified.
        rng = random.Random(seed)
        x = Var("x")
        pool = [
            lambda: Const(rng.choice([0.0, -0.0, 1.5, -2.0, 1e308])),
            lambda: Binary("*", Const(0.0), x),
            lambda: Binary("-", Const(2.0), Const(2.0)),
            lambda: Binary("+", Const(rng.uniform(-1.0, 1.0)), Const(0.5)),
            lambda: Unary("neg", Var(rng.choice("xy"))),
            lambda: Binary("+", random_polynomial(rng, 2), Const(0.0)),
        ]
        terms = [rng.choice(pool)() for _ in range(rng.randint(1, 12))]
        assert simplified_sum(map(simplify, terms)) == simplify(expr_sum(terms))

    def test_sum_or_zero_of_thousands_of_terms(self):
        # The loop folds the terms one rule at a time, without walking them.
        term = Binary("*", Var("x"), Var("x"))
        total = simplified_sum(map(simplify, [term, Const(0.0)] * 3000))
        spine = 0
        while isinstance(total, Binary) and total.op == "+":
            assert total.right == Unary("sqr", Var("x"))
            total, spine = total.left, spine + 1
        assert (total, spine) == (Unary("sqr", Var("x")), 2999)
        assert simplified_sum([]) == Const(0.0)


# A tree 10,000 levels deep of each kind of node, written with its deepest
# leaf given: parsed, simplified, printed and parsed again, compared,
# hashed, differentiated and maximized on a point box by an interpreter
# whose recursion limit is 100.
_DEPTH_SCRIPT = """
import sys
from certbound.bnb import BnBConfig, maximize
from certbound.errors import NonDifferentiable
from certbound.expr import Program, differentiate, parse, simplify, to_text
from certbound.intervals import Box

n = 10_000
kinds = {
    "sum": lambda leaf: leaf + "+x" * (n - 1),
    "right-sum": lambda leaf: "x-(" * n + leaf + ")" * n,
    "product": lambda leaf: leaf + "*x" * (n - 1),
    "max": lambda leaf: "max(" * n + leaf + ", y)" * n,
    "negation": lambda leaf: "-" * n + leaf,
    "abs": lambda leaf: "abs(" * n + leaf + ")" * n,
    "sqrt": lambda leaf: "sqrt(" * n + leaf + ")" * n,
    "power": lambda leaf: "(" * n + leaf + ")^2" * n,
}
box = Box([(0.5, 0.5), (1.0, 1.0)], ("x", "y"))
sys.setrecursionlimit(100)
for kind, write in kinds.items():
    e, other = parse(write("x")), parse(write("z"))
    s = simplify(e)
    again = simplify(parse(to_text(s)))
    assert s == again and hash(s) == hash(again) and e != other, kind
    try:
        differentiate(s, "x")
    except NonDifferentiable as exc:
        print(kind, str(exc)[:30])
    program = Program(s, box.labels)
    result = maximize(program.eval_point, program, box, BnBConfig())
    assert result.lower <= result.upper, kind
"""


def test_a_deep_tree_of_each_kind_needs_no_recursion():
    src = os.path.dirname(os.path.dirname(certbound.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _DEPTH_SCRIPT],
        capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "max cannot differentiate max(max(m\n"
        "abs cannot differentiate abs(x): s\n"
    )
