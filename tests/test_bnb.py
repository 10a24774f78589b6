"""Branch-and-bound engine: sandwich, monotonicity, pruning, termination."""

import json
import math
import random
import re
from fractions import Fraction

import pytest

from certbound import BnBConfig
from certbound import bnb
from certbound.bnb import (
    BnBStats, Cover, Subproblem, _Bounder, _first_order, maximize, minimize, opt_bnb_step,
)
from certbound.cli import run
from certbound.errors import DegenerateSplit, EvaluationError, IntervalError
from certbound.expr import Program, parse
from certbound.intervals import midpoint, pair_add, pair_mul, pair_sub, unchecked_box
from conftest import box_contains, dense_max, make_box, pairs, random_polynomial

DELTA = 31.3 / (500.0 * 0.053)
RHO_C = 0.0265


def expr_objective(text, bounds, constants=None):
    e = parse(text, constants)
    box = make_box(bounds)
    program = Program(e, box.labels)
    return program.eval_point, lambda dims: program.eval_interval(dims), box


class TestMaximize:
    def test_quadratic_on_density_range(self):
        h, hI, box = expr_objective(
            "c*x^2", [("x", 0.0, RHO_C)], {"c": 4 * DELTA**2}
        )
        res = maximize(h, hI, box, BnBConfig(eps_h=1e-6, eps_om=1e-9, segments=1))
        expected = (2 * DELTA * RHO_C) ** 2
        assert res.upper == pytest.approx(expected, abs=2e-6)
        assert res.upper >= expected - 1e-12
        assert res.upper - res.lower <= 1e-6
        assert res.eps_optimal

    def test_concave_peak_at_center(self):
        h, hI, box = expr_objective("-x^2", [("x", -1.0, 1.0)])
        res = maximize(h, hI, box, BnBConfig(eps_h=1e-8, eps_om=1e-12, segments=1))
        assert res.lower <= 0.0 <= res.upper
        assert res.gap <= 1e-8

    def test_result_invariants(self):
        h, hI, box = expr_objective("x*(1 - x)", [("x", 0.0, 1.0)])
        cfg = BnBConfig(eps_h=1e-5, eps_om=1e-9, segments=1)
        res = maximize(h, hI, box, cfg)
        assert res.lower <= res.upper
        assert res.eps_optimal == (res.upper - res.lower <= cfg.eps_h)
        assert res.upper == pytest.approx(0.25, abs=1e-4)
        assert box_contains(box, res.lower_witness)

    def test_huge_power_collapses_to_its_end(self):
        # The derivative 2**40 * x^(2**40 - 1) encloses as nonnegative
        # although its lower end underflows, so the box collapses to x = 1
        # instead of being bisected until the cap.
        program = Program(parse(f"x^{2**40}"), ("x",))
        box = make_box([("x", 0.0, 1.0)])
        res = maximize(program.eval_point, program, box, BnBConfig(max_steps=1000))
        assert res.eps_optimal and res.stats.splits <= 40
        assert res.lower == 1.0 <= res.upper

    def test_max_steps_cap(self):
        h, hI, box = expr_objective("x*(1 - x)", [("x", 0.0, 1.0)])
        cfg = BnBConfig(eps_h=1e-12, eps_om=1e-15, segments=1, max_steps=5)
        res = maximize(h, hI, box, cfg)
        assert res.stats.splits <= 5 + 1
        assert not res.eps_optimal
        assert res.lower <= 0.25 <= res.upper

    @pytest.mark.parametrize(
        "tolerance", [{"eps_h": math.nan}, {"eps_om": math.inf}, {"eps_h": 0.0}, {"eps_om": -1.0}]
    )
    def test_config_rejects_bad_tolerances(self, tolerance):
        with pytest.raises(ValueError, match="finite and positive"):
            BnBConfig(**tolerance)

    def test_config_is_frozen(self, capsys):
        cfg = BnBConfig()
        with pytest.raises(AttributeError):
            cfg.segments = 0
        defaults = {"eps_h": cfg.eps_h, "eps_om": cfg.eps_om, "segments": cfg.segments}
        assert defaults == {"eps_h": 1e-4, "eps_om": 1e-7, "segments": 5}
        # The CLI states no default of its own: its help and a default run's
        # ``config`` echo both read ``BnBConfig()``.
        assert run(["maximize", "--help"]) == 0
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            found = re.match(r"\s+--(eps-h|eps-om|segments) \S+ .*\(default: (\S+)\)$", line)
            if found:
                printed[found[1].replace("-", "_")] = float(found[2])
        assert printed == defaults
        assert run(["maximize", "--expr", "x", "--bounds", "x=[0,1]", "--no-timing"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["config"] == defaults

    def test_constant_objective_immediate(self):
        h, hI, box = expr_objective("7.5", [("x", 0.0, 1.0)])
        res = maximize(h, hI, box, BnBConfig(eps_h=1e-9, eps_om=1e-12, segments=1))
        assert res.eps_optimal
        assert res.upper == pytest.approx(7.5, abs=1e-9)
        assert res.stats.splits == 0

    def test_evaluation_error_aborts(self):
        def h(xs):
            return xs[0]

        def hI(dims):
            (lo, hi), = dims
            if hi - lo < 0.5:
                raise ZeroDivisionError("synthetic failure")
            return lo, hi

        box = make_box([("x", 0.0, 4.0)])
        with pytest.raises(EvaluationError, match="objective evaluation failed: synthetic failure"):
            maximize(h, hI, box, BnBConfig(eps_h=1e-9, eps_om=1e-12, segments=1))

    def test_enclosure_failure_keeps_parent_bounds(self):
        h, hI, box = expr_objective("1/(x*x - 2*x + 2)", [("x", 0.0, 2.0)])
        stats = BnBStats()
        bound = _Bounder(hI, 1, stats)
        root = bound(box)
        assert (root.lo_bound, root.hi_bound) == (-math.inf, math.inf)
        assert "contains zero" in str(bound.failure)
        cover = Cover([root])
        opt_bnb_step(cover, root, -math.inf, h, bound)
        assert stats.evals == 3
        # Zero-order bounds only: at eps_h=1e-9 this search takes ~545k
        # evaluations, at 1e-6 ~17k, through the same failure and recovery.
        res = maximize(h, hI, box, BnBConfig(eps_h=1e-6, eps_om=1e-12, segments=1))
        assert res.lower <= 1.0 <= res.upper and res.eps_optimal

    def test_subproblem_caches_width_and_widest_dim(self):
        _, hI, _ = expr_objective("x + y", [("x", 0.0, 1.0), ("y", 0.0, 1.0)])
        box = make_box([("x", 0.0, 1.0), ("y", -2.0, 2.0)])
        sub = _Bounder(hI, 4, BnBStats())(box)
        assert (sub.width, sub.dim) == (4.0, 1)


class TestFirstOrder:
    """Bounds from the gradient programs of a compiled objective."""

    def program_objective(self, text, bounds):
        box = make_box(bounds)
        program = Program(parse(text), box.labels)
        return program, box

    def test_monotone_objective_collapses_to_the_maximizing_vertex(self):
        program, box = self.program_objective("x + 2*y", [("x", 0.0, 1.0), ("y", -1.0, 1.0)])
        sub = _Bounder(program, 10, BnBStats())(box)
        assert sub.box.corners() == ((1.0, 1.0), (1.0, 1.0))
        assert (sub.width, sub.lo_bound <= 3.0 <= sub.hi_bound) == (0.0, True)
        res = maximize(program.eval_point, program, box, BnBConfig(eps_h=1e-9))
        assert (res.stats.evals, res.stats.splits, res.eps_optimal) == (1, 0, True)
        assert res.lower == 3.0 <= res.upper and res.lower_witness == (1.0, 1.0)

    def test_minimize_collapses_to_the_minimizing_vertex(self):
        program, box = self.program_objective("x + 2*y", [("x", 0.0, 1.0), ("y", -1.0, 1.0)])
        res = minimize(program.eval_point, program, box, BnBConfig(eps_h=1e-9))
        assert res.stats.evals == 1
        assert res.lower <= -2.0 == res.upper and res.lower_witness == (0.0, -1.0)

    def test_dead_dimension_collapses(self):
        program, box = self.program_objective("x*(1 - x)", [("x", 0.0, 1.0), ("y", -5.0, 5.0)])
        sub = _Bounder(program, 1, BnBStats())(box)
        assert sub.box.pairs[1] == (5.0, 5.0) and sub.box.pairs[0] == box.pairs[0]

    def test_centred_form_tightens_a_mixed_sign_box(self):
        program, box = self.program_objective(
            "x*y - x*x*y*y", [("x", 0.6, 0.8), ("y", 0.6, 0.8)]
        )
        first = _Bounder(program, 1, BnBStats())(box)
        plain = _Bounder(lambda dims: program(dims), 1, BnBStats())(box)
        assert first.box == box  # no fixed sign: nothing collapses
        assert plain.lo_bound < first.lo_bound <= 0.25 <= first.hi_bound < plain.hi_bound

    def test_failed_gradient_enclosure_skips_the_first_order_step(self):
        program, box = self.program_objective("sqrt(x) - x", [("x", 0.0, 1.0)])
        stats = BnBStats()
        sub = _Bounder(program, 4, stats)(box)
        plain = _Bounder(lambda dims: program(dims), 4, BnBStats())(box)
        assert (sub.box, sub.lo_bound, sub.hi_bound) == (box, plain.lo_bound, plain.hi_bound)
        assert stats.evals == 1

    def test_objective_without_gradient_is_bounded_as_before(self):
        # An interval function without a ``gradient`` gets zero-order bounds.
        program, box = self.program_objective("x*(1 - x)", [("x", 0.6, 1.0)])
        sub = _Bounder(lambda dims: program(dims), 1, BnBStats())(box)
        assert (sub.box, sub.lo_bound, sub.hi_bound) == (box, *program(pairs(box)))
        assert _Bounder(program, 1, BnBStats())(box).box != box  # decreasing: collapses

    def test_kinked_objective_gets_first_order_bounds(self):
        program, box = self.program_objective("abs(x - 0.3)", [("x", 0.0, 1.0)])
        assert program.gradient(pairs(box)) == (program(pairs(box)), ((-1.0, 1.0),))
        assert _Bounder(program, 1, BnBStats())(box).box == box  # straddles the kink
        half = make_box([("x", 0.5, 1.0)])
        sub = _Bounder(program, 1, BnBStats())(half)
        assert sub.box.pairs[0] == (1.0, 1.0) and sub.lo_bound <= 0.7 <= sub.hi_bound
        res = minimize(program.eval_point, program, box, BnBConfig(eps_h=1e-9))
        assert res.lower <= 0.0 <= res.upper and res.stats.evals < 200


class TestGreatestSmear:
    """The split and the slabs go along the dimension of greatest
    ``width_k * max(-gl_k, gh_k)``, among those ``_splittable`` accepts."""

    def test_smear_beats_width_on_a_hand_checked_box(self):
        # dh/dx = 2x in [-4, 4] over width 4: smear 16.  dh/dy = 20y in
        # [-20, 20] over width 2: smear 40.  So y, though x is the wider.
        program = Program(parse("sqr(x) + 10*sqr(y)"), ("x", "y"))
        box = make_box([("x", -2.0, 2.0), ("y", -1.0, 1.0)])
        assert box.widest() == (0, 4.0)
        sub = _Bounder(program, 1, BnBStats())(box)
        assert (sub.box, sub.dim, sub.width) == (box, 1, 2.0)
        cover = Cover([sub])
        opt_bnb_step(cover, sub, -math.inf, program.eval_point, _Bounder(program, 1, BnBStats()))
        # Split along y, each half collapses to its outer face y = -1 or 1.
        faces = sorted(s.box.pairs[1] for s in cover.subproblems)
        assert faces == [(-1.0, -1.0), (1.0, 1.0)]
        assert {s.box.pairs[0] for s in cover.subproblems} == {box.pairs[0]}

    def test_without_a_gradient_the_widest_dimension(self):
        program = Program(parse("sqr(x) + 10*sqr(y)"), ("x", "y"))
        box = make_box([("x", -2.0, 2.0), ("y", -1.0, 1.0)])
        sub = _Bounder(lambda dims: program(dims), 1, BnBStats())(box)
        assert (sub.dim, sub.width) == (0, 4.0)

    def test_a_failed_gradient_enclosure_gives_the_widest_dimension(self):
        # d sqrt(x)/dx is not enclosed at x = 0; with it, y would win.
        program = Program(parse("sqrt(x) + 10*sqr(y)"), ("x", "y"))
        box = make_box([("x", 0.0, 4.0), ("y", -1.0, 1.0)])
        sub = _Bounder(program, 1, BnBStats())(box)
        assert (sub.box, sub.dim, sub.width) == (box, 0, 4.0)

    def test_never_a_dimension_narrower_than_eps_om(self):
        # y has by far the greatest smear (about 2e-3 * 2e5 against 2 * 2).
        program = Program(parse("sqr(x) + 1e8*sqr(y)"), ("x", "y"))
        box = make_box([("x", -1.0, 1.0), ("y", -1e-3, 1e-3)])
        assert _Bounder(program, 1, BnBStats(), 1e-4)(box).dim == 1
        assert _Bounder(program, 1, BnBStats(), 1e-2)(box).dim == 0
        # No dimension wider than eps_om: the widest, which is not splittable.
        sub = _Bounder(program, 1, BnBStats(), 10.0)(box)
        assert (sub.dim, sub.width) == (0, 2.0) and not bnb._splittable(sub, 10.0)
        res = maximize(program.eval_point, program, box, BnBConfig(eps_h=1e-3, eps_om=1e-2))
        widths = {hi - lo for lo, hi in (s.box.pairs[1] for s in res.final_cover.subproblems)}
        assert widths <= {0.0, 2e-3}

    def test_ties_go_to_the_first_dimension_and_collapsed_ones_never_win(self):
        box = make_box([("x", 0.0, 2.0), ("y", 0.0, 1.0), ("z", 1.0, 1.0)])

        def split(grads, eps_om):
            return _first_order(
                lambda dims: (0.0, 0.0), lambda dims: ((0.0, 0.0), grads), box, eps_om
            )[3]

        assert split([(-1.0, 1.0), (-2.0, 0.5), (-9.0, 9.0)], 0.0) == (0, 2.0)
        assert split([(-1.0, 1.0), (-3.0, 0.5), (-9.0, 9.0)], 0.0) == (1, 1.0)
        assert split([(-1.0, 1.0), (-3.0, 0.5), (-9.0, 9.0)], 1.0) == (0, 2.0)
        assert split([(-1.0, 1.0), (-3.0, 0.5), (-9.0, 9.0)], 2.0) is None
        # x collapses (its derivative is positive): y, though x has more smear.
        assert split([(1.0, 9.0), (-3.0, 0.5), (-9.0, 9.0)], 0.0) == (1, 1.0)

    def test_trig_with_a_kink_closes_the_gap(self):
        # The widest-dimension split with degree-4 sin/cos never closes it.
        program = Program(parse("sin(x)*cos(y) + 0.1*abs(x-y)"), ("x", "y"))
        box = make_box([("x", -3.0, 3.0), ("y", -3.0, 3.0)])
        res = maximize(program.eval_point, program, box, BnBConfig(eps_h=1e-4, max_steps=2000))
        assert res.eps_optimal and res.lower <= res.upper


def reference_first_order(hI, gradient, box):
    """The first-order step in two walks: collapse each monotone dimension
    and choose the centre, then sum the centred form over the face's
    dimensions of positive width.  Returns the face (``box`` itself where
    nothing collapses), the bounds, the gradient enclosures and the
    enclosure of h on the face: the one that ``gradient`` gave where the
    face is ``box``, ``hI`` of the face where it is a point with the bits
    of the centre, else ``None``."""
    pairs = box.pairs
    whole, grads = gradient(pairs)
    face = None
    centre = []
    for k, ((lo, hi), (gl, gh)) in enumerate(zip(pairs, grads)):
        if gl >= 0.0 or gh <= 0.0:
            c = hi if gl >= 0.0 else lo
            if lo < hi:
                face = face or list(pairs)
                face[k] = (c, c)
        else:
            c = (gh * hi - gl * lo) / (gh - gl)
            if not (lo <= c <= hi and math.isfinite(c)):
                c = midpoint(lo, hi)
        centre.append((c, c))
    if face:
        box = unchecked_box(tuple(face), box.labels)
        whole = hI(face) if repr(face) == repr(centre) else None
    bound = hI(centre)
    for g, pair, c in zip(grads, box.pairs, centre):
        if pair[0] < pair[1]:
            bound = pair_add(bound, pair_mul(g, pair_sub(pair, c)))
    return box, bound[0], bound[1], grads, whole


def reference_greatest_smear(box, grads, eps_om):
    """The dimension ``k`` of greatest smear ``width_k * max(-gl_k, gh_k)``
    of the face ``box``, the first among equals, and ``width_k``; ``None``
    when no dimension is wider than ``eps_om`` with its midpoint strictly
    inside."""
    best = None
    most = -1.0
    for k, ((lo, hi), (gl, gh)) in enumerate(zip(box.pairs, grads)):
        width = hi - lo
        if width > eps_om and lo < midpoint(lo, hi) < hi:
            smear = width * (gh if gh > -gl else -gl)
            if smear > most:
                best, most = (k, width), smear
    return best


class TestOnePass:
    """``_first_order`` collapses, centres and picks the split in one walk
    over the dimensions, with the results of the two-walk reference: the
    step, then the greatest smear on its face."""

    LOWS = (0.0, -1.0, 1.0, -0.0, 1e300, -1e308)
    WIDTHS = (0.0, 0.5, 1.0, 2.0, 1e-7, "ulp", 2e308)
    GRADS = (
        (-1.0, 1.0), (-2.0, 0.5), (-0.5, 2.0), (-1.0, 1.0), (0.0, 0.0), (-0.0, 3.0),
        (0.0, 1.0), (-1.0, 0.0), (1.0, 2.0), (-2.0, -1.0), (-1e300, 1e300), (-4.0, 4.0),
    )
    EPS_OM = (0.0, 1e-7, 0.5, 1.0, 2.0)

    @staticmethod
    def interval(dims):
        return sum(lo for lo, _ in dims) - 1.0, sum(hi for _, hi in dims) + 1.0

    def random_case(self, rng):
        bounds, grads = [], []
        for k in range(rng.randint(1, 5)):
            lo, width = rng.choice(self.LOWS), rng.choice(self.WIDTHS)
            if width == "ulp":  # two adjacent floats: no midpoint inside
                hi = math.nextafter(lo, math.inf)
            else:
                hi = min(lo + width, 1e308)
            bounds.append((f"x{k}", lo, hi))
            grads.append(rng.choice(self.GRADS))
        return make_box(bounds), tuple(grads), rng.choice(self.EPS_OM)

    @pytest.mark.parametrize("seed", range(4))
    def test_same_face_bounds_and_split_as_the_two_walks(self, seed):
        rng = random.Random(900 + seed)
        seen = {
            "collapsed": 0, "whole": 0, "no split": 0, "tie": 0, "failed": 0, "point": 0,
            "point of two zeros": 0,
        }
        for _ in range(500):
            box, grads, eps_om = self.random_case(rng)
            gradient = lambda dims, grads=grads: (self.interval(dims), grads)
            try:
                face, lo, hi, _, whole = reference_first_order(self.interval, gradient, box)
                expected = (face, lo, hi, reference_greatest_smear(face, grads, eps_om), whole)
            except IntervalError as exc:
                expected = exc
            try:
                got = _first_order(self.interval, gradient, box, eps_om)
            except IntervalError as exc:
                got = exc
            assert repr(got) == repr(expected), (box, grads, eps_om)
            if isinstance(got, IntervalError):
                seen["failed"] += 1
                continue
            assert (got[0] is box) == (expected[0] is box)
            seen["whole" if got[0] is box else "collapsed"] += 1
            if got[0] is not box and all(lo == hi for lo, hi in got[0].pairs):
                seen["point" if got[4] is not None else "point of two zeros"] += 1
            seen["no split"] += got[3] is None
            smears = [
                (hi - lo) * max(-gl, gh) for (lo, hi), (gl, gh) in zip(face.pairs, grads)
                if hi - lo > eps_om and lo < midpoint(lo, hi) < hi
            ]
            seen["tie"] += len(smears) > 1 and smears.count(max(smears)) > 1
        assert min(seen.values()) > 0, seen


class CentreRecorder:
    """``hI`` with its gradient; keeps the last point (all-degenerate box)
    it was evaluated on, which in ``_first_order`` is the centre."""

    def __init__(self, hI, gradient):
        self.hI = hI
        self.gradient = gradient
        self.centre = None

    def __call__(self, dims):
        if all(lo == hi for lo, hi in dims):
            self.centre = tuple(lo for lo, _ in dims)
        return self.hI(dims)


class TestBaumannCentre:
    """``_first_order`` centres the mean-value form where it minimizes the
    upper bound."""

    def test_centre_beats_the_midpoint_on_a_hand_checked_box(self):
        program = Program(parse("sqr(x) + y"), ("x", "y"))
        box = make_box([("x", -1.0, 3.0), ("y", 0.0, 1.0)])
        hI = CentreRecorder(program, program.gradient)
        face, _, hi, _, _ = _first_order(hI, program.gradient, box, 0.0)
        # dh/dx = 2x in [-2, 6] (rounded outward) changes sign; dh/dy = 1
        # collapses y to 1.  The centre is (6*3 - (-2)*(-1)) / (6 - (-2)).
        _, ((gl, gh), _) = program.gradient(pairs(box))
        assert gl == pytest.approx(-2.0, rel=1e-15) and gh == pytest.approx(6.0, rel=1e-15)
        assert face == make_box([("x", -1.0, 3.0), ("y", 1.0, 1.0)])
        (cx, cy) = hI.centre
        assert cx == pytest.approx(2.0, rel=1e-15) and cy == 1.0

        def exact_upper(c):
            # h(c, 1) + sup [gl, gh] * ([lo, hi] - c), in rationals.
            return c * c + 1 + max(Fraction(gh) * (3 - c), Fraction(gl) * (-1 - c))

        # About 11 at the centre and 14 at the midpoint; the float bound
        # encloses the first and stays below the second.
        assert exact_upper(Fraction(cx)) <= Fraction(hi) < exact_upper(Fraction(1))
        assert hi == pytest.approx(11.0, rel=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_centre_lies_in_the_face(self, seed):
        rng = random.Random(500 + seed)
        program = Program(random_polynomial(rng, 2), ("x1", "x2"))
        for _ in range(20):
            bounds = []
            for name in ("x1", "x2"):
                lo = rng.uniform(-2.0, 1.0)
                bounds.append((name, lo, lo + rng.choice([1e-9, 0.1, 2.0])))
            box = make_box(bounds)
            hI = CentreRecorder(program, program.gradient)
            face, *_ = _first_order(hI, program.gradient, box, 0.0)
            assert all(lo <= c <= hi for (lo, hi), c in zip(face.pairs, hI.centre))

    def test_non_finite_centre_falls_back_to_the_midpoint(self):
        # gh*hi - gl*lo overflows near 1e308, although every term of the
        # form is finite: the midpoint keeps the form.
        gradient = lambda dims: ((0.0, 1.0), ((-1e8, 1e8),))
        hI = CentreRecorder(lambda dims: (0.0, 1.0), gradient)
        box = make_box([("x", 1e300, 1.5e300)])
        face, lo, hi, _, _ = _first_order(hI, gradient, box, 0.0)
        assert (face, hI.centre) == (box, box.midpoint())
        assert math.isfinite(lo) and math.isfinite(hi)


class TestSkippedRefinement:
    """A child whose first-order upper bound is already below l gets no
    refined evaluation and is pruned in the same step."""

    def test_child_below_l_costs_no_refined_eval(self, monkeypatch):
        calls = []
        refined_eval = bnb.refined_eval

        def counted(hI, box, segments, dim, whole=None):
            calls.append(box)
            return refined_eval(hI, box, segments, dim, whole)

        monkeypatch.setattr(bnb, "refined_eval", counted)
        program = Program(parse("x*(1 - x)"), ("x",))
        box = make_box([("x", 0.0, 2.0)])
        for l, refined in ((-math.inf, 2), (0.25, 1)):  # h(0.5) = 0.25
            stats = BnBStats()
            bound = _Bounder(program, 4, stats)
            root = bound(box)
            cover = Cover([root])
            del calls[:]
            # [1, 2] is decreasing: its face x = 1 bounds it by h(1) = 0.
            opt_bnb_step(cover, root, l, program.eval_point, bound)
            assert (len(calls), stats.evals) == (refined, 1 + refined)
            assert [s.box for s in cover.subproblems] == [make_box([("x", 0.0, 1.0)])]


class TestMinimize:
    def test_min_square(self):
        h, hI, box = expr_objective("x^2", [("x", -1.0, 2.0)])
        res = minimize(h, hI, box, BnBConfig(eps_h=1e-8, eps_om=1e-12, segments=1))
        assert res.lower <= 0.0 <= res.upper
        assert res.gap <= 1e-8

    def test_min_linear_derivative(self):
        h, hI, box = expr_objective("-c*x", [("x", 0.0, RHO_C)], {"c": 2 * DELTA})
        res = minimize(h, hI, box, BnBConfig(eps_h=1e-6, eps_om=1e-10, segments=1))
        assert res.lower == pytest.approx(-0.0626, abs=1e-6)
        assert res.lower <= -0.0626 + 5e-7 and res.upper >= -0.0626 - 5e-7

    def test_min_gershgorin_style_objective(self):
        h, hI, box = expr_objective(
            "-3*x1^2 - x2^2 - abs(2*x1*x2)", [("x1", -5, 5), ("x2", -5, 5)]
        )
        res = minimize(h, hI, box, BnBConfig(eps_h=1e-4, eps_om=1e-8, segments=1))
        assert res.lower == pytest.approx(-150.0, abs=1e-3)
        assert res.lower <= -150.0 <= res.upper


class TestStep:
    def make_linear(self):
        h, hI, box = expr_objective("x", [("x", 0.0, 4.0)])
        stats = BnBStats()
        bound = _Bounder(hI, 1, stats)
        cover = Cover([bound(box)])
        return h, bound, cover

    def test_split_prune_semantics(self):
        h, bound, cover = self.make_linear()
        chosen = cover.subproblems[0]
        incumbent, l, u, witness, probed = opt_bnb_step(cover, chosen, -math.inf, h, bound)
        # halves [0,2] and [2,4]; upper half keeps the maximum
        assert incumbent.box.pairs[0][0] == pytest.approx(2.0)
        assert probed == incumbent.order
        assert u == pytest.approx(4.0, abs=1e-9)
        assert l >= 3.0 - 1e-12  # midpoint of the best-lower-bound half
        # lower half has sup 2 < l, so it must be pruned
        assert len(cover.subproblems) == 1

    def test_prune_never_removes_candidates(self):
        h, hI, box = expr_objective(
            "x1*(1 - x1) + 0.5*x2", [("x1", 0, 1), ("x2", 0, 1)]
        )
        stats = BnBStats()
        bound = _Bounder(hI, 1, stats)
        cover = Cover([bound(box)])
        l = -math.inf
        chosen = cover.subproblems[0]
        for _ in range(40):
            chosen, l, u, _, _ = opt_bnb_step(cover, chosen, l, h, bound)
            assert all(s.hi_bound >= l for s in cover.subproblems)
            if chosen.box.widest()[1] <= 1e-9:
                break

    def test_a_box_probed_last_is_not_probed_again(self):
        # Splitting the incumbent often leaves the best-lower-bound box as
        # it was; its midpoint's value cannot raise l a second time.
        box = make_box([("x", 0.0, 2.0), ("y", 0.0, 2.0)])
        program = Program(parse("1.0*x*y - 1.0*x*x*y*y"), box.labels)
        calls = []

        def counted(xs):
            calls.append(tuple(xs))
            return program.eval_point(xs)

        res = maximize(counted, program, box, BnBConfig(eps_h=5e-3, segments=1))
        assert (res.lower, res.stats.evals) == (0.25, 375)
        assert all(a != b for a, b in zip(calls, calls[1:]))
        assert len(calls) == 50  # 225 when every step probes

    def test_upper_bound_ties_break_by_width(self):
        def sub(hi, width, order):
            box = make_box([("x", 0.0, width)])
            return Subproblem(box, -math.inf, hi, order, width, 0)

        # Finite ties go to the wider box, infinite ones to the narrower.
        assert Cover([sub(1.0, 1.0, 0), sub(1.0, 2.0, 1)]).peek_max_hi().order == 1
        assert Cover([sub(math.inf, 2.0, 0), sub(math.inf, 1.0, 1)]).peek_max_hi().order == 1
        assert Cover([sub(math.inf, 1.0, 0), sub(math.inf, 1.0, 1)]).peek_max_hi().order == 0

    def test_unbounded_edge_ends_at_eps_om(self):
        # sqrt(x)/y is unbounded on every box touching y = 0: phase 1 follows
        # one of them down to eps_om and stops there, instead of bisecting
        # all of them breadth-first (~1/eps_om boxes along the edge).
        h, hI, box = expr_objective("sqrt(x)/y", [("x", 0.0, 1.0), ("y", 0.0, 1.0)])
        boxes = []

        def counted(b):
            boxes.append(b)
            return hI(b)

        with pytest.raises(EvaluationError, match="unbounded enclosure"):
            maximize(h, counted, box, BnBConfig(eps_om=1e-7, segments=1, max_steps=2000))
        assert len(boxes) < 200

    def test_degenerate_split_raises(self):
        h, hI, _ = expr_objective("x", [("x", 1.0, 1.0)])
        stats = BnBStats()
        bound = _Bounder(hI, 1, stats)
        degenerate = bound(make_box([("x", 1.0, 1.0)]))
        cover = Cover([degenerate])
        with pytest.raises(DegenerateSplit):
            opt_bnb_step(cover, degenerate, -math.inf, h, bound)


class TestProperties:
    @pytest.mark.parametrize("seed", range(12))
    def test_sandwich_and_monotonicity_random_polynomials(self, seed, sandwich_trace):
        from certbound.expr import free_vars

        rng = random.Random(1000 + seed)
        dim = rng.randint(1, 3)
        e = random_polynomial(rng, dim)
        used = sorted(free_vars(e))
        if not used:
            pytest.skip("degenerate constant polynomial")
        # box over the used variables only (callers reduce dead dimensions)
        bounds = []
        for name in used:
            lo = rng.uniform(-2.0, 0.5)
            bounds.append((name, lo, lo + rng.uniform(0.5, 2.5)))
        box = make_box(bounds)
        program = Program(e, box.labels)
        cfg = BnBConfig(eps_h=1e-6, eps_om=1e-9, segments=2, max_steps=20000)
        res = maximize(
            program.eval_point, lambda dims: program.eval_interval(dims), box, cfg
        )
        sampled = dense_max(program.eval_point, box, [tuple(res.lower_witness)])
        assert res.lower - 1e-9 <= sampled <= res.upper + 1e-9
        sandwich_trace.assert_tightens()

    def test_maximizer_retained_in_cover(self):
        h, hI, box = expr_objective(
            "x1*(1 - x1)*x2", [("x1", 0, 1), ("x2", 0, 1)]
        )
        res = maximize(h, hI, box, BnBConfig(eps_h=1e-7, eps_om=1e-9, segments=1))
        argmax = (0.5, 1.0)
        assert any(box_contains(s.box, argmax) for s in res.final_cover.subproblems)

    def test_termination_with_coarse_eps_om(self):
        # eps_om large: no box is ever splittable twice, yet the run halts
        h, hI, box = expr_objective("sin(x)", [("x", -3.0, 3.0)])
        cfg = BnBConfig(eps_h=1e-12, eps_om=1.0, segments=1, max_steps=10**6)
        res = maximize(h, hI, box, cfg)
        assert res.lower <= 1.0 <= res.upper
        assert res.stats.splits < 100
