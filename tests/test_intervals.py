"""Interval arithmetic: soundness, elementary functions, boxes, refinement."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from certbound.intervals import (
    Box,
    Interval,
    _invalid,
    fraction_down,
    fraction_up,
    iv_cos,
    iv_sin,
    pair_div,
    pair_mul,
    pair_pow,
    pair_scale,
    pair_sqr,
    refined_eval,
    slab_cuts,
    sqrt_down,
    sqrt_up,
)
from certbound.errors import (
    DegenerateSplit,
    DivisionByZeroInterval,
    DomainError,
    IntervalError,
    ParseError,
)
from certbound.expr import PowInt, Var, parse
from conftest import dec_cos, dec_sin, encloses, point_interval


def approx_encloses(iv: Interval, value: float, slack: float = 0.0) -> bool:
    return iv.lo - slack <= value <= iv.hi + slack


class TestArithmetic:
    def test_add_exact_endpoints(self):
        r = Interval(1, 2) + Interval(3, 4)
        assert approx_encloses(r, 4.0) and approx_encloses(r, 6.0)
        assert r.lo == pytest.approx(4.0, abs=1e-14)
        assert r.hi == pytest.approx(6.0, abs=1e-14)

    def test_mul_endpoint_products(self):
        r = Interval(-1, 2) * Interval(3, 4)
        assert r.lo <= -4.0 <= r.hi
        assert r.lo <= 8.0 <= r.hi
        assert r.lo == pytest.approx(-4.0) and r.hi == pytest.approx(8.0)

    def test_div_zero_divisor_rejected(self):
        with pytest.raises(DivisionByZeroInterval):
            Interval(1, 1) / Interval(-1, 1)

    def test_div_encloses(self):
        r = Interval(1, 2) / Interval(2, 4)
        assert r.lo <= 0.25 and r.hi >= 1.0

    def test_inverted_interval_rejected(self):
        with pytest.raises(IntervalError):
            Interval(2, 1)
        with pytest.raises(IntervalError):
            Interval(0, math.inf)

    def test_sub_neg(self):
        r = Interval(1, 2) - Interval(0.5, 3)
        assert r.lo <= -2.0 and r.hi >= 1.5
        assert -Interval(1, 2) == Interval(-2, -1)

    @pytest.mark.parametrize("seed", range(5))
    def test_arith_soundness_random(self, seed):
        rng = random.Random(seed)
        for _ in range(400):
            a = sorted(rng.uniform(-10, 10) for _ in range(2))
            b = sorted(rng.uniform(-10, 10) for _ in range(2))
            ia, ib = Interval(*a), Interval(*b)
            for _ in range(8):
                x = rng.uniform(*a)
                y = rng.uniform(*b)
                assert approx_encloses(ia + ib, x + y)
                assert approx_encloses(ia - ib, x - y)
                assert approx_encloses(ia * ib, x * y)
                if b[0] > 0.1 or b[1] < -0.1:
                    assert approx_encloses(ia / ib, x / y)


class TestExactZeros:
    def test_zero_operand_sum_and_difference_are_exact(self):
        assert Interval(0.0, 0.0) + Interval(1.5, 2.5) == Interval(1.5, 2.5)
        assert Interval(1.5, 2.5) - Interval(0.0, 0.0) == Interval(1.5, 2.5)
        assert Interval(0.0, 0.0) - Interval(1.5, 2.5) == Interval(-2.5, -1.5)
        assert Interval(-0.0, 3.0) + Interval(0.0, 1.0) == Interval(0.0, math.nextafter(4.0, 5.0))

    def test_sums_of_zeros_stay_zero(self):
        total = Interval(0.0, 0.0)
        for _ in range(10):
            total = total + Interval(0.0, 0.0) - Interval(0.0, 0.0)
        assert total == Interval(0.0, 0.0)

    def test_nonzero_operands_still_step(self):
        r = Interval(1.0, 1.0) + Interval(2.0, 2.0)
        assert (r.lo, r.hi) == (math.nextafter(3.0, 0.0), math.nextafter(3.0, 4.0))
        r = Interval(1.0, 1.0) - Interval(1.0, 1.0)
        assert (r.lo, r.hi) == (-5e-324, 5e-324)

    def test_zero_factor_product_is_exact(self):
        assert Interval(0.0, 0.0) * Interval(-3.0, 7.0) == Interval(0.0, 0.0)
        r = Interval(0.0, 2.0) * Interval(0.0, 3.0)
        assert r.lo == 0.0 and r.hi == math.nextafter(6.0, 7.0)
        r = Interval(-1.0, 0.0) * Interval(0.0, 1.0)
        assert r.lo == math.nextafter(-1.0, -2.0) and r.hi == 0.0
        assert Interval(0.0, 0.0).sqr() == Interval(0.0, 0.0)

    @pytest.mark.parametrize(
        "a, b", [((1e-200, 1e-200), (-1e-200, -1e-200)), ((1e-200, 1e-200), (1e-200, 1e-200))]
    )
    def test_underflowing_product_still_steps(self, a, b):
        r = Interval(*a) * Interval(*b)
        assert r.lo < 0.0 < r.hi
        r = Interval(0.0, 1e-200) * Interval(*b)  # one zero factor, one underflow
        assert r.lo < 0.0 < r.hi

    def test_underflowing_square_still_steps(self):
        r = Interval(1e-200, 1e-200).sqr()
        assert r.lo == 0.0 and r.hi == 5e-324

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_soundness_with_zeros_and_tiny_endpoints(self, seed):
        # Every endpoint combination of the real results lies in the
        # enclosure, checked in exact rational arithmetic.
        rng = random.Random(seed)
        pool = [0.0, -0.0, 1e-200, -1e-200, 3e-170, 5e-324, 1.0, -2.5, 0.1, 7.0]

        def draw() -> Interval:
            a, b = sorted((rng.choice(pool), rng.choice(pool)))
            return Interval(a, b)

        for _ in range(3000):
            a, b = draw(), draw()
            for op, iv in (("+", a + b), ("-", a - b), ("*", a * b)):
                for x in (a.lo, a.hi):
                    for y in (b.lo, b.hi):
                        fx, fy = Fraction(x), Fraction(y)
                        exact = fx + fy if op == "+" else fx - fy if op == "-" else fx * fy
                        assert Fraction(iv.lo) <= exact <= Fraction(iv.hi), (a, op, b)
            sq = a.sqr()
            for x in (a.lo, a.hi):
                assert Fraction(sq.lo) <= Fraction(x) ** 2 <= Fraction(sq.hi), a


# The formulas of ``pair_mul``, ``pair_div`` and ``pair_sqr`` with builtin
# ``min``/``max``, which keep the first of equal values, on the endpoints as
# four (or two) floats.  The comparison chains that replace them must give
# the same bits: signed zeros included.


def _ref_mul(al, ah, bl, bh):
    p1, p2, p3, p4 = al * bl, al * bh, ah * bl, ah * bh
    lo, hi = min(p1, p2, p3, p4), max(p1, p2, p3, p4)
    if (lo and hi) or (
        (al and bl and not p1) or (al and bh and not p2)
        or (ah and bl and not p3) or (ah and bh and not p4)
    ):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    else:
        if lo:
            lo = math.nextafter(lo, -math.inf)
        if hi:
            hi = math.nextafter(hi, math.inf)
    if -math.inf < lo <= hi < math.inf:
        return lo, hi
    raise _invalid(lo, hi)


def _ref_div(al, ah, bl, bh):
    if bl <= 0.0 <= bh:
        raise DivisionByZeroInterval(f"divisor [{bl!r}, {bh!r}] contains zero")
    q = (al / bl, al / bh, ah / bl, ah / bh)
    lo, hi = math.nextafter(min(q), -math.inf), math.nextafter(max(q), math.inf)
    if -math.inf < lo <= hi < math.inf:
        return lo, hi
    raise _invalid(lo, hi)


def _ref_sqr(lo, hi):
    a, b = sorted((abs(lo), abs(hi)))
    rhi = math.nextafter(b * b, math.inf) if b else 0.0
    rlo = 0.0 if lo <= 0.0 <= hi else max(0.0, math.nextafter(a * a, -math.inf))
    if -math.inf < rlo <= rhi < math.inf:
        return rlo, rhi
    raise _invalid(rlo, rhi)


def _outcome(fn, *args):
    """The result by ``repr``, or the error by class and message."""
    try:
        return repr(fn(*args))
    except (IntervalError, ZeroDivisionError) as exc:  # the latter for inverted divisors
        return type(exc), str(exc)


_SPECIAL = [s * x for x in (0.0, 5e-324, 1e-200, 1.0, 1e300, 1.7e308) for s in (1.0, -1.0)]
_PAIRS = list(itertools.product(_SPECIAL, repeat=2))  # inverted pairs too


class TestTieRule:
    def test_mul_and_div_match_builtin_min_max(self):
        for (al, ah), (bl, bh) in itertools.product(_PAIRS, repeat=2):
            args = (al, ah, bl, bh)
            a, b = (al, ah), (bl, bh)
            assert _outcome(pair_mul, a, b) == _outcome(_ref_mul, *args), args
            assert _outcome(pair_div, a, b) == _outcome(_ref_div, *args), args

    def test_sqr_matches_builtin_max(self):
        for lo, hi in _PAIRS:
            assert _outcome(pair_sqr, (lo, hi)) == _outcome(_ref_sqr, lo, hi), (lo, hi)

    def test_scale_is_mul_by_a_point_on_either_side(self):
        for k in _SPECIAL:
            for lo, hi in _PAIRS:
                scaled = _outcome(pair_scale, k, (lo, hi))
                assert scaled == _outcome(pair_mul, (k, k), (lo, hi)), (k, lo, hi)
                assert scaled == _outcome(pair_mul, (lo, hi), (k, k)), (k, lo, hi)

    def test_signed_zero_ties_keep_the_first_product(self):
        # 0*-1 = -0.0 comes first and ties with 0*1 = 0.0 for both min and max.
        assert repr(pair_mul((0.0, 0.0), (-1.0, 1.0))) == "(-0.0, -0.0)"
        assert repr(pair_scale(0.0, (-1.0, 1.0))) == "(-0.0, -0.0)"


class TestSafeScalars:
    @pytest.mark.parametrize("seed", range(3))
    def test_square_roots_bracket_exactly(self, seed):
        rng = random.Random(seed)
        values = [0.0, 1.0, 2.0, 4.0, 0.25, 5e-324, 1e300]
        values += [rng.uniform(0.0, 10.0) ** rng.randint(-8, 8) for _ in range(3000)]
        for x in values:
            up, down = sqrt_up(x), sqrt_down(x)
            assert Fraction(down) ** 2 <= Fraction(x) <= Fraction(up) ** 2
            # the tightest such floats
            assert up == down or math.nextafter(down, math.inf) == up
        assert (sqrt_up(4.0), sqrt_down(4.0)) == (2.0, 2.0)

    def test_fractions_round_to_the_nearest_safe_float(self):
        third = Fraction(1, 3)
        assert Fraction(fraction_down(third)) < third < Fraction(fraction_up(third))
        assert math.nextafter(fraction_down(third), 1.0) == fraction_up(third)
        assert fraction_up(Fraction(3, 4)) == fraction_down(Fraction(3, 4)) == 0.75
        tiny = Fraction(1, 10**400)
        assert (fraction_down(tiny), fraction_up(tiny)) == (0.0, 5e-324)
        assert (fraction_down(-tiny), fraction_up(-tiny)) == (-5e-324, -0.0)


class TestElementary:
    def test_sqr_even_range(self):
        r = Interval(-2, 1).sqr()
        assert r.lo == 0.0
        assert r.hi == pytest.approx(4.0)

    def test_abs(self):
        assert Interval(-3, 2).abs() == Interval(0, 3)
        assert Interval(-3, -1).abs() == Interval(1, 3)

    def test_pow_int_monotone_odd(self):
        r = Interval(*pair_pow((2.0, 3.0), 3))
        assert r.lo == pytest.approx(8.0) and r.hi == pytest.approx(27.0)

    def test_pow_int_even_zero_crossing(self):
        r = Interval(*pair_pow((-2.0, 1.0), 4))
        assert r.lo == 0.0 and r.hi == pytest.approx(16.0)

    def test_pow_int_invalid(self):
        # Exponents below 1 never reach ``pair_pow``: the tree rejects them.
        with pytest.raises(DomainError):
            PowInt(Var("x"), 0)
        with pytest.raises(ParseError):
            parse("x^0")

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            Interval(-1, 1).sqrt()
        r = Interval(4, 9).sqrt()
        assert r.lo <= 2.0 <= 3.0 <= r.hi

    def test_exp(self):
        r = Interval(0, 1).exp()
        assert r.lo <= 1.0 and r.hi >= math.e

    def test_degenerate_width_single_ops(self):
        # Point boxes through one +,-,* primitive stay within 4 ulps.
        rng = random.Random(7)
        for _ in range(300):
            x = rng.uniform(-8, 8)
            y = rng.uniform(-8, 8)
            ix, iy = point_interval(x), point_interval(y)
            for value, iv in (
                (x + y, ix + iy),
                (x - y, ix - iy),
                (x * y, ix * iy),
                (x * x, ix.sqr()),
            ):
                assert approx_encloses(iv, value)
                assert iv.width <= 4 * math.ulp(max(abs(value), 1e-300))


class TestTrig:
    def test_sin_degenerate_zero(self):
        r = iv_sin(Interval(0, 0))
        assert r.width <= 1e-12 and approx_encloses(r, 0.0)

    def test_cos_fallback(self):
        assert iv_cos(Interval(-10, 10)) == Interval(-1, 1)

    def test_sin_half(self):
        r = iv_sin(Interval(0.5, 0.5))
        assert approx_encloses(r, float(dec_sin(0.5)))

    @pytest.mark.parametrize("seed", [1, 2, 4, 6, 9])
    def test_trig_point_enclosure_against_series(self, seed):
        rng = random.Random(seed)
        args = [rng.uniform(-7, 7) for _ in range(120)] + [
            0.0, 1.5, -1.5, math.pi / 2, -math.pi / 2, 3.14, -3.14, 4.5, -6.0
        ]
        for x in args:
            s = iv_sin(point_interval(x))
            c = iv_cos(point_interval(x))
            assert s.lo <= float(dec_sin(x)) <= s.hi, x
            assert c.lo <= float(dec_cos(x)) <= c.hi, x

    def test_trig_interval_enclosure(self):
        rng = random.Random(11)
        for _ in range(500):
            lo = rng.uniform(-7, 7)
            hi = lo + rng.uniform(0, 6)
            s = iv_sin(Interval(lo, hi))
            c = iv_cos(Interval(lo, hi))
            for k in range(15):
                x = lo + (hi - lo) * k / 14
                assert s.lo <= math.sin(x) <= s.hi
                assert c.lo <= math.cos(x) <= c.hi

    def test_trig_range_subset_of_unit(self):
        for lo, hi in [(-0.3, 0.4), (0.1, 3.0), (-3.0, -0.2), (2.0, 9.0)]:
            for f in (iv_sin, iv_cos):
                r = f(Interval(lo, hi))
                assert -1.0 <= r.lo <= r.hi <= 1.0


class TestBox:
    def test_midpoint(self):
        b = Box.from_bounds([("x", 1, 3), ("y", 0, 2)])
        assert b.midpoint() == (2.0, 1.0)

    @pytest.mark.parametrize(
        "lo, hi, mid",
        [(1e308, 1.7e308, 1.35e308), (-1.7e308, -1e308, -1.35e308), (1e308, 1e308, 1e308)],
    )
    def test_midpoint_where_the_sum_overflows(self, lo, hi, mid):
        assert Interval(lo, hi).midpoint == mid

    def test_split_where_the_sum_overflows(self):
        left, right = Box.from_bounds([("x", 1e308, 1.7e308)]).split(0)
        assert left.dims[0] == Interval(1e308, 1.35e308)
        assert right.dims[0] == Interval(1.35e308, 1.7e308)

    def test_split(self):
        b = Box.from_bounds([("x", 0, 4), ("y", 0, 1)])
        left, right = b.split(0)
        assert left.dims[0] == Interval(0, 2) and right.dims[0] == Interval(2, 4)
        assert left.dims[1] == right.dims[1] == Interval(0, 1)

    def test_split_default_midpoint(self):
        b = Box.from_bounds([("x", 0, 4)])
        left, right = b.split(0)
        assert left.dims[0].hi == right.dims[0].lo == 2.0

    def test_width_is_max_dim(self):
        b = Box.from_bounds([("x", 0, 4), ("y", 0, 1)])
        assert b.widest()[1] == 4.0
        assert b.widest_dim() == 0

    def test_restrict_keeps_box_order(self):
        b = Box.from_bounds([("x", 0, 4), ("y", 0, 1), ("z", 2, 3)])
        r = b.restrict({"z", "x", "w"})
        assert r.labels == ("x", "z") and r.dims == (b.dims[0], b.dims[2])

    def test_restrict_to_nothing_keeps_whole_box(self):
        b = Box.from_bounds([("x", 0, 4), ("y", 0, 1)])
        assert b.restrict(()) == b

    def test_degenerate_split(self):
        b = Box.from_bounds([("x", 1, 1)])
        with pytest.raises(DegenerateSplit):
            b.split(0)
        with pytest.raises(DegenerateSplit, match="not strictly inside"):
            Box.from_bounds([("x", 1.0, math.nextafter(1.0, 2.0))]).split(0)

    def test_corners(self):
        b = Box.from_bounds([("x", 0, 4), ("y", -1, 1)])
        assert b.corner("lo") == (0.0, -1.0)
        assert b.corner("hi") == (4.0, 1.0)

    def test_labels_required(self):
        with pytest.raises(IntervalError):
            Box((Interval(0, 1),), ())


class TestRefinedEval:
    @staticmethod
    def _parabola(dims: list[tuple[float, float]]) -> tuple[float, float]:
        x = Interval(*dims[0])
        one = Interval(1.0, 1.0)
        r = x * (one - x)
        return r.lo, r.hi

    def test_single_segment_is_plain(self):
        b = Box.from_bounds([("x", 0, 1)])
        r = refined_eval(self._parabola, b, 1)
        assert r.lo <= 0.0 and r.hi >= 1.0 - 1e-12

    def test_ten_segments_tighter_and_enclosing(self):
        b = Box.from_bounds([("x", 0, 1)])
        plain = refined_eval(self._parabola, b, 1)
        refined = refined_eval(self._parabola, b, 10)
        assert encloses(plain, refined)
        assert refined.hi >= 0.25  # still encloses the true maximum
        assert refined.hi <= 0.31  # and is much tighter than the plain hull

    def test_degenerate_box(self):
        b = Box.from_bounds([("x", 0.3, 0.3)])
        for k in (1, 4, 10):
            assert refined_eval(self._parabola, b, k).width <= 1e-12

    def test_cuts_are_the_equal_slab_formula(self):
        rng = random.Random(11)
        for _ in range(200):
            lo = rng.uniform(-5, 5)
            iv = Interval(lo, lo + rng.uniform(0.0, 3))
            for segments in (1, 2, 3, 10):
                cuts = [iv.lo]
                for k in range(1, segments):
                    cuts.append(min(max(iv.lo + iv.width * (k / segments), cuts[-1]), iv.hi))
                assert slab_cuts(iv, segments) == cuts + [iv.hi]

    def test_cuts_where_the_width_overflows(self):
        cuts = slab_cuts(Interval(-1e308, 1.7e308), 4)
        assert cuts[0] == -1e308 and cuts[-1] == 1.7e308
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        assert cuts[2] == pytest.approx(0.35e308)

    def test_segments_validation(self):
        with pytest.raises(DomainError):
            refined_eval(self._parabola, Box.from_bounds([("x", 0, 1)]), 0)

    def test_refinement_subset_property_random(self):
        rng = random.Random(3)

        def fn(dims: list[tuple[float, float]]) -> tuple[float, float]:
            x, y = (Interval(*pair) for pair in dims)
            r = x * y - x.sqr() * y
            return r.lo, r.hi

        for _ in range(50):
            lo1, lo2 = rng.uniform(-2, 1), rng.uniform(-2, 1)
            b = Box.from_bounds(
                [("x", lo1, lo1 + rng.uniform(0.1, 2)), ("y", lo2, lo2 + rng.uniform(0.1, 2))]
            )
            plain = refined_eval(fn, b, 1)
            for segments in (2, 5, 10):
                assert encloses(plain, refined_eval(fn, b, segments))

    def test_inclusion_isotonicity(self):
        def fn(box: Box) -> Interval:
            x = box.dims[0]
            return x.sqr() - x

        rng = random.Random(5)
        for _ in range(100):
            lo = rng.uniform(-3, 2)
            hi = lo + rng.uniform(0.2, 3)
            inner_lo = rng.uniform(lo, hi)
            inner_hi = rng.uniform(inner_lo, hi)
            outer = fn(Box.from_bounds([("x", lo, hi)]))
            inner = fn(Box.from_bounds([("x", inner_lo, inner_hi)]))
            assert encloses(outer, inner)
