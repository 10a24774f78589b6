"""Interval arithmetic: soundness, elementary functions, boxes, refinement."""

import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from certbound import intervals
from certbound.intervals import (
    TRIG_ARG_LIMIT,
    Box,
    Interval,
    _invalid,
    midpoint,
    pair_abs,
    pair_add,
    pair_cos,
    pair_div,
    pair_exp,
    pair_mul,
    pair_pow,
    pair_scale,
    pair_sin,
    pair_sqr,
    pair_sqrt,
    ratio_down,
    ratio_up,
    pair_sub,
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
from certbound.expr import PowInt, Program, Var, parse
from conftest import dec_cos, dec_pi, dec_sin, encloses, make_box


def approx_encloses(iv: tuple[float, float], value: float, slack: float = 0.0) -> bool:
    return iv[0] - slack <= value <= iv[1] + slack


class TestArithmetic:
    def test_add_exact_endpoints(self):
        r = pair_add((1.0, 2.0), (3.0, 4.0))
        assert approx_encloses(r, 4.0) and approx_encloses(r, 6.0)
        assert r[0] == pytest.approx(4.0, abs=1e-14)
        assert r[1] == pytest.approx(6.0, abs=1e-14)

    def test_mul_endpoint_products(self):
        r = pair_mul((-1.0, 2.0), (3.0, 4.0))
        assert r[0] <= -4.0 <= r[1]
        assert r[0] <= 8.0 <= r[1]
        assert r[0] == pytest.approx(-4.0) and r[1] == pytest.approx(8.0)

    def test_div_zero_divisor_rejected(self):
        with pytest.raises(DivisionByZeroInterval):
            pair_div((1.0, 1.0), (-1.0, 1.0))

    def test_div_encloses(self):
        r = pair_div((1.0, 2.0), (2.0, 4.0))
        assert r[0] <= 0.25 and r[1] >= 1.0

    def test_inverted_interval_rejected(self):
        with pytest.raises(IntervalError):
            Interval(2, 1)
        with pytest.raises(IntervalError):
            Interval(0, math.inf)

    def test_sub_neg(self):
        r = pair_sub((1.0, 2.0), (0.5, 3.0))
        assert r[0] <= -2.0 and r[1] >= 1.5
        # Negation is exact; the kernels write it inline.
        assert Program(parse("-x"), ("x",))([(1.0, 2.0)]) == (-2.0, -1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_arith_soundness_random(self, seed):
        rng = random.Random(seed)
        for _ in range(400):
            a = tuple(sorted(rng.uniform(-10, 10) for _ in range(2)))
            b = tuple(sorted(rng.uniform(-10, 10) for _ in range(2)))
            for _ in range(8):
                x = rng.uniform(*a)
                y = rng.uniform(*b)
                assert approx_encloses(pair_add(a, b), x + y)
                assert approx_encloses(pair_sub(a, b), x - y)
                assert approx_encloses(pair_mul(a, b), x * y)
                if b[0] > 0.1 or b[1] < -0.1:
                    assert approx_encloses(pair_div(a, b), x / y)


class TestExactZeros:
    def test_zero_operand_sum_and_difference_are_exact(self):
        assert pair_add((0.0, 0.0), (1.5, 2.5)) == (1.5, 2.5)
        assert pair_sub((1.5, 2.5), (0.0, 0.0)) == (1.5, 2.5)
        assert pair_sub((0.0, 0.0), (1.5, 2.5)) == (-2.5, -1.5)
        assert pair_add((-0.0, 3.0), (0.0, 1.0)) == (0.0, math.nextafter(4.0, 5.0))

    def test_sums_of_zeros_stay_zero(self):
        total = (0.0, 0.0)
        for _ in range(10):
            total = pair_sub(pair_add(total, (0.0, 0.0)), (0.0, 0.0))
        assert total == (0.0, 0.0)

    def test_nonzero_operands_still_step(self):
        r = pair_add((1.0, 1.0), (2.0, 2.0))
        assert r == (math.nextafter(3.0, 0.0), math.nextafter(3.0, 4.0))
        r = pair_sub((1.0, 1.0), (1.0, 1.0))
        assert r == (-5e-324, 5e-324)

    def test_zero_factor_product_is_exact(self):
        assert pair_mul((0.0, 0.0), (-3.0, 7.0)) == (0.0, 0.0)
        r = pair_mul((0.0, 2.0), (0.0, 3.0))
        assert r[0] == 0.0 and r[1] == math.nextafter(6.0, 7.0)
        r = pair_mul((-1.0, 0.0), (0.0, 1.0))
        assert r[0] == math.nextafter(-1.0, -2.0) and r[1] == 0.0
        assert pair_sqr((0.0, 0.0)) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "a, b", [((1e-200, 1e-200), (-1e-200, -1e-200)), ((1e-200, 1e-200), (1e-200, 1e-200))]
    )
    def test_underflowing_product_still_steps(self, a, b):
        r = pair_mul(a, b)
        assert r[0] < 0.0 < r[1]
        r = pair_mul((0.0, 1e-200), b)  # one zero factor, one underflow
        assert r[0] < 0.0 < r[1]

    def test_underflowing_square_still_steps(self):
        r = pair_sqr((1e-200, 1e-200))
        assert r[0] == 0.0 and r[1] == 5e-324

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_soundness_with_zeros_and_tiny_endpoints(self, seed):
        # Every endpoint combination of the real results lies in the
        # enclosure, checked in exact rational arithmetic.
        rng = random.Random(seed)
        pool = [0.0, -0.0, 1e-200, -1e-200, 3e-170, 5e-324, 1.0, -2.5, 0.1, 7.0]

        def draw() -> tuple[float, float]:
            a, b = sorted((rng.choice(pool), rng.choice(pool)))
            return a, b

        for _ in range(3000):
            a, b = draw(), draw()
            for op, iv in (("+", pair_add(a, b)), ("-", pair_sub(a, b)), ("*", pair_mul(a, b))):
                for x in a:
                    for y in b:
                        fx, fy = Fraction(x), Fraction(y)
                        exact = fx + fy if op == "+" else fx - fy if op == "-" else fx * fy
                        assert Fraction(iv[0]) <= exact <= Fraction(iv[1]), (a, op, b)
            sq = pair_sqr(a)
            for x in a:
                assert Fraction(sq[0]) <= Fraction(x) ** 2 <= Fraction(sq[1]), a


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
        assert Fraction(ratio_down(1, 3)) < third < Fraction(ratio_up(1, 3))
        assert math.nextafter(ratio_down(1, 3), 1.0) == ratio_up(1, 3)
        assert ratio_up(3, 4) == ratio_down(3, 4) == 0.75
        tiny = 10**400
        assert (ratio_down(1, tiny), ratio_up(1, tiny)) == (0.0, 5e-324)
        assert (ratio_down(-1, tiny), ratio_up(-1, tiny)) == (-5e-324, -0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_ratios_round_as_fractions_do(self, seed):
        # The reference rounds through ``float(Fraction)``: the same bits, the
        # same signed zero and the same OverflowError.
        def reference(n, d):
            q = Fraction(n, d)
            x = float(q)
            up = math.nextafter(x, math.inf) if q > x else x
            down = math.nextafter(x, -math.inf) if q < x else x
            return repr(up), repr(down)

        rng = random.Random(seed)
        cases = [(0, 1), (-1, 10**400), (1, 10**400), (10**400, 3), (-(10**400), 3)]
        for _ in range(2000):
            n = rng.randrange(-(10 ** rng.randint(1, 400)), 10 ** rng.randint(1, 400))
            cases.append((n, rng.randrange(1, 10 ** rng.randint(1, 400))))
        for n, d in cases:
            try:
                expected = reference(n, d)
            except OverflowError:
                for rounded in (ratio_up, ratio_down):
                    with pytest.raises(OverflowError):
                        rounded(n, d)
                continue
            assert (repr(ratio_up(n, d)), repr(ratio_down(n, d))) == expected, (n, d)


class TestElementary:
    def test_sqr_even_range(self):
        r = pair_sqr((-2.0, 1.0))
        assert r[0] == 0.0
        assert r[1] == pytest.approx(4.0)

    def test_abs(self):
        assert pair_abs((-3.0, 2.0)) == (0.0, 3.0)
        assert pair_abs((-3.0, -1.0)) == (1.0, 3.0)

    def test_pow_int_monotone_odd(self):
        lo, hi = pair_pow((2.0, 3.0), 3)
        assert lo == pytest.approx(8.0) and hi == pytest.approx(27.0)

    def test_pow_int_even_zero_crossing(self):
        lo, hi = pair_pow((-2.0, 1.0), 4)
        assert lo == 0.0 and hi == pytest.approx(16.0)

    @pytest.mark.parametrize(
        "a, expected",
        [
            ((0.0, 1.0), (0.0, math.nextafter(math.nextafter(1.0, 2.0), 2.0))),
            ((-1.0, -0.0), (math.nextafter(math.nextafter(-1.0, -2.0), -2.0), 0.0)),
        ],
    )
    def test_pow_int_odd_keeps_the_sign_of_its_base(self, a, expected):
        # The zero endpoint is exact: it is not stepped past zero.
        assert list(map(repr, pair_pow(a, 3))) == list(map(repr, expected))

    def test_pow_int_odd_underflow_stays_nonnegative(self):
        lo, hi = pair_pow((0.5, 1.0), 2**40 - 1)  # 0.5**k underflows to 0.0
        assert (repr(lo), hi) == ("0.0", math.nextafter(math.nextafter(1.0, 2.0), 2.0))

    def test_pow_int_invalid(self):
        # Exponents below 1 never reach ``pair_pow``: the tree rejects them.
        with pytest.raises(DomainError):
            PowInt(Var("x"), 0)
        with pytest.raises(ParseError):
            parse("x^0")

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            pair_sqrt((-1.0, 1.0))
        r = pair_sqrt((4.0, 9.0))
        assert r[0] <= 2.0 <= 3.0 <= r[1]

    def test_exp(self):
        r = pair_exp((0.0, 1.0))
        assert r[0] <= 1.0 and r[1] >= math.e

    def test_degenerate_width_single_ops(self):
        # Point boxes through one +,-,* primitive stay within 4 ulps.
        rng = random.Random(7)
        for _ in range(300):
            x = rng.uniform(-8, 8)
            y = rng.uniform(-8, 8)
            ix, iy = (x, x), (y, y)
            for value, iv in (
                (x + y, pair_add(ix, iy)),
                (x - y, pair_sub(ix, iy)),
                (x * y, pair_mul(ix, iy)),
                (x * x, pair_sqr(ix)),
            ):
                assert approx_encloses(iv, value)
                assert iv[1] - iv[0] <= 4 * math.ulp(max(abs(value), 1e-300))


class TestTrig:
    def test_sin_degenerate_zero(self):
        r = pair_sin((0.0, 0.0))
        assert r[1] - r[0] <= 1e-12 and approx_encloses(r, 0.0)

    def test_cos_fallback(self):
        assert pair_cos((-10.0, 10.0)) == (-1.0, 1.0)

    def test_sin_half(self):
        r = pair_sin((0.5, 0.5))
        assert approx_encloses(r, float(dec_sin(0.5)))

    @pytest.mark.parametrize("seed", [1, 2, 4, 6, 9])
    def test_trig_point_enclosure_against_series(self, seed):
        rng = random.Random(seed)
        args = [rng.uniform(-7, 7) for _ in range(120)] + [
            0.0, 1.5, -1.5, math.pi / 2, -math.pi / 2, 3.14, -3.14, 4.5, -6.0
        ]
        for x in args:
            s = pair_sin((x, x))
            c = pair_cos((x, x))
            assert s[0] <= float(dec_sin(x)) <= s[1], x
            assert c[0] <= float(dec_cos(x)) <= c[1], x

    def test_trig_interval_enclosure(self):
        rng = random.Random(11)
        for _ in range(500):
            lo = rng.uniform(-7, 7)
            hi = lo + rng.uniform(0, 6)
            s = pair_sin((lo, hi))
            c = pair_cos((lo, hi))
            for k in range(15):
                x = min(lo + (hi - lo) * k / 14, hi)  # rounding may step past hi
                assert s[0] <= math.sin(x) <= s[1]
                assert c[0] <= math.cos(x) <= c[1]

    def test_trig_range_subset_of_unit(self):
        for lo, hi in [(-0.3, 0.4), (0.1, 3.0), (-3.0, -0.2), (2.0, 9.0)]:
            for f in (pair_sin, pair_cos):
                r = f((lo, hi))
                assert -1.0 <= r[0] <= r[1] <= 1.0


PI = dec_pi(60)

# sin and cos with their oracles; ``peak(k)`` is the value at the critical
# point ``k*pi/2`` (a maximizer or minimizer), ``None`` where there is none.
WAVES = [
    (pair_sin, dec_sin, lambda k: None if k % 2 == 0 else (1 if k % 4 == 1 else -1)),
    (pair_cos, dec_cos, lambda k: None if k % 2 else (1 if k % 4 == 0 else -1)),
]


def dec_wave(oracle, x: float) -> Decimal:
    """``oracle`` at ``x``, after removing a multiple of ``2*pi`` exactly
    enough for the series."""
    m = round(Decimal(x) / (2 * PI))
    return oracle(Decimal(x) - m * 2 * PI)


def assert_encloses_wave(wave, lo: float, hi: float, samples) -> None:
    """``[lo, hi]``'s enclosure contains the exact value at every sample and
    at every critical point in the interval: zero tolerance."""
    fn, oracle, peak = wave
    rlo, rhi = fn((lo, hi))
    assert -1.0 <= rlo <= rhi <= 1.0
    for x in samples:
        assert Decimal(rlo) <= dec_wave(oracle, x) <= Decimal(rhi), (fn, lo, hi, x)
    k = math.ceil(Decimal(lo) / (PI / 2))
    while k * PI / 2 <= Decimal(hi):
        if peak(k) is not None:
            assert rlo <= peak(k) <= rhi, (fn, lo, hi, k)
        k += 1


class TestTrigOracle:
    """sin and cos against high-precision Decimal values, with no slack."""

    def test_half_pi_tail_is_within_one_ulp(self):
        tail = Fraction(PI / 2) - Fraction(math.pi / 2)
        t = intervals._HALF_PI_TAIL
        assert Fraction(math.nextafter(t, 0.0)) < tail < Fraction(math.nextafter(t, 1.0))

    @pytest.mark.parametrize("seed", range(3))
    def test_points_are_enclosed_and_narrow(self, seed):
        rng = random.Random(700 + seed)
        for x in [rng.uniform(-30.0, 30.0) for _ in range(300)] + [0.0, -0.0, 3.0, 1e-300]:
            for wave in WAVES:
                assert_encloses_wave(wave, x, x, [x])
                lo, hi = wave[0]((x, x))
                assert hi - lo <= 1e-13, (x, lo, hi)

    @pytest.mark.parametrize("wave", WAVES, ids=["sin", "cos"])
    def test_within_three_ulps_of_half_pi_multiples(self, wave):
        for k in range(-19, 20):
            xs = [float(k * PI / 2)]
            for _ in range(3):
                xs.insert(0, math.nextafter(xs[0], -math.inf))
                xs.append(math.nextafter(xs[-1], math.inf))
            for i, lo in enumerate(xs):
                for hi in xs[i:]:
                    assert_encloses_wave(wave, lo, hi, {lo, hi})
            point = wave[0]((xs[3], xs[3]))
            assert point[1] - point[0] <= 1e-13, (k, point)

    @pytest.mark.parametrize("seed", range(3))
    def test_intervals_enclose_sampled_and_critical_values(self, seed):
        rng = random.Random(800 + seed)
        for _ in range(150):
            lo = rng.uniform(-30.0, 30.0)
            hi = lo + rng.choice([1e-12, 1e-6, 0.1, 1.0, 3.0, 6.28]) * rng.random()
            samples = [lo, hi] + [rng.uniform(lo, hi) for _ in range(4)]
            for wave in WAVES:
                assert_encloses_wave(wave, lo, hi, samples)

    def test_large_arguments_up_to_the_limit(self):
        rng = random.Random(9)
        xs = [rng.uniform(-TRIG_ARG_LIMIT, TRIG_ARG_LIMIT) for _ in range(40)]
        for x in xs + [TRIG_ARG_LIMIT, -TRIG_ARG_LIMIT]:
            for wave in WAVES:
                assert_encloses_wave(wave, x, x, [x])
                assert_encloses_wave(wave, x, x + 1.0, [x, x + 0.5, x + 1.0])
                lo, hi = wave[0]((x, x))
                assert hi - lo <= 1e-13, (x, lo, hi)

    def test_critical_points_widen_to_one(self):
        assert pair_sin((1.5, 1.6))[1] == 1.0 and pair_sin((4.6, 4.8))[0] == -1.0
        assert pair_cos((-0.1, 0.1))[1] == 1.0 and pair_cos((3.1, 3.2))[0] == -1.0
        # Narrower than 2*pi, so not the fallback: cos has no maximizer here.
        lo, hi = pair_cos((0.1, 6.2))
        assert lo == -1.0 and hi < 1.0

    def test_trivial_enclosure_only_when_wide_or_far(self):
        two_pi = float(2 * PI)
        for fn in (pair_sin, pair_cos):
            assert fn((0.5, 0.5 + two_pi)) == (-1.0, 1.0)
            assert fn((-3.0, 10.0)) == (-1.0, 1.0)
            beyond = math.nextafter(TRIG_ARG_LIMIT, math.inf)
            assert fn((beyond, beyond)) == fn((-beyond, -beyond)) == (-1.0, 1.0)


def floats_below(x: float, count: int) -> list[float]:
    """``x`` and the ``count - 1`` floats below it."""
    xs = [x]
    while len(xs) < count:
        xs.append(math.nextafter(xs[-1], -math.inf))
    return xs


class TestOutwardSteps:
    """Outward rounding steps, each seen by an exact reference: a test here
    fails once a step it covers rounds to nearest instead.  Not covered, as
    no enclosure can show them: the three steps of ``_series_bounds``' upper
    term bound, any two of which cover the third's half ulp."""

    def test_sqrt_brackets_non_squares(self):
        # sqrt(2) and the subnormal's root round up to nearest, sqrt(3) and
        # sqrt(0.1) down: each end of the pair needs its step.
        values = [2.0, 3.0, 0.1, 1e-310]
        assert any(math.sqrt(x) > sqrt_down(x) for x in values)
        assert any(math.sqrt(x) < sqrt_up(x) for x in values)
        for x in values:
            lo, hi = pair_sqrt((x, x))
            assert lo <= sqrt_down(x) and sqrt_up(x) <= hi, x

    def test_half_pi_bracket_clears_pi_over_two(self):
        # Each end lies more than half a unit of 2**-106 from pi/2, so the
        # bracket holds whichever way the nearest tail was rounded.
        scaled = Fraction(PI / 2) * 2**106
        assert scaled - intervals._HALF_PI_LO > Fraction(1, 2)
        assert intervals._HALF_PI_HI - scaled > Fraction(1, 2)

    def test_two_pi_bound_is_above_two_pi(self):
        assert Fraction(intervals._TWO_PI_HI) > 2 * Fraction(PI)

    @pytest.mark.parametrize("n", [
        2**60, 2**60 + 1, 2**60 + 255, -(2**60 + 1), -(2**60 + 255), 3 * 2**106, 7,
    ])
    def test_exact_conversions_are_the_nearest_safe_floats(self, n):
        # The scale of the argument reduction's exact remainders.
        exact = Fraction(n, 2**106)
        down, up = ratio_down(n, 2**106), ratio_up(n, 2**106)
        assert Fraction(down) <= exact < Fraction(math.nextafter(down, math.inf))
        assert Fraction(math.nextafter(up, -math.inf)) < exact <= Fraction(up)

    def test_series_bounds_at_the_edges_of_the_reduced_range(self):
        # The reduced argument reaches pi/4 + 1e-9.  There the terms are
        # largest against the sum, so the sum's own last step is needed:
        # the slack of the terms' steps no longer covers its rounding.
        edge = float(PI / 4)
        points = floats_below(edge + 1e-9, 64) + floats_below(edge, 64)
        points += [0.5, 2.0**-30, 1e-300, 5e-324, 0.0]
        for r in points:
            slo, shi = intervals._series_bounds(r, r, (r, r), intervals._SIN_DIVISORS)
            assert Decimal(slo) <= dec_sin(r) <= Decimal(shi), r
            clo, chi = intervals._series_bounds(r, r, (1.0, 1.0), intervals._COS_DIVISORS)
            assert Decimal(clo) <= dec_cos(r) <= Decimal(chi), r


class TestBox:
    def test_midpoint(self):
        b = make_box([("x", 1, 3), ("y", 0, 2)])
        assert b.midpoint() == (2.0, 1.0)

    @pytest.mark.parametrize(
        "lo, hi, mid",
        [(1e308, 1.7e308, 1.35e308), (-1.7e308, -1e308, -1.35e308), (1e308, 1e308, 1e308)],
    )
    def test_midpoint_where_the_sum_overflows(self, lo, hi, mid):
        assert midpoint(lo, hi) == mid
        assert make_box([("x", lo, hi)]).midpoint() == (mid,)

    def test_split_where_the_sum_overflows(self):
        left, right = make_box([("x", 1e308, 1.7e308)]).split(0)
        assert left.pairs == ((1e308, 1.35e308),)
        assert right.pairs == ((1.35e308, 1.7e308),)

    def test_split(self):
        b = make_box([("x", 0, 4), ("y", 0, 1)])
        left, right = b.split(0)
        assert left.pairs == ((0.0, 2.0), (0.0, 1.0)) and right.pairs == ((2.0, 4.0), (0.0, 1.0))
        assert left.labels == right.labels == b.labels
        assert left.pairs[1] is right.pairs[1] is b.pairs[1]

    def test_split_default_midpoint(self):
        b = make_box([("x", 0, 4)])
        left, right = b.split(0)
        assert left.pairs[0][1] == right.pairs[0][0] == 2.0

    def test_dims_are_the_pairs_as_intervals(self):
        b = make_box([("x", 0, 4), ("y", -1.5, 1)])
        assert b.dims == (Interval(0.0, 4.0), Interval(-1.5, 1.0))
        assert b.dims[1].width == 2.5

    @pytest.mark.parametrize(
        "pair", [(1.0, 0.0), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)]
    )
    def test_pairs_are_validated(self, pair):
        with pytest.raises(IntervalError):
            Box([(0.0, 1.0), pair], ("x", "y"))

    def test_width_is_max_dim(self):
        b = make_box([("x", 0, 4), ("y", 0, 1)])
        assert b.widest()[1] == 4.0
        assert b.widest_dim() == 0

    def test_restrict_keeps_box_order(self):
        b = make_box([("x", 0, 4), ("y", 0, 1), ("z", 2, 3)])
        r = b.restrict({"z", "x", "w"})
        assert r.labels == ("x", "z") and r.pairs == (b.pairs[0], b.pairs[2])

    def test_restrict_to_nothing_keeps_whole_box(self):
        b = make_box([("x", 0, 4), ("y", 0, 1)])
        assert b.restrict(()) == b

    def test_degenerate_split(self):
        b = make_box([("x", 1, 1)])
        with pytest.raises(DegenerateSplit):
            b.split(0)
        with pytest.raises(DegenerateSplit, match="not strictly inside"):
            make_box([("x", 1.0, math.nextafter(1.0, 2.0))]).split(0)

    def test_corners(self):
        b = make_box([("x", 0, 4), ("y", -1, 1)])
        assert b.corners() == ((0.0, -1.0), (4.0, 1.0))

    def test_labels_required(self):
        with pytest.raises(IntervalError):
            Box(((0.0, 1.0),), ())


class TestRefinedEval:
    @staticmethod
    def _parabola(dims: list[tuple[float, float]]) -> tuple[float, float]:
        x = dims[0]
        return pair_mul(x, pair_sub((1.0, 1.0), x))

    def test_single_segment_is_plain(self):
        b = make_box([("x", 0, 1)])
        r = refined_eval(self._parabola, b, 1, 0)
        assert r == self._parabola(b.pairs) and r[0] <= 0.0 and r[1] >= 1.0 - 1e-12

    def test_ten_segments_tighter_and_enclosing(self):
        b = make_box([("x", 0, 1)])
        plain = refined_eval(self._parabola, b, 1, 0)
        refined = refined_eval(self._parabola, b, 10, 0)
        assert encloses(plain, refined)
        assert refined[1] >= 0.25  # still encloses the true maximum
        assert refined[1] <= 0.31  # and is much tighter than the plain hull

    def test_degenerate_box(self):
        b = make_box([("x", 0.3, 0.3)])
        for k in (1, 4, 10):
            lo, hi = refined_eval(self._parabola, b, k, 0)
            assert hi - lo <= 1e-12

    def test_cuts_are_the_equal_slab_formula(self):
        rng = random.Random(11)
        for _ in range(200):
            lo = rng.uniform(-5, 5)
            hi = lo + rng.uniform(0.0, 3)
            for segments in (1, 2, 3, 10):
                cuts = [lo]
                for k in range(1, segments):
                    cuts.append(min(max(lo + (hi - lo) * (k / segments), cuts[-1]), hi))
                assert slab_cuts((lo, hi), segments) == cuts + [hi]

    def test_cuts_where_the_width_overflows(self):
        cuts = slab_cuts((-1e308, 1.7e308), 4)
        assert cuts[0] == -1e308 and cuts[-1] == 1.7e308
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        assert cuts[2] == pytest.approx(0.35e308)

    def test_segments_validation(self):
        with pytest.raises(DomainError):
            refined_eval(self._parabola, make_box([("x", 0, 1)]), 0, 0)

    def test_an_unsliced_box_returns_the_whole_enclosure_it_is_given(self):
        # Unsliced (one segment, or a sliced dimension of zero width), the
        # enclosure the caller holds is the result and ``fn`` is not
        # called; a sliced box ignores it.  Each slab is one call.
        calls = []

        def fn(dims):
            calls.append(list(dims))
            return self._parabola(dims)

        whole = (-7.0, 7.0)  # no enclosure of the parabola: returned as given
        box = make_box([("x", 0.0, 1.0), ("y", 2.0, 2.0)])
        for segments, dim in ((1, 0), (1, 1), (5, 1)):
            assert refined_eval(fn, box, segments, dim, whole) is whole
        assert calls == []
        assert refined_eval(fn, box, 1, 0) == self._parabola(box.pairs) and len(calls) == 1
        for given in (None, whole):
            del calls[:]
            refined = refined_eval(fn, box, 4, 0, given)
            assert refined == refined_eval(self._parabola, box, 4, 0) and len(calls) == 4

    def test_refinement_subset_property_random(self):
        rng = random.Random(3)

        def fn(dims: list[tuple[float, float]]) -> tuple[float, float]:
            x, y = dims
            return pair_sub(pair_mul(x, y), pair_mul(pair_sqr(x), y))

        for _ in range(50):
            lo1, lo2 = rng.uniform(-2, 1), rng.uniform(-2, 1)
            b = make_box(
                [("x", lo1, lo1 + rng.uniform(0.1, 2)), ("y", lo2, lo2 + rng.uniform(0.1, 2))]
            )
            plain = refined_eval(fn, b, 1, 0)
            for segments in (2, 5, 10):
                assert encloses(plain, refined_eval(fn, b, segments, b.widest()[0]))

    def test_inclusion_isotonicity(self):
        def fn(x: tuple[float, float]) -> tuple[float, float]:
            return pair_sub(pair_sqr(x), x)

        rng = random.Random(5)
        for _ in range(100):
            lo = rng.uniform(-3, 2)
            hi = lo + rng.uniform(0.2, 3)
            inner_lo = rng.uniform(lo, hi)
            inner_hi = rng.uniform(inner_lo, hi)
            outer = fn((lo, hi))
            inner = fn((inner_lo, inner_hi))
            assert outer[0] <= inner[0] and inner[1] <= outer[1]
