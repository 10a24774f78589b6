"""Sound interval arithmetic with outward rounding, plus box utilities.

An interval is a ``(lo, hi)`` pair of finite floats with ``lo <= hi``: a
model's bounds, a box's dimensions and the enclosures that the search and
the reports read are all such pairs.  Every arithmetic result encloses the
exact real-arithmetic image set: each primitive that may round widens its
endpoints outward by one unit in the last place (two for transcendental
library calls), so soundness never depends on a settable rounding mode.

Exact results are exempt: an endpoint of a sum or difference with an exactly
zero operand (``x + 0``, ``x - 0``, ``0 - x``), and a zero endpoint of a
product that only zero factors produce, is exact and is not stepped.  A
product of nonzero factors that underflows to ``±0`` is not exact, so it
still steps.  Without the exemption a zero partial derivative encloses as
``[-5e-324, ...]`` and never passes a sign test.  For the same reason an odd
power keeps its base's known sign: the endpoint of ``x**k`` on the side of
zero is clamped to ``0.0`` when it would step past it.

The scalar helpers ``ratio_up``/``ratio_down`` and ``sqrt_up``/``sqrt_down``
round a single exact value to the safe side: an integer ratio, such as a
sum of floats over a common power-of-two denominator, or a square root.
The assembly of certified constants (square roots, weighted sums) uses
them.

Every operation is defined once, on pairs (the ``pair_*`` functions),
which the compiled kernels of ``expr.Program`` call.  A :class:`Box` checks
its pairs where it is built from model or CLI bounds; nothing else checks a
bound.  The :class:`Interval` record, ``iv_sin``, ``iv_cos``, ``Box.dims``
and ``Box.widest_dim`` are kept only because the benchmark's tracer
(``perfbench/tracer.py``) reads them.  ``pair_scale`` is the one
specialised product: ``pair_mul`` by a finite point, bit for bit, from two
products instead of four; a test pins the two together.

The hot functions pick the least and greatest candidate endpoint by
comparison chains instead of the builtin ``min``/``max``, under CPython's
own tie rule: keep the first of equal values, replace only on a strict
``<`` (least) or ``>`` (greatest).  So signed zeros and NaN come out as the
builtins give them.

The trigonometric extensions ``pair_sin`` / ``pair_cos`` reduce each endpoint
by a multiple of ``pi/2`` in exact integer arithmetic and bracket sin and
cos of the remainder by consecutive Maclaurin partial sums, so a point
argument gets an enclosure a few ulps wide; an interval gets the hull of
its endpoints' enclosures, widened to 1 or -1 where a critical point may
lie inside.  Beyond ``|x| = TRIG_ARG_LIMIT`` (``2**20``), and on an interval
at least ``2*pi`` wide, both fall back to the trivial enclosure ``[-1, 1]``,
so both functions are total.

A :class:`Box` holds one pair per named variable; it is the search-space
object bisected by the optimizer.  ``refined_eval`` sharpens an interval
function (pairs in, one per dimension; a pair out) by slicing one dimension
(the optimizer's split dimension) into equal slabs and hulling their
enclosures, and returns a pair.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Collection, Sequence

from .errors import DegenerateSplit, DivisionByZeroInterval, DomainError, IntervalError

_INF = math.inf
_nextafter = math.nextafter


def _down(x: float) -> float:
    return _nextafter(x, -_INF)


def _up(x: float) -> float:
    return _nextafter(x, _INF)


# ---------------------------------------------------------------------------
# Float-pair operations
# ---------------------------------------------------------------------------
#
# Each ``pair_*`` function takes and returns intervals as ``(lo, hi)``
# tuples of floats (a scalar factor or exponent as a plain number).  They
# are the one definition of every operation's rounding: the compiled
# kernels of ``expr.Program`` call them.  A result that ``Interval(lo, hi)``
# would reject raises the same ``IntervalError`` here.  The hottest ones
# call ``math.nextafter`` directly instead of through ``_down``/``_up``, and
# test a float operand for an exact zero by its truth value (``0.0`` and
# ``-0.0`` are false).


def _invalid(lo: float, hi: float) -> IntervalError:
    """The error ``Interval(lo, hi)`` raises for endpoints it rejects."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return IntervalError(f"non-finite endpoint in [{lo}, {hi}]")
    return IntervalError(f"inverted interval [{lo}, {hi}]")


def pair_point(x: float) -> tuple[float, float]:
    if -_INF < x < _INF:
        return x, x
    raise _invalid(x, x)


def pair_add(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    (al, ah), (bl, bh) = a, b
    lo = al + bl
    if al and bl:
        lo = _nextafter(lo, -_INF)
    hi = ah + bh
    if ah and bh:
        hi = _nextafter(hi, _INF)
    if -_INF < lo <= hi < _INF:
        return lo, hi
    raise _invalid(lo, hi)


def pair_sub(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    (al, ah), (bl, bh) = a, b
    lo = al - bh
    if al and bh:
        lo = _nextafter(lo, -_INF)
    hi = ah - bl
    if ah and bl:
        hi = _nextafter(hi, _INF)
    if -_INF < lo <= hi < _INF:
        return lo, hi
    raise _invalid(lo, hi)


def pair_mul(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    (al, ah), (bl, bh) = a, b
    p1 = al * bl
    p2 = al * bh
    p3 = ah * bl
    p4 = ah * bh
    if p2 < p1:
        lo, hi = p2, p1
    elif p2 > p1:
        lo, hi = p1, p2
    else:
        lo = hi = p1
    if p3 < lo:
        lo = p3
    elif p3 > hi:
        hi = p3
    if p4 < lo:
        lo = p4
    elif p4 > hi:
        hi = p4
    if (lo and hi) or (
        (al and bl and not p1) or (al and bh and not p2)
        or (ah and bl and not p3) or (ah and bh and not p4)
    ):
        lo = _nextafter(lo, -_INF)
        hi = _nextafter(hi, _INF)
    else:
        # No product of nonzero factors underflowed, so a zero endpoint
        # comes from a zero factor and is exact.
        if lo:
            lo = _nextafter(lo, -_INF)
        if hi:
            hi = _nextafter(hi, _INF)
    if -_INF < lo <= hi < _INF:
        return lo, hi
    raise _invalid(lo, hi)


def pair_scale(k: float, a: tuple[float, float]) -> tuple[float, float]:
    """``pair_mul((k, k), a)`` for a finite point ``k``, bit for bit, from
    two products instead of four (the other two repeat them)."""
    lo, hi = a
    p1 = k * lo
    p2 = k * hi
    if p2 < p1:
        rlo, rhi = p2, p1
    elif p2 > p1:
        rlo, rhi = p1, p2
    else:
        rlo = rhi = p1
    if (rlo and rhi) or (k and ((lo and not p1) or (hi and not p2))):
        rlo = _nextafter(rlo, -_INF)
        rhi = _nextafter(rhi, _INF)
    else:
        if rlo:
            rlo = _nextafter(rlo, -_INF)
        if rhi:
            rhi = _nextafter(rhi, _INF)
    if -_INF < rlo <= rhi < _INF:
        return rlo, rhi
    raise _invalid(rlo, rhi)


def pair_div(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    (al, ah), (bl, bh) = a, b
    if bl <= 0.0 <= bh:
        raise DivisionByZeroInterval(f"divisor [{bl!r}, {bh!r}] contains zero")
    q1 = al / bl
    q2 = al / bh
    q3 = ah / bl
    q4 = ah / bh
    if q2 < q1:
        lo, hi = q2, q1
    elif q2 > q1:
        lo, hi = q1, q2
    else:
        lo = hi = q1
    if q3 < lo:
        lo = q3
    elif q3 > hi:
        hi = q3
    if q4 < lo:
        lo = q4
    elif q4 > hi:
        hi = q4
    lo = _nextafter(lo, -_INF)
    hi = _nextafter(hi, _INF)
    if -_INF < lo <= hi < _INF:
        return lo, hi
    raise _invalid(lo, hi)


def pair_sqr(a: tuple[float, float]) -> tuple[float, float]:
    lo, hi = a
    x, y = abs(lo), abs(hi)
    if x > y:
        x, y = y, x
    rhi = _nextafter(y * y, _INF) if y else 0.0
    if lo <= 0.0 <= hi:
        rlo = 0.0
    else:
        rlo = _nextafter(x * x, -_INF)
        if not rlo > 0.0:
            rlo = 0.0
    if -_INF < rlo <= rhi < _INF:
        return rlo, rhi
    raise _invalid(rlo, rhi)


def pair_abs(a: tuple[float, float]) -> tuple[float, float]:
    lo, hi = a
    if lo <= 0.0 <= hi:
        return 0.0, max(-lo, hi)
    if hi < 0.0:
        return -hi, -lo
    return a


def pair_max(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    """Pointwise maximum; exact, so no rounding."""
    return max(a[0], b[0]), max(a[1], b[1])


def pair_abs_adjoint(a: tuple[float, float], g: tuple[float, float]) -> tuple[float, float]:
    """The adjoint ``g`` of ``|x|`` times the derivative of ``|.|`` at
    ``x``, on a box where ``x`` lies in ``a``: ``g`` where ``x >= 0``
    (``|x| = x`` on the whole box), ``-g`` where ``x <= 0``, and else
    ``g*[-1, 1]``, which encloses Clarke's generalized gradient ``[-1, 1]``
    of ``|.|`` at 0.  Exact, so no rounding."""
    if a[0] >= 0.0:
        return g
    if a[1] <= 0.0:
        return -g[1], -g[0]
    m = max(-g[0], g[1])
    return -m, m


def pair_max_adjoint(
    a: tuple[float, float], b: tuple[float, float], g: tuple[float, float]
) -> tuple[float, float]:
    """The share of the adjoint ``g`` of ``max(x, y)`` that goes to ``x``,
    on a box where ``x`` lies in ``a`` and ``y`` in ``b``: all of it where
    ``x >= y`` (``max(x, y) = x`` on the whole box), none where ``y >= x``,
    and else ``g*[0, 1]``.  With the same rule for ``y`` (operands swapped)
    the shares enclose Clarke's generalized gradient, the hull of the
    gradients of ``x`` and ``y``.  Where ``x`` and ``y`` are one point, both
    get ``g*[0, 1]``.  Exact, so no rounding."""
    if a[0] >= b[1] and a[1] > b[0]:
        return g
    if b[0] >= a[1] and b[1] > a[0]:
        return 0.0, 0.0
    return min(g[0], 0.0), max(g[1], 0.0)


def pair_pow(a: tuple[float, float], k: int) -> tuple[float, float]:
    """Integer power ``k >= 1``; ``OverflowError`` propagates from ``**``."""
    if k == 1:
        return a
    if k == 2:
        return pair_sqr(a)
    lo, hi = a
    if k % 2 == 1:
        rlo = _down(_down(lo**k))
        rhi = _up(_up(hi**k))
        if lo >= 0.0:  # an odd power keeps its base's known sign
            rlo = max(rlo, 0.0)
        if hi <= 0.0:
            rhi = min(rhi, 0.0)
    else:
        x, y = abs(lo), abs(hi)
        if x > y:
            x, y = y, x
        rhi = _up(_up(y**k))
        rlo = 0.0 if lo <= 0.0 <= hi else max(0.0, _down(_down(x**k)))
    if -_INF < rlo <= rhi < _INF:
        return rlo, rhi
    raise _invalid(rlo, rhi)


def pair_sqrt(a: tuple[float, float]) -> tuple[float, float]:
    if a[0] < 0.0:
        raise DomainError(f"sqrt of interval [{a[0]!r}, {a[1]!r}] with negative part")
    return max(0.0, _down(math.sqrt(a[0]))), _up(math.sqrt(a[1]))


def pair_exp(a: tuple[float, float]) -> tuple[float, float]:
    """``OverflowError`` propagates from ``math.exp``."""
    rlo = max(0.0, _down(_down(math.exp(a[0]))))
    rhi = _up(_up(math.exp(a[1])))
    if -_INF < rlo <= rhi < _INF:
        return rlo, rhi
    raise _invalid(rlo, rhi)


# ---------------------------------------------------------------------------
# sin / cos: argument reduction and bracketing Maclaurin partial sums
# ---------------------------------------------------------------------------
#
# A point ``x`` is reduced to ``x = q*pi/2 + r``, with ``r`` enclosed by a
# pair and ``|r| <= pi/4`` up to a rounding margin.  ``pi/2`` is the
# double-double ``_HALF_PI + t``, where the tail ``t`` lies within one ulp
# of ``_HALF_PI_TAIL`` (a test checks it against 60 digits of pi).  Every
# quantity of the reduction times ``2**106`` is an integer: ``_HALF_PI``
# and ``x`` (``q`` is nonzero only for ``|x| > 1/2``) have ulps of at
# least ``2**-53`` and the tail's bounds have ulps of ``2**-106``.  So ``r``
# is bounded in exact integer arithmetic, and only its two conversions to
# float round, outward.  ``sin(x)`` is then ``+-sin(r)`` or ``+-cos(r)``
# by the quadrant ``q mod 4``; ``cos(x)`` is ``sin(x + pi/2)``, the same
# table at ``q + 1``.

_HALF_PI = math.pi / 2  # exact: halving
_HALF_PI_TAIL = 6.123233995736766e-17  # the float nearest pi/2 - _HALF_PI
_SCALE = 2**106
_HALF_PI_LO = int(_HALF_PI * 2.0**106) + int(_down(_HALF_PI_TAIL) * 2.0**106)
_HALF_PI_HI = int(_HALF_PI * 2.0**106) + int(_up(_HALF_PI_TAIL) * 2.0**106)

# Beyond this magnitude, and on an interval at least 2*pi wide, sin and cos
# are enclosed by [-1, 1].  Up to it, the tail's uncertainty puts at most
# q * 2.5e-32 < 2e-26 into r.
TRIG_ARG_LIMIT = 2.0**20
_TWO_PI_HI = _up(2.0 * math.pi)  # above 2*pi: math.pi is below pi

# A series stops at its first term below this in magnitude: that term
# bounds the gap between the two partial sums that bracket the value.
_TERM_FLOOR = 2.0**-60
# The divisors of the series' terms: term k of sin is term k-1 times
# -r^2 / (2k*(2k+1)), of cos times -r^2 / ((2k-1)*2k).  At |r| <= pi/4
# sin stops after 9 terms and cos after 10.
_SIN_DIVISORS = tuple(float(2 * k * (2 * k + 1)) for k in range(1, 13))
_COS_DIVISORS = tuple(float((2 * k - 1) * 2 * k) for k in range(1, 13))


def _exact_down(n: int) -> float:
    """The greatest float ``<= n / 2**106``."""
    x = n / _SCALE  # correctly rounded; the comparison below is exact
    return _down(x) if x * 2.0**106 > n else x


def _exact_up(n: int) -> float:
    """The least float ``>= n / 2**106``."""
    x = n / _SCALE
    return _up(x) if x * 2.0**106 < n else x


def _series_bounds(
    a: float, b: float, first: tuple[float, float], divisors: tuple[float, ...]
) -> tuple[float, float]:
    """Bounds on the alternating series ``sum_k (-1)^k m_k`` with ``m_0`` in
    ``first`` (of nonnegative bounds) and ``m_k = m_{k-1} * r^2 /
    divisors[k-1]``, for every ``r`` with ``a <= |r| <= b``, ``0 <= a <=
    b``: the hull of its partial sums ``S_{m-1}`` and ``S_m``, where ``m_m``
    is the first term below ``_TERM_FLOOR``.  On the reduced range the
    terms after ``m_0`` decrease, so the value lies between the two sums, in
    ``S_m + hull(0, -(-1)^m m_m)``.  The magnitudes' lower bounds come from
    ``a`` and their upper bounds from ``b``, each operation rounded outward;
    the terms are summed from the smallest, so that most roundings are at
    their small scale."""
    down, up = -_INF, _INF
    a2 = max(0.0, _nextafter(a * a, down))
    b2 = _nextafter(b * b, up)
    lo, hi = first
    terms = []
    negative = True
    for d in divisors:
        lo = _nextafter(_nextafter(lo * a2, down) / d, down)
        hi = _nextafter(_nextafter(hi * b2, up) / d, up)
        terms.append((-hi, -lo) if negative else (lo, hi))
        negative = not negative
        if hi < _TERM_FLOOR:
            break
    tlo, thi = terms[-1]
    slo, shi = min(0.0, -thi), max(0.0, -tlo)
    for tlo, thi in reversed(terms):
        slo = _nextafter(slo + tlo, down)
        shi = _nextafter(shi + thi, up)
    return _nextafter(first[0] + slo, down), _nextafter(first[1] + shi, up)


def _clamp_unit(lo: float, hi: float) -> tuple[float, float]:
    lo, hi = max(lo, -1.0), min(hi, 1.0)
    if -_INF < lo <= hi < _INF:
        return lo, hi
    raise _invalid(lo, hi)


# The point bounds are cached: a branch-and-bound evaluates sin and cos at
# the same box endpoints again and again (the gradient on the box, the
# slabs of its face), and the gradient of one needs the other at the same
# points.  ``0.0`` and ``-0.0`` share an entry; their bounds are the same.


@functools.lru_cache(maxsize=2048)
def _wave_point(x: float) -> tuple[tuple[float, float], tuple[float, float], int, int]:
    """``(sin x, cos x, up, down)`` for ``|x| <= TRIG_ARG_LIMIT``: pairs
    that enclose ``sin x`` and ``cos x``, the least ``up`` and the greatest
    ``down`` such that ``up*pi/2 >= x >= down*pi/2`` may hold.  With ``x =
    q*pi/2 + r``, ``r`` enclosed by ``[rl, rh]`` (``|rl|, |rh| <= pi/4 +
    1e-9``), ``up`` is ``q`` unless ``r`` is surely positive and ``down``
    is ``q`` unless it is surely negative."""
    if not x:  # exact: sin 0 = 0 and cos 0 = 1
        return (x, x), (1.0, 1.0), 0, 0
    q = round(x / _HALF_PI)
    if q:
        n = int(x * 2.0**106)  # exact
        hi_pi, lo_pi = (_HALF_PI_HI, _HALF_PI_LO) if q > 0 else (_HALF_PI_LO, _HALF_PI_HI)
        rl, rh = _exact_down(n - q * hi_pi), _exact_up(n - q * lo_pi)
    else:
        rl = rh = x
    # sin is odd and cos even: both are bounded from |r| in [a, b].
    if rl >= 0.0:
        a, b = rl, rh
        s = _series_bounds(a, b, (a, b), _SIN_DIVISORS)
    elif rh <= 0.0:
        a, b = -rh, -rl
        s = _series_bounds(a, b, (a, b), _SIN_DIVISORS)
        s = (-s[1], -s[0])
    else:
        a, b = 0.0, max(-rl, rh)
        s = _series_bounds(a, b, (a, b), _SIN_DIVISORS)
        s = (-s[1], s[1])
    c = _series_bounds(a, b, (1.0, 1.0), _COS_DIVISORS)
    # sin(q*pi/2 + r) for q = 0, 1, 2, 3 (mod 4); cos(x) is sin(x + pi/2).
    cycle = (s, c, (-s[1], -s[0]), (-c[1], -c[0]))
    return (
        _clamp_unit(*cycle[q % 4]), _clamp_unit(*cycle[(q + 1) % 4]),
        q if rl <= 0.0 else q + 1, q if rh >= 0.0 else q - 1,
    )


def _unit_wave(a: tuple[float, float], shift: int) -> tuple[float, float]:
    """Interval extension of ``x -> sin(x + shift*pi/2)``, ``shift`` 0 or
    1: the hull of the bounds at the endpoints, widened to 1 (to -1) where a
    maximizer (minimizer) ``k*pi/2``, ``k = 1 - shift`` (``3 - shift``) mod
    4, may lie in the interval, that is, where such a ``k`` lies between
    ``up`` of ``lo`` and ``down`` of ``hi`` (see ``_wave_point``)."""
    lo, hi = a
    if not (-TRIG_ARG_LIMIT <= lo and hi <= TRIG_ARG_LIMIT and hi - lo < _TWO_PI_HI):
        return -1.0, 1.0
    left = _wave_point(lo)
    if lo == hi:
        return left[shift]
    right = _wave_point(hi)
    rlo, rhi = left[shift]
    blo, bhi = right[shift]
    if blo < rlo:
        rlo = blo
    if bhi > rhi:
        rhi = bhi
    first = left[2]
    span = right[3] - first
    if span >= 0:
        if (1 - shift - first) % 4 <= span:
            rhi = 1.0
        if (3 - shift - first) % 4 <= span:
            rlo = -1.0
    return rlo, rhi


def pair_sin(a: tuple[float, float]) -> tuple[float, float]:
    """Interval extension of sin, a few ulps wide on a point argument (see
    ``_unit_wave``); ``[-1, 1]`` beyond ``TRIG_ARG_LIMIT`` and on an
    interval at least ``2*pi`` wide."""
    return _unit_wave(a, 0)


def pair_cos(a: tuple[float, float]) -> tuple[float, float]:
    """Interval extension of cos; see ``pair_sin``."""
    return _unit_wave(a, 1)


# ---------------------------------------------------------------------------
# Scalars rounded to the safe side
# ---------------------------------------------------------------------------
# An exact value is the ratio ``n / d`` of two integers, ``d > 0``.  CPython
# divides two integers with correct rounding, and raises ``OverflowError``
# past the largest float, as ``float(fractions.Fraction(n, d))`` does; one
# comparison of integers then says on which side of ``n / d`` the float lies.


def ratio_up(n: int, d: int) -> float:
    """The least float ``>= n / d``, for ``d > 0``."""
    x = n / d
    xn, xd = x.as_integer_ratio()
    return _up(x) if n * xd > xn * d else x


def ratio_down(n: int, d: int) -> float:
    """The greatest float ``<= n / d``, for ``d > 0``."""
    x = n / d
    xn, xd = x.as_integer_ratio()
    return _down(x) if n * xd < xn * d else x


def _square_minus(r: float, x: float) -> int:
    """An integer of the sign of ``r*r - x``, computed exactly."""
    rn, rd = r.as_integer_ratio()
    xn, xd = x.as_integer_ratio()
    return rn * rn * xd - xn * rd * rd


def sqrt_up(x: float) -> float:
    """The least float ``>= sqrt(x)``, for finite ``x >= 0``."""
    r = math.sqrt(x)  # correctly rounded
    return _up(r) if _square_minus(r, x) < 0 else r


def sqrt_down(x: float) -> float:
    """The greatest float ``<= sqrt(x)``, for finite ``x >= 0``."""
    r = math.sqrt(x)
    return _down(r) if _square_minus(r, x) > 0 else r


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


class Frozen:
    """Base of the immutable value classes.  A subclass stores each of its
    fields (its ``__slots__``) once, in ``__init__``, through
    ``object.__setattr__``, past the guards that make any later assignment
    or deletion raise.  Two values are equal, with equal hashes, when they
    are of one class and their fields are equal.  Copies and pickles call
    the class again with the fields, which ``__init__`` takes in order."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return (self.__class__, self._fields())

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())


def midpoint(lo: float, hi: float) -> float:
    """The float nearest ``(lo + hi) / 2``; ``lo/2 + hi/2`` where ``lo + hi``
    overflows."""
    m = 0.5 * (lo + hi)
    return m if -_INF < m < _INF else 0.5 * lo + 0.5 * hi


class Interval(Frozen):
    """Closed real interval with finite endpoints, ``lo <= hi``: a validated
    record that only the benchmark's tracer reads; bounds are pairs."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        if not -_INF < lo <= hi < _INF:
            raise _invalid(lo, hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


# The benchmark's tracer wraps these two; its traced CI leg needs them.
def iv_sin(a: Interval) -> Interval:
    """Interval extension of sin; see ``pair_sin``."""
    return Interval(*pair_sin((a.lo, a.hi)))


def iv_cos(a: Interval) -> Interval:
    """Interval extension of cos; see ``pair_cos``."""
    return Interval(*pair_cos((a.lo, a.hi)))


# ---------------------------------------------------------------------------
# Boxes
# ---------------------------------------------------------------------------


class Box(Frozen):
    """Product of closed intervals, one ``(lo, hi)`` pair of floats per
    named variable.  The pairs are checked here, where a box is built from
    model or CLI bounds, and not again in its halves and faces."""

    __slots__ = ("pairs", "labels")

    def __init__(self, pairs: Sequence[tuple[float, float]], labels: Sequence[str]) -> None:
        pairs = tuple((lo, hi) for lo, hi in pairs)
        if not pairs or len(pairs) != len(labels):
            raise IntervalError(f"box of {len(pairs)} dimensions and {len(labels)} labels")
        for lo, hi in pairs:
            if not -_INF < lo <= hi < _INF:
                raise _invalid(lo, hi)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "labels", tuple(labels))

    def __repr__(self) -> str:
        return f"Box(pairs={self.pairs!r}, labels={self.labels!r})"

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def dims(self) -> tuple[Interval, ...]:
        """The pairs as ``Interval`` records, built on each read.  Only the
        benchmark's tracer reads them; the search reads ``pairs``."""
        return tuple(Interval(lo, hi) for lo, hi in self.pairs)

    def widest(self) -> tuple[int, float]:
        """The first dimension of greatest width, and that width."""
        widths = [hi - lo for lo, hi in self.pairs]
        width = max(widths)
        return widths.index(width), width

    def widest_dim(self) -> int:
        """The first dimension of greatest width; only the tracer reads it."""
        return self.widest()[0]

    def midpoint(self) -> tuple[float, ...]:
        return tuple(midpoint(lo, hi) for lo, hi in self.pairs)

    def corners(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The lower corner and the upper corner."""
        return tuple(zip(*self.pairs))

    def split(self, dim: int) -> tuple["Box", "Box"]:
        """Bisect along ``dim`` at its midpoint; the halves cover the box
        with disjoint interiors.  Splitting a zero-width dimension, or one
        of two adjacent floats (no float strictly inside), is an error."""
        pairs = self.pairs
        lo, hi = pairs[dim]
        point = midpoint(lo, hi)
        if not lo < point < hi:
            raise DegenerateSplit(
                f"dimension {dim} of {self}: split point {point} not strictly inside"
            )
        head, tail = pairs[:dim], pairs[dim + 1:]
        return (
            unchecked_box((*head, (lo, point), *tail), self.labels),
            unchecked_box((*head, (point, hi), *tail), self.labels),
        )

    def restrict(self, names: Collection[str]) -> "Box":
        """The box over the labels in ``names``, in this box's order; the
        whole box when no label is in ``names``."""
        keep = [k for k, label in enumerate(self.labels) if label in names]
        if not keep:
            return self
        pairs, labels = self.pairs, self.labels
        return unchecked_box(tuple(pairs[k] for k in keep), tuple(labels[k] for k in keep))


def unchecked_box(pairs: tuple[tuple[float, float], ...], labels: tuple[str, ...]) -> Box:
    """The ``Box`` of pairs taken from a checked one, such as its halves."""
    box = object.__new__(Box)
    object.__setattr__(box, "pairs", pairs)
    object.__setattr__(box, "labels", labels)
    return box


def slab_cuts(pair: tuple[float, float], segments: int) -> list[float]:
    """The ``segments + 1`` nondecreasing cut points that slice ``pair`` into
    equal slabs, from its lower to its upper end.  Where the width
    overflows, each cut is the weighted mean of the endpoints instead."""
    lo, hi = pair
    width = hi - lo
    c = lo
    cuts = [lo]
    for k in range(1, segments):
        t = k / segments
        prev = c
        c = lo + width * t if width < _INF else (1.0 - t) * lo + t * hi
        if prev > c:
            c = prev
        if hi < c:
            c = hi
        cuts.append(c)
    cuts.append(hi)
    return cuts


def refined_eval(fn: Callable, box: Box, segments: int, dim: int) -> tuple[float, float]:
    """Evaluate the interval function ``fn`` on ``box`` after slicing its
    dimension ``dim`` into ``segments`` equal slabs; return the hull of the
    slab enclosures as a pair.  Each slab is one evaluation of ``fn``, on
    one list of pairs whose sliced entry is overwritten for each slab.  The
    optimizer passes the dimension it splits, that of greatest smear.

    Unsliced (one segment, or ``dim`` of zero width), ``fn`` gets the box's
    own tuple ``box.pairs``: a ``Program`` whose gradient has just run its
    forward pass on that tuple serves the value it computed then.

    For an inclusion-isotonic ``fn`` the result is contained in the
    single-shot evaluation, never wider.
    """
    if segments < 1:
        raise DomainError(f"segments must be >= 1, got {segments}")
    pairs = box.pairs
    pair = pairs[dim]
    if segments == 1 or not pair[0] < pair[1]:
        return fn(pairs)
    dims = list(pairs)
    lo, hi = _INF, -_INF
    cuts = slab_cuts(pair, segments)
    for left, right in zip(cuts, cuts[1:]):
        dims[dim] = (left, right)
        slo, shi = fn(dims)
        if slo < lo:
            lo = slo
        if shi > hi:
            hi = shi
    return lo, hi
