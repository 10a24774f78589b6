"""Sound interval arithmetic with outward rounding, plus box utilities.

An :class:`Interval` is a closed interval ``[lo, hi]`` with finite float
endpoints.  Every arithmetic result encloses the exact real-arithmetic image
set: each primitive that may round widens its endpoints outward by one unit
in the last place (two for transcendental library calls), so soundness never
depends on a settable rounding mode.

Exact results are exempt: an endpoint of a sum or difference with an exactly
zero operand (``x + 0``, ``x - 0``, ``0 - x``), and a zero endpoint of a
product that only zero factors produce, is exact and is not stepped.  A
product of nonzero factors that underflows to ``±0`` is not exact, so it
still steps.  Without the exemption a zero partial derivative encloses as
``[-5e-324, ...]`` and never passes a sign test.

The scalar helpers ``fraction_up``/``fraction_down`` and
``sqrt_up``/``sqrt_down`` round a single exact value to the safe side; the
assembly of certified constants (square roots, weighted sums) uses them.

Every operation is defined once, on ``(lo, hi)`` tuples of floats (the
``pair_*`` functions); the :class:`Interval` methods wrap them, and the
compiled kernels of ``expr.Program`` call them directly.  ``pair_scale`` is
the one specialised product: ``pair_mul`` by a finite point, bit for bit,
from two products instead of four; a test pins the two together.

The hot functions pick the least and greatest candidate endpoint by
comparison chains instead of the builtin ``min``/``max``, under CPython's
own tie rule: keep the first of equal values, replace only on a strict
``<`` (least) or ``>`` (greatest).  So signed zeros and NaN come out as the
builtins give them.

The trigonometric extensions ``iv_sin`` / ``iv_cos`` bracket sin and cos by
truncated Maclaurin partial sums of the fixed degree ``SERIES_DEGREE``,
whose tails are sign-controlled on ``[-pi, pi]``; arguments outside the
handled subdomains fall back to the trivial enclosure ``[-1, 1]``, so both
functions are total.

A :class:`Box` is a product of intervals, one per named variable; it is the
search-space object bisected by the optimizer.  ``refined_eval`` sharpens an
interval function (a list of pairs in, one per dimension; a pair out) by
slicing the widest dimension into equal slabs and hulling their enclosures.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Callable, Collection, Sequence

from .errors import DegenerateSplit, DivisionByZeroInterval, DomainError, IntervalError

if TYPE_CHECKING:  # importing fractions costs start-up time that only assembly needs
    from fractions import Fraction

_INF = math.inf
_nextafter = math.nextafter


def _down(x: float) -> float:
    return _nextafter(x, -_INF)


def _up(x: float) -> float:
    return _nextafter(x, _INF)


# Two-sided enclosure of pi at native precision.  math.pi is the nearest
# double to pi; stepping one ulp in each direction is sound regardless of
# which side it lies on.
PI_LO = _down(math.pi)
PI_HI = _up(math.pi)


# ---------------------------------------------------------------------------
# Float-pair operations
# ---------------------------------------------------------------------------
#
# Each ``pair_*`` function takes and returns intervals as ``(lo, hi)``
# tuples of floats (a scalar factor or exponent as a plain number).  They
# are the one definition of every operation's rounding: the ``Interval``
# methods below and the compiled kernels of ``expr.Program`` both call
# them.  A result that ``Interval(lo, hi)`` would reject raises the same
# ``IntervalError`` here.  The hottest ones call ``math.nextafter``
# directly instead of through ``_down``/``_up``, and test a float operand
# for an exact zero by its truth value (``0.0`` and ``-0.0`` are false).


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
# sin / cos extensions via bracketing Maclaurin partial sums
# ---------------------------------------------------------------------------

SERIES_DEGREE = 4  # the degree of the partial sums that bound sin and cos


def _series_bounds(
    x: float, first: float, step: Callable[[int], int], m: int
) -> tuple[float, float]:
    """Hull of the partial sums ``S_m`` and ``S_{m+1}`` of the alternating
    series whose term ``k`` is ``-(term_{k-1} * x^2) / step(k)``, starting
    from ``first``; every operation is outward rounded."""
    x2 = pair_sqr((x, x))
    t = s = (first, first)
    bounds = []
    for k in range(1, m + 2):
        denom = float(step(k))
        pl, ph = pair_mul(t, x2)
        t = pair_div((-ph, -pl), (denom, denom))
        s = pair_add(s, t)
        if k >= m:
            bounds.append(s)
    (ml, mh), (nl, nh) = bounds
    return min(ml, nl), max(mh, nh)


# The series bounds are cached: a branch-and-bound evaluates sin and cos at
# the same box endpoints again and again (the gradient on the box, the
# slabs of its face).  ``0.0`` and ``-0.0`` share an entry; their bounds are
# the same.


@functools.lru_cache(maxsize=1024)
def _sin_series_bounds(x: float) -> tuple[float, float]:
    """Bounds for sin(x) valid on |x| <= PI_HI, from partial sums of the
    Maclaurin series.  The tail after the first kept term is alternating with
    decreasing magnitude on this range, so consecutive partial sums bracket
    the true value."""
    if x < 0.0:
        lo, hi = _sin_series_bounds(-x)
        return -hi, -lo
    m = max(1, (SERIES_DEGREE - 1) // 2)  # index of last kept series term
    return _series_bounds(x, x, lambda k: 2 * k * (2 * k + 1), m)


@functools.lru_cache(maxsize=1024)
def _cos_series_bounds(x: float) -> tuple[float, float]:
    """Bounds for cos(x) valid on |x| <= PI_HI; see ``_sin_series_bounds``."""
    x = abs(x)
    m = max(1, SERIES_DEGREE // 2)
    return _series_bounds(x, 1.0, lambda k: (2 * k - 1) * (2 * k), m)


def _clamp_unit(lo: float, hi: float) -> tuple[float, float]:
    lo, hi = max(lo, -1.0), min(hi, 1.0)
    if -_INF < lo <= hi < _INF:
        return lo, hi
    raise _invalid(lo, hi)


def pair_sin(a: tuple[float, float]) -> tuple[float, float]:
    """Interval extension of sin from the piecewise monotonicity case table.

    Handled subdomains: the increasing lobe ``[-pi/2, pi/2]``, the decreasing
    lobe ``[pi/2, pi]``, the peak-spanning half period ``[0, pi]`` and its
    mirrored negative counterpart.  Anything else returns ``[-1, 1]``.
    """
    lo, hi = a
    half_lo = PI_LO / 2  # exact: division by two
    half_hi = PI_HI / 2
    if -half_lo <= lo and hi <= half_lo:
        return _clamp_unit(_sin_series_bounds(lo)[0], _sin_series_bounds(hi)[1])
    if half_hi <= lo and hi <= PI_LO:
        return _clamp_unit(_sin_series_bounds(hi)[0], _sin_series_bounds(lo)[1])
    if 0.0 <= lo and hi <= PI_LO:
        return _clamp_unit(
            min(_sin_series_bounds(lo)[0], _sin_series_bounds(hi)[0]), 1.0
        )
    if -PI_LO <= lo and hi <= 0.0:
        nlo, nhi = pair_sin((-hi, -lo))
        return -nhi, -nlo
    return -1.0, 1.0


def pair_cos(a: tuple[float, float]) -> tuple[float, float]:
    """Interval extension of cos; same case-table construction as
    ``pair_sin``."""
    lo, hi = a
    half_lo = PI_LO / 2
    if 0.0 <= lo and hi <= PI_LO:
        return _clamp_unit(_cos_series_bounds(hi)[0], _cos_series_bounds(lo)[1])
    if -PI_LO <= lo and hi <= 0.0:
        return pair_cos((-hi, -lo))
    if -half_lo <= lo and hi <= half_lo:
        return _clamp_unit(
            min(_cos_series_bounds(lo)[0], _cos_series_bounds(hi)[0]), 1.0
        )
    return -1.0, 1.0


# ---------------------------------------------------------------------------
# Scalars rounded to the safe side
# ---------------------------------------------------------------------------


def fraction_up(q: Fraction) -> float:
    """The least float ``>= q``."""
    x = float(q)  # correctly rounded; comparisons with a float are exact
    return _up(x) if q > x else x


def fraction_down(q: Fraction) -> float:
    """The greatest float ``<= q``."""
    x = float(q)
    return _down(x) if q < x else x


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


class Interval(Frozen):
    """Closed real interval with finite endpoints, ``lo <= hi``."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        if not -_INF < lo <= hi < _INF:
            raise _invalid(lo, hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        if -_INF < m < _INF:
            return m
        return 0.5 * self.lo + 0.5 * self.hi  # lo + hi overflows

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    # -- arithmetic (outward rounded) ------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(*pair_add((self.lo, self.hi), (other.lo, other.hi)))

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(*pair_sub((self.lo, self.hi), (other.lo, other.hi)))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        return Interval(*pair_mul((self.lo, self.hi), (other.lo, other.hi)))

    def __truediv__(self, other: "Interval") -> "Interval":
        return Interval(*pair_div((self.lo, self.hi), (other.lo, other.hi)))

    # -- elementary functions --------------------------------------------

    def sqr(self) -> "Interval":
        return Interval(*pair_sqr((self.lo, self.hi)))

    def abs(self) -> "Interval":
        return Interval(*pair_abs((self.lo, self.hi)))

    def sqrt(self) -> "Interval":
        return Interval(*pair_sqrt((self.lo, self.hi)))

    def exp(self) -> "Interval":
        return Interval(*pair_exp((self.lo, self.hi)))

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


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
    """Product of intervals, one per named variable."""

    __slots__ = ("dims", "labels")

    def __init__(self, dims: tuple[Interval, ...], labels: tuple[str, ...]) -> None:
        if not dims:
            raise IntervalError("box must have at least one dimension")
        if len(dims) != len(labels):
            raise IntervalError(f"{len(dims)} dimensions but {len(labels)} labels")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)

    def __repr__(self) -> str:
        return f"Box(dims={self.dims!r}, labels={self.labels!r})"

    @classmethod
    def from_bounds(cls, bounds: Sequence[tuple[str, float, float]]) -> "Box":
        return cls(
            tuple(Interval(lo, hi) for _, lo, hi in bounds),
            tuple(name for name, _, _ in bounds),
        )

    def __len__(self) -> int:
        return len(self.dims)

    def widest(self) -> tuple[int, float]:
        """The first dimension of greatest width, and that width."""
        widths = [iv.width for iv in self.dims]
        width = max(widths)
        return widths.index(width), width

    def widest_dim(self) -> int:
        return self.widest()[0]

    def midpoint(self) -> tuple[float, ...]:
        return tuple(iv.midpoint for iv in self.dims)

    def corner(self, which: str) -> tuple[float, ...]:
        if which == "lo":
            return tuple(iv.lo for iv in self.dims)
        if which == "hi":
            return tuple(iv.hi for iv in self.dims)
        raise ValueError(f"corner must be 'lo' or 'hi', got {which!r}")

    def replace_dim(self, index: int, iv: Interval) -> "Box":
        dims = list(self.dims)
        dims[index] = iv
        return Box(tuple(dims), self.labels)

    def split(self, dim: int) -> tuple["Box", "Box"]:
        """Bisect along ``dim`` at its midpoint; the halves cover the box
        with disjoint interiors.  Splitting a zero-width dimension, or one
        of two adjacent floats (no float strictly inside), is an error."""
        iv = self.dims[dim]
        if iv.width <= 0.0:
            raise DegenerateSplit(f"dimension {dim} of {self} has zero width")
        point = iv.midpoint
        if not (iv.lo < point < iv.hi):
            raise DegenerateSplit(
                f"split point {point} not strictly inside {iv} (dimension {dim})"
            )
        return (
            self.replace_dim(dim, Interval(iv.lo, point)),
            self.replace_dim(dim, Interval(point, iv.hi)),
        )

    def restrict(self, names: Collection[str]) -> "Box":
        """The box over the labels in ``names``, in this box's order; the
        whole box when no label is in ``names``."""
        keep = [k for k, label in enumerate(self.labels) if label in names]
        if not keep:
            return self
        return Box(tuple(self.dims[k] for k in keep), tuple(self.labels[k] for k in keep))


def slab_cuts(iv: Interval, segments: int) -> list[float]:
    """The ``segments + 1`` nondecreasing cut points that slice ``iv`` into
    equal slabs, from ``iv.lo`` to ``iv.hi``.  Where the width overflows,
    each cut is the weighted mean of the endpoints instead."""
    lo, hi = iv.lo, iv.hi
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


def refined_eval(fn: Callable, box: Box, segments: int, dim: int | None = None) -> Interval:
    """Evaluate the interval function ``fn`` on ``box`` after slicing its
    widest dimension into ``segments`` equal slabs; return the hull of the
    slab enclosures.  Each slab is one evaluation of ``fn``, on one list of
    pairs whose sliced entry is overwritten for each slab.  A caller that
    knows ``box.widest_dim()`` already may pass it as ``dim``.

    For an inclusion-isotonic ``fn`` the result is contained in the
    single-shot evaluation, never wider.
    """
    if segments < 1:
        raise DomainError(f"segments must be >= 1, got {segments}")
    if dim is None:
        dim = box.widest_dim()
    dims = [(iv.lo, iv.hi) for iv in box.dims]
    iv = box.dims[dim]
    if segments == 1 or iv.width <= 0.0:
        return Interval(*fn(dims))
    cuts = slab_cuts(iv, segments)
    lo, hi = _INF, -_INF
    for left, right in zip(cuts, cuts[1:]):
        dims[dim] = (left, right)
        slo, shi = fn(dims)
        if slo < lo:
            lo = slo
        if shi > hi:
            hi = shi
    return Interval(lo, hi)
