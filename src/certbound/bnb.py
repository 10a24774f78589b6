"""Interval branch-and-bound for global maximization.

Given a point objective ``h`` and a sound interval extension ``hI`` of it
(a function from a list of ``(lo, hi)`` pairs, one per dimension, to a
pair), the search maintains a cover: a set of boxes with pairwise disjoint
interiors whose union still contains a maximizer.  Each box caches
lower/upper bounds from at most one refined interval evaluation; where that
evaluation fails (a divisor or square-root argument enclosure that crosses
its domain's edge, a non-finite endpoint, or an overflow), the box keeps its
parent's bounds, ``[-inf, +inf]`` at the root, and bisection goes on.  When
``hI`` also encloses the gradient (``hI.gradient(dims)``, a tuple of
pairs), each box is first collapsed to the face where its maximum lies
along every dimension of fixed derivative sign, and its bounds are
tightened by the centred form (see ``_first_order``); a box that this
already prunes skips the refined evaluation.  The search tightens
the sandwich ``l <= h* <= u`` in three phases:

1. repeatedly bisect the box with the greatest upper bound (drives u down),
2. once that box is no longer splittable, bisect splittable boxes with the
   greatest lower bound (drives l up),
3. finally raise l by corner evaluations and re-prune.

A box is discarded as soon as its upper bound falls below l; such a box
cannot contain a maximizer.  On return ``h*`` lies in ``[lower, upper]`` and
``eps_optimal`` records whether the gap closed below ``eps_h``.  A run whose
objective cannot be evaluated or bounded raises ``EvaluationError`` and
returns no sandwich at all.
"""

from __future__ import annotations

import itertools
import math
import time
from heapq import heappop, heappush
from typing import Callable, Iterable, Sequence

from .errors import CertboundError, EvaluationError, IntervalError
from .intervals import Box, Frozen, Interval, pair_add, pair_mul, pair_sub, refined_eval

PointFn = Callable[[Sequence[float]], float]
IntervalFn = Callable[[Sequence[tuple[float, float]]], tuple[float, float]]
GradientFn = Callable[[Sequence[tuple[float, float]]], Sequence[tuple[float, float]]]

_INF_SENTINEL = float("inf")


class Subproblem(Frozen):
    """A cover box with cached objective bounds: lo_bound <= h <= hi_bound
    on the box.  ``order`` is the insertion counter used to break ties
    deterministically; ``width`` and ``dim`` are the box's width and its
    widest dimension (``box.widest()``), computed once."""

    __slots__ = ("box", "lo_bound", "hi_bound", "order", "width", "dim")

    def __init__(
        self, box: Box, lo_bound: float, hi_bound: float, order: int, width: float, dim: int
    ) -> None:
        store = object.__setattr__
        store(self, "box", box)
        store(self, "lo_bound", lo_bound)
        store(self, "hi_bound", hi_bound)
        store(self, "order", order)
        store(self, "width", width)
        store(self, "dim", dim)


def _splittable(sub: Subproblem, eps_om: float) -> bool:
    """Whether ``sub``'s box may be bisected: its widest dimension is wider
    than ``eps_om`` and its midpoint, where ``Box.split`` cuts, lies
    strictly inside (two adjacent floats have no float between them)."""
    iv = sub.box.dims[sub.dim]
    return sub.width > eps_om and iv.lo < iv.midpoint < iv.hi


class Cover:
    """The optimizer's work set: boxes not yet provably excluded.

    Selection by greatest upper bound and greatest lower bound runs through
    two lazy max-heaps over one shared membership map; stale or pruned heap
    entries are discarded when they surface.  Pruning is a watermark: a box
    whose upper bound falls strictly below the best known lower bound ``l``
    is excluded (it cannot contain a maximizer) and physically dropped the
    next time an index touches it.
    """

    def __init__(self, subproblems: Iterable[Subproblem] = ()):
        self._alive: dict[int, Subproblem] = {}
        self._hi_heap: list[tuple[float, float, int]] = []
        self._lo_heap: list[tuple[float, float, int]] = []
        self._lo_split_heap: list[tuple[float, float, int]] = []
        self._watermark = -_INF_SENTINEL
        for sub in subproblems:
            self.add(sub)

    @property
    def subproblems(self) -> list[Subproblem]:
        return [
            s for s in self._alive.values() if s.hi_bound >= self._watermark
        ]

    def add(self, sub: Subproblem) -> None:
        # Ties break toward the wider box, then the earlier insertion; but
        # among infinite upper bounds toward the narrower box, so that phase
        # 1 bisects one failing box down to ``eps_om``, where the run must
        # end unbounded, instead of every failing box breadth-first.
        self._alive[sub.order] = sub
        neg_width = -sub.width
        hi_tie = sub.width if sub.hi_bound == _INF_SENTINEL else neg_width
        heappush(self._hi_heap, (-sub.hi_bound, hi_tie, sub.order))
        lo_key = (-sub.lo_bound, neg_width, sub.order)
        heappush(self._lo_heap, lo_key)
        heappush(self._lo_split_heap, lo_key)

    def remove(self, sub: Subproblem) -> None:
        self._alive.pop(sub.order, None)  # heap entries go stale

    def prune(self, l: float) -> None:
        """Exclude every box with hi_bound < l (watermark semantics)."""
        if l > self._watermark:
            self._watermark = l

    def _peek(self, heap: list, eps_om: float | None) -> Subproblem | None:
        while heap:
            _, _, order = heap[0]
            sub = self._alive.get(order)
            if sub is None:
                heappop(heap)
                continue
            if sub.hi_bound < self._watermark:
                del self._alive[order]  # provably excluded
                heappop(heap)
                continue
            if eps_om is not None and not _splittable(sub, eps_om):
                heappop(heap)  # boxes never grow; drop from this index only
                continue
            return sub
        return None

    def peek_max_hi(self) -> Subproblem | None:
        return self._peek(self._hi_heap, None)

    def peek_max_lo(self) -> Subproblem | None:
        return self._peek(self._lo_heap, None)

    def peek_max_lo_splittable(self, eps_om: float) -> Subproblem | None:
        return self._peek(self._lo_split_heap, eps_om)


def _selection_key(s: Subproblem, primary: float) -> tuple[float, float, float]:
    # Ties: larger box first, then earlier insertion.
    return (primary, s.width, -s.order)


class BnBConfig(Frozen):
    """Optimizer knobs.

    eps_h: target width of the objective sandwich.
    eps_om: minimum splittable box width.
    segments: widest-dimension slabs per interval bound evaluation.
    max_steps: hard cap on bisections (safety valve, not part of the method).
    """

    __slots__ = ("eps_h", "eps_om", "segments", "max_steps")

    def __init__(
        self, eps_h: float = 1e-4, eps_om: float = 1e-7, segments: int = 10,
        max_steps: int = 10_000_000,
    ) -> None:
        if not all(math.isfinite(x) and x > 0 for x in (eps_h, eps_om)):
            raise ValueError("eps_h and eps_om must be finite and positive")
        if segments < 1 or max_steps < 1:
            raise ValueError("segments and max_steps must be >= 1")
        store = object.__setattr__
        store(self, "eps_h", eps_h)
        store(self, "eps_om", eps_om)
        store(self, "segments", segments)
        store(self, "max_steps", max_steps)


class BnBStats:
    __slots__ = ("splits", "evals", "wall_time")

    def __init__(self) -> None:
        self.splits = 0
        self.evals = 0
        self.wall_time = 0.0


class BnBResult:
    __slots__ = ("lower", "upper", "eps_optimal", "final_cover", "stats", "lower_witness")

    def __init__(
        self, lower: float, upper: float, eps_optimal: bool, final_cover: Cover,
        stats: BnBStats, lower_witness: tuple[float, ...],
    ) -> None:
        self.lower = lower
        self.upper = upper
        self.eps_optimal = eps_optimal
        self.final_cover = final_cover
        self.stats = stats
        self.lower_witness = lower_witness

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def _first_order(
    hI: IntervalFn, gradient: GradientFn, box: Box
) -> tuple[Box, float, float]:
    """First-order reduction of ``box`` for maximization, from the
    enclosures ``G_k`` of the partial derivatives on it (of Clarke's
    generalized gradient where h has kinks), which ``gradient`` gives as
    pairs.

    Monotonicity test (Hansen & Walster 2004): where ``G_k >= 0`` the
    maximum of h over the box is reached on the face ``x_k = hi``, where
    ``G_k <= 0`` on ``x_k = lo``; every such dimension collapses to that
    face.  Centred form (Ratschek & Rokne 1988): on the face, with any
    centre ``c`` in it, ``h`` lies in ``h([c]) + sum_k G_k * (X_k - c_k)``
    by the mean value theorem (Lebourg's, for a locally Lipschitz h),
    ``h([c])`` being the interval enclosure at ``c``.  Along a dimension
    with ``G_k = [gl, gh]``, ``gl < 0 < gh``, the centre is Baumann's
    (1988) ``c_k = (gh*hi - gl*lo) / (gh - gl)``, which minimizes the upper
    bound of ``G_k * (X_k - c_k)``; where that float is not finite or falls
    outside ``[lo, hi]``, the face's midpoint.

    Returns the face and that centred enclosure of h on it.  Raises
    ``IntervalError`` when the gradient or the centre does not enclose."""
    grads = gradient([(iv.lo, iv.hi) for iv in box.dims])
    dims = list(box.dims)
    centre = []
    for k, (gl, gh) in enumerate(grads):
        iv = dims[k]
        if gl >= 0.0:
            dims[k] = Interval(iv.hi, iv.hi)
            c = iv.hi
        elif gh <= 0.0:
            dims[k] = Interval(iv.lo, iv.lo)
            c = iv.lo
        else:
            c = (gh * iv.hi - gl * iv.lo) / (gh - gl)
            if not (iv.lo <= c <= iv.hi and math.isfinite(c)):
                c = iv.midpoint
        centre.append(c)
    face = Box(tuple(dims), box.labels)
    bound = hI([(c, c) for c in centre])
    for g, iv, c in zip(grads, dims, centre):
        if iv.lo < iv.hi:
            bound = pair_add(bound, pair_mul(g, pair_sub((iv.lo, iv.hi), (c, c))))
    return face, bound[0], bound[1]


class _Bounder:
    """Evaluates cached subproblem bounds; counts evaluations.

    Where ``hI`` has a ``gradient(dims)`` (a compiled ``expr.Program``
    has), each box is first reduced by ``_first_order``: the subproblem
    keeps the face instead of the box, and its bounds are the natural
    enclosure on the face intersected with the centred form.  A gradient or
    centre enclosure that fails skips this step for that box.  Then the
    box gets one refined interval evaluation (``refined_eval``: one
    evaluation of ``hI`` per slab of the widest dimension), unless its
    first-order upper bound, intersected with the parent's, is already
    below the caller's lower bound ``l``: such a box is pruned by the same
    step anyway.  ``evals`` counts the refined evaluations.

    The bounds of a box split from ``parent`` are intersected with the
    parent's: those stay valid on the half (its range is a subset), so the
    child's bounds stay sound and u is monotone even when slab refinement
    picks a different dimension than the parent's.  An enclosure that
    fails with an ``IntervalError`` counts as ``[-inf, +inf]``, so the box
    keeps its parent's bounds; ``failure`` holds the last such error."""

    def __init__(self, hI: IntervalFn, segments: int, stats: BnBStats):
        self.hI = hI
        self.segments = segments
        self.stats = stats
        self.counter = itertools.count()
        self.failure: IntervalError | None = None
        self.gradient: GradientFn | None = getattr(hI, "gradient", None)

    def __call__(
        self, box: Box, parent: Subproblem | None = None, l: float = -_INF_SENTINEL
    ) -> Subproblem:
        lo, hi = -_INF_SENTINEL, _INF_SENTINEL
        if self.gradient is not None:
            try:
                box, lo, hi = _first_order(self.hI, self.gradient, box)
            except IntervalError:
                pass
        dim, width = box.widest()
        if parent is None or min(hi, parent.hi_bound) >= l:
            self.stats.evals += 1
            try:
                iv = refined_eval(self.hI, box, self.segments, dim)
            except IntervalError as exc:
                self.failure = exc
            else:
                lo = max(lo, iv.lo)
                hi = min(hi, iv.hi)
        if parent is not None:
            lo = max(lo, parent.lo_bound)
            hi = min(hi, parent.hi_bound)
        return Subproblem(box, lo, hi, next(self.counter), width, dim)


def opt_bnb_step(
    cover: Cover,
    chosen: Subproblem,
    l: float,
    h: PointFn,
    bound: Callable[[Box, Subproblem, float], Subproblem],
) -> tuple[Subproblem, float, float, tuple[float, ...] | None]:
    """One bisection step: split ``chosen`` at the midpoint of its widest
    dimension, raise l from the midpoint of the best-lower-bound box, prune,
    and return the new incumbent (greatest upper bound), l, u and the point
    that improved l (if any)."""
    cover.remove(chosen)
    for half in chosen.box.split(chosen.dim):
        cover.add(bound(half, chosen, l))
    candidate = cover.peek_max_lo()
    witness: tuple[float, ...] | None = None
    if candidate is not None:
        mid = candidate.box.midpoint()
        value = h(mid)
        if value > l:
            l = value
            witness = mid
    cover.prune(l)
    incumbent = cover.peek_max_hi()
    if incumbent is None:
        raise EvaluationError(
            "cover emptied: interval extension inconsistent with point objective"
        )
    return incumbent, l, incumbent.hi_bound, witness


def maximize(h: PointFn, hI: IntervalFn, domain: Box, cfg: BnBConfig) -> BnBResult:
    """Certified global maximum sandwich of ``h`` over ``domain``.

    ``hI`` must be a valid interval extension of ``h`` on the domain (the
    expression layer provides this).

    The domain should contain only dimensions the objective depends on:
    a dead dimension is still bisected (it can be the widest), which
    multiplies boxes with identical bounds instead of tightening anything.
    Callers working from expressions get this for free via domain reduction.
    """
    stats = BnBStats()
    start = time.perf_counter()
    bound = _Bounder(hI, cfg.segments, stats)
    cover = Cover()
    try:
        root = bound(domain)
        cover.add(root)
        mid = domain.midpoint()
        l = h(mid)
        witness = tuple(mid)
        cover.prune(l)
        incumbent = cover.peek_max_hi()
        if incumbent is None:
            raise EvaluationError(
                "cover emptied: interval extension inconsistent with point objective"
            )
        u = incumbent.hi_bound

        # Phase 1: shrink u by splitting the incumbent.
        while (
            u - l > cfg.eps_h
            and _splittable(incumbent, cfg.eps_om)
            and stats.splits < cfg.max_steps
        ):
            stats.splits += 1
            incumbent, l, u, w = opt_bnb_step(cover, incumbent, l, h, bound)
            if w is not None:
                witness = w
        # The incumbent can no longer be split (or the step cap is hit) and
        # a box with an infinite upper bound is never pruned: u stays
        # infinite.
        if u == _INF_SENTINEL:
            raise EvaluationError(
                "unbounded enclosure: the objective's interval enclosure "
                f"fails on a box of width {incumbent.width!r}: {bound.failure}"
            )

        # Phase 2: raise l by splitting the best-lower-bound splittable box.
        while u - l > cfg.eps_h and stats.splits < cfg.max_steps:
            chosen = cover.peek_max_lo_splittable(cfg.eps_om)
            if chosen is None:
                break
            stats.splits += 1
            incumbent, l, u, w = opt_bnb_step(cover, chosen, l, h, bound)
            if w is not None:
                witness = w

        # Phase 3: corner evaluations, most promising boxes first.
        if u - l > cfg.eps_h:
            snapshot = sorted(
                cover.subproblems, key=lambda s: _selection_key(s, s.hi_bound),
                reverse=True,
            )
            for sub in snapshot:
                if sub.hi_bound < l:
                    continue  # already pruned
                for corner in (sub.box.corner("lo"), sub.box.corner("hi")):
                    value = h(corner)
                    if value > l:
                        l = value
                        witness = corner
                cover.prune(l)
                if u - l <= cfg.eps_h:
                    break
    except EvaluationError:
        raise
    except (CertboundError, ArithmeticError) as exc:
        raise EvaluationError(f"objective evaluation failed: {exc}") from exc

    stats.wall_time = time.perf_counter() - start
    return BnBResult(
        lower=l,
        upper=u,
        eps_optimal=u - l <= cfg.eps_h,
        final_cover=cover,
        stats=stats,
        lower_witness=witness,
    )


class _Negated:
    """The interval function ``-hI``.  Where ``hI`` encloses its gradient,
    this encloses the negated one."""

    def __init__(self, hI: IntervalFn):
        self.hI = hI
        gradient = getattr(hI, "gradient", None)
        if gradient is not None:
            self.gradient = lambda dims: tuple((-gh, -gl) for gl, gh in gradient(dims))

    def __call__(self, dims: Sequence[tuple[float, float]]) -> tuple[float, float]:
        lo, hi = self.hI(dims)
        return -hi, -lo


def minimize(h: PointFn, hI: IntervalFn, domain: Box, cfg: BnBConfig) -> BnBResult:
    """Certified global minimum sandwich: maximize the negated objective and
    swap the negated bounds back."""
    res = maximize(lambda xs: -h(xs), _Negated(hI), domain, cfg)
    return BnBResult(
        lower=-res.upper,
        upper=-res.lower,
        eps_optimal=res.eps_optimal,
        final_cover=res.final_cover,
        stats=res.stats,
        lower_witness=res.lower_witness,
    )
