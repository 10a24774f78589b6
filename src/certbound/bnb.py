"""Interval branch-and-bound for global maximization.

Given a point objective ``h`` and a sound interval extension ``hI`` of it
(a function from a sequence of ``(lo, hi)`` pairs, one per dimension, to a
pair), the search maintains a cover: a set of boxes of pairs with disjoint
interiors whose union still contains a maximizer.  Each box caches
lower/upper bounds from at most one refined interval evaluation; where that
evaluation fails (a divisor or square-root argument enclosure that crosses
its domain's edge, a non-finite endpoint, or an overflow), the box keeps its
parent's bounds, ``[-inf, +inf]`` at the root, and bisection goes on.  When
``hI`` also encloses the gradient (``hI.gradient(dims)``, which returns
h's enclosure and a tuple of pairs), each box is first collapsed to the
face where its maximum lies along every dimension of fixed derivative sign,
and its bounds are tightened by the centred form, in one walk over its
dimensions that also picks the split (see ``_first_order``); a box that
this already prunes skips the refined evaluation.  A box is bisected, and its refined
evaluation sliced, along its dimension of greatest smear ``width_k *
|G_k|`` (Ratz & Csendes 1995), or along its widest dimension where there
is no gradient enclosure.  The search tightens the sandwich ``l <= h* <=
u`` in three phases, each bisection followed by a probe of the midpoint of
the box with the greatest lower bound (unless the previous step probed it):

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
from collections.abc import Callable, Iterable, Sequence
from heapq import heappop, heappush

from .errors import CertboundError, EvaluationError, IntervalError
from .intervals import Box, Frozen, midpoint, pair_add, pair_mul, pair_sub, refined_eval
from .intervals import slot_setters, unchecked_box

PointFn = Callable[[Sequence[float]], float]
IntervalFn = Callable[[Sequence[tuple[float, float]]], tuple[float, float]]
GradientFn = Callable[[Sequence[tuple[float, float]]], tuple[tuple[float, float], Sequence]]

_INF_SENTINEL = float("inf")


class Subproblem(Frozen):
    """A cover box with cached objective bounds: lo_bound <= h <= hi_bound
    on the box.  ``order`` is the insertion counter used to break ties
    deterministically; ``dim`` is the one dimension along which the box's
    refined evaluation was sliced and along which it is split (see
    ``_Bounder``), and ``width`` is that dimension's width."""

    __slots__ = ("box", "lo_bound", "hi_bound", "order", "width", "dim")

    def __init__(
        self, box: Box, lo_bound: float, hi_bound: float, order: int, width: float, dim: int
    ) -> None:
        _set_box(self, box)
        _set_lo_bound(self, lo_bound)
        _set_hi_bound(self, hi_bound)
        _set_order(self, order)
        _set_width(self, width)
        _set_dim(self, dim)


_set_box, _set_lo_bound, _set_hi_bound, _set_order, _set_width, _set_dim = slot_setters(Subproblem)


def _splittable(sub: Subproblem, eps_om: float) -> bool:
    """Whether ``sub``'s box may be bisected: its dimension ``sub.dim`` is
    wider than ``eps_om`` and its midpoint, where ``Box.split`` cuts, lies
    strictly inside (two adjacent floats have no float between them)."""
    lo, hi = sub.box.pairs[sub.dim]
    return sub.width > eps_om and lo < midpoint(lo, hi) < hi


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
        return [s for s in self._alive.values() if s.hi_bound >= self._watermark]

    def add(self, sub: Subproblem) -> None:
        # Ties break toward the greater ``width`` (that of the split
        # dimension), then the earlier insertion; but among infinite upper
        # bounds toward the smaller ``width``, so that phase 1 bisects one
        # failing box down to ``eps_om``, where the run must end unbounded,
        # instead of every failing box breadth-first.
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

    def incumbent(self) -> Subproblem:
        """The box of greatest upper bound; the cover is never empty."""
        sub = self.peek_max_hi()
        if sub is None:
            raise EvaluationError(
                "cover emptied: interval extension inconsistent with point objective"
            )
        return sub

    def peek_max_lo(self) -> Subproblem | None:
        return self._peek(self._lo_heap, None)

    def peek_max_lo_splittable(self, eps_om: float) -> Subproblem | None:
        return self._peek(self._lo_split_heap, eps_om)


class BnBConfig(Frozen):
    """Optimizer knobs.  These defaults are the CLI's too.

    eps_h: target width of the objective sandwich.
    eps_om: minimum splittable box width.
    segments: slabs per interval bound evaluation, along the split dimension.
        The default, 5, is where the bench jobs' ``evals`` stop falling:
        more slabs cost kernel runs and save no box.
    max_steps: hard cap on bisections (safety valve, not part of the method).
    """

    __slots__ = ("eps_h", "eps_om", "segments", "max_steps")

    def __init__(
        self, eps_h: float = 1e-4, eps_om: float = 1e-7, segments: int = 5,
        max_steps: int = 10_000_000,
    ) -> None:
        if not all(math.isfinite(x) and x > 0 for x in (eps_h, eps_om)):
            raise ValueError("eps_h and eps_om must be finite and positive")
        if segments < 1 or max_steps < 1:
            raise ValueError("segments and max_steps must be >= 1")
        _set_eps_h(self, eps_h)
        _set_eps_om(self, eps_om)
        _set_segments(self, segments)
        _set_max_steps(self, max_steps)


_set_eps_h, _set_eps_om, _set_segments, _set_max_steps = slot_setters(BnBConfig)


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
    hI: IntervalFn, gradient: GradientFn, box: Box, eps_om: float
) -> tuple[Box, float, float, tuple[int, float] | None, tuple[float, float] | None]:
    """First-order reduction of ``box`` for maximization, from the
    enclosures ``G_k`` of the partial derivatives on it (of Clarke's
    generalized gradient where h has kinks), which ``gradient`` gives as
    pairs after the enclosure of h on the box, in one walk over the
    dimensions.

    Monotonicity test (Hansen & Walster 2004): where ``G_k >= 0`` the
    maximum of h over the box is reached on the face ``x_k = hi``, where
    ``G_k <= 0`` on ``x_k = lo``; every such dimension collapses to that
    face.  Centred form (Ratschek & Rokne 1988): on the face, with any
    centre ``c`` in it, ``h`` lies in ``h([c]) + sum_k G_k * (X_k - c_k)``
    by the mean value theorem (Lebourg's, for a locally Lipschitz h),
    ``h([c])`` being the interval enclosure at ``c``; only the dimensions
    where ``G_k = [gl, gh]`` straddles 0 (``gl < 0 < gh``) and the face has
    positive width add a term other than 0.  Along such a dimension the
    centre is Baumann's (1988) ``c_k = (gh*hi - gl*lo) / (gh - gl)``, which
    minimizes the upper bound of ``G_k * (X_k - c_k)``; where that float
    falls outside ``[lo, hi]`` (as a NaN or an overflow does), the
    midpoint.  The split is the dimension ``k`` of greatest smear
    ``width_k * max(-gl_k, gh_k)`` (Ratz & Csendes 1995), the first among
    equals, among those terms' dimensions that ``_splittable``'s test
    accepts (wider than ``eps_om``, with the midpoint strictly inside).

    Returns the face, that centred enclosure of h on it, the split ``(k,
    width_k)``, ``None`` where no dimension may be split, and the enclosure
    of h on the face where one is at hand: the one that ``gradient`` gave,
    where the face is ``box``, and ``h([c])``, where no dimension straddles
    and the face is the point ``c`` (unless a dimension of zero width has
    ends of two signs of zero, which ``c`` does not keep); else ``None``.
    The face is ``box`` itself, the same object, when no dimension of
    positive width collapses; it is built once the enclosures have
    succeeded.  Raises ``IntervalError`` when the gradient or the centre
    does not enclose."""
    pairs = box.pairs
    whole, grads = gradient(pairs)
    face = None  # the face's pairs, a list from the first collapse on
    centre = []  # the centre as a degenerate box
    straddling = []  # the dimensions that the centred form sums over
    split = None
    most = -1.0
    for k, ((lo, hi), (gl, gh)) in enumerate(zip(pairs, grads)):
        if gl >= 0.0 or gh <= 0.0:
            c = hi if gl >= 0.0 else lo
            if lo < hi:
                face = face or list(pairs)
                face[k] = (c, c)
        else:
            c = (gh * hi - gl * lo) / (gh - gl)
            if not lo <= c <= hi:
                c = midpoint(lo, hi)
            if lo < hi:
                straddling.append(k)
                width = hi - lo
                smear = width * (gh if gh > -gl else -gl)
                if smear > most and width > eps_om and lo < midpoint(lo, hi) < hi:
                    split, most = (k, width), smear
        centre.append((c, c))
    bound = hI(centre)
    for k in straddling:
        bound = pair_add(bound, pair_mul(grads[k], pair_sub(pairs[k], centre[k])))
    if face:
        point = None if straddling or repr(face) != repr(centre) else bound
        return unchecked_box(tuple(face), box.labels), bound[0], bound[1], split, point
    return box, bound[0], bound[1], split, whole


class _Bounder:
    """Evaluates cached subproblem bounds; counts evaluations.

    Where ``hI`` has a ``gradient(dims)`` (a compiled ``expr.Program``
    has), each box is first reduced by ``_first_order``: the subproblem
    keeps the face instead of the box, and its bounds are the natural
    enclosure on the face intersected with the centred form.  A gradient or
    centre enclosure that fails skips this step for that box, which stays
    whole.  The subproblem's ``dim`` is the split that the same step chose
    (the dimension of greatest smear among those wider than ``eps_om``), or
    the box's widest dimension where there is no gradient enclosure or no
    such dimension.  Then the box gets one refined interval evaluation
    (``refined_eval``: one evaluation of ``hI`` per slab of ``dim``), unless
    its first-order upper bound, intersected with the parent's, is already
    below the caller's lower bound ``l``: such a box is pruned by the same
    step anyway.  ``evals`` counts the refined evaluations.  The enclosure
    of ``hI`` on the face that the same step gives (the gradient's on a box
    that collapsed nothing, the centre's on a face that is a point) is
    handed to ``refined_eval``, which returns it for an unsliced box
    instead of evaluating ``hI`` again.
    Beside those kernel runs, bounding a box costs one walk over its
    dimensions and builds no ``Box`` but the face.

    The bounds of a box split from ``parent`` are intersected with the
    parent's: those stay valid on the half (its range is a subset), so the
    child's bounds stay sound and u is monotone even when slab refinement
    picks a different dimension than the parent's.  An enclosure that
    fails with an ``IntervalError`` counts as ``[-inf, +inf]``, so the box
    keeps its parent's bounds; ``failure`` holds the last such error."""

    def __init__(self, hI: IntervalFn, segments: int, stats: BnBStats, eps_om: float = 0.0):
        self.hI = hI
        self.segments = segments
        self.stats = stats
        self.eps_om = eps_om
        self.counter = itertools.count()
        self.failure: IntervalError | None = None
        self.gradient: GradientFn | None = getattr(hI, "gradient", None)

    def __call__(
        self, box: Box, parent: Subproblem | None = None, l: float = -_INF_SENTINEL
    ) -> Subproblem:
        lo, hi = -_INF_SENTINEL, _INF_SENTINEL
        split = whole = None
        if self.gradient is not None:
            try:
                box, lo, hi, split, whole = _first_order(self.hI, self.gradient, box, self.eps_om)
            except IntervalError:
                pass
        dim, width = split or box.widest()
        if parent is None:
            plo, phi = -_INF_SENTINEL, _INF_SENTINEL
        else:
            plo, phi = parent.lo_bound, parent.hi_bound
        # A bound gives way only to a strictly tighter one, the tie rule of
        # ``max``/``min``, so signed zeros come out as those give them.
        if parent is None or (phi if phi < hi else hi) >= l:
            self.stats.evals += 1
            try:
                rlo, rhi = refined_eval(self.hI, box, self.segments, dim, whole)
            except IntervalError as exc:
                self.failure = exc
            else:
                if rlo > lo:
                    lo = rlo
                if rhi < hi:
                    hi = rhi
        if plo > lo:
            lo = plo
        if phi < hi:
            hi = phi
        return Subproblem(box, lo, hi, next(self.counter), width, dim)


def opt_bnb_step(
    cover: Cover, chosen: Subproblem, l: float, h: PointFn,
    bound: Callable[[Box, Subproblem, float], Subproblem], probed: int = -1,
) -> tuple[Subproblem, float, float, tuple[float, ...] | None, int]:
    """One bisection step: split ``chosen`` at the midpoint of its dimension
    ``chosen.dim``, raise l from the midpoint of the best-lower-bound box,
    prune, and return the new incumbent (greatest upper bound), l, u, the
    point that improved l (if any) and the ``order`` of the box probed.
    The probe is skipped when that box is ``probed``, the one the previous
    step probed: l never falls, so the same value cannot raise it."""
    cover.remove(chosen)
    for half in chosen.box.split(chosen.dim):
        cover.add(bound(half, chosen, l))
    candidate = cover.peek_max_lo()
    witness: tuple[float, ...] | None = None
    if candidate is not None and candidate.order != probed:
        probed = candidate.order
        mid = candidate.box.midpoint()
        value = h(mid)
        if value > l:
            l = value
            witness = mid
    cover.prune(l)
    incumbent = cover.incumbent()
    return incumbent, l, incumbent.hi_bound, witness, probed


def maximize(h: PointFn, hI: IntervalFn, domain: Box, cfg: BnBConfig) -> BnBResult:
    """Certified global maximum sandwich of ``h`` over ``domain``.

    ``hI`` must be a valid interval extension of ``h`` on the domain (the
    expression layer provides this).

    The domain should contain only dimensions the objective depends on.
    Where ``hI`` encloses the gradient, a dead dimension (``G_k = [0, 0]``)
    collapses and is never split; without a gradient it is still bisected
    (it can be the widest), which multiplies boxes with identical bounds
    instead of tightening anything.  Callers working from expressions get
    this for free via domain reduction.
    """
    stats = BnBStats()
    start = time.perf_counter()
    bound = _Bounder(hI, cfg.segments, stats, cfg.eps_om)
    cover = Cover()
    try:
        root = bound(domain)
        cover.add(root)
        mid = domain.midpoint()
        l = h(mid)
        witness = tuple(mid)
        cover.prune(l)
        incumbent = cover.incumbent()
        u = incumbent.hi_bound
        probed = -1  # the order of the box whose midpoint was probed last

        # Phase 1: shrink u by splitting the incumbent.
        while (
            u - l > cfg.eps_h
            and _splittable(incumbent, cfg.eps_om)
            and stats.splits < cfg.max_steps
        ):
            stats.splits += 1
            incumbent, l, u, w, probed = opt_bnb_step(cover, incumbent, l, h, bound, probed)
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
            incumbent, l, u, w, probed = opt_bnb_step(cover, chosen, l, h, bound, probed)
            if w is not None:
                witness = w

        # Phase 3: corner evaluations, most promising boxes first; ties go
        # to the greater ``width`` (of the split dimension), then the earlier
        # insertion.
        if u - l > cfg.eps_h:
            snapshot = sorted(
                cover.subproblems, key=lambda s: (s.hi_bound, s.width, -s.order), reverse=True
            )
            for sub in snapshot:
                if sub.hi_bound < l:
                    continue  # already pruned
                for corner in sub.box.corners():
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
    return BnBResult(l, u, u - l <= cfg.eps_h, cover, stats, witness)


class _Negated:
    """The interval function ``-hI``.  Where ``hI`` encloses its gradient,
    this gives the negated enclosure and the negated gradient."""

    def __init__(self, hI: IntervalFn):
        self.hI = hI
        gradient = getattr(hI, "gradient", None)
        if gradient is not None:

            def negated(dims):
                (lo, hi), grads = gradient(dims)
                return (-hi, -lo), tuple((-gh, -gl) for gl, gh in grads)

            self.gradient = negated

    def __call__(self, dims: Sequence[tuple[float, float]]) -> tuple[float, float]:
        lo, hi = self.hI(dims)
        return -hi, -lo


def minimize(h: PointFn, hI: IntervalFn, domain: Box, cfg: BnBConfig) -> BnBResult:
    """Certified global minimum sandwich: maximize the negated objective and
    swap the negated bounds back."""
    res = maximize(lambda xs: -h(xs), _Negated(hI), domain, cfg)
    return BnBResult(
        -res.upper, -res.lower, res.eps_optimal, res.final_cover, res.stats, res.lower_witness
    )
