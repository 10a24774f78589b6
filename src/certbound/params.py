"""Certified bounding constants for the five nonlinearity function classes.

Every constant is obtained from a certified global maximization (or
minimization) of a closed-form objective assembled symbolically from the
model's partial derivatives:

* Jacobian bounds: extrema of each partial derivative.
* Lipschitz: the squared gradient norms, either summed into one objective
  (case 1) or maximized per component and then summed (case 2), where
  structurally identical components share one run.
* One-sided Lipschitz: eigenvalue upper bounds for the symmetrized G-weighted
  Jacobian, via a Frobenius-norm objective, Gershgorin row sums, or the
  dimension-factor row bound.
* Quadratic inner-boundedness: assembled from the one-sided bounds plus the
  certified maximum of the squared gradient norms of the mixed components.
* Quadratic boundedness: one certified maximization per diagonal entry.

Lipschitz (both cases), Frobenius OSL, the QIB maximum and each QB entry
sum certified maxima of squared norms through one function,
``_summed_maxima``: the sums are exact, and each side rounds once, to its
safe side.  An objective without variables, such as the ``0`` of a map
without a state, is no run (see ``_constant_bounds``).

The independent per-entry/per-row problems run one after another in a fixed
order, so results and run statistics are deterministic.  Within one
constant, a problem that repeats (the same function of its variables, up
to a renaming that keeps their declaration order, over the same bounds)
reuses its first run, compiles nothing, and is counted once.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable

from .bnb import BnBConfig, BnBResult, BnBStats, Cover, maximize, minimize
from .errors import (
    EvaluationError,
    IntervalError,
    InvalidDimension,
    NecessaryConditionViolated,
    PreconditionViolated,
)
from .expr import (
    ABS,
    ADD,
    MAX,
    MUL,
    NEG,
    SQR,
    SUB,
    Binary,
    Const,
    Expr,
    Unary,
    Program,
    simplified_add,
    simplified_mul,
    simplified_sub,
    simplified_sum,
    simplified_unary,
    structural_key_with_vars,
    walk,
)
from .intervals import ratio_down, ratio_up, sqrt_down, sqrt_up
from .model import ModelDef, Partials, grad_sq_norm

# Every finite float is an integer multiple of ``2**-1074``, the least
# subnormal, so a sum of floats is exact in these units, and a product of two
# in units of ``2**-2148``: exact arithmetic needs integers only.
_ULPS = 1 << 1074


def _ulps(x: float) -> int:
    """``x`` in units of ``2**-1074``, exactly, for finite ``x``."""
    n, d = x.as_integer_ratio()
    return n * (_ULPS // d)


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------


class RunStats:
    """Aggregate over the certified runs behind one constant: each of
    ``results`` is counted in."""

    __slots__ = ("runs", "evals", "wall_time")

    def __init__(self, results: Iterable[BnBResult] = ()) -> None:
        self.runs = 0
        self.evals = 0
        self.wall_time = 0.0
        for result in results:
            self.runs += 1
            self.evals += result.stats.evals
            self.wall_time += result.stats.wall_time

    def merge(self, other: "RunStats") -> None:
        self.runs += other.runs
        self.evals += other.evals
        self.wall_time += other.wall_time


class JacobianBounds:
    """Row ``i`` of ``entries`` holds ``(j, (lo, hi))``, the enclosure of
    each partial derivative of component ``i`` in
    ``ModelDef.state_jacobian``: the others are identically zero."""

    __slots__ = ("entries", "eps_optimal", "stats")

    def __init__(
        self, entries: tuple[tuple[tuple[int, tuple[float, float]], ...], ...], eps_optimal: bool,
        stats: RunStats,
    ) -> None:
        self.entries = entries
        self.eps_optimal = eps_optimal
        self.stats = stats


class LipschitzResult:
    __slots__ = ("gamma", "lower", "gap", "eps_optimal", "stats")

    def __init__(
        self, gamma: float, lower: float, gap: float, eps_optimal: bool, stats: RunStats
    ) -> None:
        self.gamma = gamma
        self.lower = lower
        self.gap = gap
        self.eps_optimal = eps_optimal
        self.stats = stats


class OSLResult:
    """The achieved (point-witness) sides of the two sandwiches are
    ``gamma_s_witness`` and ``lower_gamma_witness``; the certified sides are
    ``gamma_s`` (from above) and ``lower_gamma`` (from below)."""

    __slots__ = (
        "gamma_s", "estimator", "lower_gamma", "gap", "eps_optimal", "stats",
        "gamma_s_witness", "lower_gamma_witness",
    )

    def __init__(
        self, gamma_s: float, estimator: str, lower_gamma: float, gap: float,
        eps_optimal: bool, stats: RunStats, gamma_s_witness: float = 0.0,
        lower_gamma_witness: float = 0.0,
    ) -> None:
        self.gamma_s = gamma_s
        self.estimator = estimator
        self.lower_gamma = lower_gamma
        self.gap = gap
        self.eps_optimal = eps_optimal
        self.stats = stats
        self.gamma_s_witness = gamma_s_witness
        self.lower_gamma_witness = lower_gamma_witness


class QIBResult:
    __slots__ = (
        "gamma_q1", "gamma_q2", "gamma_m", "osl_upper", "osl_lower", "eps_optimal", "stats",
        "gamma_m_witness",
    )

    def __init__(
        self, gamma_q1: float, gamma_q2: float, gamma_m: float, osl_upper: float,
        osl_lower: float, eps_optimal: bool, stats: RunStats, gamma_m_witness: float = 0.0,
    ) -> None:
        self.gamma_q1 = gamma_q1
        self.gamma_q2 = gamma_q2
        self.gamma_m = gamma_m
        self.osl_upper = osl_upper
        self.osl_lower = osl_lower
        self.eps_optimal = eps_optimal
        self.stats = stats
        self.gamma_m_witness = gamma_m_witness


class QBResult:
    __slots__ = ("diag", "eps_optimal", "stats", "diag_witness")

    def __init__(
        self, diag: tuple[float, ...], eps_optimal: bool, stats: RunStats,
        diag_witness: tuple[float, ...] = (),
    ) -> None:
        self.diag = diag
        self.eps_optimal = eps_optimal
        self.stats = stats
        self.diag_witness = diag_witness


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


Runs = dict[tuple, BnBResult]
"""The certified runs behind one constant, by search key (see
``_optimize_expr``).  Each constant's computation starts one empty and
reports ``RunStats(runs.values())``, so nothing is reused across constants.
It serves one constant, so one ``BnBConfig``, which is no part of a key."""


def _ratio_add(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    (an, ad), (bn, bd) = a, b
    d = max(ad, bd)  # each denominator is a power of two, so d is a multiple of both
    return an * (d // ad) + bn * (d // bd), d


# The operations that ``_constant_bounds`` folds exactly, on ratios ``(n, d)``.
_EXACT_OPS = {
    ADD: _ratio_add,
    SUB: lambda a, b: _ratio_add(a, (-b[0], b[1])),
    MUL: lambda a, b: (a[0] * b[0], a[1] * b[1]),
    MAX: lambda a, b: b if b[0] * a[1] > a[0] * b[1] else a,
    ABS: lambda a: (abs(a[0]), a[1]),
    NEG: lambda a: (-a[0], a[1]),
}


def _constant_bounds(e: Expr) -> tuple[float, float]:
    """The value of the variable-free ``e`` rounded down and up.  A finite
    ``Const`` is its own value (so ``-0.0`` stays), a tree of ``+ - * max
    abs neg`` over finite constants its exact value ``n / d`` by
    ``ratio_down`` and ``ratio_up``, and any other tree the enclosure of
    its program, whose kernel rounds each op outward.  Raises
    ``EvaluationError`` where there is no enclosure."""
    if type(e) is Const and math.isfinite(e.value):
        return e.value, e.value

    def exact(node: Expr, values: list[tuple[int, int]]) -> tuple[int, int]:
        if type(node) is Const and math.isfinite(node.value):
            return node.value.as_integer_ratio()
        if type(node) in (Unary, Binary) and node.op in _EXACT_OPS:
            return _EXACT_OPS[node.op](*values)
        raise LookupError(node)

    try:
        n, d = walk(e, exact)
        lo, hi = ratio_down(n, d), ratio_up(n, d)
        if -math.inf < lo and hi < math.inf:
            return lo, hi
    except (LookupError, OverflowError):  # no exact value, or no float near it
        pass
    try:
        return Program(e, ())(())
    except IntervalError as exc:
        raise EvaluationError(f"objective evaluation failed: {exc}") from exc


def _optimize_expr(
    e: Expr, model: ModelDef, cfg: BnBConfig, runs: Runs, *optimizers
) -> list[BnBResult]:
    """The result of each of ``optimizers`` (``maximize`` or ``minimize``)
    on ``e`` over the model's box reduced to the variables of ``e``.

    An ``e`` without variables is no run and has no search: each result is
    ``_constant_bounds(e)``, and its ``eps_optimal`` says, as a search's
    does, whether that gap is at most ``eps_h``.

    A search is keyed, before anything is compiled, by its optimizer, the
    key of ``structural_key_with_vars(e)``, the declaration order of its
    variables and their bounds by ``repr`` (so ``0.0`` and ``-0.0`` stay
    apart); ``runs`` serves one ``cfg``, so the key leaves it out, and each
    key is hashed once, by one ``runs.get``.  The declaration order fixes
    the program's variable slots and the order of the reduced box, so equal
    keys mean equal programs over equal boxes.  Only a key not yet in
    ``runs`` builds the reduced box and one program for all the optimizers
    asked for, from the key's walk, and runs them; a repeat gets the stored
    result, which the deterministic search would compute again bit for bit
    (only its final cover keeps the first run's labels)."""
    keyed = structural_key_with_vars(e)
    key, names = keyed
    if not names:
        lo, hi = _constant_bounds(e)
        done = BnBResult(lo, hi, hi - lo <= cfg.eps_h, Cover(), BnBStats(), ())
        return [done for _ in optimizers]
    # Each slot of the key with its bound, in declaration order.
    declared = sorted((model.declared[name], k) for k, name in enumerate(names))
    search = (key, tuple((k, repr(lo), repr(hi)) for (_, (lo, hi)), k in declared))
    results = [runs.get((optimize, search)) for optimize in optimizers]
    if None in results:
        domain = model.omega().restrict(names)
        program = Program(e, domain.labels, keyed)
        for i, optimize in enumerate(optimizers):
            if results[i] is None:
                results[i] = runs[optimize, search] = optimize(
                    program.eval_point, program, domain, cfg
                )
    return results


def _maximize_expr(e: Expr, model: ModelDef, cfg: BnBConfig, runs: Runs) -> BnBResult:
    return _optimize_expr(e, model, cfg, runs, maximize)[0]


def _minimize_expr(e: Expr, model: ModelDef, cfg: BnBConfig, runs: Runs) -> BnBResult:
    return _optimize_expr(e, model, cfg, runs, minimize)[0]


def _summed_maxima(
    objectives: Iterable[Expr], model: ModelDef, cfg: BnBConfig, runs: Runs
) -> tuple[float, float, float, bool]:
    """The certified maxima of ``objectives``, summed: the exact sum of
    their upper bounds rounded up, that of their lower bounds rounded down,
    the widest gap (``0.0`` at least) and whether every run met ``eps_h``.
    An objective without variables adds each of its sides to the matching
    sum and is no run."""
    results = [_maximize_expr(e, model, cfg, runs) for e in objectives]
    return (
        ratio_up(sum(_ulps(res.upper) for res in results), _ULPS),
        ratio_down(sum(_ulps(res.lower) for res in results), _ULPS),
        max([0.0] + [res.gap for res in results]),
        all(res.eps_optimal for res in results),
    )


# ---------------------------------------------------------------------------
# Bounded Jacobian
# ---------------------------------------------------------------------------


def jacobian_bounds(model: ModelDef, cfg: BnBConfig) -> JacobianBounds:
    """Certified enclosure of every partial derivative over the admissible
    box.  A derivative that is identically zero has no entry and no
    optimization run, a constant derivative ``c`` gives [c, c]; all other
    entries maximize/minimize over the box reduced to the variables the
    derivative actually uses."""
    runs: Runs = {}
    eps_optimal = True
    entries = []
    for partials in model.state_jacobian:
        row = []
        for j, d in partials:
            hi_run, lo_run = _optimize_expr(d, model, cfg, runs, maximize, minimize)
            eps_optimal = eps_optimal and hi_run.eps_optimal and lo_run.eps_optimal
            row.append((j, (lo_run.lower, hi_run.upper)))
        entries.append(tuple(row))
    return JacobianBounds(
        entries=tuple(entries),
        eps_optimal=eps_optimal,
        stats=RunStats(runs.values()),
    )


# ---------------------------------------------------------------------------
# Lipschitz
# ---------------------------------------------------------------------------


def lipschitz_objective(model: ModelDef) -> Expr:
    """The summed squared gradient norms of all components: the objective
    of case 1 and of the sampled Lipschitz baseline.  ``0`` when no
    component depends on a state."""
    return simplified_sum(grad_sq_norm(model, i) for i in range(1, model.g + 1))


def _lipschitz(objectives: Iterable[Expr], model: ModelDef, cfg: BnBConfig) -> LipschitzResult:
    """The square roots of the summed certified maxima of ``objectives``."""
    runs: Runs = {}
    upper, lower, gap, eps_optimal = _summed_maxima(objectives, model, cfg, runs)
    return LipschitzResult(
        sqrt_up(max(upper, 0.0)), sqrt_down(max(lower, 0.0)), gap, eps_optimal,
        RunStats(runs.values()),
    )


def lipschitz_case1(model: ModelDef, cfg: BnBConfig) -> LipschitzResult:
    """One joint maximization of the summed squared gradient norms; the
    constant is the square root of the certified maximum."""
    return _lipschitz([lipschitz_objective(model)], model, cfg)


def lipschitz_case2(model: ModelDef, cfg: BnBConfig) -> LipschitzResult:
    """One maximization per component over its reduced box, summed.
    Structurally identical components (the repeated sections of a traffic
    network) are one search of the run memo, so each class of them runs
    once.  Always at least as conservative as case 1."""
    return _lipschitz((grad_sq_norm(model, i) for i in range(1, model.g + 1)), model, cfg)


# ---------------------------------------------------------------------------
# One-sided Lipschitz
# ---------------------------------------------------------------------------


def osl_frobenius(model: ModelDef, cfg: BnBConfig) -> OSLResult:
    """Upper bound from the maximal Frobenius norm of the G-weighted
    Jacobian; always nonnegative.  The matching lower bound is its negation
    (no eigenvalue of the symmetrization can lie below it)."""
    terms = (simplified_unary(SQR, e) for row in model.weighted_jacobian for _, e in row)
    runs: Runs = {}
    upper, lower, gap, eps_optimal = _summed_maxima([simplified_sum(terms)], model, cfg, runs)
    gamma = sqrt_up(max(upper, 0.0))
    achieved = sqrt_down(max(lower, 0.0))
    # ``0.0 - x``, not ``-x``: the bounds of a zero map are ``0.0``, not ``-0.0``.
    return OSLResult(
        gamma_s=gamma,
        estimator="frobenius",
        lower_gamma=0.0 - gamma,
        gap=gap,
        eps_optimal=eps_optimal,
        stats=RunStats(runs.values()),
        gamma_s_witness=achieved,
        lower_gamma_witness=0.0 - achieved,
    )


def _row_exprs(psi: tuple[Partials, ...], spread) -> tuple[list[Expr], list[Expr]]:
    """Upper and lower row objectives of the rows of ``psi``
    (``ModelDef.symmetrized_jacobian``):
    ``spread(diagonal, offdiag)`` of the nonzero off-diagonal entries of
    each row, in column order; the diagonal alone for a row without any.
    ``spread`` takes their absolute values, which wrap already-differentiated
    entries, so nothing here is ever differentiated again."""
    uppers: list[Expr] = []
    lowers: list[Expr] = []
    for i, row in enumerate(psi):
        diag = next(e for j, e in row if j == i)
        offdiag = [e for j, e in row if j != i]
        upper, lower = spread(diag, offdiag) if offdiag else (diag, diag)
        uppers.append(upper)
        lowers.append(lower)
    return uppers, lowers


def _gershgorin_row_exprs(psi: tuple[Partials, ...]) -> tuple[list[Expr], list[Expr]]:
    """Row objectives: diagonal plus (upper) / minus (lower) the absolute
    off-diagonal row sum, built by ``simplify``'s rules from the simplified
    entries of ``psi``."""

    def spread(diag: Expr, offdiag: list[Expr]) -> tuple[Expr, Expr]:
        total = simplified_sum(simplified_unary(ABS, e) for e in offdiag)
        return simplified_add(diag, total), simplified_sub(diag, total)

    return _row_exprs(psi, spread)


def _osl_from_rows(
    estimator: str,
    model: ModelDef,
    cfg: BnBConfig,
    upper_exprs: list[Expr],
    lower_exprs: list[Expr],
) -> OSLResult:
    """A row-wise OSL bound: one certified maximization per upper row and
    one minimization per lower row; the largest row maximum bounds from
    above, the smallest row minimum from below."""
    runs: Runs = {}
    uppers = [_maximize_expr(e, model, cfg, runs) for e in upper_exprs]
    lowers = [_minimize_expr(e, model, cfg, runs) for e in lower_exprs]
    results = uppers + lowers
    return OSLResult(
        gamma_s=max(res.upper for res in uppers),
        estimator=estimator,
        lower_gamma=min(res.lower for res in lowers),
        gap=max(res.gap for res in results),
        eps_optimal=all(res.eps_optimal for res in results),
        stats=RunStats(runs.values()),
        gamma_s_witness=max(res.lower for res in uppers),
        lower_gamma_witness=min(res.upper for res in lowers),
    )


def osl_gershgorin(model: ModelDef, cfg: BnBConfig) -> OSLResult:
    """Row-circle bound on the extremal eigenvalues of the symmetrized
    G-weighted Jacobian."""
    rows = _gershgorin_row_exprs(model.symmetrized_jacobian)
    return _osl_from_rows("gershgorin", model, cfg, *rows)


# ---------------------------------------------------------------------------
# Dimension-factor eigenvalue bound
# ---------------------------------------------------------------------------


def zeta(n: int) -> float:
    """Dimension-dependent factor for the row-gap eigenvalue bound: one over
    the smallest feasible pivot weight, minus one.

    The pivot weight is minimized by choosing how many of the other
    coordinates sit at the pivot magnitude: with k of them active the total
    absolute mass is (k + 1) times the pivot, so unit mass forces the pivot
    down to 1/(k + 1).  The remaining coordinates then carry no mass, so
    every k up to n - 1 is feasible; k = n - 1 gives the pivot 1/n and the
    factor n - 1 (exactly, since 1 / (1/(k+1)) - 1 == k).
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidDimension(f"dimension factor needs an integer n >= 2, got {n!r}")
    return float(n - 1)


def _zeta_row_exprs(psi: tuple[Partials, ...], zn: float) -> tuple[list[Expr], list[Expr]]:
    """Row objectives ``(+-zn) * max(max(|psi_ij1|, |psi_ij2|), ...) +
    psi_ii``, the maximum folded left over the row's nonzero off-diagonal
    entries.  Built without ``simplify``: a factor ``1.0`` (n = 2) or a
    ``0.0`` diagonal still takes its outward-rounded operation, as
    written."""

    def spread(diag: Expr, offdiag: list[Expr]) -> tuple[Expr, Expr]:
        absolute = [Unary(ABS, e) for e in offdiag]
        gap = functools.reduce(lambda a, b: Binary(MAX, a, b), absolute)
        upper, lower = (Binary(ADD, Binary(MUL, Const(z), gap), diag) for z in (zn, -zn))
        return upper, lower

    return _row_exprs(psi, spread)


def osl_zeta(model: ModelDef, cfg: BnBConfig) -> OSLResult:
    """Row bound with the dimension factor times the largest absolute
    off-diagonal entry.  A row without free variables is its exact value
    (``_constant_bounds``): rounded up on the certified side, down on the
    witness side of an upper row, and the other way round for a lower one."""
    if model.n < 2:
        raise InvalidDimension("row-gap bound needs at least two states")
    uppers, lowers = _zeta_row_exprs(model.symmetrized_jacobian, zeta(model.n))
    return _osl_from_rows("zeta", model, cfg, uppers, lowers)


# ---------------------------------------------------------------------------
# Quadratic inner-boundedness
# ---------------------------------------------------------------------------

OSL_ESTIMATORS = {
    "frobenius": osl_frobenius,
    "gershgorin": osl_gershgorin,
    "zeta": osl_zeta,
}


def qib(
    model: ModelDef,
    cfg: BnBConfig,
    eps1: float,
    eps2: float,
    osl_estimator: str = "gershgorin",
    distributed: bool = False,
) -> QIBResult:
    """Quadratic inner-boundedness constants for finite nonnegative weights
    ``eps1``, ``eps2``: the second constant is exactly their difference, the
    first combines the one-sided bounds with the certified maximum of the
    summed squared gradient norms of the mixed components.

    ``distributed=True`` bounds that maximum by the sum of per-component
    maxima (cheaper, more conservative).  ``gamma_q1``, that sum and its
    witness are rounded to the safe side of their exact values.
    """
    if not (0.0 <= eps1 < math.inf and 0.0 <= eps2 < math.inf):
        raise PreconditionViolated("eps1, eps2 finite and >= 0", f"got {eps1}, {eps2}")
    if osl_estimator not in OSL_ESTIMATORS:
        raise ValueError(f"unknown OSL estimator {osl_estimator!r}")
    stats = RunStats()
    upper_res = OSL_ESTIMATORS[osl_estimator](model, cfg)
    if osl_estimator == "gershgorin":
        lower_res = upper_res
    else:
        lower_res = osl_gershgorin(model, cfg)
        stats.merge(lower_res.stats)
    stats.merge(upper_res.stats)

    # The gradient of the G-weighted component i is row i of xi.
    norms = [
        simplified_sum(simplified_unary(SQR, e) for _, e in row)
        for row in model.weighted_jacobian
    ]
    runs: Runs = {}
    gamma_m, gamma_m_witness, _, eps_optimal = _summed_maxima(
        norms if distributed else [simplified_sum(norms)], model, cfg, runs
    )
    eps_optimal = eps_optimal and upper_res.eps_optimal and lower_res.eps_optimal
    stats.merge(RunStats(runs.values()))
    gamma_bar = upper_res.gamma_s
    gamma_low = lower_res.lower_gamma
    # In units of 2**-2148.
    exact_q1 = _ulps(eps1) * _ulps(gamma_bar) - _ulps(eps2) * _ulps(gamma_low)
    return QIBResult(
        gamma_q1=ratio_up(exact_q1 + _ulps(gamma_m) * _ULPS, _ULPS * _ULPS),
        gamma_q2=eps2 - eps1,
        gamma_m=gamma_m,
        osl_upper=gamma_bar,
        osl_lower=gamma_low,
        eps_optimal=eps_optimal,
        stats=stats,
        gamma_m_witness=gamma_m_witness,
    )


# ---------------------------------------------------------------------------
# Quadratic boundedness
# ---------------------------------------------------------------------------

def qb(model: ModelDef, cfg: BnBConfig) -> QBResult:
    """Diagonal quadratic-boundedness matrix: entry j is the square root of
    the certified maximum of n times the squared derivative column j.
    Requires an input-free model whose map vanishes at the origin of a
    domain containing it, exactly: each component's interval enclosure at
    the origin must be ``[0, 0]``, and one that has no enclosure there
    (a zero divisor, ``sqrt`` of a negative) is named as violating it.
    One certified maximization per column."""
    if model.m != 0:
        raise PreconditionViolated(
            "model must have no input variables", f"has {model.m}"
        )
    for name, (lo, hi) in zip(model.state_names, model.state_bounds):
        if not lo <= 0.0 <= hi:
            raise PreconditionViolated(
                "domain must contain the origin", f"{name} in [{lo!r}, {hi!r}]"
            )
    for i, (fi, names) in enumerate(zip(model.f, model.component_vars), start=1):
        try:
            lo, hi = Program(fi, names)([(0.0, 0.0)] * len(names))
        except IntervalError as exc:
            raise PreconditionViolated(
                "components must vanish at the origin", f"f{i}(0): {exc}"
            ) from None
        if (lo, hi) != (0.0, 0.0):
            raise PreconditionViolated(
                "components must vanish at the origin", f"f{i}(0) in [{lo!r}, {hi!r}]"
            )
    scale = Const(float(model.n))
    runs: Runs = {}
    columns: list[list[Expr]] = [[] for _ in range(model.n)]
    for partials in model.state_jacobian:
        for j, d in partials:
            columns[j].append(simplified_unary(SQR, d))
    maxima = [
        _summed_maxima([simplified_mul(scale, simplified_sum(terms))], model, cfg, runs)
        for terms in columns
    ]
    return QBResult(
        diag=tuple(sqrt_up(max(upper, 0.0)) for upper, _, _, _ in maxima),
        eps_optimal=all(optimal for _, _, _, optimal in maxima),
        stats=RunStats(runs.values()),
        diag_witness=tuple(sqrt_down(max(lower, 0.0)) for _, lower, _, _ in maxima),
    )


# ---------------------------------------------------------------------------
# Conversions and diagnostics
# ---------------------------------------------------------------------------


def qib_to_lipschitz(gamma_q1: float, gamma_q2: float) -> float:
    """Lipschitz constant implied by a pair of inner-boundedness constants,
    the square root of ``2*gamma_q1 + gamma_q2^2`` rounded up.  The radicand
    being negative certifies that no such function exists."""
    radicand = 2 * _ulps(gamma_q1) * _ULPS + _ulps(gamma_q2) ** 2  # in units of 2**-2148
    if radicand < 0:
        raise NecessaryConditionViolated(
            f"2*{gamma_q1} + |{gamma_q2}|^2 = {radicand / (_ULPS * _ULPS)} < 0: "
            "no inner-bounded function admits these constants"
        )
    return sqrt_up(ratio_up(radicand, _ULPS * _ULPS))

