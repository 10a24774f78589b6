"""Certified bounding constants for the five nonlinearity function classes.

Every constant is obtained from a certified global maximization (or
minimization) of a closed-form objective assembled symbolically from the
model's partial derivatives:

* Jacobian bounds: extrema of each partial derivative.
* Lipschitz: the squared gradient norms, either summed into one objective
  (case 1) or maximized per component and then summed with multiplicities
  over structurally identical components (case 2).
* One-sided Lipschitz: eigenvalue upper bounds for the symmetrized G-weighted
  Jacobian, via a Frobenius-norm objective, Gershgorin row sums, or the
  dimension-factor row bound.
* Quadratic inner-boundedness: assembled from the one-sided bounds plus the
  certified maximum of the squared gradient norms of the mixed components.
* Quadratic boundedness: one certified maximization per diagonal entry.

The independent per-entry/per-row problems run one after another in a fixed
order, so results and run statistics are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .bnb import BnBConfig, BnBResult, BnBStats, Cover, maximize, minimize
from .errors import (
    InvalidDimension,
    NecessaryConditionViolated,
    PreconditionViolated,
)
from .expr import (
    ABS,
    Const,
    Expr,
    Program,
    Unary,
    compile_expr,
    differentiate,
    eval_real,
    expr_sum,
    is_zero,
    simplify,
    sqr,
    structural_key_with_vars,
)
from .intervals import Box, Interval
from .model import ModelDef, grad_sq_norm, reduced_domain

# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------


@dataclass
class RunStats:
    """Aggregate over the certified runs behind one constant."""

    runs: int = 0
    splits: int = 0
    evals: int = 0
    wall_time: float = 0.0

    def absorb(self, result: BnBResult) -> BnBResult:
        """Count ``result`` in and return it."""
        self.runs += 1
        self.splits += result.stats.splits
        self.evals += result.stats.evals
        self.wall_time += result.stats.wall_time
        return result

    def merge(self, other: "RunStats") -> None:
        self.runs += other.runs
        self.splits += other.splits
        self.evals += other.evals
        self.wall_time += other.wall_time


@dataclass
class JacobianBounds:
    entries: tuple[tuple[Interval, ...], ...]  # g rows, n columns
    eps_optimal: bool
    stats: RunStats

    def entry(self, i: int, j: int) -> Interval:
        return self.entries[i - 1][j - 1]


@dataclass
class LipschitzResult:
    gamma: float
    lower: float
    gap: float
    eps_optimal: bool
    case: int
    stats: RunStats


@dataclass
class OSLResult:
    gamma_s: float
    estimator: str
    lower_gamma: float
    gap: float
    eps_optimal: bool
    stats: RunStats
    # Achieved (point-witness) sides of the two sandwiches; the certified
    # sides are gamma_s (from above) and lower_gamma (from below).
    gamma_s_witness: float = 0.0
    lower_gamma_witness: float = 0.0


@dataclass
class QIBResult:
    gamma_q1: float
    gamma_q2: float
    eps1: float
    eps2: float
    gamma_m: float
    osl_upper: float
    osl_lower: float
    eps_optimal: bool
    stats: RunStats
    gamma_m_witness: float = 0.0


@dataclass
class QBResult:
    diag: tuple[float, ...]
    eps_optimal: bool
    stats: RunStats
    diag_witness: tuple[float, ...] = ()

    def matrix(self) -> tuple[tuple[float, ...], ...]:
        n = len(self.diag)
        return tuple(
            tuple(self.diag[i] if i == j else 0.0 for j in range(n))
            for i in range(n)
        )


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _expr_objective(e: Expr, domain: Box):
    program = compile_expr(e, domain.labels)
    return program.eval_point, lambda box: program.eval_interval(box.dims)


def _maximize_over(e: Expr, domain: Box, cfg: BnBConfig) -> BnBResult:
    """Certified maximum sandwich of ``e`` over ``domain``; every variable of
    ``e`` must be a label of the box."""
    h, hI = _expr_objective(e, domain)
    return maximize(h, hI, domain, cfg)


def _maximize_expr(e: Expr, model: ModelDef, cfg: BnBConfig) -> BnBResult:
    return _maximize_over(e, reduced_domain(model, e), cfg)


def _minimize_expr(e: Expr, model: ModelDef, cfg: BnBConfig) -> BnBResult:
    domain = reduced_domain(model, e)
    h, hI = _expr_objective(e, domain)
    return minimize(h, hI, domain, cfg)


def _const_result(value: float) -> BnBResult:
    return BnBResult(
        lower=value,
        upper=value,
        eps_optimal=True,
        final_cover=Cover(),
        stats=BnBStats(),
        lower_witness=(),
    )


# ---------------------------------------------------------------------------
# Bounded Jacobian
# ---------------------------------------------------------------------------


def jacobian_bounds(model: ModelDef, cfg: BnBConfig) -> JacobianBounds:
    """Certified enclosure of every partial derivative over the admissible
    box.  Entries whose derivative is identically zero are [0, 0] with no
    optimization run; all other entries maximize/minimize over the box
    reduced to the variables the derivative actually uses."""
    stats = RunStats()
    eps_optimal = True
    entries = [
        [Interval(0.0, 0.0) for _ in range(model.n)] for _ in range(model.g)
    ]
    for i, fi in enumerate(model.f):
        for j, name in enumerate(model.state_names):
            d = differentiate(fi, name)
            if is_zero(d):
                continue
            hi_run = _maximize_expr(d, model, cfg)
            lo_run = _minimize_expr(d, model, cfg)
            stats.absorb(hi_run)
            stats.absorb(lo_run)
            eps_optimal = eps_optimal and hi_run.eps_optimal and lo_run.eps_optimal
            entries[i][j] = Interval(lo_run.lower, hi_run.upper)
    return JacobianBounds(
        entries=tuple(tuple(row) for row in entries),
        eps_optimal=eps_optimal,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Lipschitz
# ---------------------------------------------------------------------------


def lipschitz_objective(model: ModelDef) -> Expr:
    """The summed squared gradient norms of all components: the objective
    of case 1 and of the sampled Lipschitz baseline.  ``0`` when no
    component depends on a state."""
    terms = (grad_sq_norm(model, i) for i in range(1, model.g + 1))
    total = expr_sum(t for t in terms if not is_zero(t))
    return simplify(total) if total is not None else Const(0.0)


def lipschitz_case1(model: ModelDef, cfg: BnBConfig) -> LipschitzResult:
    """One joint maximization of the summed squared gradient norms; the
    constant is the square root of the certified maximum."""
    objective = lipschitz_objective(model)
    if is_zero(objective):
        return LipschitzResult(0.0, 0.0, 0.0, True, 1, RunStats())
    res = _maximize_expr(objective, model, cfg)
    stats = RunStats()
    stats.absorb(res)
    return LipschitzResult(
        gamma=math.sqrt(max(res.upper, 0.0)),
        lower=math.sqrt(max(res.lower, 0.0)),
        gap=res.gap,
        eps_optimal=res.eps_optimal,
        case=1,
        stats=stats,
    )


def _dedup_components(model: ModelDef) -> tuple[list[Expr], list[int]]:
    """Group the per-component squared gradient norms by structural identity
    (same expression up to variable renaming AND same per-variable bounds);
    returns unique objectives with multiplicities."""
    uniques: list[Expr] = []
    counts: list[int] = []
    seen: dict[object, int] = {}
    for i in range(1, model.g + 1):
        obj = grad_sq_norm(model, i)
        key, names = structural_key_with_vars(obj)
        signature = (
            key,
            tuple((model.bound_of(v).lo, model.bound_of(v).hi) for v in names),
        )
        if signature in seen:
            counts[seen[signature]] += 1
        else:
            seen[signature] = len(uniques)
            uniques.append(obj)
            counts.append(1)
    return uniques, counts


def lipschitz_case2(model: ModelDef, cfg: BnBConfig) -> LipschitzResult:
    """Per-component maximizations over reduced boxes, deduplicated across
    structurally identical components and recombined with multiplicities.
    Always at least as conservative as case 1."""
    stats = RunStats()
    upper_sum = 0.0
    lower_sum = 0.0
    worst_gap = 0.0
    eps_optimal = True
    for obj, count in zip(*_dedup_components(model)):
        res = _const_result(0.0) if is_zero(obj) else _maximize_expr(obj, model, cfg)
        stats.absorb(res)
        upper_sum += count * res.upper
        lower_sum += count * res.lower
        worst_gap = max(worst_gap, res.gap)
        eps_optimal = eps_optimal and res.eps_optimal
    return LipschitzResult(
        gamma=math.sqrt(max(upper_sum, 0.0)),
        lower=math.sqrt(max(lower_sum, 0.0)),
        gap=worst_gap,
        eps_optimal=eps_optimal,
        case=2,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# G-weighted Jacobian matrices
# ---------------------------------------------------------------------------


def build_xi(model: ModelDef) -> tuple[tuple[Expr, ...], ...]:
    """n-by-n matrix of expressions: row i, column j holds the G-weighted sum
    of the partial derivatives of the components with respect to state j."""
    G = model.effective_G()
    columns = model.state_names
    derivatives = [
        [differentiate(fk, name) for name in columns] for fk in model.f
    ]
    rows: list[tuple[Expr, ...]] = []
    for i in range(model.n):
        row: list[Expr] = []
        for j in range(model.n):
            total = expr_sum(
                derivatives[k][j] if G[i][k] == 1.0 else Const(G[i][k]) * derivatives[k][j]
                for k in range(model.g)
                if G[i][k] != 0.0 and not is_zero(derivatives[k][j])
            )
            row.append(simplify(total) if total is not None else Const(0.0))
        rows.append(tuple(row))
    return tuple(rows)


def build_psi(model: ModelDef) -> tuple[tuple[Expr, ...], ...]:
    """Symmetrized G-weighted Jacobian: half the sum of the matrix and its
    transpose, entrywise."""
    xi = build_xi(model)
    n = len(xi)
    return tuple(
        tuple(
            simplify(Const(0.5) * (xi[i][j] + xi[j][i])) for j in range(n)
        )
        for i in range(n)
    )


# ---------------------------------------------------------------------------
# One-sided Lipschitz
# ---------------------------------------------------------------------------


def osl_frobenius(model: ModelDef, cfg: BnBConfig) -> OSLResult:
    """Upper bound from the maximal Frobenius norm of the G-weighted
    Jacobian; always nonnegative.  The matching lower bound is its negation
    (no eigenvalue of the symmetrization can lie below it)."""
    total = expr_sum(
        sqr(entry) for row in build_xi(model) for entry in row if not is_zero(entry)
    )
    if total is None:
        return OSLResult(0.0, "frobenius", 0.0, 0.0, True, RunStats())
    res = _maximize_expr(simplify(total), model, cfg)
    stats = RunStats()
    stats.absorb(res)
    gamma = math.sqrt(max(res.upper, 0.0))
    achieved = math.sqrt(max(res.lower, 0.0))
    return OSLResult(
        gamma_s=gamma,
        estimator="frobenius",
        lower_gamma=-gamma,
        gap=res.gap,
        eps_optimal=res.eps_optimal,
        stats=stats,
        gamma_s_witness=achieved,
        lower_gamma_witness=-achieved,
    )


def _gershgorin_row_exprs(
    psi: tuple[tuple[Expr, ...], ...]
) -> tuple[list[Expr], list[Expr]]:
    """Row objectives: diagonal plus (upper) / minus (lower) the absolute
    off-diagonal row sum.  The absolute values wrap already-differentiated
    entries, so nothing here is ever differentiated again."""
    n = len(psi)
    uppers: list[Expr] = []
    lowers: list[Expr] = []
    for i in range(n):
        offdiag = expr_sum(
            Unary(ABS, psi[i][j]) for j in range(n) if j != i and not is_zero(psi[i][j])
        )
        if offdiag is None:
            uppers.append(psi[i][i])
            lowers.append(psi[i][i])
        else:
            uppers.append(simplify(psi[i][i] + offdiag))
            lowers.append(simplify(psi[i][i] - offdiag))
    return uppers, lowers


def osl_gershgorin(model: ModelDef, cfg: BnBConfig) -> OSLResult:
    """Row-circle bound on the extremal eigenvalues of the symmetrized
    G-weighted Jacobian; one certified maximization (and minimization) per
    row."""
    upper_exprs, lower_exprs = _gershgorin_row_exprs(build_psi(model))
    stats = RunStats()
    uppers = [stats.absorb(_row_run(e, _maximize_expr, model, cfg)) for e in upper_exprs]
    lowers = [stats.absorb(_row_run(e, _minimize_expr, model, cfg)) for e in lower_exprs]
    return _osl_from_rows("gershgorin", uppers, lowers, stats)


def _row_run(e: Expr, optimize, model: ModelDef, cfg: BnBConfig) -> BnBResult:
    """A constant row objective needs no optimization run."""
    return _const_result(e.value) if isinstance(e, Const) else optimize(e, model, cfg)


def _osl_from_rows(
    estimator: str, uppers: list[BnBResult], lowers: list[BnBResult], stats: RunStats
) -> OSLResult:
    """Assemble a row-wise OSL bound: the largest row maximum from above,
    the smallest row minimum from below."""
    results = uppers + lowers
    return OSLResult(
        gamma_s=max(res.upper for res in uppers),
        estimator=estimator,
        lower_gamma=min(res.lower for res in lowers),
        gap=max(res.gap for res in results),
        eps_optimal=all(res.eps_optimal for res in results),
        stats=stats,
        gamma_s_witness=max(res.lower for res in uppers),
        lower_gamma_witness=min(res.upper for res in lowers),
    )


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


def osl_zeta(model: ModelDef, cfg: BnBConfig) -> OSLResult:
    """Row bound with the dimension factor times the largest absolute
    off-diagonal entry.  The inner maximum over a row is not a single
    expression; its interval extension is the entrywise hull of the
    off-diagonal absolute enclosures."""
    if model.n < 2:
        raise InvalidDimension("row-gap bound needs at least two states")
    zn = zeta(model.n)
    psi = build_psi(model)
    stats = RunStats()
    uppers: list[BnBResult] = []
    lowers: list[BnBResult] = []
    for i in range(model.n):
        uppers.append(stats.absorb(_zeta_row_run(model, psi, i, zn, 1.0, cfg)))
        lowers.append(stats.absorb(_zeta_row_run(model, psi, i, zn, -1.0, cfg)))
    return _osl_from_rows("zeta", uppers, lowers, stats)


def _zeta_row_run(
    model: ModelDef,
    psi: tuple[tuple[Expr, ...], ...],
    i: int,
    zn: float,
    sign: float,
    cfg: BnBConfig,
) -> BnBResult:
    n = len(psi)
    row_exprs = [psi[i][i]] + [psi[i][j] for j in range(n) if j != i]
    domain = reduced_domain(model, row_exprs)
    diag = compile_expr(psi[i][i], domain.labels)
    # Identically-zero entries never decide a maximum of absolute values, so
    # only the nonzero off-diagonal entries need programs.
    offdiag: list[Program] = [
        compile_expr(psi[i][j], domain.labels)
        for j in range(n)
        if j != i and not is_zero(psi[i][j])
    ]

    def h(xs: Sequence[float]) -> float:
        gap = max((abs(p.eval_point(xs)) for p in offdiag), default=0.0)
        return diag.eval_point(xs) + sign * zn * gap

    def hI(box: Box) -> Interval:
        # Extension of a pointwise max: componentwise max of the enclosures.
        hull = Interval(0.0, 0.0)
        for p in offdiag:
            iv = p.eval_interval(box.dims).abs()
            hull = Interval(max(hull.lo, iv.lo), max(hull.hi, iv.hi))
        scaled = Interval.point(sign * zn) * hull
        return diag.eval_interval(box.dims) + scaled

    if sign > 0:
        return maximize(h, hI, domain, cfg)
    return minimize(h, hI, domain, cfg)


# ---------------------------------------------------------------------------
# Quadratic inner-boundedness
# ---------------------------------------------------------------------------

_OSL_ESTIMATORS = {
    "frobenius": osl_frobenius,
    "gershgorin": osl_gershgorin,
    "zeta": osl_zeta,
}


def mixed_components(model: ModelDef) -> tuple[Expr, ...]:
    """The G-weighted component functions (one per state)."""
    G = model.effective_G()
    out: list[Expr] = []
    for i in range(model.n):
        total = expr_sum(
            model.f[j] if G[i][j] == 1.0 else Const(G[i][j]) * model.f[j]
            for j in range(model.g)
            if G[i][j] != 0.0
        )
        out.append(simplify(total) if total is not None else Const(0.0))
    return tuple(out)


def _mixed_grad_sq_norms(model: ModelDef) -> list[Expr]:
    out: list[Expr] = []
    for xi_i in mixed_components(model):
        derivatives = (differentiate(xi_i, name) for name in model.state_names)
        total = expr_sum(sqr(d) for d in derivatives if not is_zero(d))
        out.append(simplify(total) if total is not None else Const(0.0))
    return out


def qib(
    model: ModelDef,
    cfg: BnBConfig,
    eps1: float,
    eps2: float,
    osl_estimator: str = "gershgorin",
    distributed: bool = False,
) -> QIBResult:
    """Quadratic inner-boundedness constants for nonnegative weights
    ``eps1``, ``eps2``: the second constant is exactly their difference, the
    first combines the one-sided bounds with the certified maximum of the
    summed squared gradient norms of the mixed components.

    ``distributed=True`` bounds that maximum by the sum of per-component
    maxima (cheaper, more conservative).
    """
    if eps1 < 0.0 or eps2 < 0.0:
        raise PreconditionViolated("eps1, eps2 >= 0", f"got {eps1}, {eps2}")
    if osl_estimator not in _OSL_ESTIMATORS:
        raise ValueError(f"unknown OSL estimator {osl_estimator!r}")
    stats = RunStats()
    upper_res = _OSL_ESTIMATORS[osl_estimator](model, cfg)
    if osl_estimator == "gershgorin":
        lower_res = upper_res
    else:
        lower_res = osl_gershgorin(model, cfg)
        stats.merge(lower_res.stats)
    stats.merge(upper_res.stats)

    norms = _mixed_grad_sq_norms(model)
    eps_optimal = upper_res.eps_optimal and lower_res.eps_optimal
    if distributed:
        results = [
            _const_result(0.0) if is_zero(e) else _maximize_expr(e, model, cfg)
            for e in norms
        ]
        gamma_m = sum(res.upper for res in results)
        gamma_m_witness = sum(res.lower for res in results)
        for res in results:
            stats.absorb(res)
            eps_optimal = eps_optimal and res.eps_optimal
    else:
        total = expr_sum(e for e in norms if not is_zero(e))
        if total is None:
            gamma_m = gamma_m_witness = 0.0
        else:
            res = _maximize_expr(simplify(total), model, cfg)
            stats.absorb(res)
            eps_optimal = eps_optimal and res.eps_optimal
            gamma_m = res.upper
            gamma_m_witness = res.lower
    gamma_bar = upper_res.gamma_s
    gamma_low = lower_res.lower_gamma
    return QIBResult(
        gamma_q1=eps1 * gamma_bar - eps2 * gamma_low + gamma_m,
        gamma_q2=eps2 - eps1,
        eps1=eps1,
        eps2=eps2,
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

_QB_ORIGIN_TOL = 1e-12


def qb(model: ModelDef, cfg: BnBConfig) -> QBResult:
    """Diagonal quadratic-boundedness matrix: entry j is the square root of
    the certified maximum of n times the squared derivative column j.
    Requires an input-free model whose map vanishes at the origin of a
    domain containing it; one certified maximization per column."""
    if model.m != 0:
        raise PreconditionViolated(
            "model must have no input variables", f"has {model.m}"
        )
    for name, iv in zip(model.state_names, model.state_bounds):
        if not iv.contains(0.0):
            raise PreconditionViolated(
                "domain must contain the origin", f"{name} in {iv}"
            )
    origin = {name: 0.0 for name in model.state_names}
    norm0 = math.sqrt(sum(eval_real(fi, origin) ** 2 for fi in model.f))
    if norm0 > _QB_ORIGIN_TOL:
        raise PreconditionViolated(
            "components must vanish at the origin", f"|f(0)| = {norm0:.3e}"
        )
    scale = Const(float(model.n))
    diag = [0.0] * model.n
    witness = [0.0] * model.n
    stats = RunStats()
    eps_optimal = True
    for j, name in enumerate(model.state_names):
        derivatives = (differentiate(fi, name) for fi in model.f)
        total = expr_sum(sqr(d) for d in derivatives if not is_zero(d))
        if total is None:
            continue
        res = _maximize_expr(simplify(scale * total), model, cfg)
        stats.absorb(res)
        eps_optimal = eps_optimal and res.eps_optimal
        diag[j] = math.sqrt(max(res.upper, 0.0))
        witness[j] = math.sqrt(max(res.lower, 0.0))
    return QBResult(
        diag=tuple(diag),
        eps_optimal=eps_optimal,
        stats=stats,
        diag_witness=tuple(witness),
    )


# ---------------------------------------------------------------------------
# Conversions and diagnostics
# ---------------------------------------------------------------------------


def qib_to_lipschitz(gamma_q1: float, gamma_q2: float) -> float:
    """Lipschitz constant implied by a pair of inner-boundedness constants.
    The radicand being negative certifies that no such function exists."""
    radicand = 2.0 * gamma_q1 + abs(gamma_q2) ** 2
    if radicand < 0.0:
        raise NecessaryConditionViolated(
            f"2*{gamma_q1} + |{gamma_q2}|^2 = {radicand} < 0: "
            "no inner-bounded function admits these constants"
        )
    return math.sqrt(radicand)


def osl_extremal_eigen_sampled(
    model: ModelDef, count: int = 1000
) -> tuple[float, float]:
    """Sampled (non-certified) extremal eigenvalues of the symmetrized
    G-weighted Jacobian over the admissible box: a diagnostic for how tight
    the certified one-sided bounds are."""
    from .baselines import halton_points_in_box
    from .eigen import jacobi_eigenvalues

    psi = build_psi(model)
    domain = model.omega()
    programs = [
        [compile_expr(entry, domain.labels) for entry in row] for row in psi
    ]
    hi = -math.inf
    lo = math.inf
    for point in halton_points_in_box(domain, count):
        matrix = [[p.eval_point(point) for p in row] for row in programs]
        eigs = jacobi_eigenvalues(matrix)
        lo = min(lo, eigs[0])
        hi = max(hi, eigs[-1])
    return hi, lo
