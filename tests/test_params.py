"""Certified constants: Jacobian bounds, Lipschitz, OSL, QIB, QB."""

import math
import random
from fractions import Fraction

import pytest

from certbound import BnBConfig, ModelDef, qib_to_lipschitz
from certbound.errors import (
    EvaluationError,
    InvalidDimension,
    NecessaryConditionViolated,
    PreconditionViolated,
)
from certbound.bnb import maximize, minimize
from certbound.expr import (
    ABS,
    ADD,
    MAX,
    MUL,
    SQR,
    SUB,
    ZERO,
    Binary,
    Const,
    Program,
    Unary,
    Var,
    differentiate,
    is_zero,
    parse,
    simplified_mul,
    simplified_sum,
    simplified_unary,
    simplify,
    structural_key_with_vars,
    to_text,
)
from certbound.model import reduced_domain
from certbound.models import build_traffic
from certbound import expr as expr_module
from certbound import model as model_module
from certbound import params
from certbound.params import (
    _maximize_expr,
    _minimize_expr,
    _gershgorin_row_exprs,
    _zeta_row_exprs,
    jacobian_bounds,
    lipschitz_case1,
    lipschitz_case2,
    lipschitz_objective,
    osl_frobenius,
    osl_gershgorin,
    osl_zeta,
    qb,
    qib,
    zeta,
)
from conftest import (
    eval_real, expr_sum, jacobian_entry, osl_extremal_eigen_sampled, random_polynomial,
)

DELTA = 31.3 / (500.0 * 0.053)
RHO_C = 0.0265

CFG = BnBConfig(eps_h=1e-6, eps_om=1e-9, segments=1)
CFG_COARSE = BnBConfig(eps_h=1e-4, eps_om=1e-7, segments=1)


def searches(model, exprs) -> set:
    """The distinct searches behind ``exprs`` (constants need none): each
    one's compiled ops and constants by ``repr``, with its reduced box's
    endpoints by ``repr``."""
    keys = set()
    for e in exprs:
        if not isinstance(e, Const):
            domain = reduced_domain(model, e)
            program = Program(e, domain.labels)
            constants = tuple(map(repr, program._constants))
            endpoints = tuple((repr(lo), repr(hi)) for lo, hi in domain.pairs)
            keys.add((program.code, constants, endpoints))
    return keys


def small_model(texts, bounds, inputs=(), G=None, constants=None):
    state_names = tuple(name for name, _, _ in bounds)
    return ModelDef(
        state_names=state_names,
        state_bounds=tuple((lo, hi) for _, lo, hi in bounds),
        f=tuple(parse(t, constants) for t in texts),
        input_names=tuple(name for name, _, _ in inputs),
        input_bounds=tuple((lo, hi) for _, lo, hi in inputs),
        G=G,
    )


# ---------------------------------------------------------------------------
# The dimension factor and its independent oracle
# ---------------------------------------------------------------------------


def zeta_oracle(n: int, tol: float = 1e-12) -> float:
    """Independent check by bisection on the feasibility of a pivot weight t:
    the other n-1 coordinates must absorb mass 1-t with magnitudes <= t,
    which is possible iff (n-1)*t >= 1-t."""

    def feasible(t: float) -> bool:
        return t > 0.0 and (n - 1) * t >= 1.0 - t

    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return 1.0 / hi - 1.0


class TestZeta:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_oracle(self, n):
        assert zeta(n) == pytest.approx(zeta_oracle(n), abs=1e-9)
        assert zeta(n) == pytest.approx(n - 1, abs=1e-9)

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimension):
            zeta(1)
        with pytest.raises(InvalidDimension):
            zeta(0)


# ---------------------------------------------------------------------------
# Jacobian bounds
# ---------------------------------------------------------------------------


class TestJacobianBounds:
    def test_traffic_segment_derivative(self, traffic_s1):
        jb = jacobian_bounds(traffic_s1, CFG)
        # first mainline segment: d f2 / d x2 = 2*delta*x2 on [0, rho_c]
        lo, hi = jacobian_entry(jb, 2, 2)
        assert lo == pytest.approx(0.0, abs=1e-6)
        assert hi == pytest.approx(2 * DELTA * RHO_C, abs=1e-6)

    def test_entries_are_pairs(self, traffic_s1):
        jb = jacobian_bounds(traffic_s1, CFG)
        for row in jb.entries:
            for _, pair in row:
                assert type(pair) is tuple and [type(x) for x in pair] == [float, float]
                assert pair[0] <= pair[1]

    def test_zero_derivatives_skip_runs(self, traffic_s1):
        jb = jacobian_bounds(traffic_s1, CFG)
        assert jacobian_entry(jb, 2, 7) == (0.0, 0.0)
        partials = [d for row in traffic_s1.state_jacobian for _, d in row]
        nonzero = sum(
            1
            for i in range(1, traffic_s1.g + 1)
            for j in range(1, traffic_s1.n + 1)
            if jacobian_entry(jb, i, j) != (0.0, 0.0)
        )
        assert nonzero == len(partials) == 13
        # The entries are sparse, in the places of the state Jacobian's.
        assert [[j for j, _ in row] for row in jb.entries] == [
            [j for j, _ in row] for row in traffic_s1.state_jacobian
        ]
        # One max and one min per distinct search among the 13 nonzero
        # entries (4 of them); the 36 zero entries run nothing.
        assert jb.stats.runs == 2 * len(searches(traffic_s1, partials)) == 8

    def test_absent_state_of_a_quotient_is_exactly_zero(self):
        m = small_model(
            ["x1/(1 + x2^2)"], [("x1", 0, 1), ("x2", 0, 1), ("x3", 0, 1)]
        )
        jb = jacobian_bounds(m, CFG)
        assert repr(jacobian_entry(jb, 1, 3)) == "(0.0, 0.0)"
        assert jb.stats.runs == 4  # x1 and x2 only

    def test_constant_entries_skip_their_runs(self):
        bounds = [("x1", -1, 2), ("x2", 0, 1)]
        linear = jacobian_bounds(small_model(["3*x1 - x2", "x1*x2"], bounds), CFG)
        alone = jacobian_bounds(small_model(["x1*x2"], bounds), CFG)
        first = [jacobian_entry(linear, 1, j) for j in (1, 2)]
        assert repr(first) == "[(3.0, 3.0), (-1.0, -1.0)]"
        assert jacobian_entry(linear, 2, 1) == jacobian_entry(alone, 1, 1)
        # [c, c] takes no evaluation and is no run.
        assert (linear.stats.runs, linear.stats.evals) == (alone.stats.runs, alone.stats.evals)
        assert linear.stats.runs == 4  # x1*x2's two entries: one max and one min each

    def test_product_with_sqrt_leaves_no_quotient_debris(self):
        # d(x1*sqrt(x2))/dx1 is sqrt(x2), not sqrt(x2) + x1*(0.0/(2.0*sqrt(x2))),
        # whose enclosure fails on every box that touches x2 = 0.
        m = small_model(["x1*sqrt(x2)", "x2"], [("x1", 0, 1), ("x2", 0, 1)])
        partials = dict(m.state_jacobian[0])
        assert to_text(partials[0]) == "sqrt(x2)"
        hi = _maximize_expr(partials[0], m, CFG, {})
        lo = _minimize_expr(partials[0], m, CFG, {})
        assert lo.lower <= 0.0 <= lo.upper and hi.lower <= 1.0 <= hi.upper
        assert hi.eps_optimal and lo.eps_optimal
        assert hi.stats.evals + lo.stats.evals < 200

    def test_one_program_per_entry(self, monkeypatch):
        # The max and the min run of an entry share its compiled program.
        programs = []

        class Counted(params.Program):
            __slots__ = ()

            def __init__(self, *args):
                programs.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(params, "Program", Counted)
        m = small_model(["x1*x2 + sqr(x1)", "x2*x2*x1"], [("x1", -1, 2), ("x2", 0, 1)])
        jb = jacobian_bounds(m, CFG)
        assert jb.stats.runs == 8 and len(programs) == 4

    def test_moving_object_entry(self, moving_object):
        jb = jacobian_bounds(moving_object, BnBConfig(eps_h=1e-3, eps_om=1e-7, segments=1))
        lo, hi = jacobian_entry(jb, 1, 1)  # range of -3*x1^2 - x2^2 over [-5, 5]^2
        assert lo == pytest.approx(-100.0, abs=1e-3)
        assert hi == pytest.approx(0.0, abs=1e-3)

    def test_sampled_derivatives_enclosed(self, moving_object):
        jb = jacobian_bounds(moving_object, CFG_COARSE)
        rng = random.Random(3)
        for i in (1, 2):
            for j, name in enumerate(moving_object.state_names, start=1):
                d = differentiate(moving_object.f[i - 1], name)
                lo, hi = jacobian_entry(jb, i, j)
                for _ in range(200):
                    point = {
                        "x1": rng.uniform(-5, 5),
                        "x2": rng.uniform(-5, 5),
                    }
                    value = eval_real(d, point)
                    assert lo - 1e-9 <= value <= hi + 1e-9


# ---------------------------------------------------------------------------
# Lipschitz
# ---------------------------------------------------------------------------


class TestLipschitz:
    def test_identity_map(self):
        m = small_model(["x1", "x2", "x3"], [("x1", -1, 1), ("x2", 0, 2), ("x3", -3, -1)])
        r = lipschitz_case1(m, CFG)
        assert r.gamma == pytest.approx(math.sqrt(3), abs=1e-6)
        assert r.eps_optimal

    def test_single_component_cases_agree(self):
        m = small_model(["x1^2 - x1*x2"], [("x1", -1, 1), ("x2", -1, 1)])
        r1 = lipschitz_case1(m, CFG)
        r2 = lipschitz_case2(m, CFG)
        assert r1.gamma == pytest.approx(r2.gamma, abs=1e-9)

    def test_case_ordering(self, traffic_s1, moving_object_unit):
        for model in (traffic_s1, moving_object_unit):
            r1 = lipschitz_case1(model, CFG_COARSE)
            r2 = lipschitz_case2(model, CFG_COARSE)
            assert r1.gamma <= r2.gamma + 1e-9

    def test_traffic_dedup_counts(self, traffic_s5):
        r = lipschitz_case2(traffic_s5, CFG_COARSE)
        assert r.stats.runs == 5  # five structurally distinct nonlinearities
        assert r.gamma == pytest.approx(0.4579, abs=5e-4)

    def test_moving_object_case1(self, moving_object):
        r = lipschitz_case1(moving_object, CFG_COARSE)
        assert r.gamma == pytest.approx(math.sqrt(25000.0), abs=1e-2)

    def test_constant_model_zero(self):
        m = small_model(["2.5"], [("x1", -1, 1)])
        r = lipschitz_case1(m, CFG)
        assert r.gamma == 0.0 and r.eps_optimal


# ---------------------------------------------------------------------------
# G-weighted Jacobian matrices
# ---------------------------------------------------------------------------


def dense(rows, n: int) -> list[list]:
    """The n-by-n matrix of a sparse one: ``ZERO`` where a row has no entry."""
    matrix = [[ZERO] * n for _ in rows]
    for row, entries in zip(matrix, rows):
        for j, e in entries:
            row[j] = e
    return matrix


def _weights(model: ModelDef):
    """G, or the identity written out when it is omitted."""
    if model.G is not None:
        return model.G
    return tuple(tuple(float(i == k) for k in range(model.g)) for i in range(model.n))


def reference_xi(model: ModelDef) -> list[list]:
    """The dense G-weighted Jacobian, entry by entry over every (weight,
    partial) pair, each component differentiated by every state name."""
    rows = []
    for weights in _weights(model):
        terms: list[list] = [[] for _ in range(model.n)]
        for weight, fk in zip(weights, model.f):
            if weight != 0.0:
                for j, name in enumerate(model.state_names):
                    d = differentiate(fk, name)
                    if not is_zero(d):
                        terms[j].append(simplified_mul(Const(weight), d))
        rows.append([simplified_sum(column) for column in terms])
    return rows


def reference_mixed_grad_sq_norms(model: ModelDef) -> list:
    """The squared gradient norm of each G-weighted component, got by
    differentiating the component by every state name."""
    norms = []
    for weights in _weights(model):
        mixed = simplified_sum(
            [simplified_mul(Const(w), fk) for w, fk in zip(weights, model.f) if w != 0.0]
        )
        partials = (differentiate(mixed, name) for name in model.state_names)
        norms.append(simplified_sum([simplified_unary(SQR, d) for d in partials if not is_zero(d)]))
    return norms


def keys(exprs) -> list:
    return [structural_key_with_vars(e) for e in exprs]


class TestXiPsi:
    def test_moving_object_entries(self, moving_object):
        xi = dense(moving_object.weighted_jacobian, 2)
        rng = random.Random(8)
        expect = {
            (0, 0): lambda x1, x2: -3 * x1**2 - x2**2,
            (0, 1): lambda x1, x2: -2 * x1 * x2,
            (1, 0): lambda x1, x2: -2 * x1 * x2,
            (1, 1): lambda x1, x2: -(x1**2) - 3 * x2**2,
        }
        for _ in range(100):
            x1, x2 = rng.uniform(-5, 5), rng.uniform(-5, 5)
            for (i, j), fn in expect.items():
                got = eval_real(xi[i][j], {"x1": x1, "x2": x2})
                assert got == pytest.approx(fn(x1, x2), rel=1e-12, abs=1e-12)

    def test_zero_G(self):
        m = small_model(
            ["x1^2", "x2^2"],
            [("x1", -1, 1), ("x2", -1, 1)],
            G=((0.0, 0.0), (0.0, 0.0)),
        )
        assert m.weighted_jacobian == ((), ())
        # psi keeps its zero diagonal only.
        assert m.symmetrized_jacobian == (((0, ZERO),), ((1, ZERO),))

    def test_linear_map_constant_xi(self):
        m = small_model(
            ["2*x1 + x2", "x1 + 2*x2"], [("x1", -1, 1), ("x2", -1, 1)]
        )
        assert m.weighted_jacobian == (
            ((0, Const(2.0)), (1, Const(1.0))), ((0, Const(1.0)), (1, Const(2.0)))
        )

    def test_omitted_G_is_the_state_jacobian(self, moving_object):
        assert moving_object.weighted_jacobian is moving_object.state_jacobian

    def test_psi_symmetric(self, moving_object):
        psi = dense(moving_object.symmetrized_jacobian, 2)
        rng = random.Random(5)
        for _ in range(50):
            env = {"x1": rng.uniform(-5, 5), "x2": rng.uniform(-5, 5)}
            assert eval_real(psi[0][1], env) == pytest.approx(
                eval_real(psi[1][0], env)
            )

    def test_psi_rows_are_sparse(self):
        # xi's rows 2 and 3 are (1, 0, 0) and (-1, 0, 0), so psi_21 is
        # 0.5*(1 + x1) and psi_22 is 0, which stays as the diagonal, while
        # psi_13 = psi_31 = 0.5*(1 - 1) folds to 0 and is left out.
        m = small_model(
            ["x1*x2 + x3", "x1", "-x1"], [("x1", -1, 1), ("x2", -1, 1), ("x3", -1, 1)]
        )
        psi = m.symmetrized_jacobian
        assert [[j for j, _ in row] for row in psi] == [[0, 1], [0, 1], [2]]
        assert [to_text(e) for _, e in psi[1]] == ["0.5*(1.0 + x1)", "0.0"]


class TestReferenceTrees:
    """``weighted_jacobian``, ``symmetrized_jacobian`` and ``qib``'s
    mixed-gradient norms are, tree for tree, the dense G-weighted Jacobian,
    its dense symmetrization and the gradient norms got by differentiating
    each G-weighted component by every state."""

    @staticmethod
    def _random_model(rng: random.Random) -> ModelDef:
        # Polynomials in the states and inputs, now and then of a single
        # state or a constant; a G with zero weights and, sometimes, a zero
        # column, whose component count may differ from the state count; or
        # no G and as many components as states.
        n, m = rng.randint(1, 4), rng.randint(0, 2)
        states = [f"x{i + 1}" for i in range(n)]
        inputs = [f"u{i + 1}" for i in range(m)]
        G = None if rng.random() < 0.25 else ()
        g = n if G is None else rng.randint(1, 5)
        f = []
        for _ in range(g):
            kind = rng.random()
            if kind < 0.1:
                f.append(Const(rng.choice([0.0, 2.5])))
            elif kind < 0.3:
                f.append(Binary(MUL, Const(rng.choice([1.0, -2.0, 0.5])), Var(rng.choice(states))))
            else:
                term = random_polynomial(rng, n, 3)
                if inputs:
                    product = Binary(MUL, Var(rng.choice(inputs)), Var(rng.choice(states)))
                    term = simplify(Binary(ADD, term, product))
                f.append(term)
        if G is not None:
            zero_column = rng.randrange(g) if rng.random() < 0.5 else -1
            G = tuple(
                tuple(
                    0.0 if k == zero_column else rng.choice([0.0, 0.0, 1.0, -1.0, 0.5, 2.0])
                    for k in range(g)
                )
                for _ in range(n)
            )
        return ModelDef(
            state_names=tuple(states), state_bounds=((-1, 1),) * n, f=tuple(f),
            input_names=tuple(inputs), input_bounds=((-0.5, 0.5),) * m, G=G,
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_weighted_jacobian_is_the_dense_xi(self, seed):
        m = self._random_model(random.Random(seed))
        reference = reference_xi(m)
        assert [[j for j, _ in row] for row in m.weighted_jacobian] == [
            [j for j, e in enumerate(row) if not is_zero(e)] for row in reference
        ]
        assert [keys(e for _, e in row) for row in m.weighted_jacobian] == [
            keys(e for e in row if not is_zero(e)) for row in reference
        ]

    @pytest.mark.parametrize("seed", range(40))
    def test_psi_is_the_dense_psi(self, seed):
        m = self._random_model(random.Random(seed))
        xi = reference_xi(m)
        half = Const(0.5)
        reference = [
            [simplify(Binary(MUL, half, Binary(ADD, xi[i][j], xi[j][i]))) for j in range(m.n)]
            for i in range(m.n)
        ]
        assert [keys(e for _, e in row) for row in m.symmetrized_jacobian] == [
            keys(e for j, e in enumerate(row) if j == i or not is_zero(e))
            for i, row in enumerate(reference)
        ]

    @pytest.mark.parametrize("seed", range(40))
    def test_qib_norms_are_those_of_the_mixed_components(self, monkeypatch, seed):
        m = self._random_model(random.Random(seed))
        asked = []
        original = params._maximize_expr
        monkeypatch.setattr(
            params, "_maximize_expr",
            lambda e, model, cfg, runs: asked.append(e) or original(Const(0.0), model, cfg, runs),
        )
        reference = reference_mixed_grad_sq_norms(m)
        # The Gershgorin bound asks one maximization per row first.
        qib(m, CFG, eps1=1.0, eps2=1.0, distributed=True)
        assert keys(asked[m.n:]) == keys(reference)
        asked.clear()
        qib(m, CFG, eps1=1.0, eps2=1.0)
        # One joint objective, ``0`` when every norm is: a constant is no run.
        joint = [e for e in reference if not is_zero(e)]
        assert keys(asked[m.n:]) == keys([simplified_sum(joint)])

    def test_psi_is_linear_in_the_nonzeros(self, monkeypatch):
        # Traffic s170: n = 1,021 states and a Jacobian with 2,041 nonzero
        # entries, of which psi makes 3,061.  A dense psi adds all n^2 =
        # 1,042,441 pairs.
        m = build_traffic(170)
        nonzeros = sum(map(len, m.weighted_jacobian))
        calls = [0]
        original = model_module.simplified_add

        def counted(left, right):
            calls[0] += 1
            return original(left, right)

        monkeypatch.setattr(model_module, "simplified_add", counted)
        monkeypatch.setattr(expr_module, "simplified_add", counted)
        psi = m.symmetrized_jacobian
        assert len(psi) == m.n == 1021
        assert calls[0] <= 2 * nonzeros + m.n


# ---------------------------------------------------------------------------
# One-sided Lipschitz
# ---------------------------------------------------------------------------


class TestOSL:
    def test_gershgorin_constant_matrix(self):
        m = small_model(
            ["2*x1 + x2", "x1 + 2*x2"], [("x1", -1, 1), ("x2", -1, 1)]
        )
        r = osl_gershgorin(m, CFG)
        assert r.gamma_s == pytest.approx(3.0, abs=1e-6)  # equals lambda_max here
        assert r.lower_gamma == pytest.approx(1.0, abs=1e-6)

    def test_zeta_constant_matrix(self):
        m = small_model(["x2", "x1"], [("x1", -1, 1), ("x2", -1, 1)])
        r = osl_zeta(m, CFG)
        assert r.gamma_s == pytest.approx(1.0, abs=1e-6)

    def test_frobenius_zero_map(self):
        m = small_model(["0*x1", "0*x2"], [("x1", -1, 1), ("x2", -1, 1)])
        r = osl_frobenius(m, CFG)
        assert r.gamma_s == 0.0 and r.eps_optimal
        assert r.stats.runs == 0  # its objective is the constant 0, which is no run

    def test_frobenius_negative_identity(self):
        m = small_model(["-x1", "-x2"], [("x1", -1, 1), ("x2", -1, 1)])
        r = osl_frobenius(m, CFG)
        assert r.gamma_s == pytest.approx(math.sqrt(2), abs=1e-6)

    def test_moving_object_gershgorin(self, moving_object):
        r = osl_gershgorin(moving_object, CFG_COARSE)
        assert -1e-4 <= r.gamma_s <= 1e-4
        assert r.lower_gamma == pytest.approx(-150.0, abs=1e-3)
        assert r.eps_optimal

    def test_row_circle_below_frobenius_on_corpus(
        self, moving_object_unit, traffic_s1
    ):
        for model in (moving_object_unit, traffic_s1):
            f = osl_frobenius(model, CFG_COARSE)
            g = osl_gershgorin(model, CFG_COARSE)
            assert f.gamma_s >= 0.0
            assert g.gamma_s <= f.gamma_s + 1e-9

    def test_zeta_ordering_two_state_model(self, moving_object_unit):
        # With two states the dimension factor is 1, so the row bound cannot
        # exceed the Frobenius bound here; for wider models the factor n-1
        # can push it above (no ordering is asserted there).
        f = osl_frobenius(moving_object_unit, CFG_COARSE)
        z = osl_zeta(moving_object_unit, CFG_COARSE)
        assert z.gamma_s <= f.gamma_s + 1e-9

    def test_zeta_on_traffic_sound_but_looser(self, traffic_s1):
        # The tied inner maximum makes the whole boundary face optimal, so
        # run coarse; the certified value must still dominate the sampled
        # extremal eigenvalue.
        cfg = BnBConfig(eps_h=5e-3, eps_om=1e-6, segments=1, max_steps=20000)
        z = osl_zeta(traffic_s1, cfg)
        sampled_hi, sampled_lo = osl_extremal_eigen_sampled(traffic_s1, count=300)
        assert z.gamma_s >= sampled_hi - 1e-9
        assert z.lower_gamma <= sampled_lo + 1e-9

    def test_zeta_constant_rows_fold_exactly(self):
        m = small_model(["x2", "x1"], [("x1", -1, 1), ("x2", -1, 1)])
        z, g = osl_zeta(m, CFG), osl_gershgorin(m, CFG)
        assert (z.gamma_s, z.lower_gamma, z.stats.evals) == (1.0, -1.0, 0)
        assert (z.gamma_s, z.lower_gamma) == (g.gamma_s, g.lower_gamma)

    def test_zeta_constant_rows_round_outward(self):
        # Rows 1 + 1.0*|0.1| and 1 - 1.0*|0.1|: neither sum is a float.
        m = small_model(["x1 + 0.1*x2", "0.1*x1 + x2"], [("x1", -1, 1), ("x2", -1, 1)])
        r = osl_zeta(m, CFG)
        exact_hi, exact_lo = 1 + Fraction(0.1), 1 - Fraction(0.1)
        assert r.stats.evals == 0
        assert Fraction(r.gamma_s) > exact_hi > Fraction(math.nextafter(r.gamma_s, 0.0))
        assert Fraction(r.lower_gamma) < exact_lo < Fraction(math.nextafter(r.lower_gamma, 2.0))
        # The witnesses lie on the other side of the exact rows.
        assert Fraction(r.gamma_s_witness) <= exact_hi
        assert Fraction(r.lower_gamma_witness) >= exact_lo
        assert (r.gamma_s_witness, r.lower_gamma_witness) == (
            math.nextafter(r.gamma_s, 0.0), math.nextafter(r.lower_gamma, 2.0)
        )

    def test_zeta_row_with_a_power_is_not_folded(self):
        # 1e200^2 has no float, so simplify leaves it a power, and the
        # fold gives up there: the row is left for evaluation to refuse.
        m = small_model(["1e200^2*x1", "x2"], [("x1", 0, 1), ("x2", 0, 1)])
        with pytest.raises(EvaluationError):
            osl_zeta(m, CFG)

    def test_abs_and_max_objectives_keep_their_evals(self, moving_object):
        # Every zeta and Gershgorin row has an abs of uncertified sign or a
        # max; their generalized gradients give first-order bounds (1,696
        # evaluations each with zero-order bounds only).
        cfg = BnBConfig()
        assert osl_zeta(moving_object, cfg).stats.evals == 310
        assert osl_gershgorin(moving_object, cfg).stats.evals == 310

    def test_zeta_rows_are_built_as_written(self):
        m = small_model(["x2", "x1"], [("x1", -1, 1), ("x2", -1, 1)])
        uppers, lowers = _zeta_row_exprs(m.symmetrized_jacobian, zeta(m.n))
        # The factor 1.0 and the 0.0 diagonal stay: each rounds as written.
        assert [to_text(e) for e in uppers] == ["1.0*abs(1.0) + 0.0"] * 2
        assert [to_text(e) for e in lowers] == ["-1.0*abs(1.0) + 0.0"] * 2

    def test_zeta_row_folds_max_over_nonzero_entries(self):
        m = small_model(["x2*x3", "x1", "x1"], [("x1", -1, 1), ("x2", -1, 1), ("x3", -1, 1)])
        uppers, _ = _zeta_row_exprs(m.symmetrized_jacobian, zeta(m.n))
        assert [to_text(e) for e in uppers] == [
            "2.0*max(abs(0.5*(x3 + 1.0)), abs(0.5*(x2 + 1.0))) + 0.0",
            "2.0*abs(0.5*(1.0 + x3)) + 0.0",  # psi_12 is 0
            "2.0*abs(0.5*(1.0 + x2)) + 0.0",
        ]

    def test_zeta_needs_two_states(self):
        m = small_model(["x1^2"], [("x1", -1, 1)])
        with pytest.raises(InvalidDimension):
            osl_zeta(m, CFG)


# ---------------------------------------------------------------------------
# QIB
# ---------------------------------------------------------------------------


class TestQIB:
    def test_assembly_identities(self, moving_object_unit):
        r = qib(moving_object_unit, CFG_COARSE, eps1=2.0, eps2=0.5)
        assert r.gamma_q2 == 0.5 - 2.0
        assert r.gamma_q1 == pytest.approx(
            2.0 * r.osl_upper - 0.5 * r.osl_lower + r.gamma_m
        )

    def test_zero_weights(self, moving_object_unit):
        r = qib(moving_object_unit, CFG_COARSE, eps1=0.0, eps2=0.0)
        assert r.gamma_q2 == 0.0
        assert r.gamma_q1 == pytest.approx(r.gamma_m)

    def test_negative_weights_rejected(self, moving_object_unit):
        with pytest.raises(PreconditionViolated):
            qib(moving_object_unit, CFG_COARSE, eps1=-1.0, eps2=0.0)

    @pytest.mark.parametrize("eps1, eps2", [(math.nan, 0.1), (0.1, math.nan)])
    def test_nan_weights_rejected(self, moving_object_unit, eps1, eps2):
        with pytest.raises(PreconditionViolated):
            qib(moving_object_unit, CFG_COARSE, eps1=eps1, eps2=eps2)

    @pytest.mark.parametrize("eps1, eps2", [(math.inf, 0.1), (0.1, math.inf)])
    def test_infinite_weights_rejected(self, moving_object_unit, eps1, eps2):
        with pytest.raises(PreconditionViolated):
            qib(moving_object_unit, CFG_COARSE, eps1=eps1, eps2=eps2)

    def test_distributed_at_least_joint(self, moving_object_unit):
        joint = qib(moving_object_unit, CFG_COARSE, eps1=0.0, eps2=0.0)
        split = qib(
            moving_object_unit, CFG_COARSE, eps1=0.0, eps2=0.0, distributed=True
        )
        assert split.gamma_m >= joint.gamma_m - 1e-9

    def test_moving_object_reference_values(self, moving_object):
        cfg = BnBConfig(eps_h=1e-4, eps_om=1e-8, segments=1)
        r = qib(moving_object, cfg, eps1=0.0, eps2=0.1)
        assert r.gamma_m == pytest.approx(25000.0, abs=0.1)
        assert r.osl_lower == pytest.approx(-150.0, abs=1e-3)
        assert r.gamma_q1 == pytest.approx(25015.0, abs=0.2)


class TestQIBEstimators:
    @pytest.mark.parametrize("estimator", ["frobenius", "gershgorin", "zeta"])
    def test_upper_source_selected(self, moving_object_unit, estimator):
        r = qib(moving_object_unit, CFG_COARSE, eps1=1.0, eps2=0.0,
                osl_estimator=estimator)
        assert r.gamma_q2 == -1.0
        # the lower bound always comes from the row-circle estimator
        assert r.osl_lower == pytest.approx(-6.0, abs=1e-3)
        assert r.gamma_q1 == pytest.approx(r.osl_upper - 0.0 + r.gamma_m)

    def test_unknown_estimator(self, moving_object_unit):
        with pytest.raises(ValueError):
            qib(moving_object_unit, CFG_COARSE, eps1=0.0, eps2=0.0,
                osl_estimator="power-iteration")


# ---------------------------------------------------------------------------
# QB
# ---------------------------------------------------------------------------


class TestQB:
    def test_scalar_square(self):
        m = small_model(["x1^2"], [("x1", -1, 1)])
        r = qb(m, CFG)
        assert r.diag[0] == pytest.approx(2.0, abs=1e-5)

    def test_moving_object_unit_box(self, moving_object_unit):
        r = qb(moving_object_unit, CFG_COARSE)
        assert r.diag[0] == pytest.approx(math.sqrt(40.0), abs=1e-3)
        assert r.diag[1] == pytest.approx(math.sqrt(40.0), abs=1e-3)

    def test_inputs_rejected(self):
        m = small_model(
            ["x1*u1"], [("x1", -1, 1)], inputs=(("u1", -1, 1),)
        )
        with pytest.raises(PreconditionViolated):
            qb(m, CFG)

    def test_nonvanishing_origin_rejected(self):
        m = small_model(["x1 + 1"], [("x1", -1, 1)])
        with pytest.raises(PreconditionViolated):
            qb(m, CFG)

    def test_origin_outside_domain_rejected(self):
        m = small_model(["x1^2 - 1"], [("x1", 1, 2)])
        with pytest.raises(PreconditionViolated, match=r"\(x1 in \[1, 2\]\)$"):
            qb(m, CFG)

    def test_origin_test_is_exact(self):
        # The first component whose enclosure at the origin is not [0, 0]
        # is named, with that enclosure.
        m = small_model(["x1", "x2 + 1e-13"], [("x1", -1, 1), ("x2", -1, 1)])
        with pytest.raises(PreconditionViolated, match=r"\(f2\(0\) in \[1e-13, 1e-13\]\)$"):
            qb(m, CFG)

    def test_a_zero_with_a_wider_enclosure_is_refused(self):
        # cos(0) - 1 is 0, but its enclosure at 0 is two ulps of 0 wide.
        m = small_model(["cos(x1) - 1"], [("x1", -1, 1)])
        with pytest.raises(PreconditionViolated, match=r"\[-5e-324, 5e-324\]"):
            qb(m, CFG)

    def test_sampled_inequality(self, moving_object_unit):
        r = qb(moving_object_unit, CFG_COARSE)
        rng = random.Random(12)
        for _ in range(500):
            x1, x2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
            f1 = -x1 * (x1**2 + x2**2)
            f2 = -x2 * (x1**2 + x2**2)
            lhs = f1 * f1 + f2 * f2
            rhs = (r.diag[0] * x1) ** 2 + (r.diag[1] * x2) ** 2
            assert lhs <= rhs + 1e-9


class TestLongSums:
    """QB columns and Gershgorin rows sum their terms in a loop, with
    ``simplify``'s rules applied to the simplified sum, and build the tree
    that ``simplify`` builds from the whole expression."""

    @staticmethod
    def _random_model(rng: random.Random) -> ModelDef:
        # Components that vanish at the origin: constant multiples of a
        # state (whose partials fold to constants, zeros among them) and
        # products of a state with a polynomial; a component leaves out its
        # own state now and then, so psi gets a zero diagonal.
        n = rng.randint(1, 4)
        names = [f"x{i + 1}" for i in range(n)]
        f = []
        for i in range(n):
            pool = [name for name in names if name != names[i] or n == 1 or rng.random() < 0.5]
            weight = Const(rng.choice([0.0, -0.0, 1.0, -2.0, 0.5]))
            term = Binary(MUL, weight, Var(rng.choice(pool)))
            if rng.random() < 0.7:
                product = Binary(MUL, Var(rng.choice(pool)), random_polynomial(rng, n, 2))
                term = Binary(ADD, term, product)
            f.append(term)
        G = None
        if rng.random() < 0.3:
            G = tuple(tuple(rng.choice([0.0, 1.0, 0.5, -1.0]) for _ in range(n)) for _ in range(n))
        return ModelDef(
            state_names=tuple(names), state_bounds=((-1, 1),) * n, f=tuple(f), G=G
        )

    @pytest.mark.parametrize("seed", range(30))
    def test_trees_are_those_of_simplify(self, monkeypatch, seed):
        # Compared by ``structural_key_with_vars``, so ``-0.0`` is not ``0.0``.
        m = self._random_model(random.Random(seed))
        psi = dense(m.symmetrized_jacobian, m.n)
        for i, rows in enumerate(zip(*_gershgorin_row_exprs(m.symmetrized_jacobian))):
            offdiag = [Unary(ABS, e) for j, e in enumerate(psi[i]) if j != i and not is_zero(e)]
            total = expr_sum(offdiag)
            expected = (psi[i][i], psi[i][i]) if total is None else (
                simplify(Binary(ADD, psi[i][i], total)), simplify(Binary(SUB, psi[i][i], total))
            )
            assert list(map(structural_key_with_vars, rows)) == list(
                map(structural_key_with_vars, expected)
            )
        asked = []
        original = params._maximize_expr
        monkeypatch.setattr(
            params, "_maximize_expr",
            lambda e, model, cfg, runs: asked.append(e) or original(Const(0.0), model, cfg, runs),
        )
        qb(m, CFG)
        columns = [
            [Unary(SQR, d) for row in m.state_jacobian for j, d in row if j == k]
            for k in range(m.n)
        ]
        scale = Const(float(m.n))
        # A column without terms asks for the constant ``0``, which is no run.
        expected = [
            simplify(Binary(MUL, scale, expr_sum(terms))) if terms else Const(0.0)
            for terms in columns
        ]
        assert list(map(structural_key_with_vars, asked)) == list(
            map(structural_key_with_vars, expected)
        )

    def test_gershgorin_row_of_a_thousand_entries(self):
        # Row 1 of this psi has 1,099 nonzero off-diagonal entries, summed
        # one rule at a time.
        n = 1100
        entries = [Binary(MUL, Const(0.5), Var(f"x{j + 1}")) for j in range(n)]
        psi = (tuple(enumerate(entries)),) + tuple(
            ((0, entries[i]), (i, ZERO)) for i in range(1, n)
        )
        uppers, lowers = _gershgorin_row_exprs(psi)
        for row, op in ((uppers[0], "+"), (lowers[0], "-")):
            assert isinstance(row, Binary) and (row.op, row.left) == (op, entries[0])
            total, spine = row.right, 0
            while isinstance(total, Binary) and total.op == "+":
                assert total.right == Unary(ABS, entries[n - 1 - spine])
                total, spine = total.left, spine + 1
            assert (total, spine) == (Unary(ABS, entries[1]), n - 2)
        # Every other row: a zero diagonal and one entry.
        assert uppers[7] == Unary(ABS, entries[7]) and lowers[7] == Unary("neg", Unary(ABS, entries[7]))


# ---------------------------------------------------------------------------
# One run per distinct search within a constant
# ---------------------------------------------------------------------------

COARSE = BnBConfig(eps_h=1e-3, segments=2)
LOOSE = BnBConfig(eps_h=10.0, eps_om=1e-3, segments=2)
REUSED = {
    "jacobian": jacobian_bounds,
    "qb": qb,
    "frobenius": osl_frobenius,
    "gershgorin": osl_gershgorin,
    "zeta": osl_zeta,
}


def _fields(result) -> dict:
    """Every field of a constant's result but its run statistics, by ``repr``."""
    return {name: repr(getattr(result, name)) for name in result.__slots__ if name != "stats"}


class TestRunReuse:
    @pytest.mark.parametrize(
        "model_name, cfg, constants",
        [
            ("traffic_s1", CFG_COARSE, ("jacobian", "qb", "frobenius", "gershgorin", "zeta")),
            ("traffic_s5", BnBConfig(), ("jacobian", "qb", "gershgorin")),
            ("moving_object_unit", COARSE, ("jacobian", "qb", "frobenius", "gershgorin", "zeta")),
            ("moving_object", BnBConfig(), ("jacobian", "qb")),
            ("generator", LOOSE, ("jacobian", "gershgorin", "zeta")),
        ],
    )
    def test_reuse_matches_fresh_runs(self, request, monkeypatch, model_name, cfg, constants):
        # Against a fresh search per call of ``_optimize_expr``: every field
        # equal by ``repr``, one run per distinct search, and the evals of
        # each distinct search's first run.
        model = request.getfixturevalue(model_name)
        reused = {name: REUSED[name](model, cfg) for name in constants}
        original = params._optimize_expr
        asked: list[tuple] = []

        def fresh(e, model, cfg, runs, *optimizers):
            results = original(e, model, cfg, {}, *optimizers)
            if not isinstance(e, Const):
                (search,) = searches(model, [e])
                asked.extend(zip(((opt, search) for opt in optimizers), results))
            return results

        monkeypatch.setattr(params, "_optimize_expr", fresh)
        for name in constants:
            asked.clear()
            alone = REUSED[name](model, cfg)
            assert _fields(reused[name]) == _fields(alone), name
            first = dict(reversed(asked))
            assert reused[name].stats.runs == len(first), name
            assert reused[name].stats.evals == sum(res.stats.evals for res in first.values())

    def test_traffic_jacobian_and_qb_reuse_their_runs(self, traffic_s5):
        # 61 nonzero entries and 31 QB columns, in 4 classes each.
        jb, q = jacobian_bounds(traffic_s5, CFG_COARSE), qb(traffic_s5, CFG_COARSE)
        assert (jb.stats.runs, q.stats.runs) == (8, 4)

    def test_a_search_walks_its_objective_once(self, monkeypatch, traffic_s5):
        # The key's walk gives the program too, its loads re-slotted, and
        # the key's variables give the reduced box: no ``free_vars`` walk.
        walked = []
        postfix = expr_module._postfix
        monkeypatch.setattr(
            expr_module, "_postfix", lambda e, slots: walked.append(e) or postfix(e, slots)
        )
        free_vars = expr_module.free_vars
        for module in (expr_module, model_module):
            monkeypatch.setattr(
                module, "free_vars", lambda e: walked.append(("free_vars", e)) or free_vars(e)
            )
        res = lipschitz_case1(traffic_s5, CFG_COARSE)
        assert res.stats.runs == 1 and walked == [lipschitz_objective(traffic_s5)]

    def test_a_repeated_search_compiles_nothing(self, monkeypatch, traffic_s5):
        # The memo is looked up before the program is built, and a miss
        # builds one program for the entry's max and min runs.
        built = []
        monkeypatch.setattr(params, "Program", lambda *args: built.append(args) or Program(*args))
        jb = jacobian_bounds(traffic_s5, CFG_COARSE)
        assert sum(map(len, traffic_s5.state_jacobian)) == 61
        assert (len(built), jb.stats.runs) == (4, 8)

    def test_a_lookup_hashes_no_config(self, monkeypatch, traffic_s5):
        # A memo serves one constant, so one config, which is no part of a
        # search's key: a lookup never hashes it.
        expected = jacobian_bounds(traffic_s5, CFG_COARSE)

        def refused(cfg):
            raise AssertionError("a BnBConfig was hashed")

        monkeypatch.setattr(BnBConfig, "__hash__", refused)
        jb = jacobian_bounds(traffic_s5, CFG_COARSE)
        assert _fields(jb) == _fields(expected) and jb.stats.runs == 8

    def test_signed_zero_constants_do_not_merge(self):
        # ``simplify`` drops a zero term or factor, but a ``max`` keeps it.
        m = small_model(["x1", "x2"], [("x1", -1, -0.5), ("x2", -1, -0.5)])
        runs: dict = {}
        pos = _maximize_expr(Binary(MAX, Var("x1"), Const(0.0)), m, CFG, runs)
        neg = _maximize_expr(Binary(MAX, Var("x2"), Const(-0.0)), m, CFG, runs)
        assert len(runs) == 2
        assert (repr(pos.upper), repr(neg.upper)) == ("0.0", "-0.0")

    def test_constants_one_ulp_apart_do_not_merge(self):
        # Each partial is c*x1 or c*x2 over [-1, 2]: one search per constant.
        bounds = [("x1", -1, 2), ("x2", -1, 2)]
        c, d = 3.0, math.nextafter(3.0, 4.0)
        apart = jacobian_bounds(small_model([f"{c!r}*x1*x2", f"{d!r}*x2*x1"], bounds), CFG)
        alike = jacobian_bounds(small_model([f"{c!r}*x1*x2", f"{c!r}*x2*x1"], bounds), CFG)
        assert (apart.stats.runs, alike.stats.runs) == (4, 2)
        assert jacobian_entry(apart, 1, 1)[1] < jacobian_entry(apart, 2, 2)[1]

    def test_signed_zero_bounds_do_not_merge(self):
        texts = ["sqr(x1)", "sqr(x2)"]
        apart = small_model(texts, [("x1", -0.0, 1), ("x2", 0.0, 1)])
        alike = small_model(texts, [("x1", -0.0, 1), ("x2", -0.0, 1)])
        jb = jacobian_bounds(apart, CFG)
        # Equal as floats, yet two searches.
        assert jacobian_entry(jb, 1, 1) == jacobian_entry(jb, 2, 2)
        assert (jb.stats.runs, jacobian_bounds(alike, CFG).stats.runs) == (4, 2)

    def test_maximize_and_minimize_do_not_merge(self):
        m = small_model(["x1*x2"], [("x1", -1, 2), ("x2", 0, 1)])
        e = Binary(MUL, Var("x1"), Var("x2"))
        runs: dict = {}
        hi, lo = params._optimize_expr(e, m, CFG, runs, maximize, minimize)
        assert len(runs) == 2 and lo.lower <= -1.0 < 2.0 <= hi.upper
        assert _maximize_expr(e, m, CFG, runs) is hi and _minimize_expr(e, m, CFG, runs) is lo
        assert len(runs) == 2


class TestConstantObjectives:
    """An objective without variables is no run: its result is its value
    rounded down and up, and ``eps_optimal`` says whether that gap is at
    most ``eps_h``."""

    MODEL = small_model(["x1"], [("x1", 0, 1)])

    def results(self, e, cfg=CFG):
        runs: dict = {}
        hi, lo = params._optimize_expr(e, self.MODEL, cfg, runs, maximize, minimize)
        assert runs == {} and hi.stats.evals == lo.stats.evals == 0
        assert (hi.lower, hi.upper, hi.eps_optimal) == (lo.lower, lo.upper, lo.eps_optimal)
        return hi

    def test_a_const_keeps_its_own_value(self):
        res = self.results(Const(-0.0))
        assert (repr(res.lower), repr(res.upper), res.eps_optimal) == ("-0.0", "-0.0", True)

    @pytest.mark.parametrize(
        "e, exact",
        [
            (Binary(ADD, Const(0.1), Const(0.7)), Fraction(0.1) + Fraction(0.7)),
            (Binary(MUL, Const(-1.0), Unary(ABS, Const(0.1))), -Fraction(0.1)),
            (Binary(MAX, Const(-1.0), Binary(SUB, Const(0.1), Const(-0.2))),
             Fraction(0.1) + Fraction(0.2)),
        ],
    )
    def test_an_exact_tree_rounds_outward(self, e, exact):
        res = self.results(e)
        assert Fraction(res.lower) <= exact <= Fraction(res.upper)
        assert res.upper == math.nextafter(res.lower, math.inf) or res.lower == res.upper

    def test_eps_optimal_is_the_gap_against_eps_h(self):
        # 0.1 * 0.1 is no float: the gap is one ulp, ~1.7e-18.
        inexact = Binary(MUL, Const(0.1), Const(0.1))
        assert self.results(inexact).eps_optimal
        tight = BnBConfig(eps_h=1e-300)
        assert not self.results(inexact, tight).eps_optimal
        assert self.results(Binary(MUL, Const(0.5), Const(0.5)), tight).eps_optimal

    def test_other_ops_take_the_kernel_enclosure(self):
        res = self.results(Unary("sqrt", Const(2.0)))
        assert Fraction(res.lower) ** 2 <= 2 <= Fraction(res.upper) ** 2

    @pytest.mark.parametrize(
        "e", [Binary("/", Const(1.0), Const(0.0)), Const(math.inf), Const(math.nan)]
    )
    def test_no_enclosure_is_an_evaluation_error(self, e):
        with pytest.raises(EvaluationError):
            params._optimize_expr(e, self.MODEL, CFG, {}, maximize)


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------


class TestAssemblyRounding:
    """Square roots and weighted sums after the optimizer round to the safe
    side: the constant's square is at least the certified maximum, the
    witness's square at most the achieved one.  The radicands here are
    exact (constant objectives), 3 and 6, whose nearest roots square to
    below them."""

    THREE = [("x1", -1, 1), ("x2", -1, 1), ("x3", -1, 1)]

    @pytest.mark.parametrize(
        "constant, texts, radicand",
        [
            (lambda m: lipschitz_case1(m, CFG).gamma, ["x1 + x2 + x3"], 3),
            (lambda m: lipschitz_case2(m, CFG).gamma, ["x1 + x2 + x3"] * 2, 6),
            (lambda m: osl_frobenius(m, CFG).gamma_s, ["-x1", "-x2", "-x3"], 3),
            (lambda m: qb(m, CFG).diag[0], ["x1", "x2", "x3"], 3),
        ],
        ids=["case1", "case2", "frobenius", "qb"],
    )
    def test_certified_side_rounds_up(self, constant, texts, radicand):
        value = constant(small_model(texts, self.THREE))
        assert Fraction(value) ** 2 >= radicand > Fraction(math.nextafter(value, 0.0)) ** 2
        assert value > math.sqrt(radicand)  # round-to-nearest is below the root

    @pytest.mark.parametrize("case", [lipschitz_case1, lipschitz_case2])
    def test_witness_side_rounds_down(self, case):
        r = case(small_model(["x1 + x2 + x3"], self.THREE), CFG)
        assert Fraction(r.lower) ** 2 <= 3 < Fraction(math.nextafter(r.lower, 9.0)) ** 2

    # Constant objectives: the rows' squared norms are 0.1 and 0.53, and
    # the OSL bounds 0.6 and -0.7; none of the sums below is a float.
    LINEAR = (["0.1*x1 + 0.3*x2", "0.7*x1 - 0.2*x2"], [("x1", -1, 1), ("x2", -1, 1)])

    def test_qib_gamma_q1_rounds_up(self):
        r = qib(small_model(*self.LINEAR), CFG, eps1=1.0, eps2=0.1)
        exact = (
            Fraction(r.osl_upper) - Fraction(0.1) * Fraction(r.osl_lower) + Fraction(r.gamma_m)
        )
        assert Fraction(r.gamma_q1) >= exact > Fraction(math.nextafter(r.gamma_q1, 0.0))
        assert r.gamma_q1 > 1.0 * r.osl_upper - 0.1 * r.osl_lower + r.gamma_m  # nearest is below

    def test_distributed_qib_sum_rounds_outward(self):
        m = small_model(*self.LINEAR)
        r = qib(m, CFG, eps1=0.0, eps2=0.0, distributed=True)
        runs = [_maximize_expr(e, m, CFG, {}) for e in reference_mixed_grad_sq_norms(m)]
        upper = sum(Fraction(res.upper) for res in runs)
        lower = sum(Fraction(res.lower) for res in runs)
        assert Fraction(r.gamma_m) >= upper > Fraction(math.nextafter(r.gamma_m, 0.0))
        assert Fraction(r.gamma_m_witness) <= lower
        assert lower < Fraction(math.nextafter(r.gamma_m_witness, 1.0))
        assert r.gamma_m > sum(res.upper for res in runs)  # nearest is below


class TestQIBToLipschitz:
    def test_simple(self):
        assert qib_to_lipschitz(2.0, 0.0) == pytest.approx(2.0)

    def test_round_trip_from_lipschitz(self):
        for gamma in (0.5, 1.0, 7.25):
            assert qib_to_lipschitz(gamma**2 / 2.0, 0.0) == pytest.approx(gamma)

    def test_infeasible_pair(self):
        with pytest.raises(NecessaryConditionViolated):
            qib_to_lipschitz(-1.0, 1.0)

    def test_rounds_up(self):
        value = qib_to_lipschitz(1.5, 0.0)  # the root of exactly 3
        assert Fraction(value) ** 2 >= 3 > Fraction(math.nextafter(value, 0.0)) ** 2
        assert value > math.sqrt(3.0)

    @pytest.mark.parametrize(
        "gamma_q1, gamma_q2", [(0.1, -0.3), (0.2, 1.0), (1.1, 0.1), (0.001, 0.01)]
    )
    def test_radicand_rounds_up_before_the_root(self, gamma_q1, gamma_q2):
        # Radicands that are no float; for all but the first, the nearest
        # float is so far below that its root, rounded up, is too small.
        n1, d1 = gamma_q1.as_integer_ratio()
        n2, d2 = gamma_q2.as_integer_ratio()
        n, d = qib_to_lipschitz(gamma_q1, gamma_q2).as_integer_ratio()
        # value^2 >= 2*gamma_q1 + gamma_q2^2, in integers
        assert n * n * d1 * d2 * d2 >= (2 * n1 * d2 * d2 + n2 * n2 * d1) * d * d
