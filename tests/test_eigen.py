"""Jacobi eigensolver and float-matrix eigenvalue upper bounds."""

import math
import random

import pytest

from certbound.eigen import induced_two_norm, jacobi_eigenvalues, lambda_max
from certbound.errors import DimensionMismatch
from conftest import gershgorin_upper, row_gap_upper


def random_symmetric(rng, n):
    a = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
    return [[0.5 * (a[i][j] + a[j][i]) for j in range(n)] for i in range(n)]


class TestJacobi:
    def test_known_2x2(self):
        eigs = jacobi_eigenvalues([[2.0, 1.0], [1.0, 2.0]])
        assert eigs[0] == pytest.approx(1.0, abs=1e-12)
        assert eigs[1] == pytest.approx(3.0, abs=1e-12)

    def test_diagonal(self):
        eigs = jacobi_eigenvalues([[3.0, 0.0], [0.0, -1.0]])
        assert eigs == pytest.approx([-1.0, 3.0])

    def test_trace_and_rayleigh(self):
        rng = random.Random(4)
        for _ in range(100):
            n = rng.randint(2, 6)
            a = random_symmetric(rng, n)
            eigs = jacobi_eigenvalues(a)
            assert sum(eigs) == pytest.approx(sum(a[i][i] for i in range(n)), abs=1e-9)
            for _ in range(5):
                v = [rng.uniform(-1, 1) for _ in range(n)]
                norm2 = sum(x * x for x in v)
                if norm2 < 1e-12:
                    continue
                quad = sum(v[i] * a[i][j] * v[j] for i in range(n) for j in range(n))
                rho = quad / norm2
                assert eigs[0] - 1e-9 <= rho <= eigs[-1] + 1e-9

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            jacobi_eigenvalues([[1.0, 2.0]])


class TestNorms:
    def test_nilpotent_shift(self):
        assert induced_two_norm([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(1.0)

    def test_rectangular(self):
        # row vector [3, 4]: largest singular value is 5
        assert induced_two_norm([[3.0, 4.0]]) == pytest.approx(5.0)

    def test_two_norm_below_frobenius(self):
        rng = random.Random(9)
        for _ in range(50):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            a = [[rng.uniform(-2, 2) for _ in range(cols)] for _ in range(rows)]
            frob = math.sqrt(sum(x * x for row in a for x in row))
            assert induced_two_norm(a) <= frob + 1e-9


class TestEigenBounds:
    def test_gershgorin_tight_case(self):
        assert gershgorin_upper([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(3.0)

    def test_row_gap_2x2(self):
        assert row_gap_upper([[0.0, 1.0], [1.0, 0.0]], zeta=1.0) == pytest.approx(1.0)

    def test_bounds_dominate_lambda_max(self):
        rng = random.Random(21)
        for _ in range(300):
            n = rng.randint(2, 8)
            a = random_symmetric(rng, n)
            top = lambda_max(a)
            assert gershgorin_upper(a) - top >= -1e-10
            assert row_gap_upper(a, zeta=float(n - 1)) - top >= -1e-10

    def test_lambda_min_consistent(self):
        rng = random.Random(22)
        for _ in range(50):
            a = random_symmetric(rng, 4)
            neg = [[-x for x in row] for row in a]
            assert jacobi_eigenvalues(a)[0] == pytest.approx(-lambda_max(neg), abs=1e-9)
