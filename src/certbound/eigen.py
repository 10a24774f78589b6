"""Dense symmetric eigenvalues via cyclic Jacobi rotations.

Small matrices only (system dimensions, not discretizations); used for the
sampled induced-2-norm baseline and as the reference solver when checking
eigenvalue upper bounds.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import DimensionMismatch

MatrixLike = Sequence[Sequence[float]]

_TOL = 1e-14  # off-diagonal mass, relative to the matrix scale, that ends the sweeps
_MAX_SWEEPS = 100


def _check_square(a: MatrixLike) -> int:
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("matrix is not square")
    return n


def jacobi_eigenvalues(a: MatrixLike) -> list[float]:
    """Eigenvalues of a symmetric matrix, ascending.

    Cyclic-by-row Jacobi: zero each off-diagonal entry in turn with a Givens
    rotation until the off-diagonal Frobenius mass falls below ``_TOL`` times
    the matrix scale, or after ``_MAX_SWEEPS`` sweeps.
    """
    n = _check_square(a)
    m = [list(map(float, row)) for row in a]
    scale = max(1.0, max(abs(x) for row in m for x in row))
    for _ in range(_MAX_SWEEPS):
        off = math.sqrt(sum(m[i][j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off <= _TOL * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p][q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (m[q][q] - m[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp = m[k][p]
                    akq = m[k][q]
                    m[k][p] = c * akp - s * akq
                    m[k][q] = s * akp + c * akq
                for k in range(n):
                    apk = m[p][k]
                    aqk = m[q][k]
                    m[p][k] = c * apk - s * aqk
                    m[q][k] = s * apk + c * aqk
    return sorted(m[i][i] for i in range(n))


def lambda_max(a: MatrixLike) -> float:
    return jacobi_eigenvalues(a)[-1]


def induced_two_norm(a: MatrixLike) -> float:
    """Largest singular value of a (possibly rectangular) matrix, via the
    symmetric eigenproblem on A*A^T."""
    rows = len(a)
    if rows == 0:
        raise DimensionMismatch("empty matrix")
    gram = [
        [sum(ra[k] * rb[k] for k in range(len(a[0]))) for rb in a] for ra in a
    ]
    top = lambda_max(gram)
    return math.sqrt(max(top, 0.0))

