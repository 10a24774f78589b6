"""Point-based under-approximation baselines.

These samplers find good feasible points, never certificates: every value
they report is a lower bound on the true maximum, so a certified upper bound
from the optimizer must always dominate them.

Everything here is deterministic: fixed quasi-random sequences, no
wall-clock seeding.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence

from .eigen import induced_two_norm
from .errors import DomainError
from .expr import Program
from .intervals import Box, Frozen, slot_setters
from .model import ModelDef

PointFn = Callable[[Sequence[float]], float]


class SampleReport(Frozen):
    __slots__ = ("best_value", "best_point", "samples", "method")

    def __init__(
        self, best_value: float, best_point: tuple[float, ...], samples: int, method: str
    ) -> None:
        _set_best_value(self, best_value)
        _set_best_point(self, best_point)
        _set_samples(self, samples)
        _set_method(self, method)


_set_best_value, _set_best_point, _set_samples, _set_method = slot_setters(SampleReport)


def _primes(count: int) -> list[int]:
    out: list[int] = []
    candidate = 2
    while len(out) < count:
        if all(candidate % p for p in out if p * p <= candidate):
            out.append(candidate)
        candidate += 1
    return out


def _radical_inverse(index: int, base: int) -> float:
    value = 0.0
    scale = 1.0 / base
    while index:
        index, digit = divmod(index, base)
        value += digit * scale
        scale /= base
    return value


def halton(dim: int, count: int) -> Iterator[tuple[float, ...]]:
    """First ``count`` points of the Halton sequence in the unit cube,
    radical inverses in the first ``dim`` prime bases, starting at index 1."""
    if dim < 1:
        raise DomainError(f"dimension must be >= 1, got {dim}")
    bases = _primes(dim)
    for index in range(1, count + 1):
        yield tuple(_radical_inverse(index, b) for b in bases)


def _map_into(box: Box, unit: Sequence[float]) -> tuple[float, ...]:
    return tuple(lo + (hi - lo) * u for (lo, hi), u in zip(box.pairs, unit))


def halton_points_in_box(box: Box, count: int) -> Iterator[tuple[float, ...]]:
    for unit in halton(len(box), count):
        yield _map_into(box, unit)


def _corner_points(box: Box, count: int) -> Iterator[tuple[float, ...]]:
    """The first ``count`` vertices of ``box``, in mask order: bit ``k`` of
    the mask picks the upper end of dimension ``k``."""
    for mask in range(min(2 ** len(box), count)):
        yield tuple(hi if (mask >> k) & 1 else lo for k, (lo, hi) in enumerate(box.pairs))


def sample_max(
    h: PointFn, domain: Box, count: int, method: str = "halton"
) -> SampleReport:
    """Best objective value over a deterministic point set.

    Methods: ``halton`` (the first ``count`` points of the quasi-random
    sequence) and ``corners`` (the first ``count`` vertices, see
    ``_corner_points``).
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if method == "halton":
        points = halton_points_in_box(domain, count)
    elif method == "corners":
        points = _corner_points(domain, count)
    else:
        raise DomainError(f"unknown sampling method {method!r}")
    best = -math.inf
    best_point = domain.midpoint()
    seen = 0
    for point in points:
        value = h(point)
        seen += 1
        if value > best:
            best, best_point = value, point
    return SampleReport(best, best_point, seen, method)


def jacobian_norm_sampled(
    model: ModelDef, domain: Box | None = None, count: int = 1000, method: str = "halton"
) -> SampleReport:
    """Maximum sampled induced 2-norm of the state Jacobian: the classical
    point-sampled reference estimate of the Lipschitz constant.  Not
    certified; it under-approximates whenever the sample misses the true
    maximizer.  An entry absent from ``model.state_jacobian`` is 0.0 and
    has no program."""
    if domain is None:
        domain = model.omega()
    rows = [
        [(j, Program(d, domain.labels)) for j, d in partials]
        for partials in model.state_jacobian
    ]

    def norm(point: Sequence[float]) -> float:
        matrix = [[0.0] * model.n for _ in rows]
        for values, row in zip(matrix, rows):
            for j, program in row:
                values[j] = program.eval_point(point)
        return induced_two_norm(matrix)

    return sample_max(norm, domain, count, method)
