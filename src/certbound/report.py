"""Machine-readable run reports.

One :class:`RunReport` per CLI invocation (or per table row), holding the
echoed command, the solver configuration, a content fingerprint of the model
and one :class:`ConstantRow` per reported quantity.  JSON serialization
round-trips losslessly; CSV and text renderings use fixed formatting (four
decimals for constants, two-digit scientific for gaps) so repeated runs are
byte-identical.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import CertboundError

# Strings are quoted by the C function that ``json`` itself uses; a CLI job
# does not import ``json`` (~2 ms), whose encoder is pure Python with an
# indent.  Without ``_json``, ``json.encoder`` gives its Python version.
try:
    from _json import encode_basestring_ascii as _quote
except ImportError:
    from json.encoder import encode_basestring_ascii as _quote


class ReportFieldError(CertboundError):
    """A report field is NaN or infinite; the run must abort instead."""


class ConstantRow:
    """One certified (or sampled) quantity.

    ``value`` is the reported constant: the certified safe side of the
    sandwich for optimization-backed quantities.  ``lower`` is the achieved
    point-witness side (may be absent for assembled or sampled quantities);
    ``gap`` is the width of the underlying sandwich.
    """

    __slots__ = (
        "name", "value", "lower", "gap", "eps_optimal", "subproblems", "evals", "wall_time_ms",
    )

    def __init__(
        self, name: str, value: float, lower: float | None = None, gap: float | None = None,
        eps_optimal: bool | None = None, subproblems: int | None = None,
        evals: int | None = None, wall_time_ms: float | None = None,
    ) -> None:
        self.name = name
        self.value = value
        self.lower = lower
        self.gap = gap
        self.eps_optimal = eps_optimal
        self.subproblems = subproblems
        self.evals = evals
        self.wall_time_ms = wall_time_ms


class RunReport:
    __slots__ = ("command", "config", "model_fingerprint", "results", "label")

    def __init__(
        self, command: str, config: dict, model_fingerprint: str, results: list[ConstantRow],
        label: str = "",
    ) -> None:
        self.command = command
        self.config = config
        self.model_fingerprint = model_fingerprint
        self.results = results
        self.label = label

    def validate(self) -> None:
        for row in self.results:
            for name in ("value", "lower", "gap", "wall_time_ms"):
                x = getattr(row, name)
                if x is not None and not math.isfinite(x):
                    raise ReportFieldError(
                        f"report field {row.name}.{name} is {x!r}"
                    )

    def strip_timing(self) -> None:
        for row in self.results:
            row.wall_time_ms = None

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self.__slots__}
        out["results"] = [
            {name: getattr(row, name) for name in row.__slots__} for row in self.results
        ]
        return out


def _encode(x, pad: str) -> str:
    """``x``, a report field, written at indent ``pad`` as ``json.dumps(x,
    indent=2, sort_keys=True)`` writes it: dicts, lists, strings, ints,
    finite floats, bools and ``None``."""
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ReportFieldError(f"report field is {x!r}")
        return float.__repr__(x)
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, str):
        return _quote(x)
    inner = pad + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = [f"{inner}{_quote(k)}: {_encode(x[k], inner)}" for k in sorted(x)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(x, list):
        if not x:
            return "[]"
        return "[\n" + ",\n".join(inner + _encode(v, inner) for v in x) + f"\n{pad}]"
    raise TypeError(f"report field of type {type(x).__name__} is not JSON")


def to_json(reports: Sequence[RunReport]) -> str:
    """Always an array, one object per report, keys sorted, two-space
    indent: the text of ``json.dumps(payload, indent=2, sort_keys=True)``."""
    return _encode([r.to_dict() for r in reports], "")


def _fmt_value(x: float | None) -> str:
    return "" if x is None else f"{x:.4f}"


def _fmt_gap(x: float | None) -> str:
    return "" if x is None else f"{x:.2e}"


def _fmt_flag(x: bool | None) -> str:
    return "" if x is None else ("true" if x else "false")


def _fmt_time(x: float | None) -> str:
    return "" if x is None else f"{x:.1f}"


_COLUMNS = ("n", "name", "value", "lower", "gap", "eps_optimal", "wall_time_ms")


def _table_cells(reports: Sequence[RunReport]) -> list[tuple[str, ...]]:
    cells = []
    for report in reports:
        for row in report.results:
            cells.append(
                (
                    report.label,
                    row.name,
                    _fmt_value(row.value),
                    _fmt_value(row.lower),
                    _fmt_gap(row.gap),
                    _fmt_flag(row.eps_optimal),
                    _fmt_time(row.wall_time_ms),
                )
            )
    return cells


def emit_table(reports: Sequence[RunReport], fmt: str) -> str:
    """Render reports as ``json`` (lossless), ``csv`` or aligned ``text``."""
    if fmt == "json":
        return to_json(reports)
    rows = _table_cells(reports)
    if fmt == "csv":
        lines = [",".join(_COLUMNS)]
        lines += [",".join(row) for row in rows]
        return "\n".join(lines)
    if fmt == "text":
        widths = [
            max(len(_COLUMNS[k]), max((len(r[k]) for r in rows), default=0))
            for k in range(len(_COLUMNS))
        ]
        header = "  ".join(c.ljust(w) for c, w in zip(_COLUMNS, widths))
        lines = [header, "  ".join("-" * w for w in widths)]
        lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows]
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}")
