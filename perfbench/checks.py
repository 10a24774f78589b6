"""Correctness checks on the JSON reports of ``certbound ... --format json``.

A job fails when its report is invalid, names the wrong input, has a row
whose certified side does not dominate its witness side, or misses a value
that is known from outside the program: the halton sampling baseline for a
Lipschitz constant, the exact traffic Lipschitz constant and the exact
maximum of the hyperbola objective on every seed, and the published
references at seed 0.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from workloads import Exact, Job

# Rows whose constant is a minimum: there the certified side is the lower one.
_REVERSED = ("gamma_lower",)


def parse_report(text: str) -> list[dict]:
    """The report as a list of dicts; raises ``ValueError`` when it does not
    have the shape of a certbound JSON report."""
    data = json.loads(text)
    if not isinstance(data, list) or not data:
        raise ValueError("report is not a non-empty JSON array")
    for rep in data:
        if not isinstance(rep, dict) or not {"command", "config", "model_fingerprint", "results"} <= rep.keys():
            raise ValueError("report object lacks command/config/model_fingerprint/results")
        rows = rep["results"]
        if not isinstance(rows, list) or not rows:
            raise ValueError("report has no result rows")
        for row in rows:
            if not isinstance(row, dict) or not isinstance(row.get("name"), str):
                raise ValueError(f"malformed row {row!r}")
            for key in ("value", "lower"):
                x = row.get(key)
                if key == "value" and x is None:
                    raise ValueError(f"row {row['name']} has no value")
                if x is not None and (not isinstance(x, (int, float)) or not math.isfinite(x)):
                    raise ValueError(f"row {row['name']}.{key} = {x!r}")
            if row.get("evals") is not None and not isinstance(row["evals"], int):
                raise ValueError(f"row {row['name']}.evals = {row['evals']!r}")
    return data


def rows_of(reports: list[dict]) -> list[dict]:
    return [row for rep in reports for row in rep["results"]]


def report_evals(reports: list[dict]) -> int:
    """Reported evaluations: rows of one report share their run statistics,
    so each report counts once."""
    return sum(max((row.get("evals") or 0) for row in rep["results"]) for rep in reports)


def rel_widths(reports: list[dict]) -> list[float]:
    """``|value - lower| / max(|value|, |lower|)`` for every row that carries
    both sides; 0 when both are 0."""
    out = []
    for row in rows_of(reports):
        if row.get("lower") is None:
            continue
        v, lo = row["value"], row["lower"]
        scale = max(abs(v), abs(lo))
        out.append(0.0 if scale == 0.0 else abs(v - lo) / scale)
    return out


def _ref_value(rows: list[dict], prefix: str, kind: str) -> float | None:
    chosen = [row for row in rows if row["name"].startswith(prefix)]
    if not chosen:
        return None
    if kind == "value":
        return chosen[0]["value"]
    if kind == "max_value":
        return max(row["value"] for row in chosen)
    if kind == "min_lower":
        return min(row["lower"] for row in chosen if row.get("lower") is not None)
    raise ValueError(f"unknown reference kind {kind!r}")


def _exact_problems(exact: Exact, rows: list[dict]) -> list[str]:
    power = 2 if exact.squared else 1
    problems = []
    for row in rows:
        if row["name"] != exact.row:
            continue
        value, lower = row["value"], row["lower"]
        if exact.squared:
            # The constant is the square root of a certified maximum,
            # rounded to nearest: it may sit half an ulp below the root.
            value = math.nextafter(value, math.inf)
        # The witness is a float evaluation of the objective, so it may
        # exceed the exact maximum by its own rounding.
        lower -= 4 * math.ulp(lower)
        if Fraction(value) ** power < exact.value or Fraction(lower) ** power > exact.value:
            target = math.sqrt(exact.value) if exact.squared else float(exact.value)
            problems.append(f"{exact.row} sandwich [{row['lower']!r}, {row['value']!r}] misses the exact {target!r}")
    return problems


def check_report(job: Job, text: str, baseline: float | None) -> list[str]:
    """Reasons why ``text`` is not a correct report for ``job``; empty when
    it is."""
    try:
        reports = parse_report(text)
    except ValueError as exc:
        return [f"invalid report: {exc}"]
    problems = []
    for rep in reports:
        if rep["model_fingerprint"] != job.fingerprint:
            problems.append(f"fingerprint {rep['model_fingerprint'][:12]} is not the input's")
    rows = rows_of(reports)
    names = {row["name"] for row in rows}
    for name in job.rows:
        if name not in names:
            problems.append(f"row {name} missing")
    for row in rows:
        v, lo = row["value"], row.get("lower")
        if lo is None:
            continue
        ok = v <= lo if row["name"] in _REVERSED else v >= lo
        if not ok:
            problems.append(f"{row['name']}: certified side {v!r} does not dominate witness {lo!r}")
    if job.lipschitz:
        for row in rows:
            if row["name"] not in ("gamma_l1", "gamma_l2"):
                continue
            if baseline is None:
                problems.append("halton baseline unavailable")
            elif row["value"] < baseline:
                problems.append(f"{row['name']} = {row['value']!r} below halton baseline {baseline!r}")
    if job.exact is not None:
        problems += _exact_problems(job.exact, rows)
    for ref in job.refs:
        got = _ref_value(rows, ref.prefix, ref.kind)
        if got is None or abs(got - ref.expected) > ref.tol:
            problems.append(f"{ref.prefix} {ref.kind} = {got!r}, reference {ref.expected} +- {ref.tol}")
    return problems
