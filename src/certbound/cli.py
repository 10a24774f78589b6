"""Command-line interface.

Reports go to standard output in the chosen format; diagnostics go to
standard error only.  Exit codes: 0 success, 2 usage error, 3 model error,
4 computation error.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from typing import Callable, Sequence

from . import baselines, params
from .bnb import BnBConfig
from .errors import CertboundError, ParseError
from .expr import compile_expr, free_vars, parse, simplify
from .intervals import Box
from .model import ModelDef, load_model, model_to_text, reduced_domain
from .models import (
    GeneratorConfig,
    MovingObjectConfig,
    TrafficConfig,
    build_generator,
    build_moving_object,
    build_traffic,
)
from .report import ConstantRow, RunReport, emit_table

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MODEL = 3
EXIT_COMPUTE = 4


class _ModelError(CertboundError):
    pass


def _fingerprint(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _add_common(parser: argparse.ArgumentParser, needs_model: bool) -> None:
    parser.add_argument("--model", help="model definition file", default=None)
    parser.add_argument("--eps-h", type=float, default=1e-4, help="objective gap tolerance")
    parser.add_argument("--eps-om", type=float, default=1e-7, help="minimum splittable box width")
    parser.add_argument("--segments", type=int, default=10, help="slabs per interval bound evaluation")
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    parser.add_argument("--no-timing", action="store_true", help="omit wall times (byte-identical reports)")
    parser.set_defaults(_needs_model=needs_model)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="certbound",
        description="certified bounding constants for nonlinear dynamic systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lipschitz", help="certified Lipschitz constant")
    p.add_argument("--case", type=int, choices=(1, 2), default=1)
    _add_common(p, needs_model=True)

    p = sub.add_parser("osl", help="one-sided Lipschitz constant")
    p.add_argument(
        "--estimator", choices=("frobenius", "gershgorin", "zeta"), default="gershgorin"
    )
    _add_common(p, needs_model=True)

    p = sub.add_parser("qib", help="quadratic inner-boundedness constants")
    p.add_argument("--eps1", type=float, required=True)
    p.add_argument("--eps2", type=float, required=True)
    p.add_argument(
        "--estimator", choices=("frobenius", "gershgorin", "zeta"), default="gershgorin"
    )
    p.add_argument("--distributed", action="store_true")
    _add_common(p, needs_model=True)

    p = sub.add_parser("qb", help="quadratic-boundedness matrix")
    _add_common(p, needs_model=True)

    p = sub.add_parser("jacobian", help="certified partial-derivative bounds")
    _add_common(p, needs_model=True)

    p = sub.add_parser("maximize", help="certified maximum of an expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--bounds", required=True, help='e.g. "x=[0,1];y=[-1,2]"')
    _add_common(p, needs_model=False)

    p = sub.add_parser("baseline", help="point-sampled under-approximations")
    p.add_argument(
        "--method",
        choices=("halton", "corners", "midpoint", "multistart_local"),
        default="halton",
    )
    p.add_argument("--count", type=int, default=10000)
    p.add_argument(
        "--objective", choices=("lipschitz", "jacobian-norm"), default="lipschitz"
    )
    _add_common(p, needs_model=True)

    p = sub.add_parser("traffic-table", help="traffic-network regression rows")
    p.add_argument("--sections", required=True, help="comma-separated section counts")
    p.add_argument("--case", type=int, choices=(1, 2), default=1)
    _add_common(p, needs_model=False)

    p = sub.add_parser("make-model", help="emit a built-in model file")
    p.add_argument("kind", choices=("traffic", "moving-object", "generator"))
    p.add_argument("--sections", type=int, default=5)
    p.add_argument("--radius", type=float, default=5.0)
    p.add_argument("--state-bounds", default=None, help='generator: "[lo,hi];..." x4')
    p.add_argument("--input-bounds", default=None, help='generator: "[lo,hi];..." x4')
    p.add_argument(
        "--alphas", default=None, help="generator: six comma-separated constants"
    )
    p.add_argument("--output", default=None, help="write to file instead of stdout")
    p.set_defaults(_needs_model=False)

    return parser


def _parse_bounds_arg(text: str) -> list[tuple[str, float, float]]:
    out = []
    seen: set[str] = set()
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise _ModelError(f"bad bounds entry {chunk!r}; expected name=[lo,hi]")
        name, spec = chunk.split("=", 1)
        spec = spec.strip()
        if not (spec.startswith("[") and spec.endswith("]")):
            raise _ModelError(f"bad bounds entry {chunk!r}; expected name=[lo,hi]")
        parts = spec[1:-1].split(",")
        if len(parts) != 2:
            raise _ModelError(f"bad bounds entry {chunk!r}; expected two endpoints")
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise _ModelError(f"bad bounds entry {chunk!r}; {exc}") from exc
        name = name.strip()
        if name in seen:
            raise _ModelError(f"duplicate bounds for {name!r}")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise _ModelError(f"bad bounds entry {chunk!r}; endpoints must be finite")
        if lo > hi:
            raise _ModelError(f"bad bounds entry {chunk!r}; lower endpoint above upper")
        seen.add(name)
        out.append((name, lo, hi))
    if not out:
        raise _ModelError("empty bounds specification")
    return out


def _parse_interval_list(text: str, what: str) -> tuple[tuple[float, float], ...]:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("[") and chunk.endswith("]")):
            raise _ModelError(f"bad {what} entry {chunk!r}")
        parts = chunk[1:-1].split(",")
        if len(parts) != 2:
            raise _ModelError(f"bad {what} entry {chunk!r}")
        out.append((float(parts[0]), float(parts[1])))
    return tuple(out)


def _load_model(args) -> tuple[ModelDef, str]:
    if not args.model:
        raise _ModelError(f"{args.command} requires --model")
    try:
        with open(args.model, "rb") as fh:
            data = fh.read()
        model = load_model(args.model)
    except OSError as exc:
        raise _ModelError(f"cannot read model: {exc}") from exc
    except (CertboundError, ValueError) as exc:
        raise _ModelError(f"invalid model {args.model}: {exc}") from exc
    return model, _fingerprint(data)


def _cfg(args) -> BnBConfig:
    return BnBConfig(eps_h=args.eps_h, eps_om=args.eps_om, segments=args.segments)


def _config_echo(args) -> dict:
    return {
        "eps_h": args.eps_h,
        "eps_om": args.eps_om,
        "segments": args.segments,
    }


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _stats_fields(eps_optimal: bool, stats: params.RunStats, gap: float | None = None) -> dict:
    """The row fields that every constant computed by the same runs shares."""
    return dict(
        gap=gap,
        eps_optimal=eps_optimal,
        subproblems=stats.runs,
        evals=stats.evals,
        wall_time_ms=_ms(stats.wall_time),
    )


def _report(args, fingerprint: str, rows: list[ConstantRow], label: str = "") -> RunReport:
    return RunReport(
        command=" ".join(args._argv),
        config=_config_echo(args),
        model_fingerprint=fingerprint,
        results=rows,
        label=label,
    )


def _lipschitz_row(args, model: ModelDef) -> ConstantRow:
    fn = params.lipschitz_case1 if args.case == 1 else params.lipschitz_case2
    r = fn(model, _cfg(args))
    fields = _stats_fields(r.eps_optimal, r.stats, r.gap)
    return ConstantRow(f"gamma_l{args.case}", r.gamma, lower=r.lower, **fields)


def _cmd_lipschitz(args) -> list[RunReport]:
    model, fp = _load_model(args)
    return [_report(args, fp, [_lipschitz_row(args, model)])]


def _cmd_osl(args) -> list[RunReport]:
    model, fp = _load_model(args)
    estimator = {
        "frobenius": params.osl_frobenius,
        "gershgorin": params.osl_gershgorin,
        "zeta": params.osl_zeta,
    }[args.estimator]
    r = estimator(model, _cfg(args))
    shared = _stats_fields(r.eps_optimal, r.stats, r.gap)
    rows = [
        ConstantRow("gamma_s", r.gamma_s, lower=r.gamma_s_witness, **shared),
        ConstantRow("gamma_lower", r.lower_gamma, lower=r.lower_gamma_witness, **shared),
    ]
    return [_report(args, fp, rows)]


def _cmd_qib(args) -> list[RunReport]:
    model, fp = _load_model(args)
    r = params.qib(
        model,
        _cfg(args),
        eps1=args.eps1,
        eps2=args.eps2,
        osl_estimator=args.estimator,
        distributed=args.distributed,
    )
    shared = _stats_fields(r.eps_optimal, r.stats)
    rows = [
        ConstantRow("gamma_q1", r.gamma_q1, **shared),
        ConstantRow("gamma_q2", r.gamma_q2, **shared),
        ConstantRow("gamma_m", r.gamma_m, lower=r.gamma_m_witness, **shared),
        ConstantRow("osl_upper", r.osl_upper, **shared),
        ConstantRow("osl_lower", r.osl_lower, **shared),
    ]
    return [_report(args, fp, rows)]


def _cmd_qb(args) -> list[RunReport]:
    model, fp = _load_model(args)
    r = params.qb(model, _cfg(args))
    shared = _stats_fields(r.eps_optimal, r.stats)
    rows = [
        ConstantRow(f"Gamma_{j + 1}{j + 1}", value, lower=wit, **shared)
        for j, (value, wit) in enumerate(zip(r.diag, r.diag_witness))
    ]
    return [_report(args, fp, rows)]


def _cmd_jacobian(args) -> list[RunReport]:
    model, fp = _load_model(args)
    r = params.jacobian_bounds(model, _cfg(args))
    rows = []
    for i in range(1, model.g + 1):
        for j in range(1, model.n + 1):
            iv = r.entry(i, j)
            if iv.lo == 0.0 and iv.hi == 0.0:
                continue  # identically-zero derivative, no run
            fields = _stats_fields(r.eps_optimal, r.stats, iv.width)
            rows.append(ConstantRow(f"df{i}/dx{j}", iv.hi, lower=iv.lo, **fields))
    return [_report(args, fp, rows)]


def _cmd_maximize(args) -> list[RunReport]:
    bounds = _parse_bounds_arg(args.bounds)
    try:
        expression = simplify(parse(args.expr))
    except ParseError as exc:
        raise _ModelError(f"bad --expr: {exc}") from exc
    used = free_vars(expression)
    unknown = used - {name for name, _, _ in bounds}
    if unknown:
        raise _ModelError(f"--bounds missing variables {sorted(unknown)}")
    # Search only the variables the expression uses: an unused one would be
    # bisected without tightening anything.  A constant keeps the full box.
    domain = Box.from_bounds([b for b in bounds if b[0] in used] or bounds)
    stats = params.RunStats()
    res = stats.absorb(params._maximize_over(expression, domain, _cfg(args)))
    fields = _stats_fields(res.eps_optimal, stats, res.gap)
    row = ConstantRow("max", res.upper, lower=res.lower, **fields)
    fp = _fingerprint(f"{args.expr}|{args.bounds}".encode())
    return [_report(args, fp, [row])]


def _cmd_baseline(args) -> list[RunReport]:
    model, fp = _load_model(args)
    if args.objective == "jacobian-norm":
        rep = baselines.jacobian_norm_sampled(model, count=args.count)
        value = rep.best_value
    else:
        objective = params.lipschitz_objective(model)
        domain = reduced_domain(model, objective)
        program = compile_expr(objective, domain.labels)
        rep = baselines.sample_max(
            program.eval_point, domain, args.count, method=args.method
        )
        value = math.sqrt(max(rep.best_value, 0.0))
    row = ConstantRow(
        name=f"{args.objective}_{rep.method}",
        value=value,
        eps_optimal=False,
        evals=rep.samples,
    )
    return [_report(args, fp, [row])]


def _cmd_traffic_table(args) -> list[RunReport]:
    try:
        section_counts = [int(tok) for tok in args.sections.split(",") if tok.strip()]
    except ValueError as exc:
        raise _ModelError(f"bad --sections: {exc}") from exc
    if not section_counts:
        raise _ModelError("--sections is empty")
    reports = []
    for s in section_counts:
        model, _ = build_traffic(TrafficConfig(sections=s))
        fp = _fingerprint(model_to_text(model).encode())
        reports.append(_report(args, fp, [_lipschitz_row(args, model)], label=str(model.n)))
    return reports


def _cmd_make_model(args) -> int:
    if args.kind == "traffic":
        model, _ = build_traffic(TrafficConfig(sections=args.sections))
    elif args.kind == "moving-object":
        model = build_moving_object(MovingObjectConfig(r=args.radius))
    else:
        if not args.state_bounds or not args.input_bounds:
            raise _ModelError(
                "generator needs --state-bounds and --input-bounds"
            )
        alphas = (1.0,) * 6
        if args.alphas:
            alphas = tuple(float(tok) for tok in args.alphas.split(","))
            if len(alphas) != 6:
                raise _ModelError("--alphas needs six comma-separated values")
        model = build_generator(
            GeneratorConfig(
                alpha1=alphas[0],
                alpha3=alphas[1],
                alpha4=alphas[2],
                alpha6=alphas[3],
                alpha8=alphas[4],
                alpha10=alphas[5],
                state_bounds=_parse_interval_list(args.state_bounds, "state bound"),
                input_bounds=_parse_interval_list(args.input_bounds, "input bound"),
            )
        )
    text = model_to_text(model)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_HANDLERS: dict[str, Callable] = {
    "lipschitz": _cmd_lipschitz,
    "osl": _cmd_osl,
    "qib": _cmd_qib,
    "qb": _cmd_qb,
    "jacobian": _cmd_jacobian,
    "maximize": _cmd_maximize,
    "baseline": _cmd_baseline,
    "traffic-table": _cmd_traffic_table,
}


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    args._argv = list(argv)
    try:
        if args.command == "make-model":
            return _cmd_make_model(args)
        reports = _HANDLERS[args.command](args)
        for report in reports:
            report.validate()
            if args.no_timing:
                report.strip_timing()
        sys.stdout.write(emit_table(reports, args.format) + "\n")
        return EXIT_OK
    except _ModelError as exc:
        print(f"certbound: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except CertboundError as exc:
        print(f"certbound: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"certbound: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
