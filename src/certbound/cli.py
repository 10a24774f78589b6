"""Command-line interface.

Reports go to standard output in the chosen format; diagnostics go to
standard error only.  Exit codes: 0 success, 2 usage error, 3 model error,
4 computation error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import Callable, Sequence

from . import params
from .bnb import BnBConfig, maximize
from .errors import CertboundError, ParseError
from .expr import Program, parse_component
from .intervals import Box, Interval
from .model import ModelDef, model_to_text, parse_interval, parse_model_text, reduced_domain
from .report import ConstantRow, RunReport, emit_table

# Every CLI job is a fresh process that pays its imports, so a module that
# only some commands use (``baselines``, ``models``) is imported by those
# commands' handlers.  The fingerprint takes CPython's builtin SHA-256
# (``_sha2`` from 3.12, ``_sha256`` before): ``hashlib`` would load OpenSSL,
# about 3 ms of each job's start-up, to hash one small file.
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MODEL = 3
EXIT_COMPUTE = 4


class _ModelError(CertboundError):
    pass


def _fingerprint(data: bytes) -> str:
    return _sha256(data).hexdigest()


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", help="model definition file", default=None)
    parser.add_argument("--eps-h", type=float, default=1e-4, help="objective gap tolerance")
    parser.add_argument("--eps-om", type=float, default=1e-7, help="minimum splittable box width")
    parser.add_argument("--segments", type=int, default=10, help="slabs per interval bound evaluation")
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    parser.add_argument("--no-timing", action="store_true", help="omit wall times (byte-identical reports)")


def _lipschitz_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--case", type=int, choices=(1, 2), default=1)


def _osl_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--estimator", choices=params.OSL_ESTIMATORS, default="gershgorin")


def _qib_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps1", type=float, required=True)
    p.add_argument("--eps2", type=float, required=True)
    p.add_argument("--estimator", choices=params.OSL_ESTIMATORS, default="gershgorin")
    p.add_argument("--distributed", action="store_true")


def _maximize_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--expr", required=True)
    p.add_argument("--bounds", required=True, help='e.g. "x=[0,1];y=[-1,2]"')


def _baseline_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=("halton", "corners"), default="halton")
    p.add_argument("--count", type=int, default=10000)
    p.add_argument(
        "--objective", choices=("lipschitz", "jacobian-norm"), default="lipschitz"
    )


def _traffic_table_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sections", required=True, help="comma-separated section counts")
    p.add_argument("--case", type=int, choices=(1, 2), default=1)


def _make_model_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind", choices=("traffic", "moving-object", "generator"))
    p.add_argument("--sections", type=int, default=5)
    p.add_argument("--radius", type=float, default=5.0)
    p.add_argument("--state-bounds", default=None, help='generator: "[lo,hi];..." x4')
    p.add_argument("--input-bounds", default=None, help='generator: "[lo,hi];..." x4')
    p.add_argument(
        "--alphas", default=None, help="generator: six comma-separated constants"
    )
    p.add_argument("--output", default=None, help="write to file instead of stdout")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  When ``command`` names a command, only
    that command's subparser is built, which parses its arguments and
    prints its help and usage errors exactly as the full parser would;
    otherwise every command's is."""
    parser = argparse.ArgumentParser(
        prog="certbound",
        description="certified bounding constants for nonlinear dynamic systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    if command in _COMMANDS:
        # The top-level usage, which an unrecognized argument prints, still
        # lists every command.
        sub.metavar = "{" + ",".join(_COMMANDS) + "}"
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        if command in _COMMANDS and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        if add_arguments is not None:
            add_arguments(p)
        if name != "make-model":
            _add_common(p)
    return parser


@contextlib.contextmanager
def _model_errors(what: str):
    """Report a ``CertboundError`` or ``ValueError`` raised inside the block
    as a model error (exit 3) prefixed by ``what``."""
    try:
        yield
    except (CertboundError, ValueError) as exc:
        raise _ModelError(f"{what}: {exc}") from exc


def _intervals(text: str) -> tuple[tuple[float, float], ...]:
    """The endpoints of ``[lo, hi]`` entries separated by ``;``."""
    ivs = [parse_interval(chunk) for chunk in text.split(";") if chunk.strip()]
    return tuple((iv.lo, iv.hi) for iv in ivs)


def _load_model(args) -> tuple[ModelDef, str]:
    if not args.model:
        raise _ModelError(f"{args.command} requires --model")
    try:
        with open(args.model, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _ModelError(f"cannot read model: {exc}") from exc
    # The model is parsed from the bytes that are fingerprinted: a file
    # replaced after this read cannot lend the report its fingerprint.
    with _model_errors(f"invalid model {args.model}"):
        model = parse_model_text(data.decode("utf-8-sig"))
    return model, _fingerprint(data)


def _cfg(args) -> BnBConfig:
    return BnBConfig(eps_h=args.eps_h, eps_om=args.eps_om, segments=args.segments)


def _stats_fields(eps_optimal: bool, stats: params.RunStats, gap: float | None = None) -> dict:
    """The row fields that every constant computed by the same runs shares."""
    return dict(
        gap=gap,
        eps_optimal=eps_optimal,
        subproblems=stats.runs,
        evals=stats.evals,
        wall_time_ms=stats.wall_time * 1000.0,
    )


def _report(args, fingerprint: str, rows: list[ConstantRow], label: str = "") -> RunReport:
    return RunReport(
        command=" ".join(args._argv),
        config={"eps_h": args.eps_h, "eps_om": args.eps_om, "segments": args.segments},
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
    r = params.OSL_ESTIMATORS[args.estimator](model, _cfg(args))
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
    # One row per entry of the sparse Jacobian; an identically-zero
    # derivative has no entry and no run.
    for i, entries in enumerate(r.entries, start=1):
        for j, iv in entries:
            fields = _stats_fields(r.eps_optimal, r.stats, iv.width)
            rows.append(ConstantRow(f"df{i}/dx{j + 1}", iv.hi, lower=iv.lo, **fields))
    return [_report(args, fp, rows)]


def _bounds_box(text: str) -> Box:
    """The box written as ``name=[lo,hi]`` entries separated by ``;``."""
    bounds: dict[str, Interval] = {}
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        name, _, spec = chunk.partition("=")
        name = name.strip()
        if not name.isidentifier():
            raise _ModelError(f"bad bounds entry {chunk!r}: {name!r} is not a variable name")
        if name in bounds:
            raise _ModelError(f"duplicate bounds for {name!r}")
        with _model_errors(f"bad bounds entry {chunk!r}"):
            bounds[name] = parse_interval(spec)
    if not bounds:
        raise _ModelError("empty bounds specification")
    return Box([(iv.lo, iv.hi) for iv in bounds.values()], tuple(bounds))


def _cmd_maximize(args) -> list[RunReport]:
    box = _bounds_box(args.bounds)
    try:
        expression, used = parse_component(args.expr)
    except ParseError as exc:
        raise _ModelError(f"bad --expr: {exc}") from exc
    unknown = used - set(box.labels)
    if unknown:
        raise _ModelError(f"--bounds missing variables {sorted(unknown)}")
    # Search only the variables the expression uses: an unused one would be
    # bisected without tightening anything.  A constant keeps the full box.
    domain = box.restrict(used)
    program = Program(expression, domain.labels)
    res = maximize(program.eval_point, program, domain, _cfg(args))
    fields = _stats_fields(res.eps_optimal, params.RunStats([res]), res.gap)
    row = ConstantRow("max", res.upper, lower=res.lower, **fields)
    fp = _fingerprint(f"{args.expr}|{args.bounds}".encode())
    return [_report(args, fp, [row])]


def _cmd_baseline(args) -> list[RunReport]:
    from . import baselines

    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    model, fp = _load_model(args)
    if args.objective == "jacobian-norm":
        rep = baselines.jacobian_norm_sampled(model, count=args.count, method=args.method)
        value = rep.best_value
    else:
        objective = params.lipschitz_objective(model)
        domain = reduced_domain(model, objective)
        program = Program(objective, domain.labels)
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
    from . import models

    with _model_errors("bad --sections"):
        section_counts = [int(tok) for tok in args.sections.split(",") if tok.strip()]
    if not section_counts:
        raise _ModelError("--sections is empty")
    reports = []
    for s in section_counts:
        with _model_errors("invalid model parameters"):
            model, _ = models.build_traffic(models.TrafficConfig(sections=s))
        fp = _fingerprint(model_to_text(model).encode())
        reports.append(_report(args, fp, [_lipschitz_row(args, model)], label=str(model.n)))
    return reports


def _built_model(args) -> ModelDef:
    from . import models

    if args.kind == "traffic":
        return models.build_traffic(models.TrafficConfig(sections=args.sections))[0]
    if args.kind == "moving-object":
        return models.build_moving_object(models.MovingObjectConfig(r=args.radius))
    if not args.state_bounds or not args.input_bounds:
        raise ValueError("generator needs --state-bounds and --input-bounds")
    alphas = (1.0,) * 6
    if args.alphas:
        alphas = tuple(float(tok) for tok in args.alphas.split(","))
        if len(alphas) != 6:
            raise ValueError("--alphas needs six comma-separated values")
    return models.build_generator(
        models.GeneratorConfig(
            alpha1=alphas[0],
            alpha3=alphas[1],
            alpha4=alphas[2],
            alpha6=alphas[3],
            alpha8=alphas[4],
            alpha10=alphas[5],
            state_bounds=_intervals(args.state_bounds),
            input_bounds=_intervals(args.input_bounds),
        )
    )


def _cmd_make_model(args) -> int:
    with _model_errors("invalid model parameters"):
        model = _built_model(args)
    text = model_to_text(model)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _ModelError(f"cannot write model: {exc}") from exc
    else:
        sys.stdout.write(text)
    return EXIT_OK


# Each command's help, the arguments of its own and its handler, in the
# order the usage lists the commands.  All but ``make-model`` take the
# common arguments too, and their handlers return the reports to print;
# ``make-model``'s returns the exit code.
_COMMANDS: dict[str, tuple[str, Callable | None, Callable]] = {
    "lipschitz": ("certified Lipschitz constant", _lipschitz_arguments, _cmd_lipschitz),
    "osl": ("one-sided Lipschitz constant", _osl_arguments, _cmd_osl),
    "qib": ("quadratic inner-boundedness constants", _qib_arguments, _cmd_qib),
    "qb": ("quadratic-boundedness matrix", None, _cmd_qb),
    "jacobian": ("certified partial-derivative bounds", None, _cmd_jacobian),
    "maximize": ("certified maximum of an expression", _maximize_arguments, _cmd_maximize),
    "baseline": ("point-sampled under-approximations", _baseline_arguments, _cmd_baseline),
    "traffic-table": (
        "traffic-network regression rows", _traffic_table_arguments, _cmd_traffic_table
    ),
    "make-model": ("emit a built-in model file", _make_model_arguments, _cmd_make_model),
}


def run(argv: Sequence[str]) -> int:
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    args._argv = list(argv)
    try:
        handle = _COMMANDS[args.command][2]
        if args.command == "make-model":
            return handle(args)
        reports = handle(args)
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
