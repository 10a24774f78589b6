"""Command-line interface.

Reports go to standard output in the chosen format; diagnostics go to
standard error only.  Exit codes: 0 success, 1 output that cannot be
written, 2 usage error, 3 model error, 4 computation error.

``run(argv)`` runs one command line and returns its exit code.  ``main()``
runs the process's own and then ends the process (see there), so Python
callers use ``run()``.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
from collections.abc import Callable, Sequence
from types import SimpleNamespace

from . import params
from .bnb import BnBConfig
from .errors import CertboundError, ParseError
from .expr import Program, parse_component
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
EXIT_OUTPUT = 1
EXIT_USAGE = 2
EXIT_MODEL = 3
EXIT_COMPUTE = 4


class _ModelError(CertboundError):
    pass


class _OutputError(Exception):
    """Standard output cannot take what a command writes: exit 1."""


def _write_out(text: str) -> None:
    """Write ``text`` to standard output.  Raises ``_OutputError`` if it is
    closed or the write fails."""
    if sys.stdout is None:
        raise _OutputError("standard output is closed")
    try:
        sys.stdout.write(text)
    except OSError as exc:
        raise _OutputError(exc) from exc


def _cannot_write(reason) -> int:
    """Say on standard error why the output was not written; exit 1."""
    print(f"certbound: cannot write output: {reason}", file=sys.stderr)
    return EXIT_OUTPUT


def _fingerprint(data: bytes) -> str:
    return _sha256(data).hexdigest()


@contextlib.contextmanager
def _model_errors(what: str):
    """Report a ``CertboundError`` or ``ValueError`` raised inside the block
    as a model error (exit 3) prefixed by ``what``."""
    try:
        yield
    except (CertboundError, ValueError) as exc:
        raise _ModelError(f"{what}: {exc}") from exc


def _intervals(text: str) -> tuple[tuple[float, float], ...]:
    """The ``(lo, hi)`` pairs written as ``[lo, hi]`` entries separated by ``;``."""
    return tuple(parse_interval(chunk) for chunk in text.split(";") if chunk.strip())


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
    # The echoed settings are those that ``BnBConfig`` accepts, whether or
    # not the command ran a search with them.
    cfg = _cfg(args)
    return RunReport(
        command=" ".join(args._argv),
        config={"eps_h": cfg.eps_h, "eps_om": cfg.eps_om, "segments": cfg.segments},
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
        for j, (lo, hi) in entries:
            fields = _stats_fields(r.eps_optimal, r.stats, hi - lo)
            rows.append(ConstantRow(f"df{i}/dx{j + 1}", hi, lower=lo, **fields))
    return [_report(args, fp, rows)]


def _bounds(text: str) -> dict[str, tuple[float, float]]:
    """The bounds written as ``name=[lo,hi]`` entries separated by ``;``."""
    bounds: dict[str, tuple[float, float]] = {}
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
    return bounds


def _cmd_maximize(args) -> list[RunReport]:
    bounds = _bounds(args.bounds)
    try:
        expression, used = parse_component(args.expr)
    except ParseError as exc:
        raise _ModelError(f"bad --expr: {exc}") from exc
    unknown = used - bounds.keys()
    if unknown:
        raise _ModelError(f"--bounds missing variables {sorted(unknown)}")
    # A model of one component whose states are the bounded variables: the
    # search runs over those the expression uses, and a constant is no run.
    model = ModelDef(tuple(bounds), tuple(bounds.values()), (expression,), component_vars=(used,))
    runs: params.Runs = {}
    res = params._maximize_expr(expression, model, _cfg(args), runs)
    fields = _stats_fields(res.eps_optimal, params.RunStats(runs.values()), res.gap)
    row = ConstantRow("max", res.upper, lower=res.lower, **fields)
    fp = _fingerprint(f"{args.expr}|{args.bounds}".encode())
    return [_report(args, fp, [row])]


def _cmd_baseline(args) -> list[RunReport]:
    from . import baselines

    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    _cfg(args)  # the report echoes the tolerances: check them before sampling
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
            model = models.build_traffic(s)
        fp = _fingerprint(model_to_text(model).encode())
        reports.append(_report(args, fp, [_lipschitz_row(args, model)], label=str(model.n)))
    return reports


def _built_model(args) -> ModelDef:
    from . import models

    if args.kind == "traffic":
        return models.build_traffic(args.sections)
    if args.kind == "moving-object":
        return models.build_moving_object(args.radius)
    if not args.state_bounds or not args.input_bounds:
        raise ValueError("generator needs --state-bounds and --input-bounds")
    alphas = ()
    if args.alphas:
        alphas = tuple(float(tok) for tok in args.alphas.split(","))
        if len(alphas) != 6:
            raise ValueError("--alphas needs six comma-separated values")
    return models.build_generator(
        _intervals(args.state_bounds), _intervals(args.input_bounds), *alphas
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
        _write_out(text)
    return EXIT_OK


class _Option:
    """One entry of a command's arguments: its ``--flag``, or the name of a
    positional; the function that reads its text, ``bool`` for a flag that
    takes none; its default; its choices; whether it must be given (then it
    has no default); its help.  The handlers read it as ``args.<dest>``."""

    __slots__ = ("flag", "read", "default", "choices", "required", "help", "dest")

    def __init__(
        self, flag: str, read: Callable = str, default=None, choices: tuple | None = None,
        required: bool = False, help: str = "",
    ) -> None:
        self.flag = flag
        self.read = read
        self.default = False if read is bool else default
        self.choices = choices
        self.required = required or not flag.startswith("-")
        self.help = help
        self.dest = flag.lstrip("-").replace("-", "_")

    def synopsis(self) -> str:
        if self.read is bool:
            return self.flag
        metavar = self.dest.upper()
        if self.choices is not None:
            metavar = "{" + ",".join(map(str, self.choices)) + "}"
        return f"{self.flag} {metavar}" if self.flag.startswith("-") else metavar


_DEFAULT = BnBConfig()
_COMMON = (
    _Option("--model", help="model definition file"),
    _Option("--eps-h", float, _DEFAULT.eps_h, help="objective gap tolerance"),
    _Option("--eps-om", float, _DEFAULT.eps_om, help="minimum splittable box width"),
    _Option("--segments", int, _DEFAULT.segments, help="slabs per interval bound evaluation"),
    _Option("--format", default="json", choices=("json", "csv", "text"), help="report format"),
    _Option("--no-timing", bool, help="omit wall times (byte-identical reports)"),
)
_CASE = _Option("--case", int, 1, (1, 2), help="1: one joint maximization, 2: one per component")
_ESTIMATOR = _Option(
    "--estimator", default="gershgorin", choices=tuple(params.OSL_ESTIMATORS), help="OSL bound"
)

# Each command's help, its arguments and its handler, in the order the help
# lists the commands.  All but ``make-model`` take the common arguments, and
# their handlers return the reports to print; ``make-model``'s returns the
# exit code.
_COMMANDS: dict[str, tuple[str, tuple[_Option, ...], Callable]] = {
    "lipschitz": ("certified Lipschitz constant", (_CASE, *_COMMON), _cmd_lipschitz),
    "osl": ("one-sided Lipschitz constant", (_ESTIMATOR, *_COMMON), _cmd_osl),
    "qib": (
        "quadratic inner-boundedness constants",
        (
            _Option("--eps1", float, required=True, help="weight of the OSL upper bound"),
            _Option("--eps2", float, required=True, help="weight of the OSL lower bound"),
            _ESTIMATOR,
            _Option("--distributed", bool, help="bound gamma_m by per-component maxima"),
            *_COMMON,
        ),
        _cmd_qib,
    ),
    "qb": ("quadratic-boundedness matrix", _COMMON, _cmd_qb),
    "jacobian": ("certified partial-derivative bounds", _COMMON, _cmd_jacobian),
    "maximize": (
        "certified maximum of an expression",
        (
            _Option("--expr", required=True, help="expression to maximize"),
            _Option("--bounds", required=True, help='e.g. "x=[0,1];y=[-1,2]"'),
            *_COMMON,
        ),
        _cmd_maximize,
    ),
    "baseline": (
        "point-sampled under-approximations",
        (
            _Option("--method", default="halton", choices=("halton", "corners"),
                    help="points to sample"),
            _Option("--count", int, 10000, help="number of points"),
            _Option("--objective", default="lipschitz", choices=("lipschitz", "jacobian-norm"),
                    help="function to sample"),
            *_COMMON,
        ),
        _cmd_baseline,
    ),
    "traffic-table": (
        "traffic-network regression rows",
        (_Option("--sections", required=True, help="comma-separated section counts"), _CASE,
         *_COMMON),
        _cmd_traffic_table,
    ),
    "make-model": (
        "emit a built-in model file",
        (
            _Option("kind", choices=("traffic", "moving-object", "generator"),
                    help="the model to build"),
            _Option("--sections", int, 5, help="traffic: number of sections"),
            _Option("--radius", float, 5.0, help="moving-object: radius"),
            _Option("--state-bounds", help='generator: "[lo,hi];..." x4'),
            _Option("--input-bounds", help='generator: "[lo,hi];..." x4'),
            _Option("--alphas", help="generator: six comma-separated constants"),
            _Option("--output", help="write to file instead of stdout"),
        ),
        _cmd_make_model,
    ),
}
_HELP_FLAGS = ("-h", "--help")


class _UsageError(Exception):
    """A command line that ``_COMMANDS`` does not accept: exit 2."""


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: certbound <command> [options]"
    required = [opt.synopsis() for opt in _COMMANDS[command][1] if opt.required]
    return " ".join(["usage: certbound", command, *required, "[options]"])


def _help(command: str | None) -> str:
    """The help of one command, from its entry in ``_COMMANDS``, or, for
    ``None``, the list of commands."""
    if command is None:
        about = "certified bounding constants for nonlinear dynamic systems"
        heading = "commands"
        entries = [(name, entry[0]) for name, entry in _COMMANDS.items()]
        footer = ["", 'Run "certbound <command> --help" for the options of a command.']
    else:
        about, options, _ = _COMMANDS[command]
        heading = "options"
        entries = [("-h, --help", "show this help and exit")]
        for opt in options:
            note = ""
            if opt.required:
                note = " (required)"
            elif opt.default is not None and opt.read is not bool:
                note = f" (default: {opt.default})"
            entries.append((opt.synopsis(), opt.help + note))
        footer = []
    lines = [_usage(command), "", about, "", f"{heading}:"]
    for left, text in entries:
        if len(left) > 24:
            lines.append(f"  {left}")
            left = ""
        lines.append(f"  {left:<24}  {text}")
    return "\n".join(lines + footer) + "\n"


def _value(opt: _Option, text: str):
    """The value of ``opt`` written as ``text``."""
    try:
        value = opt.read(text)
    except ValueError:
        raise _UsageError(
            f"argument {opt.flag}: invalid {opt.read.__name__} value: {text!r}"
        ) from None
    if opt.choices is not None and value not in opt.choices:
        choices = ", ".join(map(repr, opt.choices))
        raise _UsageError(f"argument {opt.flag}: invalid choice: {value!r} (choose from {choices})")
    return value


def _parse_args(argv: Sequence[str]):
    """The command and its arguments read from ``argv[1:]`` against its
    entry in ``_COMMANDS``, or ``None`` once help has been printed.

    An option takes its value as ``--flag value`` or ``--flag=value``, and
    the last of a repeated one wins.  A value may begin with ``-``, but a
    token that begins with ``--`` is always an option.  Raises
    ``_UsageError``."""
    if not argv:
        raise _UsageError("the following arguments are required: command")
    command = argv[0]
    if command in _HELP_FLAGS:
        _write_out(_help(None))
        return None
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise _UsageError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    options = _COMMANDS[command][1]
    by_flag = {opt.flag: opt for opt in options}
    positionals = [opt for opt in options if not opt.flag.startswith("-")]
    values = {opt.dest: opt.default for opt in options}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP_FLAGS:
            _write_out(_help(command))
            return None
        if token.startswith("--"):
            flag, eq, text = token.partition("=")
            opt = by_flag.get(flag)
            if opt is None:
                raise _UsageError(f"unrecognized arguments: {token}")
            if opt.read is bool:
                if eq:
                    raise _UsageError(f"argument {flag}: takes no value")
                values[opt.dest] = True
                continue
            if not eq:
                text = next(tokens, None)
                if text is None or text.startswith("--"):
                    raise _UsageError(f"argument {flag}: expected one argument")
        elif positionals:
            opt, text = positionals.pop(0), token
        else:
            raise _UsageError(f"unrecognized arguments: {token}")
        values[opt.dest] = _value(opt, text)
    missing = [opt.flag for opt in options if opt.required and values[opt.dest] is None]
    if missing:
        raise _UsageError("the following arguments are required: " + ", ".join(missing))
    return SimpleNamespace(command=command, _argv=list(argv), **values)


def run(argv: Sequence[str]) -> int:
    """Run the command line ``argv`` (without the program name) and return
    its exit code."""
    try:
        args = _parse_args(argv)
        if args is None:
            return EXIT_OK
        handle = _COMMANDS[args.command][2]
        if args.command == "make-model":
            return handle(args)
        reports = handle(args)
        for report in reports:
            report.validate()
            if args.no_timing:
                report.strip_timing()
        _write_out(emit_table(reports, args.format) + "\n")
        return EXIT_OK
    except _UsageError as exc:
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        prog = "certbound" if command is None else f"certbound {command}"
        sys.stderr.write(f"{_usage(command)}\n{prog}: error: {exc}\n")
        return EXIT_USAGE
    except _OutputError as exc:
        return _cannot_write(exc)
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
    """Run the process's command line, flush its output and end the process
    with the exit code through ``os._exit``: the interpreter's teardown
    (module cleanup, the last garbage collections, ``atexit`` handlers) has
    nothing left to do for a job and would take a few milliseconds.  Under
    development mode (``-X dev``) the process ends through ``sys.exit``, so
    a warning raised at shutdown still shows.  Python callers use
    ``run()``."""
    code = run(sys.argv[1:])
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if code != EXIT_OUTPUT:  # else ``run`` has said so for the write
            code = _cannot_write(exc)
        # What the failed write left buffered goes nowhere, so that the
        # interpreter's flush at shutdown cannot fail on it again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if sys.flags.dev_mode:
        sys.exit(code)
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
