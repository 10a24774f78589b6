"""In-process traced run of a job list, for the per-layer metrics.

Run as ``python perfbench/tracer.py SPEC OUT SPANS`` with ``src`` on
``PYTHONPATH``.  SPEC is a JSON file ``{"jobs": [argv, ...], "traced_first":
bool}``.  The worker times ``import certbound.cli``, then runs the job list
twice through ``certbound.cli.run(argv)``: once plain and once with wrappers
installed around the public functions of each module.  It writes the
reports, the two wall times and the per-layer metrics to OUT, and every span
of the traced pass to SPANS (tab-separated: id, name, start, end, parent,
thread; times in seconds from the start of the pass, parent -1 for none).

Wrappers are installed from this file only; nothing in the program changes.
Each wrapped function is patched under every name it is looked up by in the
``certbound`` modules, so ``certbound.params.maximize`` is wrapped as well as
``certbound.bnb.maximize``.  A recursive function makes a span at its
outermost call only.  Spans opened on a worker thread of the thread pool with
no span open on that thread are children of the innermost span open on the
main thread: the one that submitted them and waits for them.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import sys
import threading
import time
from array import array
from collections import defaultdict

_now = time.perf_counter


class _ThreadState:
    __slots__ = ("slot", "stack", "active", "sliced", "counters")

    def __init__(self, slot: int):
        self.slot = slot
        self.stack: list[int] = []  # open span ids, innermost last
        self.active: dict[str, int] = defaultdict(int)  # recursion depth per name
        self.sliced: int | None = None  # dimension refined_eval is slicing
        self.counters: dict[str, int] = defaultdict(int)


class Tracer:
    """Spans kept in memory (name, start, end, parent, thread) plus counters
    kept per thread, so that pool threads never race on a shared total."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._main = self._state()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.thread = array("i")
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
            return state

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, state: _ThreadState, nid: int) -> int:
        stack = state.stack
        if stack:
            parent = stack[-1]
        else:
            main = self._main.stack
            parent = main[-1] if main and state is not self._main else -1
        with self._lock:
            sid = len(self.start)
            self.span_name.append(nid)
            self.parent.append(parent)
            self.thread.append(state.slot)
            self.end.append(0.0)
            self.start.append(_now())
        stack.append(sid)
        return sid

    def close(self, state: _ThreadState, sid: int) -> None:
        self.end[sid] = _now()
        state.stack.pop()

    def span(self, name: str, fn, recursive: bool = False, after=None):
        """``fn`` wrapped in a span named ``name``; ``after(state, args,
        result)`` runs when the outermost call returns."""
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            state = self._state()
            if recursive:
                depth = state.active
                if depth[name]:
                    return fn(*args, **kwargs)
                depth[name] += 1
            sid = self.open(state, nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(state, sid)
                if recursive:
                    depth[name] -= 1
            if after is not None:
                after(state, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self._state().counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def counters(self) -> dict[str, int]:
        """Counters summed over threads; those named ``*_max`` take the
        maximum instead."""
        total: dict[str, int] = defaultdict(int)
        for state in self._states:
            for key, value in state.counters.items():
                total[key] = max(total[key], value) if key.endswith("_max") else total[key] + value
        return total

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``.  For a module-level
        function, every ``certbound`` module global bound to the same object
        is replaced too."""
        original = getattr(owner, attr)
        wrapped = make(original)
        targets = [owner]
        if isinstance(owner, type(sys)):
            targets = [
                mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == "certbound" or name.startswith("certbound."))
            ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._undo.append((target, key, value))
                    setattr(target, key, wrapped)
                elif isinstance(value, dict):
                    # Dispatch tables such as params._OSL_ESTIMATORS.
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append((value, k, v))
                            value[k] = wrapped

    def unpatch(self) -> None:
        for target, key, value in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._undo.clear()

    # -- self time -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.
        Children on pool threads may overlap each other, so the covered time
        is the length of the union of their intervals."""
        n = len(self.start)
        children: dict[int, list[int]] = defaultdict(list)
        for sid in range(n):
            parent = self.parent[sid]
            if parent >= 0:
                children[parent].append(sid)
        out = [self.end[sid] - self.start[sid] for sid in range(n)]
        for parent, kids in children.items():
            kids.sort(key=self.start.__getitem__)
            covered = 0.0
            run_start = run_end = -math.inf
            for kid in kids:
                s, e = self.start[kid], self.end[kid]
                if s > run_end:
                    covered += run_end - run_start if run_end > run_start else 0.0
                    run_start, run_end = s, e
                elif e > run_end:
                    run_end = e
            if run_end > run_start:
                covered += run_end - run_start
            out[parent] -= covered
        return out

    def write_spans(self, path: str, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tthread\n")
            names = self.names
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid}\t{names[self.span_name[sid]]}\t{self.start[sid] - origin:.9f}\t"
                    f"{self.end[sid] - origin:.9f}\t{self.parent[sid]}\t{self.thread[sid]}\n"
                )


# ---------------------------------------------------------------------------
# What is wrapped, and the metrics made from it
# ---------------------------------------------------------------------------

_COVER_METHODS = ("add", "remove", "prune", "peek_max_hi", "peek_max_lo", "peek_max_lo_splittable")


def _ops_by_slot(program) -> list[int]:
    """For each variable slot of ``program``, how many of its ops depend on
    that variable.  Every node of the expression tree compiles to one op."""
    from certbound.expr import Binary, PowInt, Unary, Var

    slot = {name: i for i, name in enumerate(program.var_order)}
    counts = [0] * len(slot)
    deps: dict[int, frozenset[int]] = {}
    stack = [(program.expr, False)]
    while stack:
        node, done = stack.pop()
        if isinstance(node, Binary):
            kids = (node.left, node.right)
        elif isinstance(node, Unary):
            kids = (node.arg,)
        elif isinstance(node, PowInt):
            kids = (node.base,)
        else:
            kids = ()
        if not done:
            stack.append((node, True))
            stack.extend((kid, False) for kid in kids)
            continue
        if isinstance(node, Var):
            mine = frozenset((slot[node.name],))
        else:
            mine = frozenset().union(*(deps[id(kid)] for kid in kids))
        deps[id(node)] = mine
        for k in mine:
            counts[k] += 1
    return counts


def install(tracer: Tracer) -> None:
    import certbound.bnb as bnb
    import certbound.expr as expr
    import certbound.intervals as intervals
    import certbound.model as model
    import certbound.params as params
    import certbound.report as report

    t = tracer
    for name in ("load_model", "grad_sq_norm", "reduced_domain"):
        t.patch(model, name, lambda fn, name=name: t.span(f"model.{name}", fn))
    t.patch(expr, "differentiate", lambda fn: t.span("expr.differentiate", fn))
    t.patch(expr, "simplify", lambda fn: t.span("expr.simplify", fn, recursive=True))
    for name in ("structural_key", "structural_key_with_vars"):
        t.patch(expr, name, lambda fn: t.span("expr.structural_key", fn))

    def compiled(state, args, result):
        state.counters["expr.program_ops"] += len(args[0].code)

    t.patch(expr.Program, "__init__", lambda fn: t.span("expr.compile", fn, after=compiled))

    deps_cache: dict[int, tuple[object, list[int]]] = {}

    def eval_interval_counts(fn):
        def counting(self, dims, *rest, **kw):
            state = t._state()
            ops = len(self.code)
            c = state.counters
            c["expr.interval_ops"] += ops
            if state.sliced is not None:
                entry = deps_cache.get(id(self))
                if entry is None or entry[0] is not self:
                    entry = deps_cache[id(self)] = (self, _ops_by_slot(self))
                counts = entry[1]
                if state.sliced < len(counts):
                    c["expr.sliced_ops"] += ops
                    c["expr.slab_invariant_ops"] += ops - counts[state.sliced]
            return fn(self, dims, *rest, **kw)

        return t.span("expr.eval_interval", counting)

    t.patch(expr.Program, "eval_interval", eval_interval_counts)
    t.patch(expr.Program, "eval_point", lambda fn: t.span("expr.eval_point", fn))

    def refined_with_slice(fn):
        def slicing(hI, box, segments, *rest, **kw):
            state = t._state()
            outer = state.sliced
            dim = box.widest_dim()
            state.sliced = dim if segments > 1 and box.dims[dim].width > 0.0 else None
            try:
                return fn(hI, box, segments, *rest, **kw)
            finally:
                state.sliced = outer

        return t.span("intervals.refined_eval", slicing)

    t.patch(intervals, "refined_eval", refined_with_slice)
    for name in ("iv_sin", "iv_cos"):
        t.patch(intervals, name, lambda fn: t.span("intervals.trig", fn, recursive=True))
    t.patch(intervals.Box, "split", lambda fn: t.counted("intervals.box_split_calls", fn))

    for name in _COVER_METHODS:
        t.patch(bnb.Cover, name, lambda fn: t.span("bnb.cover", fn))
    subproblems = bnb.Cover.subproblems.fget
    t.patch(bnb.Cover, "subproblems", lambda prop: property(t.span("bnb.cover", prop.fget)))

    def maximize_counts(fn):
        def counting(h, hI, domain, cfg, *rest, **kw):
            state = t._state()
            best = [-math.inf]

            def h_counted(xs):
                value = h(xs)
                c = state.counters
                c["bnb.point_evals"] += 1
                if value > best[0]:
                    best[0] = value
                    c["bnb.lower_improves"] += 1
                return value

            result = fn(h_counted, hI, domain, cfg, *rest, **kw)
            c = state.counters
            c["bnb.splits"] += result.stats.splits
            c["bnb.evals"] += result.stats.evals
            size = len(subproblems(result.final_cover))
            c["bnb.final_cover_max"] = max(c["bnb.final_cover_max"], size)
            return result

        return t.span("bnb.maximize", counting)

    t.patch(bnb, "maximize", maximize_counts)

    params_depth = [0]

    def params_span(name, fn):
        inner = t.span(f"params.{name}", fn)

        def outermost(*args, **kwargs):
            params_depth[0] += 1
            try:
                result = inner(*args, **kwargs)
            finally:
                params_depth[0] -= 1
            stats = getattr(result, "stats", None)
            if params_depth[0] == 0 and stats is not None:
                t._state().counters["params.subproblems"] += stats.runs
            return result

        return outermost

    public = [
        name for name, fn in vars(params).items()
        if inspect.isfunction(fn) and fn.__module__ == params.__name__ and not name.startswith("_")
    ]
    for name in public:
        t.patch(params, name, lambda fn, name=name: params_span(name, fn))

    def emitted(state, args, result):
        state.counters["report.rows"] += sum(len(rep.results) for rep in args[0])

    t.patch(report, "emit_table", lambda fn: t.span("report.emit", fn, after=emitted))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of one traced pass."""
    total = defaultdict(float)
    calls = defaultdict(int)
    self_total = defaultdict(float)
    self_times = tracer.self_times()
    for sid in range(len(tracer.start)):
        name = tracer.names[tracer.span_name[sid]]
        total[name] += tracer.end[sid] - tracer.start[sid]
        calls[name] += 1
        group = "params" if name.startswith("params.") else name
        self_total[group] += self_times[sid]
    c = tracer.counters()
    point_evals = c["bnb.point_evals"]
    sliced = c["expr.sliced_ops"]
    return {
        "cli.run_s": total["cli.run"],
        "model.load_s": total["model.load_model"],
        "model.grad_sq_norm_s": total["model.grad_sq_norm"],
        "model.reduced_domain_s": total["model.reduced_domain"],
        "expr.differentiate_s": total["expr.differentiate"],
        "expr.differentiate_calls": calls["expr.differentiate"],
        "expr.simplify_s": total["expr.simplify"],
        "expr.structural_key_s": total["expr.structural_key"],
        "expr.compile_s": total["expr.compile"],
        "expr.compile_calls": calls["expr.compile"],
        "expr.program_ops": c["expr.program_ops"],
        "expr.eval_interval_s": total["expr.eval_interval"],
        "expr.eval_interval_calls": calls["expr.eval_interval"],
        "expr.interval_ops": c["expr.interval_ops"],
        "expr.slab_invariant_op_share": c["expr.slab_invariant_ops"] / sliced if sliced else 0.0,
        "expr.eval_point_s": total["expr.eval_point"],
        "expr.eval_point_calls": calls["expr.eval_point"],
        "intervals.refined_eval_s": total["intervals.refined_eval"],
        "intervals.refined_eval_calls": calls["intervals.refined_eval"],
        "intervals.trig_s": total["intervals.trig"],
        "intervals.trig_calls": calls["intervals.trig"],
        "intervals.box_split_calls": c["intervals.box_split_calls"],
        "bnb.maximize_s": total["bnb.maximize"],
        "bnb.self_s": self_total["bnb.maximize"],
        "bnb.cover_s": total["bnb.cover"],
        "bnb.cover_calls": calls["bnb.cover"],
        "bnb.runs": calls["bnb.maximize"],
        "bnb.splits": c["bnb.splits"],
        "bnb.evals": c["bnb.evals"],
        "bnb.final_cover_max": c["bnb.final_cover_max"],
        "bnb.lower_improve_share": c["bnb.lower_improves"] / point_evals if point_evals else 0.0,
        "params.self_s": self_total["params"],
        "params.subproblems": c["params.subproblems"],
        "report.emit_s": total["report.emit"],
        "report.rows": c["report.rows"],
    }


def _run_jobs(run, jobs: list[list[str]], tracer: Tracer | None):
    """Run every job through ``run(argv)``; return wall time, exit codes and
    captured reports."""
    codes, outputs = [], []
    start = _now()
    for argv in jobs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = run(argv)
            else:
                code = tracer.span("cli.run", run)(argv)
        codes.append(code)
        outputs.append(buf.getvalue())
    return _now() - start, codes, outputs


def main(spec_path: str, out_path: str, spans_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    start = _now()
    import certbound.cli as cli

    import_s = _now() - start
    jobs = spec["jobs"]
    passes = {}
    for traced in ((True, False) if spec["traced_first"] else (False, True)):
        if traced:
            tracer = Tracer()
            install(tracer)
            origin = _now()
            wall, codes, outputs = _run_jobs(cli.run, jobs, tracer)
            tracer.unpatch()
            metrics = layer_metrics(tracer)
            tracer.write_spans(spans_path, origin)
        else:
            wall, codes, outputs = _run_jobs(cli.run, jobs, None)
        passes["traced" if traced else "plain"] = {"wall_s": wall, "codes": codes, "outputs": outputs}
    metrics["cli.import_s"] = import_s
    plain = passes["plain"]["wall_s"]
    metrics["trace.overhead_share"] = passes["traced"]["wall_s"] / plain - 1.0
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "passes": passes}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
