"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracer.py`` patches functions, methods and a property of the
program by name.  Deleting or renaming one of them breaks the traced
benchmark pass; this test catches that in the tier-1 run, in well under a
second, by installing the tracer around one small ``maximize``.
"""

import importlib.util
import json
import pathlib

from certbound import bnb, cli, intervals

TRACER_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_counts_every_evaluation(capsys):
    tracer_module = _load_tracer()
    original = intervals.refined_eval
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        code = cli.run([
            "maximize", "--expr", "x*y - sqr(x)*y + 3*x", "--bounds", "x=[0,1];y=[-1,2]",
            "--segments", "4", "--no-timing",
        ])
    finally:
        tracer.unpatch()
    assert code == 0
    (report,) = json.loads(capsys.readouterr().out)
    (row,) = report["results"]
    metrics = tracer_module.layer_metrics(tracer)
    assert metrics["bnb.evals"] == metrics["intervals.refined_eval_calls"] == row["evals"] > 0
    assert intervals.refined_eval is original and bnb.refined_eval is original
