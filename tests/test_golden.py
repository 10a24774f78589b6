"""Golden results: the ``results`` rows of ``--no-timing`` CLI runs on the
small fixture models must stay bit-identical to ``golden_results.json``.

A refactor must not move a certified number or an evaluation count.  When a
change is meant to move them, regenerate the data and say so in the change:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_results.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from certbound.cli import run

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_results.json")

# Fixture models, written with ``make-model`` into a scratch directory.
MODELS = {
    "traffic1": ["make-model", "traffic", "--sections", "1"],
    "moving1": ["make-model", "moving-object", "--radius", "1.0"],
    "generator": [
        "make-model", "generator",
        "--state-bounds", "[-0.6,2.2];[-1.0,1.0];[0.2,1.1];[-0.4,0.9]",
        "--input-bounds", "[0.0,1.0];[0.0,1.0];[-1.5,2.0];[-1.0,1.6]",
        "--alphas", "0.3,1.2,0.7,0.15,2.1,1.4",
    ],
}

COARSE = ["--eps-h", "1e-3", "--segments", "2"]
LOOSE = ["--eps-h", "10", "--eps-om", "1e-3", "--segments", "2"]

# Case name -> argv; "{name}" stands for the path of fixture model ``name``.
CASES = {
    "lipschitz-case1": ["lipschitz", "--case", "1", "--model", "{traffic1}", *COARSE],
    "lipschitz-case2": ["lipschitz", "--case", "2", "--model", "{traffic1}", *COARSE],
    "traffic-table-case2": ["traffic-table", "--sections", "1", "--case", "2", *COARSE],
    "jacobian": ["jacobian", "--model", "{moving1}", *COARSE],
    "qb": ["qb", "--model", "{moving1}", *COARSE],
    "osl-frobenius": ["osl", "--estimator", "frobenius", "--model", "{moving1}", *COARSE],
    "osl-gershgorin": ["osl", "--estimator", "gershgorin", "--model", "{moving1}", *COARSE],
    "osl-zeta": ["osl", "--estimator", "zeta", "--model", "{moving1}", *COARSE],
    "osl-gershgorin-generator": ["osl", "--estimator", "gershgorin", "--model", "{generator}", *LOOSE],
    "osl-zeta-generator": ["osl", "--estimator", "zeta", "--model", "{generator}", *LOOSE],
    "qib-joint": ["qib", "--eps1", "1", "--eps2", "0.1", "--model", "{moving1}", *COARSE],
    "qib-distributed": [
        "qib", "--eps1", "1", "--eps2", "0.1", "--estimator", "zeta", "--distributed",
        "--model", "{moving1}", *COARSE,
    ],
    "maximize": [
        "maximize", "--expr", "x*y - x*x*y*y", "--bounds", "x=[0,2];y=[0,2]",
        "--segments", "1", "--eps-h", "2e-2",
    ],
    "baseline-lipschitz": ["baseline", "--count", "200", "--model", "{traffic1}"],
    "baseline-jacobian-norm": [
        "baseline", "--objective", "jacobian-norm", "--count", "200", "--model", "{moving1}",
    ],
}


def write_models(directory: str) -> dict[str, str]:
    paths = {}
    for name, argv in MODELS.items():
        path = os.path.join(directory, f"{name}.nds")
        if run(argv + ["--output", path]) != 0:
            raise RuntimeError(f"make-model failed for {name}")
        paths[name] = path
    return paths


def result_rows(argv: list[str], paths: dict[str, str]) -> list[dict]:
    """The ``results`` rows of every report of one ``--no-timing`` JSON run."""
    argv = [arg.format(**paths) for arg in argv] + ["--format", "json", "--no-timing"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {' '.join(argv)}")
    return [report["results"] for report in json.loads(out.getvalue())]


@pytest.fixture(scope="module")
def model_paths(tmp_path_factory):
    return write_models(str(tmp_path_factory.mktemp("golden")))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_results_match_golden(case, model_paths, golden):
    assert result_rows(CASES[case], model_paths) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_models(tmp)
        data = {case: result_rows(argv, paths) for case, argv in CASES.items()}
    json.dump(data, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
