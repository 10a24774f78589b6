"""The value classes: immutable where they always were, equal exactly when
their fields are, and with the reprs, messages and dicts that callers see.
Also: no CLI run imports ``dataclasses`` or ``inspect``, which would add
to every job's start-up."""

import copy
import pathlib
import pickle
import subprocess
import sys

import pytest

from certbound import BnBConfig, ModelDef
from certbound.baselines import SampleReport
from certbound.bnb import Subproblem
from certbound.errors import DegenerateSplit
from certbound.expr import (
    ABS, ADD, MUL, NEG, SQR, Binary, Const, PowInt, Unary, Var, parse_component, simplify,
)
from certbound.intervals import Box, Interval
from certbound.report import ConstantRow, RunReport
from conftest import make_box

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

X, Y = Var("x"), Var("y")
BOX = make_box([("x", 0.0, 1.0), ("y", -2.0, 2.0)])

FROZEN = [
    (Interval(0.0, 1.0), "lo"),
    (BOX, "pairs"),
    (Subproblem(BOX, 0.0, 1.0, 0, 4.0, 1), "hi_bound"),
    (BnBConfig(), "segments"),
    (Const(1.0), "value"),
    (X, "name"),
    (Unary(NEG, X), "arg"),
    (Binary(ADD, X, Y), "op"),
    (PowInt(X, 3), "exponent"),
    (ModelDef(("x",), ((0.0, 1.0),), (X,)), "f"),
    (SampleReport(1.0, (0.5,), 3, "halton"), "best_value"),
]


@pytest.mark.parametrize("value, name", FROZEN, ids=lambda v: type(v).__name__)
def test_frozen_classes_refuse_assignment(value, name):
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    assert getattr(value, name) is before


@pytest.mark.parametrize("value, name", FROZEN, ids=lambda v: type(v).__name__)
def test_frozen_classes_refuse_deletion(value, name):
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) is before


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize("value, name", FROZEN, ids=lambda v: type(v).__name__)
def test_frozen_classes_copy_and_pickle(value, name, clone):
    other = clone(value)
    assert type(other) is type(value) and other == value
    assert getattr(other, name) == getattr(value, name)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
def test_a_node_copies_as_itself(clone):
    # A node is immutable, so a copy of a deep tree is the tree itself, and
    # copying it, or a model that holds it, does not recurse down the tree.
    e = parse_component("+".join(["x*y"] * 2000))[0]
    assert clone(e) is e
    model = ModelDef(("x", "y"), ((0.0, 1.0),) * 2, (e,))
    other = clone(model)
    assert other == model and other.f[0] is e


def test_mutable_report_pickles():
    report = RunReport("qb", {"eps_h": 1e-4}, "ab", [ConstantRow("d1", 2.0, gap=0.5)], "s1")
    assert pickle.loads(pickle.dumps(report)).to_dict() == report.to_dict()


EQUALITY = [
    (Interval(0.0, 1.0), Interval(0.0, 1.0), True),
    (Interval(-0.0, 1.0), Interval(0.0, 1.0), True),
    (Interval(0.0, 1.0), Interval(0.0, 2.0), False),
    (Interval(0.0, 1.0), (0.0, 1.0), False),
    (BOX, make_box([("x", 0.0, 1.0), ("y", -2.0, 2.0)]), True),
    (BOX, Box(BOX.pairs, ("x", "z")), False),
    (BOX, Box((BOX.pairs[0], (-2.0, 1.0)), BOX.labels), False),
    (Const(0.0), Const(-0.0), True),
    (Const(1.0), Const(2.0), False),
    (Const(1.0), Var("x"), False),
    (Var("x"), X, True),
    (Var("x"), Y, False),
    (Unary(NEG, Var("x")), Unary(NEG, X), True),
    (Unary(NEG, X), Unary(ABS, X), False),
    (Binary(ADD, Var("x"), Const(1.0)), Binary(ADD, X, Const(1.0)), True),
    (Binary(ADD, X, Y), Binary(ADD, Y, X), False),
    (PowInt(Var("x"), 2), PowInt(X, 2), True),
    (PowInt(X, 2), PowInt(X, 3), False),
]


@pytest.mark.parametrize("a, b, equal", EQUALITY)
def test_equal_exactly_when_fields_are(a, b, equal):
    assert (a == b) is equal and (b == a) is equal and (a != b) is not equal
    if equal:
        assert hash(a) == hash(b)


def test_simplify_squares_a_product_of_equal_distinct_variables():
    assert simplify(Binary(MUL, Var("x"), Var("x"))) == Unary(SQR, Var("x"))


def test_zero_width_split_message():
    box = make_box([("x", 1.0, 1.0), ("y", 0.0, 2.0)])
    with pytest.raises(DegenerateSplit) as info:
        box.split(0)
    assert str(info.value) == (
        "dimension 0 of Box(pairs=((1.0, 1.0), (0.0, 2.0)), labels=('x', 'y')): "
        "split point 1.0 not strictly inside"
    )


def test_report_dict_keys():
    report = RunReport("qb", {"eps_h": 1e-4}, "ab", [ConstantRow("d1", 2.0)])
    assert report.to_dict() == {
        "command": "qb",
        "config": {"eps_h": 1e-4},
        "model_fingerprint": "ab",
        "results": [
            {
                "name": "d1", "value": 2.0, "lower": None, "gap": None,
                "eps_optimal": None, "subproblems": None, "evals": None,
                "wall_time_ms": None,
            }
        ],
        "label": "",
    }


def test_cli_run_imports_neither_dataclasses_nor_inspect():
    # -S: no site .pth file can import either module first.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import certbound.cli as cli\n"
        "code = cli.run(['maximize', '--expr', 'x*(1-x)', '--bounds', 'x=[0,1]', '--no-timing'])\n"
        "print(code, sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
