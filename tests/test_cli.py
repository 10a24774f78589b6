"""Command-line surface: subcommands, formats, exit codes, determinism."""

import argparse
import builtins
import hashlib
import importlib
import json
import math
import os
import random
import subprocess
import sys

import pytest

import certbound
from certbound import cli
from certbound.cli import _COMMANDS, run
from certbound.report import ConstantRow, RunReport, ReportFieldError, emit_table, to_json
from conftest import report_from_dict


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("models")
    paths = {}
    for name, argv in {
        "traffic1": ["make-model", "traffic", "--sections", "1"],
        "moving": ["make-model", "moving-object"],
        "moving1": ["make-model", "moving-object", "--radius", "1.0"],
    }.items():
        path = tmp / f"{name}.nds"
        assert run(argv + ["--output", str(path)]) == 0
        paths[name] = str(path)
    return paths


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(["bogus-subcommand"]) == 2

    def test_missing_subcommand(self, capsys):
        assert run([]) == 2

    def test_model_error_unreadable(self, capsys):
        code, out, err = run_capture(
            capsys, ["lipschitz", "--model", "/nonexistent.nds"]
        )
        assert code == 3
        assert out == ""
        assert "certbound:" in err

    @pytest.mark.parametrize("target", ["missing-dir/x.nds", "."], ids=["no-dir", "a-dir"])
    def test_unwritable_model_output_is_a_model_error(self, tmp_path, capsys, target):
        output = str(tmp_path / target)
        code, out, err = run_capture(capsys, ["make-model", "traffic", "--output", output])
        assert (code, out) == (3, "")
        assert err.startswith("certbound: cannot write model: ") and err.count("\n") == 1

    def test_model_error_missing_flag(self, capsys):
        code, _, err = run_capture(capsys, ["lipschitz"])
        assert code == 3 and "requires --model" in err

    def test_model_error_bad_content(self, tmp_path, capsys):
        bad = tmp_path / "bad.nds"
        bad.write_text("[states]\nx1 = [0, 1]\n[f]\nf1 = sin(x1\n")
        code, out, err = run_capture(capsys, ["lipschitz", "--model", str(bad)])
        assert code == 3 and out == ""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[states]\nx1 = [0, 1]\nx2 = [0, 1]\n[f]\nf2 = x1\nf1 = x2*x2\n",
             "component 1 is named f2 on line 5, not f1"),
            ("[states]\nx1 = [0, 1]\n[f]\nf1 = x1\nf1 = x1\n",
             "component 2 is named f1 on line 5, not f2"),
            ("[constants]\na = 1\na = 2\n[states]\nx1 = [0, 1]\n[f]\nf1 = a*x1\n",
             "constant a assigned again on line 3"),
            ("[constants]\nx1 = 2\n[states]\nx1 = [0, 1]\nx2 = [0, 1]\n[f]\nf1 = x1*x2\n",
             "constant x1 on line 2 shadows the variable on line 4"),
            ("[states]\nx1 = [0, 1]\n[inputs]\nu1 = [0, 1]\n[constants]\nu1 = 3\n[f]\nf1 = x1*u1\n",
             "constant u1 on line 6 shadows the variable on line 4"),
        ],
        ids=[
            "components-out-of-order", "repeated-component", "repeated-constant",
            "shadowed-state", "shadowed-input",
        ],
    )
    def test_misnamed_model_lines_are_model_errors(self, tmp_path, capsys, text, message):
        # Each of these files used to load: its components in file order,
        # whatever their names, each constant at its last value, and a
        # constant in place of the declared variable of its name.
        model = tmp_path / "misnamed.nds"
        model.write_text(text)
        code, out, err = run_capture(capsys, ["jacobian", "--model", str(model)])
        assert (code, out) == (3, "")
        assert err == f"certbound: invalid model {model}: {message}\n"

    DEEP_SUM = "+".join(["x*y"] * 1200)
    LONG_SUM = "+".join(["x*y"] * 450)

    @pytest.mark.parametrize(
        "text, offset, expected",
        [
            (DEEP_SUM + "+", len(DEEP_SUM) + 1, "number | identifier | ("),
            ("(" * 1200 + "x" + ")" * 1199, 2400, ")"),
            ("-" * 1200, 1200, "number | identifier | ("),
        ],
        ids=["sum", "parentheses", "negations"],
    )
    def test_deep_expression_is_a_bad_expr(self, capsys, text, offset, expected):
        # A deep input with a defect at its end gets the error that a
        # shallow one gets, at the defect.
        code, out, err = run_capture(
            capsys, ["maximize", f"--expr={text}", "--bounds", "x=[0,1];y=[0,1]"]
        )
        assert (code, out) == (3, "")
        assert err == (
            "certbound: bad --expr: found 'end of input'"
            f" at offset {offset} (expected {expected})\n"
        )

    @pytest.mark.parametrize(
        "text, maximum",
        [
            (DEEP_SUM, 1200.0),
            ("(" * 1200 + "x" + ")" * 1200, 1.0),
            ("-" * 1200 + "x", 1.0),
            (f"({LONG_SUM})*({LONG_SUM})", 450.0**2),
        ],
        ids=["sum", "parentheses", "negations", "square-of-a-sum"],
    )
    def test_deep_expression_is_maximized(self, capsys, text, maximum):
        # No walk of the symbolic layer recurses, so no depth is refused.
        # The square's factors are compared node by node to make it sqr(...).
        code, out, err = run_capture(
            capsys,
            ["maximize", f"--expr={text}", "--bounds", "x=[0,1];y=[0,1]", "--format", "json"],
        )
        assert (code, err) == (0, "")
        (row,) = json.loads(out)[0]["results"]
        assert row["eps_optimal"] and row["lower"] <= maximum <= row["value"]

    def test_deep_sum_is_an_invalid_model(self, tmp_path, capsys):
        model = tmp_path / "deep.nds"
        model.write_text(f"[states]\nx = [0, 1]\ny = [0, 1]\n[f]\nf1 = {self.DEEP_SUM}*z\nf2 = x\n")
        code, out, err = run_capture(capsys, ["jacobian", "--model", str(model)])
        assert (code, out) == (3, "")
        assert err == (
            f"certbound: invalid model {model}: component 1 uses undeclared variables ['z']\n"
        )

    def test_deep_sum_is_a_model(self, tmp_path, capsys):
        # df1/dx is a sum of 1,200 terms y, and df1/dy one of 1,200 terms
        # x: each ranges over [0, 1200].
        model = tmp_path / "deep.nds"
        model.write_text(f"[states]\nx = [0, 1]\ny = [0, 1]\n[f]\nf1 = {self.DEEP_SUM}\nf2 = x\n")
        code, out, err = run_capture(
            capsys, ["jacobian", "--model", str(model), "--format", "json"]
        )
        assert (code, err) == (0, "")
        rows = {row["name"]: row for row in json.loads(out)[0]["results"]}
        for name in ("df1/dx1", "df1/dx2"):
            assert rows[name]["lower"] <= 0.0 and 1200.0 <= rows[name]["value"] < 1200.001

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[constants]\na = 1\na = 2\n[states]\nx1 = [0, 1]\n[f]\nf1 = a*x1\n",
             "constant a assigned again on line 3"),
            ("[states]\nx1 = [0, 1]\n[f]\nf2 = x1\n", "component 1 is named f2 on line 4, not f1"),
        ],
        ids=["constant", "component"],
    )
    def test_a_line_error_ends_with_its_line(self, tmp_path, capsys, text, message):
        # An error about a whole line has no offset to name.
        model = tmp_path / "line.nds"
        model.write_text(text)
        code, out, err = run_capture(capsys, ["qb", "--model", str(model)])
        assert (code, out, err) == (3, "", f"certbound: invalid model {model}: {message}\n")

    def test_600_parentheses_end_with_the_depth(self, capsys):
        # The input ends 600 parentheses deep: the error is at its end.
        text = "(" * 600 + "x" + ")" * 599
        code, out, err = run_capture(
            capsys, ["maximize", "--expr", text, "--bounds", "x=[0,1]"]
        )
        assert (code, out) == (3, "")
        assert err == "certbound: bad --expr: found 'end of input' at offset 1200 (expected ))\n"

    def test_a_tokenizer_error_keeps_its_offset(self, tmp_path, capsys):
        model = tmp_path / "char.nds"
        model.write_text("[states]\nx1 = [0, 1]\n[f]\nf1 = x1 $ 2\n")
        code, out, err = run_capture(capsys, ["qb", "--model", str(model)])
        assert (code, out) == (3, "")
        assert err == (
            f"certbound: invalid model {model}: f1 on line 4: unexpected character '$' at offset 3\n"
        )

    def test_a_component_parse_error_names_its_component_and_line(self, tmp_path, capsys):
        # The offset is inside the component's text, so the component and
        # its line say where that text is.
        model = tmp_path / "truncated.nds"
        model.write_text(
            "# two states\n[states]\nx1 = [0, 1]\nx2 = [0, 1]\n[f]\nf1 = x1*x2\nf2 = x1 +\n"
        )
        code, out, err = run_capture(capsys, ["jacobian", "--model", str(model)])
        assert (code, out) == (3, "")
        assert err == (
            f"certbound: invalid model {model}: f2 on line 7: found 'end of input' at offset 4"
            " (expected number | identifier | ()\n"
        )

    WIDE_ROW = 1100

    @classmethod
    def _wide_row_model(cls, tmp_path) -> str:
        # One state and 1,100 components f_i = 0.5*sqr(x1), which an
        # all-ones [G] row mixes into one sum of 1,100 terms.
        n = cls.WIDE_ROW
        model = tmp_path / "wide_row.nds"
        model.write_text(
            "[states]\nx1 = [-1, 1]\n[f]\n"
            + "".join(f"f{i} = 0.5*sqr(x1)\n" for i in range(1, n + 1))
            + "[G]\n" + " ".join(["1"] * n) + "\n"
        )
        return str(model)

    def test_deep_objective_of_a_large_model_ends_in_one_line(self, tmp_path, capsys):
        # f1 loads, and differentiating it refuses abs of an argument of
        # uncertified sign, with the argument's text: a product of 600
        # factors, the first two simplified to sqr(x1).
        model = tmp_path / "deep_abs.nds"
        model.write_text(
            "[states]\nx1 = [-1, 1]\nx2 = [-1, 1]\n"
            "[f]\nf1 = abs(x2 - " + "*".join(["x1"] * 600) + ")\nf2 = x2\n"
        )
        code, out, err = run_capture(capsys, ["jacobian", "--model", str(model)])
        assert (code, out) == (4, "")
        assert err == (
            "certbound: cannot differentiate abs(x2 - sqr(x1)" + "*x1" * 598
            + "): sign not certified\n"
        )

    def test_qib_of_a_long_g_row(self, tmp_path, capsys):
        # The gradient of the mixed component is row 1 of xi, a sum of 1,100
        # terms x1 that nothing walks recursively: gamma_m is 1,100^2.
        code, out, err = run_capture(
            capsys,
            ["qib", "--eps1", "1", "--eps2", "1", "--model", self._wide_row_model(tmp_path),
             "--format", "json"],
        )
        assert (code, err) == (0, "")
        rows = {row["name"]: row for row in json.loads(out)[0]["results"]}
        gamma_m = rows["gamma_m"]
        assert gamma_m["eps_optimal"]
        assert gamma_m["lower"] <= self.WIDE_ROW**2 <= gamma_m["value"]

    @pytest.mark.parametrize("estimator", ["gershgorin", "frobenius"])
    def test_osl_of_a_long_g_row(self, tmp_path, capsys, estimator):
        # xi_11 and psi_11 are sums of 1,100 terms x1, built and squared by
        # simplify's rules without walking them: gamma_s is 1,100.
        model = self._wide_row_model(tmp_path)
        code, out, err = run_capture(
            capsys, ["osl", "--estimator", estimator, "--model", model, "--format", "json"]
        )
        assert (code, err) == (0, "")
        row = json.loads(out)[0]["results"][0]
        assert row["name"] == "gamma_s" and row["eps_optimal"]
        assert row["lower"] <= self.WIDE_ROW <= row["value"] < self.WIDE_ROW + 1e-6

    def test_derivative_deeper_than_its_function(self, tmp_path, capsys):
        # f1 is a product of 700 factors; its derivative is twice as deep
        # (d(a*b) = da*b + a*db at every factor).
        model = tmp_path / "long.nds"
        model.write_text(
            "[states]\nx1 = [-1, 1]\nx2 = [-1, 1]\n"
            "[f]\nf1 = " + "*".join(["x1"] * 700) + "\nf2 = x2\n"
        )
        code, out, err = run_capture(
            capsys, ["lipschitz", "--case", "1", "--model", str(model), "--format", "json"]
        )
        assert (code, err) == (0, "")
        row = json.loads(out)[0]["results"][0]
        # The gradients (700*x1^699, 0) and (0, 1): the constant is
        # sqrt(700^2 + 1) = 700.000714...
        assert row["name"] == "gamma_l1" and row["eps_optimal"]
        assert row["lower"] ** 2 <= 700**2 + 1 <= row["value"] ** 2
        assert row["value"] - row["lower"] < 1e-6

    def test_qb_of_a_long_jacobian_column(self, tmp_path, capsys):
        # Column 1 of the Jacobian has 1,100 entries; qb sums their squares
        # in a loop, so the column's length is no limit.
        n = 1100
        model = tmp_path / "wide.nds"
        model.write_text(
            "[states]\n" + "".join(f"x{i} = [-1, 1]\n" for i in range(1, n + 1))
            + "[f]\n" + "".join(f"f{i} = 0.5*sqr(x1)\n" for i in range(1, n + 1))
        )
        code, out, err = run_capture(capsys, ["qb", "--model", str(model), "--format", "json"])
        assert (code, err) == (0, "")
        rows = json.loads(out)[0]["results"]
        assert len(rows) == n and rows[0]["name"] == "Gamma_11" and rows[0]["eps_optimal"]
        # n * sum of n copies of x1^2, at most n^2: the entry is n.
        assert rows[0]["lower"] <= n <= rows[0]["value"] < n + 1e-6
        assert all(row["value"] == 0.0 for row in rows[1:])

    def test_case1_objective_of_thousands_of_terms_is_bounded(self, tmp_path, capsys):
        # Case 1 sums the 1,021 components' squared gradient norms into one
        # objective; the sum is folded in a loop, so its length is no limit.
        model = str(tmp_path / "traffic_s170.nds")
        assert run(["make-model", "traffic", "--sections", "170", "--output", model]) == 0
        rows = {}
        for case in ("1", "2"):
            code, out, err = run_capture(
                capsys, ["lipschitz", "--case", case, "--model", model, "--format", "json"]
            )
            assert (code, err) == (0, "")
            (row,) = json.loads(out)[0]["results"]
            rows[case] = row
        assert rows["1"]["eps_optimal"] and rows["1"]["value"] >= rows["2"]["lower"]
        assert rows["1"]["value"] == pytest.approx(rows["2"]["value"], abs=1e-9)

    def test_unbounded_jacobian_entry_ends_fast(self, tmp_path):
        # df1/dx2 = x1/(2*sqrt(x2)) is unbounded on every box touching
        # x2 = 0; the run must end with exit 4 instead of bisecting that
        # edge breadth-first down to eps_om.
        model = tmp_path / "sqrt_edge.nds"
        model.write_text("[states]\nx1 = [0, 1]\nx2 = [0, 1]\n[f]\nf1 = x1*sqrt(x2)\nf2 = x2\n")
        src = os.path.dirname(os.path.dirname(certbound.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "certbound.cli", "jacobian", "--model", str(model)],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 4 and proc.stdout == ""
        assert "unbounded enclosure" in proc.stderr

    OVERFLOWS = [
        ("1e200^2*x", 4), ("(1e200^2)^2", 4), ("x*1e999", 3), ("exp(1000)+x", 4),
        ("1/(x-x)", 4), ("x^400", 4), ("1/sqr(1e200)", 4), ("1/(1e200*1e200) + 0*x", 4),
    ]

    @pytest.mark.parametrize("expr, exit_code", OVERFLOWS, ids=[e for e, _ in OVERFLOWS])
    def test_overflow_and_division_end_in_one_message(self, expr, exit_code):
        # A constant expression that no float holds (a power, a square, a
        # product) is left unfolded, so it fails at evaluation like the other
        # overflows: exit 4, one line.  Folded to inf, ``1/inf`` would print
        # a maximum of 0, below the true 1e-400.  A literal that no float
        # holds is refused by the tokenizer: exit 3, one line.
        src = os.path.dirname(os.path.dirname(certbound.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "certbound.cli", "maximize", "--expr", expr, "--bounds", "x=[0,10]"],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == exit_code and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("certbound:")

    def test_a_nonfinite_literal_in_a_model_is_a_parse_error(self, tmp_path, capsys):
        # A literal that no float holds is refused by the tokenizer at its
        # offset, as the same value in [constants] is refused on its line:
        # left to evaluation, it fails with a message that names no input.
        model = tmp_path / "huge_literal.nds"
        model.write_text("[states]\nx1 = [0, 1]\nx2 = [0, 1]\n[f]\nf1 = 1e999*x1*x2\nf2 = x1\n")
        code, out, err = run_capture(capsys, ["jacobian", "--model", str(model)])
        assert (code, out) == (3, "")
        assert err == (
            f"certbound: invalid model {model}: f1 on line 5: non-finite number '1e999' at offset 0\n"
        )

    BIG_EXPONENT = "1" + "0" * 320

    def test_an_exponent_above_2_53_in_a_model_is_a_model_error(self, tmp_path, capsys):
        # Its derivative's coefficient ``float(k)`` would not be exact; here
        # it overflowed, and ``jacobian`` died with a traceback (exit 1).
        model = tmp_path / "big_exponent.nds"
        model.write_text(f"[states]\nx1 = [0, 1]\n[f]\nf1 = x1^{self.BIG_EXPONENT}\n")
        code, out, err = run_capture(capsys, ["jacobian", "--model", str(model)])
        assert (code, out) == (3, "")
        assert err == (
            f"certbound: invalid model {model}: f1 on line 4:"
            " exponent too large: above 2**53 at offset 3\n"
        )

    def test_an_exponent_above_2_53_in_an_expr_is_a_model_error(self, capsys):
        # This one failed where it was evaluated (exit 4).
        argv = ["maximize", "--expr", f"x^{self.BIG_EXPONENT}", "--bounds", "x=[0,1]"]
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (3, "")
        assert err == "certbound: bad --expr: exponent too large: above 2**53 at offset 2\n"

    def test_overflowing_constant_power_in_a_model(self, tmp_path, capsys):
        model = tmp_path / "huge.nds"
        model.write_text("[states]\nx1 = [0, 1]\n[f]\nf1 = 1e200^2*x1\n")
        code, out, err = run_capture(capsys, ["lipschitz", "--model", str(model)])
        assert code == 4 and out == ""
        assert err.startswith("certbound: ") and "evaluation failed" in err

    def test_computation_error(self, tmp_path, capsys):
        # quadratic boundedness requires an input-free model
        model = tmp_path / "with_input.nds"
        model.write_text(
            "[states]\nx1 = [-1, 1]\n[inputs]\nu1 = [-1, 1]\n[f]\nf1 = x1*u1\n"
        )
        code, out, err = run_capture(capsys, ["qb", "--model", str(model)])
        assert code == 4
        assert "precondition" in err

    def test_huge_origin_value_fails_the_qb_precondition(self, tmp_path, capsys):
        model = tmp_path / "far_origin.nds"
        model.write_text("[states]\nx1 = [-1, 1]\n[f]\nf1 = x1 + 1e200\n")
        code, out, err = run_capture(capsys, ["qb", "--model", str(model)])
        assert code == 4 and out == ""
        assert err == (
            "certbound: precondition violated: components must vanish at the origin "
            "(f1(0) in [1e+200, 1e+200])\n"
        )

    def test_tiny_origin_value_fails_the_qb_precondition(self, tmp_path, capsys):
        # No tolerance: f(0) = 1e-13 is not 0.
        model = tmp_path / "near_origin.nds"
        model.write_text("[states]\nx1 = [-1, 1]\n[f]\nf1 = x1 + 1e-13\n")
        code, out, err = run_capture(capsys, ["qb", "--model", str(model)])
        assert (code, out) == (4, "")
        assert "components must vanish at the origin (f1(0) in [1e-13, 1e-13])" in err

    @pytest.mark.parametrize(
        "component, reason",
        [
            ("1/x1", "divisor [0.0, 0.0] contains zero"),
            ("sqrt(x1 - 1)", "sqrt of interval [-1.0, -1.0] with negative part"),
        ],
        ids=["zero-divisor", "negative-sqrt"],
    )
    def test_origin_without_an_enclosure_names_the_component(
        self, tmp_path, capsys, component, reason
    ):
        model = tmp_path / "no_origin_enclosure.nds"
        model.write_text(f"[states]\nx1 = [-1, 1]\n[f]\nf1 = {component}\n")
        code, out, err = run_capture(capsys, ["qb", "--model", str(model)])
        assert (code, out) == (4, "")
        assert err == (
            "certbound: precondition violated: components must vanish at the origin "
            f"(f1(0): {reason})\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["make-model", "traffic", "--sections", "0"],
            ["make-model", "moving-object", "--radius", "0"],
            ["make-model", "moving-object", "--radius", "nan"],
            ["make-model", "moving-object", "--radius", "inf"],
            ["traffic-table", "--sections", "0"],
            ["make-model", "generator", "--state-bounds", "[1,0];[0,1];[0,1];[0,1]",
             "--input-bounds", "[0,1];[0,1];[0,1];[0,1]"],
            ["make-model", "generator", "--state-bounds", "[a,1];[0,1];[0,1];[0,1]",
             "--input-bounds", "[0,1];[0,1];[0,1];[0,1]"],
            ["make-model", "generator", "--state-bounds", "[0,1];[0,1];[0,1];[0,1]",
             "--input-bounds", "[0,1];[0,1];[0,1];[0,1]", "--alphas", "a,1,1,1,1,1"],
            ["make-model", "generator", "--state-bounds", "[-1,1];[-1,1];[-1,1];[-1,1]",
             "--input-bounds", "[0,1];[0,1];[0,1];[0,1]", "--alphas", "inf,1,1,1,1,2"],
            ["make-model", "traffic", "--sections", "-3"],
        ],
    )
    def test_bad_model_parameters_are_model_errors(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 3 and out == ""
        assert "invalid model parameters" in err

    @pytest.mark.parametrize("flag, value", [("--eps-h", "nan"), ("--eps-om", "inf")])
    def test_non_finite_tolerance_is_a_usage_error(self, model_files, capsys, flag, value):
        code, out, err = run_capture(
            capsys, ["lipschitz", "--model", model_files["traffic1"], flag, value]
        )
        assert code == 2 and out == ""
        assert "finite and positive" in err

    @pytest.mark.parametrize("weights", [("inf", "0.1"), ("1e4", "inf")])
    def test_infinite_qib_weight_fails_the_precondition(self, model_files, capsys, weights):
        code, out, err = run_capture(
            capsys,
            ["qib", "--eps1", weights[0], "--eps2", weights[1], "--model", model_files["moving1"]],
        )
        assert code == 4 and out == ""
        assert "precondition violated: eps1, eps2 finite and >= 0" in err

    def test_zero_baseline_count_is_a_usage_error(self, model_files, capsys):
        code, out, err = run_capture(
            capsys, ["baseline", "--count", "0", "--model", model_files["moving1"]]
        )
        assert code == 2 and out == ""
        assert "--count must be >= 1" in err

    @pytest.mark.parametrize(
        "flag, value", [("--eps-h", "nan"), ("--eps-om", "inf"), ("--segments", "0")]
    )
    def test_baseline_checks_the_tolerances_it_echoes(self, model_files, capsys, flag, value):
        code, out, err = run_capture(
            capsys, ["baseline", "--count", "4", "--model", model_files["moving1"], flag, value]
        )
        assert (code, out) == (2, "")
        assert err.startswith("certbound: ") and err.count("\n") == 1

    def test_diagnostics_never_on_stdout(self, capsys):
        code, out, err = run_capture(capsys, ["osl", "--model", "/nope.nds"])
        assert out == "" and err != ""


def reference_parser() -> argparse.ArgumentParser:
    """An argparse parser built from the CLI's argument table: the reference
    that the CLI's own parser must agree with."""
    parser = argparse.ArgumentParser(prog="certbound", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for opt in options:
            if opt.read is bool:
                p.add_argument(opt.flag, action="store_true")
            elif opt.flag.startswith("-"):
                p.add_argument(
                    opt.flag, type=opt.read, default=opt.default, choices=opt.choices,
                    required=opt.required,
                )
            else:
                p.add_argument(opt.flag, type=opt.read, choices=opt.choices)
    return parser


# Texts that argparse takes as the value of an option of each type, in both
# forms; a string that begins with "-" only after "=".
VALUE_TEXTS = {
    int: ["0", "3", "-2", "17", "1_000"],
    float: ["0.5", "1e-3", "-2.5", "3", "1e4", " 2.0 "],
    str: ["x*(1-x)", "x=[0,1];y=[-1,2]", "a b", "1,2,3"],
}


def random_argv(rng: random.Random, command: str) -> list[str]:
    """A command line that argparse accepts: the required options and a
    random share of the others, shuffled, in either form, one of them
    possibly repeated."""
    options = _COMMANDS[command][1]
    chosen = [opt for opt in options if opt.required or rng.random() < 0.5]
    flags = [opt for opt in chosen if opt.flag.startswith("-")]
    if flags and rng.random() < 0.5:
        chosen.append(rng.choice(flags))
    rng.shuffle(chosen)
    argv = [command]
    for opt in chosen:
        if opt.choices is not None:
            text = str(rng.choice(opt.choices))
        elif opt.read is not bool:
            text = rng.choice(VALUE_TEXTS[opt.read])
        if not opt.flag.startswith("-"):
            argv.append(text)
        elif opt.read is bool:
            argv.append(opt.flag)
        elif rng.random() < 0.5:
            if opt.choices is None and opt.read is str and rng.random() < 0.3:
                text = "-" + text
            argv.append(f"{opt.flag}={text}")
        else:
            argv += [opt.flag, text]
    return argv


def usage_error(capsys, argv) -> str:
    """The one error line of a command line that is a usage error."""
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: certbound") and "error:" not in usage
    assert error.startswith("certbound") and ": error: " in error
    return error


class TestParser:
    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_reads_what_argparse_reads(self, command):
        rng = random.Random(command)
        reference = reference_parser()
        for _ in range(60):
            argv = random_argv(rng, command)
            expected = vars(reference.parse_args(argv))
            got = vars(cli._parse_args(argv))
            assert got.pop("_argv") == argv
            typed = {name: (type(v), v) for name, v in got.items()}
            assert typed == {name: (type(v), v) for name, v in expected.items()}, argv

    def test_values_may_begin_with_a_dash(self):
        args = cli._parse_args(
            ["qib", "--eps1", "-1", "--eps2=-inf", "--model", "-", "--estimator=zeta"]
        )
        assert (args.eps1, args.eps2, args.model, args.estimator) == (-1.0, -math.inf, "-", "zeta")
        args = cli._parse_args(["maximize", "--expr", "-x*x", "--bounds", "x=[-1,1]"])
        assert (args.expr, args.bounds) == ("-x*x", "x=[-1,1]")
        assert cli._parse_args(["maximize", "--expr=--x", "--bounds=x=[0,1]"]).expr == "--x"

    def test_the_last_of_a_repeated_option_wins(self):
        args = cli._parse_args(["lipschitz", "--case", "2", "--segments=3", "--case=1", "--segments", "4"])
        assert (args.case, args.segments) == (1, 4)

    def test_make_model_kind_anywhere(self):
        args = cli._parse_args(["make-model", "--sections", "3", "traffic", "--output=-"])
        assert (args.kind, args.sections, args.output) == ("traffic", 3, "-")

    @pytest.mark.parametrize(
        "argv, names",
        [
            ([], "command"),
            (["bogus"], "'bogus'"),
            (["lipschitz", "--case", "3"], "--case"),
            (["lipschitz", "--format", "xml"], "--format"),
            (["lipschitz", "--segments", "x"], "--segments"),
            (["lipschitz", "--segments=1.5"], "--segments"),
            (["lipschitz", "--eps-h", "abc"], "--eps-h"),
            (["lipschitz", "--eps-h"], "--eps-h"),
            (["lipschitz", "--eps-h", "--model", "m.nds"], "--eps-h"),
            (["maximize", "--expr", "--bounds", "x=[0,1]"], "--expr"),
            (["lipschitz", "--no-timing=1"], "--no-timing"),
            (["lipschitz", "--no-such-flag"], "--no-such-flag"),
            (["lipschitz", "--mod", "m.nds"], "--mod"),
            (["lipschitz", "stray"], "stray"),
            (["qb", "-x"], "-x"),
            (["qib", "--eps1", "1"], "--eps2"),
            (["maximize", "--bounds", "x=[0,1]"], "--expr"),
            (["traffic-table"], "--sections"),
            (["make-model"], "kind"),
            (["make-model", "bogus"], "kind"),
            (["make-model", "traffic", "generator"], "generator"),
            (["make-model", "traffic", "--model", "m.nds"], "--model"),
        ],
    )
    def test_usage_error_names_the_option(self, capsys, argv, names):
        assert names in usage_error(capsys, argv)

    def test_abbreviations_are_not_options(self, capsys):
        # argparse took an unambiguous prefix of an option; the table does not.
        assert "--no-tim" in usage_error(capsys, ["qb", "--no-tim"])

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_lists_every_command(self, capsys, flag):
        code, out, err = run_capture(capsys, [flag])
        assert (code, err) == (0, "")
        assert out.startswith("usage: certbound <command>")
        for name, (help_text, _, _) in _COMMANDS.items():
            assert f"  {name}" in out and help_text in out

    @pytest.mark.parametrize("command", list(_COMMANDS))
    @pytest.mark.parametrize("extra", [["--help"], ["--no-such-flag"], ["--format", "xml"]])
    def test_help_or_one_usage_error_of_every_command(self, capsys, command, extra):
        if extra != ["--help"]:
            # make-model has no --format: it is an unrecognized argument.
            assert extra[0] in usage_error(capsys, [command, *extra])
            return
        # Help is printed before a missing required option is noticed.
        code, out, err = run_capture(capsys, [command, "--help"])
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: certbound {command}")
        for opt in _COMMANDS[command][1]:
            assert opt.synopsis() in out and opt.help in out
        assert run_capture(capsys, [command, "-h"])[1] == out


class TestCommands:
    def test_maximize_json(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["maximize", "--expr", "x*(1-x)", "--bounds", "x=[0,1]",
             "--eps-h", "1e-6", "--no-timing"],
        )
        assert code == 0
        report = json.loads(out)[0]
        row = report["results"][0]
        assert row["value"] == pytest.approx(0.25, abs=1e-4)
        assert row["value"] - row["lower"] <= 1e-6
        assert row["eps_optimal"] is True

    def test_maximize_bad_bounds(self, capsys):
        code, _, err = run_capture(
            capsys, ["maximize", "--expr", "x*y", "--bounds", "x=[0,1]"]
        )
        assert code == 3 and "missing variables" in err

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ("x=[0,1];x=[5,6]", "duplicate bounds for 'x'"),
            ("x=[2,0]", "lower endpoint above upper"),
            ("x=[nan,1]", "endpoints must be finite"),
            ("x=[0,inf]", "endpoints must be finite"),
            ("x=[0,abc]", "could not convert"),
            ("x=[0,1];=[0,2]", "'' is not a variable name"),
            ("1x=[0,1]", "'1x' is not a variable name"),
        ],
    )
    def test_maximize_invalid_bounds_are_model_errors(self, capsys, bounds, message):
        code, out, err = run_capture(
            capsys, ["maximize", "--expr", "x*x", "--bounds", bounds]
        )
        assert code == 3 and out == ""
        assert message in err

    def test_maximize_ignores_unused_variables(self, capsys):
        argv = ["maximize", "--expr", "x*x", "--no-timing", "--bounds"]
        _, alone, _ = run_capture(capsys, argv + ["x=[0,1]"])
        _, with_unused, _ = run_capture(capsys, argv + ["x=[0,1];y=[5,6]"])
        alone_row = json.loads(alone)[0]["results"][0]
        unused_row = json.loads(with_unused)[0]["results"][0]
        assert unused_row["evals"] == alone_row["evals"]
        assert unused_row == alone_row

    def test_maximize_past_a_zero_divisor_enclosure(self, capsys):
        # On [0, 2] the denominator's enclosure contains 0, yet its true
        # range is [1, 2]: bisection gets past the artifact.
        code, out, err = run_capture(
            capsys,
            ["maximize", "--expr", "1/(x*x - 2*x + 2)", "--bounds", "x=[0,2]",
             "--segments", "1", "--no-timing"],
        )
        assert code == 0, err
        row = json.loads(out)[0]["results"][0]
        assert row["lower"] <= 1.0 <= row["value"]
        assert row["eps_optimal"] is True

    def test_maximize_past_an_overflowing_enclosure(self, capsys):
        # exp overflows on the enclosure of the root box, yet the true
        # maximum, at x = 0.5 and x = 1.5, is exp(200).
        code, out, err = run_capture(
            capsys,
            ["maximize", "--expr", "exp(800*(x*x - 2*x) + 800)", "--bounds", "x=[0.5,1.5]",
             "--segments", "1", "--no-timing"],
        )
        assert code == 0, err
        row = json.loads(out)[0]["results"][0]
        assert row["lower"] <= math.exp(200) <= row["value"]

    def test_maximize_unbounded_enclosure_is_a_compute_error(self, capsys):
        # sqrt((x - 1)^2) written so that every box around x = 1 encloses a
        # negative radicand.
        code, out, err = run_capture(
            capsys,
            ["maximize", "--expr", "sqrt(x*x - 2*x + 1)", "--bounds", "x=[0,2]"],
        )
        assert code == 4 and out == ""
        assert "unbounded enclosure" in err and "negative part" in err

    @pytest.mark.parametrize(
        "expr, bounds, value",
        [
            ("x", "x=[-1e308,1e308]", 1e308),
            ("-x", "x=[1e308,1.7e308]", -1e308),
            ("abs(x)", "x=[-1e308,1e308]", 1e308),
        ],
    )
    def test_maximize_where_lo_plus_hi_overflows(self, capsys, expr, bounds, value):
        # Midpoints and slab cuts of these boxes stay inside them.
        code, out, err = run_capture(
            capsys, ["maximize", f"--expr={expr}", "--bounds", bounds, "--no-timing"]
        )
        assert code == 0, err
        row = json.loads(out)[0]["results"][0]
        assert row["value"] == row["lower"] == value and row["eps_optimal"] is True

    def test_maximize_stops_at_boxes_of_adjacent_floats(self, capsys):
        # Every enclosure near |x| = 1e308 overflows, so phase 1 bisects down
        # to boxes of two adjacent floats, ~1e292 wide, far above eps_om.
        # Such a box has no split point: the run must end unbounded, not
        # fail on the split.
        code, out, err = run_capture(
            capsys, ["maximize", "--expr=-sqr(x)", "--bounds", "x=[-1e308,1e308]"]
        )
        assert code == 4 and out == ""
        assert "unbounded enclosure" in err and "not strictly inside" not in err

    def test_maximize_nonfinite_constant_is_refused(self, capsys):
        # Refused by the tokenizer at its offset, before any program is built.
        code, out, err = run_capture(
            capsys, ["maximize", "--expr", "x*1e999", "--bounds", "x=[0,10]"]
        )
        assert (code, out, err) == (3, "", "certbound: bad --expr: non-finite number '1e999' at offset 2\n")

    def test_maximize_constant_is_no_run(self, capsys):
        # ``maximize`` runs through ``params``, where an objective without
        # variables is its own value: no subproblem and no evaluation.
        code, out, _ = run_capture(
            capsys, ["maximize", "--expr", "2", "--bounds", "x=[0,1]", "--no-timing"]
        )
        assert code == 0
        row = json.loads(out)[0]["results"][0]
        assert (row["value"], row["lower"], row["gap"], row["eps_optimal"]) == (2.0, 2.0, 0.0, True)
        assert (row["subproblems"], row["evals"]) == (0, 0)

    # The rows ``name value lower gap`` of each squared-norm constant, as the
    # report writes them, on an identically zero map and on a linear one.
    # Each objective is a constant: every row has 0 subproblems and 0 evals.
    SQUARED_NORM_ROWS = {
        ("0*x1", "0*x2"): {
            "lipschitz --case 1": ["gamma_l1 0.0 0.0 0.0"],
            "lipschitz --case 2": ["gamma_l2 0.0 0.0 0.0"],
            "osl --estimator frobenius": ["gamma_s 0.0 0.0 0.0", "gamma_lower 0.0 0.0 0.0"],
            "qb": ["Gamma_11 0.0 0.0 null", "Gamma_22 0.0 0.0 null"],
            "qib": [
                "gamma_q1 0.0 null null", "gamma_q2 -0.5 null null", "gamma_m 0.0 0.0 null",
                "osl_upper 0.0 null null", "osl_lower 0.0 null null",
            ],
        },
        ("2*x1", "-x2"): {
            "lipschitz --case 1": ["gamma_l1 2.23606797749979 2.2360679774997894 0.0"],
            "lipschitz --case 2": ["gamma_l2 2.23606797749979 2.2360679774997894 0.0"],
            "osl --estimator frobenius": [
                "gamma_s 2.23606797749979 2.2360679774997894 0.0",
                "gamma_lower -2.23606797749979 -2.2360679774997894 0.0",
            ],
            "qb": [
                "Gamma_11 2.8284271247461903 2.82842712474619 null",
                "Gamma_22 1.4142135623730951 1.414213562373095 null",
            ],
            "qib": [
                "gamma_q1 7.5 null null", "gamma_q2 -0.5 null null", "gamma_m 5.0 5.0 null",
                "osl_upper 2.0 null null", "osl_lower -1.0 null null",
            ],
        },
    }

    @pytest.mark.parametrize("f", list(SQUARED_NORM_ROWS), ids=["zero", "linear"])
    @pytest.mark.parametrize(
        "command",
        ["lipschitz --case 1", "lipschitz --case 2", "osl --estimator frobenius", "qb", "qib",
         "qib --distributed"],
    )
    def test_squared_norm_constants_of_constant_objectives(self, tmp_path, capsys, f, command):
        model = tmp_path / "m.nds"
        model.write_text(f"[states]\nx1 = [-1, 1]\nx2 = [-1, 1]\n[f]\nf1 = {f[0]}\nf2 = {f[1]}\n")
        argv = command.split() + ["--model", str(model), "--format", "json", "--no-timing"]
        if command.startswith("qib"):
            argv += ["--eps1", "1", "--eps2", "0.5"]
        code, out, err = run_capture(capsys, argv)
        assert (code, err) == (0, "")
        # Numbers are read as the text the report writes, so -0.0 is not 0.0.
        rows = json.loads(out, parse_float=str)[0]["results"]
        assert all((r["subproblems"], r["evals"], r["eps_optimal"]) == (0, 0, True) for r in rows)
        text = [
            " ".join("null" if r[k] is None else r[k] for k in ("name", "value", "lower", "gap"))
            for r in rows
        ]
        assert text == self.SQUARED_NORM_ROWS[f][command.replace(" --distributed", "")]

    def test_lipschitz_case2_traffic(self, model_files, capsys):
        code, out, _ = run_capture(
            capsys,
            ["lipschitz", "--case", "2", "--model", model_files["traffic1"],
             "--eps-h", "1e-4", "--no-timing"],
        )
        assert code == 0
        report = json.loads(out)[0]
        row = report["results"][0]
        assert row["name"] == "gamma_l2"
        assert row["eps_optimal"] is True
        assert row["subproblems"] == 5

    def test_osl_gershgorin_moving_object(self, model_files, capsys):
        code, out, _ = run_capture(
            capsys,
            ["osl", "--estimator", "gershgorin", "--model", model_files["moving"],
             "--eps-h", "1e-4", "--segments", "1", "--no-timing"],
        )
        assert code == 0
        report = json.loads(out)[0]
        by_name = {row["name"]: row for row in report["results"]}
        assert -1e-4 <= by_name["gamma_s"]["value"] <= 1e-4
        assert by_name["gamma_lower"]["value"] == pytest.approx(-150.0, abs=1e-3)

    def test_qib_rows(self, model_files, capsys):
        code, out, _ = run_capture(
            capsys,
            ["qib", "--eps1", "0", "--eps2", "0.1", "--model", model_files["moving"],
             "--eps-h", "1e-4", "--segments", "1", "--no-timing"],
        )
        assert code == 0
        by_name = {r["name"]: r for r in json.loads(out)[0]["results"]}
        assert by_name["gamma_q2"]["value"] == pytest.approx(0.1)
        assert by_name["gamma_q1"]["value"] == pytest.approx(25015.0, abs=0.2)

    def test_qb_rows(self, model_files, capsys):
        code, out, _ = run_capture(
            capsys,
            ["qb", "--model", model_files["moving1"], "--eps-h", "1e-4",
             "--segments", "1", "--no-timing"],
        )
        assert code == 0
        rows = json.loads(out)[0]["results"]
        assert [r["name"] for r in rows] == ["Gamma_11", "Gamma_22"]
        for row in rows:
            assert row["value"] == pytest.approx(math.sqrt(40.0), abs=1e-3)

    def test_jacobian_rows(self, model_files, capsys):
        code, out, _ = run_capture(
            capsys,
            ["jacobian", "--model", model_files["moving1"], "--eps-h", "1e-4",
             "--segments", "1", "--no-timing"],
        )
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)[0]["results"]}
        assert rows["df1/dx1"]["lower"] == pytest.approx(-4.0, abs=1e-3)
        assert rows["df1/dx1"]["value"] == pytest.approx(0.0, abs=1e-3)

    def test_jacobian_row_per_nonzero_derivative(self, tmp_path, capsys):
        # df1/dx1 = x2 is not identically zero, though its enclosure on
        # x2 = [0, 0] is exactly [0, 0]: it is computed and gets a row.
        model = tmp_path / "zero_entry.nds"
        model.write_text("[states]\nx1 = [0, 1]\nx2 = [0, 0]\n[f]\nf1 = x1*x2\nf2 = x2 + x1\n")
        code, out, _ = run_capture(capsys, ["jacobian", "--model", str(model), "--no-timing"])
        assert code == 0
        rows = {r["name"]: (r["lower"], r["value"]) for r in json.loads(out)[0]["results"]}
        assert rows == {
            "df1/dx1": (0.0, 0.0),
            "df1/dx2": (0.0, 1.0),
            "df2/dx1": (1.0, 1.0),
            "df2/dx2": (1.0, 1.0),
        }

    def test_baseline_under_approximates(self, model_files, capsys):
        code, out, _ = run_capture(
            capsys,
            ["baseline", "--method", "halton", "--count", "500",
             "--model", model_files["traffic1"], "--no-timing"],
        )
        assert code == 0
        row = json.loads(out)[0]["results"][0]
        assert row["eps_optimal"] is False
        assert row["evals"] == 500
        assert row["value"] < 0.2123  # strictly under the certified constant

    def test_baseline_jacobian_norm_objective(self, model_files, capsys):
        code, out, _ = run_capture(
            capsys,
            ["baseline", "--objective", "jacobian-norm", "--count", "200",
             "--model", model_files["moving1"], "--no-timing"],
        )
        assert code == 0
        row = json.loads(out)[0]["results"][0]
        assert row["name"] == "jacobian-norm_halton"
        assert 0.0 < row["value"] <= math.sqrt(40.0) + 1e-9

    @pytest.mark.parametrize("objective", ["lipschitz", "jacobian-norm"])
    def test_baseline_honours_method_and_count(self, tmp_path, capsys, objective):
        # Traffic s5 has more than 2**20 corners: enumeration stops at --count.
        model = str(tmp_path / "traffic_s5.nds")
        assert run(["make-model", "traffic", "--sections", "5", "--output", model]) == 0
        capsys.readouterr()
        code, out, _ = run_capture(
            capsys,
            ["baseline", "--objective", objective, "--method", "corners", "--count", "5",
             "--model", model, "--no-timing"],
        )
        row = json.loads(out)[0]["results"][0]
        assert (code, row["name"], row["evals"]) == (0, f"{objective}_corners", 5)

    def test_traffic_table_rows(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["traffic-table", "--sections", "1", "--case", "2",
             "--format", "csv", "--no-timing"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,name,value,lower,gap,eps_optimal,wall_time_ms"
        cells = lines[1].split(",")
        assert cells[0] == "7" and cells[1] == "gamma_l2"
        assert cells[2] == "0.2123"
        assert cells[5] == "true"

    def test_lipschitz_case2_five_sections_reference(self, tmp_path, capsys):
        path = tmp_path / "traffic_s5.nds"
        assert run(["make-model", "traffic", "--sections", "5", "--output", str(path)]) == 0
        code, out, _ = run_capture(
            capsys,
            ["lipschitz", "--case", "2", "--model", str(path), "--eps-h", "1e-4",
             "--no-timing"],
        )
        assert code == 0
        row = json.loads(out)[0]["results"][0]
        assert row["value"] == pytest.approx(0.4579, abs=5e-4)
        assert row["eps_optimal"] is True

    def test_make_model_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "gen.nds"
        code = run(
            ["make-model", "generator",
             "--state-bounds", "[-1,1];[-1,1];[0,1];[0,1]",
             "--input-bounds", "[0,1];[0,1];[-1,1];[-1,1]",
             "--alphas", "0.3,1.2,0.7,0.15,2.1,1.4",
             "--output", str(out_path)]
        )
        assert code == 0
        from certbound.model import load_model

        model = load_model(str(out_path))
        assert model.n == 4 and model.m == 4


class TestDeterminism:
    def test_byte_identical_reports(self, model_files, capsys):
        argv = ["lipschitz", "--case", "2", "--model", model_files["traffic1"],
                "--no-timing"]
        _, out1, _ = run_capture(capsys, argv)
        _, out2, _ = run_capture(capsys, argv)
        assert out1 == out2 and out1

    def test_fingerprint_tracks_content(self, model_files, capsys):
        _, out1, _ = run_capture(
            capsys, ["baseline", "--count", "10", "--model", model_files["traffic1"],
                     "--no-timing"]
        )
        _, out2, _ = run_capture(
            capsys, ["baseline", "--count", "10", "--model", model_files["moving"],
                     "--no-timing"]
        )
        assert (
            json.loads(out1)[0]["model_fingerprint"]
            != json.loads(out2)[0]["model_fingerprint"]
        )


FINGERPRINT_INPUTS = [b"", b"abc", bytes(range(256)) * 5 + b"tail"]


class TestFingerprint:
    @pytest.mark.parametrize("data", FINGERPRINT_INPUTS, ids=["empty", "short", "multi-block"])
    def test_is_the_sha256_of_the_bytes(self, data):
        assert cli._fingerprint(data) == hashlib.sha256(data).hexdigest()

    def test_falls_back_to_hashlib_without_the_builtin_module(self, monkeypatch):
        try:
            with monkeypatch.context() as m:
                m.setitem(sys.modules, "_sha2", None)
                m.setitem(sys.modules, "_sha256", None)
                importlib.reload(cli)
                assert cli._sha256 is hashlib.sha256
                for data in FINGERPRINT_INPUTS:
                    assert cli._fingerprint(data) == hashlib.sha256(data).hexdigest()
        finally:
            importlib.reload(cli)
        assert cli._sha256 is not hashlib.sha256

    def test_model_with_a_byte_order_mark(self, tmp_path, capsys):
        # The fingerprint is of the file's bytes, the mark included.
        data = b"\xef\xbb\xbf[states]\nx1 = [0, 1]\n[f]\nf1 = x1*x1\n"
        model = tmp_path / "bom.nds"
        model.write_bytes(data)
        code, out, err = run_capture(capsys, ["lipschitz", "--model", str(model), "--no-timing"])
        assert (code, err) == (0, "")
        (report,) = json.loads(out)
        assert report["model_fingerprint"] == hashlib.sha256(data).hexdigest()
        assert report["results"][0]["value"] == pytest.approx(2.0)

    def test_model_file_is_opened_once(self, model_files, monkeypatch, capsys):
        # The report's fingerprint is of the bytes that were parsed: a file
        # replaced between two reads cannot mix two models.
        path = model_files["traffic1"]
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code, _, err = run_capture(capsys, ["lipschitz", "--model", path, "--no-timing"])
        assert (code, err) == (0, "")
        assert opened.count(path) == 1


# Modules that the CLI jobs below must not load: OpenSSL (through hashlib),
# the modules of other commands, exact arithmetic (integers do the exact sums),
# and the standard library's argument parser and JSON encoder with what they
# load, whatever the report's format.
NOT_LOADED = (
    "_hashlib", "certbound.baselines", "certbound.eigen", "certbound.models",
    "fractions", "decimal", "numbers", "json", "argparse", "gettext", "locale", "typing",
)


def _assert_jobs_load_only_what_they_run(model_files, *flags):
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import certbound.cli\n"
        "code = certbound.cli.run(sys.argv[2:])\n"
        "print(code, *sorted(set(sys.argv[1].split(',')) & (set(sys.modules) - before)))\n"
    )
    src = os.path.dirname(os.path.dirname(certbound.__file__))
    traffic, moving = model_files["traffic1"], model_files["moving"]
    jobs = [
        ["lipschitz", "--case", "1", "--model", traffic, "--format", "text"],
        ["lipschitz", "--case", "1", "--model", traffic, "--format", "json"],
        # Each of these rounds an exact sum or fold to a float.
        ["osl", "--estimator", "zeta", "--model", moving],
        ["qib", "--eps1", "1e4", "--eps2", "0.1", "--model", moving],
        ["lipschitz", "--case", "2", "--model", traffic],
    ]
    for argv in jobs:
        proc = subprocess.run(
            [sys.executable, *flags, "-c", script, ",".join(NOT_LOADED), *argv],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-1] == "0", argv


def test_lipschitz_job_loads_only_what_it_runs(model_files):
    _assert_jobs_load_only_what_they_run(model_files)


def test_lipschitz_job_loads_only_what_it_runs_without_site(model_files):
    # Under -S no .pth hook runs, so a module that site's hooks load first
    # (such as typing) shows here if a job imports it.
    _assert_jobs_load_only_what_they_run(model_files, "-S")


def _python_child(args, dev: bool, close_stdout: bool = False, **kwargs):
    """``python args`` in a child, under ``-X dev`` or not (then without
    ``PYTHONDEVMODE``, which a test run may pass on), with its standard
    output closed or as ``kwargs`` give it."""
    src = os.path.dirname(os.path.dirname(certbound.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDEVMODE"}
    env["PYTHONPATH"] = src
    command = [sys.executable, *(["-X", "dev"] if dev else []), *args]
    if close_stdout:
        command = ["sh", "-c", 'exec "$@" >&-', "sh", *command]
    return subprocess.run(command, env=env, timeout=60, **kwargs)


def _cli_child(argv, dev: bool, **kwargs) -> subprocess.CompletedProcess:
    """``python -m certbound.cli argv`` in a child; see ``_python_child``."""
    return _python_child(["-m", "certbound.cli", *argv], dev, **kwargs)


class TestProcessExit:
    """``main`` flushes the output and ends the process with ``os._exit``,
    except in development mode; a child prints what ``run`` does."""

    @pytest.mark.parametrize(
        "expected, argv",
        [
            (0, ["lipschitz", "--model", "{traffic1}", "--format", "text", "--no-timing"]),
            (2, ["lipschitz", "--bogus"]),
            (3, ["lipschitz", "--model", "{traffic1}.missing"]),
            (4, ["maximize", "--expr", "1/(x-x)", "--bounds", "x=[0,10]"]),
        ],
    )
    def test_a_child_prints_what_run_prints(self, expected, argv, model_files, capsys, tmp_path):
        argv = [arg.format(**model_files) for arg in argv]
        code, out, err = run_capture(capsys, argv)
        assert code == expected
        for dev in (False, True):
            piped = _cli_child(argv, dev, capture_output=True)
            assert (piped.returncode, piped.stdout, piped.stderr) == (
                code, out.encode(), err.encode()
            ), dev
            path = tmp_path / f"out-{dev}"
            with open(path, "wb") as fh:
                to_file = _cli_child(argv, dev, stdout=fh, stderr=subprocess.PIPE)
            assert (to_file.returncode, path.read_bytes(), to_file.stderr) == (
                code, out.encode(), err.encode()
            ), dev

    @pytest.mark.parametrize("dev", [False, True])
    def test_atexit_handlers_run_in_development_mode_only(self, dev):
        script = (
            "import atexit, sys\n"
            "atexit.register(print, 'atexit handler ran', file=sys.stderr)\n"
            "from certbound.cli import main\n"
            "sys.argv = ['certbound', '--help']\n"
            "main()\n"
        )
        proc = _python_child(["-c", script], dev, capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.startswith("usage: certbound")
        assert proc.stderr == ("atexit handler ran\n" if dev else "")

    WRITERS = [
        ["lipschitz", "--model", "{traffic1}", "--format", "json"],
        ["make-model", "traffic"],
    ]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("dev", [False, True])
    @pytest.mark.parametrize("argv", WRITERS)
    def test_a_full_device_ends_in_one_line(self, argv, dev, model_files):
        # A traceback with exit 1 before, from the write of the output.
        argv = [arg.format(**model_files) for arg in argv]
        with open("/dev/full", "wb") as full:
            proc = _cli_child(argv, dev, stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 1
        assert proc.stderr == "certbound: cannot write output: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("dev", [False, True])
    @pytest.mark.parametrize("argv", [*WRITERS, ["--help"]])
    def test_a_closed_stdout_ends_in_one_line(self, argv, dev, model_files):
        # An AttributeError traceback with exit 1 before: ``sys.stdout`` is None.
        argv = [arg.format(**model_files) for arg in argv]
        proc = _cli_child(argv, dev, close_stdout=True, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 1
        assert proc.stderr == "certbound: cannot write output: standard output is closed\n"

    @pytest.mark.parametrize("dev", [False, True])
    def test_a_model_written_to_a_file_needs_no_stdout(self, dev, tmp_path):
        path = tmp_path / "traffic.nds"
        proc = _cli_child(["make-model", "traffic", "--output", str(path)], dev,
                          close_stdout=True, stderr=subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert path.read_text().startswith("[")


class TestReportModule:
    def test_json_round_trip(self):
        report = RunReport(
            command="lipschitz --case 1",
            config={"eps_h": 1e-4, "eps_om": 1e-7, "segments": 10},
            model_fingerprint="ab" * 32,
            results=[
                ConstantRow("gamma_l1", 0.4579, lower=0.4578, gap=9.85e-5,
                            eps_optimal=True, subproblems=1, evals=687,
                            wall_time_ms=1240.0)
            ],
            label="31",
        )
        payload = json.loads(emit_table([report], "json"))
        assert isinstance(payload, list)
        recovered = report_from_dict(payload[0])
        assert recovered.to_dict() == report.to_dict()

    def test_nan_rejected(self):
        report = RunReport(
            command="x", config={}, model_fingerprint="",
            results=[ConstantRow("bad", float("nan"))],
        )
        with pytest.raises(ReportFieldError):
            report.validate()

    def test_inf_rejected(self):
        report = RunReport(
            command="x", config={}, model_fingerprint="",
            results=[ConstantRow("bad", 1.0, lower=float("inf"))],
        )
        with pytest.raises(ReportFieldError):
            report.validate()

    def test_table_formatting(self):
        report = RunReport(
            command="c", config={}, model_fingerprint="f",
            results=[ConstantRow("gamma_l1", 0.45788, lower=0.45778,
                                 gap=9.8531e-5, eps_optimal=True)],
            label="31",
        )
        csv = emit_table([report], "csv")
        assert csv.splitlines()[1] == "31,gamma_l1,0.4579,0.4578,9.85e-05,true,"
        text = emit_table([report], "text")
        assert "gamma_l1" in text and "9.85e-05" in text

    def test_empty_rows_header_only(self):
        assert emit_table([], "csv") == "n,name,value,lower,gap,eps_optimal,wall_time_ms"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_table([], "yaml")


# Strings that JSON escapes, or writes as \u escapes of one or two code units.
STRANGE_TEXTS = ['"', "\\", "\n", "\x00", "\x7f", "é", "😀", 'a"b\\c\nd\x00\x7fé😀']
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1.7976931348623157e308, 0.1, -1e-7, 123456789.0]


def json_reference(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)


def synthetic_reports() -> list[RunReport]:
    reports = [
        RunReport(text, {"eps_h": 1e-4, "eps_om": 1e-7, "segments": 10}, "ab" * 32,
                  [ConstantRow(text, 1.0, eps_optimal=True)], label=text)
        for text in STRANGE_TEXTS
    ]
    rows = [
        ConstantRow("f", x, lower=-x, gap=x, eps_optimal=False, subproblems=0,
                    evals=2**64, wall_time_ms=x)
        for x in EDGE_FLOATS
    ]
    reports.append(RunReport("floats", {"eps_h": 5e-324, "eps_om": 1e16, "segments": 1}, "", rows))
    reports.append(RunReport("nulls", {}, "", [ConstantRow("n", 2.5)]))
    reports.append(RunReport("empty", {}, "", []))
    return reports


class TestJsonWriter:
    @pytest.mark.parametrize(
        "argv",
        [
            ["lipschitz", "--case", "1", "--model", "traffic1"],
            ["lipschitz", "--case", "2", "--model", "traffic1"],
            ["osl", "--estimator", "frobenius", "--model", "moving1"],
            ["osl", "--estimator", "gershgorin", "--model", "moving1"],
            ["osl", "--estimator", "zeta", "--model", "moving1"],
            ["qib", "--eps1", "1e4", "--eps2", "0.1", "--model", "moving1"],
            ["qb", "--model", "moving1"],
            ["jacobian", "--model", "traffic1"],
            ["maximize", "--expr", "x*(1-x)", "--bounds", "x=[0,1]"],
            ["baseline", "--count", "16", "--model", "moving1"],
            ["baseline", "--objective", "jacobian-norm", "--count", "16", "--model", "moving1"],
            ["traffic-table", "--sections", "1,2,3"],
        ],
        ids=lambda argv: "-".join(argv[:3]),
    )
    def test_reports_of_every_command(self, model_files, monkeypatch, capsys, argv):
        # Timed, so wall_time_ms is a float too.
        argv = [model_files.get(word, word) for word in argv]
        emitted = []

        def capture(reports, fmt):
            emitted.append(reports)
            return emit_table(reports, fmt)

        monkeypatch.setattr(cli, "emit_table", capture)
        code, out, err = run_capture(capsys, argv)
        assert (code, err) == (0, "")
        (reports,) = emitted
        assert out == json_reference(reports) + "\n"

    def test_strings_floats_nulls_and_empty_results(self):
        reports = synthetic_reports()
        assert to_json(reports) == json_reference(reports)
        for report in reports:
            assert to_json([report]) == json_reference([report])
        assert to_json([]) == "[]"

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["value", "lower", "config"])
    def test_non_finite_float_is_refused(self, x, where):
        row = ConstantRow("bad", 1.0)
        report = RunReport("c", {}, "", [row])
        if where == "config":
            report.config["eps_h"] = x
        else:
            setattr(row, where, x)
        with pytest.raises(ReportFieldError):
            to_json([report])

    def test_quotes_without_the_json_extension(self):
        # Without CPython's _json, strings are quoted by json.encoder's Python
        # fallback, which json.dumps then uses too.
        script = (
            "import sys\n"
            "sys.modules['_json'] = None\n"
            "import json, json.encoder\n"
            "from certbound import report\n"
            "assert report._quote is json.encoder.py_encode_basestring_ascii\n"
            f"text = {ascii(''.join(STRANGE_TEXTS))}\n"
            "r = report.RunReport(text, {}, '', [report.ConstantRow(text, 1.0)], label=text)\n"
            "assert report.to_json([r]) == json.dumps([r.to_dict()], indent=2, sort_keys=True)\n"
        )
        src = os.path.dirname(os.path.dirname(certbound.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
        )
        assert (proc.returncode, proc.stderr) == (0, "")
