"""Command-line surface: subcommands, formats, exit codes, determinism."""

import json
import math

import pytest

from certbound.cli import run
from certbound.report import ConstantRow, RunReport, ReportFieldError, emit_table


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

    def test_model_error_missing_flag(self, capsys):
        code, _, err = run_capture(capsys, ["lipschitz"])
        assert code == 3 and "requires --model" in err

    def test_model_error_bad_content(self, tmp_path, capsys):
        bad = tmp_path / "bad.nds"
        bad.write_text("[states]\nx1 = [0, 1]\n[f]\nf1 = sin(x1\n")
        code, out, err = run_capture(capsys, ["lipschitz", "--model", str(bad)])
        assert code == 3 and out == ""

    def test_computation_error(self, tmp_path, capsys):
        # quadratic boundedness requires an input-free model
        model = tmp_path / "with_input.nds"
        model.write_text(
            "[states]\nx1 = [-1, 1]\n[inputs]\nu1 = [-1, 1]\n[f]\nf1 = x1*u1\n"
        )
        code, out, err = run_capture(capsys, ["qb", "--model", str(model)])
        assert code == 4
        assert "precondition" in err

    def test_diagnostics_never_on_stdout(self, capsys):
        code, out, err = run_capture(capsys, ["osl", "--model", "/nope.nds"])
        assert out == "" and err != ""


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

    def test_maximize_constant_keeps_full_box(self, capsys):
        code, out, _ = run_capture(
            capsys, ["maximize", "--expr", "2", "--bounds", "x=[0,1]", "--no-timing"]
        )
        assert code == 0
        assert json.loads(out)[0]["results"][0]["value"] == 2.0

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
        from certbound import load_model

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
        recovered = RunReport.from_dict(payload[0])
        assert recovered == report

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
