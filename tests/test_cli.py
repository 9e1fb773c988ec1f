"""The command-line surface: values, exit codes, CSV stability."""

import json

import pytest

from ifsim import builtin_dataset, dist_wu, dist_xiao, entropy_ifs, sim_wu_lambda
from ifsim.cli import main

AUDIT_FAST = ["--grid-step", "0.1", "--samples", "400", "--seed", "7"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDistSim:
    def test_dist_wu_builtin_dataset(self, capsys):
        code, out, _ = run(capsys, "dist", "--measure", "wu", "--data", "tableI_case1",
                           "--left", "A", "--right", "B")
        assert code == 0
        sets, w = builtin_dataset("tableI_case1")
        assert float(out) == dist_wu(sets["A"], sets["B"], w)
        assert float(out) == pytest.approx(0.08563, abs=2e-5)

    def test_sim_is_one_minus_dist(self, capsys):
        code, out, _ = run(capsys, "sim", "--measure", "xiao", "--data", "tableI_case5",
                           "--left", "A", "--right", "B")
        sets, _ = builtin_dataset("tableI_case5")
        assert code == 0
        assert float(out) == 1.0 - dist_xiao(sets["A"], sets["B"])

    def test_wu_lambda_needs_lambda(self, capsys):
        code, _, err = run(capsys, "dist", "--measure", "wu-lambda", "--data", "tableIII",
                           "--left", "P1", "--right", "S1")
        assert code == 2
        assert "lambda" in err

    def test_lambda_value_flows_through(self, capsys):
        code, out, _ = run(capsys, "sim", "--measure", "wu-lambda", "--lambda", str(1 / 3),
                           "--data", "tableIII", "--left", "P3", "--right", "S1")
        sets, w = builtin_dataset("tableIII")
        assert code == 0
        assert float(out) == sim_wu_lambda(sets["P3"], sets["S1"], w, 1 / 3)

    @pytest.mark.parametrize("argv,message", [
        (["dist", "--measure", "wu-lambda", "--lambda", "inf", "--data", "tableI_case1",
          "--left", "A", "--right", "B"], "lambda must be finite and > 0"),
        (["classify", "--measure", "jgamma", "--gamma", "inf", "--data", "tableIII",
          "--sample", "S1"], "gamma must be finite and > 0"),
    ])
    def test_infinite_param_is_a_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_file_dataset_and_weights_file(self, capsys, tmp_path):
        data = tmp_path / "d.json"
        data.write_text(json.dumps({
            "universe": ["x1", "x2"],
            "sets": {"A": [[0.3, 0.2], [0.4, 0.3]], "B": [[0.15, 0.25], [0.25, 0.35]]},
        }), encoding="utf-8")
        wfile = tmp_path / "w.json"
        wfile.write_text("[0.25, 0.75]", encoding="utf-8")
        code, out, _ = run(capsys, "dist", "--measure", "wu", "--data", str(data),
                           "--left", "A", "--right", "B", "--weights", str(wfile))
        assert code == 0
        assert float(out) > 0.0

    def test_unknown_set_name(self, capsys):
        code, _, err = run(capsys, "dist", "--measure", "wu", "--data", "tableI_case1",
                           "--left", "A", "--right", "Z")
        assert code == 2
        assert "'Z'" in err

    def test_missing_dataset(self, capsys):
        code, _, err = run(capsys, "dist", "--measure", "wu", "--data", "nope.json",
                           "--left", "A", "--right", "B")
        assert code == 2
        assert "neither" in err

    def test_usage_error_exit_two(self, capsys):
        code, _, _ = run(capsys, "dist", "--measure", "bogus", "--data", "tableIII",
                         "--left", "P1", "--right", "S1")
        assert code == 2


BAD_BYTES = b"\xff\xfe\x00bad"


class TestMalformedFiles:
    """Bad --data and --weights files exit 2 with one error line, no traceback."""

    def run_error(self, capsys, *argv):
        code, out, err = run(capsys, "dist", "--measure", "wu", "--left", "A", "--right", "B",
                             *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    def test_non_utf8_data_file(self, capsys, tmp_path):
        data = tmp_path / "d.json"
        data.write_bytes(BAD_BYTES)
        err = self.run_error(capsys, "--data", str(data))
        assert "not UTF-8 text" in err

    def test_non_utf8_weights_file(self, capsys, tmp_path):
        wfile = tmp_path / "w.json"
        wfile.write_bytes(BAD_BYTES)
        err = self.run_error(capsys, "--data", "tableI_case1", "--weights", str(wfile))
        assert f"cannot read weights file {str(wfile)!r}" in err

    @pytest.mark.parametrize("text, message", [
        ('["a", 0.5]', "expected a list of numbers"),
        ("[[0.5], 0.5]", "expected a list of numbers"),
        ('["0.5", "0.5"]', "expected a list of numbers"),
        ("[true, 0.5]", "expected a list of numbers"),
        ('{"w": [0.5, 0.5]}', "expected a list of numbers"),
        ("null", "expected a list of numbers"),
        ("[0.2, 0.3, 0.5]", "3 entries for a universe of 2 elements"),
        ("[0.5, 0.6]", "weights (2 entries)"),
        ("[0.5,", "cannot read weights file"),
    ])
    def test_bad_weights_file(self, capsys, tmp_path, text, message):
        wfile = tmp_path / "w.json"
        wfile.write_text(text, encoding="utf-8")
        err = self.run_error(capsys, "--data", "tableI_case1", "--weights", str(wfile))
        assert str(wfile) in err and message in err


class TestEntropyCommand:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "entropy", "--data", "tableIII", "--set", "P1")
        sets, w = builtin_dataset("tableIII")
        assert code == 0
        assert float(out) == entropy_ifs(sets["P1"], w)


class TestAuditCommand:
    def test_strict_measure_exits_zero(self, capsys):
        code, out, _ = run(capsys, "audit", "--measure", "wu", *AUDIT_FAST)
        assert code == 0
        assert "result: PASS" in out

    def test_xiao_exits_one_with_witness(self, capsys):
        code, out, _ = run(capsys, "audit", "--measure", "xiao", *AUDIT_FAST)
        assert code == 1
        assert "S4'" in out and "fail" in out
        assert "a = <0.33" in out  # the pinned counterexample chain is printed

    def test_entropy_audit(self, capsys):
        code, out, _ = run(capsys, "audit", "--measure", "entropy", *AUDIT_FAST)
        assert code == 0
        assert "E4" in out

    @pytest.mark.parametrize("flags,message", [
        (["--lambda", "5"], "--lambda is only valid with --measure wu-lambda"),
        (["--gamma", "2"], "--gamma is only valid with --measure jgamma"),
        (["--lambda", "5", "--gamma", "2"], "--lambda is only valid with --measure wu-lambda"),
    ])
    def test_entropy_audit_rejects_measure_params(self, capsys, flags, message):
        code, out, err = run(capsys, "audit", "--measure", "entropy", *AUDIT_FAST, *flags)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


    @pytest.mark.parametrize("flags", [["--tolerance", "inf"], ["--tolerance", "nan"]])
    def test_non_finite_tolerance_is_a_usage_error(self, capsys, flags):
        code, out, err = run(capsys, "audit", "--measure", "wu", "--grid-step", "0.1",
                             "--samples", "200", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance must be finite and > 0")


class TestClassifyCommand:
    def test_table_three_winner(self, capsys):
        code, out, _ = run(capsys, "classify", "--measure", "wu-lambda", "--lambda",
                           str(1 / 3), "--data", "tableIII", "--sample", "S1")
        assert code == 0
        assert "winner: P3" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "classify", "--measure", "yc", "--data", "tableIII",
                           "--sample", "S1", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "pattern,similarity"
        assert len(lines) == 4

    def test_nan_tie_tol_rejected(self, capsys):
        code, out, err = run(capsys, "classify", "--measure", "wu", "--data", "tableIII",
                             "--sample", "S1", "--tie-tol", "nan")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "tie_tol" in err


class TestReproCommand:
    def test_single_passing_scenario(self, capsys):
        code, out, _ = run(capsys, "repro", "--scenario", "ex1-xiao-s4")
        assert code == 0
        assert "result: PASS" in out

    def test_unknown_scenario(self, capsys):
        code, _, err = run(capsys, "repro", "--scenario", "nope")
        assert code == 2
        assert "unknown scenario" in err

    def test_all_reports_known_discrepancy(self, capsys):
        # tab2-distances carries the documented source inconsistency, so the
        # aggregate run exits 1 and says which checks failed
        code, out, _ = run(capsys, "repro", "--scenario", "all")
        assert code == 1
        assert "10/11 scenarios passed" in out
        assert "inconsistent with their stated inputs" in out


class TestRemovedFlags:
    # these flags were accepted and ignored; classify and curve keep --format
    @pytest.mark.parametrize("argv", [
        ["dist", "--measure", "wu", "--data", "tableI_case1", "--left", "A", "--right", "B",
         "--format", "text"],
        ["sim", "--measure", "wu", "--data", "tableI_case1", "--left", "A", "--right", "B",
         "--format", "csv"],
        ["entropy", "--data", "tableIII", "--set", "P1", "--format", "text"],
        ["audit", "--measure", "wu", *AUDIT_FAST, "--format", "text"],
        ["repro", "--scenario", "ex1-xiao-s4", "--format", "text"],
        ["repro", "--scenario", "ex1-xiao-s4", "--seed", "1"],
    ])
    def test_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err


class TestCurveCommand:
    def test_csv_header_and_shape(self, capsys):
        code, out, _ = run(capsys, "curve", "--family", "fig7", "--steps", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "lambda,wu_nu0,wu_pi0"
        assert len(lines) == 6

    def test_byte_stable(self, capsys):
        _, first, _ = run(capsys, "curve", "--family", "fig9", "--steps", "41")
        _, second, _ = run(capsys, "curve", "--family", "fig9", "--steps", "41")
        assert first == second

    def test_write_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "fig7.csv"
        code, out, _ = run(capsys, "curve", "--family", "fig7", "--steps", "3",
                           "--out", str(out_path))
        assert code == 0
        assert out == ""
        text = out_path.read_text(encoding="utf-8")
        assert text.startswith("lambda,")
        assert text.endswith("\n")

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "curve", "--family", "fig99")
        assert code == 2
        assert "unknown curve family" in err
