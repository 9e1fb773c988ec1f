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
