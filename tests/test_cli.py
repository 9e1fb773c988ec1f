"""The command-line surface: values, exit codes, CSV stability, and what
each command imports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ifsim
from ifsim import (IFS, PatternLibrary, WeightVector, builtin_dataset, classify, dist_wu, dist_xiao,
                   entropy_ifs, get_measure, sim_wu_lambda, uniform_weights)
from ifsim.cli import _curve_text, _fmt, main
from ifsim.scenarios import FAMILY_IDS, SCENARIO_IDS, sweep_curve

AUDIT_FAST = ["--grid-step", "0.1", "--samples", "400", "--seed", "7"]
BIG = 10**400  # an int too large for a float


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

    def test_uniform_weights_override_the_dataset_weights(self, capsys, tmp_path):
        data = tmp_path / "d.json"
        pairs = {"A": [[0.3, 0.2], [0.4, 0.3]], "B": [[0.15, 0.25], [0.05, 0.85]]}
        data.write_text(json.dumps({"universe": ["x1", "x2"], "sets": pairs,
                                    "weights": [0.25, 0.75]}), encoding="utf-8")
        argv = ["dist", "--measure", "wu", "--data", str(data), "--left", "A", "--right", "B"]
        _, weighted, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--weights", "uniform")
        a, b = (IFS.from_pairs(p) for p in pairs.values())
        assert code == 0
        assert float(out) == dist_wu(a, b, uniform_weights(2)) != float(weighted)

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
LONG_LITERAL = "1" + "0" * 5000  # above the interpreter's 4,300-digit int limit
DEEP = "[" * 100_000 + "]" * 100_000  # deeper than the decoder's recursion limit


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
        (f"[{LONG_LITERAL}, 0.5]", "cannot read weights file"),
        (DEEP, "cannot read weights file"),
    ], ids=lambda v: v if len(v) < 40 else f"{v[:8]}...({len(v)} chars)")
    def test_bad_weights_file(self, capsys, tmp_path, text, message):
        wfile = tmp_path / "w.json"
        wfile.write_text(text, encoding="utf-8")
        err = self.run_error(capsys, "--data", "tableI_case1", "--weights", str(wfile))
        assert str(wfile) in err and message in err

    @pytest.mark.parametrize("sets,weights,message", [
        ({"A": [[0.3, 0.2]], "B": [[BIG, 0]]}, None, "set 'B', pair 1 [1000"),
        ({"A": [[0.3, 0.2]], "B": [[0.1, 0.2]]}, [BIG], "weights (1 entries): a weight is too large"),
    ])
    def test_int_too_large_for_a_float_in_data_file(self, capsys, tmp_path, sets, weights, message):
        data = tmp_path / "big.json"
        doc = {"universe": ["x1"], "sets": sets, **({"weights": weights} if weights else {})}
        data.write_text(json.dumps(doc), encoding="utf-8")
        err = self.run_error(capsys, "--data", str(data))
        assert message in err and "too large for a float" in err and len(err) < 120

    @pytest.mark.parametrize("text,message", [
        ('{"universe": ["x1"], "sets": {"A": [[%s, 0]], "B": [[0, 0]]}}' % LONG_LITERAL,
         "an integer has more than"),
        (DEEP, "nested too deeply"),
    ], ids=["int-over-digit-limit", "nested-too-deeply"])
    def test_json_that_the_decoder_refuses_in_data_file(self, capsys, tmp_path, text, message):
        data = tmp_path / "d.json"
        data.write_text(text, encoding="utf-8")
        err = self.run_error(capsys, "--data", str(data))
        assert err.startswith("error: invalid JSON: ") and message in err

    def test_int_too_large_for_a_float_in_weights_file(self, capsys, tmp_path):
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps([BIG, 0.5]), encoding="utf-8")
        err = self.run_error(capsys, "--data", "tableI_case1", "--weights", str(wfile))
        assert err == (f"error: weights file {str(wfile)!r}: "
                       "weights (2 entries): a weight is too large for a float\n")


TABLE_III = {
    "dist": ["dist", "--data", "tableIII", "--left", "P1", "--right", "S1"],
    "sim": ["sim", "--data", "tableIII", "--left", "P1", "--right", "S1"],
    "classify": ["classify", "--data", "tableIII", "--sample", "S1"],
}
SKEWED = (0.5, 0.3, 0.2)


class TestWeightsFlag:
    """--weights is taken only by the measures that read weights."""

    @pytest.fixture
    def weights(self, tmp_path):
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(SKEWED), encoding="utf-8")
        return {"uniform": ("uniform", uniform_weights(3)), "file": (str(wfile), WeightVector(SKEWED))}

    @pytest.mark.parametrize("source", ["uniform", "file"])
    @pytest.mark.parametrize("measure", [["xiao"], ["yc"], ["jgamma", "--gamma", "1"]], ids=lambda m: m[0])
    @pytest.mark.parametrize("command", TABLE_III)
    def test_refused_where_the_measure_ignores_weights(self, capsys, weights, command, measure, source):
        code, out, err = run(capsys, *TABLE_III[command], "--measure", *measure,
                             "--weights", weights[source][0])
        assert (code, out) == (2, "")
        assert err == f"error: measure {measure[0]!r} averages with a fixed 1/n and takes no --weights\n"

    def test_refused_before_any_file_is_read(self, capsys, tmp_path):
        code, out, err = run(capsys, "dist", "--measure", "yc", "--data", str(tmp_path / "no.json"),
                             "--left", "A", "--right", "B", "--weights", str(tmp_path / "no-w.json"))
        assert (code, out) == (2, "")
        assert err == "error: measure 'yc' averages with a fixed 1/n and takes no --weights\n"

    @pytest.mark.parametrize("source", ["uniform", "file"])
    @pytest.mark.parametrize("measure", [["wu"], ["wu-lambda", "--lambda", "0.5"]], ids=lambda m: m[0])
    @pytest.mark.parametrize("command", TABLE_III)
    def test_read_by_a_weighted_measure(self, capsys, weights, command, measure, source):
        arg, w = weights[source]
        code, out, _ = run(capsys, *TABLE_III[command], "--measure", *measure, "--weights", arg)
        assert code == 0
        md = get_measure(measure[0], **({"lam": 0.5} if len(measure) > 1 else {}))
        sets, _ = builtin_dataset("tableIII")
        if command == "classify":
            lib = PatternLibrary(tuple((n, sets[n]) for n in ("P1", "P2", "P3")), w)
            scores = classify(lib, sets["S1"], md).scores
            assert out.splitlines()[:3] == [f"{n}: {_fmt(x)}" for n, x in scores]
        else:
            d = md.evaluator(sets["P1"], sets["S1"], w)
            assert float(out) == (1.0 - d if command == "sim" else d)

    def test_a_datasets_weights_stay_silent_for_a_mean_measure(self, capsys, tmp_path):
        sets, _ = builtin_dataset("tableIII")
        doc = {"universe": list(sets["S1"].universe),
               "sets": {n: x.degrees.T.tolist() for n, x in sets.items()}}
        outs = []
        for extra in ({}, {"weights": list(SKEWED)}):
            data = tmp_path / f"d{len(extra)}.json"
            data.write_text(json.dumps({**doc, **extra}), encoding="utf-8")
            code, out, _ = run(capsys, "classify", "--measure", "yc", "--data", str(data),
                               "--sample", "S1")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_weight_sum_above_one_keeps_values_in_range(self, capsys, tmp_path):
        # weights summing to 1 + 9e-10, within WEIGHT_SUM_TOL, on the opposite endpoints
        data, wfile = tmp_path / "d.json", tmp_path / "w.json"
        data.write_text(json.dumps({"universe": ["x", "y"], "sets": {
            "A": [[1.0, 0.0], [1.0, 0.0]], "B": [[0.0, 1.0], [0.0, 1.0]]}}), encoding="utf-8")
        wfile.write_text("[0.5, 0.5000000009]", encoding="utf-8")
        outs = [run(capsys, *argv, "--data", str(data), "--weights", str(wfile))
                for argv in (["dist", "--measure", "wu", "--left", "A", "--right", "B"],
                             ["sim", "--measure", "wu", "--left", "A", "--right", "B"],
                             ["entropy", "--set", "A"])]
        assert outs == [(0, "1\n", ""), (0, "0\n", ""), (0, "0\n", "")]

    def test_entropy_takes_weights(self, capsys, weights):
        arg, w = weights["file"]
        code, out, _ = run(capsys, "entropy", "--data", "tableIII", "--set", "P1", "--weights", arg)
        assert code == 0
        assert float(out) == entropy_ifs(builtin_dataset("tableIII")[0]["P1"], w)


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

    @pytest.mark.parametrize("flags", [["--tolerance", "inf"], ["--tolerance", "nan"]])
    def test_non_finite_tolerance_is_a_usage_error(self, capsys, flags):
        code, out, err = run(capsys, "audit", "--measure", "wu", "--grid-step", "0.1",
                             "--samples", "200", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance must be finite and > 0")


@pytest.mark.parametrize("argv,message", [
    (["audit", "--measure", "entropy", *AUDIT_FAST, "--lambda", "5"],
     "measure 'entropy' does not take: lambda"),
    (["audit", "--measure", "entropy", *AUDIT_FAST, "--gamma", "2"],
     "measure 'entropy' does not take: gamma"),
    (["audit", "--measure", "entropy", *AUDIT_FAST, "--lambda", "5", "--gamma", "2"],
     "measure 'entropy' does not take: lambda, gamma"),
    (["sim", "--measure", "wu-lambda", "--data", "tableIII", "--left", "P1", "--right", "S1"],
     "measure 'wu-lambda' requires parameter(s): lambda"),
    (["dist", "--measure", "wu", "--gamma", "2", "--data", "tableI_case1",
      "--left", "A", "--right", "B"], "measure 'wu' does not take: gamma"),
    # counts stop at sys.maxsize and at numpy's array limit, so none of these allocates
    (["audit", "--measure", "wu", "--samples", str(10**20)],
     f"random_pairs must be an integer in [1, {sys.maxsize}], got {10**20}"),
    (["audit", "--measure", "wu", "--grid-step", "0.5", "--samples", str(10**18)],
     f"random_pairs {10**18} needs an array of {32 * 10**18} bytes, "
     f"above numpy's limit of {sys.maxsize}"),
    (["audit", "--measure", "wu", "--grid-step", "1e-300"],
     f"grid_step 1e-300: points per axis must be an integer in [3, {sys.maxsize}], "
     "got <int of 997 bits>"),
    (["curve", "--family", "fig7", "--steps", str(10**20)],
     f"steps must be an integer in [2, {sys.maxsize}], got {10**20}"),
], ids=["entropy-lambda", "entropy-gamma", "entropy-both", "missing-lambda", "foreign-gamma",
        "audit-samples", "audit-samples-array", "audit-grid-step", "curve-steps"])
def test_bad_parameter_or_count_is_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_count_that_memory_cannot_hold_is_one_error_line(capsys):
    # within numpy's limit, but 5.3 EiB of pairs: no address space holds it,
    # so the allocation fails at once
    code, out, err = run(capsys, "audit", "--measure", "wu", "--grid-step", "0.5",
                         "--samples", str(sys.maxsize // 48))
    assert code == 2
    assert out == ""
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1


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

    def test_dataset_of_only_the_sample(self, capsys, tmp_path):
        data = tmp_path / "d.json"
        data.write_text(json.dumps({"universe": ["x1"], "sets": {"S": [[0.3, 0.2]]}}),
                        encoding="utf-8")
        code, out, err = run(capsys, "classify", "--measure", "wu", "--data", str(data),
                             "--sample", "S")
        assert (code, out) == (2, "")
        assert err == "error: dataset holds no patterns besides the sample\n"

    def test_identical_patterns_are_undecided(self, capsys, tmp_path):
        data = tmp_path / "d.json"
        pairs = [[0.3, 0.2], [0.4, 0.3]]
        data.write_text(json.dumps({"universe": ["x1", "x2"], "sets": {
            "P": pairs, "Q": pairs, "S": [[0.1, 0.6], [0.2, 0.2]]}}), encoding="utf-8")
        code, out, _ = run(capsys, "classify", "--measure", "wu", "--data", str(data),
                           "--sample", "S")
        assert code == 0
        assert out.endswith("\nundecided (tie margin 0 <= 0.0001)\n")

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
        # --help does not list the ids
        assert err == f"error: unknown scenario 'nope'; known: {', '.join(SCENARIO_IDS)}\n"

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
        # --help does not list the ids
        assert err == f"error: unknown curve family 'fig99'; known: {', '.join(FAMILY_IDS)}\n"


def _curve_text_per_value(table, csv):
    sep = "," if csv else "  "
    lines = [sep.join(table.columns)]
    lines += [sep.join(_fmt(v) for v in row) for row in table.rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("family", [*FAMILY_IDS, "fig3"])
@pytest.mark.parametrize("steps", [2, 7, 101])
def test_curve_rows_format_as_each_value(family, steps):
    table = sweep_curve(family, steps)
    for csv in (True, False):
        assert _curve_text(table, csv) == _curve_text_per_value(table, csv)


SRC = Path(__file__).resolve().parents[1] / "src"
LAZY = ("ifsim.audit", "ifsim.recognition", "ifsim.scenarios")
SCENARIO_MODULES = {"ifsim.recognition", "ifsim.scenarios"}  # scenarios imports recognition


def run_fresh(code: str) -> str:
    """Run code in a fresh interpreter on src/; its stdout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# bare import, the two --help texts that used to list ids, and the mix of
# commands that the benchmark times, on cheap arguments
@pytest.mark.parametrize("argv,loaded", [
    (None, set()),
    (["repro", "--help"], set()),
    (["curve", "--help"], set()),
    (["repro", "--scenario", "ex1-xiao-s4"], SCENARIO_MODULES),
    (["curve", "--family", "fig10", "--steps", "3"], SCENARIO_MODULES),
    (["curve", "--family", "entropy-surface", "--steps", "3"], SCENARIO_MODULES),
    (["classify", "--measure", "wu", "--data", "tableIII", "--sample", "S1"],
     {"ifsim.recognition"}),
    (["dist", "--measure", "wu", "--data", "tableI_case1", "--left", "A", "--right", "B"], set()),
    (["sim", "--measure", "wu-lambda", "--lambda", "0.5", "--data", "tableIII", "--left", "P3",
      "--right", "S1"], set()),
    (["entropy", "--data", "tableIII", "--set", "P1"], set()),
    (["audit", "--measure", "entropy", *AUDIT_FAST], {"ifsim.audit"}),
], ids=lambda v: ("import ifsim" if v is None
                   else " ".join(v if isinstance(v, list) else sorted(v))))
def test_each_command_imports_only_what_it_runs(argv, loaded):
    code = "import contextlib, io, json, sys\nimport ifsim\n"
    if argv is not None:
        code += ("import ifsim.cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    ifsim.cli.main({argv!r})\n")
    code += f"print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))\n"
    assert set(json.loads(run_fresh(code))) == loaded


def test_package_contract():
    run_fresh("""
import importlib, sys, types
import ifsim

lazy = ("audit", "recognition", "scenarios")
assert not any(f"ifsim.{m}" in sys.modules for m in lazy)
assert set(ifsim.__all__) <= set(dir(ifsim))
for m in lazy:
    assert getattr(ifsim, m) is sys.modules[f"ifsim.{m}"]
    assert isinstance(getattr(ifsim, m), types.ModuleType)
homes = [importlib.import_module(f"ifsim.{m}") for m in (
    "audit", "baselines", "core", "datasets", "measures", "recognition", "registry", "scenarios")]
for name in ifsim.__all__:
    value = getattr(ifsim, name)
    defining = [home for home in homes if name in vars(home)] or [ifsim]
    assert all(vars(home)[name] is value for home in defining), name
ns = {}
exec("from ifsim import *", ns)
assert all(ns[name] is getattr(ifsim, name) for name in ifsim.__all__)
try:
    ifsim.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("ifsim.no_such_name resolved")
""")


def test_dir_lists_lazy_names_without_loading_them():
    run_fresh("""
import sys, ifsim
assert {"classify", "recognition"} <= set(dir(ifsim))
assert "ifsim.recognition" not in sys.modules
""")
    assert set(ifsim._LAZY) <= set(dir(ifsim))  # the same __dir__, in this process
