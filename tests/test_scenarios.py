"""The golden-value scenario catalog and the curve-family sweeps."""

import re
import sys

import numpy as np
import pytest
from mpmath import mp, mpf

import exact
from conftest import LONG_INT, LONG_INT_SHOWN
from ifsim import (
    SCENARIO_IDS,
    builtin_dataset,
    NumericalConsistencyError,
    OutOfRangeError,
    UnknownFamilyError,
    UnknownScenarioError,
    run_all_scenarios,
    run_scenario,
    scenarios,
    sweep_curve,
)
from ifsim.cli import main
from ifsim.scenarios import _TAB2_NOTE

EXPECTED_IDS = (
    "ex1-xiao-s4", "ex1-crossing", "ex2-xiao-monotone", "ex3-xiao-degeneracy",
    "ex4-yc-s4", "ex5-yc-degeneracy", "tab2-distances", "ex8-closed-forms",
    "ex9-fixed-mu-nu-surfaces", "ex11-yc-vs-wu", "tab4-classify",
)


class TestCatalog:
    def test_catalog_ids(self):
        assert SCENARIO_IDS == EXPECTED_IDS

    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenarioError):
            run_scenario("ex99-nope")

    @pytest.mark.parametrize("sid", [s for s in EXPECTED_IDS if s != "tab2-distances"])
    def test_scenario_passes(self, sid):
        report = run_scenario(sid)
        assert report.passed, report.to_text()

    def test_reports_carry_scenario_id(self):
        for report in run_all_scenarios():
            assert report.scenario in EXPECTED_IDS


class TestTab2KnownDiscrepancy:
    """Cases 3 and 4 of the published comparison table are inconsistent with
    their stated inputs (the exact reference reproduces the note's values);
    the scenario must report that instead of widening tolerances."""

    def test_pass_fail_pattern(self):
        report = run_scenario("tab2-distances")
        assert not report.passed
        by_desc = {c.description: c.passed for c in report.checks}
        for case in (1, 2, 5):
            assert by_desc[f"case {case} d_xiao"]
            assert by_desc[f"case {case} d_wu, uniform weights"]
        for case in (3, 4):
            assert not by_desc[f"case {case} d_xiao (known source inconsistency)"]
            assert not by_desc[f"case {case} d_wu, uniform weights (known source inconsistency)"]

    def test_note_documents_the_discrepancy(self):
        report = run_scenario("tab2-distances")
        assert any("inconsistent with their stated inputs" in n for n in report.notes)
        assert any("uniform (0.5, 0.5)" in n for n in report.notes)

    def test_note_values_are_exact(self):
        # the note's recomputed d_xiao and d_wu for cases 3 and 4, each to 1e-16
        found = re.search(r"d_xiao ([\d.]+) / ([\d.]+) and d_wu ([\d.]+) / ([\d.]+)", _TAB2_NOTE)
        quoted = dict(zip([("xiao", 3), ("xiao", 4), ("wu", 3), ("wu", 4)], found.groups()))
        for (measure, case), text in quoted.items():
            sets, w = builtin_dataset(f"tableI_case{case}")
            want = exact.dist(measure, sets["A"], sets["B"], w if measure == "wu" else None)
            with mp.workprec(200):
                assert abs(mpf(text) - want) <= 1e-16

    def test_text_rendering_flags_failures(self):
        text = run_scenario("tab2-distances").to_text()
        assert "[FAIL]" in text and "[pass]" in text
        assert "result: FAIL" in text


class TestCrossingScenario:
    def test_crossing_found_inside_interval(self):
        report = run_scenario("ex1-crossing")
        assert report.passed
        note = report.notes[0]
        lam_star = float(note.rsplit("=", 1)[1])
        assert 0.0 < lam_star < 0.36


class TestCurves:
    def test_fig7_closed_forms(self):
        table = sweep_curve("fig7", 101)
        assert table.columns == ("lambda", "wu_nu0", "wu_pi0")
        lam = table.rows[:, 0]
        assert np.max(np.abs(table.rows[:, 1] - np.sqrt((1 - lam) / 2))) <= 1e-12
        assert np.max(np.abs(table.rows[:, 2] - np.sqrt(1 - lam))) <= 1e-12

    def test_fig6_monotone_window(self):
        table = sweep_curve("fig6", 68)  # includes many points inside (1/3, 0.5)
        lam, d = table.rows[:, 0], table.rows[:, 1]
        window = (lam > 1 / 3) & (lam < 0.5)
        assert window.sum() >= 2
        assert np.all(np.diff(d[window]) < 0.0)

    def test_fig6_guard_refuses_a_rising_family(self, monkeypatch, capsys):
        monkeypatch.setattr(scenarios, "_decreasing_family", lambda lams: lams.copy())
        with pytest.raises(NumericalConsistencyError, match="strictly decreasing"):
            sweep_curve("fig6")
        assert main(["curve", "--family", "fig6"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: fig6 family") and err.count("\n") == 1

    def test_entropy_surface(self):
        table = sweep_curve("entropy-surface", 51)
        mu, nu, ent = table.rows.T
        assert np.all((0.0 <= ent) & (ent <= 1.0))
        diag = mu == nu
        assert diag.sum() > 0
        assert np.all(ent[diag] == 1.0)

    def test_fig3_is_entropy_surface_alias(self):
        a = sweep_curve("fig3", 21)
        b = sweep_curve("entropy-surface", 21)
        assert np.array_equal(a.rows, b.rows)

    def test_fig1_brackets_the_crossing(self):
        table = sweep_curve("fig1", 361)
        gap = table.rows[:, 1] - table.rows[:, 2]
        assert gap[1] > 0.0  # near curve starts above
        assert gap[-1] < 0.0  # and ends below
        assert np.any(gap[:-1] * gap[1:] <= 0.0)

    def test_fig9_shows_yc_degeneracy_and_wu_separation(self):
        table = sweep_curve("fig9", 101)
        yc_gap = np.abs(table.rows[:, 1] - table.rows[:, 2])
        wu_gap = table.rows[:, 4] - table.rows[:, 3]
        assert np.max(yc_gap) <= 1e-12
        assert np.all(wu_gap[:-1] > 0.0)

    def test_surface_families_stay_on_simplex(self):
        for fam in ("fig4", "fig10"):
            table = sweep_curve(fam, 26)
            mu, nu = table.rows[:, 0], table.rows[:, 1]
            assert np.all(mu + nu <= 1.0 + 1e-9)
            assert np.all(table.rows[:, 2:] >= 0.0)
            assert np.all(table.rows[:, 2:] <= 1.0)

    def test_steps_validation(self):
        for steps in (1, 2.5, 3.0, True):
            with pytest.raises(OutOfRangeError) as info:
                sweep_curve("fig7", steps)
            assert str(info.value) == f"steps must be an integer in [2, {sys.maxsize}], got {steps!r}"

    def test_steps_too_long_to_print(self):
        with pytest.raises(OutOfRangeError) as info:
            sweep_curve("fig7", LONG_INT)
        assert str(info.value) == f"steps must be an integer in [2, {sys.maxsize}], got {LONG_INT_SHOWN}"

    def test_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            sweep_curve("fig99")

    def test_row_shapes(self):
        table = sweep_curve("fig5", 11)
        assert table.rows.shape == (11, len(table.columns))
