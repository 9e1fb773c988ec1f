"""Acceptance gate: every criterion at its stated tolerance.

One test per criterion; each prints a single `[criterion NN] PASS/FAIL` line
(visible with `pytest tests/test_acceptance.py -v -s`).

Criterion 02 (the published pairwise comparison table) is expected to FAIL
for four of its ten values: cases 3 and 4 of the published table are
inconsistent with their own stated inputs, verified against the exact
reference (tests/exact.py), and the check is kept faithful rather than
widened.  All other criteria pass.
"""

import math
import time

import numpy as np
import pytest

import exact
from ifsim import (
    IFS,
    IFV,
    AuditConfig,
    PatternLibrary,
    audit_distance,
    audit_entropy,
    builtin_dataset,
    classify,
    dist_wu,
    dist_xiao,
    entropy_ifv,
    get_measure,
    run_scenario,
    sim_xiao,
)
from ifsim.audit import _random_simplex
from ifsim.baselines import j_gamma_batch, xiao_elem_batch, yc_elem_batch
from ifsim.measures import js_norm_batch, z_score_batch

LN2 = math.log(2.0)


def _line(num: int, ok: bool, message: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {message}")


def _one(mu, nu):
    return IFS(("x",), (IFV(mu, nu),))


@pytest.fixture(scope="module")
def full_audit():
    """The strict measure audited at the full documented sampling plan."""
    t0 = time.perf_counter()
    report = audit_distance(get_measure("wu"), AuditConfig())
    return report, time.perf_counter() - t0


def test_criterion_01_example_one_golden_values():
    i1, i2, i3 = _one(0.33, 0.36), _one(1 / 3, 1 / 3), _one(0.334, 0.333333)
    s12, s13 = sim_xiao(i1, i2), sim_xiao(i1, i3)
    ok = (abs(s12 - 0.9738972) <= 1e-6 and abs(s13 - 0.9741713) <= 1e-6 and s12 < s13)
    _line(1, ok, f"golden similarities {s12:.9f}, {s13:.9f} within 1e-6; "
                 "order violation reproduced")
    assert abs(s12 - 0.9738972) <= 1e-6
    assert abs(s13 - 0.9741713) <= 1e-6
    assert s12 < s13


TAB2_EXPECTED = {
    ("xiao", 1): 0.14614, ("xiao", 2): 0.13531, ("xiao", 3): 0.17210,
    ("xiao", 4): 0.13352, ("xiao", 5): 0.13224,
    ("wu", 1): 0.08563, ("wu", 2): 0.08568, ("wu", 3): 0.07462,
    ("wu", 4): 0.09802, ("wu", 5): 0.09615,
}


def test_criterion_02_published_table_reproduction():
    failures = []
    for (measure, case), expected in TAB2_EXPECTED.items():
        sets, w = builtin_dataset(f"tableI_case{case}")
        computed = (dist_xiao(sets["A"], sets["B"]) if measure == "xiao"
                    else dist_wu(sets["A"], sets["B"], w))
        if abs(computed - expected) > 2e-5:
            failures.append(f"{measure} case {case}: published {expected}, "
                            f"computed {computed:.17g}")
    ok = not failures
    _line(2, ok, "all ten published values within 2e-5" if ok else
          f"{len(failures)}/10 values irreproducible from the stated inputs "
          "(cases 3 and 4; verified source inconsistency, see scenario "
          "tab2-distances notes)")
    assert not failures, (
        "published comparison values irreproducible from their stated inputs "
        "(50-digit recomputation confirms; the published cases 3 and 4 are "
        "internally inconsistent):\n  " + "\n  ".join(failures)
    )


TAB4_EXPECTED = {
    "yc": (0.89, 0.77, 0.90),
    "xiao": (0.85, 0.69, 0.86),
    "wu-lambda": (0.91, 0.84, 0.92),
}


def test_criterion_03_classification_table():
    sets, w = builtin_dataset("tableIII")
    lib = PatternLibrary(tuple((n, sets[n]) for n in ("P1", "P2", "P3")), w)
    problems = []
    for name, expected in TAB4_EXPECTED.items():
        params = {"lambda": 1 / 3} if name == "wu-lambda" else {}
        md = get_measure(name, **params)
        result = classify(lib, sets["S1"], md, tie_tol=1e-4)
        scores = dict(result.scores)
        for pat, exp in zip(("P1", "P2", "P3"), expected):
            if abs(scores[pat] - exp) > 5e-3:
                problems.append(f"{name}/{pat}: {scores[pat]:.5f} vs {exp}")
        if result.winner != "P3" or result.undecided:
            problems.append(f"{name}: winner {result.winner!r}")
    ok = not problems
    _line(3, ok, "similarity rows within 5e-3 and all three measures classify to P3"
          if ok else "; ".join(problems))
    assert not problems


def test_criterion_04_closed_forms():
    lams = np.arange(0, 101) / 100.0
    zeros = np.zeros_like(lams)
    devs = {
        "wu <lam,0>": np.max(np.abs(js_norm_batch(1.0, 0.0, lams, zeros)
                                    - np.sqrt((1 - lams) / 2))),
        "wu <lam,1-lam>": np.max(np.abs(js_norm_batch(1.0, 0.0, lams, 1.0 - lams)
                                        - np.sqrt(1 - lams))),
        "yc <lam,0>": np.max(np.abs(yc_elem_batch(1.0, 0.0, lams, zeros)
                                    - (2 / math.pi) * np.arccos(np.sqrt(lams)))),
        "xiao from <0,1>": np.max(np.abs(xiao_elem_batch(0.0, 1.0, lams, zeros) - 1.0)),
    }
    worst = max(devs.values())
    ok = worst <= 1e-12
    _line(4, ok, f"four closed-form families on the 0.01 grid; max deviation {worst:.3g}")
    for name, dev in devs.items():
        assert dev <= 1e-12, f"{name} deviates by {dev}"


def test_criterion_05_strict_measure_axiom_suite(full_audit):
    report, wall = full_audit
    entries = {c.axiom: c for c in report.checks}
    sup = entries["S5"].stats["sup_non_endpoint"]
    checks = {
        "symmetry exact": entries["S3"].verdict == "pass",
        "bounds [0,1]": entries["S1"].verdict == "pass"
                        and 0.0 <= entries["S1"].stats["min"]
                        and entries["S1"].stats["max"] <= 1.0,
        "identity": entries["S2"].verdict == "pass",
        "weak chains": entries["S4"].verdict == "pass",
        "strict chains zero violations": entries["S4'"].verdict == "pass"
                                         and entries["S4'"].stats["violations"] == 0,
        "triangle at 1e-12": entries["D-triangle"].verdict == "pass",
        "endpoint-only maximality": entries["S5"].verdict == "pass"
                                    and sup < 1.0 - 1e-3,
        "runtime < 60 s": wall < 60.0,
    }
    ok = all(checks.values())
    _line(5, ok, f"full audit (grid 0.01, 1e5 pairs, 1e5 triples, 1e4 chains) "
                 f"in {wall:.1f}s; sup over non-endpoint grid pairs {sup:.6f}")
    for name, good in checks.items():
        assert good, name


def test_criterion_06_entropy_axioms():
    report = audit_entropy(AuditConfig())
    verdicts = {c.axiom: c.verdict for c in report.checks}
    exact = (entropy_ifv(IFV(0.37, 0.37)) == 1.0
             and entropy_ifv(IFV(1, 0)) == 0.0
             and entropy_ifv(IFV(0, 1)) == 0.0)
    ok = all(v == "pass" for v in verdicts.values()) and exact
    _line(6, ok, f"E1-E4 verdicts {verdicts}; diagonal exactly 1, crisp endpoints exactly 0")
    assert verdicts == {"E1": "pass", "E2": "pass", "E3": "pass", "E4": "pass"}
    assert exact


def test_criterion_07_counterexample_audits():
    config = AuditConfig(grid_step=0.02, random_pairs=20_000, random_triples=20_000,
                         chain_samples=4_000, seed=20220714)
    problems = []
    for name in ("xiao", "yc"):
        report = audit_distance(get_measure(name), config)
        entry = report.entry("S4'")
        if entry.verdict != "fail" or entry.witness is None:
            problems.append(f"{name}: S4' verdict {entry.verdict}")
    # the pinned published witnesses must themselves violate monotonicity
    i1, i2, i3 = _one(0.33, 0.36), _one(1 / 3, 1 / 3), _one(0.334, 0.333333)
    if not dist_xiao(i1, i2) > dist_xiao(i1, i3):
        problems.append("pinned xiao chain is not a violation")
    from ifsim import dist_yc
    y1, y2, y3 = _one(0.5, 0.5), _one(0.6, 0.3), _one(0.7, 0.3)
    if not dist_yc(y1, y2) > dist_yc(y1, y3):
        problems.append("pinned yc triple is not a violation")
    ok = not problems
    _line(7, ok, "xiao and yc audits fail strict monotonicity with witnesses; "
                 "pinned published chains validate as violations" if ok else "; ".join(problems))
    assert not problems


def test_criterion_08_crossing_exists():
    report = run_scenario("ex1-crossing")
    lam_star = float(report.notes[0].rsplit("=", 1)[1])
    ok = report.passed and 0.0 < lam_star < 0.36
    _line(8, ok, f"sign change of the two xiao curves located at lambda* = {lam_star:.6f} "
                 "inside (0, 0.36)")
    assert report.passed
    assert 0.0 < lam_star < 0.36


ORACLE_PAIRS = 2_000  # mpmath costs about 200 us a pair


def test_criterion_09_cross_path_oracle():
    rng = np.random.default_rng(20220714)
    pts = _random_simplex(rng, 200_000)
    a, b = pts[0::2], pts[1::2]
    mu_a, nu_a, mu_b, nu_b = a[:, 0], a[:, 1], b[:, 0], b[:, 1]
    z = z_score_batch(mu_a, nu_a, mu_b, nu_b)
    d = js_norm_batch(mu_a, nu_a, mu_b, nu_b)
    dev_sq = float(np.max(np.abs(d ** 2 - z / 2.0)))
    # the exact reference on the first ORACLE_PAIRS pairs
    k = ORACLE_PAIRS
    want = exact.elems("wu", mu_a[:k], nu_a[:k], mu_b[:k], nu_b[:k])
    dev_exact, _ = exact.worst_errors(d[:k], want)
    ok = max(dev_sq, dev_exact) < 1e-12
    _line(9, ok, f"1e5 random pairs: |d^2 - z/2| <= {dev_sq:.3g}; first {k} pairs: "
                 f"|d - exact| <= {dev_exact:.3g}")
    assert dev_sq < 1e-12
    assert dev_exact < 1e-12


def test_criterion_10_j1_xiao_relation():
    rng = np.random.default_rng(20220714)
    pts = _random_simplex(rng, 20_000)
    a, b = pts[0::2], pts[1::2]
    j1 = j_gamma_batch(a[:, 0], a[:, 1], b[:, 0], b[:, 1], 1.0)
    d = xiao_elem_batch(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
    dev = float(np.max(np.abs(j1 - LN2 * d ** 2)))
    other_form_gap = float(np.max(np.abs(np.sqrt(j1) - LN2 * d)))
    ok = dev < 1e-12
    _line(10, ok, f"J_1 == ln2 * d_xiao^2 per element (max dev {dev:.3g} over 1e4 pairs); "
                  f"the commonly quoted sqrt(J_1) == ln2 * d_xiao misses by up to "
                  f"{other_form_gap:.3f} and is therefore rejected")
    assert dev < 1e-12
    # documents the discrepancy: the other form is measurably false
    assert other_form_gap > 1e-2
