"""Golden-value regression scenarios and figure-curve sweeps.

Each scenario pins one published numeric example, comparison table, or
closed-form family and re-derives it from the implementation, reporting one
verdict per check (pass iff |expected - computed| <= tolerance; relational
facts are encoded as expected 1, computed 1/0, tolerance 0).  Scenarios are
deterministic and independent.

Known discrepancy, reported rather than hidden: in the published pairwise
comparison table (scenario tab2-distances), cases 3 and 4 are inconsistent
with their own stated inputs.  Recomputing at 50-digit precision from the
case data gives d_xiao 0.30754416584904926 / 0.29394062592070379 and
weighted-JS 0.14993820853107096 / 0.145363146588349, far from the published
0.17210 / 0.13352 and 0.07462 / 0.09802; d_xiao takes no weights, and for
case 3 both per-element JS values exceed the published aggregate, so no
weight vector can reconcile them either.  Cases 1, 2, and 5 reproduce to
every published digit.

sweep_curve generates the figure-family data (CSV emission lives in the
CLI): fig1 the crossing pair, fig4-fig10 the comparison curves and surfaces,
fig6 the monotonicity counterexample family (asserted strictly decreasing on
its documented window), entropy-surface (alias fig3) the entropy graph.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import baselines, measures
from .core import IFS, IFV, IfsimError, atanassov_strict_subset, ifs_strict_subset
from .datasets import builtin_dataset
from .measures import NumericalConsistencyError
from .recognition import PatternLibrary, classify
from .registry import get_measure


class UnknownScenarioError(IfsimError, KeyError):
    """The requested scenario id is not in the catalog."""


class UnknownFamilyError(IfsimError, KeyError):
    """The requested curve family is not in the catalog."""


@dataclass(frozen=True)
class ReproCheck:
    description: str
    expected: float
    computed: float
    tolerance: float
    provenance: str = ""

    @property
    def passed(self) -> bool:
        return abs(self.expected - self.computed) <= self.tolerance


@dataclass(frozen=True)
class ReproReport:
    scenario: str
    checks: tuple[ReproCheck, ...]
    notes: tuple[str, ...] = ()
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        for c in self.checks:
            tag = "pass" if c.passed else "FAIL"
            line = (f"  [{tag}] {c.description}: expected {c.expected:.17g} "
                    f"(±{c.tolerance:g}), computed {c.computed:.17g}")
            if c.provenance:
                line += f"  <{c.provenance}>"
            lines.append(line)
        for n in self.notes:
            lines.append(f"  note: {n}")
        lines.append(
            f"result: {'PASS' if self.passed else 'FAIL'}  ({self.wall_time * 1e3:.1f} ms)"
        )
        return "\n".join(lines)


def _value(description: str, expected: float, computed: float, tol: float,
           provenance: str = "published value") -> ReproCheck:
    return ReproCheck(description, float(expected), float(computed), float(tol), provenance)


def _fact(description: str, holds: bool, provenance: str = "") -> ReproCheck:
    return ReproCheck(description, 1.0, 1.0 if holds else 0.0, 0.0, provenance)


def _one(mu: float, nu: float) -> IFS:
    return IFS(("x",), (IFV(mu, nu),))


def _lam_grid(step: float = 0.01, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    n = int(round((hi - lo) / step))
    return lo + np.arange(n + 1) * step


# ---------------------------------------------------------------------------
# scenario builders
# ---------------------------------------------------------------------------

def _ex1_xiao_s4() -> ReproReport:
    t0 = time.perf_counter()
    i1, i2, i3 = _one(0.33, 0.36), _one(1.0 / 3.0, 1.0 / 3.0), _one(0.334, 0.333333)
    s12 = baselines.sim_xiao(i1, i2)
    s13 = baselines.sim_xiao(i1, i3)
    checks = (
        _fact("the three values form a strictly nested chain",
              ifs_strict_subset(i1, i2) and ifs_strict_subset(i2, i3)),
        _value("xiao similarity to the nearer chain element", 0.9738972, s12, 1e-6),
        _value("xiao similarity to the farther chain element", 0.9741713, s13, 1e-6),
        _fact("monotonicity violation: farther element scores more similar", s12 < s13),
    )
    return ReproReport("ex1-xiao-s4", checks, wall_time=time.perf_counter() - t0)


def _ex1_crossing() -> ReproReport:
    t0 = time.perf_counter()
    mu1, nu1 = 0.33, 0.36
    mu2, mu3 = 1.0 / 3.0, 0.334

    def diff(lams: np.ndarray) -> np.ndarray:
        near = baselines.xiao_elem_batch(mu1, nu1, mu2, lams)
        far = baselines.xiao_elem_batch(mu1, nu1, mu3, lams)
        return near - far

    lams = _lam_grid(1e-4, 1e-4, 0.36 - 1e-4)
    f = diff(lams)
    sign_change = np.nonzero(f[:-1] * f[1:] <= 0.0)[0]
    found = sign_change.size > 0
    lam_star = math.nan
    if found:
        lo, hi = float(lams[sign_change[0]]), float(lams[sign_change[0] + 1])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if float(diff(lo)) * float(diff(mid)) <= 0.0:
                hi = mid
            else:
                lo = mid
        lam_star = 0.5 * (lo + hi)
    checks = (
        _fact("the two distance curves cross inside the interval", found,
              "existence reported for the parametric families"),
        _fact("crossing point lies in (0, 0.36)", found and 0.0 < lam_star < 0.36),
        _fact("near curve starts above the far curve", f[0] > 0.0),
        _fact("near curve ends below the far curve", f[-1] < 0.0),
    )
    notes = (f"bisection on a 1e-4 grid located the crossing at lambda* = {lam_star:.10g}",)
    return ReproReport("ex1-crossing", checks, notes, time.perf_counter() - t0)


def _ex2_xiao_monotone() -> ReproReport:
    t0 = time.perf_counter()
    lams = np.arange(34, 50) / 100.0  # inside (1/3, 0.5)
    d = baselines.xiao_elem_batch(1.0 / 3.0, 1.0 / 3.0, lams, np.full_like(lams, 1e-5))
    chain_ok = all(
        atanassov_strict_subset(IFV(lams[i], 1e-5), IFV(lams[i + 1], 1e-5))
        for i in range(len(lams) - 1)
    )
    checks = (
        _fact("the family is strictly increasing in the value order", chain_ok),
        _fact("xiao distance strictly DECREASES along the increasing family",
              bool(np.all(np.diff(d) < 0.0)),
              "monotonicity counterexample on (1/3, 0.5), step 0.01"),
        _fact("base value is strictly below every family member in the order",
              all(atanassov_strict_subset(IFV(1 / 3, 1 / 3), IFV(l, 1e-5)) for l in lams)),
    )
    return ReproReport("ex2-xiao-monotone", checks, wall_time=time.perf_counter() - t0)


def _xiao_to_full_closed(lams: np.ndarray) -> np.ndarray:
    """Closed form for the xiao distance from <1,0> to <lam, nu> (nu-free)."""
    lam_term = np.where(lams > 0.0, np.where(lams > 0.0, lams, 1.0)
                        * np.log2(np.where(lams > 0.0, 2.0 * lams / (1.0 + lams), 1.0)), 0.0)
    return np.sqrt(0.5 * (np.log2(2.0 / (1.0 + lams)) + lam_term + (1.0 - lams)))


def _ex3_xiao_degeneracy() -> ReproReport:
    t0 = time.perf_counter()
    lams = _lam_grid(0.01)
    d_nu0 = baselines.xiao_elem_batch(1.0, 0.0, lams, np.zeros_like(lams))
    d_pi0 = baselines.xiao_elem_batch(1.0, 0.0, lams, 1.0 - lams)
    d_from_bottom = baselines.xiao_elem_batch(0.0, 1.0, lams, np.zeros_like(lams))
    checks = (
        _value("degeneracy: curves against <lam,0> and <lam,1-lam> coincide",
               0.0, float(np.max(np.abs(d_nu0 - d_pi0))), 1e-12,
               "closed-form identity"),
        _value("both curves match their closed form",
               0.0, float(np.max(np.abs(d_nu0 - _xiao_to_full_closed(lams)))), 1e-12,
               "closed-form identity"),
        _value("distance from <0,1> to every <lam,0> is the maximum 1",
               0.0, float(np.max(np.abs(d_from_bottom - 1.0))), 1e-12,
               "closed-form identity"),
    )
    return ReproReport("ex3-xiao-degeneracy", checks, wall_time=time.perf_counter() - t0)


def _ex4_yc_s4() -> ReproReport:
    t0 = time.perf_counter()
    i1, i2, i3 = _one(0.5, 0.5), _one(0.6, 0.3), _one(0.7, 0.3)
    d12 = baselines.dist_yc(i1, i2)
    d13 = baselines.dist_yc(i1, i3)
    checks = (
        _fact("the three values form a strictly nested chain",
              ifs_strict_subset(i1, i2) and ifs_strict_subset(i2, i3)),
        _value("spherical distance to the nearer chain element",
               0.2307608835156416, d12, 1e-12, "closed form (2/pi)*arccos(sqrt(0.3)+sqrt(0.15))"),
        _value("spherical distance to the farther chain element",
               0.13098988043445462, d13, 1e-12, "closed form (2/pi)*arccos(sqrt(0.35)+sqrt(0.15))"),
        _fact("monotonicity violation: farther element scores more similar",
              1.0 - d12 < 1.0 - d13),
    )
    return ReproReport("ex4-yc-s4", checks, wall_time=time.perf_counter() - t0)


def _ex5_yc_degeneracy() -> ReproReport:
    t0 = time.perf_counter()
    lams = _lam_grid(0.01)
    d_nu0 = baselines.yc_elem_batch(1.0, 0.0, lams, np.zeros_like(lams))
    d_pi0 = baselines.yc_elem_batch(1.0, 0.0, lams, 1.0 - lams)
    d_mirror = baselines.yc_elem_batch(1.0, 0.0, np.zeros_like(lams), lams)
    closed = (2.0 / math.pi) * np.arccos(np.sqrt(lams))
    checks = (
        _value("degeneracy: curves against <lam,0> and <lam,1-lam> coincide",
               0.0, float(np.max(np.abs(d_nu0 - d_pi0))), 1e-12, "closed-form identity"),
        _value("both curves match (2/pi)*arccos(sqrt(lam))",
               0.0, float(np.max(np.abs(d_nu0 - closed))), 1e-12, "closed-form identity"),
        _value("distance from <1,0> to every <0,lam> is the maximum 1",
               0.0, float(np.max(np.abs(d_mirror - 1.0))), 1e-12, "closed-form identity"),
    )
    return ReproReport("ex5-yc-degeneracy", checks, wall_time=time.perf_counter() - t0)


_TAB2_XIAO = (0.14614, 0.13531, 0.17210, 0.13352, 0.13224)
_TAB2_WU = (0.08563, 0.08568, 0.07462, 0.09802, 0.09615)

_TAB2_NOTE = (
    "cases 3 and 4 are inconsistent with their stated inputs: 50-digit "
    "recomputation gives d_xiao 0.30754416584904926 / 0.29394062592070379 and "
    "d_wu 0.14993820853107096 / 0.145363146588349 (d_xiao is weight-free, and "
    "for case 3 both per-element weighted-JS values exceed the published "
    "aggregate, so no weight vector reconciles it); reported as failures "
    "rather than widening the tolerance"
)


def _tab2_distances() -> ReproReport:
    t0 = time.perf_counter()
    checks = []
    for i in range(1, 6):
        sets, w = builtin_dataset(f"tableI_case{i}")
        a, b = sets["A"], sets["B"]
        suffix = "" if i not in (3, 4) else " (known source inconsistency)"
        checks.append(_value(f"case {i} d_xiao{suffix}", _TAB2_XIAO[i - 1],
                             baselines.dist_xiao(a, b), 2e-5,
                             "published comparison table"))
        checks.append(_value(f"case {i} d_wu, uniform weights{suffix}", _TAB2_WU[i - 1],
                             measures.dist_wu(a, b, w), 2e-5,
                             "published comparison table"))
    notes = (
        "d_wu computed with uniform (0.5, 0.5) weights; the source states none",
        _TAB2_NOTE,
    )
    return ReproReport("tab2-distances", tuple(checks), notes, time.perf_counter() - t0)


def _ex8_closed_forms() -> ReproReport:
    t0 = time.perf_counter()
    lams = _lam_grid(0.01)
    zeros = np.zeros_like(lams)
    wu_nu0 = measures.js_norm_batch(1.0, 0.0, lams, zeros)
    wu_pi0 = measures.js_norm_batch(1.0, 0.0, lams, 1.0 - lams)
    yc_nu0 = baselines.yc_elem_batch(1.0, 0.0, lams, zeros)
    xiao_bottom = baselines.xiao_elem_batch(0.0, 1.0, lams, zeros)
    checks = (
        _value("weighted-JS distance from <1,0> to <lam,0> is sqrt((1-lam)/2)",
               0.0, float(np.max(np.abs(wu_nu0 - np.sqrt((1.0 - lams) / 2.0)))), 1e-12,
               "closed-form identity"),
        _value("weighted-JS distance from <1,0> to <lam,1-lam> is sqrt(1-lam)",
               0.0, float(np.max(np.abs(wu_pi0 - np.sqrt(1.0 - lams)))), 1e-12,
               "closed-form identity"),
        _value("spherical distance from <1,0> to <lam,0> is (2/pi)*arccos(sqrt(lam))",
               0.0, float(np.max(np.abs(yc_nu0 - (2.0 / math.pi) * np.arccos(np.sqrt(lams))))),
               1e-12, "closed-form identity"),
        _value("xiao distance from <0,1> to <lam,0> is 1",
               0.0, float(np.max(np.abs(xiao_bottom - 1.0))), 1e-12,
               "closed-form identity"),
    )
    return ReproReport("ex8-closed-forms", checks, wall_time=time.perf_counter() - t0)


def _ex9_fixed_mu_nu_surfaces() -> ReproReport:
    t0 = time.perf_counter()
    step = 0.05
    axis = _lam_grid(step)
    xiao_const_dev = 0.0
    wu_monotone = True
    yc_const_dev = 0.0
    wu_closed_dev = 0.0
    for mu in axis:
        nus = _lam_grid(step, 0.0, 1.0 - mu + 1e-12)
        nus = nus[mu + nus <= 1.0 + 1e-9]
        if len(nus) < 2:
            continue
        mus = np.full_like(nus, mu)
        xiao_row = baselines.xiao_elem_batch(1.0, 0.0, mus, nus)
        xiao_const_dev = max(xiao_const_dev, float(np.ptp(xiao_row)))
        yc_row = baselines.yc_elem_batch(1.0, 0.0, mus, nus)
        yc_const_dev = max(yc_const_dev, float(np.ptp(yc_row)))
        wu_row = measures.js_norm_batch(1.0, 0.0, mus, nus)
        wu_monotone &= bool(np.all(np.diff(wu_row) > 0.0))
        wu_closed_dev = max(
            wu_closed_dev, float(np.max(np.abs(wu_row - np.sqrt((1.0 - mu + nus) / 2.0))))
        )
    mirror_xiao_dev = 0.0
    mirror_wu_monotone = True
    for nu in axis:
        mus = _lam_grid(step, 0.0, 1.0 - nu + 1e-12)
        mus = mus[mus + nu <= 1.0 + 1e-9]
        if len(mus) < 2:
            continue
        nus = np.full_like(mus, nu)
        mirror_xiao_dev = max(
            mirror_xiao_dev, float(np.ptp(baselines.xiao_elem_batch(0.0, 1.0, mus, nus)))
        )
        wu_row = measures.js_norm_batch(0.0, 1.0, mus, nus)
        mirror_wu_monotone &= bool(np.all(np.diff(wu_row) > 0.0))
    checks = (
        _value("xiao distance from <1,0> ignores nu at fixed mu",
               0.0, xiao_const_dev, 1e-12, "closed-form identity"),
        _value("spherical distance from <1,0> ignores nu at fixed mu",
               0.0, yc_const_dev, 1e-12, "closed-form identity"),
        _fact("weighted-JS distance from <1,0> strictly increases with nu at fixed mu",
              wu_monotone),
        _value("weighted-JS distance from <1,0> matches sqrt((1-mu+nu)/2)",
               0.0, wu_closed_dev, 1e-12, "closed-form identity"),
        _value("xiao distance from <0,1> ignores mu at fixed nu",
               0.0, mirror_xiao_dev, 1e-12, "closed-form identity"),
        _fact("weighted-JS distance from <0,1> strictly increases with mu at fixed nu",
              mirror_wu_monotone),
    )
    return ReproReport("ex9-fixed-mu-nu-surfaces", checks, wall_time=time.perf_counter() - t0)


def _ex11_yc_vs_wu() -> ReproReport:
    t0 = time.perf_counter()
    lams = _lam_grid(0.01)
    zeros = np.zeros_like(lams)
    yc_nu0 = baselines.yc_elem_batch(1.0, 0.0, lams, zeros)
    yc_pi0 = baselines.yc_elem_batch(1.0, 0.0, lams, 1.0 - lams)
    wu_nu0 = measures.js_norm_batch(1.0, 0.0, lams, zeros)
    wu_pi0 = measures.js_norm_batch(1.0, 0.0, lams, 1.0 - lams)
    nested = all(
        atanassov_strict_subset(IFV(l, 1.0 - l), IFV(l, 0.0)) for l in lams[:-1]
    )
    checks = (
        _fact("<lam,1-lam> is strictly below <lam,0> in the value order (lam < 1)", nested),
        _value("spherical distance cannot separate the two families",
               0.0, float(np.max(np.abs(yc_nu0 - yc_pi0))), 1e-12, "closed-form identity"),
        _fact("weighted-JS distance separates them at every lam < 1",
              bool(np.all(wu_pi0[:-1] > wu_nu0[:-1]))),
        _value("weighted-JS separation has the exact ratio sqrt(2)",
               0.0, float(np.max(np.abs(wu_pi0 - math.sqrt(2.0) * wu_nu0))), 1e-12,
               "closed-form identity"),
    )
    return ReproReport("ex11-yc-vs-wu", checks, wall_time=time.perf_counter() - t0)


_TAB4_EXPECTED = {
    "yc": (0.89, 0.77, 0.90),
    "xiao": (0.85, 0.69, 0.86),
    "wu-lambda": (0.91, 0.84, 0.92),
}


def _tab4_classify() -> ReproReport:
    t0 = time.perf_counter()
    sets, w = builtin_dataset("tableIII")
    lib = PatternLibrary(tuple((n, sets[n]) for n in ("P1", "P2", "P3")), w)
    sample = sets["S1"]
    checks = []
    for name, expected in _TAB4_EXPECTED.items():
        md = get_measure(name, **({"lambda": 1.0 / 3.0} if name == "wu-lambda" else {}))
        result = classify(lib, sample, md, tie_tol=1e-4)
        by_name = dict(result.scores)
        for pat, exp in zip(("P1", "P2", "P3"), expected):
            checks.append(_value(f"{md.label()} similarity to {pat}", exp, by_name[pat],
                                 5e-3, "published classification table (2 decimals)"))
        checks.append(_fact(f"{md.label()} classifies the sample to P3",
                            result.winner == "P3" and not result.undecided))
    notes = (
        "uniform (1/3, 1/3, 1/3) weights; published values are rounded to 2 "
        "decimals, compared at ±5e-3; tie tolerance 1e-4",
    )
    return ReproReport("tab4-classify", tuple(checks), notes, time.perf_counter() - t0)


_SCENARIOS = {
    "ex1-xiao-s4": _ex1_xiao_s4,
    "ex1-crossing": _ex1_crossing,
    "ex2-xiao-monotone": _ex2_xiao_monotone,
    "ex3-xiao-degeneracy": _ex3_xiao_degeneracy,
    "ex4-yc-s4": _ex4_yc_s4,
    "ex5-yc-degeneracy": _ex5_yc_degeneracy,
    "tab2-distances": _tab2_distances,
    "ex8-closed-forms": _ex8_closed_forms,
    "ex9-fixed-mu-nu-surfaces": _ex9_fixed_mu_nu_surfaces,
    "ex11-yc-vs-wu": _ex11_yc_vs_wu,
    "tab4-classify": _tab4_classify,
}

SCENARIO_IDS = tuple(_SCENARIOS)


def run_scenario(scenario_id: str) -> ReproReport:
    """Run one catalog scenario; UnknownScenarioError for anything else."""
    try:
        builder = _SCENARIOS[scenario_id]
    except KeyError:
        raise UnknownScenarioError(
            f"unknown scenario {scenario_id!r}; known: {', '.join(SCENARIO_IDS)}"
        ) from None
    return builder()


def run_all_scenarios() -> list[ReproReport]:
    return [run_scenario(s) for s in SCENARIO_IDS]


# ---------------------------------------------------------------------------
# curve families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveTable:
    family: str
    columns: tuple[str, ...]
    rows: np.ndarray  # (n, len(columns))
    description: str = ""


def _simplex_axis_grid(steps: int) -> tuple[np.ndarray, np.ndarray]:
    axis = np.linspace(0.0, 1.0, steps)
    mu, nu = np.meshgrid(axis, axis, indexing="ij")
    keep = mu + nu <= 1.0 + 1e-12
    return mu[keep], nu[keep]


def _fam_fig1(steps: int) -> CurveTable:
    lams = np.linspace(0.0, 0.36, steps)
    near = baselines.xiao_elem_batch(0.33, 0.36, 1.0 / 3.0, lams)
    far = baselines.xiao_elem_batch(0.33, 0.36, 0.334, lams)
    return CurveTable("fig1", ("lambda", "xiao_near", "xiao_far"),
                      np.column_stack([lams, near, far]),
                      "crossing pair of xiao distance curves against <1/3,lam> and <0.334,lam>")


def _fam_fig4(steps: int) -> CurveTable:
    mu, nu = _simplex_axis_grid(steps)
    wu = measures.js_norm_batch(mu, nu, nu, mu)
    return CurveTable("fig4", ("mu", "nu", "wu"), np.column_stack([mu, nu, wu]),
                      "weighted-JS distance between <mu,nu> and its complement")


def _fam_fig5(steps: int) -> CurveTable:
    lams = np.linspace(0.0, 1.0, steps)
    zeros = np.zeros_like(lams)
    rows = np.column_stack([
        lams,
        baselines.xiao_elem_batch(1.0, 0.0, lams, zeros),
        baselines.xiao_elem_batch(1.0, 0.0, lams, 1.0 - lams),
        measures.js_norm_batch(1.0, 0.0, lams, zeros),
        measures.js_norm_batch(1.0, 0.0, lams, 1.0 - lams),
    ])
    return CurveTable("fig5", ("lambda", "xiao_nu0", "xiao_pi0", "wu_nu0", "wu_pi0"), rows,
                      "xiao vs weighted-JS distances from <1,0> to <lam,0> and <lam,1-lam>")


_FIG6_WINDOW = (1.0 / 3.0, 0.5)


def _fam_fig6(steps: int) -> CurveTable:
    lams = np.linspace(1.0 / 3.0, 1.0 - 1e-5, steps)  # nu=1e-5 keeps <lam,nu> on the simplex
    d = baselines.xiao_elem_batch(1.0 / 3.0, 1.0 / 3.0, lams, np.full_like(lams, 1e-5))
    window = (lams > _FIG6_WINDOW[0]) & (lams < _FIG6_WINDOW[1])
    if window.sum() >= 2 and not np.all(np.diff(d[window]) < 0.0):
        raise NumericalConsistencyError(
            "fig6 family must be strictly decreasing on (1/3, 0.5)"
        )
    return CurveTable("fig6", ("lambda", "xiao"), np.column_stack([lams, d]),
                      "xiao distance from <1/3,1/3> to <lam,1e-5>; decreasing on (1/3, 0.5)")


def _fam_fig7(steps: int) -> CurveTable:
    lams = np.linspace(0.0, 1.0, steps)
    rows = np.column_stack([
        lams,
        measures.js_norm_batch(1.0, 0.0, lams, np.zeros_like(lams)),
        measures.js_norm_batch(1.0, 0.0, lams, 1.0 - lams),
    ])
    return CurveTable("fig7", ("lambda", "wu_nu0", "wu_pi0"), rows,
                      "weighted-JS distances from <1,0>: sqrt((1-lam)/2) and sqrt(1-lam)")


def _fam_fig8(steps: int) -> CurveTable:
    lams = np.linspace(0.0, 1.0, steps)
    zeros = np.zeros_like(lams)
    rows = np.column_stack([
        lams,
        baselines.xiao_elem_batch(0.0, 1.0, lams, zeros),
        baselines.xiao_elem_batch(0.0, 1.0, lams, 1.0 - lams),
        measures.js_norm_batch(0.0, 1.0, lams, zeros),
        measures.js_norm_batch(0.0, 1.0, lams, 1.0 - lams),
    ])
    return CurveTable("fig8", ("lambda", "xiao_nu0", "xiao_pi0", "wu_nu0", "wu_pi0"), rows,
                      "xiao vs weighted-JS distances from <0,1> to <lam,0> and <lam,1-lam>")


def _fam_fig9(steps: int) -> CurveTable:
    lams = np.linspace(0.0, 1.0, steps)
    zeros = np.zeros_like(lams)
    rows = np.column_stack([
        lams,
        baselines.yc_elem_batch(1.0, 0.0, lams, zeros),
        baselines.yc_elem_batch(1.0, 0.0, lams, 1.0 - lams),
        measures.js_norm_batch(1.0, 0.0, lams, zeros),
        measures.js_norm_batch(1.0, 0.0, lams, 1.0 - lams),
    ])
    return CurveTable("fig9", ("lambda", "yc_nu0", "yc_pi0", "wu_nu0", "wu_pi0"), rows,
                      "spherical vs weighted-JS distances from <1,0> to <lam,0> and <lam,1-lam>")


def _fam_fig10(steps: int) -> CurveTable:
    mu, nu = _simplex_axis_grid(steps)
    rows = np.column_stack([
        mu, nu,
        measures.js_norm_batch(mu, nu, 1.0, 0.0),
        measures.js_norm_batch(mu, nu, 0.0, 1.0),
        baselines.xiao_elem_batch(mu, nu, 1.0, 0.0),
        baselines.xiao_elem_batch(mu, nu, 0.0, 1.0),
        baselines.yc_elem_batch(mu, nu, 1.0, 0.0),
        baselines.yc_elem_batch(mu, nu, 0.0, 1.0),
    ])
    return CurveTable(
        "fig10",
        ("mu", "nu", "wu_top", "wu_bottom", "xiao_top", "xiao_bottom", "yc_top", "yc_bottom"),
        rows,
        "distances from <1,0> (top) and <0,1> (bottom) to <mu,nu> for all three measures",
    )


def _fam_entropy_surface(steps: int) -> CurveTable:
    mu, nu = _simplex_axis_grid(steps)
    ent = 1.0 - measures.js_norm_batch(mu, nu, nu, mu)
    return CurveTable("entropy-surface", ("mu", "nu", "entropy"),
                      np.column_stack([mu, nu, ent]),
                      "induced entropy over the value simplex; 1 exactly on mu == nu")


_FAMILIES = {
    "fig1": _fam_fig1,
    "fig4": _fam_fig4,
    "fig5": _fam_fig5,
    "fig6": _fam_fig6,
    "fig7": _fam_fig7,
    "fig8": _fam_fig8,
    "fig9": _fam_fig9,
    "fig10": _fam_fig10,
    "entropy-surface": _fam_entropy_surface,
}
_FAMILY_ALIASES = {"fig3": "entropy-surface"}

FAMILY_IDS = tuple(_FAMILIES)


def sweep_curve(family: str, steps: int = 101) -> CurveTable:
    """Tabulate one figure family at evenly spaced parameters."""
    if steps < 2:
        raise IfsimError(f"steps must be >= 2, got {steps}")
    name = _FAMILY_ALIASES.get(family, family)
    try:
        builder = _FAMILIES[name]
    except KeyError:
        raise UnknownFamilyError(
            f"unknown curve family {family!r}; known: {', '.join(FAMILY_IDS)}"
        ) from None
    return builder(steps)
