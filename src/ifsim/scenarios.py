"""Golden-value regression scenarios and figure-curve sweeps.

Each scenario pins one published numeric example, comparison table, or
closed-form family and re-derives it from the implementation, reporting one
verdict per check (pass iff |expected - computed| <= tolerance; relational
facts are encoded as expected 1, computed 1/0, tolerance 0).  Scenarios are
deterministic and independent.  A scenario builder returns only its checks
and notes; run_scenario stamps the catalog id on the report and times the
builder.

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
The anchor families fig5 and fig7-fig9 (distances from an endpoint to
<lam,0> and <lam,1-lam>) are rows of one table served by one builder;
measure names resolve only through the registry.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import baselines, measures
from .core import (
    IFS,
    IFV,
    IfsimError,
    _count,
    atanassov_strict_subset,
    ifs_strict_subset,
)
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


def _identity(description: str, got: np.ndarray, want: np.ndarray | float) -> ReproCheck:
    """A closed-form identity: max|got - want| <= 1e-12 over the whole family."""
    return _value(description, 0.0, float(np.max(np.abs(got - want))), 1e-12,
                  "closed-form identity")


def _one(mu: float, nu: float) -> IFS:
    return IFS(("x",), (IFV(mu, nu),))


def _lam_grid(step: float = 0.01, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    n = int(round((hi - lo) / step))
    return lo + np.arange(n + 1) * step


def _anchor_curves(measure: str, anchor: tuple[float, float],
                   lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances from the anchor value to <lam,0> and to <lam,1-lam>."""
    kernel = get_measure(measure).split
    return kernel(*anchor, lams, np.zeros_like(lams)), kernel(*anchor, lams, 1.0 - lams)


def _crossing_curves(lams):
    """xiao distances from <0.33,0.36> to <1/3,lam> (near) and <0.334,lam> (far)."""
    near = baselines.XIAO_SPLIT(0.33, 0.36, 1.0 / 3.0, lams)
    return near, baselines.XIAO_SPLIT(0.33, 0.36, 0.334, lams)


def _decreasing_family(lams: np.ndarray) -> np.ndarray:
    """xiao distance from <1/3,1/3> to <lam,1e-5>; nu=1e-5 keeps <lam,nu> on the simplex."""
    return baselines.XIAO_SPLIT(1.0 / 3.0, 1.0 / 3.0, lams, np.full_like(lams, 1e-5))


# ---------------------------------------------------------------------------
# scenario builders: each returns (checks, notes)
# ---------------------------------------------------------------------------

def _ex1_xiao_s4():
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
    return checks, ()


def _ex1_crossing():
    def diff(lams: np.ndarray) -> np.ndarray:
        near, far = _crossing_curves(lams)
        return near - far

    lams = _lam_grid(1e-4, 1e-4, 0.36 - 1e-4)
    f = diff(lams)
    sign_change = np.nonzero(f[:-1] * f[1:] <= 0.0)[0]
    found = sign_change.size > 0
    lam_star = math.nan
    if found:
        lo, hi = float(lams[sign_change[0]]), float(lams[sign_change[0] + 1])
        f_lo = float(diff(lo))
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            f_mid = float(diff(mid))
            if f_lo * f_mid <= 0.0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        lam_star = 0.5 * (lo + hi)
    checks = (
        _fact("the two distance curves cross inside the interval", found,
              "existence reported for the parametric families"),
        _fact("crossing point lies in (0, 0.36)", found and 0.0 < lam_star < 0.36),
        _fact("near curve starts above the far curve", f[0] > 0.0),
        _fact("near curve ends below the far curve", f[-1] < 0.0),
    )
    return checks, (f"bisection on a 1e-4 grid located the crossing at lambda* = {lam_star:.10g}",)


def _ex2_xiao_monotone():
    lams = np.arange(34, 50) / 100.0  # inside (1/3, 0.5)
    d = _decreasing_family(lams)
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
    return checks, ()


def _xiao_to_full_closed(lams: np.ndarray) -> np.ndarray:
    """Closed form for the xiao distance from <1,0> to <lam, nu> (nu-free)."""
    lam_term = lams * np.log2(2.0 * lams / (1.0 + lams), out=np.zeros_like(lams), where=lams > 0.0)
    return np.sqrt(0.5 * (np.log2(2.0 / (1.0 + lams)) + lam_term + (1.0 - lams)))


def _ex3_xiao_degeneracy():
    lams = _lam_grid(0.01)
    d_nu0, d_pi0 = _anchor_curves("xiao", (1.0, 0.0), lams)
    d_from_bottom, _ = _anchor_curves("xiao", (0.0, 1.0), lams)
    checks = (
        _identity("degeneracy: curves against <lam,0> and <lam,1-lam> coincide", d_nu0, d_pi0),
        _identity("both curves match their closed form", d_nu0, _xiao_to_full_closed(lams)),
        _identity("distance from <0,1> to every <lam,0> is the maximum 1", d_from_bottom, 1.0),
    )
    return checks, ()


def _ex4_yc_s4():
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
    return checks, ()


def _ex5_yc_degeneracy():
    lams = _lam_grid(0.01)
    d_nu0, d_pi0 = _anchor_curves("yc", (1.0, 0.0), lams)
    d_mirror = get_measure("yc").split(1.0, 0.0, np.zeros_like(lams), lams)
    checks = (
        _identity("degeneracy: curves against <lam,0> and <lam,1-lam> coincide", d_nu0, d_pi0),
        _identity("both curves match (2/pi)*arccos(sqrt(lam))",
                  d_nu0, (2.0 / math.pi) * np.arccos(np.sqrt(lams))),
        _identity("distance from <1,0> to every <0,lam> is the maximum 1", d_mirror, 1.0),
    )
    return checks, ()


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


def _tab2_distances():
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
    return checks, notes


def _ex8_closed_forms():
    lams = _lam_grid(0.01)
    wu_nu0, wu_pi0 = _anchor_curves("wu", (1.0, 0.0), lams)
    yc_nu0, _ = _anchor_curves("yc", (1.0, 0.0), lams)
    xiao_bottom, _ = _anchor_curves("xiao", (0.0, 1.0), lams)
    checks = (
        _identity("weighted-JS distance from <1,0> to <lam,0> is sqrt((1-lam)/2)",
                  wu_nu0, np.sqrt((1.0 - lams) / 2.0)),
        _identity("weighted-JS distance from <1,0> to <lam,1-lam> is sqrt(1-lam)",
                  wu_pi0, np.sqrt(1.0 - lams)),
        _identity("spherical distance from <1,0> to <lam,0> is (2/pi)*arccos(sqrt(lam))",
                  yc_nu0, (2.0 / math.pi) * np.arccos(np.sqrt(lams))),
        _identity("xiao distance from <0,1> to <lam,0> is 1", xiao_bottom, 1.0),
    )
    return checks, ()


def _fixed_degree_rows(step: float):
    """(fixed, free) degree rows of the grid: each fixed degree with the free
    degrees that keep the value on the simplex (rows of fewer than 2 skipped)."""
    for fixed in _lam_grid(step):
        free = _lam_grid(step, 0.0, 1.0 - fixed + 1e-12)
        free = free[fixed + free <= 1.0 + 1e-9]
        if len(free) >= 2:
            yield np.full_like(free, fixed), free


def _ex9_fixed_mu_nu_surfaces():
    xiao, yc, wu = (get_measure(m).split for m in ("xiao", "yc", "wu"))
    rows = list(_fixed_degree_rows(0.05))  # (mus, nus), mu fixed per row
    mirrored = [(mus, nus) for nus, mus in rows]  # nu fixed per row

    def spreads(kernel, anchor, rows) -> np.ndarray:
        return np.array([np.ptp(kernel(*anchor, mus, nus)) for mus, nus in rows])

    def rising(curves) -> bool:
        return all(bool(np.all(np.diff(c) > 0.0)) for c in curves)

    wu_top = [wu(1.0, 0.0, mus, nus) for mus, nus in rows]
    mus, nus = np.concatenate(rows, axis=1)
    checks = (
        _identity("xiao distance from <1,0> ignores nu at fixed mu",
                  spreads(xiao, (1.0, 0.0), rows), 0.0),
        _identity("spherical distance from <1,0> ignores nu at fixed mu",
                  spreads(yc, (1.0, 0.0), rows), 0.0),
        _fact("weighted-JS distance from <1,0> strictly increases with nu at fixed mu",
              rising(wu_top)),
        _identity("weighted-JS distance from <1,0> matches sqrt((1-mu+nu)/2)",
                  np.concatenate(wu_top), np.sqrt((1.0 - mus + nus) / 2.0)),
        _identity("xiao distance from <0,1> ignores mu at fixed nu",
                  spreads(xiao, (0.0, 1.0), mirrored), 0.0),
        _fact("weighted-JS distance from <0,1> strictly increases with mu at fixed nu",
              rising(wu(0.0, 1.0, mus, nus) for mus, nus in mirrored)),
    )
    return checks, ()


def _ex11_yc_vs_wu():
    lams = _lam_grid(0.01)
    yc_nu0, yc_pi0 = _anchor_curves("yc", (1.0, 0.0), lams)
    wu_nu0, wu_pi0 = _anchor_curves("wu", (1.0, 0.0), lams)
    nested = all(
        atanassov_strict_subset(IFV(l, 1.0 - l), IFV(l, 0.0)) for l in lams[:-1]
    )
    checks = (
        _fact("<lam,1-lam> is strictly below <lam,0> in the value order (lam < 1)", nested),
        _identity("spherical distance cannot separate the two families", yc_nu0, yc_pi0),
        _fact("weighted-JS distance separates them at every lam < 1",
              bool(np.all(wu_pi0[:-1] > wu_nu0[:-1]))),
        _identity("weighted-JS separation has the exact ratio sqrt(2)",
                  wu_pi0, math.sqrt(2.0) * wu_nu0),
    )
    return checks, ()


_TAB4_EXPECTED = {
    "yc": (0.89, 0.77, 0.90),
    "xiao": (0.85, 0.69, 0.86),
    "wu-lambda": (0.91, 0.84, 0.92),
}


def _tab4_classify():
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
    return checks, notes


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
    """Run one catalog scenario, timed; UnknownScenarioError for anything else."""
    try:
        builder = _SCENARIOS[scenario_id]
    except KeyError:
        raise UnknownScenarioError(
            f"unknown scenario {scenario_id!r}; known: {', '.join(SCENARIO_IDS)}"
        ) from None
    t0 = time.perf_counter()
    checks, notes = builder()
    return ReproReport(scenario_id, tuple(checks), notes, time.perf_counter() - t0)


def run_all_scenarios() -> list[ReproReport]:
    return [run_scenario(s) for s in SCENARIO_IDS]


# ---------------------------------------------------------------------------
# curve families: each builder takes (family, steps), returns (columns, rows, description)
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


def _fam_fig1(family: str, steps: int):
    lams = np.linspace(0.0, 0.36, steps)
    return (("lambda", "xiao_near", "xiao_far"), np.column_stack([lams, *_crossing_curves(lams)]),
            "crossing pair of xiao distance curves against <1/3,lam> and <0.334,lam>")


def _fam_fig4(family: str, steps: int):
    mu, nu = _simplex_axis_grid(steps)
    wu = measures.WU_SPLIT(mu, nu, nu, mu)
    return (("mu", "nu", "wu"), np.column_stack([mu, nu, wu]),
            "weighted-JS distance between <mu,nu> and its complement")


# family: (anchor, measures, description); columns lambda, then <m>_nu0, <m>_pi0 per measure
_ANCHOR_FAMILIES = {
    "fig5": ((1.0, 0.0), ("xiao", "wu"),
             "xiao vs weighted-JS distances from <1,0> to <lam,0> and <lam,1-lam>"),
    "fig7": ((1.0, 0.0), ("wu",),
             "weighted-JS distances from <1,0>: sqrt((1-lam)/2) and sqrt(1-lam)"),
    "fig8": ((0.0, 1.0), ("xiao", "wu"),
             "xiao vs weighted-JS distances from <0,1> to <lam,0> and <lam,1-lam>"),
    "fig9": ((1.0, 0.0), ("yc", "wu"),
             "spherical vs weighted-JS distances from <1,0> to <lam,0> and <lam,1-lam>"),
}


def _fam_anchor(family: str, steps: int):
    anchor, names, description = _ANCHOR_FAMILIES[family]
    lams = np.linspace(0.0, 1.0, steps)
    curves = [c for m in names for c in _anchor_curves(m, anchor, lams)]
    columns = ("lambda",) + tuple(f"{m}_{end}" for m in names for end in ("nu0", "pi0"))
    return columns, np.column_stack([lams, *curves]), description


_FIG6_WINDOW = (1.0 / 3.0, 0.5)


def _fam_fig6(family: str, steps: int):
    lams = np.linspace(1.0 / 3.0, 1.0 - 1e-5, steps)
    d = _decreasing_family(lams)
    window = (lams > _FIG6_WINDOW[0]) & (lams < _FIG6_WINDOW[1])
    if window.sum() >= 2 and not np.all(np.diff(d[window]) < 0.0):
        raise NumericalConsistencyError(
            "fig6 family must be strictly decreasing on (1/3, 0.5)"
        )
    return (("lambda", "xiao"), np.column_stack([lams, d]),
            "xiao distance from <1/3,1/3> to <lam,1e-5>; decreasing on (1/3, 0.5)")


_ENDPOINTS = (("top", (1.0, 0.0)), ("bottom", (0.0, 1.0)))


def _fam_fig10(family: str, steps: int):
    mu, nu = _simplex_axis_grid(steps)
    names = ("wu", "xiao", "yc")
    curves = [get_measure(m).split(mu, nu, *end) for m in names for _, end in _ENDPOINTS]
    columns = ("mu", "nu") + tuple(f"{m}_{side}" for m in names for side, _ in _ENDPOINTS)
    return (columns, np.column_stack([mu, nu, *curves]),
            "distances from <1,0> (top) and <0,1> (bottom) to <mu,nu> for all three measures")


def _fam_entropy_surface(family: str, steps: int):
    mu, nu = _simplex_axis_grid(steps)
    ent = 1.0 - measures.WU_SPLIT(mu, nu, nu, mu)
    return (("mu", "nu", "entropy"), np.column_stack([mu, nu, ent]),
            "induced entropy over the value simplex; 1 exactly on mu == nu")


_FAMILIES = {
    "fig1": _fam_fig1,
    "fig4": _fam_fig4,
    "fig5": _fam_anchor,
    "fig6": _fam_fig6,
    "fig7": _fam_anchor,
    "fig8": _fam_anchor,
    "fig9": _fam_anchor,
    "fig10": _fam_fig10,
    "entropy-surface": _fam_entropy_surface,
}
_FAMILY_ALIASES = {"fig3": "entropy-surface"}

FAMILY_IDS = tuple(_FAMILIES)


def sweep_curve(family: str, steps: int = 101) -> CurveTable:
    """Tabulate one figure family at evenly spaced parameters."""
    _count(steps, 2, "steps")
    name = _FAMILY_ALIASES.get(family, family)
    try:
        builder = _FAMILIES[name]
    except KeyError:
        raise UnknownFamilyError(
            f"unknown curve family {family!r}; known: {', '.join(FAMILY_IDS)}"
        ) from None
    return CurveTable(name, *builder(name, steps))
