"""Named measures: one kernel per measure, aggregated over the universe."""

import numpy as np
import pytest

from ifsim import (IFS, IFV, InvalidMeasureParamsError, UniverseMismatchError, WeightVector,
                   baselines, builtin_dataset, get_measure, measures, scenarios)
from ifsim.registry import MEASURE_NAMES, WEIGHTED_MEASURES, MeasureDescriptor, UnknownMeasureError

BUILTINS = [
    ("wu", {}), ("wu-lambda", {"lambda": 0.5}), ("xiao", {}), ("yc", {}),
    ("jgamma", {"gamma": 1.0}), ("jgamma", {"gamma": 2.0}),
]


@pytest.mark.parametrize("name,params", BUILTINS)
def test_sets_over_different_universes_are_rejected(name, params):
    md = get_measure(name, **params)
    one = IFS.from_pairs([(0.1, 0.2)])
    two = IFS.from_pairs([(0.1, 0.2), (0.3, 0.4)])
    with pytest.raises(UniverseMismatchError):
        md.evaluator(one, two, None)  # a one-element set must not broadcast
    relabeled = IFS.from_pairs([(0.1, 0.2), (0.3, 0.4)], ["y1", "y2"])
    with pytest.raises(UniverseMismatchError):
        md.evaluator(two, relabeled, None)


@pytest.mark.parametrize("name,params", BUILTINS)
def test_evaluator_aggregates_the_kernel(name, params):
    sets, w = builtin_dataset("tableIII")
    a, b = sets["P1"], sets["S1"]
    md = get_measure(name, **params)
    per_element = md.pair_batch(np.array(a.mu_array()), np.array(a.nu_array()),
                                np.array(b.mu_array()), np.array(b.nu_array()))
    want = np.dot(w.weights, per_element) if name in WEIGHTED_MEASURES else np.mean(per_element)
    assert md.evaluator(a, b, w) == float(want)


def _unweighted(name, params):
    """The measure's own set function, without weights."""
    if name == "wu":
        return lambda a, b: measures.dist_wu(a, b, None)
    if name == "wu-lambda":
        return lambda a, b: measures.dist_wu_lambda(a, b, None, params["lambda"])
    if name == "jgamma":  # the unweighted mean of its per-value divergence
        return lambda a, b: measures.aggregate(baselines.j_gamma_split(params["gamma"]), a, b)
    return {"xiao": baselines.dist_xiao, "yc": baselines.dist_yc}[name]


@pytest.mark.parametrize("name,params", BUILTINS + [
    ("wu-lambda", {"lambda": 1 / 3}), ("wu-lambda", {"lambda": 2.0})])
def test_evaluator_without_weights_is_the_set_function(name, params):
    """None means the plain 1/n mean, not a uniform-weight dot: on these
    tableIII pairs the two differ in the last bit for wu and wu-lambda."""
    sets, _ = builtin_dataset("tableIII")
    for x, y in (("P1", "S1"), ("P2", "S1"), ("P3", "S1"), ("P1", "P3")):
        a, b = sets[x], sets[y]
        assert get_measure(name, **params).evaluator(a, b, None) == _unweighted(name, params)(a, b)


@pytest.mark.parametrize("name,params", BUILTINS)
def test_weighted_measures_are_the_ones_that_read_weights(name, params):
    sets, w = builtin_dataset("tableIII")
    a, b = sets["P1"], sets["S1"]
    md = get_measure(name, **params)
    skewed = md.evaluator(a, b, WeightVector((0.5, 0.3, 0.2)))
    assert (skewed != md.evaluator(a, b, w)) == (name in WEIGHTED_MEASURES)


def test_both_lambda_spellings_are_rejected():
    assert get_measure("wu-lambda", lam=0.5).label() == "wu-lambda(lambda=0.5)"
    assert get_measure("wu-lambda", **{"lambda": 0.5}).label() == "wu-lambda(lambda=0.5)"
    with pytest.raises(InvalidMeasureParamsError, match="twice"):
        get_measure("wu-lambda", lam=0.5, **{"lambda": 0.7})


@pytest.mark.parametrize("params,spelling", [({"lam": 0.5}, "lam"), ({"lambda": 0.5}, "lambda")])
def test_superfluous_param_is_named_as_passed(params, spelling):
    with pytest.raises(InvalidMeasureParamsError, match=f"does not take: {spelling}$"):
        get_measure("wu", **params)


def test_descriptor_without_kernel_is_rejected():
    md = get_measure("wu")
    with pytest.raises(TypeError):
        MeasureDescriptor("wu-no-kernel", {}, md.evaluator)
    with pytest.raises(TypeError):  # the split is the kernel the audit sweeps
        MeasureDescriptor("wu-no-split", {}, md.evaluator, md.pair_batch)


def test_unknown_measure_lists_the_known_names():
    with pytest.raises(UnknownMeasureError) as got:
        get_measure("nope")
    assert isinstance(got.value, KeyError)
    assert str(got.value) == f"unknown measure 'nope'; known: {', '.join(MEASURE_NAMES)}"


def test_missing_parameter_is_named():
    with pytest.raises(InvalidMeasureParamsError,
                       match=r"^measure 'jgamma' requires parameter\(s\): gamma$"):
        get_measure("jgamma")


@pytest.mark.parametrize("name,params", [("jgamma", {"gamma": 10**400}),
                                         ("wu-lambda", {"lam": 10**400})])
def test_parameter_too_large_for_a_float(name, params):
    with pytest.raises(InvalidMeasureParamsError,
                       match=f"^measure '{name}': a parameter is too large for a float$"):
        get_measure(name, **params)


FORWARDERS = [(measures, "js_norm_batch"), (baselines, "xiao_elem_batch"),
              (baselines, "yc_elem_batch"), (baselines, "j_gamma_batch")]


def _library_values() -> list[bytes]:
    """The bits of every set, value and scenario function on fixed inputs."""
    sets, w = builtin_dataset("tableI_case1")
    a, b = sets["A"], sets["B"]
    u, v = IFV(0.3, 0.2), IFV(0.1, 0.6)
    values = [
        measures.dist_wu(a, b, w), measures.sim_wu(a, b, w),
        measures.dist_wu_lambda(a, b, w, 0.5), measures.dist_wu_lambda(a, b, w, 1.0),
        baselines.dist_xiao(a, b), baselines.sim_xiao(a, b), baselines.dist_yc(a, b),
        measures.js_norm(u, v), measures.entropy_ifv(u), measures.entropy_ifs(a, w),
        *(baselines.j_gamma(u, v, gamma) for gamma in (0.5, 1.0, 2.0)),
        *(get_measure("jgamma", gamma=gamma).evaluator(a, b, None) for gamma in (1.0, 2.0)),
    ]
    bits = [np.float64(x).tobytes() for x in values]
    bits.append(repr([(r.scenario, r.checks, r.notes) for r in scenarios.run_all_scenarios()]).encode())
    for family in scenarios.FAMILY_IDS:
        table = scenarios.sweep_curve(family)
        bits.append(repr(table.columns).encode() + table.rows.tobytes())
    return bits


def test_library_calls_the_splits_not_the_forwarders(monkeypatch):
    """The set, value and scenario functions and the jgamma evaluator reach
    each kernel through its split; the module-level *_batch forwarders are
    kept only for the registry's pair_batch kernels and the audit.  ROADMAP
    item 14 deletes this test together with the forwarders."""
    want = _library_values()

    def stub(*args, **kwargs):
        raise AssertionError("a *_batch forwarder was called")

    for module, name in FORWARDERS:
        monkeypatch.setattr(module, name, stub)
    assert _library_values() == want
