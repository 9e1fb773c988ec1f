"""Named measures: one kernel per measure, aggregated over the universe."""

import numpy as np
import pytest

from ifsim import IFS, InvalidMeasureParamsError, UniverseMismatchError, builtin_dataset, get_measure
from ifsim.registry import MeasureDescriptor

BUILTINS = [
    ("wu", {}), ("wu-lambda", {"lambda": 0.5}), ("xiao", {}), ("yc", {}),
    ("jgamma", {"gamma": 1.0}), ("jgamma", {"gamma": 2.0}),
]
WEIGHTED = {"wu", "wu-lambda"}


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
    want = np.dot(w.weights, per_element) if name in WEIGHTED else np.mean(per_element)
    assert md.evaluator(a, b, w) == float(want)


def test_descriptor_without_kernel_is_rejected():
    md = get_measure("wu")
    with pytest.raises(InvalidMeasureParamsError):
        MeasureDescriptor("wu-no-kernel", "distance", {}, md.evaluator)
