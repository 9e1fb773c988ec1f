"""One rule for a caller's number, at every entry point that takes one.

A number with no float (an int beyond the float range) raises the entry
point's own IfsimError subclass, and a count must be an int or numpy
integer, not a bool, in [low, sys.maxsize], and an audit's sample count
must not size an array beyond numpy's limit; each with a one-line message,
before anything is allocated.  Inputs that an entry point's own tests
already check are not repeated here: 10**400 for IFV, WeightVector,
l_divergence and get_measure (the *_too_large_for_a_float tests), -10**5000
for lambda, gamma, steps and four AuditConfig fields (the *_too_long_to_print
tests), and every input of uniform_weights and the small steps (test_core,
test_scenarios).
"""

import sys

import pytest

from conftest import LONG_INT
from ifsim import (
    IFV,
    AuditConfig,
    InvalidGammaError,
    InvalidLambdaError,
    InvalidMeasureParamsError,
    OutOfRangeError,
    WeightVector,
    builtin_dataset,
    dist_wu_lambda,
    get_measure,
    j_gamma,
    l_divergence,
    sweep_curve,
)
from ifsim.baselines import j_gamma_split
from ifsim.measures import wu_lambda_split

BIG = 10**400  # passes every comparison with a float, but has no float
SHOWN = {BIG: "<int of 1329 bits>", LONG_INT: "<negative int of 16610 bits>",
         True: "True", 2.5: "2.5", sys.maxsize + 1: repr(sys.maxsize + 1)}
LABEL = {BIG: "10**400", LONG_INT: "-10**5000", True: "True", 2.5: "2.5",
         sys.maxsize + 1: "maxsize+1", 1e-300: "1e-300", 5e-324: "5e-324", 10**18: "10**18"}
# float64 bytes per count in each count's largest array: (n, 2, 2) pairs,
# (n, 3, 2) triples and (2n, 3, 2) chain candidates
SAMPLE_BYTES = {"random_pairs": 32, "random_triples": 48, "chain_samples": 96}

SETS, W = builtin_dataset("tableI_case1")


def _count_message(name, low, shown):
    return f"{name} must be an integer in [{low}, {sys.maxsize}], got {shown}"


def _cases():
    """(entry point, call, error class, input, message) for each case."""
    floats = [
        ("IFV", lambda x: IFV(x, 0.0), OutOfRangeError, LONG_INT, "a degree"),
        ("WeightVector", lambda x: WeightVector((0.5, x)), OutOfRangeError, LONG_INT, "a weight"),
        ("l_divergence", lambda x: l_divergence(x, 1.0), OutOfRangeError, LONG_INT,
         "an argument of L"),
        ("get_measure", lambda x: get_measure("jgamma", gamma=x), InvalidMeasureParamsError,
         LONG_INT, "measure 'jgamma': a parameter"),
        ("wu_lambda_split", wu_lambda_split, InvalidLambdaError, BIG, "lambda"),
        ("dist_wu_lambda", lambda x: dist_wu_lambda(SETS["A"], SETS["B"], W, x),
         InvalidLambdaError, BIG, "lambda"),
        ("j_gamma_split", j_gamma_split, InvalidGammaError, BIG, "gamma"),
        ("j_gamma", lambda x: j_gamma(IFV(0.3, 0.2), IFV(0.1, 0.1), x), InvalidGammaError, BIG,
         "gamma"),
        ("tolerance", lambda x: AuditConfig(tolerance=x), OutOfRangeError, BIG, "tolerance"),
    ]
    for entry, call, error, x, what in floats:
        yield entry, call, error, x, f"{what} is too large for a float"

    grid = lambda x: AuditConfig(grid_step=x)
    yield "grid_step", grid, OutOfRangeError, BIG, f"grid_step {SHOWN[BIG]} outside (0, 0.5]"
    # 1/step points per axis; at 5e-324, 1/step is inf and counts as 2**1024
    for step, shown in ((1e-300, "<int of 997 bits>"), (5e-324, "<int of 1025 bits>")):
        yield ("grid_step", grid, OutOfRangeError, step,
               _count_message(f"grid_step {step!r}: points per axis", 3, shown))

    for name in ("random_pairs", "random_triples", "chain_samples"):
        inputs = [BIG, True, 2.5, sys.maxsize + 1]
        if name != "random_pairs":
            inputs.append(LONG_INT)
        for x in inputs:
            yield (name, lambda x, name=name: AuditConfig(**{name: x}), OutOfRangeError, x,
                   _count_message(name, 1, SHOWN[x]))
        # within sys.maxsize, but numpy could not size the samples
        yield (name, lambda x, name=name: AuditConfig(**{name: x}), OutOfRangeError, 10**18,
               f"{name} {10**18} needs an array of {SAMPLE_BYTES[name] * 10**18} bytes, "
               f"above numpy's limit of {sys.maxsize}")
    for x in (BIG, sys.maxsize + 1):
        yield ("sweep_curve", lambda x: sweep_curve("fig7", x), OutOfRangeError, x,
               _count_message("steps", 2, SHOWN[x]))


@pytest.mark.parametrize("call,error,x,message", [
    pytest.param(call, error, x, message, id=f"{entry}-{LABEL[x]}")
    for entry, call, error, x, message in _cases()
])
def test_number_with_no_float_or_count_out_of_range(call, error, x, message):
    with pytest.raises(error) as info:
        call(x)
    assert type(info.value) is error
    assert str(info.value) == message
