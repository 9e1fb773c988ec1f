"""Named, parameterized measure descriptors shared by audit / classify / CLI.

A MeasureDescriptor is one elementwise kernel, pair_batch, on mu / nu
component arrays, its split (measures.KernelSplit): its channels, its
two-point term per channel and its finish of the channel sum alone, and
the IFS-level evaluator that aggregates the kernel over a universe
(measures.aggregate).  Every built-in kernel is its split called on the
arrays.  The evaluator's first argument is an IFS (a float back) or a
pattern library's (2, P, n) degree stack (one value per pattern).  The
audit evaluates its samples through the kernel, and sweeps the grid's
value pairs (13.3M at the default step, about half that for a split whose
channel sums keep their bits when mu and nu swap) from per-channel tables
of the split's term, with the split's finish; classification calls the
evaluator once per sample on the whole library, and the CLI calls it on
sets.  All three are required.

Built-in names: wu, wu-lambda (param lambda), xiao, yc, jgamma (param
gamma); each param must be finite and > 0.  The WEIGHTED_MEASURES, wu and
wu-lambda, aggregate as a weighted sum, the plain 1/n mean when w is None.
The rest ignore w (the CLI refuses --weights for them): xiao and yc average
with fixed 1/n as published, and jgamma is a per-value divergence exposed
through its unweighted elementwise mean.  Each is a distance d, scored 1 - d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Union

import numpy as np

from . import baselines, measures
from .core import IFS, IfsimError, WeightVector, _floats

# (a, b, w) -> value; a is an IFS (a float back) or a PatternLibrary, whose
# (2, P, n) degree stack gives an array of P values, one per pattern
Evaluator = Callable[[Any, IFS, Optional[WeightVector]], Union[float, np.ndarray]]
BatchKernel = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


class UnknownMeasureError(IfsimError, KeyError):
    """The requested measure name is not registered."""


class InvalidMeasureParamsError(IfsimError, ValueError):
    """Parameters missing, superfluous, or invalid for the named measure."""


@dataclass(frozen=True)
class MeasureDescriptor:
    """A named distance usable by audit, classify, and the repro runner.

    audit_distance calls pair_batch on the calling thread only, while a
    helper thread sweeps the grid through the split's functions, so both
    must keep no state between calls; every built-in is pure numpy.
    """

    name: str
    params: Mapping[str, float]
    evaluator: Evaluator
    pair_batch: BatchKernel
    split: measures.KernelSplit  # pair_batch's decomposition

    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.name}({inner})"


_PARAM_NAMES = {
    "wu": (),
    "wu-lambda": ("lambda",),
    "xiao": (),
    "yc": (),
    "jgamma": ("gamma",),
}

MEASURE_NAMES = tuple(_PARAM_NAMES)
WEIGHTED_MEASURES = ("wu", "wu-lambda")  # the rest average with a fixed 1/n


def get_measure(name: str, **params: float) -> MeasureDescriptor:
    """Look up a built-in measure; params: lambda (wu-lambda), gamma (jgamma).

    Python-reserved spellings are accepted: get_measure("wu-lambda", lam=x)
    and get_measure("wu-lambda", **{"lambda": x}) are equivalent; giving
    both raises InvalidMeasureParamsError.
    """
    if name not in _PARAM_NAMES:
        raise UnknownMeasureError(f"unknown measure {name!r}; known: {', '.join(MEASURE_NAMES)}")
    wanted = _PARAM_NAMES[name]
    if "lam" in params:
        if "lambda" in params:
            raise InvalidMeasureParamsError("lambda given twice, as lam and as lambda")
        if "lambda" in wanted:  # elsewhere lam stays superfluous, under the name passed
            params["lambda"] = params.pop("lam")
    missing = [p for p in wanted if p not in params]
    extra = [p for p in params if p not in wanted]
    if missing:
        raise InvalidMeasureParamsError(f"measure {name!r} requires parameter(s): {', '.join(missing)}")
    if extra:
        raise InvalidMeasureParamsError(f"measure {name!r} does not take: {', '.join(extra)}")
    params = dict(zip(params, _floats(params.values(), InvalidMeasureParamsError,
                                      f"measure {name!r}: a parameter")))
    # Pinned by perfbench/layers.py, which traces by rebinding module
    # attributes and dataclasses.replace(md, evaluator=, pair_batch=), and
    # whose test wants every layer metric > 0 and ifsim.audit.js_norm_batch:
    # the wu, xiao and yc evaluators look dist_* up at call time, and the
    # wu, xiao, yc and jgamma kernels are the *_batch forwarders, called
    # only here and from audit.  wu-lambda and jgamma aggregate their split.
    if name == "wu":
        kernel, split = measures.js_norm_batch, measures.WU_SPLIT
        ev = lambda a, b, w: measures.dist_wu(a, b, w)
    elif name == "wu-lambda":
        kernel = split = measures.wu_lambda_split(params["lambda"])
        ev = lambda a, b, w: measures.aggregate(split, a, b, w)
    elif name == "xiao":
        kernel, split = baselines.xiao_elem_batch, baselines.XIAO_SPLIT
        ev = lambda a, b, w: baselines.dist_xiao(a, b)
    elif name == "yc":
        kernel, split = baselines.yc_elem_batch, baselines.YC_SPLIT
        ev = lambda a, b, w: baselines.dist_yc(a, b)
    else:
        gamma = params["gamma"]
        split = baselines.j_gamma_split(gamma)
        kernel = lambda *c: baselines.j_gamma_batch(*c, gamma)
        ev = lambda a, b, w: measures.aggregate(split, a, b)
    return MeasureDescriptor(name, params, ev, kernel, split)
