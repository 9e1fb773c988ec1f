"""Named, parameterized measure descriptors shared by audit / classify / CLI.

A MeasureDescriptor is one elementwise kernel, pair_batch, on mu / nu
component arrays, plus the IFS-level evaluator that aggregates it over a
universe (measures.aggregate), plus, optionally, the kernel's split
(measures.KernelSplit): its channels, its two-point term per channel and
its finish of the channel sum alone.  Every built-in kernel is its split
called on the arrays, and the descriptor carries that split.  The
evaluator's first argument is an IFS (a float back) or a pattern library's
(2, P, n) degree stack (one value per pattern).  The audit evaluates its
samples through the kernel, and sweeps the grid's 13.3M value pairs from
per-channel tables of the split's term, with the split's finish, when the
descriptor has a split; classification calls the evaluator once per sample
on the whole library, and the CLI calls it on sets.  The evaluator and the
kernel are required, so every measure has a kernel to audit; a descriptor
without a split has its grid swept through the kernel too.

Built-in names: wu, wu-lambda (param lambda), xiao, yc, jgamma (param
gamma); each param must be finite and > 0.  wu and wu-lambda aggregate as
a weighted sum (uniform weights when none are given).  xiao, yc and jgamma
ignore the weight vector: xiao and yc average with fixed 1/n as published,
and jgamma is a per-value divergence exposed through its unweighted
elementwise mean.  Every measure is a distance d, scored as 1 - d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Union

import numpy as np

from . import baselines, measures
from .core import IFS, IfsimError, WeightVector, _floats, uniform_weights

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

    audit_distance may call pair_batch and the split's functions from two
    threads at once, since it sweeps the grid on a helper thread, so they
    must keep no state between calls; every built-in is pure numpy.
    """

    name: str
    params: Mapping[str, float]
    evaluator: Evaluator
    pair_batch: BatchKernel
    split: Optional[measures.KernelSplit] = None  # pair_batch's decomposition, if any

    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.name}({inner})"


def _weights_or_uniform(a, w: WeightVector | None) -> WeightVector:
    return w if w is not None else uniform_weights(len(a.universe))


_PARAM_NAMES = {
    "wu": (),
    "wu-lambda": ("lambda",),
    "xiao": (),
    "yc": (),
    "jgamma": ("gamma",),
}

MEASURE_NAMES = tuple(_PARAM_NAMES)


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
    # evaluators look dist_* up at call time, and the wu, xiao, yc and
    # jgamma kernels go through the module-level *_batch names.
    if name == "wu":
        kernel, split = measures.js_norm_batch, measures.WU_SPLIT
        ev = lambda a, b, w: measures.dist_wu(a, b, _weights_or_uniform(a, w))
    elif name == "wu-lambda":
        lam = params["lambda"]
        kernel = split = measures.wu_lambda_split(lam)
        ev = lambda a, b, w: measures.dist_wu_lambda(a, b, _weights_or_uniform(a, w), lam)
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
        ev = lambda a, b, w: measures.aggregate(kernel, a, b)
    return MeasureDescriptor(name, params, ev, kernel, split)
