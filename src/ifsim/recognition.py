"""Max-similarity pattern classification.

A test sample is scored against every pattern in a library; each score is
1 - d, for d the distance.  The library keeps its patterns' degrees as one
read-only (2, P, n) stack in name order, and classify scores the sample
against all of them with one evaluator call, which returns one value per
pattern (measures.aggregate blocks the kernel work).  Each value has the
bits of an evaluator call on that pattern alone.  The winner is the unique
argmax; if the top two scores are within tie_tol of each other the result
is undecided (mirroring how published comparisons mark indistinguishable
cases).  Scores are sorted by (score desc, name asc), so permuting the
library never changes the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (IFS, OutOfRangeError, UniverseMismatchError, WeightVector, _require_same_universe,
                   _show, check_weights)
from .registry import MeasureDescriptor


@dataclass(frozen=True)
class PatternLibrary:
    """Named reference patterns over one shared universe, plus the weights
    used when scoring against a sample.

    `names` holds the pattern names sorted, and `degrees` the read-only
    (2, P, n) stack of their degrees in that order: [0, i] the memberships
    and [1, i] the non-memberships of pattern names[i].
    """

    patterns: tuple[tuple[str, IFS], ...]
    weights: WeightVector
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    degrees: np.ndarray = field(init=False, repr=False, compare=False)
    _name_array: np.ndarray = field(init=False, repr=False, compare=False)  # names, dtype object

    def __post_init__(self) -> None:
        object.__setattr__(self, "patterns", tuple((str(n), p) for n, p in self.patterns))
        if len(self.patterns) < 1:
            raise OutOfRangeError("pattern library must contain at least one pattern")
        names = [n for n, _ in self.patterns]
        if len(set(names)) != len(names):
            raise OutOfRangeError("pattern names must be unique")
        universe = self.patterns[0][1].universe
        for name, p in self.patterns[1:]:
            if p.universe != universe:
                raise UniverseMismatchError(f"pattern {name!r} has a different universe")
        check_weights(self.weights, len(universe))
        by_name = sorted(self.patterns, key=lambda item: item[0])
        degrees = np.stack([p.degrees for _, p in by_name], axis=1)
        degrees.flags.writeable = False
        object.__setattr__(self, "names", tuple(n for n, _ in by_name))
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "_name_array", np.array(self.names, dtype=object))

    @property
    def universe(self) -> tuple[str, ...]:
        return self.patterns[0][1].universe


@dataclass(frozen=True)
class ClassificationResult:
    """Scores sorted descending; winner present iff the top score is
    separated from the runner-up by more than the tie tolerance."""

    scores: tuple[tuple[str, float], ...]
    winner: str | None
    undecided: bool
    tie_margin: float

    def top(self) -> tuple[str, float]:
        return self.scores[0]


def classify(
    lib: PatternLibrary, sample: IFS, measure: MeasureDescriptor, tie_tol: float = 1e-4
) -> ClassificationResult:
    """Assign the sample to the pattern with the greatest similarity."""
    if not tie_tol >= 0.0:  # false for nan too
        raise OutOfRangeError(f"tie_tol must be >= 0, got {_show(tie_tol)}")
    _require_same_universe(lib, sample)
    scores = 1.0 - measure.evaluator(lib, sample, lib.weights)
    # stable, and the stack is in name order: ties keep name order
    order = np.argsort(-scores, kind="stable")
    scored = tuple(zip(lib._name_array[order].tolist(), scores[order].tolist()))
    if len(scored) == 1:
        return ClassificationResult(scored, scored[0][0], False, math.inf)
    margin = scored[0][1] - scored[1][1]
    undecided = margin <= tie_tol
    winner = None if undecided else scored[0][0]
    return ClassificationResult(scored, winner, undecided, margin)
