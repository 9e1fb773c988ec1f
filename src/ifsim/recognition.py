"""Max-similarity pattern classification.

A test sample is scored against every pattern in a library; distance-kind
measures score as 1 - d.  The winner is the unique argmax; if the top two
scores are within tie_tol of each other the result is undecided (mirroring
how published comparisons mark indistinguishable cases).  Scores are sorted
by (score desc, name asc), so permuting the library never changes the
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import IFS, OutOfRangeError, UniverseMismatchError, WeightVector, check_weights
from .registry import MeasureDescriptor


@dataclass(frozen=True)
class PatternLibrary:
    """Named reference patterns over one shared universe, plus the weights
    used when scoring against a sample."""

    patterns: tuple[tuple[str, IFS], ...]
    weights: WeightVector

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
    if tie_tol < 0.0:
        raise OutOfRangeError(f"tie_tol must be >= 0, got {tie_tol!r}")
    if sample.universe != lib.universe:
        raise UniverseMismatchError("sample universe differs from the library universe")
    evaluator, weights = measure.evaluator, lib.weights
    is_distance = measure.kind == "distance"
    scored = []
    for name, pattern in lib.patterns:
        value = evaluator(pattern, sample, weights)
        scored.append((name, 1.0 - value if is_distance else value))
    scored.sort(key=lambda item: (-item[1], item[0]))
    if len(scored) == 1:
        return ClassificationResult(tuple(scored), scored[0][0], False, math.inf)
    margin = scored[0][1] - scored[1][1]
    undecided = margin <= tie_tol
    winner = None if undecided else scored[0][0]
    return ClassificationResult(tuple(scored), winner, undecided, margin)
