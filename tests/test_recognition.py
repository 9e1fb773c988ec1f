"""Max-similarity classification."""

import math

import numpy as np
import pytest

from conftest import LONG_INT, LONG_INT_SHOWN
from ifsim import (
    IFS,
    OutOfRangeError,
    PatternLibrary,
    UniverseMismatchError,
    WeightVector,
    builtin_dataset,
    classify,
    get_measure,
    uniform_weights,
)
from ifsim.measures import _BLOCK_CELLS, WU_SPLIT, aggregate, js_norm_batch
from ifsim.recognition import ClassificationResult
from ifsim.registry import MeasureDescriptor


def _tableiii_library():
    sets, w = builtin_dataset("tableIII")
    lib = PatternLibrary(tuple((n, sets[n]) for n in ("P1", "P2", "P3")), w)
    return lib, sets["S1"]


class TestClassifyTableIII:
    @pytest.mark.parametrize("name,params,expected", [
        ("yc", {}, (0.89, 0.77, 0.90)),
        ("xiao", {}, (0.85, 0.69, 0.86)),
        ("wu-lambda", {"lam": 1 / 3}, (0.91, 0.84, 0.92)),
    ])
    def test_published_rows(self, name, params, expected):
        lib, sample = _tableiii_library()
        result = classify(lib, sample, get_measure(name, **params), tie_tol=1e-4)
        scores = dict(result.scores)
        for pat, exp in zip(("P1", "P2", "P3"), expected):
            assert scores[pat] == pytest.approx(exp, abs=5e-3)
        assert result.winner == "P3"
        assert not result.undecided

    def test_scores_sorted_descending(self):
        lib, sample = _tableiii_library()
        result = classify(lib, sample, get_measure("wu"), tie_tol=1e-4)
        values = [s for _, s in result.scores]
        assert values == sorted(values, reverse=True)


class TestClassifyBehavior:
    def test_sample_in_library_wins_with_unit_score(self):
        sets, w = builtin_dataset("tableIII")
        lib = PatternLibrary(tuple(sets.items()), w)
        result = classify(lib, sets["S1"], get_measure("wu"), tie_tol=1e-4)
        assert result.winner == "S1"
        assert result.top() == ("S1", 1.0)

    def test_identical_patterns_tie(self):
        sets, w = builtin_dataset("tableIII")
        lib = PatternLibrary((("A", sets["P3"]), ("B", sets["P3"])), w)
        result = classify(lib, sets["S1"], get_measure("wu"), tie_tol=1e-4)
        assert result.undecided
        assert result.winner is None
        assert result.tie_margin == 0.0

    def test_single_pattern_always_wins(self):
        sets, w = builtin_dataset("tableIII")
        lib = PatternLibrary((("only", sets["P1"]),), w)
        result = classify(lib, sets["S1"], get_measure("wu"))
        assert result.winner == "only"
        assert result.tie_margin == math.inf

    def test_permutation_equivariance(self):
        sets, w = builtin_dataset("tableIII")
        names = ("P1", "P2", "P3")
        base = PatternLibrary(tuple((n, sets[n]) for n in names), w)
        shuffled = PatternLibrary(tuple((n, sets[n]) for n in ("P3", "P1", "P2")), w)
        md = get_measure("wu-lambda", lam=1 / 3)
        assert classify(base, sets["S1"], md) == classify(shuffled, sets["S1"], md)


class TestClassifyValidation:
    def test_universe_mismatch(self):
        sets, w = builtin_dataset("tableIII")
        lib = PatternLibrary(tuple((n, sets[n]) for n in ("P1", "P2")), w)
        other = IFS.from_pairs([(0.1, 0.2)], ["z"])
        with pytest.raises(UniverseMismatchError):
            classify(lib, other, get_measure("wu"))

    @pytest.mark.parametrize("pairs,labels,message", [
        ([(0.1, 0.2), (0.3, 0.4)], ["x1", "x2"], "3 vs 2 labels, first at position 2: 'x3' vs (end)"),
        ([(0.1, 0.2), (0.3, 0.4), (0.5, 0.1)], ["x1", "y2", "x3"],
         "3 vs 3 labels, first at position 1: 'x2' vs 'y2'"),
    ], ids=["shorter", "relabelled"])
    def test_universe_mismatch_is_named_by_the_shared_rule(self, pairs, labels, message):
        lib, _ = _tableiii_library()
        with pytest.raises(UniverseMismatchError) as info:
            classify(lib, IFS.from_pairs(pairs, labels), get_measure("wu"))
        assert str(info.value) == f"universes differ: {message}"

    def test_negative_tie_tol(self):
        lib, sample = _tableiii_library()
        with pytest.raises(OutOfRangeError):
            classify(lib, sample, get_measure("wu"), tie_tol=-1e-3)

    def test_tie_tol_too_long_to_print(self):
        lib, sample = _tableiii_library()
        with pytest.raises(OutOfRangeError) as info:
            classify(lib, sample, get_measure("wu"), tie_tol=LONG_INT)
        assert str(info.value) == f"tie_tol must be >= 0, got {LONG_INT_SHOWN}"

    def test_nan_tie_tol(self):
        sets, w = builtin_dataset("tableIII")
        lib = PatternLibrary((("A", sets["P3"]), ("B", sets["P3"])), w)
        with pytest.raises(OutOfRangeError):
            classify(lib, sets["S1"], get_measure("wu"), tie_tol=float("nan"))

    def test_empty_library_rejected(self):
        sets, w = builtin_dataset("tableIII")
        with pytest.raises(OutOfRangeError):
            PatternLibrary((), w)

    def test_duplicate_pattern_names_rejected(self):
        sets, w = builtin_dataset("tableIII")
        with pytest.raises(OutOfRangeError):
            PatternLibrary((("P", sets["P1"]), ("P", sets["P2"])), w)

    def test_patterns_over_different_universes_rejected(self):
        sets, w = builtin_dataset("tableIII")
        other = IFS.from_pairs(sets["P2"].degrees.T, ["y1", "y2", "y3"])
        with pytest.raises(UniverseMismatchError, match="^pattern 'P2' has a different universe$"):
            PatternLibrary((("P1", sets["P1"]), ("P2", other)), w)


EQUIVALENCE_MEASURES = {
    "wu": get_measure("wu"),
    "wu-lambda": get_measure("wu-lambda", lam=0.5),
    "xiao": get_measure("xiao"),
    "yc": get_measure("yc"),
    "jgamma-1": get_measure("jgamma", gamma=1.0),
    "jgamma-2": get_measure("jgamma", gamma=2.0),
}


def _reference_classify(lib, sample, measure, tie_tol=1e-4):
    """The per-pattern algorithm: one evaluator call per pattern, scored
    1 - d, then a sort on (score desc, name asc)."""
    scored = []
    for name, pattern in lib.patterns:
        scored.append((name, 1.0 - measure.evaluator(pattern, sample, lib.weights)))
    scored.sort(key=lambda item: (-item[1], item[0]))
    if len(scored) == 1:
        return ClassificationResult(tuple(scored), scored[0][0], False, math.inf)
    margin = scored[0][1] - scored[1][1]
    undecided = margin <= tie_tol
    return ClassificationResult(tuple(scored), None if undecided else scored[0][0], undecided, margin)


def _random_degrees(rng, p, n):
    """p rows of n valid (mu, nu) pairs as a (p, n, 2) array."""
    mu = rng.random((p, n))
    nu = rng.random((p, n)) * (1.0 - mu)
    return np.stack([mu, nu], axis=-1)


def _libraries(rng, n, weights):
    """(label, library, sample) cases over one n: random patterns under
    shuffled names, a single pattern, identical patterns under names given
    out of order (with the sample among them, so the top ties), signed
    zeros, and for larger n a library that spans several blocks."""
    universe = [f"x{j}" for j in range(n)]

    def ifs(rows):
        return IFS.from_pairs(rows, universe)

    def lib(named):
        return PatternLibrary(tuple(named), weights)

    rand = _random_degrees(rng, 6, n)
    sample = ifs(rand[5])
    yield "random", lib((f"p{k}", ifs(rand[k])) for k in (3, 0, 4, 1, 2)), sample
    yield "single", lib([("only", ifs(rand[0]))]), sample
    twins = [("m", sample), ("b", ifs(rand[1])), ("k", sample), ("a", ifs(rand[1])), ("c", ifs(rand[2]))]
    yield "twins", lib(twins), sample
    zeros = rand[:4].copy()
    zeros[0, ::2, 0] = -0.0
    zeros[1, ::2, 0] = 0.0
    zeros[2, 1::2, 1] = -0.0
    zeros[3] = 0.0
    signed = zeros[0].copy()
    signed[::3] = -0.0
    yield "zeros", lib((f"z{k}", ifs(zeros[k])) for k in (2, 0, 3, 1)), ifs(signed)
    if n >= 129:
        p = 300 if n < 1000 else 100  # more than one block of 1 << 15 cells, the last one partial
        big = _random_degrees(rng, p, n)
        names = [f"q{k:03d}" for k in rng.permutation(p)]
        yield "blocks", lib((name, ifs(rows)) for name, rows in zip(names, big)), sample


class TestClassifyMatchesPerPatternLoop:
    """classify gives bitwise the result of a per-pattern evaluator loop."""

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 129, 1000])
    @pytest.mark.parametrize("measure", list(EQUIVALENCE_MEASURES))
    def test_repr_bitwise_equal(self, measure, n):
        md = EQUIVALENCE_MEASURES[measure]
        rng = np.random.default_rng([n, len(measure)])
        raw = rng.random(n) + 0.5
        for weights in (uniform_weights(n), WeightVector(tuple(raw / raw.sum()))):
            for label, lib, sample in _libraries(rng, n, weights):
                got = classify(lib, sample, md)
                want = _reference_classify(lib, sample, md)
                assert repr(got) == repr(want), (label, weights.weights[:2])


class TestClassifyBlocks:
    """classify bounds the kernel's temporaries: every kernel call covers at
    most _BLOCK_CELLS cells of whole patterns, or one pattern when a single
    one is larger."""

    @pytest.mark.parametrize("n,p", [(8, 5000), (1000, 100), (_BLOCK_CELLS, 3), (40000, 3)])
    def test_kernel_calls_stay_within_a_block(self, n, p):
        shapes = []

        def kernel(*c):
            out = js_norm_batch(*c)
            shapes.append(out.shape)
            return out

        md = MeasureDescriptor("wu-recorded", {}, lambda a, b, w: aggregate(kernel, a, b, w), kernel,
                               WU_SPLIT)
        rng = np.random.default_rng(p)
        rows = _random_degrees(rng, p + 1, n)
        universe = [f"x{j}" for j in range(n)]
        lib = PatternLibrary(
            tuple((f"p{k}", IFS.from_pairs(r, universe)) for k, r in enumerate(rows[:p])),
            uniform_weights(n),
        )
        result = classify(lib, IFS.from_pairs(rows[p], universe), md)
        assert len(result.scores) == p
        per_block = max(1, _BLOCK_CELLS // n)
        assert len(shapes) == -(-p // per_block)
        assert sum(k for k, _ in shapes) == p
        for k, cols in shapes:
            assert cols == n
            assert k * n <= _BLOCK_CELLS if n <= _BLOCK_CELLS else k == 1


def _workload_library(rng, patterns=200, n=8):
    """The shape of the benchmark's classify workload: named patterns of n
    uniform simplex points, plus samples that are patterns shrunk
    elementwise by at most 1e-3, one of them a pattern's twin (a tie)."""
    universe = [f"x{j + 1}" for j in range(n)]
    mu, nu = rng.random((2, patterns, n))
    flip = mu + nu > 1.0
    mu[flip], nu[flip] = 1.0 - mu[flip], 1.0 - nu[flip]
    sets = [IFS.from_pairs(np.stack([m, v], axis=-1), universe) for m, v in zip(mu, nu)]
    named = [(f"P{i:03d}", s) for i, s in enumerate(sets)] + [("twin", sets[7])]
    samples = [IFS.from_pairs(np.stack([np.maximum(0.0, mu[k] - 1e-3 * rng.random(n)),
                                        np.maximum(0.0, nu[k] - 1e-3 * rng.random(n))], axis=-1),
                              universe) for k in (0, 99, 199)]
    return PatternLibrary(tuple(named), uniform_weights(n)), samples + [sets[7]]


class TestClassifyRanking:
    """classify ranks the names of its scores as the per-pattern loop does,
    ties in name order included."""

    @pytest.mark.parametrize("measure", list(EQUIVALENCE_MEASURES))
    def test_results_equal_the_per_pattern_loop(self, measure):
        md = EQUIVALENCE_MEASURES[measure]
        lib, samples = _workload_library(np.random.default_rng(401))
        sets, w = builtin_dataset("tableIII")
        table = PatternLibrary(tuple(sets.items()) + (("S0", sets["S1"]),), w)
        cases = [(lib, s) for s in samples] + [(table, sets["S1"]), (table, sets["P2"])]
        tied = 0
        for lib, sample in cases:
            got = classify(lib, sample, md)
            assert got == _reference_classify(lib, sample, md)
            tied += got.tie_margin == 0.0
        assert tied == 2  # the library twin and S0 tie at the top
