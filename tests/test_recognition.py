"""Max-similarity classification."""

import math

import pytest

from ifsim import (
    IFS,
    OutOfRangeError,
    PatternLibrary,
    UniverseMismatchError,
    builtin_dataset,
    classify,
    dist_wu,
    get_measure,
    uniform_weights,
)
from ifsim.measures import js_norm_batch
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

    def test_distance_and_dual_similarity_rank_identically(self):
        sets, w = builtin_dataset("tableIII")
        lib = PatternLibrary(tuple((n, sets[n]) for n in ("P1", "P2", "P3")), w)
        dist_md = get_measure("wu")
        sim_md = MeasureDescriptor(
            "wu-dual", "similarity", {},
            lambda a, b, wv: 1.0 - dist_wu(a, b, wv if wv is not None else uniform_weights(len(a))),
            lambda *c: 1.0 - js_norm_batch(*c),
        )
        r_dist = classify(lib, sets["S1"], dist_md)
        r_sim = classify(lib, sets["S1"], sim_md)
        assert [n for n, _ in r_dist.scores] == [n for n, _ in r_sim.scores]
        assert r_dist.winner == r_sim.winner
        for (_, a), (_, b) in zip(r_dist.scores, r_sim.scores):
            assert a == pytest.approx(b, abs=1e-15)


class TestClassifyValidation:
    def test_universe_mismatch(self):
        sets, w = builtin_dataset("tableIII")
        lib = PatternLibrary(tuple((n, sets[n]) for n in ("P1", "P2")), w)
        other = IFS.from_pairs([(0.1, 0.2)], ["z"])
        with pytest.raises(UniverseMismatchError):
            classify(lib, other, get_measure("wu"))

    def test_negative_tie_tol(self):
        lib, sample = _tableiii_library()
        with pytest.raises(OutOfRangeError):
            classify(lib, sample, get_measure("wu"), tie_tol=-1e-3)

    def test_empty_library_rejected(self):
        sets, w = builtin_dataset("tableIII")
        with pytest.raises(OutOfRangeError):
            PatternLibrary((), w)

    def test_duplicate_pattern_names_rejected(self):
        sets, w = builtin_dataset("tableIII")
        with pytest.raises(OutOfRangeError):
            PatternLibrary((("P", sets["P1"]), ("P", sets["P2"])), w)
