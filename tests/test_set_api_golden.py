"""The set API pinned to the last bit: distances, entropy, order and dumps.

Seeded random sets at n = 1, 2, 8 and 1000, with endpoints, zeros and -0.0
among their degrees, are scored by every set-level measure, compared by the
Atanassov order, classified, and serialized.  The golden file holds the
exact ``repr`` of every value and the SHA-256 of every dump, so a change in
how sets are stored or built that moves any bit shows up as a line
difference.  Re-record it (only when a kernel change is meant to move the
numbers) with ``PYTHONPATH=src python tests/test_set_api_golden.py``, which
prints each line it moves (old -> new) before it writes.
"""

import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

from ifsim import (
    IFS,
    PatternLibrary,
    WeightVector,
    classify,
    dist_wu,
    dist_wu_lambda,
    dist_xiao,
    dist_yc,
    dumps_dataset,
    entropy_ifs,
    get_measure,
    ifs_strict_subset,
    ifs_subset,
)
from ifsim.measures import aggregate

GOLDEN = Path(__file__).parent / "golden_set_api.txt"
SIZES = (1, 2, 8, 1000)
SPECIAL = [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (-0.0, 0.25), (0.5, -0.0), (-0.0, -0.0),
           (0.5, 0.5), (0.3, 0.7)]
# labels that need escaping in JSON: quotes, backslashes, control and non-ASCII characters
ODD_LABELS = ['x"1', "x\\2", "x\n3", "ä", "漢", "x/6", "\U0001f600", "x 8"]


def _point(rng: random.Random) -> tuple[float, float]:
    mu = rng.random()
    return mu, rng.random() * (1.0 - mu)


def _inside(rng: random.Random, mu: float, nu: float) -> tuple[float, float]:
    """A value contained in <mu, nu>: no more membership, no less non-membership."""
    return mu * rng.random(), nu + (1.0 - mu - nu) * rng.random()


def _case(n: int):
    rng = random.Random(f"set-api-{n}")
    a = [SPECIAL[j] if j < len(SPECIAL) and n > 1 else _point(rng) for j in range(n)]
    b = [SPECIAL[-1 - j] if j < len(SPECIAL) and n > 1 else _point(rng) for j in range(n)]
    c = [_inside(rng, mu, nu) for mu, nu in a]
    universe = ODD_LABELS[:n] if n <= len(ODD_LABELS) else [f"e{j}" for j in range(n)]
    raw = [0.5 + rng.random() for _ in range(n)]
    w = WeightVector(tuple(x / sum(raw) for x in raw))
    sets = {name: IFS.from_pairs(p, universe) for name, p in (("A", a), ("B", b), ("C", c))}
    return sets, w


def golden_lines() -> list[str]:
    jgamma = {g: get_measure("jgamma", gamma=g).evaluator for g in (1.0, 2.0)}
    wu = get_measure("wu")
    lines = []
    for n in SIZES:
        sets, w = _case(n)
        for x, y in (("A", "B"), ("B", "A"), ("A", "C"), ("C", "A"), ("A", "A"), ("B", "C")):
            a, b = sets[x], sets[y]
            values = {
                "dist_wu": dist_wu(a, b, w),
                "dist_wu_lambda(0.5)": dist_wu_lambda(a, b, w, 0.5),
                "dist_xiao": dist_xiao(a, b),
                "dist_yc": dist_yc(a, b),
                "jgamma(1)": jgamma[1.0](a, b, None),
                "jgamma(2)": jgamma[2.0](a, b, None),
                "ifs_subset": ifs_subset(a, b),
                "ifs_strict_subset": ifs_strict_subset(a, b),
            }
            lines += [f"n={n} {key}({x}, {y}) = {v!r}" for key, v in values.items()]
        for x, a in sets.items():
            lines.append(f"n={n} entropy_ifs({x}) = {entropy_ifs(a, w)!r}")
        lib = PatternLibrary((("A", sets["A"]), ("B", sets["B"])), w)
        scores = classify(lib, sets["C"], wu).scores
        lines.append(f"n={n} classify(C, wu) = {scores!r}")
        for label, weights in (("weights", w), ("no weights", None)):
            digest = hashlib.sha256(dumps_dataset(sets, weights).encode()).hexdigest()
            lines.append(f"n={n} sha256(dumps_dataset, {label}) = {digest}")
    return lines


def test_set_api_matches_golden():
    assert golden_lines() == GOLDEN.read_text(encoding="utf-8").splitlines()


# Sizes around numpy's 8-way unrolled sum and its 128-element pairwise
# blocks, where a different reduction order would first move a bit; the
# golden file covers only n = 1, 2, 8 and 1000.
MEAN_SIZES = (1, 7, 9, 127, 128, 129, 4097, 25000)
MEAN_MEASURES = (("wu", {}), ("wu-lambda", {"lambda": 0.5}), ("xiao", {}), ("yc", {}),
                 ("jgamma", {"gamma": 1.0}), ("jgamma", {"gamma": 2.0}))


def _simplex_set(rng: np.random.Generator, n: int) -> IFS:
    mu = rng.random(n)
    return IFS.from_pairs(np.column_stack([mu, rng.random(n) * (1.0 - mu)]))


@pytest.mark.parametrize("name, params", MEAN_MEASURES)
def test_unweighted_aggregate_is_kernel_mean(name, params):
    md = get_measure(name, **params)
    for n in MEAN_SIZES:
        rng = np.random.default_rng(n)
        a, b = _simplex_set(rng, n), _simplex_set(rng, n)
        expected = float(md.pair_batch(*a.degrees, *b.degrees).mean())
        assert aggregate(md.pair_batch, a, b).hex() == expected.hex(), n


if __name__ == "__main__":
    from rerecord import write_golden

    write_golden(GOLDEN, "\n".join(golden_lines()) + "\n")
