"""Every elementwise kernel pinned to the last bit, one SHA-256 per configuration.

Each configuration's kernel (``get_measure(...).pair_batch``) is run on four
input sets, and the dtype, shape and bytes of every output go into one
digest:

* the 0.01 grid in the blocks of the audit's grid sweep, i.e. ``(rows, 1)``
  against ``(1, cols)`` arrays over the unordered pairs i <= j;
* seeded uniform pairs of the simplex, as 1-D arrays;
* all ordered pairs of the edge corpus (``EDGE_POINTS``), as 1-D arrays;
* the scalar-against-array and all-scalar calls that ``ifsim.scenarios``
  makes, plus calls with -0.0 degrees, which stored sets may hold.

A rewrite of a kernel that is meant to keep every value leaves the digests
as they are.  Re-record them (only when a kernel change is meant to move the
numbers) with ``PYTHONPATH=src python tests/test_kernel_digest.py``, which
prints each digest it moves (old -> new) before it writes.

On the edge corpus every kernel must also be finite, free of RuntimeWarning,
zero on equal values, bitwise symmetric and within its range: [0, 1], or
[0, ln 2] for the raw J_1, which must also hold on the 0.01 grid, with
exactly ln 2 on the endpoint pair.  The same checks run on the corpus
with its slack points added (SLACK_CORPUS), where xiao, yc, J_1 and J_0.5
still fail (ROADMAP item 2).  On the first ORACLE_PAIRS uniform pairs
every kernel must lie within 1e-12 of the exact reference (tests/exact.py).
The JS term decides per block whether its guards run, so every value must
also have the bits of a one-element and a 0-d call on its own element.
"""

import hashlib
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import exact
from ifsim import NumericalConsistencyError, audit, get_measure, grid_points
from ifsim.baselines import YC_SPLIT, j_gamma_split
from ifsim.core import SIMPLEX_SLACK
from ifsim.measures import WU_SPLIT, _l_stacked, z_score_batch

GOLDEN = Path(__file__).parent / "golden_kernel_digest.json"
CONFIGS = {
    "wu": ("wu", {}),
    "wu-lambda(0.5)": ("wu-lambda", {"lambda": 0.5}),
    "wu-lambda(2)": ("wu-lambda", {"lambda": 2.0}),
    "xiao": ("xiao", {}),
    "yc": ("yc", {}),
    "jgamma(1)": ("jgamma", {"gamma": 1.0}),
    "jgamma(2)": ("jgamma", {"gamma": 2.0}),
    "jgamma(0.5)": ("jgamma", {"gamma": 0.5}),
}
SWEEP_BLOCK_CELLS = 1 << 15  # the audit's grid sweep block size
UNIFORM_PAIRS = 100_000
UNIFORM_SEED = 20221018
ORACLE_PAIRS = 500
HIGH = {"jgamma(1)": math.log(2.0)}  # the top of a range other than [0, 1]

_TINY = float(np.nextafter(0.0, 1.0))
EDGE_VALUES = [
    0.0, _TINY, 1e-310, float(np.finfo(float).tiny),
    *(10.0 ** -k for k in (300, 200, 100, 50, 30, 20, 15, 12, 9)),
    float(np.nextafter(0.5, 0.0)), 0.5, float(np.nextafter(0.5, 1.0)),
    float(np.nextafter(1.0, 0.0)), 1.0,
]
# every (mu, nu) of edge values with mu + nu <= 1 in exact arithmetic
EDGE_POINTS = np.array([(m, n) for m in EDGE_VALUES for n in EDGE_VALUES
                        if Fraction(m) + Fraction(n) <= 1])


def _slack_points() -> np.ndarray:
    """Points (mu, fl(1 - mu) + delta) of edge values mu, past the simplex
    but within the SIMPLEX_SLACK that IFV accepts, and their complements."""
    points = set()
    for mu in EDGE_VALUES:
        for delta in (2.0 ** -52, 1e-12, 1e-9):
            nu = (1.0 - mu) + delta
            if nu <= 1.0 and mu + nu <= 1.0 + SIMPLEX_SLACK:
                points |= {(mu, nu), (nu, mu)}
    return np.array(sorted(points))


SLACK_CORPUS = np.vstack([EDGE_POINTS, _slack_points()])


def edge_pairs(points: np.ndarray = EDGE_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """All ordered pairs (a, b) of points, as two (n*n, 2) arrays."""
    n = len(points)
    return np.repeat(points, n, axis=0), np.tile(points, (n, 1))


def _sweep_blocks(grid: np.ndarray):
    g, lo = len(grid), 0
    while lo < g:
        hi = min(lo + max(1, SWEEP_BLOCK_CELLS // (g - lo)), g)
        yield grid[lo:hi, None], grid[None, lo:]
        lo = hi


def _uniform_pairs() -> tuple[np.ndarray, np.ndarray]:
    xy = np.random.default_rng(UNIFORM_SEED).random((2 * UNIFORM_PAIRS, 2))
    over = xy[:, 0] + xy[:, 1] > 1.0
    xy[over] = 1.0 - xy[over]
    return xy[:UNIFORM_PAIRS], xy[UNIFORM_PAIRS:]


def _scenario_calls():
    """(mu_a, nu_a, mu_b, nu_b) argument tuples shaped as the scenarios pass them."""
    lams = np.linspace(0.0, 1.0, 101)
    zeros = np.zeros_like(lams)
    part = lams * 0.6
    return [
        (1.0, 0.0, lams, zeros), (1.0, 0.0, lams, 1.0 - lams),
        (0.0, 1.0, lams, zeros), (0.0, 1.0, lams, 1.0 - lams),
        (1.0, 0.0, zeros, lams), (1.0 / 3.0, 1.0 / 3.0, part, np.full_like(lams, 1e-5)),
        (0.33, 0.36, 1.0 / 3.0, part), (0.33, 0.36, 0.334, part),
        (part, 1.0 - lams, 1.0 - lams, part), (1.0, 0.0, np.full_like(lams, 0.4), part),
        (0.3, 0.2, 0.4, 0.1), (0.5, 0.5, 0.5, 0.5), (1.0, 0.0, 0.0, 1.0),
        (-0.0, 0.25, 0.5, -0.0), (-0.0, -0.0, -0.0, -0.0), (1.0, -0.0, 1.0, 0.0),
        (-zeros, part, zeros, part),
    ]


def _inputs():
    """Every argument tuple a digest covers, in a fixed order."""
    for a, b in _sweep_blocks(grid_points(0.01)):
        yield a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    for a, b in (_uniform_pairs(), edge_pairs()):
        yield a[:, 0], a[:, 1], b[:, 0], b[:, 1]
    yield from _scenario_calls()


def kernel_digest(name: str) -> str:
    measure, params = CONFIGS[name]
    kernel = get_measure(measure, **params).pair_batch
    h = hashlib.sha256()
    for args in _inputs():
        out = np.asarray(kernel(*args))
        h.update(f"{out.dtype.str}{out.shape}".encode())
        h.update(np.ascontiguousarray(out).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(CONFIGS))
def test_kernel_digest(name):
    assert kernel_digest(name) == json.loads(GOLDEN.read_text())[name]


def _check_corpus(name: str, points: np.ndarray) -> None:
    """The kernel on all ordered pairs of points: finite, free of
    RuntimeWarning, bitwise symmetric, zero on equal values, in range."""
    measure, params = CONFIGS[name]
    kernel = get_measure(measure, **params).pair_batch
    a, b = edge_pairs(points)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        d_ab = kernel(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
        d_ba = kernel(b[:, 0], b[:, 1], a[:, 0], a[:, 1])
        d_aa = kernel(*points.T, *points.T)
    assert np.isfinite(d_ab).all()
    assert d_ab.tobytes() == d_ba.tobytes()
    assert points[d_aa != 0.0].tolist() == []
    assert 0.0 <= d_ab.min() and d_ab.max() <= HIGH.get(name, 1.0)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_edge_corpus(name):
    _check_corpus(name, EDGE_POINTS)


SLACK_DEFECTS = {
    "xiao": pytest.mark.xfail(strict=True, raises=AssertionError,
                              reason="item 2: the maximum is 1.00000000025, above 1"),
    "yc": pytest.mark.xfail(strict=True, raises=NumericalConsistencyError,
                            reason="item 2: the arccos argument 1.000000001 is refused"),
    "jgamma(1)": pytest.mark.xfail(strict=True, raises=AssertionError,
                                   reason="item 2: the maximum is 0.693147180906519, above ln 2"),
    "jgamma(0.5)": pytest.mark.xfail(strict=True, raises=AssertionError,
                                     reason="item 2: the maximum is 1.0000000002928933, above 1"),
}


@pytest.mark.parametrize("name", [pytest.param(n, marks=SLACK_DEFECTS.get(n, ())) for n in CONFIGS])
def test_edge_corpus_slack_points(name):
    _check_corpus(name, SLACK_CORPUS)


def test_j1_range_on_grid():
    kernel = get_measure("jgamma", gamma=1.0).pair_batch
    low, high = math.inf, -math.inf
    for a, b in _sweep_blocks(grid_points(0.01)):
        block = kernel(a[..., 0], a[..., 1], b[..., 0], b[..., 1])
        low, high = min(low, block.min()), max(high, block.max())
    assert (low, high) == (0.0, math.log(2.0))
    assert kernel(1.0, 0.0, 0.0, 1.0) == math.log(2.0)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_exact_reference(name):
    measure, params = CONFIGS[name]
    a, b = (x[:ORACLE_PAIRS].T for x in _uniform_pairs())
    got = get_measure(measure, **params).pair_batch(*a, *b)
    abs_err, _ = exact.worst_errors(got, exact.elems(measure, *a, *b, **params))
    assert abs_err <= 1e-12


def _stack_shapes():
    """Argument tuples whose sides' channels differ in shape: a (P, n)
    library against an (n,) sample, an outer product (g, 1) x (1, g), a side
    whose mu is 0-d and whose nu is an array, and empty arrays."""
    a, b = (x[:1600].reshape(200, 8, 2) for x in _uniform_pairs())
    grid, lams = grid_points(0.05), np.linspace(0.0, 1.0, 101)
    empty = np.empty(0)
    return [
        (a[..., 0], a[..., 1], b[0, :, 0], b[0, :, 1]),
        (grid[:, None, 0], grid[:, None, 1], grid[None, :, 0], grid[None, :, 1]),
        (0.2, lams * 0.6, lams * 0.4, 1.0 - lams),
        (empty, empty, empty, empty), (0.3, 0.2, empty, empty),
    ]


# the configurations whose channels share one term; wu's two channels
# differ in theirs
@pytest.mark.parametrize("name", ["xiao", "yc", "jgamma(1)", "jgamma(2)", "jgamma(0.5)"])
def test_stacked_and_unstacked_split_agree(name):
    # a term shared by the channels runs once on both sides' channels,
    # stacked at their broadcast shape, and the same term given once per
    # channel runs on each channel as it is, 0-d in the all-scalar calls
    measure, params = CONFIGS[name]
    split = get_measure(measure, **params).split
    if isinstance(split.term, tuple):
        assert len(set(split.term)) == 1
        flipped = split._replace(term=split.term[0])
    else:
        flipped = split._replace(term=(split.term,) * 3)
    calls = [(a[:, 0], a[:, 1], b[:, 0], b[:, 1]) for a, b in (_uniform_pairs(), edge_pairs())]
    for args in calls + _scenario_calls() + _stack_shapes():
        x, y = split(*args), flipped(*args)
        assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes())


@pytest.mark.parametrize("name", list(CONFIGS))
def test_channels_carry_the_degrees(name):
    # wu's mu channel is mu itself (1 - 1e-20 would round to 1.0), and a
    # split with a tuple of terms has one term per channel
    measure, params = CONFIGS[name]
    split = get_measure(measure, **params).split
    mu, nu = np.array([1e-20]), np.array([0.0])
    channels = split.channels(mu, nu)
    if measure.startswith("wu"):
        assert channels[0].tolist() == (mu ** params.get("lambda", 1.0)).tolist()
    if isinstance(split.term, tuple):
        assert len(split.term) == len(channels)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_finish_gets_an_array(name):
    # 0-d in an all-scalar call, whose value is still a numpy float64
    measure, params = CONFIGS[name]
    split = get_measure(measure, **params).split
    got = []

    def finish(total):
        got.append(type(total))
        return split.finish(total)

    wrapped, lams = split._replace(finish=finish), np.linspace(0.0, 1.0, 11)
    value = wrapped(0.3, 0.2, 0.4, 0.1)
    wrapped(1.0, 0.0, lams, 1.0 - lams)
    wrapped(lams, 1.0 - lams, lams[::-1], lams)
    assert got == [np.ndarray] * 3
    assert type(value) is np.float64


# the configurations whose kernel keeps its bits when mu and nu swap in both
# points, which the audit's grid sweep then mirrors (audit._mirror): the
# (mu, nu, pi) rivals, whose first two channels share one term; wu's mu
# term reads 1 - x
MIRRORED = ["xiao", "yc", "jgamma(1)", "jgamma(2)", "jgamma(0.5)"]


@pytest.mark.parametrize("name", list(CONFIGS))
def test_mirror_identity(name):
    # kernel(nu_a, mu_a, nu_b, mu_b) has the bits of kernel(mu_a, nu_a,
    # mu_b, nu_b) on the uniform pairs and the edge corpus, or, for wu and
    # wu-lambda, differs somewhere
    measure, params = CONFIGS[name]
    kernel = get_measure(measure, **params).pair_batch
    same = []
    for a, b in (_uniform_pairs(), edge_pairs()):
        d = kernel(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
        swapped = kernel(a[:, 1], a[:, 0], b[:, 1], b[:, 0])
        same.append(d.tobytes() == swapped.tobytes())
    assert all(same) if name in MIRRORED else not all(same)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_sweep_mirrors_the_mirror_symmetric_kernels(name):
    # at 0.01 (5151 points, 51 of them on mu == nu): the rows mu <= nu, each
    # block against the mirror's columns, or every row against the columns
    # j >= lo; in both, cols is an index array of the columns
    measure, params = CONFIGS[name]
    layout = [(len(block), block.size, len(cols))
              for _, cols, block in audit._sweep_blocks(get_measure(measure, **params),
                                                        grid_points(0.01))]
    full = name not in MIRRORED
    assert all(n == w * c for w, n, c in layout)
    assert (sum(w for w, _, _ in layout), sum(n for _, n, _ in layout), len(layout)) == (
        (5151, 13_328_808, 431) if full else (2601, 6_715_738, 248))


# the configurations whose finish is declared non-decreasing
# (measures._non_decreasing), which the audit's grid sweep then applies only
# to the cells its checks read: sqrt(z/2) and J_1's z * (ln 2 / 2)
DECLARED = ["wu", "wu-lambda(0.5)", "wu-lambda(2)", "xiao", "jgamma(1)"]


def _is_declared(finish) -> bool:
    return getattr(finish, "non_decreasing", False)


def test_declared_finishes():
    assert [n for n, (m, p) in CONFIGS.items()
            if _is_declared(get_measure(m, **p).split.finish)] == DECLARED
    # numpy's arccos and the power branch's finish carry no such proof
    assert not _is_declared(YC_SPLIT.finish)
    assert not _is_declared(j_gamma_split(2.0).finish)
    # the declaration is the finish's own: a split given another drops it
    assert not _is_declared(WU_SPLIT._replace(finish=lambda z: np.sqrt(z / 2.0)).finish)
    assert not _is_declared(z_score_batch.finish)


def _finish_ladder() -> np.ndarray:
    """Non-negative sums with their ulp neighbours: +-0, the smallest
    subnormal and normal, 1, 2, large finite values, inf, and seeded sums
    of the range the built-in channel sums take (at most 2)."""
    tiny, top = float(np.finfo(float).tiny), float(np.finfo(float).max)
    seeded = np.random.default_rng(UNIFORM_SEED).random(500) * 2.0
    x = np.concatenate([[-0.0, 0.0, _TINY, tiny, 1.0, 2.0, 1e300, top, math.inf], seeded])
    with np.errstate(over="ignore"):  # the largest finite value's neighbour is inf
        ladder = np.concatenate([np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)])
    return ladder[~(ladder < 0.0)]


@pytest.mark.parametrize("name", DECLARED)
def test_declared_finish_is_non_decreasing(name):
    measure, params = CONFIGS[name]
    finish = get_measure(measure, **params).split.finish

    def f(x):  # on a copy: the finish writes into its argument
        return finish(np.array(x, dtype=float))

    ladder = _finish_ladder()
    with np.errstate(over="ignore"):
        up = np.nextafter(ladder, math.inf)
    assert (f(ladder) <= f(up)).all()
    ordered = f(np.sort(ladder))
    assert (ordered[:-1] <= ordered[1:]).all()
    assert math.isnan(f(math.nan))
    # the same bits on 0-d, 2-element and block-sized arrays
    one = np.array([f(x)[()] for x in ladder])
    pairs = np.concatenate([f(ladder[i:i + 2]) for i in range(0, len(ladder), 2)])
    side = math.isqrt(SWEEP_BLOCK_CELLS)
    assert pairs.tobytes() == one.tobytes() == f(ladder).tobytes()
    assert f(np.resize(ladder, (side, side))).tobytes() == np.resize(one, (side, side)).tobytes()


# values the term's guards exist for: signed zeros, mu = 1.0 (so 1 - mu = 0),
# both degrees zero, and subnormals beside zeros, as (mu, nu) rows
PLANTED = np.array([
    (0.0, 0.5), (-0.0, 0.25), (0.5, 0.0), (0.5, -0.0), (1.0, 0.0), (0.0, 0.0), (1.0, -0.0),
    (_TINY, 0.5), (0.5, _TINY), (1e-310, 2.5e-320), (float(np.finfo(float).tiny), 0.0),
    (float(np.nextafter(1.0, 0.0)), _TINY), (0.0, 1.0), (-0.0, -0.0),
])


def _guard_sides():
    """(label, a, b): point arrays of the open simplex, where no channel of
    any split holds a zero and every skip is taken; then the same arrays
    with PLANTED at known positions, on a alone, and on both: where only a
    or only b holds them, at the same positions (equal points) and at
    mixed ones."""
    rng = np.random.default_rng(UNIFORM_SEED)
    mu = rng.uniform(0.05, 0.9, (2, 56))
    free = np.stack([mu, (1.0 - mu) * rng.uniform(0.05, 0.9, (2, 56))], axis=-1)
    assert (free != 0).all() and (free.sum(axis=-1) < 1.0).all()
    a, b = free[0].copy(), free[1].copy()
    a[:14], b[14:28], a[28:42], b[28:42] = PLANTED, PLANTED, PLANTED, PLANTED
    a[42:53], b[45:56] = PLANTED[3:], PLANTED[:-3]
    yield "zero-free", free[0], free[1]
    yield "one side planted", a, free[1]
    yield "both sides planted", a, b


@pytest.mark.parametrize("name", list(CONFIGS))
def test_values_do_not_depend_on_their_block(name):
    # each element's bits equal those of a one-element call and of a 0-d
    # call on it, which take the other branch of each guard that the block
    # skips (or runs) in measures._l_stacked and measures._clamp_nonneg
    measure, params = CONFIGS[name]
    kernel = get_measure(measure, **params).pair_batch
    for label, a, b in _guard_sides():
        block = kernel(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
        for i in range(len(a)):
            one = kernel(a[i:i + 1, 0], a[i:i + 1, 1], b[i:i + 1, 0], b[i:i + 1, 1])
            scalar = kernel(float(a[i, 0]), float(a[i, 1]), float(b[i, 0]), float(b[i, 1]))
            assert block[i:i + 1].tobytes() == one.tobytes() == np.float64(scalar).tobytes(), \
                (label, i, a[i], b[i])


def test_l_term_does_not_depend_on_its_block():
    # _l_stacked's values on 1-D arrays and on a table (p against q) have
    # the bits of its calls on one element, as an array and as a 0-d scalar
    rng = np.random.default_rng(UNIFORM_SEED)
    free = rng.uniform(1e-3, 3.0, (2, 24))
    plant = np.array([0.0, -0.0, _TINY, 2.5e-320, 1e-310, float(np.finfo(float).tiny), 0.0])
    p, q = free[0].copy(), free[1].copy()
    p[:7], q[4:11], p[12:19], q[12:19] = plant, plant, plant, plant
    for x, y in ((free[0], free[1]), (p, free[1]), (p, q)):
        line, table = _l_stacked(x, y), _l_stacked(x[:, None], y[None, :])
        for i in range(len(x)):
            one = _l_stacked(x[i:i + 1], y[i:i + 1])
            assert line[i:i + 1].tobytes() == one.tobytes() == _l_stacked(x[i], y[i]).tobytes()
            for j in range(len(y)):
                assert table[i, j].tobytes() == _l_stacked(np.array(x[i]), np.array(y[j])).tobytes()


if __name__ == "__main__":
    from rerecord import write_golden

    digests = {name: kernel_digest(name) for name in CONFIGS}
    write_golden(GOLDEN, json.dumps(digests, indent=2) + "\n")
