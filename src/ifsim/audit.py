"""Machine verification of the strict distance and entropy axioms.

An audit evaluates a measure on deterministic samples, all drawn from one
seed: a simplex grid, random value pairs, random triples, random
strictly-nested chains, and nested pairs for the entropy.  Each sample is
built by its own function where the audit first uses it, and each random
one reads its own stream of the seed.  It reports one verdict per axiom:

* S1  range [0, 1]                      * S4   weak chain monotonicity
* S2  d(a,a) == 0 and d(a,b) > 0        * S4'  strict chain monotonicity
* S3  symmetry                          * S5   distance 1 only on {<0,1>,<1,0>}
* D-triangle  d(a,c) <= d(a,b) + d(b,c)
* E1..E4  entropy axioms (audit_entropy)

Every check gets its verdict through one rule (`_verdict`): its failure
conditions are tried in order, and the first one that some sample meets
decides the verdict, with the first such sample in sample order as the
witness.  Each condition is the negation of what must hold, so a nan
fails every check that reads it.  Reports are therefore reproducible byte
for byte for a given (measure, config).  A check that nothing violates
passes; a pass is evidence, not proof, and is labeled "pass (sampled)".
Strict inequalities are checked with zero slack.  The monotonicity checks
S4, S4' and E4 share one grader (`_graded`): a margin above
config.tolerance fails, and a violating margin at or below it is
"indeterminate at tolerance", separating genuine axiom violations from
floating-point noise.

Every sampled value is computed by the measure's elementwise kernel
(pair_batch), and each built-in evaluator aggregates that same kernel over
a universe.  Each sample array is walked once.  The self pairs (the grid's,
then every pair point's) are graded where their points already are: the
grid's in one evaluation first, each pair point's in its pair's block.  The
random pairs, the triples and the entropy audit's pair points are evaluated
and graded one block at a time (_blocks), cut where the block rule of sets
and libraries (measures._blocked) cuts, so no sample-sized value array is
built: each rule keeps its first witness in sample order (_Found), and each
statistic its blocks' minima or maxima, which numpy's reductions combine,
so a nan propagates as over one array.
The grid sweep takes its cells under one grid permutation sigma (_mirror),
in blocks of the same measures._BLOCK_CELLS cells: the rows i <= sigma i,
each against the columns j with j and sigma j at or past the block's first
row.  sigma is the mirror <mu, nu> -> <nu, mu> where every channel sum
keeps its bits under it, which gives about half the pairs i <= j, and the
identity elsewhere, which gives those pairs.  The sweep does not call
pair_batch: it tabulates each channel's own term of the descriptor's split
(measures.KernelSplit) on the channel's distinct grid values, and each block
adds the gathered table entries by the kernel's own measures.channel_sum,
which gives the kernel's sums bit for bit, the kernel being that split
called on the arrays.  The gathers and their sum fill two buffers
allocated once per sweep, column-major, which the finish may write into.
Each block takes two full reductions, a masked minimum and a masked
maximum, plus an argmax in a block whose maximum sets a new sup, and the
range comes from the reductions and the masked cells.  The split's finish
runs on every cell before the reductions, or, when it is declared
non-decreasing (measures._non_decreasing), after them on the statistics
and on the few blocks that a check or the sup reads cell by cell.  Either
way the statistics are those of the finished values.  The sweep relies on
the kernel being exactly symmetric, which S3 checks; for a symmetric
kernel the statistics, the witnesses and the sup pair are those of the
full ordered matrix of pair_batch values in row-major order.  A nan is
out of range, and the range and sup follow numpy's reductions on it.

audit_distance runs the sweep on one helper thread, started after the grid
is built, while the calling thread evaluates the random pairs, self pairs,
triples, chains and S5's probes and then waits for it, since S1, S2 and S5
read it.  The sweep reads nothing those samples write, and its result
depends on the grid and the kernel alone, so the reports do not depend on
the timing; the helper runs under a copy of the caller's context,
np.errstate included.  Anything raised on the calling thread, in any phase
or during the wait, an interrupt included, stops the sweep within one block
and is what the audit raises; the sweep's own error is raised only when
the calling thread has finished cleanly.  No thread outlives the audit.
"""

from __future__ import annotations

import contextvars
import math
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .core import OutOfRangeError, _count, _is_int, _positive_float, _show
from . import measures
from .measures import _blocked, js_norm_batch
from .registry import MeasureDescriptor

_ENDPOINTS = np.array([[0.0, 1.0], [1.0, 0.0]])
_PINNED_CHAIN = ((0.33, 0.36), (1.0 / 3.0, 1.0 / 3.0), (0.334, 0.333333))
_PINNED_E4_PAIR = ((0.1, 0.8), (0.3, 0.5))
_PINNED_ENTROPY = np.vstack([_ENDPOINTS, [[0.2, 0.2]]])  # E1's endpoints, E2's diagonal point
# float64 bytes per unit of each count in the largest array that count sizes:
# the (n, 2, 2) random pairs, the (n, 3, 2) triples and the (2n, 3, 2) chain
# candidates of _chains_array; numpy refuses an array above sys.maxsize bytes
_SAMPLE_BYTES = {"random_pairs": 32, "random_triples": 48, "chain_samples": 96}


@dataclass(frozen=True)
class AuditConfig:
    """Sampling plan for an audit; identical configs give identical reports."""

    grid_step: float = 0.01
    random_pairs: int = 100_000
    random_triples: int = 100_000
    chain_samples: int = 10_000
    seed: int = 20220714
    tolerance: float = 1e-12

    def __post_init__(self) -> None:
        if not (0.0 < self.grid_step <= 0.5):
            raise OutOfRangeError(f"grid_step {_show(self.grid_step)} outside (0, 0.5]")
        _count(_axis_count(self.grid_step), 3, f"grid_step {self.grid_step!r}: points per axis")
        for name, size in _SAMPLE_BYTES.items():
            n = getattr(self, name)
            _count(n, 1, name)
            if n * size > sys.maxsize:
                raise OutOfRangeError(f"{name} {n} needs an array of {n * size} bytes, "
                                      f"above numpy's limit of {sys.maxsize}")
        # an infinite tolerance would grade the sweep's masked diagonal as a
        # witness; an int above the float range would overflow in the audits
        _positive_float(self.tolerance, OutOfRangeError, "tolerance")
        if not _is_int(self.seed) or self.seed < 0:
            raise OutOfRangeError(f"seed must be a non-negative integer, got {_show(self.seed)}")


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    verdict: str  # pass | fail | indeterminate
    witness: dict | None = None
    detail: str = ""
    stats: dict | None = None  # pass-side measurements (sup, max excess, ...)

    def verdict_label(self) -> str:
        if self.verdict == "pass":
            return "pass (sampled)"
        if self.verdict == "indeterminate":
            return "indeterminate at tolerance"
        return self.verdict


@dataclass(frozen=True)
class AxiomReport:
    measure: str
    checks: tuple[AxiomCheck, ...]
    counts: dict = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.verdict != "fail" for c in self.checks)

    def entry(self, axiom: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

    def to_text(self) -> str:
        lines = [f"axiom audit: {self.measure}"]
        lines.append(
            "samples: " + ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        )
        for c in self.checks:
            line = f"  {c.axiom:<10} {c.verdict_label()}"
            if c.detail:
                line += f"  [{c.detail}]"
            lines.append(line)
            if c.witness is not None:
                for k, v in c.witness.items():
                    lines.append(f"      {k} = {v}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}  ({self.wall_time:.2f}s)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the samples: every point is a (..., 2) array of (mu, nu)
# ---------------------------------------------------------------------------

def _axis_count(step: float) -> int:
    """Points per axis of grid_points(step), floor(1/step + 1e-9) + 1; a step
    so small that 1/step is inf counts as 2**1024, past the float range."""
    span = 1.0 / step + 1e-9
    return int(np.floor(span)) + 1 if span < math.inf else 2 ** 1024


def grid_points(step: float) -> np.ndarray:
    """All (i*step, j*step) with mu + nu <= 1, row-major in (mu, nu)."""
    axis = np.minimum(np.arange(_axis_count(step)) * step, 1.0)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    return pts[pts[:, 0] + pts[:, 1] <= 1.0 + 1e-12]


def _random_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform points of the triangle {mu, nu >= 0, mu + nu <= 1}, as a
    C-contiguous (n, 2) array: a draw (x, y) of the unit square above the
    diagonal is folded to (1 - x, 1 - y) in place, as |over - xy|, which
    gives the bits of a masked 1 - xy, since |0 - x| = x and |1 - x| =
    fl(1 - x) for x in [0, 1), without a masked loop."""
    xy = rng.random((n, 2))
    over = xy[:, 0] + xy[:, 1] > 1.0
    np.subtract(over.astype(float)[:, None], xy, out=xy)
    return np.abs(xy, out=xy)


def _uniform(config: AuditConfig, stream: int, k: int, n: int) -> np.ndarray:
    """(n, k, 2) uniform simplex points from stream `stream` of config.seed:
    the random pairs are stream 0 (k = 2), the random triples stream 1 (k = 3)."""
    rng = np.random.default_rng([config.seed, stream])
    return _random_simplex(rng, k * n).reshape(n, k, 2)


def _strict_rows(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return (hi[:, 0] > lo[:, 0]) | (hi[:, 1] < lo[:, 1])


def _chains_array(config: AuditConfig) -> np.ndarray:
    """(n, 3, 2) strictly nested chains a < b < c, pinned chain first."""
    rng = np.random.default_rng([config.seed, 2])
    rows = [np.array([_PINNED_CHAIN])]
    have = 1
    while have < config.chain_samples:
        m = max(2 * (config.chain_samples - have), 1024)
        a = _random_simplex(rng, m)
        u = rng.random((m, 4))
        mu_b = a[:, 0] + u[:, 0] * (1.0 - a[:, 0] - a[:, 1])
        nu_b = a[:, 1] * u[:, 1]
        mu_c = mu_b + u[:, 2] * (1.0 - mu_b - nu_b)
        nu_c = nu_b * u[:, 3]
        batch = np.stack([a, np.column_stack([mu_b, nu_b]), np.column_stack([mu_c, nu_c])], axis=1)
        ok = _strict_rows(batch[:, 0], batch[:, 1]) & _strict_rows(batch[:, 1], batch[:, 2])
        ok &= (mu_b + nu_b <= 1.0) & (mu_c + nu_c <= 1.0)
        rows.append(batch[ok][: config.chain_samples - have])
        have += len(rows[-1])
    return np.vstack(rows)


def _nested_pairs(config: AuditConfig) -> np.ndarray:
    """(n, 2, 2) pairs (a, b) with mu_a <= mu_b <= nu_b <= nu_a, then the
    complement-mirrored pairs; pinned example pair first."""
    rng = np.random.default_rng([config.seed, 4])
    n = config.chain_samples
    b = _random_simplex(rng, n)
    swap = b[:, 0] > b[:, 1]
    b[swap] = b[swap][:, ::-1]  # ensure mu_b <= nu_b
    u = rng.random((n, 2))
    mu_a = b[:, 0] * u[:, 0]
    nu_a = b[:, 1] + u[:, 1] * (1.0 - mu_a - b[:, 1])
    drawn = np.stack([np.column_stack([mu_a, nu_a]), b], axis=1)
    direct = np.vstack([np.array([_PINNED_E4_PAIR]), drawn])
    return np.vstack([direct, direct[..., ::-1]])


def _is_endpoint(p: np.ndarray) -> np.ndarray:
    return (p[..., None, :] == _ENDPOINTS).all(axis=-1).any(axis=-1)


# ---------------------------------------------------------------------------
# evaluation and the verdict rule
# ---------------------------------------------------------------------------

def _eval_pairs(kernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kernel on the points a and b, broadcast against each other, in
    measures._blocked row blocks whatever the sample size, as float64."""
    return np.asarray(_blocked(kernel, a[..., 0], a[..., 1], b[..., 0], b[..., 1]), dtype=float)


def _blocks(n: int) -> list[slice]:
    """n samples' blocks of measures._BLOCK_CELLS, in order, as _blocked cuts them."""
    return [slice(lo, lo + measures._BLOCK_CELLS) for lo in range(0, n, measures._BLOCK_CELLS)]


def _fmt_ifv(mu: float, nu: float) -> str:
    return f"<{mu:.17g}, {nu:.17g}>"


def _first(mask: np.ndarray) -> tuple | None:
    """Index of the first True of mask in row-major order, or None."""
    return np.unravel_index(int(np.argmax(mask)), mask.shape) if mask.any() else None


def _witness(mask: np.ndarray, columns: dict) -> dict | None:
    """Each column at the first True of mask, or None: a column with a
    trailing axis of 2 beyond the mask's shape holds points, formatted as
    IFVs; any other holds values, formatted at 17 digits."""
    i = _first(mask)
    if i is None:
        return None
    return {k: _fmt_ifv(*v[i]) if v.ndim > mask.ndim else f"{v[i]:.17g}"
            for k, v in columns.items()}


def _verdict(axiom: str, rules: list, detail: str, stats: dict | None = None) -> AxiomCheck:
    """The first rule (verdict, witness, why) that has a witness decides the
    check; without one, the check passes with `detail` and `stats`."""
    for verdict, witness, why in rules:
        if witness is not None:
            return AxiomCheck(axiom, verdict, witness, why)
    return AxiomCheck(axiom, "pass", detail=detail, stats=stats)


class _Found(dict):
    """rule -> its first witness in sample order, over samples graded block by block."""

    def grade(self, rule: str, mask: np.ndarray, columns: dict) -> None:
        if self.get(rule) is None:  # an earlier block's witness comes first
            self[rule] = _witness(mask, columns)


def _graded(margin: np.ndarray, tol: float, columns: dict, strict: bool = False) -> list:
    """Rules for a margin that must stay below zero (strict) or at most zero:
    a margin above tol fails, any other violating margin is indeterminate."""
    viol = ~(margin < 0.0) if strict else ~(margin <= 0.0)
    hard = ~(margin <= tol)  # within viol, as tol > 0
    return [
        ("fail", _witness(hard, columns),
         f"{np.count_nonzero(hard)} violations with margin > {tol:g}"),
        ("indeterminate", _witness(viol, columns),
         f"{np.count_nonzero(viol)} sub-tolerance margins (<= {tol:g})"),
    ]


# ---------------------------------------------------------------------------
# distance audit
# ---------------------------------------------------------------------------

def _sweep_into(outcome: list, done: threading.Event, *args) -> None:
    """The helper thread's target: append _grid_matrix_sweep(*args), or the
    exception it raised, to outcome, for the calling thread to read, and
    set done."""
    try:
        outcome.append(_grid_matrix_sweep(*args))
    except BaseException as exc:  # raised again in the calling thread
        outcome.append(exc)
    done.set()


def audit_distance(m: MeasureDescriptor, config: AuditConfig) -> AxiomReport:
    """Audit a measure's distance against S1-S5 and the triangle inequality.

    The grid sweep runs on a helper thread while this thread evaluates and
    grades the self pairs (the grid's, then every pair point's, each in its
    pair's block), the blocks of the pairs and triples, then the chains and
    S5's probes, and then waits for the sweep, which S1, S2 and S5 read.
    Anything raised on this thread, in any phase or during the wait, stops
    the sweep within one block and is what this function raises; the
    sweep's own error is raised only when this thread has finished cleanly.
    """
    t0 = time.perf_counter()
    tol = config.tolerance
    grid = grid_points(config.grid_step)
    kernel, found = m.pair_batch, _Found()
    lows, highs, positives, worsts = [], [], [], []  # each block's statistic
    stop, done, outcome = threading.Event(), threading.Event(), []
    helper = threading.Thread(target=contextvars.copy_context().run,
                              args=(_sweep_into, outcome, done, m, grid, tol, stop))
    helper.start()
    try:
        d_self = _eval_pairs(kernel, grid, grid)
        found.grade("S2 self", d_self != 0.0, {"a": grid, "d(a,a)": d_self})
        pairs = _uniform(config, 0, 2, config.random_pairs)
        for s in _blocks(len(pairs)):
            pa, pb = pairs[s, 0], pairs[s, 1]
            d_ab, d_ba = _eval_pairs(kernel, pa, pb), _eval_pairs(kernel, pb, pa)
            cols, distinct = {"a": pa, "b": pb, "d": d_ab}, (pa != pb).any(axis=1)
            found.grade("S3", d_ab != d_ba, {"a": pa, "b": pb, "d(a,b)": d_ab, "d(b,a)": d_ba})
            found.grade("S1", ~((d_ab >= 0.0) & (d_ab <= 1.0)), cols)
            found.grade("S2 distinct", distinct & ~(d_ab > 0.0), cols)
            lows.append(np.min(d_ab))
            highs.append(np.max(d_ab))
            if distinct.any():
                positives.append(np.min(d_ab[distinct]))
            # the points' self pairs in the order of pairs.reshape(-1, 2), a then
            # b: two calls of one block each, so _blocked joins nothing
            d_self = np.stack([_eval_pairs(kernel, pa, pa), _eval_pairs(kernel, pb, pb)], axis=1)
            found.grade("S2 self", d_self != 0.0, {"a": pairs[s], "d(a,a)": d_self})
        triples = _uniform(config, 1, 3, config.random_triples)
        for s in _blocks(len(triples)):
            ta, tb, tc = triples[s, 0], triples[s, 1], triples[s, 2]
            d1, d2 = _eval_pairs(kernel, ta, tb), _eval_pairs(kernel, tb, tc)
            d3 = _eval_pairs(kernel, ta, tc)
            d12 = d1 + d2
            excess = d3 - d12
            found.grade("D-triangle", ~(excess <= tol), {
                "a": ta, "b": tb, "c": tc, "d(a,c)": d3, "d(a,b)+d(b,c)": d12, "excess": excess})
            worsts.append(np.max(excess))
        worst = float(np.max(worsts))
        chains = _chains_array(config)
        chain_checks = _chain_checks(m, chains, tol)
        probes = _s5_probes(kernel, grid)
        done.wait()  # S1, S2 and S5 read the sweep
    except BaseException:  # from any phase or the wait: the sweep is not read
        stop.set()
        raise
    finally:
        # wait on done, not in join(): on CPython 3.11 a join() that an
        # interrupt breaks off marks the running thread as ended, and the
        # next join() returns at once; so join() runs once the sweep is over
        try:
            done.wait()
        finally:
            helper.join()
    sweep = outcome[0]
    if isinstance(sweep, BaseException):
        raise sweep

    # numpy's reductions combine the blocks' statistics, so a nan propagates
    rng_min = min(sweep["min"], float(np.min(lows)))
    rng_max = max(sweep["max"], float(np.max(highs)))
    min_off = min(sweep["min_off_diagonal"], float(np.min(positives)))
    checks = [
        _verdict("S3", [("fail", found["S3"], "symmetry broken")],
                 "exact equality on all sampled pairs"),
        _verdict("S1", [
            ("fail", sweep["range_witness"], "value outside [0, 1]"),
            ("fail", found["S1"], "value outside [0, 1]"),
        ], f"observed range [{rng_min:.17g}, {rng_max:.17g}]", {"min": rng_min, "max": rng_max}),
        _verdict("S2", [
            ("fail", found["S2 self"], "d(a,a) != 0"),
            ("fail", found["S2 distinct"], "d(a,b) == 0 for a != b"),
            ("fail", sweep["positivity_witness"], "d(a,b) == 0 for a != b"),
        ], "d(a,a)=0 everywhere; d>0 on all distinct sampled pairs", {"min_off_diagonal": min_off}),
        *chain_checks,
        _maximality_check(sweep, probes, tol),
        _verdict("D-triangle", [
            ("fail", found["D-triangle"], f"violated beyond tolerance {tol:g}"),
        ], f"max excess {worst:.3g} <= {tol:g}", {"max_excess": worst}),
    ]
    counts = {
        "grid": len(grid),
        "pairs": config.random_pairs,
        "triples": config.random_triples,
        "chains": len(chains),
    }
    return AxiomReport(m.label(), tuple(checks), counts, time.perf_counter() - t0)


def _mirror(grid: np.ndarray, tables: list) -> np.ndarray:
    """sigma, a permutation of the grid's indices under which every channel
    sum keeps its bits when applied to both points: the index of each grid
    point's mirror <nu, mu> where the test below passes, else the identity.

    Each part of the test is exact: the grid is closed under the mirror
    (grid[sigma] has the bytes of grid[:, ::-1]); the tables of channels 0
    and 1 have the same bytes, so +-0 and nan payloads are told apart;
    k0[sigma] == k1; and k[sigma] == k for every later channel.  The sum at
    (sigma i, sigma j) then adds the entries of (i, j) in channels 0 and 1
    in the other order, and fl(+) commutes, so the two sums have the same
    bits, whatever the terms, but for a nan's payload.
    """
    (t0, k0), (t1, k1), *rest = tables
    sigma = np.empty(len(grid), dtype=np.intp)
    sigma[np.lexsort((grid[:, 0], grid[:, 1]))] = np.lexsort((grid[:, 1], grid[:, 0]))
    if (grid[sigma].tobytes() == grid[:, ::-1].tobytes()
            and (t0.dtype, t0.shape, t0.tobytes()) == (t1.dtype, t1.shape, t1.tobytes())
            and np.array_equal(k0[sigma], k1)
            and all(np.array_equal(k[sigma], k) for _, k in rest)):
        return sigma
    return np.arange(len(grid))


def _sweep_blocks(m: MeasureDescriptor, grid: np.ndarray):
    """(lo, cols, block) for the row blocks [lo, hi) of the grid against
    the columns cols, each of at most measures._BLOCK_CELLS cells (one row
    at the least); block holds their (hi-lo, len(cols)) channel sums, before
    the split's finish, which the caller may write into until it asks for
    the next block.

    For sigma the grid permutation of _mirror, the rows are those i with
    i <= sigma i, in runs of consecutive rows, and a block's columns are the
    j >= lo with sigma j >= lo, a sorted index array that starts with
    lo..hi-1: every row against the columns lo.. where sigma is the
    identity.  _grid_matrix_sweep tells why these cells are enough.

    Each channel gets a table term(u[:, None], u[None, :]) of its own term
    on its distinct grid values u (KernelSplit._terms), and each grid point
    the index of its value, so table[k_i, k_j] is the term of i and j; a block
    gathers each channel's entries and adds them by measures.channel_sum,
    which is how the kernel computes them, bit for bit.  The gathers and
    the sum fill two buffers allocated once per sweep, shaped (len(cols),
    hi-lo): each column j takes the run table[k_lo:hi, k_j] from a
    C-contiguous copy of the block's table rows transposed, so a gather
    copies runs of hi-lo values, not single ones.  Channel 0 is gathered
    into the sum's buffer, which channel_sum gets as its out=; block is
    that buffer's transpose, a column-major view overwritten by the next
    block.
    """
    g = len(grid)
    us, ks = zip(*(np.unique(x, return_inverse=True) for x in m.split.channels(grid[:, 0], grid[:, 1])))
    tables = list(zip(m.split._terms([u[:, None] for u in us], [u[None, :] for u in us]), ks))
    sigma = _mirror(grid, tables)
    # the runs [start, stop) of rows i <= sigma i
    edges = np.flatnonzero(np.diff(np.arange(g) <= sigma, prepend=False, append=False)).tolist()
    # j is a column of block lo when low[j] >= lo; in sigma's array
    low = np.minimum(np.arange(g), sigma, out=sigma)
    cells = max(measures._BLOCK_CELLS, g)  # the largest block below
    sums, gathered = np.empty(cells), np.empty(cells)
    for lo, stop in zip(edges[::2], edges[1::2]):
        while lo < stop:
            cols = lo + np.flatnonzero(low[lo:] >= lo)
            hi = min(lo + max(1, measures._BLOCK_CELLS // len(cols)), stop)
            shape, n = (len(cols), hi - lo), len(cols) * (hi - lo)  # column-major
            total = sums[:n].reshape(shape)
            # the indices are np.unique's inverse, always in range; "clip"
            # spares the copy that mode="raise" makes of an out= array.
            # out[y, x] = t[k[lo + x], k[cols[y]]]: one run of hi - lo values per y
            terms = (np.take(np.ascontiguousarray(t[k[lo:hi]].T), k[cols], axis=0, mode="clip",
                             out=gathered[:n].reshape(shape) if i else total)
                     for i, (t, k) in enumerate(tables))
            measures.channel_sum(terms, out=total)
            yield lo, cols, total.T
            lo = hi


def _grid_matrix_sweep(m: MeasureDescriptor, grid: np.ndarray, tol: float,
                       stop: threading.Event | None = None) -> dict | None:
    """Grid x grid pass over the pairs that stand for every ordered pair,
    tracking range, off-diagonal minimum, and the supremum over
    non-endpoint pairs; None when `stop` is set, which is checked once per
    block.

    Rows are taken in blocks [lo, hi), each sized to stay in cache and
    filled with channel sums from the split's per-channel term tables
    (_sweep_blocks), in row-major order of the full matrix.  For sigma the
    grid permutation of _mirror, the rows are those i with i <= sigma i and
    a block's columns the j >= lo with sigma j >= lo.  sigma is the mirror
    <mu, nu> -> <nu, mu> where the channel sums keep their bits under it
    applied to both points (xiao, yc and J_gamma, but not wu, whose mu term
    reads 1 - x), which sweeps about half the cells, and the identity
    elsewhere, which sweeps the upper triangle and the diagonal, i <= j.
    Each orbit {(i, j), (j, i), (sigma i, sigma j), (sigma j, sigma i)}
    holds one value: the transpose by the kernel's exact symmetry (S3
    checks it), sigma by the tables.  The orbit's row-major first cell
    (r, c) has r <= c, r <= sigma r and r <= sigma c, so it is swept.  The
    diagonal and the endpoint pair are both closed under sigma.  So the
    first witness, the sup's first argmax and every minimum and maximum
    are those of the full matrix.  Mirrored cells can differ only in a nan
    payload (x86 keeps the first operand's), which no report prints.

    Each block takes two full reductions, in place: its minimum with the
    diagonal masked to +inf, and its maximum with the diagonal and the
    endpoint pair masked to -inf.  The range comes from these two and the
    cells they mask, saved first.  The checks and the sup can change only
    in a block whose minimum, maximum or saved cells leave the span of the
    earlier blocks', so only such a block is checked.

    The split's finish runs on every cell before the reductions, unless it
    is declared non-decreasing (measures._non_decreasing, as wu's, xiao's
    and J_1's are).  Then it runs after them, since such a finish of the
    extreme sum is the extreme of the finished values: on the statistics
    of a checked block, and on a whole block only where it must, in a
    block that sets a new sup, decided on finished maxima so that a tie
    keeps the first block, or that holds a witness.  The -inf maximum of a
    block whose cells are all masked (a 1x1 tile) is no sum and is never
    finished.  The saved cells are finished once, at the end.

    A block that holds a witness gets its masked cells back before the
    scan for it, and an argmax, which copies the column-major block to
    row-major order first, runs only in a block whose maximum beats every
    earlier block's, or is the first nan.  So the sup is the row-major
    first cell of the largest value, or the first nan, and a zero sup has
    that cell's sign, whatever sign max() gives.  A nan is propagated as
    numpy's reductions do: it makes every statistic whose cells hold it
    nan, and the first nan is the sup, as argmax takes it.  Every scan for
    a witness is a negated comparison, so a nan fails the range, positivity
    and near-one checks.
    """
    finish = m.split.finish
    late = getattr(finish, "non_decreasing", False)  # finish after the reductions

    def finished(total: np.ndarray) -> None:
        """Finish every cell of a block's buffer, in place."""
        out = finish(total)
        if out is not total:
            total[...] = out

    def settle(x):
        """A statistic of sums as the finish gives it, when it runs late;
        -inf, the top of a block whose cells are all masked, is no sum."""
        return finish(np.array(x))[()] if late and x != -np.inf else x

    ends = np.flatnonzero(_is_endpoint(grid)).tolist()  # on the grid only when step divides 1
    off_mins, tops, held = [], [], []
    seen = (np.inf, -np.inf, np.inf, -np.inf)  # the earlier blocks' off_min, top and kept span
    sup = sup_at = None
    range_witness = positivity_witness = near_one_witness = None
    for lo, cols, block in _sweep_blocks(m, grid):
        if stop is not None and stop.is_set():
            return None
        total, w = block.T, len(block)  # the C-contiguous buffer, and the rows
        if not late:
            finished(total)
        flat = total.reshape(-1)  # block[r, c] is flat[c * w + r]
        diag = cells = slice(0, w * (w + 1), w + 1)  # the masked cells, as flat indices
        rows = [e - lo for e in ends if lo <= e < lo + w]
        if rows:  # the two endpoint pairs are exempt from the supremum
            at = np.flatnonzero(np.isin(cols, ends))  # the endpoint columns, by position
            cells = np.r_[diag, [c * w + r for r in rows for c in at]]
        kept = flat[cells].copy()  # saved before any mask
        flat[diag] = np.inf
        off_min = total.min()
        flat[cells] = -np.inf
        top = total.max()
        k_lo, k_hi = kept.min(), kept.max()
        off_mins.append(off_min)
        tops.append(top)
        held.append(kept)
        if off_min >= seen[0] and top <= seen[1] and k_lo >= seen[2] and k_hi <= seen[3]:
            continue  # a nan is never inside the span
        seen = (min(seen[0], off_min), max(seen[1], top), min(seen[2], k_lo), max(seen[3], k_hi))
        off_min, top, k_lo, k_hi = (settle(x) for x in (off_min, top, k_lo, k_hi))
        # the first block with the largest top, or the first nan, as
        # argmax over the tops takes it; the cell keeps a zero's sign
        new_sup = sup is None or (sup == sup and not top <= sup)
        out_of_range = range_witness is None and not (
            off_min >= 0.0 and top <= 1.0 and k_lo >= 0.0 and k_hi <= 1.0)
        not_positive = positivity_witness is None and not off_min > 0.0
        near_one = near_one_witness is None and not top < 1.0 - tol
        if not (new_sup or out_of_range or not_positive or near_one):
            continue
        if late:  # the sums are read cell by cell: finish them, masks apart
            flat[cells] = kept
            finished(total)
            kept = flat[cells].copy()
            flat[cells] = -np.inf
        if new_sup:
            bi, bj = divmod(int(block.argmax()), block.shape[1])  # row-major, as argmax counts
            sup, sup_at = block[bi, bj], (lo + bi, int(cols[bj]))
        flat[cells] = kept

        def witness(mask: np.ndarray, exempt) -> dict | None:
            """The first cell of mask, laid out as total, outside the exempt cells."""
            mask.reshape(-1)[exempt] = False
            shape = block.shape + (2,)
            return _witness(mask.T, {"a": np.broadcast_to(grid[lo:lo + w, None], shape),
                                     "b": np.broadcast_to(grid[None, cols], shape), "d": block})

        if out_of_range:
            range_witness = witness(~((total >= 0.0) & (total <= 1.0)), [])
        if not_positive:
            positivity_witness = witness(~(total > 0.0), diag)  # off the diagonal
        if near_one:
            near_one_witness = witness(~(total < 1.0 - tol), cells)  # and off the endpoint pair
    i, j = sup_at
    # each cell is in held or among those off_mins covers, and likewise for tops
    held = np.concatenate(held)
    return {
        "min": float(settle(np.min(np.append(off_mins, held)))),
        "max": float(settle(np.max(np.append(tops, held)))),
        "min_off_diagonal": float(settle(np.min(off_mins))),
        "sup": float(sup), "sup_pair": (grid[i], grid[j]),
        "range_witness": range_witness, "positivity_witness": positivity_witness,
        "near_one_witness": near_one_witness,
    }


def _chain_checks(m: MeasureDescriptor, chains: np.ndarray, tol: float) -> list[AxiomCheck]:
    """S4 and S4' from one evaluation: S4' grades the strict chains a < b < c,
    S4 also the non-strict chains (a, a, c) and (a, c, c) of the first 1000."""
    head = chains[:1000]
    rows = np.vstack([chains, head[:, [0, 0, 2]], head[:, [0, 2, 2]]])
    a, b, c = rows[:, 0], rows[:, 1], rows[:, 2]
    kernel = m.pair_batch
    d_ab, d_bc = _eval_pairs(kernel, a, b), _eval_pairs(kernel, b, c)
    d_ac = _eval_pairs(kernel, a, c)
    margin = np.maximum(d_ab - d_ac, d_bc - d_ac)
    cols = {"a": a, "b": b, "c": c, "d(a,b)": d_ab, "d(b,c)": d_bc, "d(a,c)": d_ac,
            "margin": margin}
    checks = []
    for axiom, n, strict in (("S4", len(rows), False), ("S4'", len(chains), True)):
        checks.append(_verdict(
            axiom, _graded(margin[:n], tol, {k: v[:n] for k, v in cols.items()}, strict),
            f"zero violations across {n} chains",
            {"violations": 0, "worst_margin": float(np.max(margin[:n]))},
        ))
    return checks


def _s5_probes(kernel, grid: np.ndarray) -> dict:
    """S5's probe pairs a, b and their distances d: the endpoint pair, then
    each parametric family <l,0>, <0,l>, <l,1-l> (l on the grid's mu axis)
    against each endpoint."""
    lam = np.unique(grid[:, 0])
    zeros = np.zeros_like(lam)
    families = [np.column_stack(f) for f in ((lam, zeros), (zeros, lam), (lam, 1.0 - lam))]
    a = np.vstack([_ENDPOINTS[:1], *(f for f in families for _ in _ENDPOINTS)])
    b = np.vstack([_ENDPOINTS[1:],
                   *(np.broadcast_to(e, f.shape) for f in families for e in _ENDPOINTS)])
    return {"a": a, "b": b, "d": _eval_pairs(kernel, a, b)}


def _maximality_check(sweep: dict, probes: dict, tol: float) -> AxiomCheck:
    """S5: the endpoint pair at distance 1, and no other pair within tol of 1,
    on the grid or among the parametric families of _s5_probes."""
    a, b, d = probes["a"], probes["b"], probes["d"]
    exempt = _is_endpoint(a) & _is_endpoint(b) & (a != b).any(axis=1)
    sup_a, sup_b = sweep["sup_pair"]
    return _verdict("S5", [
        ("fail", _witness(~(np.abs(d[:1] - 1.0) <= tol), probes), "endpoint pair not at distance 1"),
        ("fail", sweep["near_one_witness"], "non-endpoint pair at distance 1"),
        ("fail", _witness(~(d < 1.0 - tol) & ~exempt, probes),
         "non-endpoint pair at distance 1 (parametric family)"),
    ], (
        f"endpoints at 1; sup over non-endpoint pairs {sweep['sup']:.17g} "
        f"at {_fmt_ifv(*sup_a)} vs {_fmt_ifv(*sup_b)}"
    ), {"sup_non_endpoint": sweep["sup"], "endpoint_value": float(d[0])})


# ---------------------------------------------------------------------------
# entropy audit
# ---------------------------------------------------------------------------

def _entropy_batch(p: np.ndarray) -> np.ndarray:
    """E(p) = 1 - js_norm(p, p^c) at points p."""
    return 1.0 - _eval_pairs(js_norm_batch, p, p[..., ::-1])


def audit_entropy(config: AuditConfig) -> AxiomReport:
    """Audit the induced IFV entropy against E1-E4."""
    t0 = time.perf_counter()
    grid = grid_points(config.grid_step)
    # the grid, then every point of the distance audit's random pairs
    points = _uniform(config, 0, 2, config.random_pairs).reshape(-1, 2)
    found, g = _Found(), len(grid)
    for p in (grid, *(points[s] for s in _blocks(len(points)))):
        ent, ent_c = _entropy_batch(p), _entropy_batch(p[:, ::-1])
        if p is grid:
            found.grade("E1", (ent == 0.0) != _is_endpoint(p), {"a": p, "E": ent})
        found.grade("E2", (ent == 1.0) != (p[:, 0] == p[:, 1]), {"a": p, "E": ent})
        found.grade("E3", ent != ent_c, {"a": p, "E(a)": ent, "E(a^c)": ent_c})
    pinned = _entropy_batch(_PINNED_ENTROPY)
    nested = _nested_pairs(config)
    lo, hi = nested[:, 0], nested[:, 1]
    e_lo, e_hi = _entropy_batch(lo), _entropy_batch(hi)

    checks = (
        # E1: zero exactly on the crisp endpoints, on the grid and at the endpoints
        _verdict("E1", [
            ("fail", found["E1"], "zero set differs from the two crisp endpoints"),
            ("fail", _witness(pinned[:2] != 0.0, {"a": _PINNED_ENTROPY, "E": pinned}),
             "crisp endpoint not at entropy 0"),
        ], "E == 0 exactly at <1,0> and <0,1>"),
        # E2: one exactly on the mu == nu diagonal
        _verdict("E2", [
            ("fail", found["E2"], "unit set differs from the mu == nu diagonal"),
            ("fail", _witness(pinned[2:] != 1.0, {"a": _PINNED_ENTROPY[2:], "E": pinned[2:]}),
             "pinned diagonal value not at entropy 1"),
        ], "E == 1 exactly on mu == nu"),
        # E3: complement symmetry, exact
        _verdict("E3", [
            ("fail", found["E3"], "complement symmetry broken"),
        ], "E(a) == E(a^c) exactly on all samples"),
        # E4: monotone toward the diagonal on nested pairs (and mirrored pairs)
        _verdict("E4", _graded(e_lo - e_hi, config.tolerance,
                               {"a": lo, "b": hi, "E(a)": e_lo, "E(b)": e_hi}),
                 f"monotone on {len(nested)} nested pairs (both orientations)"),
    )
    counts = {"grid": g, "samples": g + len(points), "nested_pairs": len(nested)}
    return AxiomReport("entropy(js_norm)", checks, counts, time.perf_counter() - t0)
