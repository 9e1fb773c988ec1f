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
witness.  Reports are therefore reproducible byte for byte for a given
(measure, config).  A check that nothing violates passes; a pass is
evidence, not proof, and is labeled "pass (sampled)".  Strict inequalities
are checked with zero slack.  The monotonicity checks S4, S4' and E4 share
one grader (`_graded`): a margin above config.tolerance fails, and a
violating margin at or below it is "indeterminate at tolerance",
separating genuine axiom violations from floating-point noise.

Every sampled value is computed by the measure's elementwise kernel
(pair_batch), and each built-in evaluator aggregates that same kernel over
a universe.  Samples are evaluated under the block rule that aggregate
uses for sets and libraries (_eval_pairs over measures._blocked), and the
grid sweep covers every unordered grid pair i <= j once, in blocks of the
same measures._BLOCK_CELLS cells.  When the descriptor has a
split (measures.KernelSplit, which every built-in measure has), the sweep
does not call pair_batch: it tabulates the split's term once per channel on
the channel's distinct grid values, and each block adds the gathered table
entries in channel order and applies the split's finish.  The kernel is
that split called on the arrays, so every swept value has the bits that
pair_batch gives.  A descriptor without a split is swept through
pair_batch.  The sweep relies on the kernel being exactly symmetric, which
S3 checks; for a symmetric kernel the witnesses and the sup pair are those
of the full ordered matrix in row-major order.

audit_distance runs the sweep on one helper thread, started after the grid
is built and joined before S1, S2 and S5 read it, while the calling thread
evaluates the random pairs, self pairs, triples and chains.  The sweep
reads nothing those samples write, and its result depends on the grid and
the kernel alone, so the reports are the same bytes as a serial run's; the
helper runs under a copy of the caller's context, np.errstate included.
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
from .measures import _blocked, channel_sum, js_norm_batch
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
    """n uniform points of the triangle {mu, nu >= 0, mu + nu <= 1}."""
    xy = rng.random((n, 2))
    over = xy[:, 0] + xy[:, 1] > 1.0
    np.subtract(1.0, xy, out=xy, where=over[:, None])  # folded in place, no copy
    return xy


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


def _graded(margin: np.ndarray, tol: float, columns: dict, strict: bool = False) -> list:
    """Rules for a margin that must stay below zero (strict) or at most zero:
    a margin above tol fails, any other violating margin is indeterminate."""
    viol = margin >= 0.0 if strict else margin > 0.0
    hard = viol & (margin > tol)
    return [
        ("fail", _witness(hard, columns),
         f"{np.count_nonzero(hard)} violations with margin > {tol:g}"),
        ("indeterminate", _witness(viol, columns),
         f"{np.count_nonzero(viol)} sub-tolerance margins (<= {tol:g})"),
    ]


# ---------------------------------------------------------------------------
# distance audit
# ---------------------------------------------------------------------------

def _sweep_into(outcome: list, *args) -> None:
    """The helper thread's target: append _grid_matrix_sweep(*args), or the
    exception it raised, to outcome, for the calling thread to read."""
    try:
        outcome.append(_grid_matrix_sweep(*args))
    except BaseException as exc:  # raised again in the calling thread
        outcome.append(exc)


def audit_distance(m: MeasureDescriptor, config: AuditConfig) -> AxiomReport:
    """Audit a measure's distance against S1-S5 and the triangle inequality.

    The grid sweep runs on a helper thread while this thread evaluates the
    sampled pairs, triples and chains; the thread is joined before S1, S2
    and S5 read the sweep, and before any error leaves this function.  The
    sweep's result does not depend on that timing, so the report is the
    one a serial run gives, byte for byte.  So is the error raised: one from
    the pairs or self pairs stops the sweep, and the sweep's own error wins
    over one from the triples or chains.
    """
    t0 = time.perf_counter()
    tol = config.tolerance
    grid = grid_points(config.grid_step)
    stop, outcome = threading.Event(), []
    helper = threading.Thread(target=contextvars.copy_context().run,
                              args=(_sweep_into, outcome, m, grid, tol, stop))
    helper.start()

    kernel = m.pair_batch
    try:
        pairs = _uniform(config, 0, 2, config.random_pairs)
        pa, pb = pairs[:, 0], pairs[:, 1]
        d_ab, d_ba = _eval_pairs(kernel, pa, pb), _eval_pairs(kernel, pb, pa)
        points = np.vstack([grid, pairs.reshape(-1, 2)])
        d_self = _eval_pairs(kernel, points, points)
    except BaseException:
        stop.set()
        helper.join()
        raise
    try:
        triples = _uniform(config, 1, 3, config.random_triples)
        ta, tb, tc = triples[:, 0], triples[:, 1], triples[:, 2]
        d1, d2 = _eval_pairs(kernel, ta, tb), _eval_pairs(kernel, tb, tc)
        d3 = _eval_pairs(kernel, ta, tc)
        excess = d3 - (d1 + d2)
        worst = float(np.max(excess))
        chains = _chains_array(config)
        chain_checks = _chain_checks(m, chains, tol)
    finally:
        helper.join()
        if isinstance(outcome[0], BaseException):
            raise outcome[0]
    sweep = outcome[0]

    pair_cols = {"a": pa, "b": pb, "d": d_ab}
    distinct = (pa != pb).any(axis=1)
    rng_min = min(sweep["min"], float(np.min(d_ab)))
    rng_max = max(sweep["max"], float(np.max(d_ab)))
    min_off = min(sweep["min_off_diagonal"], float(np.min(d_ab[distinct])))
    triple_cols = {"a": ta, "b": tb, "c": tc, "d(a,c)": d3, "d(a,b)+d(b,c)": d1 + d2, "excess": excess}
    checks = [
        _verdict("S3", [
            ("fail", _witness(d_ab != d_ba, {"a": pa, "b": pb, "d(a,b)": d_ab, "d(b,a)": d_ba}),
             "symmetry broken"),
        ], "exact equality on all sampled pairs"),
        _verdict("S1", [
            ("fail", sweep["range_witness"], "value outside [0, 1]"),
            ("fail", _witness((d_ab < 0.0) | (d_ab > 1.0), pair_cols), "value outside [0, 1]"),
        ], f"observed range [{rng_min:.17g}, {rng_max:.17g}]", {"min": rng_min, "max": rng_max}),
        _verdict("S2", [
            ("fail", _witness(d_self != 0.0, {"a": points, "d(a,a)": d_self}), "d(a,a) != 0"),
            ("fail", _witness(distinct & (d_ab <= 0.0), pair_cols), "d(a,b) == 0 for a != b"),
            ("fail", sweep["positivity_witness"], "d(a,b) == 0 for a != b"),
        ], "d(a,a)=0 everywhere; d>0 on all distinct sampled pairs", {"min_off_diagonal": min_off}),
        *chain_checks,
        _maximality_check(m, sweep, grid, tol),
        _verdict("D-triangle", [
            ("fail", _witness(excess > tol, triple_cols), f"violated beyond tolerance {tol:g}"),
        ], f"max excess {worst:.3g} <= {tol:g}", {"max_excess": worst}),
    ]
    counts = {
        "grid": len(grid),
        "pairs": config.random_pairs,
        "triples": config.random_triples,
        "chains": len(chains),
    }
    return AxiomReport(m.label(), tuple(checks), counts, time.perf_counter() - t0)


def _sweep_blocks(m: MeasureDescriptor, grid: np.ndarray):
    """(lo, a, b, block) for the row blocks [lo, hi) of the grid against
    its columns lo:, each of at most measures._BLOCK_CELLS cells (one row
    at the least); a and b are the (hi-lo, 1, 2) and (1, g-lo, 2) points,
    block their (hi-lo, g-lo) values.

    Without a split, pair_batch computes each block.  With one, each
    channel's distinct grid values u get a table term(u[:, None], u[None, :])
    and each grid point the index of its value, so that table[k_i, k_j] is
    the term of grid points i and j; a block gathers each channel's entries,
    adds them in channel order and applies the split's finish to that sum
    alone, which is how the kernel computes them, bit for bit.
    """
    g = len(grid)
    if m.split is not None:
        distinct = (np.unique(x, return_inverse=True)
                    for x in m.split.channels(grid[:, 0], grid[:, 1]))
        tables = [(m.split.term(u[:, None], u[None, :]), k) for u, k in distinct]
    lo = 0
    while lo < g:
        hi = min(lo + max(1, measures._BLOCK_CELLS // (g - lo)), g)
        a, b = grid[lo:hi, None], grid[None, lo:]
        if m.split is None:
            block = _eval_pairs(m.pair_batch, a, b)
        else:
            total = channel_sum([np.take(t[k[lo:hi]], k[lo:], axis=1) for t, k in tables])
            block = m.split.finish(total)
        yield lo, a, b, block
        lo = hi


def _grid_matrix_sweep(m: MeasureDescriptor, grid: np.ndarray, tol: float,
                       stop: threading.Event | None = None) -> dict | None:
    """Grid x grid pass over the unordered pairs i <= j, tracking range,
    off-diagonal minimum, and the supremum over non-endpoint pairs; None
    when `stop` is set, which is checked once per block.

    Rows are taken in blocks [lo, hi) against the columns lo: only, i.e. the
    upper triangle plus the diagonal tile, each block sized to stay in cache
    (_sweep_blocks: a measure with a split fills its blocks from per-channel
    term tables, any other through pair_batch).  This relies on the kernel
    being exactly symmetric (S3 checks it): a witness at (i, j) with j < i
    is mirrored by (j, i) in an earlier row, so the first witness and the
    first argmax in row-major order of the full matrix are the ones found
    here.
    """
    ends = np.flatnonzero(_is_endpoint(grid)).tolist()  # on the grid only when step divides 1
    sup, sup_pair = -np.inf, None
    vmin, vmax = np.inf, -np.inf
    min_off = np.inf
    range_witness = positivity_witness = near_one_witness = None
    for lo, a, b, block in _sweep_blocks(m, grid):
        if stop is not None and stop.is_set():
            return None
        hi = lo + len(block)
        if not (block.flags.owndata and block.flags.writeable):
            block = block.copy()  # masked in place below; never write into kernel-owned memory

        def witness(mask: np.ndarray) -> dict | None:  # columns built only for a hit
            shape = block.shape + (2,)
            return _witness(mask, {"a": np.broadcast_to(a, shape),
                                   "b": np.broadcast_to(b, shape), "d": block})

        bmin, bmax = float(block.min()), float(block.max())
        vmin, vmax = min(vmin, bmin), max(vmax, bmax)
        # negated so that a nan also triggers the exact scan
        if range_witness is None and not (bmin >= 0.0 and bmax <= 1.0):
            range_witness = witness((block < 0.0) | (block > 1.0))
        diag = np.arange(hi - lo)
        block[diag, diag] = np.inf  # off-diagonal minimum
        off_min = float(block.min())
        min_off = min(min_off, off_min)
        if positivity_witness is None and not off_min > 0.0:
            positivity_witness = witness(block <= 0.0)
        block[diag, diag] = -np.inf  # the supremum skips the diagonal
        rows = [e - lo for e in ends if lo <= e < hi]
        if rows:  # and the two endpoint pairs are exempt
            block[np.ix_(rows, [e - lo for e in ends if e >= lo])] = -np.inf
        bi, bj = np.unravel_index(int(np.argmax(block)), block.shape)
        top = block[bi, bj]
        if top > sup:
            sup, sup_pair = float(top), (lo + int(bi), lo + int(bj))
        if near_one_witness is None and not top < 1.0 - tol:
            near_one_witness = witness(block >= 1.0 - tol)
    return {
        "min": vmin, "max": vmax, "min_off_diagonal": min_off,
        "sup": sup, "sup_pair": (grid[sup_pair[0]], grid[sup_pair[1]]),
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


def _maximality_check(m: MeasureDescriptor, sweep: dict, grid: np.ndarray,
                      tol: float) -> AxiomCheck:
    """S5: the endpoint pair at distance 1, and no other pair within tol of 1,
    on the grid or among the parametric families <l,0>, <0,l>, <l,1-l>
    (l on the grid's mu axis) probed against both endpoints."""
    lam = np.unique(grid[:, 0])
    zeros = np.zeros_like(lam)
    families = [np.column_stack(f) for f in ((lam, zeros), (zeros, lam), (lam, 1.0 - lam))]
    # the endpoint pair first, then each family against each endpoint
    a = np.vstack([_ENDPOINTS[:1], *(f for f in families for _ in _ENDPOINTS)])
    b = np.vstack([_ENDPOINTS[1:],
                   *(np.broadcast_to(e, f.shape) for f in families for e in _ENDPOINTS)])
    d = _eval_pairs(m.pair_batch, a, b)
    exempt = _is_endpoint(a) & _is_endpoint(b) & (a != b).any(axis=1)
    cols = {"a": a, "b": b, "d": d}
    sup_a, sup_b = sweep["sup_pair"]
    return _verdict("S5", [
        ("fail", _witness(np.abs(d[:1] - 1.0) > tol, cols), "endpoint pair not at distance 1"),
        ("fail", sweep["near_one_witness"], "non-endpoint pair at distance 1"),
        ("fail", _witness((d >= 1.0 - tol) & ~exempt, cols),
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
    samples = np.vstack([grid, _uniform(config, 0, 2, config.random_pairs).reshape(-1, 2)])
    ent, ent_c = _entropy_batch(samples), _entropy_batch(samples[:, ::-1])
    grid_ent = ent[: len(grid)]
    pinned = _entropy_batch(_PINNED_ENTROPY)
    nested = _nested_pairs(config)
    lo, hi = nested[:, 0], nested[:, 1]
    e_lo, e_hi = _entropy_batch(lo), _entropy_batch(hi)
    on_diag = samples[:, 0] == samples[:, 1]

    checks = (
        # E1: zero exactly on the crisp endpoints, on the grid and at the endpoints
        _verdict("E1", [
            ("fail", _witness((grid_ent == 0.0) != _is_endpoint(grid), {"a": grid, "E": grid_ent}),
             "zero set differs from the two crisp endpoints"),
            ("fail", _witness(pinned[:2] != 0.0, {"a": _PINNED_ENTROPY, "E": pinned}),
             "crisp endpoint not at entropy 0"),
        ], "E == 0 exactly at <1,0> and <0,1>"),
        # E2: one exactly on the mu == nu diagonal
        _verdict("E2", [
            ("fail", _witness((ent == 1.0) != on_diag, {"a": samples, "E": ent}),
             "unit set differs from the mu == nu diagonal"),
            ("fail", _witness(pinned[2:] != 1.0, {"a": _PINNED_ENTROPY[2:], "E": pinned[2:]}),
             "pinned diagonal value not at entropy 1"),
        ], "E == 1 exactly on mu == nu"),
        # E3: complement symmetry, exact
        _verdict("E3", [
            ("fail", _witness(ent != ent_c, {"a": samples, "E(a)": ent, "E(a^c)": ent_c}),
             "complement symmetry broken"),
        ], "E(a) == E(a^c) exactly on all samples"),
        # E4: monotone toward the diagonal on nested pairs (and mirrored pairs)
        _verdict("E4", _graded(e_lo - e_hi, config.tolerance,
                               {"a": lo, "b": hi, "E(a)": e_lo, "E(b)": e_hi}),
                 f"monotone on {len(nested)} nested pairs (both orientations)"),
    )
    counts = {"grid": len(grid), "samples": len(samples), "nested_pairs": len(nested)}
    return AxiomReport("entropy(js_norm)", checks, counts, time.perf_counter() - t0)
