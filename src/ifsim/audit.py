"""Machine verification of the strict distance and entropy axioms.

An audit sweeps a measure over a deterministic sample (a simplex grid, random
value pairs, random triples, and random strictly-nested chains, all derived
from one seed) and reports one verdict per axiom:

* S1  range [0, 1]                      * S4   weak chain monotonicity
* S2  d(a,a) == 0 and d(a,b) > 0        * S4'  strict chain monotonicity
* S3  symmetry                          * S5   distance 1 only on {<0,1>,<1,0>}
* D-triangle  d(a,c) <= d(a,b) + d(b,c)
* E1..E4  entropy axioms (audit_entropy)

A verdict of pass is evidence, not proof, and is labeled "pass (sampled)".
A fail always carries the first witness found in sample order, so reports
are reproducible byte for byte for a given (measure, config).  Strict
inequalities are checked with zero slack; violations whose margin is below
config.tolerance are reported as "indeterminate at tolerance" instead of
fail, separating genuine axiom violations from floating-point noise.

Heavy pairwise sweeps (every unordered grid pair i <= j, in cache-sized
blocks) run through the measure's vectorized batch kernel when it has one;
the kernel is cross-checked against the scalar evaluator on a subsample
first.  Covering each unordered pair once relies on the kernel being exactly
symmetric, which S3 checks; for a symmetric kernel the witnesses and the sup
pair are those of the full ordered matrix in row-major order.  Measures
registered without a batch kernel fall back to a reduced pairing of the grid
against random partners, and the S1/S2/S5 entries say so.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .core import IFS, IFV, OutOfRangeError, uniform_weights
from .measures import NumericalConsistencyError, entropy_ifv, js_norm_batch
from .registry import MeasureDescriptor

_ENDPOINTS = ((0.0, 1.0), (1.0, 0.0))
_PINNED_CHAIN = ((0.33, 0.36), (1.0 / 3.0, 1.0 / 3.0), (0.334, 0.333333))
_PINNED_E4_PAIR = ((0.1, 0.8), (0.3, 0.5))
_BATCH_CROSSCHECK = 50
_GRID_BLOCK_CELLS = 1 << 15  # 256 KiB per float64 kernel temporary


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
            raise OutOfRangeError(f"grid_step {self.grid_step!r} outside (0, 0.5]")
        for name in ("random_pairs", "random_triples", "chain_samples"):
            if getattr(self, name) < 1:
                raise OutOfRangeError(f"{name} must be >= 1")
        if not (self.tolerance > 0.0):
            raise OutOfRangeError("tolerance must be > 0")
        if self.seed < 0:
            raise OutOfRangeError("seed must be a non-negative integer")


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    verdict: str  # pass | fail | indeterminate | not-applicable
    witness: dict | None = None
    detail: str = ""
    sampled: bool = True
    stats: dict | None = None  # pass-side measurements (sup, max excess, ...)

    def verdict_label(self) -> str:
        if self.verdict == "pass" and self.sampled:
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
# deterministic sampling
# ---------------------------------------------------------------------------

def grid_points(step: float) -> np.ndarray:
    """All (i*step, j*step) with mu + nu <= 1, row-major in (mu, nu)."""
    count = int(np.floor(1.0 / step + 1e-9)) + 1
    axis = np.arange(count) * step
    axis[axis > 1.0] = 1.0
    pts = []
    for mu in axis:
        for nu in axis:
            if mu + nu <= 1.0 + 1e-12:
                pts.append((mu, nu))
    return np.array(pts, dtype=float)


def _random_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform points of the triangle {mu, nu >= 0, mu + nu <= 1}."""
    xy = rng.random((n, 2))
    over = xy.sum(axis=1) > 1.0
    xy[over] = 1.0 - xy[over]
    return xy


def _simplex_stream_array(config: AuditConfig) -> np.ndarray:
    grid = grid_points(config.grid_step)
    rng = np.random.default_rng([config.seed, 0])
    rand = _random_simplex(rng, 2 * config.random_pairs)
    return np.vstack([grid, rand])


def sample_simplex(config: AuditConfig) -> Iterator[IFV]:
    """Deterministic IFV stream: the full grid first, then 2*random_pairs
    uniform samples (consumed two at a time by the pairwise checks)."""
    for mu, nu in _simplex_stream_array(config):
        yield IFV(mu, nu)


def _strict_rows(mu_lo, nu_lo, mu_hi, nu_hi) -> np.ndarray:
    return (mu_hi > mu_lo) | (nu_hi < nu_lo)


def _chains_array(config: AuditConfig) -> np.ndarray:
    """(n, 6) array of strictly nested chains a < b < c, pinned chain first."""
    rng = np.random.default_rng([config.seed, 2])
    rows = [np.array([[c for v in _PINNED_CHAIN for c in v]], dtype=float)]
    have = 1
    while have < config.chain_samples:
        m = max(2 * (config.chain_samples - have), 1024)
        a = _random_simplex(rng, m)
        u = rng.random((m, 4))
        mu_b = a[:, 0] + u[:, 0] * (1.0 - a[:, 0] - a[:, 1])
        nu_b = a[:, 1] * u[:, 1]
        mu_c = mu_b + u[:, 2] * (1.0 - mu_b - nu_b)
        nu_c = nu_b * u[:, 3]
        ok = _strict_rows(a[:, 0], a[:, 1], mu_b, nu_b) & _strict_rows(mu_b, nu_b, mu_c, nu_c)
        ok &= (mu_b + nu_b <= 1.0) & (mu_c + nu_c <= 1.0)
        batch = np.column_stack([a[:, 0], a[:, 1], mu_b, nu_b, mu_c, nu_c])[ok]
        rows.append(batch[: config.chain_samples - have])
        have += len(rows[-1])
    return np.vstack(rows)


def sample_strict_chain(config: AuditConfig) -> Iterator[tuple[IFV, IFV, IFV]]:
    """Deterministic stream of strict chains a < b < c under the value order."""
    for r in _chains_array(config):
        yield IFV(r[0], r[1]), IFV(r[2], r[3]), IFV(r[4], r[5])


# ---------------------------------------------------------------------------
# measure evaluation plumbing
# ---------------------------------------------------------------------------

def _singleton(v: IFV) -> IFS:
    return IFS(("x",), (v,))


def _scalar_eval(m: MeasureDescriptor, a: IFV, b: IFV) -> float:
    return m.evaluator(_singleton(a), _singleton(b), uniform_weights(1))


def _eval_pairs(m: MeasureDescriptor, mu_a, nu_a, mu_b, nu_b) -> np.ndarray:
    if m.pair_batch is not None:
        return np.asarray(m.pair_batch(mu_a, nu_a, mu_b, nu_b), dtype=float)
    mu_a, nu_a, mu_b, nu_b = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (mu_a, nu_a, mu_b, nu_b))
    )
    flat = np.empty(mu_a.size, dtype=float)
    it = zip(mu_a.ravel(), nu_a.ravel(), mu_b.ravel(), nu_b.ravel())
    for i, (ma, na, mb, nb) in enumerate(it):
        flat[i] = _scalar_eval(m, IFV(ma, na), IFV(mb, nb))
    return flat.reshape(mu_a.shape)


def _crosscheck_batch(m: MeasureDescriptor, pts: np.ndarray) -> None:
    """Assert the batch kernel agrees with the scalar evaluator on a subsample."""
    if m.pair_batch is None:
        return
    k = min(_BATCH_CROSSCHECK, len(pts) // 2)
    a, b = pts[:k], pts[k : 2 * k]
    batch = np.asarray(m.pair_batch(a[:, 0], a[:, 1], b[:, 0], b[:, 1]), dtype=float)
    for i in range(k):
        scalar = _scalar_eval(m, IFV(a[i, 0], a[i, 1]), IFV(b[i, 0], b[i, 1]))
        if abs(scalar - batch[i]) > 1e-9:
            raise NumericalConsistencyError(
                f"batch kernel of {m.label()} disagrees with its evaluator: "
                f"{batch[i]!r} vs {scalar!r}"
            )


def _fmt_ifv(mu: float, nu: float) -> str:
    return f"<{mu:.17g}, {nu:.17g}>"


# ---------------------------------------------------------------------------
# distance audit
# ---------------------------------------------------------------------------

def audit_distance(m: MeasureDescriptor, config: AuditConfig) -> AxiomReport:
    """Audit a distance-kind measure against S1-S5 and the triangle inequality."""
    if m.kind != "distance":
        raise OutOfRangeError(f"audit_distance needs a distance measure, got kind={m.kind!r}")
    t0 = time.perf_counter()
    tol = config.tolerance

    grid = grid_points(config.grid_step)
    rng_pairs = np.random.default_rng([config.seed, 0])
    pair_pts = _random_simplex(rng_pairs, 2 * config.random_pairs)
    pa, pb = pair_pts[0::2], pair_pts[1::2]
    rng_triples = np.random.default_rng([config.seed, 1])
    tri = _random_simplex(rng_triples, 3 * config.random_triples)
    ta, tb, tc = tri[0::3], tri[1::3], tri[2::3]
    chains = _chains_array(config)

    _crosscheck_batch(m, np.vstack([grid, pair_pts[: 2 * _BATCH_CROSSCHECK]]))

    checks: list[AxiomCheck] = []

    # S3 symmetry on the random pairs (exact comparison)
    d_ab = _eval_pairs(m, pa[:, 0], pa[:, 1], pb[:, 0], pb[:, 1])
    d_ba = _eval_pairs(m, pb[:, 0], pb[:, 1], pa[:, 0], pa[:, 1])
    asym = np.nonzero(d_ab != d_ba)[0]
    if asym.size:
        i = int(asym[0])
        checks.append(AxiomCheck("S3", "fail", {
            "a": _fmt_ifv(*pa[i]), "b": _fmt_ifv(*pb[i]),
            "d(a,b)": f"{d_ab[i]:.17g}", "d(b,a)": f"{d_ba[i]:.17g}",
        }, detail="symmetry broken"))
    else:
        checks.append(AxiomCheck("S3", "pass", detail="exact equality on all sampled pairs"))

    # grid x grid sweep: range, positivity off the diagonal, maximality sup
    full_matrix = m.pair_batch is not None
    if full_matrix:
        sweep = _grid_matrix_sweep(m, grid, tol)
    else:
        sweep = _grid_fallback_sweep(m, grid, config, tol)
    rng_min, rng_max = min(sweep["min"], float(np.min(d_ab))), max(sweep["max"], float(np.max(d_ab)))

    # S1 range [0, 1]
    if sweep["range_witness"] is not None:
        checks.append(AxiomCheck("S1", "fail", sweep["range_witness"], detail="value outside [0, 1]"))
    elif rng_min < 0.0 or rng_max > 1.0:
        bad = int(np.argmax(d_ab)) if rng_max > 1.0 else int(np.argmin(d_ab))
        checks.append(AxiomCheck("S1", "fail", {
            "a": _fmt_ifv(*pa[bad]), "b": _fmt_ifv(*pb[bad]), "d": f"{d_ab[bad]:.17g}",
        }, detail="value outside [0, 1]"))
    else:
        checks.append(AxiomCheck(
            "S1", "pass",
            detail=f"observed range [{rng_min:.17g}, {rng_max:.17g}]"
            + ("" if full_matrix else "; reduced grid coverage (no batch kernel)"),
            stats={"min": rng_min, "max": rng_max},
        ))

    # S2 identity of indiscernibles
    stream = np.vstack([grid, pair_pts])
    d_self = _eval_pairs(m, stream[:, 0], stream[:, 1], stream[:, 0], stream[:, 1])
    nonzero_self = np.nonzero(d_self != 0.0)[0]
    distinct = (pa != pb).any(axis=1)
    pos_viol = np.nonzero(distinct & (d_ab <= 0.0))[0]
    if nonzero_self.size:
        i = int(nonzero_self[0])
        checks.append(AxiomCheck("S2", "fail", {
            "a": _fmt_ifv(*stream[i]), "d(a,a)": f"{d_self[i]:.17g}",
        }, detail="d(a,a) != 0"))
    elif pos_viol.size:
        i = int(pos_viol[0])
        checks.append(AxiomCheck("S2", "fail", {
            "a": _fmt_ifv(*pa[i]), "b": _fmt_ifv(*pb[i]), "d": f"{d_ab[i]:.17g}",
        }, detail="d(a,b) == 0 for a != b"))
    elif sweep["positivity_witness"] is not None:
        checks.append(AxiomCheck("S2", "fail", sweep["positivity_witness"],
                                 detail="d(a,b) == 0 for a != b"))
    else:
        checks.append(AxiomCheck("S2", "pass",
                                 detail="d(a,a)=0 everywhere; d>0 on all distinct sampled pairs",
                                 stats={"min_off_diagonal": min(sweep["min_off_diagonal"],
                                                               float(np.min(d_ab[distinct])))}))

    # S4 / S4' on chains
    checks.append(_chain_check(m, chains, tol, strict=False))
    checks.append(_chain_check(m, chains, tol, strict=True))

    # S5 endpoint-only maximality
    checks.append(_maximality_check(m, sweep, config, tol))

    # triangle inequality
    d1 = _eval_pairs(m, ta[:, 0], ta[:, 1], tb[:, 0], tb[:, 1])
    d2 = _eval_pairs(m, tb[:, 0], tb[:, 1], tc[:, 0], tc[:, 1])
    d3 = _eval_pairs(m, ta[:, 0], ta[:, 1], tc[:, 0], tc[:, 1])
    excess = d3 - (d1 + d2)
    tri_viol = np.nonzero(excess > tol)[0]
    if tri_viol.size:
        i = int(tri_viol[0])
        checks.append(AxiomCheck("D-triangle", "fail", {
            "a": _fmt_ifv(*ta[i]), "b": _fmt_ifv(*tb[i]), "c": _fmt_ifv(*tc[i]),
            "d(a,c)": f"{d3[i]:.17g}", "d(a,b)+d(b,c)": f"{(d1[i] + d2[i]):.17g}",
            "excess": f"{excess[i]:.17g}",
        }, detail=f"violated beyond tolerance {tol:g}"))
    else:
        checks.append(AxiomCheck("D-triangle", "pass",
                                 detail=f"max excess {float(np.max(excess)):.3g} <= {tol:g}",
                                 stats={"max_excess": float(np.max(excess))}))

    counts = {
        "grid": len(grid),
        "pairs": config.random_pairs,
        "triples": config.random_triples,
        "chains": len(chains),
    }
    return AxiomReport(m.label(), tuple(checks), counts, time.perf_counter() - t0)


def _grid_matrix_sweep(m: MeasureDescriptor, grid: np.ndarray, tol: float) -> dict:
    """Grid x grid pass over the unordered pairs i <= j, tracking range,
    off-diagonal minimum, and the supremum over non-endpoint pairs.

    Rows are taken in blocks [lo, hi) against the columns lo: only, i.e. the
    upper triangle plus the diagonal tile, each block sized to stay in cache.
    This relies on the kernel being exactly symmetric (S3 checks it): a
    witness at (i, j) with j < i is mirrored by (j, i) in an earlier row, so
    the first witness and the first argmax in row-major order of the full
    matrix are the ones found here.
    """
    g = len(grid)
    # the two extreme values sit in the grid only when step divides 1
    end_idx = {}
    for k, e in enumerate(_ENDPOINTS):
        hit = np.nonzero((grid[:, 0] == e[0]) & (grid[:, 1] == e[1]))[0]
        if hit.size:
            end_idx[k] = int(hit[0])
    end_pairs = ((end_idx[0], end_idx[1]), (end_idx[1], end_idx[0])) if len(end_idx) == 2 else ()
    sup, sup_pair = -np.inf, None
    vmin, vmax = np.inf, -np.inf
    min_off = np.inf
    range_witness = positivity_witness = near_one_witness = None
    mu, nu = grid[:, 0], grid[:, 1]

    def witness(mask: np.ndarray, lo: int, block: np.ndarray) -> dict | None:
        wi, wj = np.nonzero(mask)
        if not wi.size:
            return None
        i, j = int(wi[0]), int(wj[0])
        return {
            "a": _fmt_ifv(*grid[lo + i]), "b": _fmt_ifv(*grid[lo + j]),
            "d": f"{block[i, j]:.17g}",
        }

    lo = 0
    while lo < g:
        hi = min(lo + max(1, _GRID_BLOCK_CELLS // (g - lo)), g)
        block = _eval_pairs(m, mu[lo:hi, None], nu[lo:hi, None], mu[None, lo:], nu[None, lo:])
        if not (block.flags.owndata and block.flags.writeable):
            block = block.copy()  # masked in place below; never write into kernel-owned memory
        bmin, bmax = float(block.min()), float(block.max())
        vmin, vmax = min(vmin, bmin), max(vmax, bmax)
        # negated so that a nan also triggers the exact scan
        if range_witness is None and not (bmin >= 0.0 and bmax <= 1.0):
            range_witness = witness((block < 0.0) | (block > 1.0), lo, block)
        diag = np.arange(hi - lo)
        block[diag, diag] = np.inf  # off-diagonal minimum
        off_min = float(block.min())
        min_off = min(min_off, off_min)
        if positivity_witness is None and not off_min > 0.0:
            positivity_witness = witness(block <= 0.0, lo, block)
        block[diag, diag] = -np.inf  # the supremum skips the diagonal
        for ei, ej in end_pairs:
            if lo <= ei < hi and ej >= lo:
                block[ei - lo, ej - lo] = -np.inf  # the two endpoint pairs are exempt
        bi, bj = np.unravel_index(int(np.argmax(block)), block.shape)
        top = block[bi, bj]
        if top > sup:
            sup, sup_pair = float(top), (lo + int(bi), lo + int(bj))
        if near_one_witness is None and not top < 1.0 - tol:
            near_one_witness = witness(block >= 1.0 - tol, lo, block)
        lo = hi
    return {
        "min": vmin, "max": vmax, "min_off_diagonal": min_off,
        "sup": sup, "sup_pair": (grid[sup_pair[0]], grid[sup_pair[1]]),
        "range_witness": range_witness, "positivity_witness": positivity_witness,
        "near_one_witness": near_one_witness, "full": True,
    }


def _grid_fallback_sweep(m: MeasureDescriptor, grid: np.ndarray, config: AuditConfig, tol: float) -> dict:
    """Reduced sweep for measures without a batch kernel: each grid point is
    paired with a fixed number of seeded random partners."""
    rng = np.random.default_rng([config.seed, 3])
    partners = _random_simplex(rng, 8 * len(grid)).reshape(len(grid), 8, 2)
    sup, sup_pair = -np.inf, (grid[0], grid[0])
    vmin, vmax = np.inf, -np.inf
    min_off = np.inf
    range_witness = positivity_witness = near_one_witness = None
    for i, (mu, nu) in enumerate(grid):
        a = IFV(mu, nu)
        for pmu, pnu in partners[i]:
            if pmu == mu and pnu == nu:
                continue
            d = _scalar_eval(m, a, IFV(pmu, pnu))
            vmin, vmax = min(vmin, d), max(vmax, d)
            min_off = min(min_off, d)
            wit = {"a": _fmt_ifv(mu, nu), "b": _fmt_ifv(pmu, pnu), "d": f"{d:.17g}"}
            if range_witness is None and not (0.0 <= d <= 1.0):
                range_witness = wit
            if positivity_witness is None and d <= 0.0:
                positivity_witness = wit
            is_endpoint_pair = {(mu, nu), (pmu, pnu)} == {_ENDPOINTS[0], _ENDPOINTS[1]}
            if not is_endpoint_pair:
                if d > sup:
                    sup, sup_pair = d, (grid[i], np.array([pmu, pnu]))
                if near_one_witness is None and d >= 1.0 - tol:
                    near_one_witness = wit
    return {
        "min": vmin, "max": vmax, "min_off_diagonal": min_off,
        "sup": sup, "sup_pair": sup_pair,
        "range_witness": range_witness, "positivity_witness": positivity_witness,
        "near_one_witness": near_one_witness, "full": False,
    }


def _chain_check(m: MeasureDescriptor, chains: np.ndarray, tol: float, strict: bool) -> AxiomCheck:
    a, b, c = chains[:, 0:2], chains[:, 2:4], chains[:, 4:6]
    if not strict:
        # weak version also exercises non-strict chains (a,a,c) and (a,c,c)
        k = min(len(chains), 1000)
        a = np.vstack([a, chains[:k, 0:2], chains[:k, 0:2]])
        b = np.vstack([b, chains[:k, 0:2], chains[:k, 4:6]])
        c = np.vstack([c, chains[:k, 4:6], chains[:k, 4:6]])
    d_ab = _eval_pairs(m, a[:, 0], a[:, 1], b[:, 0], b[:, 1])
    d_bc = _eval_pairs(m, b[:, 0], b[:, 1], c[:, 0], c[:, 1])
    d_ac = _eval_pairs(m, a[:, 0], a[:, 1], c[:, 0], c[:, 1])
    margin = np.maximum(d_ab - d_ac, d_bc - d_ac)
    if strict:
        viol = np.nonzero(margin >= 0.0)[0]
    else:
        viol = np.nonzero(margin > 0.0)[0]
    axiom = "S4'" if strict else "S4"
    if viol.size == 0:
        worst = float(np.max(margin)) if len(margin) else -np.inf
        return AxiomCheck(axiom, "pass",
                          detail=f"zero violations across {len(d_ab)} chains",
                          stats={"violations": 0, "worst_margin": worst})
    hard = viol[margin[viol] > tol]
    if hard.size == 0:
        i = int(viol[0])
        return AxiomCheck(axiom, "indeterminate", _chain_witness(a, b, c, d_ab, d_bc, d_ac, i),
                          detail=f"{viol.size} sub-tolerance margins (< {tol:g})")
    i = int(hard[0])
    return AxiomCheck(axiom, "fail", _chain_witness(a, b, c, d_ab, d_bc, d_ac, i),
                      detail=f"{hard.size} violations with margin > {tol:g}")


def _chain_witness(a, b, c, d_ab, d_bc, d_ac, i: int) -> dict:
    return {
        "a": _fmt_ifv(*a[i]), "b": _fmt_ifv(*b[i]), "c": _fmt_ifv(*c[i]),
        "d(a,b)": f"{d_ab[i]:.17g}", "d(b,c)": f"{d_bc[i]:.17g}", "d(a,c)": f"{d_ac[i]:.17g}",
        "margin": f"{max(d_ab[i] - d_ac[i], d_bc[i] - d_ac[i]):.17g}",
    }


def _maximality_check(m: MeasureDescriptor, sweep: dict, config: AuditConfig, tol: float) -> AxiomCheck:
    e0, e1 = _ENDPOINTS
    d_end = float(_eval_pairs(m, e0[0], e0[1], e1[0], e1[1]))
    if abs(d_end - 1.0) > tol:
        return AxiomCheck("S5", "fail", {
            "a": _fmt_ifv(*e0), "b": _fmt_ifv(*e1), "d": f"{d_end:.17g}",
        }, detail="endpoint pair not at distance 1")
    if sweep["near_one_witness"] is not None:
        return AxiomCheck("S5", "fail", sweep["near_one_witness"],
                          detail="non-endpoint pair at distance 1")
    fam_witness = _family_maximality(m, config, tol)
    if fam_witness is not None:
        return AxiomCheck("S5", "fail", fam_witness,
                          detail="non-endpoint pair at distance 1 (parametric family)")
    sup_a, sup_b = sweep["sup_pair"]
    return AxiomCheck("S5", "pass", detail=(
        f"endpoints at 1; sup over non-endpoint pairs {sweep['sup']:.17g} "
        f"at {_fmt_ifv(*sup_a)} vs {_fmt_ifv(*sup_b)}"
        + ("" if sweep["full"] else "; reduced grid coverage (no batch kernel)")
    ), stats={"sup_non_endpoint": float(sweep["sup"]), "endpoint_value": d_end})


def _family_maximality(m: MeasureDescriptor, config: AuditConfig, tol: float) -> dict | None:
    """Probe the pinned parametric families <l,0>, <0,l>, <l,1-l> against
    both endpoints for non-endpoint pairs at distance 1."""
    lam = grid_points(config.grid_step)
    lam = np.unique(lam[:, 0])
    zeros = np.zeros_like(lam)
    families = (
        np.column_stack([lam, zeros]),
        np.column_stack([zeros, lam]),
        np.column_stack([lam, 1.0 - lam]),
    )
    for fam in families:
        for e in _ENDPOINTS:
            d = _eval_pairs(m, fam[:, 0], fam[:, 1], np.full(len(fam), e[0]), np.full(len(fam), e[1]))
            for i in np.nonzero(d >= 1.0 - tol)[0]:
                pair = {(fam[i, 0], fam[i, 1]), e}
                if pair == {_ENDPOINTS[0], _ENDPOINTS[1]}:
                    continue
                return {
                    "a": _fmt_ifv(fam[i, 0], fam[i, 1]), "b": _fmt_ifv(*e),
                    "d": f"{d[i]:.17g}",
                }
    return None


# ---------------------------------------------------------------------------
# entropy audit
# ---------------------------------------------------------------------------

def _entropy_batch(mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    return 1.0 - js_norm_batch(mu, nu, nu, mu)


def audit_entropy(config: AuditConfig) -> AxiomReport:
    """Audit the induced IFV entropy against E1-E4."""
    t0 = time.perf_counter()
    tol = config.tolerance
    grid = grid_points(config.grid_step)
    rng = np.random.default_rng([config.seed, 0])
    rand = _random_simplex(rng, 2 * config.random_pairs)
    samples = np.vstack([grid, rand])
    mu, nu = samples[:, 0], samples[:, 1]
    ent = _entropy_batch(mu, nu)

    checks: list[AxiomCheck] = []

    # E1: zero exactly on the crisp endpoints among grid points
    grid_ent = ent[: len(grid)]
    is_endpoint = np.array([(m_, n_) in _ENDPOINTS for m_, n_ in grid])
    bad_zero = np.nonzero((grid_ent == 0.0) != is_endpoint)[0]
    crisp_bad = [e for e in _ENDPOINTS if entropy_ifv(IFV(*e)) != 0.0]
    if bad_zero.size:
        i = int(bad_zero[0])
        checks.append(AxiomCheck("E1", "fail", {
            "a": _fmt_ifv(*grid[i]), "E": f"{grid_ent[i]:.17g}",
        }, detail="zero set differs from the two crisp endpoints"))
    elif crisp_bad:
        e = crisp_bad[0]
        checks.append(AxiomCheck("E1", "fail", {
            "a": _fmt_ifv(*e), "E": f"{entropy_ifv(IFV(*e)):.17g}",
        }, detail="crisp endpoint not at entropy 0"))
    else:
        checks.append(AxiomCheck("E1", "pass", detail="E == 0 exactly at <1,0> and <0,1>"))

    # E2: one exactly on the mu == nu diagonal
    on_diag = mu == nu
    bad_one = np.nonzero((ent == 1.0) != on_diag)[0]
    if bad_one.size:
        i = int(bad_one[0])
        checks.append(AxiomCheck("E2", "fail", {
            "a": _fmt_ifv(mu[i], nu[i]), "E": f"{ent[i]:.17g}",
        }, detail="unit set differs from the mu == nu diagonal"))
    elif entropy_ifv(IFV(0.2, 0.2)) != 1.0:
        checks.append(AxiomCheck("E2", "fail", {
            "a": "<0.2, 0.2>", "E": f"{entropy_ifv(IFV(0.2, 0.2)):.17g}",
        }, detail="pinned diagonal value not at entropy 1"))
    else:
        checks.append(AxiomCheck("E2", "pass", detail="E == 1 exactly on mu == nu"))

    # E3: complement symmetry, exact
    ent_c = _entropy_batch(nu, mu)
    bad_sym = np.nonzero(ent != ent_c)[0]
    if bad_sym.size:
        i = int(bad_sym[0])
        checks.append(AxiomCheck("E3", "fail", {
            "a": _fmt_ifv(mu[i], nu[i]), "E(a)": f"{ent[i]:.17g}", "E(a^c)": f"{ent_c[i]:.17g}",
        }, detail="complement symmetry broken"))
    else:
        checks.append(AxiomCheck("E3", "pass", detail="E(a) == E(a^c) exactly on all samples"))

    # E4: monotone toward the diagonal on nested pairs (and mirrored pairs)
    pairs = _nested_pairs(config)
    lo, hi = pairs[:, 0:2], pairs[:, 2:4]
    e_lo = _entropy_batch(lo[:, 0], lo[:, 1])
    e_hi = _entropy_batch(hi[:, 0], hi[:, 1])
    margin = e_lo - e_hi  # must be <= 0
    viol = np.nonzero(margin > 0.0)[0]
    hard = viol[margin[viol] > tol]
    if hard.size:
        i = int(hard[0])
        checks.append(AxiomCheck("E4", "fail", {
            "a": _fmt_ifv(*lo[i]), "b": _fmt_ifv(*hi[i]),
            "E(a)": f"{e_lo[i]:.17g}", "E(b)": f"{e_hi[i]:.17g}",
        }, detail=f"E(a) > E(b) beyond tolerance {tol:g}"))
    elif viol.size:
        i = int(viol[0])
        checks.append(AxiomCheck("E4", "indeterminate", {
            "a": _fmt_ifv(*lo[i]), "b": _fmt_ifv(*hi[i]),
            "E(a)": f"{e_lo[i]:.17g}", "E(b)": f"{e_hi[i]:.17g}",
        }, detail=f"{viol.size} sub-tolerance margins"))
    else:
        checks.append(AxiomCheck("E4", "pass",
                                 detail=f"monotone on {len(pairs)} nested pairs (both orientations)"))

    counts = {"grid": len(grid), "samples": len(samples), "nested_pairs": len(pairs)}
    return AxiomReport("entropy(js_norm)", tuple(checks), counts, time.perf_counter() - t0)


def _nested_pairs(config: AuditConfig) -> np.ndarray:
    """(n, 4) rows (a, b) with mu_a <= mu_b <= nu_b <= nu_a, then the
    complement-mirrored rows; pinned example pair first."""
    rng = np.random.default_rng([config.seed, 4])
    n = config.chain_samples
    b = _random_simplex(rng, n)
    swap = b[:, 0] > b[:, 1]
    b[swap] = b[swap][:, ::-1]  # ensure mu_b <= nu_b
    u = rng.random((n, 2))
    mu_a = b[:, 0] * u[:, 0]
    nu_a = b[:, 1] + u[:, 1] * (1.0 - mu_a - b[:, 1])
    direct = np.column_stack([mu_a, nu_a, b[:, 0], b[:, 1]])
    pinned = np.array([[*_PINNED_E4_PAIR[0], *_PINNED_E4_PAIR[1]]], dtype=float)
    direct = np.vstack([pinned, direct])
    mirrored = direct[:, [1, 0, 3, 2]]
    return np.vstack([direct, mirrored])
