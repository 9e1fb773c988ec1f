"""The axiom auditor: deterministic sampling, verdicts, witnesses."""

import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from conftest import LONG_INT, LONG_INT_SHOWN
from ifsim import (
    IFS,
    IFV,
    AuditConfig,
    OutOfRangeError,
    atanassov_strict_subset,
    audit_distance,
    audit_entropy,
    get_measure,
    grid_points,
    uniform_weights,
)
from ifsim import audit, measures
from ifsim.registry import MeasureDescriptor

SMALL = AuditConfig(grid_step=0.05, random_pairs=3000, random_triples=3000,
                    chain_samples=800, seed=13)


class TestConfig:
    def test_defaults_match_documented_plan(self):
        c = AuditConfig()
        assert (c.grid_step, c.random_pairs, c.random_triples, c.chain_samples) == (
            0.01, 100_000, 100_000, 10_000)
        assert c.tolerance == 1e-12

    @pytest.mark.parametrize("kw", [
        {"grid_step": 0.0}, {"grid_step": 0.6}, {"random_pairs": 0},
        {"chain_samples": 0}, {"tolerance": 0.0}, {"seed": -1},
        # a tolerance must be finite, and counts and the seed integers, not bools
        {"tolerance": float("inf")}, {"tolerance": float("nan")},
        {"random_pairs": 200.5}, {"random_triples": 200.0}, {"chain_samples": 50.5},
        {"seed": 1.5}, {"random_pairs": True}, {"chain_samples": True}, {"seed": True},
        {"seed": False},
        # an int that passes the comparisons but has no float
        {"tolerance": 10**400},
    ])
    def test_validation(self, kw):
        with pytest.raises(OutOfRangeError):
            AuditConfig(**kw)

    @pytest.mark.parametrize("name,message", [
        ("grid_step", f"grid_step {LONG_INT_SHOWN} outside (0, 0.5]"),
        ("random_pairs", f"random_pairs must be an integer in [1, {sys.maxsize}], got {LONG_INT_SHOWN}"),
        ("tolerance", f"tolerance must be finite and > 0, got {LONG_INT_SHOWN}"),
        ("seed", f"seed must be a non-negative integer, got {LONG_INT_SHOWN}"),
    ], ids=["grid_step", "random_pairs", "tolerance", "seed"])
    def test_int_too_long_to_print(self, name, message):
        with pytest.raises(OutOfRangeError) as info:
            AuditConfig(**{name: LONG_INT})
        assert str(info.value) == message

    @pytest.mark.parametrize("name,size", [
        ("random_pairs", 32), ("random_triples", 48), ("chain_samples", 96)])
    def test_count_stops_at_numpys_array_limit(self, name, size):
        assert getattr(AuditConfig(**{name: sys.maxsize // size}), name) == sys.maxsize // size
        with pytest.raises(OutOfRangeError, match=f"^{name} {sys.maxsize // size + 1} needs"):
            AuditConfig(**{name: sys.maxsize // size + 1})

    def test_numpy_integers_accepted(self):
        c = AuditConfig(random_pairs=np.int64(5), chain_samples=np.int32(3), seed=np.uint8(7))
        assert (c.random_pairs, c.chain_samples, c.seed) == (5, 3, 7)


def _samples(c: AuditConfig) -> dict:
    """Every sample that the audits draw for c, each from its own function."""
    return {"grid": grid_points(c.grid_step), "pairs": audit._uniform(c, 0, 2, c.random_pairs),
            "triples": audit._uniform(c, 1, 3, c.random_triples),
            "chains": audit._chains_array(c), "nested": audit._nested_pairs(c)}


class TestSampling:
    def test_grid_half_step_enumeration(self):
        pts = [tuple(p) for p in grid_points(0.5)]
        assert pts == [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0),
                       (0.5, 0.0), (0.5, 0.5), (1.0, 0.0)]

    def test_grid_density(self):
        assert len(grid_points(0.01)) == 5151  # 101*102/2 simplex lattice

    def test_simplex_stream_deterministic(self):
        c = AuditConfig(grid_step=0.25, random_pairs=50, random_triples=7,
                        chain_samples=3, seed=99)
        first, second = _samples(c), _samples(c)
        for name in ("grid", "pairs", "triples", "chains", "nested"):
            assert np.array_equal(first[name], second[name])
        assert first["grid"].shape == grid_points(0.25).shape
        assert first["pairs"].shape == (50, 2, 2) and first["triples"].shape == (7, 3, 2)
        assert first["chains"].shape == (3, 3, 2) and first["nested"].shape == (8, 2, 2)
        # the entropy samples are the grid, then every point of the pairs
        one, two = audit_entropy(c), audit_entropy(c)
        assert one.checks == two.checks
        assert one.counts["samples"] == len(first["grid"]) + 2 * 50

    def test_simplex_stream_respects_domain(self):
        c = AuditConfig(grid_step=0.5, random_pairs=500, random_triples=100,
                        chain_samples=100, seed=3)
        for sample in _samples(c).values():
            for mu, nu in sample.reshape(-1, 2):
                IFV(mu, nu)  # construction enforces mu + nu <= 1

    @pytest.mark.parametrize("seed", [7, 20220714])
    @pytest.mark.parametrize("n", [1, 7, 1000, 300_000])
    def test_simplex_fold_bits(self, n, seed):
        # the fold |over - x| against the masked subtract it replaces
        want = np.random.default_rng(seed).random((n, 2))
        np.subtract(1.0, want, out=want, where=(want[:, 0] + want[:, 1] > 1.0)[:, None])
        got = audit._random_simplex(np.random.default_rng(seed), n)
        assert got.dtype == np.float64 and got.shape == (n, 2) and got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_chains_strictly_nested(self):
        c = AuditConfig(grid_step=0.5, random_pairs=1, random_triples=1,
                        chain_samples=300, seed=5)
        chains = audit._chains_array(c).reshape(-1, 3, 2)
        assert len(chains) == 300
        for a, mid, b in (tuple(IFV(*p) for p in row) for row in chains):
            assert atanassov_strict_subset(a, mid)
            assert atanassov_strict_subset(mid, b)

    def test_chains_deterministic_and_pinned(self):
        c = AuditConfig(grid_step=0.5, random_pairs=1, random_triples=1,
                        chain_samples=10, seed=5)
        one = audit._chains_array(c)
        assert np.array_equal(one, audit._chains_array(c))
        assert one.reshape(-1, 3, 2)[0].tolist() == [[0.33, 0.36], [1 / 3, 1 / 3], [0.334, 0.333333]]


class TestAuditStrictMeasure:
    def test_all_axioms_pass(self):
        report = audit_distance(get_measure("wu"), SMALL)
        assert report.passed
        for axiom in ("S1", "S2", "S3", "S4", "S4'", "S5", "D-triangle"):
            assert report.entry(axiom).verdict == "pass"

    def test_pass_verdicts_are_labeled_sampled(self):
        report = audit_distance(get_measure("wu"), SMALL)
        assert report.entry("S4'").verdict_label() == "pass (sampled)"
        assert "pass (sampled)" in report.to_text()

    def test_report_deterministic(self):
        a = audit_distance(get_measure("wu"), SMALL)
        b = audit_distance(get_measure("wu"), SMALL)
        assert a.checks == b.checks

    def test_parametric_family_also_passes(self):
        report = audit_distance(get_measure("wu-lambda", lam=1 / 3), SMALL)
        assert report.passed


class TestAuditDefectiveMeasures:
    def test_xiao_fails_strict_monotonicity_with_pinned_witness(self):
        report = audit_distance(get_measure("xiao"), SMALL)
        assert not report.passed
        entry = report.entry("S4'")
        assert entry.verdict == "fail"
        assert entry.witness is not None
        # the deterministic first witness is the pinned counterexample chain
        assert entry.witness["a"].startswith("<0.33")
        assert entry.witness["c"].startswith("<0.334")

    def test_xiao_fails_endpoint_only_maximality(self):
        report = audit_distance(get_measure("xiao"), SMALL)
        assert report.entry("S5").verdict == "fail"
        assert report.entry("S5").witness is not None

    def test_yc_fails_s4_and_s5(self):
        report = audit_distance(get_measure("yc"), SMALL)
        assert report.entry("S4").verdict == "fail"
        assert report.entry("S4'").verdict == "fail"
        assert report.entry("S5").verdict == "fail"
        # but its genuine properties hold
        assert report.entry("S1").verdict == "pass"
        assert report.entry("S2").verdict == "pass"
        assert report.entry("S3").verdict == "pass"

    def test_pinned_yc_triple_is_a_valid_witness(self):
        md = get_measure("yc")
        w1 = uniform_weights(1)
        one = lambda mu, nu: IFS(("x",), (IFV(mu, nu),))
        d_near = md.evaluator(one(0.5, 0.5), one(0.6, 0.3), w1)
        d_far = md.evaluator(one(0.5, 0.5), one(0.7, 0.3), w1)
        assert d_far < d_near  # violates weak and strict monotonicity

    def test_jgamma_reports_raw_scale(self):
        report = audit_distance(get_measure("jgamma", gamma=1.0), SMALL)
        s5 = report.entry("S5")
        assert s5.verdict == "fail"  # endpoint pair sits at ln 2, not 1
        assert report.entry("S1").verdict == "pass"
        assert report.entry("D-triangle").verdict == "fail"  # not a metric


class TestAuditPlumbing:
    def test_entry_of_unknown_axiom(self):
        report = audit.AxiomReport("wu", (audit.AxiomCheck("S1", "pass"),))
        assert report.entry("S1").verdict == "pass"
        with pytest.raises(KeyError):
            report.entry("S9")

    def test_counts_reported(self):
        report = audit_distance(get_measure("wu"), SMALL)
        assert report.counts["chains"] == SMALL.chain_samples
        assert report.counts["pairs"] == SMALL.random_pairs

    def test_grid_step_not_dividing_one(self):
        # 0.3 leaves <1,0> and <0,1> off the lattice; audits must still run
        config = AuditConfig(grid_step=0.3, random_pairs=200, random_triples=200,
                             chain_samples=100, seed=1)
        assert audit_distance(get_measure("wu"), config).passed
        assert audit_entropy(config).passed


class TestAuditEntropy:
    def test_all_axioms_pass(self):
        report = audit_entropy(SMALL)
        assert report.passed
        for axiom in ("E1", "E2", "E3", "E4"):
            assert report.entry(axiom).verdict == "pass"

    def test_deterministic(self):
        assert audit_entropy(SMALL).checks == audit_entropy(SMALL).checks


# a symmetric distance that shrinks by exactly `step` once the L1 spread of a
# pair passes 0.3: a chain a < b < c that straddles the threshold has margin
# d(a,b) - d(a,c) == step, every other chain a tie (margin 0).  0.5 - step is
# exact for a step that is a multiple of 2**-53.  A split: channels (mu, nu),
# term |x - y|, and a finish of the L1 spread, which is 0 only on equal points.
def _stepped(step: float) -> MeasureDescriptor:
    def finish(spread):
        return np.where(spread == 0.0, 0.0, np.where(spread > 0.3, 0.5 - step, 0.5))
    split = measures.KernelSplit(lambda mu, nu: (mu, nu), lambda x, y: np.abs(x - y), finish)
    return MeasureDescriptor("stepped", {}, lambda a, b, w: 0.0, split, split)


def _chain_rows(config: AuditConfig, weak: bool) -> np.ndarray:
    """The chains S4' grades; S4 appends (a, a, c) and (a, c, c) of the first 1000."""
    chains = audit._chains_array(config).reshape(-1, 3, 2)
    if not weak:
        return chains
    head = chains[:1000]
    return np.vstack([chains, head[:, [0, 0, 2]], head[:, [0, 2, 2]]])


def _first_chain_witness(m: MeasureDescriptor, rows: np.ndarray, strict: bool) -> dict:
    d = {k: m.pair_batch(rows[:, i, 0], rows[:, i, 1], rows[:, j, 0], rows[:, j, 1])
         for k, (i, j) in {"d(a,b)": (0, 1), "d(b,c)": (1, 2), "d(a,c)": (0, 2)}.items()}
    margin = np.maximum(d["d(a,b)"] - d["d(a,c)"], d["d(b,c)"] - d["d(a,c)"])
    i = int(np.flatnonzero(margin >= 0.0 if strict else margin > 0.0)[0])
    fmt = lambda p: f"<{p[0]:.17g}, {p[1]:.17g}>"
    return {"a": fmt(rows[i, 0]), "b": fmt(rows[i, 1]), "c": fmt(rows[i, 2]),
            **{k: f"{v[i]:.17g}" for k, v in d.items()}, "margin": f"{margin[i]:.17g}"}


class TestChainGrading:
    TOL = SMALL.tolerance
    BELOW = np.floor(TOL * 2.0 ** 53) / 2.0 ** 53  # the largest step <= tol
    ABOVE = BELOW + 2.0 ** -53  # the smallest step > tol

    def test_indeterminate_label_and_text(self):
        report = audit_distance(_stepped(self.BELOW), SMALL)
        entry = report.entry("S4")
        assert entry.verdict_label() == "indeterminate at tolerance"
        line = f"  S4         indeterminate at tolerance  [{entry.detail}]"
        assert line in report.to_text().split("\n")

    def test_steps_bracket_tolerance(self):
        assert 0.0 < self.BELOW <= self.TOL < self.ABOVE
        assert 0.5 - (0.5 - self.BELOW) == self.BELOW and 0.5 - (0.5 - self.ABOVE) == self.ABOVE

    @pytest.mark.parametrize("axiom,strict", [("S4", False), ("S4'", True)])
    @pytest.mark.parametrize("above,verdict", [(False, "indeterminate"), (True, "fail")])
    def test_margin_against_tolerance(self, axiom, strict, above, verdict):
        m = _stepped(self.ABOVE if above else self.BELOW)
        entry = audit_distance(m, SMALL).entry(axiom)
        assert entry.verdict == verdict
        # S4' counts ties as violations, so its first indeterminate witness is a tie
        rows = _chain_rows(SMALL, weak=not strict)
        assert entry.witness == _first_chain_witness(m, rows, strict and not above)


# The grid sweep runs on a helper thread while the calling thread evaluates
# the samples.  With TINY every sample is one kernel call, in this order:
# the grid's self pairs (call 1), the pairs (2, 3) and their points' self
# pairs (4, 5), the triples (6-8), the chains (9-11), then S5's families
# (12), all before the wait for the sweep; the sweep of its 0.01 grid (431
# blocks) never calls the kernel, only the split.
TINY = AuditConfig(grid_step=0.01, random_pairs=100, random_triples=100, chain_samples=50,
                   seed=3)
TINY_BLOCKS = 431


class Boom(Exception):
    pass


class Halt(BaseException):
    """An interrupt, as KeyboardInterrupt is, but one that pytest does not
    take for the user's."""


def _rigged(kernel_fails_at: int = 0, finish_fails_at: int = 0, hook=None, error=Boom):
    """wu with a kernel that raises error("kernel") (Boom unless given) on its
    kernel_fails_at-th call and a split whose finish raises error("sweep")
    on its finish_fails_at-th; hook("kernel" or "finish") runs before each
    call."""
    wu = get_measure("wu")
    calls = {"kernel": 0, "finish": 0}

    def rigged(name, fails_at, f):
        def call(*args):
            calls[name] += 1
            if hook is not None:
                hook(name)
            if calls[name] == fails_at:
                raise error("sweep" if name == "finish" else name)
            return f(*args)
        return call

    split = wu.split._replace(finish=rigged("finish", finish_fails_at, wu.split.finish))
    kernel = rigged("kernel", kernel_fails_at, wu.pair_batch)
    return MeasureDescriptor("wu", {}, wu.evaluator, kernel, split), calls


def _slow_sweep(name: str) -> None:
    """A hook that makes a sweep of TINY take 2 * TINY_BLOCKS ms at the least."""
    if name == "finish":
        time.sleep(0.002)


class TestSweepThread:
    def test_tiny_plan(self):
        threads = {"kernel": set(), "finish": set()}
        m, calls = _rigged(hook=lambda name: threads[name].add(threading.get_ident()))
        report = audit_distance(m, TINY)
        assert report.passed
        assert calls == {"kernel": 12, "finish": TINY_BLOCKS}
        assert report.checks == audit_distance(get_measure("wu"), TINY).checks
        # the kernel runs on the calling thread only, the finish on one helper
        assert threads["kernel"] == {threading.get_ident()}
        assert len(threads["finish"]) == 1 and threads["finish"] != threads["kernel"]

    def test_no_thread_outlives_a_returning_audit(self):
        before = threading.active_count()
        audit_distance(get_measure("wu"), TINY)
        assert threading.active_count() == before

    @pytest.mark.parametrize("error", [Boom, Halt], ids=lambda e: e.__name__)
    @pytest.mark.parametrize("kernel_fails_at,finish_fails_at,raised", [
        # the calling thread leaves at the grid's self pairs (call 1), the
        # pairs' points (5), the first triple (6), the first chain (9) or
        # S5's probes (12), with or without a sweep error at its first block
        *((k, f, "kernel") for k in (1, 5, 6, 9, 12) for f in (0, 1)),
        # a clean calling thread: the sweep's error, at its last block
        (0, TINY_BLOCKS, "sweep"),
    ])
    def test_one_exit_rule(self, kernel_fails_at, finish_fails_at, raised, error):
        m, calls = _rigged(kernel_fails_at, finish_fails_at, hook=_slow_sweep, error=error)
        before = threading.active_count()
        with pytest.raises(error, match=f"^{raised}$"):
            audit_distance(m, TINY)
        assert threading.active_count() == before
        if raised == "kernel":  # the sweep stopped within one block
            assert calls["kernel"] == kernel_fails_at and calls["finish"] < TINY_BLOCKS
        else:
            assert calls == {"kernel": 12, "finish": TINY_BLOCKS}

    @pytest.mark.parametrize("kernel_fails_at,finish_fails_at,raised,blocks", [
        # the sweep fails at its last block before the calling thread fails
        # at a pair (call 3) or a pair's point (5): the calling thread's
        # error is still the one raised, as in a serial run
        (3, TINY_BLOCKS, "kernel", None), (5, TINY_BLOCKS, "kernel", None),
        # an error at the first or second triple stops a slow sweep short
        # of its TINY_BLOCKS blocks
        (6, 0, "kernel", TINY_BLOCKS), (7, 0, "kernel", TINY_BLOCKS),
    ])
    def test_errors_keep_the_serial_order(self, kernel_fails_at, finish_fails_at, raised, blocks):
        swept = threading.Event()

        def hook(name):
            if blocks is not None:
                _slow_sweep(name)
            elif name == "finish" and calls["finish"] == finish_fails_at:
                swept.set()
            elif name == "kernel" and calls["kernel"] == kernel_fails_at:
                assert swept.wait(timeout=10.0)

        m, calls = _rigged(kernel_fails_at, finish_fails_at, hook=hook)
        before = threading.active_count()
        with pytest.raises(Boom, match=f"^{raised}$"):
            audit_distance(m, TINY)
        assert threading.active_count() == before
        assert calls["kernel"] == kernel_fails_at
        if blocks is None:
            assert calls["finish"] == finish_fails_at
        else:
            assert calls["finish"] < blocks

    def test_sweep_runs_under_the_callers_errstate(self):
        def divide(name):
            if name == "finish":
                np.divide(1.0, np.zeros(1))

        m, _ = _rigged(hook=divide)
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            audit_distance(m, TINY)

    def test_interrupt_during_the_wait_stops_the_sweep(self):
        # a timer signal every 5 ms, whose handler raises Halt once the
        # calling thread, past the chains (call 11), waits in threading for
        # the sweep
        m, calls = _rigged(hook=_slow_sweep)
        waited = []

        def handler(signum, frame):
            if calls["kernel"] >= 11 and frame.f_code.co_filename == threading.__file__:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                waited.append(frame.f_code.co_name)
                raise Halt("wait")

        before = threading.active_count()
        previous = signal.signal(signal.SIGALRM, handler)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.005, 0.005)
            with pytest.raises(Halt, match="^wait$"):
                audit_distance(m, TINY)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert len(waited) == 1 and threading.active_count() == before
        assert calls["kernel"] == 12 and calls["finish"] < TINY_BLOCKS


# ---------------------------------------------------------------------------
# samples graded block by block, against the whole arrays
# ---------------------------------------------------------------------------

def _whole(kernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kernel on the points a and b in one call, unblocked."""
    return np.asarray(kernel(a[..., 0], a[..., 1], b[..., 0], b[..., 1]), dtype=float)


def _whole_array_distance(m: MeasureDescriptor, c: AuditConfig) -> tuple:
    """audit_distance's checks and counts with every sample evaluated and
    graded as one array, serially: the grading the blocks must reproduce."""
    tol, grid, kernel, w = c.tolerance, grid_points(c.grid_step), m.pair_batch, audit._witness
    sweep = audit._grid_matrix_sweep(m, grid, tol)
    pairs = audit._uniform(c, 0, 2, c.random_pairs)
    pa, pb = pairs[:, 0], pairs[:, 1]
    d_ab, d_ba = _whole(kernel, pa, pb), _whole(kernel, pb, pa)
    points = np.vstack([grid, pairs.reshape(-1, 2)])
    d_self = _whole(kernel, points, points)
    triples = audit._uniform(c, 1, 3, c.random_triples)
    ta, tb, tc = triples[:, 0], triples[:, 1], triples[:, 2]
    d1, d2, d3 = _whole(kernel, ta, tb), _whole(kernel, tb, tc), _whole(kernel, ta, tc)
    excess = d3 - (d1 + d2)
    worst = float(np.max(excess))
    chains = audit._chains_array(c)
    pair_cols = {"a": pa, "b": pb, "d": d_ab}
    distinct = (pa != pb).any(axis=1)
    rng_min, rng_max = min(sweep["min"], float(np.min(d_ab))), max(sweep["max"], float(np.max(d_ab)))
    min_off = min(sweep["min_off_diagonal"], float(np.min(d_ab[distinct])))
    triple_cols = {"a": ta, "b": tb, "c": tc, "d(a,c)": d3, "d(a,b)+d(b,c)": d1 + d2,
                   "excess": excess}
    checks = (
        audit._verdict("S3", [
            ("fail", w(d_ab != d_ba, {"a": pa, "b": pb, "d(a,b)": d_ab, "d(b,a)": d_ba}),
             "symmetry broken"),
        ], "exact equality on all sampled pairs"),
        audit._verdict("S1", [
            ("fail", sweep["range_witness"], "value outside [0, 1]"),
            ("fail", w(~((d_ab >= 0.0) & (d_ab <= 1.0)), pair_cols), "value outside [0, 1]"),
        ], f"observed range [{rng_min:.17g}, {rng_max:.17g}]", {"min": rng_min, "max": rng_max}),
        audit._verdict("S2", [
            ("fail", w(d_self != 0.0, {"a": points, "d(a,a)": d_self}), "d(a,a) != 0"),
            ("fail", w(distinct & ~(d_ab > 0.0), pair_cols), "d(a,b) == 0 for a != b"),
            ("fail", sweep["positivity_witness"], "d(a,b) == 0 for a != b"),
        ], "d(a,a)=0 everywhere; d>0 on all distinct sampled pairs", {"min_off_diagonal": min_off}),
        *audit._chain_checks(m, chains, tol),
        audit._maximality_check(sweep, audit._s5_probes(kernel, grid), tol),
        audit._verdict("D-triangle", [
            ("fail", w(~(excess <= tol), triple_cols), f"violated beyond tolerance {tol:g}"),
        ], f"max excess {worst:.3g} <= {tol:g}", {"max_excess": worst}),
    )
    counts = {"grid": len(grid), "pairs": c.random_pairs, "triples": c.random_triples,
              "chains": len(chains)}
    return checks, counts


def _whole_array_entropy(c: AuditConfig) -> tuple:
    """audit_entropy's checks and counts with its grid-plus-pair points as one array."""
    entropy = lambda p: 1.0 - _whole(audit.js_norm_batch, p, p[..., ::-1])
    grid, w = grid_points(c.grid_step), audit._witness
    samples = np.vstack([grid, audit._uniform(c, 0, 2, c.random_pairs).reshape(-1, 2)])
    ent, ent_c = entropy(samples), entropy(samples[:, ::-1])
    grid_ent, pinned = ent[:len(grid)], entropy(audit._PINNED_ENTROPY)
    nested = audit._nested_pairs(c)
    lo, hi = nested[:, 0], nested[:, 1]
    e_lo, e_hi = entropy(lo), entropy(hi)
    checks = (
        audit._verdict("E1", [
            ("fail", w((grid_ent == 0.0) != audit._is_endpoint(grid), {"a": grid, "E": grid_ent}),
             "zero set differs from the two crisp endpoints"),
            ("fail", w(pinned[:2] != 0.0, {"a": audit._PINNED_ENTROPY, "E": pinned}),
             "crisp endpoint not at entropy 0"),
        ], "E == 0 exactly at <1,0> and <0,1>"),
        audit._verdict("E2", [
            ("fail", w((ent == 1.0) != (samples[:, 0] == samples[:, 1]), {"a": samples, "E": ent}),
             "unit set differs from the mu == nu diagonal"),
            ("fail", w(pinned[2:] != 1.0, {"a": audit._PINNED_ENTROPY[2:], "E": pinned[2:]}),
             "pinned diagonal value not at entropy 1"),
        ], "E == 1 exactly on mu == nu"),
        audit._verdict("E3", [
            ("fail", w(ent != ent_c, {"a": samples, "E(a)": ent, "E(a^c)": ent_c}),
             "complement symmetry broken"),
        ], "E(a) == E(a^c) exactly on all samples"),
        audit._verdict("E4", audit._graded(e_lo - e_hi, c.tolerance,
                                           {"a": lo, "b": hi, "E(a)": e_lo, "E(b)": e_hi}),
                       f"monotone on {len(nested)} nested pairs (both orientations)"),
    )
    return checks, {"grid": len(grid), "samples": len(samples), "nested_pairs": len(nested)}


def _over_blocks(block: int) -> AuditConfig:
    """A config whose pairs, triples and self pairs span several blocks of
    `block` cells and end in a partial one; its 231 grid points span three
    blocks of 100."""
    return AuditConfig(grid_step=0.05, random_pairs=3 * block + 7, random_triples=3 * block + 7,
                       chain_samples=200, seed=11)


def _late(points: np.ndarray, block: int, *offsets: int) -> np.ndarray:
    """The mu of the points at block + offset, 2 block + offset, ...: a key
    set that no sample of the first block holds."""
    return points[[(k + 1) * block + o for k, o in enumerate(offsets)], 0]


def _planted_distance(c: AuditConfig, block: int) -> MeasureDescriptor:
    """wu with values planted in the pairs, self pairs and triples of the
    second block on, several per rule: out of range (S1), zero (S2), a nan
    (S1, S2, S3), halved in one order only (S3), nonzero on a self pair (S2),
    and a triangle whose sides to b are tiny (D-triangle).  Each plant is
    keyed by a sample point's mu, which no other sample shares."""
    wu = get_measure("wu")
    pairs = audit._uniform(c, 0, 2, c.random_pairs)[:, 0]
    tri_b = audit._uniform(c, 1, 3, c.random_triples)[:, 1]
    tri_a = audit._uniform(c, 1, 3, c.random_triples)[:, 0]
    out, zero, halved = _late(pairs, block, 3, 1, 5), _late(pairs, block, 9, 2), _late(pairs, block, 0, 6, 4)
    nan, selfs = _late(pairs, block, 7), _late(pairs, block // 2, 4, 11, 2)
    thin, tri_nan = _late(tri_b, block, 2, 8, 1), _late(tri_a, block, 5)

    def planted(ma, na, mb, nb):
        d = wu.pair_batch(ma, na, mb, nb)
        same = (ma == mb) & (na == nb)
        either = lambda keys: np.isin(ma, keys) | np.isin(mb, keys)
        d = np.where(either(out) & ~same, 1.5, d)
        d = np.where(either(zero) & ~same, 0.0, d)
        d = np.where(np.isin(ma, halved) & ~same, 0.5 * d, d)
        d = np.where(np.isin(ma, selfs) & same, 0.25, d)
        d = np.where(either(thin), 1e-3, d)
        return np.where(either(nan) | either(tri_nan), np.nan, d)

    return MeasureDescriptor("wu", {}, wu.evaluator, planted, wu.split)


class TestBlockGrading:
    @pytest.mark.parametrize("block", [measures._BLOCK_CELLS, 100])
    @pytest.mark.parametrize("planted", [False, True])
    def test_distance_matches_whole_arrays(self, monkeypatch, block, planted):
        monkeypatch.setattr(measures, "_BLOCK_CELLS", block)
        c = _over_blocks(block)
        m = _planted_distance(c, block) if planted else get_measure("wu")
        report = audit_distance(m, c)
        checks, counts = _whole_array_distance(m, c)
        assert report.checks == checks and report.counts == counts
        failing = {x.axiom for x in report.checks if x.verdict != "pass"}
        assert failing == ({"S1", "S2", "S3", "D-triangle"} if planted else set())

    @pytest.mark.parametrize("points", [
        # a grid point beats every pair point, the first pair's included
        lambda grid, pairs: (grid[200], pairs[0, 0]),
        # within one pair, a comes before b
        lambda grid, pairs: (pairs[150, 0], pairs[150, 1]),
        # an earlier pair's b comes before a later block's a
        lambda grid, pairs: (pairs[99, 1], pairs[100, 0]),
    ], ids=["grid-first", "a-before-b", "b-before-next-block"])
    def test_self_pair_witness_order(self, monkeypatch, points):
        # a nonzero d(a,a) planted at two points, the witness first, in
        # blocks of 100 samples
        monkeypatch.setattr(measures, "_BLOCK_CELLS", 100)
        c = _over_blocks(100)
        plants = np.array(points(grid_points(c.grid_step), audit._uniform(c, 0, 2, c.random_pairs)))
        wu = get_measure("wu")

        def planted(ma, na, mb, nb):
            at = ((ma[..., None] == plants[:, 0]) & (na[..., None] == plants[:, 1])).any(axis=-1)
            return np.where(at & (ma == mb) & (na == nb), 0.25, wu.pair_batch(ma, na, mb, nb))

        entry = audit_distance(MeasureDescriptor("wu", {}, wu.evaluator, planted, wu.split), c).entry("S2")
        assert (entry.verdict, entry.detail) == ("fail", "d(a,a) != 0")
        assert entry.witness == {"a": audit._fmt_ifv(*plants[0]), "d(a,a)": "0.25"}

    @pytest.mark.parametrize("block", [measures._BLOCK_CELLS, 100])
    @pytest.mark.parametrize("planted", [False, True])
    def test_entropy_matches_whole_arrays(self, monkeypatch, block, planted):
        # E2 and E3 fail from the second block on; E1 fails at four grid
        # points, which at block 100 lie in the grid's second block
        monkeypatch.setattr(measures, "_BLOCK_CELLS", block)
        c = _over_blocks(block)
        if planted:
            points = audit._uniform(c, 0, 2, c.random_pairs).reshape(-1, 2)
            one, halved, nan = _late(points, block, 3, 8), _late(points, block, 1, 6), _late(points, block, 5)
            grid = grid_points(c.grid_step)
            # mirror pairs, so that E3 holds at them
            at = [int(np.flatnonzero(np.isclose(grid, p).all(axis=1))[0])
                  for p in ((0.35, 0.4), (0.4, 0.35), (0.45, 0.5), (0.5, 0.45))]
            assert min(at) >= 100
            crisp = grid[at]
            js = audit.js_norm_batch

            def planted_js(ma, na, mb, nb):
                d = js(ma, na, mb, nb)
                d = np.where(np.isin(ma, one), 0.0, d)  # E = 1 off the diagonal, and E3
                d = np.where(np.isin(ma, halved), 0.5 * d, d)
                d = np.where(((ma == crisp[:, :1]) & (na == crisp[:, 1:])).any(axis=0), 1.0, d)
                return np.where(np.isin(ma, nan), np.nan, d)

            monkeypatch.setattr(audit, "js_norm_batch", planted_js)
        report = audit_entropy(c)
        checks, counts = _whole_array_entropy(c)
        assert report.checks == checks and report.counts == counts
        failing = {x.axiom for x in report.checks if x.verdict != "pass"}
        assert failing == ({"E1", "E2", "E3"} if planted else set())


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSampleMemory:
    # what stays is the draws and their fold temporaries: no array of one
    # value per sample is built, so doubling the samples adds the draws only
    def test_distance_audit(self):
        wu = get_measure("wu")
        peak = lambda n: _traced_peak(
            lambda: audit_distance(wu, AuditConfig(random_pairs=n, random_triples=n)))
        assert peak(200_000) - peak(100_000) <= 11e6

    def test_entropy_audit(self):
        peak = lambda n: _traced_peak(lambda: audit_entropy(AuditConfig(random_pairs=n)))
        assert peak(200_000) - peak(100_000) <= 6e6
