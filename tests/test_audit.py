"""The axiom auditor: deterministic sampling, verdicts, witnesses."""

import sys
import threading
import time

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
from ifsim import audit
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
# exact for a step that is a multiple of 2**-53.
def _stepped(step: float) -> MeasureDescriptor:
    def kernel(ma, na, mb, nb):
        same = (ma == mb) & (na == nb)
        spread = np.abs(ma - mb) + np.abs(na - nb)
        return np.where(same, 0.0, np.where(spread > 0.3, 0.5 - step, 0.5))
    return MeasureDescriptor("stepped", {}, lambda a, b, w: 0.0, kernel)


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
# the pairs (calls 1, 2) and self pairs (3), the triples (4-6), the chains
# (7-9), then S5's families (10); the sweep of its 0.01 grid (431 blocks)
# never calls the kernel, only the split.
TINY = AuditConfig(grid_step=0.01, random_pairs=100, random_triples=100, chain_samples=50,
                   seed=3)
TINY_BLOCKS = 431


class Boom(Exception):
    pass


def _rigged(kernel_fails_at: int = 0, finish_fails_at: int = 0, hook=None):
    """wu with a kernel that raises Boom("kernel") on its kernel_fails_at-th
    call and a split whose finish raises Boom("sweep") on its
    finish_fails_at-th; hook("kernel" or "finish") runs before each call."""
    wu = get_measure("wu")
    calls = {"kernel": 0, "finish": 0}

    def rigged(name, fails_at, f):
        def call(*args):
            calls[name] += 1
            if hook is not None:
                hook(name)
            if calls[name] == fails_at:
                raise Boom("sweep" if name == "finish" else name)
            return f(*args)
        return call

    split = wu.split._replace(finish=rigged("finish", finish_fails_at, wu.split.finish))
    kernel = rigged("kernel", kernel_fails_at, wu.pair_batch)
    return MeasureDescriptor("wu", {}, wu.evaluator, kernel, split), calls


class TestSweepThread:
    def test_tiny_plan(self):
        m, calls = _rigged()
        report = audit_distance(m, TINY)
        assert report.passed
        assert calls == {"kernel": 10, "finish": TINY_BLOCKS}
        assert report.checks == audit_distance(get_measure("wu"), TINY).checks

    def test_no_thread_outlives_a_returning_audit(self):
        before = threading.active_count()
        audit_distance(get_measure("wu"), TINY)
        assert threading.active_count() == before

    @pytest.mark.parametrize("kernel_fails_at,finish_fails_at,raised,blocks", [
        # an error from the pairs or self pairs precedes the sweep's
        (1, 1, "kernel", None), (3, TINY_BLOCKS, "kernel", None),
        # the sweep's error precedes one from the triples or chains
        (4, TINY_BLOCKS, "sweep", TINY_BLOCKS), (9, 1, "sweep", 1),
        (0, TINY_BLOCKS, "sweep", TINY_BLOCKS),
        # which wait for the sweep to finish, as S5 does
        (4, 0, "kernel", TINY_BLOCKS), (7, 0, "kernel", TINY_BLOCKS),
        (10, 0, "kernel", TINY_BLOCKS),
    ])
    def test_errors_keep_the_serial_order(self, kernel_fails_at, finish_fails_at, raised, blocks):
        m, calls = _rigged(kernel_fails_at, finish_fails_at)
        before = threading.active_count()
        with pytest.raises(Boom, match=f"^{raised}$"):
            audit_distance(m, TINY)
        assert threading.active_count() == before
        if blocks is not None:
            assert calls["finish"] == blocks

    def test_sweep_runs_under_the_callers_errstate(self):
        def divide(name):
            if name == "finish":
                np.divide(1.0, np.zeros(1))

        m, _ = _rigged(hook=divide)
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            audit_distance(m, TINY)

    def test_callers_error_stops_the_sweep(self):
        swept = threading.Event()

        def hook(name):
            if name == "finish":  # a sweep of TINY_BLOCKS ms at the least
                swept.set()
                time.sleep(0.001)
            else:  # the first pair, which fails, waits for the sweep's first block
                assert swept.wait(timeout=10.0)

        m, calls = _rigged(kernel_fails_at=1, hook=hook)
        before = threading.active_count()
        with pytest.raises(Boom, match="^kernel$"):
            audit_distance(m, TINY)
        assert threading.active_count() == before
        assert 1 <= calls["finish"] < TINY_BLOCKS
