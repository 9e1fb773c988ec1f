"""The axiom auditor: deterministic sampling, verdicts, witnesses."""

import pytest

from ifsim import (
    IFS,
    IFV,
    AuditConfig,
    OutOfRangeError,
    atanassov_strict_subset,
    audit_distance,
    audit_entropy,
    dist_wu,
    get_measure,
    grid_points,
    sample_simplex,
    sample_strict_chain,
    uniform_weights,
)
from ifsim.measures import js_norm_batch
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
    ])
    def test_validation(self, kw):
        with pytest.raises(OutOfRangeError):
            AuditConfig(**kw)


class TestSampling:
    def test_grid_half_step_enumeration(self):
        pts = [tuple(p) for p in grid_points(0.5)]
        assert pts == [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0),
                       (0.5, 0.0), (0.5, 0.5), (1.0, 0.0)]

    def test_grid_density(self):
        assert len(grid_points(0.01)) == 5151  # 101*102/2 simplex lattice

    def test_simplex_stream_deterministic(self):
        c = AuditConfig(grid_step=0.25, random_pairs=50, random_triples=1,
                        chain_samples=1, seed=99)
        first = list(sample_simplex(c))
        second = list(sample_simplex(c))
        assert first == second
        assert len(first) == len(grid_points(0.25)) + 2 * 50

    def test_simplex_stream_respects_domain(self):
        c = AuditConfig(grid_step=0.5, random_pairs=500, random_triples=1,
                        chain_samples=1, seed=3)
        for v in sample_simplex(c):
            assert isinstance(v, IFV)  # construction enforces mu + nu <= 1

    def test_chains_strictly_nested(self):
        c = AuditConfig(grid_step=0.5, random_pairs=1, random_triples=1,
                        chain_samples=300, seed=5)
        triples = list(sample_strict_chain(c))
        assert len(triples) == 300
        for a, b, mid in [(t[0], t[2], t[1]) for t in triples]:
            assert atanassov_strict_subset(a, mid)
            assert atanassov_strict_subset(mid, b)

    def test_chains_deterministic_and_pinned(self):
        c = AuditConfig(grid_step=0.5, random_pairs=1, random_triples=1,
                        chain_samples=10, seed=5)
        one = list(sample_strict_chain(c))
        two = list(sample_strict_chain(c))
        assert one == two
        assert one[0] == (IFV(0.33, 0.36), IFV(1 / 3, 1 / 3), IFV(0.334, 0.333333))


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
    def test_distance_kind_required(self):
        sim = MeasureDescriptor(
            "sim-wu", "similarity", {},
            lambda a, b, w: 1.0 - dist_wu(a, b, w if w is not None else uniform_weights(len(a))),
            lambda *c: 1.0 - js_norm_batch(*c),
        )
        with pytest.raises(OutOfRangeError):
            audit_distance(sim, SMALL)

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
