"""The three rival measures: values against the exact reference
(tests/exact.py, mpmath on the exact float inputs), degeneracies, the
J-divergence branches, and the verified J_1 = ln2 * d_xiao**2 per-element
relation.  The tests named *frozen* pin reference values at the tolerance
that the once-frozen 50-digit constants had."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

import exact
from conftest import ifs_pairs, ifvs
from ifsim import (
    IFS,
    IFV,
    InvalidGammaError,
    NumericalConsistencyError,
    UniverseMismatchError,
    dist_xiao,
    dist_yc,
    j_gamma,
    sim_xiao,
)
from ifsim.baselines import j_gamma_batch, xiao_elem_batch, yc_elem_batch

LN2 = math.log(2.0)


def _one(mu, nu):
    return IFS(("x",), (IFV(mu, nu),))


class TestDistXiao:
    def test_counterexample_chain_values(self):
        i1, i2, i3 = _one(0.33, 0.36), _one(1 / 3, 1 / 3), _one(0.334, 0.333333)
        s12, s13 = sim_xiao(i1, i2), sim_xiao(i1, i3)
        assert s12 == pytest.approx(0.9738972, abs=1e-6)
        assert s13 == pytest.approx(0.9741713, abs=1e-6)
        assert abs(s12 - exact.sim("xiao", i1, i2)) <= 1e-12
        assert abs(s13 - exact.sim("xiao", i1, i3)) <= 1e-12
        # the defect: similarity grows along the chain even though i3 is farther
        assert s12 < s13

    def test_maximum_from_opposite_crisp_value(self):
        for lam in np.arange(0, 101) / 100.0:
            assert dist_xiao(_one(0.0, 1.0), _one(lam, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_degeneracy_pair_of_families(self):
        lams = np.arange(0, 101) / 100.0
        a = xiao_elem_batch(1.0, 0.0, lams, np.zeros_like(lams))
        b = xiao_elem_batch(1.0, 0.0, lams, 1.0 - lams)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_table_case5(self):
        a = IFS.from_pairs([(0.30, 0.20), (0.40, 0.30)])
        b = IFS.from_pairs([(0.45, 0.15), (0.55, 0.25)])
        assert dist_xiao(a, b) == pytest.approx(0.13224, abs=2e-5)
        assert abs(dist_xiao(a, b) - exact.dist("xiao", a, b)) <= 1e-12

    def test_self_distance_and_dual(self):
        a = IFS.from_pairs([(0.3, 0.2), (0.4, 0.1)])
        assert dist_xiao(a, a) == 0.0
        assert sim_xiao(a, a) == 1.0

    def test_endpoint_similarity_zero(self):
        assert sim_xiao(_one(1.0, 0.0), _one(0.0, 1.0)) == 0.0

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            dist_xiao(IFS.from_pairs([(0.3, 0.2)], ["x"]), IFS.from_pairs([(0.3, 0.2)], ["y"]))

    @given(ifs_pairs())
    def test_symmetric_in_unit_range(self, pair):
        a, b = pair
        d = dist_xiao(a, b)
        assert 0.0 <= d <= 1.0
        assert d == dist_xiao(b, a)


class TestDistYc:
    def test_closed_form_family(self):
        for lam in np.arange(0, 101) / 100.0:
            expected = (2.0 / math.pi) * math.acos(math.sqrt(lam))
            assert dist_yc(_one(1.0, 0.0), _one(lam, 0.0)) == pytest.approx(expected, abs=1e-12)

    def test_self_distance_exact_zero(self):
        a = IFS.from_pairs([(0.02, 0.06), (0.3, 0.3)])
        assert dist_yc(a, a) == 0.0

    def test_counterexample_chain(self):
        i1, i2, i3 = _one(0.5, 0.5), _one(0.6, 0.3), _one(0.7, 0.3)
        d12, d13 = dist_yc(i1, i2), dist_yc(i1, i3)
        assert abs(d12 - exact.dist("yc", i1, i2)) <= 1e-12
        assert abs(d13 - exact.dist("yc", i1, i3)) <= 1e-12
        assert 1.0 - d12 < 1.0 - d13

    def test_degeneracy_maximum_family(self):
        lams = np.arange(0, 101) / 100.0
        d = yc_elem_batch(1.0, 0.0, np.zeros_like(lams), lams)
        assert np.max(np.abs(d - 1.0)) <= 1e-12

    def test_arccos_guard_fires_outside_domain(self):
        # off-simplex components push the Bhattacharyya sum above 1
        with pytest.raises(NumericalConsistencyError):
            yc_elem_batch(0.6, 0.6, 0.6, 0.6)

    @given(ifs_pairs())
    def test_symmetric_in_unit_range(self, pair):
        a, b = pair
        d = dist_yc(a, b)
        assert 0.0 <= d <= 1.0
        assert d == dist_yc(b, a)

    def test_table_iv_value(self):
        p1 = IFS.from_pairs([(0.15, 0.25), (0.25, 0.35), (0.35, 0.45)])
        s1 = IFS.from_pairs([(0.30, 0.20), (0.40, 0.30), (0.50, 0.40)])
        assert 1.0 - dist_yc(p1, s1) == pytest.approx(0.89, abs=5e-3)


class TestJGamma:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.0])
    def test_self_divergence_zero(self, gamma):
        for a in (IFV(0.3, 0.2), IFV(0.5, 0.5), IFV(1, 0)):
            assert j_gamma(a, a, gamma) == 0.0

    def test_frozen_values(self):
        a, b = IFV(0.5, 0.25), IFV(0.25, 0.5)
        for gamma in (1.0, 0.5):
            want = exact.elem("jgamma", a.mu, a.nu, b.mu, b.nu, gamma=gamma)
            assert abs(j_gamma(a, b, gamma) - want) <= 1e-15
        assert j_gamma(a, b, 2.0) == 0.03125  # exact dyadic arithmetic

    def test_endpoints(self):
        assert j_gamma(IFV(1, 0), IFV(0, 1), 1.0) == pytest.approx(LN2, abs=1e-15)
        assert j_gamma(IFV(1, 0), IFV(0, 1), 2.0) == 0.5

    def test_branch_switch_tolerance(self):
        a, b = IFV(0.4, 0.3), IFV(0.1, 0.6)
        assert j_gamma(a, b, 1.0 + 5e-13) == j_gamma(a, b, 1.0)

    def test_mirror_pair_indeterminacy_cancels(self):
        # pi is computed as 1 - (mu + nu), so <0.3,0.7> and <0.7,0.3> get
        # identical pi and the fractional-order branch is not blown up by a
        # one-ulp pi difference (x**0.5 amplifies 4e-17 to 1e-9)
        a, b = IFV(0.3, 0.7), IFV(0.7, 0.3)
        want = exact.elem("jgamma", a.mu, a.nu, b.mu, b.nu, gamma=0.5)
        assert abs(j_gamma(a, b, 0.5) - want) <= 1e-14

    def test_subnormal_membership_stays_finite(self):
        # (x+y)/2 underflows to 0 for x+y = 5e-324; the (x+y)*ln((x+y)/2)
        # term used to become -inf and J_1 inf, with a divide-by-zero warning
        a, b = IFV(5e-324, 0.2), IFV(0.0, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = j_gamma(a, b, 1.0)
            batch = j_gamma_batch(np.array([5e-324, 0.0]), np.array([0.2, 0.2]),
                                  np.zeros(2), np.full(2, 0.3), 1.0)
        want = exact.elem("jgamma", 5e-324, 0.2, 0.0, 0.3, gamma=1.0)
        assert abs(v - want) <= 1e-12 * want
        assert batch[0] == v and np.isfinite(batch).all()

    @pytest.mark.parametrize("gamma", [0.0, -2.0, math.inf])
    def test_invalid_gamma(self, gamma):
        with pytest.raises(InvalidGammaError):
            j_gamma(IFV(0.3, 0.2), IFV(0.1, 0.1), gamma)

    @given(ifvs(), ifvs())
    @settings(max_examples=200)
    def test_symmetric_nonnegative(self, a, b):
        for gamma in (0.5, 1.0, 2.0):
            v = j_gamma(a, b, gamma)
            assert v >= 0.0
            assert v == j_gamma(b, a, gamma)

    def test_relates_to_xiao_squared(self):
        """Per element, J_1 == ln2 * d_xiao**2 (the commonly quoted
        sqrt(J_1) == ln2 * d_xiao does not hold; see the mismatch check)."""
        rng = np.random.default_rng(42)
        pts = rng.random((10_000, 4))
        for col in (0, 2):
            over = pts[:, col] + pts[:, col + 1] > 1.0
            pts[over, col] = 1.0 - pts[over, col]
            pts[over, col + 1] = 1.0 - pts[over, col + 1]
        j1 = j_gamma_batch(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3], 1.0)
        d = xiao_elem_batch(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
        assert np.max(np.abs(j1 - LN2 * d ** 2)) < 1e-12
        # and the other form is measurably wrong
        mismatch = np.abs(np.sqrt(j1) - LN2 * d)
        assert np.max(mismatch) > 1e-2
