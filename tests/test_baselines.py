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
from mpmath import mp

import exact
from conftest import LONG_INT, LONG_INT_SHOWN, ifs_pairs, ifvs
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
from ifsim.baselines import j_gamma_batch, j_gamma_split, xiao_elem_batch, yc_elem_batch

LN2 = math.log(2.0)


def _simplex_points(seed: int, n: int) -> np.ndarray:
    """n seeded rows (mu_a, nu_a, mu_b, nu_b), each point reflected into
    the simplex."""
    pts = np.random.default_rng(seed).random((n, 4))
    for col in (0, 2):
        over = pts[:, col] + pts[:, col + 1] > 1.0
        pts[over, col] = 1.0 - pts[over, col]
        pts[over, col + 1] = 1.0 - pts[over, col + 1]
    return pts


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


def _multi_scale_points() -> np.ndarray:
    """(n, 2) valid (mu, nu) points at every scale, in both orientations:
    degrees 10**-k down to the smallest subnormal, near-crisp 1 - 10**-k
    and 1 - ulp, all pairs of those that lie in the simplex, seeded
    log-uniform draws beside them, and points with mu + nu one ulp above 1."""
    tiny = np.append(10.0 ** -np.arange(0, 324), [5e-324, 0.0])
    values = np.concatenate([tiny, 1.0 - tiny[1:17], [np.nextafter(1.0, 0.0), 0.5, 0.3]])
    grid = np.stack(np.meshgrid(values, values), axis=-1).reshape(-1, 2)
    rng = np.random.default_rng(14)
    mu = 10.0 ** -rng.uniform(0.0, 324.0, 20_000)
    drawn = np.column_stack([mu, np.concatenate([
        10.0 ** -rng.uniform(0.0, 324.0, 10_000),        # both tiny or far apart
        (1.0 - mu[10_000:]) * rng.random(10_000)])])     # anywhere in the simplex
    points = np.concatenate([grid, drawn])
    points = points[points.sum(axis=1) <= 1.0]
    # mu + nu one ulp above 1: nu stepped up from 1 - mu until the sum leaves 1
    m = np.concatenate([values[(values >= 1e-15) & (values < 1.0)], rng.random(2_000)])
    n = 1.0 - m
    for _ in range(4):
        n = np.where(m + n > 1.0, n, np.nextafter(n, 2.0))
    slack = np.column_stack([m, n])[(m + n == np.nextafter(1.0, 2.0)) & (n <= 1.0)]
    assert len(slack) > 1_000
    points = np.concatenate([points, slack])
    return np.concatenate([points, points[:, ::-1]])


class TestSelfDistanceAtEveryScale:
    """d(a, a) is an exact +0.0 for xiao and yc at every scale, with no
    equality mask: yc's Bhattacharyya sum of equal values rounds to 1 or
    above, and each of xiao's L terms is an exact +0.0."""

    POINTS = _multi_scale_points()

    @pytest.mark.parametrize("kernel", [xiao_elem_batch, yc_elem_batch])
    def test_exact_positive_zero(self, kernel):
        mu, nu = self.POINTS.T
        d = kernel(mu, nu, mu, nu)
        assert not np.any(d), self.POINTS[d != 0.0][:5].tolist()
        assert not np.signbit(d).any()

    def test_yc_bitwise_symmetric_on_ulp_neighbours(self):
        a = self.POINTS
        for col in (0, 1):
            for toward in (-1.0, 2.0):
                b = a.copy()
                b[:, col] = np.clip(np.nextafter(a[:, col], toward), 0.0, 1.0)
                d_ab = yc_elem_batch(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
                d_ba = yc_elem_batch(b[:, 0], b[:, 1], a[:, 0], a[:, 1])
                assert np.array_equal(d_ab.view(np.int64), d_ba.view(np.int64))


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

    def test_gamma_too_long_to_print(self):
        message = f"gamma must be finite and > 0, got {LONG_INT_SHOWN}"
        for call in (lambda: j_gamma_split(LONG_INT),
                     lambda: j_gamma(IFV(0.3, 0.2), IFV(0.1, 0.1), LONG_INT)):
            with pytest.raises(InvalidGammaError) as info:
                call()
            assert str(info.value) == message

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
        pts = _simplex_points(42, 10_000)
        j1 = j_gamma_batch(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3], 1.0)
        d = xiao_elem_batch(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
        assert np.max(np.abs(j1 - LN2 * d ** 2)) < 1e-12
        # and the other form is measurably wrong
        mismatch = np.abs(np.sqrt(j1) - LN2 * d)
        assert np.max(mismatch) > 1e-2

    def test_relates_to_xiao_squared_exactly(self):
        """The same identity in exact arithmetic, a witness independent of
        the kernel, which computes J_1 from xiao's channel sum: tests/exact.py
        evaluates J_1 through its own natural-log term."""
        for v in _simplex_points(43, 300).tolist():
            j1, d = exact.elem("jgamma", *v, gamma=1.0), exact.elem("xiao", *v)
            with mp.workprec(exact.working_bits(v)):
                assert abs(j1 - mp.ln2 * d ** 2) <= 1e-40 * j1
