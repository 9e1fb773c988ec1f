"""The JS-based measures: frozen high-precision oracles, conventions,
cross-path consistency, closed forms, exactness guarantees.

Frozen constants were computed with 50-digit mpmath evaluations of the
defining formulas (independent of the numpy kernels under test).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import ifs_pairs, ifvs
from ifsim import (
    IFS,
    IFV,
    InvalidLambdaError,
    NegativeInputError,
    OutOfRangeError,
    UniverseMismatchError,
    WeightLengthMismatchError,
    WeightVector,
    builtin_dataset,
    complement,
    dist_wu,
    dist_wu_lambda,
    entropy_ifs,
    entropy_ifv,
    js_if,
    js_norm,
    l_divergence,
    shannon_interval_entropy,
    sim_wu,
    sim_wu_lambda,
    uniform_weights,
    z_score,
    zeta,
)
from ifsim.measures import js_norm_lambda_batch

LN2 = math.log(2.0)

# 50-digit mpmath references
L_HALF_QUARTER = 0.061278124459132864
L_03_07 = 0.11870910076930738
ZETA_QUARTER = 0.18872187554086714
ZETA_TENTH = 0.53100440641071878
JSN_EX1 = 0.019313497493827739  # js_norm(<0.33,0.36>, <1/3,1/3>)
H_HALF_QUARTER = 0.6931471805599453
E_HALF_QUARTER = 0.77910423115098259
E_03_02 = 0.90167082121717185
E_IFS_MIXED = 0.95083541060858593  # {<0.3,0.2>, <0.5,0.5>}, uniform weights
TAB1_CASE1_WU = 0.085625563918239399
TAB4_P3_SIM_WU13 = 0.91962283735558333


class TestLDivergence:
    def test_one_zero(self):
        assert l_divergence(1.0, 0.0) == 1.0
        assert l_divergence(0.0, 1.0) == 1.0

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0, 3.7])
    def test_equal_arguments_vanish_exactly(self, p):
        assert l_divergence(p, p) == 0.0

    def test_frozen_values(self):
        assert l_divergence(0.5, 0.25) == pytest.approx(L_HALF_QUARTER, abs=1e-15)
        assert l_divergence(0.3, 0.7) == pytest.approx(L_03_07, abs=1e-15)

    def test_negative_input(self):
        with pytest.raises(NegativeInputError):
            l_divergence(-0.1, 0.5)
        with pytest.raises(NegativeInputError):
            l_divergence(0.5, -1e-9)

    @given(
        ifvs().map(lambda v: 3.0 * v.mu),  # any non-negative reals are admissible
        ifvs().map(lambda v: 3.0 * v.nu),
    )
    def test_nonnegative_and_symmetric(self, p, q):
        assert l_divergence(p, q) >= 0.0
        assert l_divergence(p, q) == l_divergence(q, p)


class TestZeta:
    def test_pinned_points(self):
        assert zeta(0.5) == 0.0
        assert zeta(0.0) == 1.0
        assert zeta(1.0) == 1.0

    def test_frozen_values(self):
        assert zeta(0.25) == pytest.approx(ZETA_QUARTER, abs=1e-15)
        assert zeta(0.1) == pytest.approx(ZETA_TENTH, abs=1e-15)

    @pytest.mark.parametrize("x", [-0.01, 1.01])
    def test_domain(self, x):
        with pytest.raises(OutOfRangeError):
            zeta(x)

    @given(ifvs().map(lambda v: v.mu))
    def test_bounds_and_mirror(self, x):
        assert 0.0 <= zeta(x) <= 1.0
        assert zeta(x) == pytest.approx(zeta(1.0 - x), abs=1e-12)


def _z_via_zeta(a: IFV, b: IFV) -> float:
    """Independent evaluation path: the zeta decomposition of the score,
    with zero-denominator terms contributing zero."""
    out = 0.0
    s1 = (1.0 - a.mu) + (1.0 - b.mu)
    if s1 > 0.0:
        out += s1 * zeta((1.0 - a.mu) / s1)
    s2 = a.nu + b.nu
    if s2 > 0.0:
        out += s2 * zeta(a.nu / s2)
    return out


class TestZScore:
    def test_endpoints(self):
        assert z_score(IFV(1, 0), IFV(0, 1)) == 2.0

    @given(ifvs())
    def test_self_is_zero_exactly(self, a):
        assert z_score(a, a) == 0.0

    def test_linear_family(self):
        for lam in np.arange(0, 101) / 100.0:
            assert z_score(IFV(1, 0), IFV(lam, 0)) == pytest.approx(1.0 - lam, abs=1e-15)

    @given(ifvs(), ifvs())
    @settings(max_examples=300)
    def test_matches_zeta_decomposition(self, a, b):
        assert z_score(a, b) == pytest.approx(_z_via_zeta(a, b), abs=1e-12)


class TestJsIf:
    @given(ifvs())
    def test_self_is_zero(self, a):
        assert js_if(a, a) == 0.0

    def test_endpoints_give_ln2(self):
        assert js_if(IFV(1, 0), IFV(0, 1)) == pytest.approx(LN2, abs=1e-15)

    @given(ifvs(), ifvs())
    @settings(max_examples=300)
    def test_cross_path_with_z_score(self, a, b):
        assert js_if(a, b) == pytest.approx(0.5 * LN2 * z_score(a, b), abs=1e-12)

    def test_example_one_inputs_cross_path(self):
        a, b = IFV(0.33, 0.36), IFV(1 / 3, 1 / 3)
        assert abs(js_if(a, b) - 0.5 * LN2 * z_score(a, b)) < 1e-12


class TestShannonIntervalEntropy:
    def test_vanishes_at_crisp_values(self):
        assert shannon_interval_entropy(IFV(1, 0)) == 0.0
        assert shannon_interval_entropy(IFV(0, 1)) == 0.0

    def test_frozen_value(self):
        assert shannon_interval_entropy(IFV(0.5, 0.25)) == pytest.approx(H_HALF_QUARTER, abs=1e-15)


class TestJsNorm:
    def test_extremes(self):
        assert js_norm(IFV(1, 0), IFV(0, 1)) == 1.0
        assert js_norm(IFV(0, 1), IFV(1, 0)) == 1.0

    @given(ifvs())
    def test_identity_exact(self, a):
        assert js_norm(a, a) == 0.0

    def test_halfway_point(self):
        assert js_norm(IFV(1, 0), IFV(0.5, 0)) == 0.5

    def test_frozen_example_one(self):
        assert js_norm(IFV(0.33, 0.36), IFV(1 / 3, 1 / 3)) == pytest.approx(JSN_EX1, abs=1e-14)

    @given(ifvs(), ifvs())
    @settings(max_examples=300)
    def test_bounds_symmetry_positivity(self, a, b):
        d = js_norm(a, b)
        assert 0.0 <= d <= 1.0
        assert d == js_norm(b, a)  # bitwise
        # positivity holds down to the resolution of double precision;
        # components closer than ~1e-14 make log2(2p/s) round to 0
        if max(abs(a.mu - b.mu), abs(a.nu - b.nu)) > 1e-12:
            assert d > 0.0

    @pytest.mark.xfail(strict=True, reason=(
        "false zero: the two log2 terms of L(1-mu_a, 1-mu_b) cancel to "
        "~delta**2 = 1e-18, below their rounding error; fixed by the "
        "cancellation-free kernel of ROADMAP item 1"))
    def test_tiny_degrees_positive(self):
        # the falsifying example hypothesis found for the test above
        assert js_norm(IFV(1e-9, 1e-9), IFV(2.22e-16, 1e-9)) > 0.0

    @given(ifvs(), ifvs())
    @settings(max_examples=300)
    def test_square_matches_half_z(self, a, b):
        assert js_norm(a, b) ** 2 == pytest.approx(z_score(a, b) / 2.0, abs=1e-12)

    @given(ifvs(), ifvs(), ifvs())
    @settings(max_examples=300)
    def test_triangle(self, a, b, c):
        assert js_norm(a, c) <= js_norm(a, b) + js_norm(b, c) + 1e-12


class TestDistWu:
    def test_table_case1(self):
        sets, w = builtin_dataset("tableI_case1")
        d = dist_wu(sets["A"], sets["B"], w)
        assert d == pytest.approx(0.08563, abs=2e-5)
        assert d == pytest.approx(TAB1_CASE1_WU, abs=1e-14)

    @given(ifs_pairs())
    def test_self_distance_zero(self, pair):
        a, _ = pair
        w = uniform_weights(len(a))
        assert dist_wu(a, a, w) == 0.0
        assert sim_wu(a, a, w) == 1.0

    def test_single_element_closed_form(self):
        w = uniform_weights(1)
        top = IFS.from_pairs([(1.0, 0.0)], ["x"])
        for lam in np.arange(0, 101) / 100.0:
            other = IFS.from_pairs([(lam, 1.0 - lam)], ["x"])
            assert dist_wu(top, other, w) == pytest.approx(math.sqrt(1.0 - lam), abs=1e-12)

    def test_endpoint_similarity_zero(self):
        w = uniform_weights(1)
        a = IFS.from_pairs([(1.0, 0.0)], ["x"])
        b = IFS.from_pairs([(0.0, 1.0)], ["x"])
        assert sim_wu(a, b, w) == 0.0

    def test_universe_mismatch(self):
        a = IFS.from_pairs([(0.3, 0.2)], ["x1"])
        b = IFS.from_pairs([(0.3, 0.2)], ["y1"])
        with pytest.raises(UniverseMismatchError):
            dist_wu(a, b, uniform_weights(1))

    def test_weight_length_mismatch(self):
        a = IFS.from_pairs([(0.3, 0.2), (0.4, 0.3)])
        with pytest.raises(WeightLengthMismatchError):
            dist_wu(a, a, uniform_weights(3))

    @given(ifs_pairs())
    def test_bounds_and_symmetry(self, pair):
        a, b = pair
        w = uniform_weights(len(a))
        d = dist_wu(a, b, w)
        assert 0.0 <= d <= 1.0
        assert d == dist_wu(b, a, w)


class TestDistWuLambda:
    def test_reduces_to_dist_wu_at_one(self):
        for case in range(1, 6):
            sets, w = builtin_dataset(f"tableI_case{case}")
            assert dist_wu_lambda(sets["A"], sets["B"], w, 1.0) == dist_wu(sets["A"], sets["B"], w)

    @given(ifs_pairs())
    def test_self_distance_zero_any_lambda(self, pair):
        a, _ = pair
        w = uniform_weights(len(a))
        for lam in (1 / 3, 0.5, 1.0, 2.0):
            assert dist_wu_lambda(a, a, w, lam) == 0.0

    def test_classification_value(self):
        sets, w = builtin_dataset("tableIII")
        s = sim_wu_lambda(sets["P3"], sets["S1"], w, 1 / 3)
        assert s == pytest.approx(0.92, abs=5e-3)
        assert s == pytest.approx(TAB4_P3_SIM_WU13, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_invalid_lambda(self, lam):
        sets, w = builtin_dataset("tableI_case1")
        with pytest.raises(InvalidLambdaError):
            dist_wu_lambda(sets["A"], sets["B"], w, lam)

    @given(ifs_pairs())
    def test_bounds(self, pair):
        a, b = pair
        w = uniform_weights(len(a))
        for lam in (1 / 3, 2.0):
            assert 0.0 <= dist_wu_lambda(a, b, w, lam) <= 1.0

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "false zero: nu**2 = 1e-400 underflows to 0.0 before the kernel "
        "runs, so both channels are equal; needs the power taken in the "
        "log domain (ROADMAP item 1, known limit)"))
    def test_squared_tiny_degree_positive(self):
        # exact value: L(1e-400, 0) = 1e-400, js_norm = sqrt(1e-400 / 2)
        d = js_norm_lambda_batch(0.3, 1e-200, 0.3, 0.0, 2.0)
        assert d == pytest.approx(1e-200 / math.sqrt(2.0), rel=1e-12, abs=0.0)


class TestEntropyIfv:
    def test_crisp_values_have_zero_entropy(self):
        assert entropy_ifv(IFV(1, 0)) == 0.0
        assert entropy_ifv(IFV(0, 1)) == 0.0

    @pytest.mark.parametrize("t", [0.0, 0.2, 0.4, 0.5])
    def test_diagonal_has_unit_entropy_exactly(self, t):
        assert entropy_ifv(IFV(t, t)) == 1.0

    def test_frozen_values(self):
        assert entropy_ifv(IFV(0.5, 0.25)) == pytest.approx(E_HALF_QUARTER, abs=1e-12)
        assert entropy_ifv(IFV(0.3, 0.2)) == pytest.approx(E_03_02, abs=1e-12)

    @given(ifvs())
    def test_definition_and_complement_symmetry(self, a):
        assert entropy_ifv(a) == 1.0 - js_norm(a, complement(a))
        assert entropy_ifv(a) == entropy_ifv(complement(a))
        assert 0.0 <= entropy_ifv(a) <= 1.0


class TestEntropyIfs:
    def test_all_balanced_elements(self):
        a = IFS.from_pairs([(0.5, 0.5), (0.2, 0.2)])
        assert entropy_ifs(a, uniform_weights(2)) == 1.0

    def test_crisp_set(self):
        a = IFS.from_pairs([(1.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
        assert entropy_ifs(a, uniform_weights(3)) == 0.0

    def test_single_element_reduces_to_ifv_entropy(self):
        a = IFS.from_pairs([(0.3, 0.2)], ["x"])
        assert entropy_ifs(a, uniform_weights(1)) == entropy_ifv(IFV(0.3, 0.2))

    def test_frozen_mixed_value(self):
        a = IFS.from_pairs([(0.3, 0.2), (0.5, 0.5)])
        assert entropy_ifs(a, uniform_weights(2)) == pytest.approx(E_IFS_MIXED, abs=1e-12)

    def test_weights_are_respected(self):
        a = IFS.from_pairs([(0.3, 0.2), (0.5, 0.5)])
        heavy_balanced = entropy_ifs(a, WeightVector((0.1, 0.9)))
        heavy_skewed = entropy_ifs(a, WeightVector((0.9, 0.1)))
        assert heavy_balanced > heavy_skewed
