"""The JS-based measures: values against the exact reference, conventions,
closed forms, exactness guarantees.

Every reference value comes from tests/exact.py, which evaluates the
defining formulas in mpmath on the exact values of the float inputs; the
tests named *frozen* pin such values at the tolerance that the once-frozen
50-digit constants had.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import exact
import ifsim
from conftest import LONG_INT, LONG_INT_SHOWN, ifs_pairs, ifvs
from ifsim import (
    IFS,
    IFV,
    InvalidLambdaError,
    NegativeInputError,
    NumericalConsistencyError,
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
    js_norm,
    l_divergence,
    sim_wu,
    sim_wu_lambda,
    get_measure,
    uniform_weights,
    z_score,
    zeta,
)
from ifsim.measures import L_CLAMP, _clamp_nonneg, aggregate, wu_lambda_split
from ifsim.recognition import PatternLibrary


def test_import_does_not_load_mpmath():
    src = str(Path(ifsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, ifsim; sys.exit('mpmath' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestLDivergence:
    def test_one_zero(self):
        assert l_divergence(1.0, 0.0) == 1.0
        assert l_divergence(0.0, 1.0) == 1.0

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0, 3.7])
    def test_equal_arguments_vanish_exactly(self, p):
        assert l_divergence(p, p) == 0.0

    def test_frozen_values(self):
        for p, q in ((0.5, 0.25), (0.3, 0.7)):
            assert abs(l_divergence(p, q) - exact.l_divergence(p, q)) <= 1e-15

    def test_negative_input(self):
        with pytest.raises(NegativeInputError):
            l_divergence(-0.1, 0.5)
        with pytest.raises(NegativeInputError):
            l_divergence(0.5, -1e-9)
        with pytest.raises(NegativeInputError):
            l_divergence(-math.inf, 0.5)

    @pytest.mark.parametrize("p, q", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 1.0),
                                      (0.5, math.inf), (1e308, 1e308), (1.7e308, 0.0)])
    def test_non_finite_or_overflowing_sum(self, p, q):
        # the doubled sum 2(p + q) must be finite, so that 2p/s is; no RuntimeWarning
        with pytest.raises(OutOfRangeError):
            l_divergence(p, q)

    @pytest.mark.parametrize("p, q", [(10**400, 1), (1, 10**400)])
    def test_int_too_large_for_a_float(self, p, q):
        with pytest.raises(OutOfRangeError, match="^an argument of L is too large for a float$"):
            l_divergence(p, q)

    @given(
        ifvs().map(lambda v: 3.0 * v.mu),  # any non-negative reals are admissible
        ifvs().map(lambda v: 3.0 * v.nu),
    )
    def test_nonnegative_and_symmetric(self, p, q):
        assert l_divergence(p, q) >= 0.0
        assert l_divergence(p, q) == l_divergence(q, p)


class TestClampNonneg:
    def test_raises_below_the_clamp(self):
        with pytest.raises(NumericalConsistencyError, match=r"^L\(p, q\) = .* below 0 beyond"):
            _clamp_nonneg(np.array([0.5, -2 * L_CLAMP]), "L(p, q)")

    def test_clamps_a_residue_to_positive_zero_in_place(self):
        x = np.array([0.25, -L_CLAMP, -5e-324, 0.0])
        assert _clamp_nonneg(x, "L(p, q)") is x
        assert x.tolist() == [0.25, 0.0, 0.0, 0.0] and not np.signbit(x).any()


class TestZeta:
    def test_pinned_points(self):
        assert zeta(0.5) == 0.0
        assert zeta(0.0) == 1.0
        assert zeta(1.0) == 1.0

    def test_frozen_values(self):
        for x in (0.25, 0.1):
            assert abs(zeta(x) - exact.zeta(x)) <= 1e-15

    @pytest.mark.parametrize("x", [-0.01, 1.01])
    def test_domain(self, x):
        with pytest.raises(OutOfRangeError):
            zeta(x)

    @pytest.mark.parametrize("x,shown", [(LONG_INT, LONG_INT_SHOWN),
                                         (-LONG_INT, LONG_INT_SHOWN.replace("negative ", ""))],
                             ids=["negative", "positive"])
    def test_domain_int_too_long_to_print(self, x, shown):
        with pytest.raises(OutOfRangeError) as info:
            zeta(x)
        assert str(info.value) == f"zeta argument {shown} outside [0, 1]"

    @given(ifvs().map(lambda v: v.mu))
    def test_bounds_and_mirror(self, x):
        assert 0.0 <= zeta(x) <= 1.0
        assert zeta(x) == pytest.approx(zeta(1.0 - x), abs=1e-12)


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
    def test_matches_exact_reference(self, a, b):
        assert abs(z_score(a, b) - exact.z_score(a.mu, a.nu, b.mu, b.nu)) <= 1e-12


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
        want = exact.elem("wu", 0.33, 0.36, 1 / 3, 1 / 3)
        assert abs(js_norm(IFV(0.33, 0.36), IFV(1 / 3, 1 / 3)) - want) <= 1e-14

    @given(ifvs(), ifvs())
    @settings(max_examples=300)
    def test_bounds_symmetry_positivity(self, a, b):
        d = js_norm(a, b)
        assert 0.0 <= d <= 1.0
        assert d == js_norm(b, a)  # bitwise
        # the paper claims d > 0 on every unequal pair; this asserts it
        # beyond a gap of 1e-12, where it can still fail: the two log2
        # terms of the 1-mu channel cancel below their rounding error at
        # gaps up to about 2e-8 from mu = 0 (test_tiny_degrees_positive),
        # and hypothesis may draw such a pair
        if max(abs(a.mu - b.mu), abs(a.nu - b.nu)) > 1e-12:
            assert d > 0.0

    @pytest.mark.xfail(strict=True, reason=(
        "false zero: the two log2 terms of L(1-mu_a, 1-mu_b) cancel to "
        "~delta**2 (1e-18, 2e-19 and 4e-17 here), below their rounding error; fixed "
        "by the cancellation-free kernel of ROADMAP item 1"))
    @pytest.mark.parametrize("a,b", [  # falsifying examples hypothesis found for the test above
        (IFV(1e-9, 1e-9), IFV(2.22e-16, 1e-9)), (IFV(0.0, 0.0), IFV(4.302092628624096e-10, 0.0)),
        (IFV(0.0, 0.0), IFV(6.517527914942302e-09, 0.0))])
    def test_tiny_degrees_positive(self, a, b):
        assert js_norm(a, b) > 0.0

    @given(ifvs(), ifvs())
    @settings(max_examples=300)
    def test_square_matches_half_z(self, a, b):
        assert js_norm(a, b) ** 2 == pytest.approx(z_score(a, b) / 2.0, abs=1e-12)

    @given(ifvs(), ifvs(), ifvs())
    @settings(max_examples=300)
    def test_triangle(self, a, b, c):
        assert js_norm(a, c) <= js_norm(a, b) + js_norm(b, c) + 1e-12

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "near-collinear triples break the triangle inequality: 635, 623, "
        "608, 907 and 998 of 2,000 at these steps, and at 1e-14 to 1e-8 "
        "123-169 of them have d(a,b) = d(b,c) = 0 < d(a,c); needs the "
        "cancellation-free kernel of ROADMAP item 1"))
    @pytest.mark.parametrize("step", [1e-14, 1e-12, 1e-10, 1e-8, 1e-6])
    def test_triangle_on_near_collinear_triples(self, step):
        # a uniform on the simplex, scaled by 0.99 so that c stays inside;
        # b and c step mu up by h1 and h2 in step * [0.5, 1.5].  The slack
        # 8u is a placeholder until an oracle test sets the bound.
        rng = np.random.default_rng(20221018)
        a = rng.random((2000, 2))
        over = a.sum(axis=1) > 1.0
        a[over] = 1.0 - a[over]
        a *= 0.99
        h = step * rng.uniform(0.5, 1.5, size=(2, len(a)))
        b = a.copy()
        b[:, 0] += h[0]
        c = b.copy()
        c[:, 0] += h[1]
        d = get_measure("wu").pair_batch
        ab, bc, ac = (d(*x.T, *y.T) for x, y in ((a, b), (b, c), (a, c)))
        assert (ac <= (ab + bc) * (1.0 + 8.0 * 2.0 ** -53)).all()


class TestDistWu:
    def test_table_case1(self):
        sets, w = builtin_dataset("tableI_case1")
        d = dist_wu(sets["A"], sets["B"], w)
        assert d == pytest.approx(0.08563, abs=2e-5)
        assert abs(d - exact.dist("wu", sets["A"], sets["B"], w)) <= 1e-14

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

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "false zero on sets: w_2 * d_2 underflows when w_2 = 5e-324, which "
        "WeightVector accepts; needs a weight rule (ROADMAP item 13)"))
    def test_subnormal_weight_keeps_unequal_sets_apart(self):
        a = IFS.from_pairs([(0.5, 0.5), (0.3, 0.2)], ["x", "y"])
        b = IFS.from_pairs([(0.5, 0.5), (0.6, 0.2)], ["x", "y"])
        assert dist_wu(a, b, WeightVector((1.0, 5e-324))) > 0.0

    def test_weight_sum_above_one_keeps_values_in_range(self):
        # WeightVector accepts a weight sum within WEIGHT_SUM_TOL of 1; the
        # weighted sum is capped at 1, so the opposite endpoints give 1, not
        # 1 + 9e-10, and sim_wu and entropy_ifs are 0, not negative
        w = WeightVector((0.5, 0.5 + 9e-10))
        a = IFS.from_pairs([(1.0, 0.0), (1.0, 0.0)], ["x", "y"])
        b = IFS.from_pairs([(0.0, 1.0), (0.0, 1.0)], ["x", "y"])
        assert dist_wu(a, b, w) <= 1.0
        assert sim_wu(a, b, w) >= 0.0
        assert entropy_ifs(a, w) >= 0.0


class TestAggregateStack:
    """aggregate on a library's (2, P, n) stack gives, for each pattern, the
    bits of aggregate on that pattern alone, weighted or not.  n reaches past
    10,000 elements, where the weighted sum runs a threaded BLAS ddot."""

    KERNELS = [
        get_measure(name, **params).pair_batch
        for name, params in [("wu", {}), ("wu-lambda", {"lam": 0.5}), ("xiao", {}), ("yc", {}),
                             ("jgamma", {"gamma": 1.0}), ("jgamma", {"gamma": 2.0})]
    ]

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 17, 31, 32, 33, 127, 128, 129,
                                   1000, 4097, 10001, 25000])
    def test_stack_rows_match_single_sets(self, n):
        rng = np.random.default_rng(n)
        mu = rng.random((4, n))
        rows = np.stack([mu, rng.random((4, n)) * (1.0 - mu)], axis=-1)
        sets = [IFS.from_pairs(r) for r in rows]
        raw = rng.random(n) + 0.5
        weights = WeightVector(tuple(raw / raw.sum()))
        lib = PatternLibrary(tuple((f"p{k}", s) for k, s in enumerate(sets[:3])), weights)
        sample = sets[3]
        for kernel in self.KERNELS:
            for w in (None, weights):
                got = aggregate(kernel, lib, sample, w)
                assert got.shape == (3,)
                want = [aggregate(kernel, s, sample, w) for s in sets[:3]]
                assert got.tolist() == want  # == on floats: every bit, as none is nan

    def test_set_longer_than_a_block_is_one_kernel_call(self):
        # a set is one call on its whole rows, never cut into blocks, so its
        # value is that call's output reduced as aggregate reduces it
        n = 40_000
        rng = np.random.default_rng(n)
        mu = rng.random((2, n))
        a, b = (IFS.from_pairs(np.stack([m, rng.random(n) * (1.0 - m)], axis=-1)) for m in mu)
        raw = rng.random(n) + 0.5
        weights = WeightVector(tuple(raw / raw.sum()))
        for kernel in self.KERNELS:
            calls = []

            def recorded(*c):
                calls.append(np.broadcast(*c).size)
                return kernel(*c)

            per_element = kernel(*a.degrees, *b.degrees)
            got_mean, got_weighted = aggregate(recorded, a, b), aggregate(recorded, a, b, weights)
            assert calls == [n, n]
            assert got_mean.hex() == float(np.add.reduce(per_element) / n).hex()
            assert got_weighted.hex() == float(np.vecdot(per_element, weights.array)).hex()

    def test_weight_length_mismatch_on_a_stack(self):
        a = IFS.from_pairs([(0.3, 0.2), (0.4, 0.3)])
        lib = PatternLibrary((("p", a),), uniform_weights(2))
        with pytest.raises(WeightLengthMismatchError):
            aggregate(get_measure("wu").pair_batch, lib, a, uniform_weights(3))


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
        assert abs(s - exact.sim("wu-lambda", sets["P3"], sets["S1"], w, lam=1 / 3)) <= 1e-12

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf])
    def test_invalid_lambda(self, lam):
        sets, w = builtin_dataset("tableI_case1")
        with pytest.raises(InvalidLambdaError):
            dist_wu_lambda(sets["A"], sets["B"], w, lam)

    def test_lambda_too_long_to_print(self):
        sets, w = builtin_dataset("tableI_case1")
        message = f"lambda must be finite and > 0, got {LONG_INT_SHOWN}"
        for call in (lambda: wu_lambda_split(LONG_INT),
                     lambda: dist_wu_lambda(sets["A"], sets["B"], w, LONG_INT)):
            with pytest.raises(InvalidLambdaError) as info:
                call()
            assert str(info.value) == message

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
        d = wu_lambda_split(2.0)(0.3, 1e-200, 0.3, 0.0)
        assert d == pytest.approx(1e-200 / math.sqrt(2.0), rel=1e-12, abs=0.0)


def _multi_scale_axis() -> np.ndarray:
    """The 365 sorted degrees of the multi-scale axis: 0, the smallest
    subnormal, 1e-310, the smallest normal, 1e-1 ... 1e-299, 0.3, 0.5 and
    its neighbours, 1 - ulp, 1, 0.3 + k*1e-14 (k = 1 ... 19), and all
    their complements."""
    base = [0.0, float(np.nextafter(0.0, 1.0)), 1e-310, float(np.finfo(float).tiny),
            *(10.0 ** -k for k in range(1, 300)),
            0.3, float(np.nextafter(0.5, 0.0)), 0.5, float(np.nextafter(0.5, 1.0)),
            float(np.nextafter(1.0, 0.0)), 1.0, *(0.3 + k * 1e-14 for k in range(1, 20))]
    return np.unique(base + [1.0 - x for x in base])


def _inversions(table: np.ndarray) -> int:
    """Steps along a row that move one column further from the anchor
    (the diagonal), on either side, and make the entry fall."""
    right = np.triu(table[:, 1:] < table[:, :-1])  # column j -> j + 1, j >= row
    left = np.tril(table[:, :-1] < table[:, 1:], -1)  # column j + 1 -> j, j < row
    return int(right.sum() + left.sum())


class TestMultiScaleCertificate:
    # Each channel of wu and wu-lambda is one degree (or its power), so weak
    # S4 on every chain of the axis's product grid follows if no channel's
    # table of its own term, indexed by the degrees, has an inversion.  The
    # mu channel's term forms 1-mu itself, so its table shows how that
    # rounding collapses small mu.
    def test_axis_has_365_values(self):
        assert len(_multi_scale_axis()) == 365

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the 1-mu / nu term tables have 1,678/304 inversions for wu, "
        "1,807/377 at lambda 0.5 and 2,070/261 at lambda 2, and wu has "
        "85,104/242 off-diagonal zeros (not asserted: the zero rule is "
        "ROADMAP item 1's choice); needs the cancellation-free term of "
        "ROADMAP items 1 and 10"))
    @pytest.mark.parametrize("name,params", [
        ("wu", {}), ("wu-lambda", {"lambda": 0.5}), ("wu-lambda", {"lambda": 2.0})])
    def test_term_tables_have_no_inversion(self, name, params):
        axis = _multi_scale_axis()
        split = get_measure(name, **params).split
        tables = [t(c[:, None], c[None, :]) for t, c in zip(split.term, split.channels(axis, axis))]
        assert [_inversions(t) for t in tables] == [0, 0]


class TestEntropyIfv:
    def test_crisp_values_have_zero_entropy(self):
        assert entropy_ifv(IFV(1, 0)) == 0.0
        assert entropy_ifv(IFV(0, 1)) == 0.0

    @pytest.mark.parametrize("t", [0.0, 0.2, 0.4, 0.5])
    def test_diagonal_has_unit_entropy_exactly(self, t):
        assert entropy_ifv(IFV(t, t)) == 1.0

    def test_frozen_values(self):
        for a in (IFV(0.5, 0.25), IFV(0.3, 0.2)):
            assert abs(entropy_ifv(a) - exact.entropy(a)) <= 1e-12

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
        w = uniform_weights(2)
        assert abs(entropy_ifs(a, w) - exact.entropy(a, w)) <= 1e-12

    def test_weights_are_respected(self):
        a = IFS.from_pairs([(0.3, 0.2), (0.5, 0.5)])
        heavy_balanced = entropy_ifs(a, WeightVector((0.1, 0.9)))
        heavy_skewed = entropy_ifs(a, WeightVector((0.9, 0.1)))
        assert heavy_balanced > heavy_skewed
