"""Domain types: validation, the value order, weights."""

import pytest
from hypothesis import given

from conftest import ifvs
from ifsim import (
    IFS,
    IFV,
    OutOfRangeError,
    SimplexViolationError,
    UniverseMismatchError,
    WeightVector,
    atanassov_strict_subset,
    atanassov_subset,
    complement,
    ifs_strict_subset,
    ifs_subset,
    indeterminacy,
    uniform_weights,
)


class TestMakeIfv:
    """Building an IFV validates its degrees."""

    def test_valid_pairs(self):
        for mu, nu in ((0.33, 0.36), (1.0, 0.0), (0.0, 0.0)):
            v = IFV(mu, nu)
            assert (v.mu, v.nu) == (mu, nu)

    def test_simplex_violation(self):
        with pytest.raises(SimplexViolationError):
            IFV(0.7, 0.4)

    @pytest.mark.parametrize("mu,nu", [(-0.1, 0.2), (1.1, 0.0), (0.2, -0.1), (0.0, 1.0001)])
    def test_out_of_range(self, mu, nu):
        with pytest.raises(OutOfRangeError):
            IFV(mu, nu)

    def test_slack_admits_decimal_rounding(self):
        # 0.3 + 0.7 style inputs must not be rejected for representation error
        IFV(0.3, 0.7)
        IFV(0.5, 0.5 + 1e-10)
        with pytest.raises(SimplexViolationError):
            IFV(0.5, 0.5 + 1e-7)

    def test_values_stored_as_given(self):
        v = IFV(0.3, 0.7)
        assert (v.mu, v.nu) == (0.3, 0.7)


class TestIndeterminacy:
    @pytest.mark.parametrize("mu,nu,expected", [
        (0.3, 0.2, 0.5),
        (1.0, 0.0, 0.0),
        (1 / 3, 1 / 3, 1 / 3),
    ])
    def test_examples(self, mu, nu, expected):
        assert indeterminacy(IFV(mu, nu)) == pytest.approx(expected, abs=1e-12)

    def test_never_negative_under_slack(self):
        assert indeterminacy(IFV(0.5, 0.5 + 1e-10)) == 0.0

    @given(ifvs())
    def test_degrees_sum_to_one(self, a):
        assert abs(a.mu + a.nu + indeterminacy(a) - 1.0) <= 1e-9

    @given(ifvs())
    def test_complement_invariant(self, a):
        assert indeterminacy(a) == indeterminacy(complement(a))  # bitwise


class TestComplement:
    def test_swaps(self):
        assert complement(IFV(0.3, 0.2)) == IFV(0.2, 0.3)
        assert complement(IFV(1.0, 0.0)) == IFV(0.0, 1.0)

    def test_fixed_point(self):
        assert complement(IFV(0.5, 0.5)) == IFV(0.5, 0.5)

    @given(ifvs())
    def test_involution(self, a):
        assert complement(complement(a)) == a


class TestAtanassovOrder:
    def test_examples(self):
        assert atanassov_subset(IFV(0.33, 0.36), IFV(1 / 3, 1 / 3))
        assert not atanassov_subset(IFV(0.4, 0.1), IFV(0.3, 0.2))

    @given(ifvs())
    def test_reflexive(self, a):
        assert atanassov_subset(a, a)
        assert not atanassov_strict_subset(a, a)

    @given(ifvs(), ifvs())
    def test_antisymmetric(self, a, b):
        if atanassov_subset(a, b) and atanassov_subset(b, a):
            assert a == b

    @given(ifvs(), ifvs(), ifvs())
    def test_transitive(self, a, b, c):
        if atanassov_subset(a, b) and atanassov_subset(b, c):
            assert atanassov_subset(a, c)

    @given(ifvs())
    def test_global_bounds(self, a):
        assert atanassov_subset(IFV(0.0, 1.0), a)
        assert atanassov_subset(a, IFV(1.0, 0.0))

    def test_strict_examples(self):
        assert atanassov_strict_subset(IFV(0.33, 0.36), IFV(1 / 3, 1 / 3))
        assert atanassov_strict_subset(IFV(0.0, 1.0), IFV(1.0, 0.0))
        assert not atanassov_strict_subset(IFV(1 / 3, 1 / 3), IFV(0.33, 0.36))


class TestIfs:
    def test_from_pairs_default_labels(self):
        s = IFS.from_pairs([(0.3, 0.2), (0.4, 0.3)])
        assert s.universe == ("x1", "x2")
        assert len(s) == 2

    def test_length_mismatch(self):
        with pytest.raises(OutOfRangeError):
            IFS(("x1", "x2"), (IFV(0.3, 0.2),))

    def test_duplicate_labels(self):
        with pytest.raises(OutOfRangeError):
            IFS(("x1", "x1"), (IFV(0.3, 0.2), IFV(0.4, 0.3)))

    def test_empty_universe(self):
        with pytest.raises(OutOfRangeError):
            IFS((), ())

    def test_subset_pointwise(self):
        # the comparison-table case 2 sets are componentwise nested: B < A
        a = IFS.from_pairs([(0.30, 0.20), (0.40, 0.30)])
        b = IFS.from_pairs([(0.16, 0.26), (0.26, 0.36)])
        assert ifs_subset(b, a)
        assert ifs_strict_subset(b, a)
        assert not ifs_subset(a, b)

    def test_subset_reflexive_not_strict(self):
        a = IFS.from_pairs([(0.3, 0.2)])
        assert ifs_subset(a, a)
        assert not ifs_strict_subset(a, a)

    def test_universe_mismatch(self):
        a = IFS.from_pairs([(0.3, 0.2)], ["x1"])
        b = IFS.from_pairs([(0.3, 0.2), (0.4, 0.3)], ["x1", "x2"])
        with pytest.raises(UniverseMismatchError):
            ifs_subset(a, b)

    def test_label_order_matters(self):
        a = IFS.from_pairs([(0.3, 0.2), (0.4, 0.3)], ["x1", "x2"])
        b = IFS.from_pairs([(0.4, 0.3), (0.3, 0.2)], ["x2", "x1"])
        with pytest.raises(UniverseMismatchError):
            ifs_subset(a, b)

    def test_complement_elementwise(self):
        a = IFS.from_pairs([(0.3, 0.2), (0.4, 0.3)])
        assert a.complement().values == (IFV(0.2, 0.3), IFV(0.3, 0.4))


class TestWeights:
    def test_uniform(self):
        assert uniform_weights(3).weights == (1 / 3, 1 / 3, 1 / 3)
        assert uniform_weights(1).weights == (1.0,)
        assert uniform_weights(2).weights == (0.5, 0.5)

    def test_uniform_invalid_n(self):
        with pytest.raises(OutOfRangeError):
            uniform_weights(0)

    def test_sum_must_be_one(self):
        with pytest.raises(OutOfRangeError):
            WeightVector((0.5, 0.5, 0.1))

    def test_zero_weight_rejected(self):
        with pytest.raises(OutOfRangeError):
            WeightVector((0.0, 1.0))

    def test_valid_non_uniform(self):
        WeightVector((0.2, 0.3, 0.5))
