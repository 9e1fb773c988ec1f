"""Domain types: validation, the value order, weights, the IFS storage."""

import copy
import dataclasses
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given

from conftest import LONG_INT, LONG_INT_SHOWN, ifs_pairs, ifvs
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

BIG = 10**400  # an int too large for a float


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

    @pytest.mark.parametrize("mu,nu", [(BIG, 0.0), (0.0, BIG)])
    def test_int_too_large_for_a_float(self, mu, nu):
        with pytest.raises(OutOfRangeError, match="^a degree is too large for a float$"):
            IFV(mu, nu)


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

    @pytest.mark.parametrize("n", [2.5, True])
    def test_uniform_n_must_be_an_integer(self, n):
        with pytest.raises(OutOfRangeError) as info:
            uniform_weights(n)
        assert str(info.value) == f"n must be an integer in [1, {sys.maxsize}], got {n!r}"

    # no n allocates: counts stop at sys.maxsize, and the tuple repeat
    # refuses sys.maxsize weights before it allocates anything
    @pytest.mark.parametrize("n", [10**400, sys.maxsize + 1, sys.maxsize])
    def test_uniform_n_too_large(self, n):
        count = f"n must be an integer in [1, {sys.maxsize}], got "
        message = {10**400: count + "<int of 1329 bits>", sys.maxsize + 1: count + repr(sys.maxsize + 1),
                   sys.maxsize: f"n = {sys.maxsize} weights do not fit in memory"}[n]
        with pytest.raises(OutOfRangeError) as info:
            uniform_weights(n)
        assert str(info.value) == message

    def test_uniform_n_too_long_to_print(self):
        with pytest.raises(OutOfRangeError) as info:
            uniform_weights(LONG_INT)
        assert str(info.value) == f"n must be an integer in [1, {sys.maxsize}], got {LONG_INT_SHOWN}"

    def test_uniform_numpy_integer_n(self):
        assert uniform_weights(np.int64(2)) == uniform_weights(2)

    def test_empty_rejected(self):
        with pytest.raises(OutOfRangeError, match="non-empty"):
            WeightVector(())

    def test_int_too_large_for_a_float(self):
        with pytest.raises(OutOfRangeError, match="^a weight is too large for a float$"):
            WeightVector((0.5, BIG))

    def test_sum_must_be_one(self):
        with pytest.raises(OutOfRangeError):
            WeightVector((0.5, 0.5, 0.1))

    def test_zero_weight_rejected(self):
        with pytest.raises(OutOfRangeError):
            WeightVector((0.0, 1.0))

    def test_valid_non_uniform(self):
        WeightVector((0.2, 0.3, 0.5))


class TestIfsStorage:
    """An IFS keeps its degrees in one read-only (2, n) float64 array."""

    PAIRS = [(0.3, 0.2), (1.0, 0.0), (-0.0, 0.25), (0.5, 0.5)]
    UNIVERSE = ("x1", "x2", "x3", "x4")

    def _built_every_way(self):
        return [
            IFS(self.UNIVERSE, tuple(IFV(m, n) for m, n in self.PAIRS)),
            IFS.from_pairs(self.PAIRS),
            IFS.from_pairs(p for p in self.PAIRS),
            IFS.from_pairs(np.array(self.PAIRS)),
            IFS.from_pairs([(0.3, 0.2), (1, 0), (0.0, 0.25), (0.5, 0.5)], list(self.UNIVERSE)),
        ]

    def test_every_construction_gives_equal_sets_with_equal_hashes(self):
        first, *others = self._built_every_way()
        for s in others:
            assert s == first
            assert hash(s) == hash(first)

    def test_layout(self):
        s = IFS.from_pairs(self.PAIRS)
        assert s.degrees.shape == (2, 4)
        assert s.degrees.dtype == np.float64
        assert s.degrees.flags.c_contiguous
        assert s.mu_array().tolist() == [m for m, _ in self.PAIRS]
        assert s.nu_array().tolist() == [n for _, n in self.PAIRS]

    def test_values_round_trip(self):
        s = IFS.from_pairs(self.PAIRS)
        assert s.values == tuple(IFV(m, n) for m, n in self.PAIRS)
        assert IFS(s.universe, s.values) == s

    def test_negative_zero_is_kept_and_equals_zero(self):
        s = IFS.from_pairs([(-0.0, 0.3)])
        assert str(s.values[0].mu) == "-0.0"
        t = IFS.from_pairs([(0.0, 0.3)])
        assert s == t and hash(s) == hash(t)

    def test_inequality(self):
        s = IFS.from_pairs(self.PAIRS)
        assert s != IFS.from_pairs(self.PAIRS, ["a", "b", "c", "d"])
        assert s != IFS.from_pairs([*self.PAIRS[:3], (0.5, 0.4)])
        assert s != self.PAIRS
        assert s.__eq__(self.PAIRS) is NotImplemented

    def test_repr_unchanged(self):
        s = IFS.from_pairs([(0.3, 0.2), (0.4, 0.3)])
        assert repr(s) == "IFS(universe=('x1', 'x2'), values=(IFV(0.3, 0.2), IFV(0.4, 0.3)))"

    def test_read_only(self):
        s = IFS.from_pairs(self.PAIRS)
        assert not s.degrees.flags.writeable
        for row in (s.degrees, s.mu_array(), s.nu_array()):
            with pytest.raises(ValueError):
                row[0] = 0.0
        for name, value in (("degrees", np.zeros((2, 4))), ("universe", ("a",)), ("values", ())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(s, name, value)
        assert dataclasses.is_dataclass(s)

    def test_array_input_is_copied(self):
        pairs = np.array(self.PAIRS)
        s = IFS.from_pairs(pairs)
        pairs[0, 0] = 0.0
        assert s.values[0] == IFV(0.3, 0.2)

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                        lambda s: pickle.loads(pickle.dumps(s))])
    def test_copies_stay_read_only(self, copier):
        s = IFS.from_pairs(self.PAIRS)
        c = copier(s)
        assert c == s and hash(c) == hash(s)
        assert not c.degrees.flags.writeable

    @pytest.mark.parametrize("pairs", [
        [(0.3, 0.2, 0.1)],
        [(0.3, 0.2), (0.3,)],
        np.zeros((3, 3)),
        np.zeros(4),
        np.zeros((2, 2, 2)),
    ])
    def test_wrong_shape(self, pairs):
        with pytest.raises(OutOfRangeError):
            IFS.from_pairs(pairs)

    @pytest.mark.parametrize("pairs", [[], np.empty((0, 2))])
    def test_empty_pairs_raise_the_universe_error(self, pairs):
        for universe in (None, ("x1",)):
            with pytest.raises(OutOfRangeError) as got:
                IFS.from_pairs(pairs, universe)
            with pytest.raises(OutOfRangeError) as expected:
                IFS(universe or (), ())
            assert str(got.value) == str(expected.value)
        assert str(got.value) == "universe has 1 labels but 0 values given"
        with pytest.raises(OutOfRangeError, match="^universe must contain at least one element$"):
            IFS.from_pairs(pairs)

    @pytest.mark.parametrize("pairs", [[(0.3, float("nan"))], np.array([[float("nan"), 0.2]])])
    def test_nan(self, pairs):
        with pytest.raises(OutOfRangeError):
            IFS.from_pairs(pairs)

    @pytest.mark.parametrize("bad", [(0.7, 0.4), (1.5, 0.0), (0.2, -0.1), (0.5, 0.5 + 1e-7),
                                     (1.0 + 1e-10, 0.0), (0.0, -5e-324)])
    def test_first_offender_reported_as_by_ifv(self, bad):
        with pytest.raises((OutOfRangeError, SimplexViolationError)) as expected:
            IFV(*bad)
        for pairs in ([(0.1, 0.2), bad], [(0.1, 0.2), bad, (2.0, 0.0)]):
            for given_as in (list, np.array):
                with pytest.raises(expected.type) as got:
                    IFS.from_pairs(given_as(pairs))
                assert str(got.value) == str(expected.value)

    def test_slack_boundary(self):
        assert len(IFS.from_pairs([(0.3, 0.7), (0.5, 0.5 + 1e-10)])) == 2
        for pairs in ([(0.1, 0.2), (0.5, 0.5 + 1.5e-9)], np.array([(0.1, 0.2), (0.5, 0.5 + 1.5e-9)])):
            with pytest.raises(SimplexViolationError):
                IFS.from_pairs(pairs)

    @pytest.mark.parametrize("pairs", [[(0.1, 0.2), (BIG, 0.0)],
                                       np.array([(0.1, 0.2), (0.0, BIG)], dtype=object)])
    def test_int_too_large_for_a_float(self, pairs):
        with pytest.raises(OutOfRangeError, match="^a degree is too large for a float$"):
            IFS.from_pairs(pairs)

    def test_non_ifv_values(self):
        with pytest.raises(OutOfRangeError, match="IFVs"):
            IFS(("x1",), ((0.3, 0.2),))

    def test_complement_swaps_rows(self):
        s = IFS.from_pairs(self.PAIRS)
        c = s.complement()
        assert c.mu_array().tolist() == s.nu_array().tolist()
        assert c.nu_array().tolist() == s.mu_array().tolist()
        assert not c.degrees.flags.writeable

    @given(ifs_pairs(max_n=6))
    def test_complement_involution(self, pair):
        a, _ = pair
        assert a.complement().complement() == a


class TestUniverseMismatchMessage:
    def test_short_for_large_universes(self):
        n = 25_000
        labels = [f"element-{j}" for j in range(n)]
        a = IFS.from_pairs([(0.3, 0.2)] * n, labels)
        labels[12_345] = "other"
        b = IFS.from_pairs([(0.3, 0.2)] * n, labels)
        with pytest.raises(UniverseMismatchError) as exc:
            ifs_subset(a, b)
        message = str(exc.value)
        assert len(message) < 1000
        assert "25000 vs 25000" in message and "12345" in message
        assert "'element-12345'" in message and "'other'" in message

    def test_prefix_and_long_labels(self):
        a = IFS.from_pairs([(0.3, 0.2)], ["x" * 100_000])
        b = IFS.from_pairs([(0.3, 0.2), (0.4, 0.3)], ["x" * 100_000, "y"])
        with pytest.raises(UniverseMismatchError) as exc:
            ifs_subset(a, b)
        message = str(exc.value)
        assert len(message) < 1000
        assert "1 vs 2" in message and "position 1" in message and "(end)" in message


class TestWeightArray:
    def test_array_matches_tuple(self):
        w = WeightVector((0.2, 0.3, 0.5))
        assert w.array.dtype == np.float64
        assert w.array.tolist() == list(w.weights)
        assert not w.array.flags.writeable

    def test_equality_and_hash_from_weights(self):
        assert WeightVector((0.5, 0.5)) == uniform_weights(2)
        assert hash(WeightVector((0.5, 0.5))) == hash(uniform_weights(2))
        assert "array" not in repr(uniform_weights(2))

    @pytest.mark.parametrize("weights,j", [((0.5, 0.0, 0.5), 1), ((float("nan"), 1.0), 0),
                                           ((0.5, 0.5, -0.1, 0.1), 2)])
    def test_first_bad_weight_named(self, weights, j):
        with pytest.raises(OutOfRangeError, match=f"weight {j} = "):
            WeightVector(weights)
