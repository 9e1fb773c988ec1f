"""Domain types for intuitionistic fuzzy values (IFVs) and sets (IFSs).

An IFV is a pair <mu, nu> of membership / non-membership degrees with
mu, nu in [0, 1] and mu + nu <= 1; the leftover 1 - mu - nu is the
indeterminacy degree.  An IFS assigns one IFV to every element of a finite,
ordered universe of discourse.  It stores its degrees in one read-only
(2, n) float64 array, mu in row 0 and nu in row 1, validated once with
vector operations when the set is built; set operations and the measures
work on the rows directly.  IFVs, IFSs and weight vectors cannot be changed
after construction and all operations are pure, so everything is safe to
share across threads.

Validation policy: individual degrees must lie in [0, 1] exactly, while the
simplex constraint mu + nu <= 1 gets a slack of SIMPLEX_SLACK (1e-9) so that
decimal inputs such as 0.3 + 0.7 are not rejected for representation error.
The same rules apply to one IFV and to every pair of an IFS, and an invalid
set reports its first offending pair as IFV would.  Stored values are used
exactly as given, never renormalized.  Order comparisons are exact (no
tolerance).
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

SIMPLEX_SLACK = 1e-9
WEIGHT_SUM_TOL = 1e-9


class IfsimError(Exception):
    """Base class for all errors raised by this package.  str() is the plain
    message, also for the subclasses of KeyError, which would quote it."""

    __str__ = Exception.__str__


class OutOfRangeError(IfsimError, ValueError):
    """A degree or function argument lies outside its admissible interval."""


class SimplexViolationError(IfsimError, ValueError):
    """mu + nu exceeds 1 beyond the validation slack."""


class UniverseMismatchError(IfsimError, ValueError):
    """Two IFSs do not share the same universe (same labels, same order)."""


class WeightLengthMismatchError(IfsimError, ValueError):
    """A weight vector's length differs from the universe size."""


def _is_int(x) -> bool:
    """An int or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _show(x) -> str:
    """repr(x) for an error message; an int of more than 128 bits, which
    str() may refuse to print, shows as its sign and size in bits."""
    if isinstance(x, int) and x.bit_length() > 128:
        return f"<{'negative ' if x < 0 else ''}int of {x.bit_length()} bits>"
    return repr(x)


def _floats(values: Iterable, error: type[IfsimError], what: str) -> tuple[float, ...]:
    """The values as floats, converted in one pass; an int beyond the float
    range raises `error` with a one-line message, not OverflowError."""
    try:
        return tuple(map(float, values))
    except OverflowError:
        raise error(f"{what} is too large for a float") from None


def _positive_float(x, error: type[IfsimError], name: str) -> float:
    """x as a float, finite and > 0; else `error` with a one-line message."""
    if not (0.0 < x < math.inf):
        raise error(f"{name} must be finite and > 0, got {_show(x)}")
    return _floats((x,), error, name)[0]


def _count(value, low: int, name: str) -> None:
    """Raise OutOfRangeError unless value, a count, is an int or numpy
    integer (not a bool) in [low, sys.maxsize], the most Python can index."""
    if not (_is_int(value) and low <= value <= sys.maxsize):
        raise OutOfRangeError(f"{name} must be an integer in [{low}, {sys.maxsize}], got {_show(value)}")


@dataclass(frozen=True)
class IFV:
    """An intuitionistic fuzzy value <mu, nu>."""

    mu: float
    nu: float

    def __post_init__(self) -> None:
        mu, nu = _floats((self.mu, self.nu), OutOfRangeError, "a degree")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        for name, v in (("mu", self.mu), ("nu", self.nu)):
            if not (0.0 <= v <= 1.0):
                raise OutOfRangeError(f"{name}={v!r} outside [0, 1]")
        if self.mu + self.nu > 1.0 + SIMPLEX_SLACK:
            raise SimplexViolationError(
                f"mu + nu = {self.mu + self.nu!r} exceeds 1 (slack {SIMPLEX_SLACK})"
            )

    def __repr__(self) -> str:  # <0.3, 0.2> reads like the usual notation
        return f"IFV({self.mu:g}, {self.nu:g})"


def indeterminacy(a: IFV) -> float:
    """Indeterminacy degree 1 - (mu + nu), clamped at 0 so the validation
    slack never yields a negative degree.  The grouped sum makes the degree
    identical for a value and its complement."""
    return max(0.0, 1.0 - (a.mu + a.nu))


def complement(a: IFV) -> IFV:
    """The complement <nu, mu>; an involution."""
    return IFV(a.nu, a.mu)


def atanassov_subset(a: IFV, b: IFV) -> bool:
    """Atanassov's partial order: a is contained in b iff a.mu <= b.mu and
    a.nu >= b.nu.  Comparisons are exact."""
    return a.mu <= b.mu and a.nu >= b.nu


def atanassov_strict_subset(a: IFV, b: IFV) -> bool:
    """Strict containment: contained and componentwise different."""
    return atanassov_subset(a, b) and (a.mu != b.mu or a.nu != b.nu)


def _checked_universe(universe: Iterable[str], n: int) -> tuple[str, ...]:
    """The universe as a tuple of str labels, checked against n degrees."""
    universe = tuple(map(str, universe))
    if len(universe) < 1:
        raise OutOfRangeError("universe must contain at least one element")
    if len(universe) != n:
        raise OutOfRangeError(f"universe has {len(universe)} labels but {n} values given")
    if len(set(universe)) != len(universe):
        raise OutOfRangeError("universe labels must be unique")
    return universe


def _degrees_valid(degrees: np.ndarray) -> bool:
    """The IFV rules on a (2, n) array of degrees, all pairs at once (vacuous
    for n == 0); a nan makes min and max nan, so it fails the range test."""
    mu, nu = degrees
    return bool(not degrees.size or (degrees.min() >= 0.0 and degrees.max() <= 1.0
                                     and (mu + nu).max() <= 1.0 + SIMPLEX_SLACK))


def _pair_rows(pairs: list) -> np.ndarray | None:
    """The (n, 2) float64 array of a list of (mu, nu) pairs; None unless
    every pair has length 2."""
    if set(map(len, pairs)) - {2}:
        return None
    return np.fromiter(chain.from_iterable(pairs), np.float64, 2 * len(pairs)).reshape(-1, 2)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class IFS:
    """An intuitionistic fuzzy set over a finite, labeled, ordered universe.

    `degrees` is a read-only (2, n) float64 array: row 0 holds the
    memberships mu_j and row 1 the non-memberships nu_j, each contiguous.
    """

    universe: tuple[str, ...]
    degrees: np.ndarray

    def __init__(self, universe: Sequence[str], values: Iterable[IFV]) -> None:
        values = tuple(values)
        universe = _checked_universe(universe, len(values))
        for v in values:
            if not isinstance(v, IFV):
                raise OutOfRangeError(f"values must be IFVs, got {type(v).__name__}")
        degrees = np.array([[v.mu for v in values], [v.nu for v in values]], dtype=np.float64)
        self._store(universe, degrees)

    def _store(self, universe: tuple[str, ...], degrees: np.ndarray) -> None:
        degrees.flags.writeable = False
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "degrees", degrees)

    @classmethod
    def _from_degrees(cls, universe: tuple[str, ...], degrees: np.ndarray) -> "IFS":
        """An IFS over a checked universe from a valid (2, n) float64 array
        that nothing else holds."""
        out = object.__new__(cls)
        out._store(universe, degrees)
        return out

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[float, float]] | np.ndarray, universe: Sequence[str] | None = None
    ) -> "IFS":
        """Build an IFS from (mu, nu) pairs, an iterable or an (n, 2) array;
        labels default to x1..xn."""
        try:
            if isinstance(pairs, np.ndarray):
                rows = np.array(pairs, dtype=np.float64)
            else:
                rows = _pair_rows(list(pairs))
        except OverflowError:
            raise OutOfRangeError("a degree is too large for a float") from None
        if rows is None:
            raise OutOfRangeError("every pair must hold two degrees (mu, nu)")
        if rows.ndim != 2 or rows.shape[1] != 2:
            raise OutOfRangeError(f"pairs must form an (n, 2) array, got shape {rows.shape}")
        degrees = np.ascontiguousarray(rows.T)
        if not _degrees_valid(degrees):
            for mu, nu in rows.tolist():
                IFV(mu, nu)  # raises for the first offending pair
        if universe is None:
            universe = [f"x{i + 1}" for i in range(len(rows))]
        return cls._from_degrees(_checked_universe(universe, len(rows)), degrees)

    @property
    def values(self) -> tuple[IFV, ...]:
        """The degrees as IFVs, built on each access."""
        return tuple(IFV(mu, nu) for mu, nu in zip(*self.degrees.tolist()))

    def __len__(self) -> int:
        return self.degrees.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IFS):
            return NotImplemented
        return self.universe == other.universe and bool((self.degrees == other.degrees).all())

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, so sets that compare equal hash equal
        return hash((self.universe, (self.degrees + 0.0).tobytes()))

    def __repr__(self) -> str:
        return f"IFS(universe={self.universe!r}, values={self.values!r})"

    def __reduce__(self):
        # pickle and copy rebuild through _from_degrees, so the copy is read-only too
        return IFS._from_degrees, (self.universe, self.degrees.copy())

    def complement(self) -> "IFS":
        """Elementwise complement over the same universe."""
        return IFS._from_degrees(self.universe, self.degrees[::-1].copy())

    def mu_array(self) -> np.ndarray:
        """The memberships, a read-only float64 view."""
        return self.degrees[0]

    def nu_array(self) -> np.ndarray:
        """The non-memberships, a read-only float64 view."""
        return self.degrees[1]


def _require_same_universe(a: IFS, b: IFS) -> None:
    if a.universe != b.universe:
        ua, ub = a.universe, b.universe
        i = next((j for j, (x, y) in enumerate(zip(ua, ub)) if x != y), min(len(ua), len(ub)))
        x = reprlib.repr(ua[i]) if i < len(ua) else "(end)"
        y = reprlib.repr(ub[i]) if i < len(ub) else "(end)"
        raise UniverseMismatchError(
            f"universes differ: {len(ua)} vs {len(ub)} labels, first at position {i}: {x} vs {y}"
        )


def ifs_subset(a: IFS, b: IFS) -> bool:
    """Pointwise Atanassov containment over identical universes."""
    _require_same_universe(a, b)
    da, db = a.degrees, b.degrees
    return bool((da[0] <= db[0]).all() and (da[1] >= db[1]).all())


def ifs_strict_subset(a: IFS, b: IFS) -> bool:
    """Pointwise containment with at least one element strictly contained."""
    return ifs_subset(a, b) and not (a.degrees == b.degrees).all()


@dataclass(frozen=True)
class WeightVector:
    """Positive weights over the universe, summing to 1 within WEIGHT_SUM_TOL.

    `array` holds the same weights as a read-only float64 array.
    """

    weights: tuple[float, ...]
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _floats(self.weights, OutOfRangeError, "a weight"))
        if len(self.weights) < 1:
            raise OutOfRangeError("weight vector must be non-empty")
        array = np.array(self.weights, dtype=np.float64)
        in_range = (array > 0.0) & (array <= 1.0)  # false for nan
        if not in_range.all():
            j = int(np.argmin(in_range))  # the first weight out of range
            raise OutOfRangeError(f"weight {j} = {self.weights[j]!r} outside (0, 1]")
        total = sum(self.weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise OutOfRangeError(f"weights sum to {total!r}, expected 1")
        array.flags.writeable = False
        object.__setattr__(self, "array", array)

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)


def uniform_weights(n: int) -> WeightVector:
    """Uniform weights (1/n, ..., 1/n); n must be an integer in [1, sys.maxsize]."""
    _count(n, 1, "n")
    return WeightVector((1.0 / n,) * n)


def check_weights(w: WeightVector, n: int) -> None:
    """Raise WeightLengthMismatchError unless len(w) == n."""
    if len(w) != n:
        raise WeightLengthMismatchError(
            f"weight vector has length {len(w)}, universe has {n} elements"
        )
