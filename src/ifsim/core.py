"""Domain types for intuitionistic fuzzy values (IFVs) and sets (IFSs).

An IFV is a pair <mu, nu> of membership / non-membership degrees with
mu, nu in [0, 1] and mu + nu <= 1; the leftover 1 - mu - nu is the
indeterminacy degree.  An IFS assigns one IFV to every element of a finite,
ordered universe of discourse.  All types here are immutable after
construction and all operations are pure, so everything is safe to share
across threads.

Validation policy: individual degrees must lie in [0, 1] exactly, while the
simplex constraint mu + nu <= 1 gets a slack of SIMPLEX_SLACK (1e-9) so that
decimal inputs such as 0.3 + 0.7 are not rejected for representation error.
Stored values are used exactly as given, never renormalized.  Order
comparisons are exact (no tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

SIMPLEX_SLACK = 1e-9
WEIGHT_SUM_TOL = 1e-9


class IfsimError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRangeError(IfsimError, ValueError):
    """A degree or function argument lies outside its admissible interval."""


class SimplexViolationError(IfsimError, ValueError):
    """mu + nu exceeds 1 beyond the validation slack."""


class UniverseMismatchError(IfsimError, ValueError):
    """Two IFSs do not share the same universe (same labels, same order)."""


class WeightLengthMismatchError(IfsimError, ValueError):
    """A weight vector's length differs from the universe size."""


@dataclass(frozen=True)
class IFV:
    """An intuitionistic fuzzy value <mu, nu>."""

    mu: float
    nu: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "nu", float(self.nu))
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


@dataclass(frozen=True)
class IFS:
    """An intuitionistic fuzzy set over a finite, labeled, ordered universe."""

    universe: tuple[str, ...]
    values: tuple[IFV, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "universe", tuple(str(x) for x in self.universe))
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.universe) < 1:
            raise OutOfRangeError("universe must contain at least one element")
        if len(self.universe) != len(self.values):
            raise OutOfRangeError(
                f"universe has {len(self.universe)} labels but {len(self.values)} values given"
            )
        if len(set(self.universe)) != len(self.universe):
            raise OutOfRangeError("universe labels must be unique")
        for v in self.values:
            if not isinstance(v, IFV):
                raise OutOfRangeError(f"values must be IFVs, got {type(v).__name__}")

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[float, float]], universe: Sequence[str] | None = None
    ) -> "IFS":
        """Build an IFS from (mu, nu) pairs; labels default to x1..xn."""
        vals = tuple(IFV(m, n) for m, n in pairs)
        if universe is None:
            universe = tuple(f"x{i + 1}" for i in range(len(vals)))
        return cls(tuple(universe), vals)

    def __len__(self) -> int:
        return len(self.values)

    def complement(self) -> "IFS":
        """Elementwise complement over the same universe."""
        return IFS(self.universe, tuple(complement(v) for v in self.values))

    def mu_array(self) -> list[float]:
        return [v.mu for v in self.values]

    def nu_array(self) -> list[float]:
        return [v.nu for v in self.values]


def _require_same_universe(a: IFS, b: IFS) -> None:
    if a.universe != b.universe:
        raise UniverseMismatchError(
            f"universes differ: {a.universe!r} vs {b.universe!r}"
        )


def ifs_subset(a: IFS, b: IFS) -> bool:
    """Pointwise Atanassov containment over identical universes."""
    _require_same_universe(a, b)
    return all(atanassov_subset(x, y) for x, y in zip(a.values, b.values))


def ifs_strict_subset(a: IFS, b: IFS) -> bool:
    """Pointwise containment with at least one element strictly contained."""
    _require_same_universe(a, b)
    return ifs_subset(a, b) and a.values != b.values


@dataclass(frozen=True)
class WeightVector:
    """Positive weights over the universe, summing to 1 within WEIGHT_SUM_TOL."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.weights) < 1:
            raise OutOfRangeError("weight vector must be non-empty")
        for j, w in enumerate(self.weights):
            if not (0.0 < w <= 1.0):
                raise OutOfRangeError(f"weight {j} = {w!r} outside (0, 1]")
        total = sum(self.weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise OutOfRangeError(f"weights sum to {total!r}, expected 1")

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)


def uniform_weights(n: int) -> WeightVector:
    """Uniform weights (1/n, ..., 1/n)."""
    if n < 1:
        raise OutOfRangeError(f"n must be >= 1, got {n}")
    return WeightVector((1.0 / n,) * n)


def check_weights(w: WeightVector, n: int) -> None:
    """Raise WeightLengthMismatchError unless len(w) == n."""
    if len(w) != n:
        raise WeightLengthMismatchError(
            f"weight vector has length {len(w)}, universe has {n} elements"
        )
