"""Rival distance measures analyzed alongside the strict JS distance.

Three published measures with known axiomatic defects:

* dist_xiao  — per-element sqrt of a six-term log2 JS sum over the
  (mu, nu, pi) triple, averaged with fixed 1/n weights.  Its dual similarity
  violates strict chain monotonicity and attains distance 1 on infinitely
  many non-endpoint pairs.
* dist_yc    — spherical distance (2/(n*pi)) * sum arccos(sqrt(mu1*mu2) +
  sqrt(nu1*nu2) + sqrt(pi1*pi2)); same two defects.
* j_gamma    — power-mean divergence for gamma != 1 and the natural-log JS
  divergence over (mu, nu, pi) at gamma == 1.  Per element, J_1 relates to
  the per-element Xiao distance d by J_1 = ln2 * d**2 (verified numerically;
  the commonly quoted form sqrt(J_1) = ln2 * d does not hold).

These are kept faithful to their published forms: dist_xiao takes no weight
vector, j_gamma is exposed per IFV with averaging left to callers, and
j_gamma values are reported raw (in [0, ln 2] at gamma == 1), never rescaled
to [0, 1].
"""

from __future__ import annotations

import math

import numpy as np

from .core import IFS, IFV, IfsimError, _require_same_universe
from .measures import NumericalConsistencyError, _clamp_nonneg, l_divergence_batch

ARCCOS_CLAMP = 1e-12
GAMMA_BRANCH_TOL = 1e-12
_SMALLEST_SUBNORMAL = np.nextafter(0.0, 1.0)


class InvalidGammaError(IfsimError, ValueError):
    """The divergence order gamma must be > 0."""


def _pi_batch(mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    # 1 - (mu + nu), not 1 - mu - nu: the grouped sum commutes, so mirrored
    # value pairs get bitwise-identical indeterminacy degrees
    return np.maximum(0.0, 1.0 - (mu + nu))


def xiao_elem_batch(mu_a, nu_a, mu_b, nu_b) -> np.ndarray:
    """Per-element Xiao distance: sqrt(0.5 * (L(mu)+L(nu)+L(pi)))."""
    mu_a, nu_a, mu_b, nu_b = (np.asarray(x, dtype=float) for x in (mu_a, nu_a, mu_b, nu_b))
    radicand = (
        l_divergence_batch(mu_a, mu_b)
        + l_divergence_batch(nu_a, nu_b)
        + l_divergence_batch(_pi_batch(mu_a, nu_a), _pi_batch(mu_b, nu_b))
    )
    return np.sqrt(_clamp_nonneg(radicand, "xiao radicand") / 2.0)


def dist_xiao(a: IFS, b: IFS) -> float:
    """Xiao's JS distance with fixed 1/n weighting, exactly as published."""
    _require_same_universe(a, b)
    per_element = xiao_elem_batch(a.mu_array(), a.nu_array(), b.mu_array(), b.nu_array())
    return float(np.mean(per_element))


def sim_xiao(a: IFS, b: IFS) -> float:
    """Dual similarity 1 - dist_xiao."""
    return 1.0 - dist_xiao(a, b)


def yc_elem_batch(mu_a, nu_a, mu_b, nu_b) -> np.ndarray:
    """Per-element spherical distance (2/pi) * arccos(Bhattacharyya sum).

    Equal values map to 0 exactly: arccos is infinitely steep at 1, so one
    ulp of rounding in the argument would otherwise turn d(a, a) into ~1e-8.
    """
    mu_a, nu_a, mu_b, nu_b = (np.asarray(x, dtype=float) for x in (mu_a, nu_a, mu_b, nu_b))
    arg = (
        np.sqrt(mu_a * mu_b)
        + np.sqrt(nu_a * nu_b)
        + np.sqrt(_pi_batch(mu_a, nu_a) * _pi_batch(mu_b, nu_b))
    )
    # arg <= 1 by Cauchy-Schwarz; allow rounding up to ARCCOS_CLAMP, no more
    high = np.max(arg) if arg.size else 0.0
    if high > 1.0 + ARCCOS_CLAMP:
        raise NumericalConsistencyError(f"arccos argument {high!r} above 1 beyond rounding")
    out = (2.0 / math.pi) * np.arccos(np.clip(arg, -1.0, 1.0))
    return np.where((mu_a == mu_b) & (nu_a == nu_b), 0.0, out)


def dist_yc(a: IFS, b: IFS) -> float:
    """Yang-Chiclana spherical distance, averaged over the universe."""
    _require_same_universe(a, b)
    per_element = yc_elem_batch(a.mu_array(), a.nu_array(), b.mu_array(), b.nu_array())
    return float(np.mean(per_element))


def _power_branch(x: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    return ((x + y) / 2.0) ** gamma - (x ** gamma + y ** gamma) / 2.0


def _xlnx(x: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """x * ln(x/scale) with 0*ln 0 = 0 (elementwise).

    For the smallest subnormals x/scale underflows to 0 when scale > 1; the
    quotient is then raised to the smallest subnormal, so the term stays
    finite and within 1e-323 of its exact value.  No other quotient changes.
    """
    pos = x > 0.0
    x_safe = np.where(pos, x, 1.0)
    q = x_safe / scale
    if scale > 1.0:  # x/scale cannot underflow otherwise
        q = np.maximum(q, _SMALLEST_SUBNORMAL)
    return np.where(pos, x_safe * np.log(q), 0.0)


def _ln_branch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x+y)*ln((x+y)/2) - x*ln x - y*ln y with 0*ln 0 = 0 (elementwise).

    Grouped as s - (x-term + y-term) so swapping x and y is bitwise neutral.
    """
    return _xlnx(x + y, scale=2.0) - (_xlnx(x) + _xlnx(y))


def j_gamma_batch(mu_a, nu_a, mu_b, nu_b, gamma: float) -> np.ndarray:
    if not (gamma > 0.0):
        raise InvalidGammaError(f"gamma must be > 0, got {gamma!r}")
    mu_a, nu_a, mu_b, nu_b = (np.asarray(x, dtype=float) for x in (mu_a, nu_a, mu_b, nu_b))
    pairs = (
        (mu_a, mu_b),
        (nu_a, nu_b),
        (_pi_batch(mu_a, nu_a), _pi_batch(mu_b, nu_b)),
    )
    if abs(gamma - 1.0) < GAMMA_BRANCH_TOL:
        total = sum(_ln_branch(x, y) for x, y in pairs)
        return _clamp_nonneg(-total / 2.0, "J_1")
    total = sum(_power_branch(x, y, gamma) for x, y in pairs)
    return _clamp_nonneg(-total / (gamma - 1.0), "J_gamma")


def j_gamma(a: IFV, b: IFV, gamma: float) -> float:
    """Hung-Yang divergence between two IFVs over (mu, nu, pi)."""
    return float(j_gamma_batch(a.mu, a.nu, b.mu, b.nu, gamma))
