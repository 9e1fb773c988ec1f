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

from .core import IFS, IFV, IfsimError
from .measures import (
    _SMALLEST_SUBNORMAL,
    NumericalConsistencyError,
    _channels,
    _clamp_nonneg,
    _l_stacked,
    _xlog,
    aggregate,
)

ARCCOS_CLAMP = 1e-12
GAMMA_BRANCH_TOL = 1e-12


class InvalidGammaError(IfsimError, ValueError):
    """The divergence order gamma must be > 0."""


def _pi_batch(mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    # 1 - (mu + nu), not 1 - mu - nu: the grouped sum commutes, so mirrored
    # value pairs get bitwise-identical indeterminacy degrees
    return np.maximum(0.0, 1.0 - (mu + nu))


def _triples(mu_a, nu_a, mu_b, nu_b) -> tuple[np.ndarray, np.ndarray]:
    """The (mu, nu, pi) channels of each side, stacked (measures._channels)."""
    mu_a, nu_a, mu_b, nu_b = (np.asarray(x, dtype=float) for x in (mu_a, nu_a, mu_b, nu_b))
    return _channels((mu_a, nu_a, _pi_batch(mu_a, nu_a)), (mu_b, nu_b, _pi_batch(mu_b, nu_b)))


def xiao_elem_batch(mu_a, nu_a, mu_b, nu_b) -> np.ndarray:
    """Per-element Xiao distance: sqrt(0.5 * (L(mu)+L(nu)+L(pi)))."""
    ell = _l_stacked(*_triples(mu_a, nu_a, mu_b, nu_b))
    radicand = ell[0] + ell[1] + ell[2]
    return np.sqrt(_clamp_nonneg(radicand, "xiao radicand") / 2.0)


def dist_xiao(a: IFS, b: IFS) -> float:
    """Xiao's JS distance with fixed 1/n weighting, exactly as published."""
    return aggregate(xiao_elem_batch, a, b)


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
    high = arg.max() if arg.size else 0.0
    if high > 1.0 + ARCCOS_CLAMP:
        raise NumericalConsistencyError(f"arccos argument {high!r} above 1 beyond rounding")
    # arg >= 0 as a sum of square roots, so only its upper end needs the clip;
    # the product with the mask is an exact +0.0 on equal values, a no-op elsewhere
    out = (2.0 / math.pi) * np.arccos(np.minimum(arg, 1.0))
    return out * ((mu_a != mu_b) | (nu_a != nu_b))


def dist_yc(a: IFS, b: IFS) -> float:
    """Yang-Chiclana spherical distance, averaged over the universe."""
    return aggregate(yc_elem_batch, a, b)


def _power_branch(x: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    """((x+y)/2)**gamma - (x**gamma + y**gamma)/2 (elementwise), each
    full-size step in place; **= takes the same scalar-power path as **."""
    mid = x + y
    mid /= 2.0
    mid **= gamma
    ends = x ** gamma + y ** gamma
    ends /= 2.0
    mid -= ends
    return mid


def _xlnx(x: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """x * ln(x/scale) with 0*ln 0 = 0 (elementwise), through measures._xlog:
    no np.where, the log's argument is raised to 1 where x == 0.

    For the smallest subnormals x/scale underflows to 0 when scale > 1; the
    quotient is then raised to the smallest subnormal, so the term stays
    finite and within 1e-323 of its exact value.  No other quotient changes.
    """
    q = x / scale
    if scale > 1.0:  # x/scale cannot underflow otherwise
        np.maximum(q, _SMALLEST_SUBNORMAL, out=q)
    return _xlog(x, q)


def _ln_branch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x+y)*ln((x+y)/2) - x*ln x - y*ln y with 0*ln 0 = 0 (elementwise).

    Grouped as s - (x-term + y-term) so swapping x and y is bitwise neutral.
    Exactly 0 where x == y: for subnormal x, 2x*ln(x) and 2*(x*ln x) round
    to different multiples of the smallest subnormal, which would leave
    J(a, a) = 5e-324 at a = <5e-324, 5e-324>.
    """
    return (_xlnx(x + y, scale=2.0) - (_xlnx(x) + _xlnx(y))) * (x != y)


def j_gamma_batch(mu_a, nu_a, mu_b, nu_b, gamma: float) -> np.ndarray:
    if not (gamma > 0.0):
        raise InvalidGammaError(f"gamma must be > 0, got {gamma!r}")
    x, y = _triples(mu_a, nu_a, mu_b, nu_b)
    natural_log = abs(gamma - 1.0) < GAMMA_BRANCH_TOL
    branch = _ln_branch(x, y) if natural_log else _power_branch(x, y, gamma)
    total = 0 + branch[0] + branch[1] + branch[2]  # left to right from 0, as sum() adds
    if natural_log:
        return _clamp_nonneg(-total / 2.0, "J_1")
    return _clamp_nonneg(-total / (gamma - 1.0), "J_gamma")


def j_gamma(a: IFV, b: IFV, gamma: float) -> float:
    """Hung-Yang divergence between two IFVs over (mu, nu, pi)."""
    return float(j_gamma_batch(a.mu, a.nu, b.mu, b.nu, gamma))
