"""Rival distance measures analyzed alongside the strict JS distance.

Three published measures with known axiomatic defects:

* dist_xiao  — per-element sqrt of a six-term log2 JS sum over the
  (mu, nu, pi) triple, averaged with fixed 1/n weights.  Its dual similarity
  violates strict chain monotonicity and attains distance 1 on infinitely
  many non-endpoint pairs.
* dist_yc    — spherical distance (2/(n*pi)) * sum arccos(sqrt(mu1*mu2) +
  sqrt(nu1*nu2) + sqrt(pi1*pi2)); same two defects.
* j_gamma    — power-mean divergence for gamma != 1 and the natural-log JS
  divergence over (mu, nu, pi) at gamma == 1, which per element is ln 2 / 2
  times Xiao's channel sum, so J_1 = ln2 * d**2 for the per-element Xiao
  distance d (the commonly quoted sqrt(J_1) = ln2 * d does not hold).

These are kept faithful to their published forms: dist_xiao takes no weight
vector, j_gamma is exposed per IFV with averaging left to callers, and
j_gamma values are reported raw (in [0, ln 2] at gamma == 1), never rescaled
to [0, 1].
"""

from __future__ import annotations

import math

import numpy as np

from .core import IFS, IFV, IfsimError, _positive_float
from .measures import (
    KernelSplit,
    NumericalConsistencyError,
    _clamp_nonneg,
    _l_stacked,
    _sqrt_half,
    aggregate,
)

ARCCOS_CLAMP = 1e-12
GAMMA_BRANCH_TOL = 1e-12


class InvalidGammaError(IfsimError, ValueError):
    """The divergence order gamma must be finite and > 0."""


def _triple(mu: np.ndarray, nu: np.ndarray) -> tuple:
    """The (mu, nu, pi) channels of one side."""
    # 1 - (mu + nu), not 1 - mu - nu: the grouped sum commutes, so mirrored
    # value pairs get bitwise-identical indeterminacy degrees
    return mu, nu, np.maximum(0.0, 1.0 - (mu + nu))


XIAO_SPLIT = KernelSplit(_triple, _l_stacked, _sqrt_half)


def xiao_elem_batch(mu_a, nu_a, mu_b, nu_b) -> np.ndarray:
    """Per-element Xiao distance: sqrt(0.5 * (L(mu)+L(nu)+L(pi)))."""
    return XIAO_SPLIT(mu_a, nu_a, mu_b, nu_b)


def dist_xiao(a: IFS, b: IFS) -> float:
    """Xiao's JS distance with fixed 1/n weighting, exactly as published."""
    return aggregate(xiao_elem_batch, a, b)


def sim_xiao(a: IFS, b: IFS) -> float:
    """Dual similarity 1 - dist_xiao."""
    return 1.0 - dist_xiao(a, b)


def _bhattacharyya(x_a: np.ndarray, x_b: np.ndarray) -> np.ndarray:
    return np.sqrt(x_a * x_b)


def _yc_finish(arg: np.ndarray) -> np.ndarray:
    """(2/pi) * arccos(arg); an exact +0.0 on equal values, whose arg is >= 1:
    sqrt(fl(x*x)) == x unless x*x underflows, so arg = fl(s + fl(1 - s)) for
    s = fl(mu + nu), which is 1 for s <= 1 (1 - 2**-54 ties to the even 1.0);
    a square that underflows moves only a sum far below ulp(1), beside pi = 1;
    and a slack sum above 1 is clipped to 1."""
    # arg <= 1 by Cauchy-Schwarz; allow rounding up to ARCCOS_CLAMP, no more
    high = arg.max() if arg.size else 0.0
    if high > 1.0 + ARCCOS_CLAMP:
        raise NumericalConsistencyError(f"arccos argument {high!r} above 1 beyond rounding")
    # arg >= 0 as a sum of square roots, so only its upper end needs the clip
    return (2.0 / math.pi) * np.arccos(np.minimum(arg, 1.0))


YC_SPLIT = KernelSplit(_triple, _bhattacharyya, _yc_finish, stacked=False)


def yc_elem_batch(mu_a, nu_a, mu_b, nu_b) -> np.ndarray:
    """Per-element spherical distance (2/pi) * arccos(Bhattacharyya sum).

    Equal values map to 0 exactly, their argument rounding to 1 (_yc_finish):
    arccos is infinitely steep at 1, so one ulp below gives d(a, a) ~ 1e-8.
    """
    return YC_SPLIT(mu_a, nu_a, mu_b, nu_b)


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


def _j_finish(total: np.ndarray, scale: float) -> np.ndarray:
    # 0.0 + total turns a -0.0 channel sum into +0.0 and keeps every other
    # bit; tests/golden_kernel_digest.json pins the resulting signs of zero
    return _clamp_nonneg(-(0.0 + total) / scale, "J_gamma")


def j_gamma_split(gamma: float) -> KernelSplit:
    """The (mu, nu, pi) split of J_gamma: within GAMMA_BRANCH_TOL of gamma == 1,
    XIAO_SPLIT finished by total * (ln 2 / 2), J_1 being ln 2 / 2 times Xiao's
    channel sum; elsewhere the power branch and -total/(gamma-1)."""
    gamma = _positive_float(gamma, InvalidGammaError, "gamma")
    if abs(gamma - 1.0) < GAMMA_BRANCH_TOL:
        return XIAO_SPLIT._replace(finish=lambda t: t * (math.log(2.0) / 2.0))
    return KernelSplit(_triple, lambda x, y: _power_branch(x, y, gamma),
                       lambda t: _j_finish(t, gamma - 1.0))


def j_gamma_batch(mu_a, nu_a, mu_b, nu_b, gamma: float) -> np.ndarray:
    return j_gamma_split(gamma)(mu_a, nu_a, mu_b, nu_b)


def j_gamma(a: IFV, b: IFV, gamma: float) -> float:
    """Hung-Yang divergence between two IFVs over (mu, nu, pi)."""
    return float(j_gamma_batch(a.mu, a.nu, b.mu, b.nu, gamma))
