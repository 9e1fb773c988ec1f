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
from functools import lru_cache

import numpy as np

from .core import IFS, IFV, IfsimError
from .measures import (
    _SMALLEST_SUBNORMAL,
    KernelSplit,
    NumericalConsistencyError,
    _clamp_nonneg,
    _l_stacked,
    _xlog,
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


def _xiao_finish(radicand: np.ndarray, *_) -> np.ndarray:
    return np.sqrt(_clamp_nonneg(radicand, "xiao radicand") / 2.0)


XIAO_SPLIT = KernelSplit(_triple, _l_stacked, _xiao_finish)


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


def _yc_finish(arg: np.ndarray, mu_a, nu_a, mu_b, nu_b) -> np.ndarray:
    """(2/pi) * arccos(arg), masked to an exact +0.0 on equal values."""
    # arg <= 1 by Cauchy-Schwarz; allow rounding up to ARCCOS_CLAMP, no more
    high = arg.max() if arg.size else 0.0
    if high > 1.0 + ARCCOS_CLAMP:
        raise NumericalConsistencyError(f"arccos argument {high!r} above 1 beyond rounding")
    # arg >= 0 as a sum of square roots, so only its upper end needs the clip;
    # the product with the mask is an exact +0.0 on equal values, a no-op elsewhere
    out = (2.0 / math.pi) * np.arccos(np.minimum(arg, 1.0))
    return out * ((mu_a != mu_b) | (nu_a != nu_b))


YC_SPLIT = KernelSplit(_triple, _bhattacharyya, _yc_finish, stacked=False)


def yc_elem_batch(mu_a, nu_a, mu_b, nu_b) -> np.ndarray:
    """Per-element spherical distance (2/pi) * arccos(Bhattacharyya sum).

    Equal values map to 0 exactly: arccos is infinitely steep at 1, so one
    ulp of rounding in the argument would otherwise turn d(a, a) into ~1e-8.
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


def _j_finish(total: np.ndarray, scale: float, what: str) -> np.ndarray:
    # 0.0 + total turns a -0.0 channel sum into +0.0 and keeps every other
    # bit; tests/golden_kernel_digest.json pins the resulting signs of zero
    return _clamp_nonneg(-(0.0 + total) / scale, what)


@lru_cache(maxsize=64, typed=True)
def j_gamma_split(gamma: float) -> KernelSplit:
    """The (mu, nu, pi) split of J_gamma: the natural-log branch and
    -total/2 within GAMMA_BRANCH_TOL of gamma == 1, the power branch and
    -total/(gamma-1) elsewhere.  Cached: each kernel call looks it up."""
    if not (0.0 < gamma < math.inf):
        raise InvalidGammaError(f"gamma must be finite and > 0, got {gamma!r}")
    if abs(gamma - 1.0) < GAMMA_BRANCH_TOL:
        return KernelSplit(_triple, _ln_branch, lambda t, *_: _j_finish(t, 2.0, "J_1"))
    return KernelSplit(_triple, lambda x, y: _power_branch(x, y, gamma),
                       lambda t, *_: _j_finish(t, gamma - 1.0, "J_gamma"))


def j_gamma_batch(mu_a, nu_a, mu_b, nu_b, gamma: float) -> np.ndarray:
    return j_gamma_split(gamma)(mu_a, nu_a, mu_b, nu_b)


def j_gamma(a: IFV, b: IFV, gamma: float) -> float:
    """Hung-Yang divergence between two IFVs over (mu, nu, pi)."""
    return float(j_gamma_batch(a.mu, a.nu, b.mu, b.nu, gamma))
