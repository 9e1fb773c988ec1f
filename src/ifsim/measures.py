"""Jensen-Shannon based strict distance / similarity / entropy measures.

The building block is the two-point function

    L(p, q) = p*log2(2p/(p+q)) + q*log2(2q/(p+q)),   0*log2 0 = 0,

whose square root satisfies the triangle inequality.  An IFV <mu, nu> is read
as the interval [nu, 1-mu]; the divergence between two IFVs aggregates L over
the (1-mu) and nu components:

    z_score(a, b) = L(1-mu_a, 1-mu_b) + L(nu_a, nu_b)
    js_if(a, b)   = (ln 2 / 2) * z_score(a, b)        (natural-log JS form)
    js_norm(a, b) = sqrt(z_score(a, b) / 2)           (in [0, 1])

js_norm is a strict distance on IFVs: zero iff equal, one exactly on the
pair {<0,1>, <1,0>}, strictly monotone along Atanassov chains, and a metric.
dist_wu extends it to IFSs as a weighted elementwise sum; entropy is induced
by the distance from a value to its complement.

All functions are pure.  Every measure is one elementwise *_batch kernel on
equal-shaped float arrays of mu / nu components.  Its IFV function evaluates
the kernel on one pair, and its IFS value is aggregate() of the kernel: a
weighted sum over the universe, or the plain 1/n mean.  Audits run the same
kernels, so they exercise exactly what the set API computes.

Numeric conventions: each term p*log2(2p/s) is evaluated only where p > 0
and defined as 0 where p == 0 (avoiding 0 * -inf); the ratio 2p/s is formed
before the log so that p == q gives an exact 0 and d(a, a) == 0 bitwise.
Theoretical non-negativity of L is enforced by clamping rounding residues in
[-1e-15, 0) to 0, while anything more negative raises
NumericalConsistencyError because it indicates a bug, not rounding.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import (
    IFS,
    IFV,
    IfsimError,
    OutOfRangeError,
    WeightVector,
    check_weights,
    complement,
    _require_same_universe,
)

LN2 = math.log(2.0)
L_CLAMP = 1e-15


class NegativeInputError(IfsimError, ValueError):
    """An argument that must be non-negative is negative."""


class InvalidLambdaError(IfsimError, ValueError):
    """The exponent of the parametric family must be > 0."""


class NumericalConsistencyError(IfsimError, ArithmeticError):
    """A value violated a theoretical bound by more than rounding noise."""


# ---------------------------------------------------------------------------
# array kernels
# ---------------------------------------------------------------------------

def _xlog2_term(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """p * log2(2p/s) with the 0*log2(0) = 0 convention (elementwise).

    The ratio form (not the expansion 1 + log2 p - log2 s) makes the term an
    exact 0 whenever s == 2p, so d(a, a) == 0 holds bitwise.
    """
    pos = p > 0.0
    p_safe = np.where(pos, p, 1.0)
    s_safe = np.where(pos, s, 1.0)
    return np.where(pos, p_safe * np.log2(2.0 * p_safe / s_safe), 0.0)


def _clamp_nonneg(x: np.ndarray, what: str) -> np.ndarray:
    low = np.min(x) if x.size else 0.0
    if low < -L_CLAMP:
        raise NumericalConsistencyError(f"{what} = {low!r} below 0 beyond rounding")
    return np.maximum(x, 0.0)


def l_divergence_batch(p, q) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    s = p + q
    return _clamp_nonneg(_xlog2_term(p, s) + _xlog2_term(q, s), "L(p, q)")


def z_score_batch(mu_a, nu_a, mu_b, nu_b) -> np.ndarray:
    """L(1-mu_a, 1-mu_b) + L(nu_a, nu_b) on component arrays."""
    mu_a, nu_a, mu_b, nu_b = (np.asarray(x, dtype=float) for x in (mu_a, nu_a, mu_b, nu_b))
    return l_divergence_batch(1.0 - mu_a, 1.0 - mu_b) + l_divergence_batch(nu_a, nu_b)


def js_norm_batch(mu_a, nu_a, mu_b, nu_b) -> np.ndarray:
    return np.sqrt(z_score_batch(mu_a, nu_a, mu_b, nu_b) / 2.0)


def js_norm_lambda_batch(mu_a, nu_a, mu_b, nu_b, lam: float) -> np.ndarray:
    """Parametric variant: every mu and nu enters as mu**lam / nu**lam."""
    _check_lambda(lam)
    mu_a, nu_a, mu_b, nu_b = (np.asarray(x, dtype=float) for x in (mu_a, nu_a, mu_b, nu_b))
    return js_norm_batch(mu_a ** lam, nu_a ** lam, mu_b ** lam, nu_b ** lam)


def _xln_term(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """p * ln(2p/s) with the 0*ln(0) = 0 convention (elementwise)."""
    pos = p > 0.0
    p_safe = np.where(pos, p, 1.0)
    s_safe = np.where(pos, s, 1.0)
    return np.where(pos, p_safe * np.log(2.0 * p_safe / s_safe), 0.0)


def js_if_batch(mu_a, nu_a, mu_b, nu_b) -> np.ndarray:
    """Natural-log Jensen-Shannon divergence over the interval components.

    Deliberately computed from its own natural-log expansion rather than as
    (ln2/2) * z_score_batch, so the two stay independent cross-check paths.
    """
    mu_a, nu_a, mu_b, nu_b = (np.asarray(x, dtype=float) for x in (mu_a, nu_a, mu_b, nu_b))
    p1, q1 = 1.0 - mu_a, 1.0 - mu_b
    s1 = p1 + q1
    s2 = nu_a + nu_b
    total = (
        _xln_term(p1, s1) + _xln_term(q1, s1) + _xln_term(nu_a, s2) + _xln_term(nu_b, s2)
    )
    return _clamp_nonneg(0.5 * total, "js_if")


# ---------------------------------------------------------------------------
# scalar operations on IFVs
# ---------------------------------------------------------------------------

def l_divergence(p: float, q: float) -> float:
    """Two-point JS building block; requires p >= 0 and q >= 0."""
    if p < 0.0 or q < 0.0:
        raise NegativeInputError(f"L requires non-negative arguments, got ({p!r}, {q!r})")
    return float(l_divergence_batch(p, q))


def zeta(x: float) -> float:
    """x*log2(2x) + (1-x)*log2(2(1-x)) on [0, 1]; zeta(0) = zeta(1) = 1,
    zeta(0.5) = 0, strictly decreasing then increasing around 0.5."""
    if not (0.0 <= x <= 1.0):
        raise OutOfRangeError(f"zeta argument {x!r} outside [0, 1]")
    out = 0.0
    if x > 0.0:
        out += x * (1.0 + math.log2(x))
    if x < 1.0:
        out += (1.0 - x) * (1.0 + math.log2(1.0 - x))
    return out


def z_score(a: IFV, b: IFV) -> float:
    """L(1-mu_a, 1-mu_b) + L(nu_a, nu_b); symmetric by construction."""
    return float(z_score_batch(a.mu, a.nu, b.mu, b.nu))


def js_if(a: IFV, b: IFV) -> float:
    """Natural-log JS divergence between two IFVs; equals (ln2/2)*z_score
    up to rounding (the two are computed along independent paths)."""
    return float(js_if_batch(a.mu, a.nu, b.mu, b.nu))


def js_norm(a: IFV, b: IFV) -> float:
    """Normalized JS divergence sqrt(z_score/2) = sqrt(js_if/ln2); the
    strict distance on IFVs, with values in [0, 1]."""
    return float(js_norm_batch(a.mu, a.nu, b.mu, b.nu))


def shannon_interval_entropy(a: IFV) -> float:
    """Shannon entropy of the interval reading [nu, 1-mu] of an IFV:
    -(nu ln nu + (1-mu) ln(1-mu)) with 0 ln 0 = 0."""
    out = 0.0
    if a.nu > 0.0:
        out -= a.nu * math.log(a.nu)
    if a.mu < 1.0:
        out -= (1.0 - a.mu) * math.log(1.0 - a.mu)
    return out


# ---------------------------------------------------------------------------
# weighted measures on IFSs
# ---------------------------------------------------------------------------

def aggregate(kernel: Callable[..., np.ndarray], a: IFS, b: IFS, w: WeightVector | None = None) -> float:
    """Set-level value of an elementwise kernel: sum_j w_j * kernel(a_j, b_j),
    or the plain 1/n mean when w is None.  Raises UniverseMismatchError unless
    a and b share a universe, and WeightLengthMismatchError for a w of the
    wrong length."""
    _require_same_universe(a, b)
    per_element = kernel(a.mu_array(), a.nu_array(), b.mu_array(), b.nu_array())
    if w is None:
        return float(np.mean(per_element))
    check_weights(w, len(a))
    return float(np.dot(np.asarray(w.weights), per_element))


def dist_wu(a: IFS, b: IFS, w: WeightVector) -> float:
    """Weighted elementwise js_norm; the strict distance on IFSs, in [0, 1]."""
    return aggregate(js_norm_batch, a, b, w)


def sim_wu(a: IFS, b: IFS, w: WeightVector) -> float:
    """Dual similarity 1 - dist_wu."""
    return 1.0 - dist_wu(a, b, w)


def _check_lambda(lam: float) -> None:
    if not (lam > 0.0):
        raise InvalidLambdaError(f"lambda must be > 0, got {lam!r}")


def dist_wu_lambda(a: IFS, b: IFS, w: WeightVector, lam: float) -> float:
    """Parametric family: dist_wu with mu -> mu**lam and nu -> nu**lam.

    At lam == 1 the exponentiation is exact, so this reduces bit-for-bit to
    dist_wu.  0**lam = 0 for lam > 0.
    """
    _check_lambda(lam)
    return aggregate(lambda *c: js_norm_lambda_batch(*c, lam), a, b, w)


def sim_wu_lambda(a: IFS, b: IFS, w: WeightVector, lam: float) -> float:
    """Dual parametric similarity 1 - dist_wu_lambda."""
    return 1.0 - dist_wu_lambda(a, b, w, lam)


# ---------------------------------------------------------------------------
# induced entropy
# ---------------------------------------------------------------------------

def entropy_ifv(a: IFV) -> float:
    """Entropy of an IFV: 1 - js_norm(a, complement(a)).

    0 exactly at <1,0> and <0,1>, 1 exactly when mu == nu, symmetric under
    complement, and monotone toward the mu == nu diagonal.
    """
    return 1.0 - js_norm(a, complement(a))


def entropy_ifs(a: IFS, w: WeightVector) -> float:
    """Weighted entropy of an IFS: 1 - dist_wu(a, elementwise complement).

    The pointwise form uses the caller's weights; pass uniform_weights(n)
    for the unweighted average.
    """
    return 1.0 - dist_wu(a, a.complement(), w)
