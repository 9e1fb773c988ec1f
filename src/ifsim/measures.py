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
the kernel on one pair, and its IFS value is aggregate() of the kernel over
the sets' stored degree rows: a weighted sum over the universe, or the plain
1/n mean.  Audits run the same
kernels, so they exercise exactly what the set API computes.

Numeric conventions: each term p*log2(2p/s) follows 0*log2(0) = 0 without
np.where (_xlog): the log's argument is 2p/s + (p == 0), which is 1 where
p == 0, so the term is 0 * 0 = 0 there with no warning, and where p > 0 adding
False leaves the quotient exact.  s is floored at the smallest subnormal, so
p == q == 0 gives 0/s, never 0/0.  The ratio 2p/s is formed before the log so
that p == q gives an exact 0 and d(a, a) == 0 bitwise.  A kernel stacks its
channels ((1-mu, nu) here, (mu, nu, pi) for the rivals) along a leading axis
and runs each operation once on the stack; the channel sums keep their
order, so each bit is the one that a call per channel gives.
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

_SMALLEST_SUBNORMAL = float(np.nextafter(0.0, 1.0))


def _xlog(x: np.ndarray, q: np.ndarray, log=np.log) -> np.ndarray:
    """x * log(q) with the 0*log(0) = 0 convention (elementwise), in q.

    q is the caller's quotient: a new array of the result's shape, 0 or at
    most the smallest subnormal where x == 0.  There the argument is raised
    to q + 1 == 1, so the term is x * 0 == 0 with no warning and no
    np.where; where x > 0, adding False leaves q exact.  Every step
    overwrites q, so the term costs no temporary of its own.
    """
    q += x == 0.0
    log(q, out=q)
    q *= x
    return q


def _clamp_nonneg(x: np.ndarray, what: str) -> np.ndarray:
    """x with rounding residues in [-L_CLAMP, 0) raised to 0; an array x,
    which must be the caller's own, is clamped in place."""
    low = x.min() if x.size else 0.0
    if low < -L_CLAMP:
        raise NumericalConsistencyError(f"{what} = {low!r} below 0 beyond rounding")
    return np.maximum(x, 0.0, out=x if isinstance(x, np.ndarray) else None)


def _channels(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The channel arrays of each side stacked along a new leading axis.

    Each stack is built from its own side's arrays, unbroadcast against the
    other side; the stack of lower ndim gets unit axes after its channel
    axis, so the two stacks broadcast against each other as the channels do
    and only the full-size operations broadcast.
    """
    a, b = _stack(a), _stack(b)
    ndim = max(a.ndim, b.ndim)
    return _pad(a, ndim), _pad(b, ndim)


def _stack(channels: tuple) -> np.ndarray:
    if len({c.shape for c in channels}) > 1:
        channels = np.broadcast_arrays(*channels)
    return np.array(channels)


def _pad(x: np.ndarray, ndim: int) -> np.ndarray:
    if x.ndim == ndim:
        return x
    return x.reshape(x.shape[:1] + (1,) * (ndim - x.ndim) + x.shape[1:])


def _ratio_terms(p: np.ndarray, q: np.ndarray, log) -> tuple[np.ndarray, np.ndarray]:
    """p*log(2p/s) and q*log(2q/s), s = p + q, on channel stacks (_channels).

    The ratio form makes p == q an exact 0.  s is floored at the smallest
    subnormal, so that p == q == 0 gives 0/s, never 0/0.
    """
    s = p + q
    np.maximum(s, _SMALLEST_SUBNORMAL, out=s)
    return _xlog(p, 2.0 * p / s, log), _xlog(q, 2.0 * q / s, log)


def _l_stacked(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """L(p, q) on channel stacks (_channels)."""
    total, q_term = _ratio_terms(p, q, np.log2)
    total += q_term
    return _clamp_nonneg(total, "L(p, q)")


def l_divergence_batch(p, q) -> np.ndarray:
    """L(p, q) elementwise; p == q gives an exact 0."""
    p, q = _channels((np.asarray(p, dtype=float),), (np.asarray(q, dtype=float),))
    return _l_stacked(p, q)[0]


def z_score_batch(mu_a, nu_a, mu_b, nu_b) -> np.ndarray:
    """L(1-mu_a, 1-mu_b) + L(nu_a, nu_b) on component arrays."""
    mu_a, nu_a, mu_b, nu_b = (np.asarray(x, dtype=float) for x in (mu_a, nu_a, mu_b, nu_b))
    ell = _l_stacked(*_channels((1.0 - mu_a, nu_a), (1.0 - mu_b, nu_b)))
    return ell[0] + ell[1]


def js_norm_batch(mu_a, nu_a, mu_b, nu_b) -> np.ndarray:
    return np.sqrt(z_score_batch(mu_a, nu_a, mu_b, nu_b) / 2.0)


def js_norm_lambda_batch(mu_a, nu_a, mu_b, nu_b, lam: float) -> np.ndarray:
    """Parametric variant: every mu and nu enters as mu**lam / nu**lam.

    Known limit: the powers are taken before the kernel, so a degree whose
    power underflows becomes 0.0 and can give a false zero.  At lam = 2,
    <0.3, 1e-200> vs <0.3, 0> gives 0.0, though the exact value is
    sqrt(1e-400 / 2) ~ 7.07e-201.
    """
    _check_lambda(lam)
    mu_a, nu_a, mu_b, nu_b = (np.asarray(x, dtype=float) for x in (mu_a, nu_a, mu_b, nu_b))
    return js_norm_batch(mu_a ** lam, nu_a ** lam, mu_b ** lam, nu_b ** lam)


def js_if_batch(mu_a, nu_a, mu_b, nu_b) -> np.ndarray:
    """Natural-log Jensen-Shannon divergence over the interval components.

    Deliberately computed from its own natural-log expansion rather than as
    (ln2/2) * z_score_batch, so the two stay independent cross-check paths.
    """
    mu_a, nu_a, mu_b, nu_b = (np.asarray(x, dtype=float) for x in (mu_a, nu_a, mu_b, nu_b))
    p, q = _channels((1.0 - mu_a, nu_a), (1.0 - mu_b, nu_b))
    p_term, q_term = _ratio_terms(p, q, np.log)
    total = p_term[0] + q_term[0] + p_term[1] + q_term[1]
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
    or the plain 1/n mean when w is None.  The kernel gets the sets' stored
    mu and nu rows, taken by index as views without a copy.  The mean is
    np.add.reduce over n: the same reduction and divide as ndarray.mean, so
    the same bits, without its Python-level wrapper.  Raises
    UniverseMismatchError unless a and b share a universe, and
    WeightLengthMismatchError for a w of the wrong length."""
    _require_same_universe(a, b)
    da, db = a.degrees, b.degrees
    per_element = kernel(da[0], da[1], db[0], db[1])
    if w is None:
        return float(np.add.reduce(per_element) / per_element.size)
    check_weights(w, len(a))
    return float(np.dot(w.array, per_element))


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
    dist_wu.  0**lam = 0 for lam > 0.  A degree whose power underflows
    (1e-200**2 == 0.0) counts as 0, so sets that differ only in such
    degrees get a false zero; see js_norm_lambda_batch.
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
