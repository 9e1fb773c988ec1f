"""Jensen-Shannon based strict distance / similarity / entropy measures.

The building block is the two-point function

    L(p, q) = p*log2(2p/(p+q)) + q*log2(2q/(p+q)),   0*log2 0 = 0,

whose square root satisfies the triangle inequality.  An IFV <mu, nu> is read
as the interval [nu, 1-mu]; the divergence between two IFVs aggregates L over
the (1-mu) and nu components:

    z_score(a, b) = L(1-mu_a, 1-mu_b) + L(nu_a, nu_b)
    js_norm(a, b) = sqrt(z_score(a, b) / 2)           (in [0, 1])

js_norm is a strict distance on IFVs: zero iff equal, one exactly on the
pair {<0,1>, <1,0>}, strictly monotone along Atanassov chains, and a metric.
dist_wu extends it to IFSs as a weighted elementwise sum; entropy is induced
by the distance from a value to its complement.  The scalar building
blocks l_divergence, zeta (= L(x, 1-x)) and z_score run the same kernel as
js_norm, so each formula has one implementation.

All functions are pure.  Every measure is one KernelSplit, whose call is
the elementwise kernel on broadcastable float arrays of mu / nu components:
channels(mu, nu) gives each side's channel arrays ((mu, nu) here, (mu, nu,
pi) for the rivals), each channel's two-point term is applied to it (here
L(1-x, 1-y) on mu, L(x, y) on nu), the channel terms are added in channel
order (channel_sum), and a finish maps that sum alone to the value
(sqrt(z/2) here).  The finish gets an array, 0-d in a scalar call.  The
kernel runs a term shared by every channel once on both sides' channels,
stacked in one array at their broadcast shape (_channels), and a tuple of
terms one channel at a time, on each channel as it is; the audit's grid
sweep applies each channel's term to a table per channel, calls the same
channel_sum on the gathered entries and applies the same finish to the
sums (only to those its checks read, when the finish is declared
non-decreasing, as sqrt(z/2) is), so each term, sum and finish is
written once.
Its IFV function evaluates the kernel on one pair, and its IFS value is
aggregate() of the kernel over the sets' stored degree rows: a weighted
sum over the universe, or the plain 1/n mean.  One block rule (_blocked)
runs the kernel on sets, (2, P, n) pattern libraries and audit samples
alike: leading-axis row blocks of at most _BLOCK_CELLS cells, one row at
the least, so a set is one call on its whole rows.  The audit cuts its
largest samples at the same rows itself, to grade each block as it comes.

Numeric conventions: each term p*log2(2p/s) follows 0*log2(0) = 0 without
np.where (_xlog): the log's argument is 2p/s + (p == 0), which is 1 where
p == 0, so the term is 0 * 0 = 0 there with no warning.  s is floored at the
smallest subnormal, so p == q == 0 gives 0/s, never 0/0.  The ratio 2p/s is
formed before the log so that p == q gives an exact 0 and d(a, a) == 0
bitwise.  Theoretical non-negativity of L is enforced by clamping rounding
residues in [-1e-15, 0) to 0, while anything more negative raises
NumericalConsistencyError because it indicates a bug, not rounding.  Each
guard runs only on a block that can trip it: a zero mask on a side holding a
zero, the floor when both sides hold one, and the clamp unless the block's
minimum is > 0.  Skipped, each would have been a no-op on the term's
non-negative arguments, so a value's bits do not depend on the rest of its
block: each bit of the stacked call is the one that a call per channel or per
element, or a table of the channel's values, gives.
"""

from __future__ import annotations

import math
from collections import namedtuple
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
    _floats,
    _positive_float,
    _require_same_universe,
    _show,
)

L_CLAMP = 1e-15
_BLOCK_CELLS = 1 << 15  # 256 KiB per float64 kernel temporary


class NegativeInputError(IfsimError, ValueError):
    """An argument that must be non-negative is negative."""


class InvalidLambdaError(IfsimError, ValueError):
    """The exponent of the parametric family must be finite and > 0."""


class NumericalConsistencyError(IfsimError, ArithmeticError):
    """A value violated a theoretical bound by more than rounding noise."""


# ---------------------------------------------------------------------------
# array kernels
# ---------------------------------------------------------------------------

_SMALLEST_SUBNORMAL = float(np.nextafter(0.0, 1.0))


def _xlog(x: np.ndarray, q: np.ndarray, has_zero: bool) -> np.ndarray:
    """x * log2(q) with the 0*log2(0) = 0 convention (elementwise), in q.

    q is the caller's quotient: a new array of the result's shape, 0 or at
    most the smallest subnormal where x == 0.  If has_zero, the argument is
    raised there to q + 1 == 1, so the term is x * 0 == 0 with no warning and
    no np.where.  Otherwise the add is skipped: where x > 0, adding False
    would leave q >= +0.0 as it is.  Every step overwrites q, so the term
    costs no temporary of its own.
    """
    if has_zero:
        q += x == 0.0
    np.log2(q, out=q)
    q *= x
    return q


def _clamp_nonneg(x: np.ndarray, what: str) -> np.ndarray:
    """x with rounding residues in [-L_CLAMP, 0) raised to 0 in place (x is
    the caller's own), or x untouched when its minimum, never nan, is > 0."""
    low = x.min() if x.size else 0.0
    if low > 0.0:
        return x
    if low < -L_CLAMP:
        raise NumericalConsistencyError(f"{what} = {low!r} below 0 beyond rounding")
    return np.maximum(x, 0.0, out=x)


def _channels(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Both sides' channels in one float64 array of shape (len(a) + len(b),)
    + the channels' broadcast shape, one channel a row (a 0-d or lower-rank
    channel broadcasts on assignment), returned as the views of a's rows and
    of b's rows: each stack has the full broadcast shape."""
    out = np.empty((len(a) + len(b),) + np.broadcast(*a, *b).shape)
    for i, c in enumerate(a + b):
        out[i] = c
    return out[:len(a)], out[len(a):]


def _l_stacked(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """L(p, q) = p*log2(2p/s) + q*log2(2q/s), s = p + q, elementwise on
    broadcastable arrays p, q >= 0: both sides' channel stacks, of one shape
    (_channels), one channel of each side, 0-d in a scalar call, or the two
    axes of a channel's table.

    The ratio form makes p == q an exact 0.  s is floored at the smallest
    subnormal when both sides hold a zero, so that p == q == 0 gives 0/s,
    never 0/0; a zero-free side makes s >= 5e-324 already.  The zero masks
    (_xlog) and the clamp also run only where they can act, so a value's bits
    do not depend on its block.  [...] turns the numpy scalar of a 0-d step
    into the 0-d array that out= needs.
    """
    p_zero, q_zero = not p.all(), not q.all()
    s = (p + q)[...]
    if p_zero and q_zero:
        np.maximum(s, _SMALLEST_SUBNORMAL, out=s)
    total = _xlog(p, (2.0 * p / s)[...], p_zero)
    total += _xlog(q, (2.0 * q / s)[...], q_zero)
    return _clamp_nonneg(total, "L(p, q)")


def channel_sum(terms, out=None) -> np.ndarray:
    """The channel terms added in channel order, ((t0 + t1) + t2) + ...;
    terms is an iterable of two or more arrays, taken one at a time, and
    the first add writes into out when one is given.  No term is written
    unless it is out."""
    terms = iter(terms)
    total = np.add(next(terms), next(terms), out=out)
    for t in terms:
        total += t
    return total


class KernelSplit(namedtuple("KernelSplit", "channels term finish")):
    """An elementwise kernel as channels, two-point terms and a finish.

    channels(mu, nu) gives one side's channel arrays; term is one two-point
    function term(x_a, x_b), shared by every channel, or a tuple of one per
    channel, each elementwise on any broadcastable arrays; finish(total)
    maps the channel_sum of the terms, its only argument, to the kernel's
    value, and may write into total, as every built-in finish does.  total
    is always an array, 0-d in a scalar call, whose value the call returns
    as a numpy scalar.  The audit's grid sweep also calls channel_sum, with
    out= a buffer that it reuses for the next block, so a finish keeps no
    reference to its input; it returns total or a fresh array of its
    shape, which the sweep copies back into that buffer.  A finish
    declared non-decreasing (_non_decreasing) is applied by the sweep
    only to the cells its checks read, after its reductions; any other
    runs on every cell first.
    Calling the split is the kernel.  A shared term runs once on both
    sides' channels, copied into one array at the channels' broadcast shape
    and passed as its two halves (_channels), which saves numpy calls for a
    term of many steps; a tuple runs each channel's term on that channel as
    it is (_terms), which saves the copy for a term of few steps and lets
    channels differ in their term.  The bits are the same either way
    (tests/test_kernel_digest.py).  A term run per channel gets the channel
    as it is, 0-d in a scalar call, so it must accept 0-d arrays and numpy
    scalars, as _l_stacked does.

    A namedtuple, not a frozen dataclass: building that class at import
    takes over 1 ms, which every CLI run would pay.
    """

    __slots__ = ()

    def __call__(self, mu_a, nu_a, mu_b, nu_b) -> np.ndarray:
        a = self.channels(np.asarray(mu_a, dtype=float), np.asarray(nu_a, dtype=float))
        b = self.channels(np.asarray(mu_b, dtype=float), np.asarray(nu_b, dtype=float))
        terms = self._terms(a, b) if type(self.term) is tuple else self.term(*_channels(a, b))
        return self.finish(np.asarray(channel_sum(terms)))[()]

    def _terms(self, a, b):
        """term(a[c], b[c]) by each channel c's own term, in channel order,
        one at a time: the kernel's per-channel path and the sweep's tables."""
        terms = self.term if type(self.term) is tuple else (self.term,) * len(a)
        return (t(x, y) for t, x, y in zip(terms, a, b))


def _non_decreasing(finish: Callable) -> Callable:
    """finish, declared non-decreasing in binary64: x <= y gives finish(x)
    <= finish(y) on every sum its split's terms give, and nan gives nan,
    elementwise with the same bits at any shape.  The audit's grid sweep
    then reduces the channel sums first and finishes only the cells its
    checks read (audit._grid_matrix_sweep).  The declaration is an
    attribute of the function, so a split given another finish by
    _replace(finish=...) is not declared."""
    finish.non_decreasing = True
    return finish


@_non_decreasing
def _sqrt_half(z: np.ndarray) -> np.ndarray:
    """sqrt(z/2), wu's and xiao's finish, in z: z sums _l_stacked terms,
    each >= +0.0.  Non-decreasing there, as IEEE divide and sqrt are
    correctly rounded, hence monotone, and so is their composition."""
    return np.sqrt(np.divide(z, 2.0, out=z), out=z)


# the degrees as channels: mu's term reads it as the upper end 1-mu of [nu, 1-mu]
WU_SPLIT = KernelSplit(lambda mu, nu: (mu, nu),
                       (lambda x, y: _l_stacked(1.0 - x, 1.0 - y), _l_stacked), _sqrt_half)


def wu_lambda_split(lam: float) -> KernelSplit:
    """WU_SPLIT with every mu and nu entering as mu**lam / nu**lam; calling
    it is the parametric kernel.  Known limit: the powers are taken before
    the kernel, so a degree whose power underflows becomes 0.0 and can give
    a false zero.  At lam = 2, <0.3, 1e-200> vs <0.3, 0> gives 0.0, though
    the exact value is sqrt(1e-400 / 2) ~ 7.07e-201.
    """
    lam = _positive_float(lam, InvalidLambdaError, "lambda")
    return WU_SPLIT._replace(channels=lambda mu, nu: (mu ** lam, nu ** lam))


# L(1-mu_a, 1-mu_b) + L(nu_a, nu_b) on component arrays: WU_SPLIT before
# its finish
z_score_batch = WU_SPLIT._replace(finish=lambda z: z)


def js_norm_batch(mu_a, nu_a, mu_b, nu_b) -> np.ndarray:  # pinned: see registry
    return WU_SPLIT(mu_a, nu_a, mu_b, nu_b)


# ---------------------------------------------------------------------------
# scalar operations on IFVs
# ---------------------------------------------------------------------------

def l_divergence(p: float, q: float) -> float:
    """Two-point JS building block L(p, q); requires p >= 0 and q >= 0
    (NegativeInputError), and finite p and q whose doubled sum 2(p + q)
    does not overflow (OutOfRangeError), so that 2p/s is finite."""
    # Python floats: 2(p + q) below overflows to inf with no warning
    p, q = _floats((p, q), OutOfRangeError, "an argument of L")
    if p < 0.0 or q < 0.0:
        raise NegativeInputError(f"L requires non-negative arguments, got ({p!r}, {q!r})")
    if not math.isfinite(2.0 * (p + q)):  # false for nan, inf and overflow
        raise OutOfRangeError(f"L requires finite p, q and 2(p + q), got ({p!r}, {q!r})")
    return float(_l_stacked(np.array(p), np.array(q)))


def zeta(x: float) -> float:
    """L(x, 1-x) = x*log2(2x) + (1-x)*log2(2(1-x)) on [0, 1]; zeta(0) =
    zeta(1) = 1, zeta(0.5) = 0, strictly decreasing then increasing around
    0.5."""
    if not (0.0 <= x <= 1.0):
        raise OutOfRangeError(f"zeta argument {_show(x)} outside [0, 1]")
    return l_divergence(x, 1.0 - x)


def z_score(a: IFV, b: IFV) -> float:
    """L(1-mu_a, 1-mu_b) + L(nu_a, nu_b); symmetric by construction."""
    return float(z_score_batch(a.mu, a.nu, b.mu, b.nu))


def js_norm(a: IFV, b: IFV) -> float:
    """Normalized JS divergence sqrt(z_score/2), i.e. the square root of
    the natural-log JS divergence over ln 2; the strict distance on IFVs,
    with values in [0, 1]."""
    return float(WU_SPLIT(a.mu, a.nu, b.mu, b.nu))


# ---------------------------------------------------------------------------
# weighted measures on IFSs
# ---------------------------------------------------------------------------

def _blocked(f: Callable[..., np.ndarray], *args) -> np.ndarray:
    """f(*args) on row blocks of the args' broadcast shape, at most
    _BLOCK_CELLS cells (one row at the least) each, so a kernel's
    temporaries stay cache-sized; an arg spanning the leading axis is cut,
    any other passed whole, and the results are joined in row order by
    np.concatenate.  Args of at most one block are one call, not joined."""
    shape = np.broadcast(*args).shape  # not np.broadcast_shapes: several us slower
    step = max(1, _BLOCK_CELLS // max(1, math.prod(shape[1:])))
    if shape[0] <= step:
        return f(*args)
    cut = [x.ndim == len(shape) and len(x) > 1 for x in args]
    return np.concatenate([f(*(x[lo:lo + step] if c else x for x, c in zip(args, cut)))
                           for lo in range(0, shape[0], step)])


def aggregate(kernel: Callable[..., np.ndarray], a, b: IFS, w: WeightVector | None = None):
    """Set-level value of an elementwise kernel: sum_j w_j * kernel(a_j, b_j),
    or the plain 1/n mean when w is None.

    a is an IFS, or anything with a universe and a read-only (2, P, n)
    degree stack of P sets over it (a PatternLibrary); the result is a float
    for an IFS and an array of P values for a stack, value i being that of
    set i alone, bit for bit.  An IFS is a stack of one set, and a stack
    is scored by _blocked in blocks of whole sets, whose values it joins
    in set order, so the kernel's temporaries stay cache-sized whatever P
    is.  The kernel gets the stored mu and nu rows as views, without a
    copy.  The mean is np.add.reduce over n, the reduction and divide of
    ndarray.mean, and the weighted sum is np.vecdot, which runs one BLAS
    ddot per row as np.dot does on one set: a row's bits do not depend on
    its block.  The weighted sum is capped at 1: every weighted measure's
    kernel value lies in [0, 1], so only weights summing above 1, which
    WeightVector accepts within WEIGHT_SUM_TOL, can carry it past.  Raises
    UniverseMismatchError unless a and b share a universe, and
    WeightLengthMismatchError for a w of the wrong length."""
    _require_same_universe(a, b)
    n = len(a.universe)
    if w is not None:
        check_weights(w, n)

    def reduce(mu_a, nu_a, mu_b, nu_b) -> np.ndarray:
        per_element = kernel(mu_a, nu_a, mu_b, nu_b)
        if w is None:
            return np.add.reduce(per_element, axis=-1) / n
        return np.minimum(np.vecdot(per_element, w.array), 1.0)

    da, db = a.degrees.reshape(2, -1, n), b.degrees
    values = _blocked(reduce, da[0], da[1], db[0], db[1])
    return float(values[0]) if a.degrees.ndim == 2 else values


def dist_wu(a: IFS, b: IFS, w: WeightVector | None) -> float:
    """Weighted (w None: 1/n) elementwise js_norm; the strict IFS distance, in [0, 1]."""
    return aggregate(WU_SPLIT, a, b, w)


def sim_wu(a: IFS, b: IFS, w: WeightVector | None) -> float:
    """Dual similarity 1 - dist_wu; w None gives 1 - the plain 1/n mean,
    whose bits can differ from those of uniform_weights(n)."""
    return 1.0 - dist_wu(a, b, w)


def dist_wu_lambda(a: IFS, b: IFS, w: WeightVector | None, lam: float) -> float:
    """Parametric family: dist_wu with mu -> mu**lam and nu -> nu**lam.

    At lam == 1 the exponentiation is exact, so this reduces bit-for-bit to
    dist_wu.  0**lam = 0 for lam > 0.  A degree whose power underflows
    (1e-200**2 == 0.0) counts as 0, so sets that differ only in such
    degrees get a false zero; see wu_lambda_split.
    """
    return aggregate(wu_lambda_split(lam), a, b, w)


def sim_wu_lambda(a: IFS, b: IFS, w: WeightVector | None, lam: float) -> float:
    """Dual parametric similarity 1 - dist_wu_lambda; w None gives 1 - the
    plain 1/n mean, whose bits can differ from those of uniform_weights(n)."""
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


def entropy_ifs(a: IFS, w: WeightVector | None) -> float:
    """Weighted entropy of an IFS: 1 - dist_wu(a, elementwise complement, w).

    w None gives 1 - the plain 1/n mean of the elementwise distances, whose
    bits can differ from those of uniform_weights(n).
    """
    return 1.0 - dist_wu(a, a.complement(), w)
