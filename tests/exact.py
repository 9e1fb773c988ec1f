"""Exact reference values of every measure, for the tests.

Each measure is evaluated in mpmath from its defining formula, on the exact
values of its float inputs: mpf(x) of a float is exact, and 1 - mu, the
indeterminacy 1 - mu - nu and the complement <nu, mu> are formed exactly.
The measures are named as in the registry: wu, wu-lambda (lam), xiao, yc
and jgamma (gamma), with the same float parameter the kernel gets.

The working precision follows from the inputs.  Let e_lo and e_hi be the
smallest and largest binary exponents (math.frexp) of the nonzero inputs,
and span = 54 + max(e_hi, 1) - min(e_lo, 0).  span bits hold every input,
1 - mu and pi exactly.  Two values of a channel that differ by a relative
t >= 2**-span make its two-point term cancel to about t**2 of its parts'
size, so twice span bits, plus 64 guard bits, keep the difference exact to
far more bits than binary64 holds:

    bits = 64 + 2 * ceil(max(1, lam) * span)

where lam is the wu-lambda exponent (its powers scale the exponents).  That
is about 180 bits on the 0.01 grid and on uniform pairs, and 2,320 on
subnormals.

Degrees must lie in [0, 1].  The measures over (mu, nu, pi) also need
mu + nu <= 1 in exact arithmetic: a point in the slack that IFS tolerates
(mu + nu <= 1 + 1e-9) raises ValueError there, because the kernels' value
on it is a rule still to be chosen (ROADMAP item 2).  wu and wu-lambda
never form pi, so they take slack points as they are.

Only tests import this module; nothing under src/ does, and importing ifsim
does not load mpmath.
"""

import math

import numpy as np
from mpmath import mp, mpf

from ifsim import IFS, IFV

GUARD_BITS = 64
MEASURES = ("wu", "wu-lambda", "xiao", "yc", "jgamma")


def working_bits(xs, lam: float = 1.0) -> int:
    """The working precision for the floats xs (see the module docstring)."""
    exps = [math.frexp(x)[1] for x in xs if x]
    span = 54 + max(exps + [1]) - min(exps + [0])
    return GUARD_BITS + 2 * math.ceil(max(1.0, lam) * span)


def _l(p, q):
    """L(p, q) = p*log2(2p/s) + q*log2(2q/s), s = p + q, 0*log 0 = 0."""
    s = p + q
    return mp.fsum(x * mp.log(2 * x / s) for x in (p, q) if x) / mp.ln2


def _z(a, b):
    """The sum of L over the channels of two sides."""
    return mp.fsum(map(_l, a, b))


def _side(measure: str, mu, nu, lam):
    """One side's channels: (1 - mu**lam, nu**lam) for wu, (mu, nu, pi) else."""
    if not (0 <= mu <= 1 and 0 <= nu <= 1):
        raise ValueError(f"<{mu}, {nu}> has a degree outside [0, 1]")
    if measure.startswith("wu"):
        return 1 - mu ** lam, nu ** lam
    if mu + nu > 1:
        raise ValueError(f"<{mu}, {nu}> is in the simplex slack, where pi < 0")
    return mu, nu, 1 - mu - nu


def _j_term(x, y, gamma):
    """One channel of J_gamma: the natural-log form at gamma == 1, the
    power-mean form ((x^g + y^g)/2 - ((x+y)/2)^g) / (g - 1) elsewhere."""
    if gamma == 1:
        xlnx = lambda v: v * mp.log(v) if v else mpf(0)
        return (xlnx(x) + xlnx(y) - xlnx((x + y) / 2) * 2) / 2
    return ((x ** gamma + y ** gamma) / 2 - ((x + y) / 2) ** gamma) / (gamma - 1)


def _elem(measure, lam, gamma, mu_a, nu_a, mu_b, nu_b):
    a, b = _side(measure, mu_a, nu_a, lam), _side(measure, mu_b, nu_b, lam)
    if measure == "yc":
        arg = mp.fsum(mp.sqrt(x * y) for x, y in zip(a, b))
        if arg > 1:
            raise ArithmeticError(f"Bhattacharyya sum {arg} above 1")
        return 2 / mp.pi * mp.acos(arg)
    if measure == "jgamma":
        return mp.fsum(_j_term(x, y, gamma) for x, y in zip(a, b))
    return mp.sqrt(_z(a, b) / 2)


def _params(measure: str, params: dict) -> tuple:
    """(lam, gamma) from the registry's parameter spelling: lam a float, 1.0
    unless wu-lambda, and gamma an mpf for jgamma, else None."""
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    lam = params.get("lam", params.get("lambda", 1.0)) if measure == "wu-lambda" else 1.0
    gamma = params["gamma"] if measure == "jgamma" else None
    return float(lam), gamma if gamma is None else mpf(float(gamma))


def elem(measure: str, mu_a, nu_a, mu_b, nu_b, **params):
    """The exact per-element value of measure between <mu_a, nu_a> and
    <mu_b, nu_b>, as an mpf."""
    lam, gamma = _params(measure, params)
    xs = [float(x) for x in (mu_a, nu_a, mu_b, nu_b)]
    with mp.workprec(working_bits(xs, lam)):
        return _elem(measure, mpf(lam), gamma, *map(mpf, xs))


def elems(measure: str, mu_a, nu_a, mu_b, nu_b, **params) -> list:
    """elem over broadcast component arrays, flattened in C order."""
    cols = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (mu_a, nu_a, mu_b, nu_b)))
    return [elem(measure, *v, **params) for v in zip(*(c.ravel().tolist() for c in cols))]


def _over_sets(measure, a: IFS, b: IFS, w, params, finish):
    lam, gamma = _params(measure, params)
    rows = a.degrees.tolist() + b.degrees.tolist()
    with mp.workprec(working_bits([x for r in rows for x in r], lam)):
        d = [_elem(measure, mpf(lam), gamma, *map(mpf, v)) for v in zip(*rows)]
        total = mp.fsum(d) / len(d) if w is None else mp.fsum(mpf(x) * y for x, y in zip(w, d))
        return finish(total)


def dist(measure: str, a: IFS, b: IFS, w=None, **params):
    """The exact set-level value: sum_j w_j * elem_j, or the 1/n mean when
    w is None."""
    return _over_sets(measure, a, b, w, params, lambda d: d)


def sim(measure: str, a: IFS, b: IFS, w=None, **params):
    """The exact dual similarity 1 - dist."""
    return _over_sets(measure, a, b, w, params, lambda d: 1 - d)


def entropy(a, w=None):
    """The exact induced entropy 1 - dist_wu(a, complement(a)) of an IFS
    (weighted, or the 1/n mean when w is None) or of one IFV."""
    if isinstance(a, IFV):
        a = IFS(("x",), (a,))
    return sim("wu", a, a.complement(), w)


def l_divergence(p: float, q: float):
    """The exact L(p, q) of two non-negative floats."""
    with mp.workprec(working_bits((p, q))):
        return _l(mpf(p), mpf(q))


def zeta(x: float):
    """The exact zeta(x) = L(x, 1 - x) of a float x in [0, 1]."""
    with mp.workprec(working_bits((x,))):
        return _l(mpf(x), 1 - mpf(x))


def z_score(mu_a, nu_a, mu_b, nu_b):
    """The exact L(1-mu_a, 1-mu_b) + L(nu_a, nu_b)."""
    xs = [float(x) for x in (mu_a, nu_a, mu_b, nu_b)]
    with mp.workprec(working_bits(xs)):
        mu_a, nu_a, mu_b, nu_b = map(mpf, xs)
        return _z(_side("wu", mu_a, nu_a, 1), _side("wu", mu_b, nu_b, 1))


def worst_errors(got, refs) -> tuple[float, float]:
    """The largest absolute and relative error of the floats got against
    the exact refs (an error against an exact 0 is relatively inf)."""
    abs_err = [abs(mpf(g) - r) for g, r in zip(np.ravel(got).tolist(), refs, strict=True)]
    rel_err = [e / abs(r) if r else (0 if not e else math.inf) for e, r in zip(abs_err, refs)]
    return float(max(abs_err)), float(max(rel_err))
