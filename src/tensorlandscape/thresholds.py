"""Explicit overlap-resolved complexity and the SNR thresholds it encodes.

Maximizing the critical-point complexity ``s_star(params, m, x)`` over the
objective value x at fixed overlap m in [0, 1) has a closed form.  The inner
maximization is of

    g(x) = a x^2 - b x + int_2^|x| sqrt(y^2 - 4) dy  (last term only if |x| > 2)

whose minimizer either stays inside |x| <= 2 (quadratic vertex b/(2a), the
"unconstrained" branch) or exits the bulk (the "edge" branch).  The two
branches give two explicit curves:

* ``s_u(params, m)``  -- valid for m below the crossover ``m_critical``,
* ``s_g(params, m)``  -- valid above it,

glued continuously by ``s_star_projection``.  The high-overlap curve s_g is
never positive; it touches zero exactly where

    m^(2k-4) (1 - m^2) = 1 / (2 k lam^2),

which has a root in [m_critical, 1] iff ``lam >= lambda_critical(k)``.  That
root, located by ``good_location_zero``, is where exponentially many
well-correlated local maxima first appear; at lam = lambda_critical the root
is a tangency at m = sqrt((k-2)/(k-1)).

``_bisect_crossings`` is the package's one sign-change root finder: a
batched multisection that narrows many brackets together, evaluating 16
interior points of each per round in one call.  It locates this touch point
here, and the critical-point and local-maximum band edges in
:mod:`tensorlandscape.scan`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexity import ModelParams, _as_finite_array, _count, _maybe_scalar

__all__ = [
    "ThresholdReport",
    "m_critical",
    "lambda_critical",
    "s_u",
    "s_g",
    "s_star_projection",
    "good_location_zero",
    "minimize_g",
    "f_alpha",
    "threshold_report",
]

#: Interior points per bracket and round of the multisection
#: ``_bisect_crossings``; a round narrows each bracket by a factor of
#: ``_SECTION_POINTS + 1``.
_SECTION_POINTS = 16

#: Round cap of the multisection: 17**49 > 2**200, the narrowing of 200
#: bisection steps, so a bracket stuck between adjacent doubles still ends.
_SECTION_ROUNDS = 49

#: Bracket width at which ``good_location_zero`` stops: a few ulp of 1.
_ROOT_XTOL = 4.0 * math.ulp(1.0)


@dataclass(frozen=True)
class ThresholdReport:
    """Crossover overlap (None at lam = 0), critical SNR, zero-touch overlap (None below it)."""

    m_crossover: float | None
    lambda_crit: float
    good_zero: float | None


def m_critical(params: ModelParams) -> float:
    """Crossover overlap between the two projection branches.

    ((k-2) / (lam sqrt(2k(k-1))))^(1/k); may exceed 1 for small lam, in which
    case the low-overlap branch covers the whole hemisphere.  Requires lam > 0.
    """
    k, lam = params.k, params.lam
    if lam <= 0.0:
        raise ValueError("m_critical requires lam > 0")
    return ((k - 2.0) / (lam * math.sqrt(2.0 * k * (k - 1.0)))) ** (1.0 / k)


def lambda_critical(k: int) -> float:
    """Smallest SNR at which the high-overlap complexity branch touches zero.

    sqrt((k-1)^(k-1) / (2k (k-2)^(k-2))).  For k = 3 this is sqrt(2/3).
    """
    k = _count(k, "k", 3)
    return math.sqrt((k - 1.0) ** (k - 1) / (2.0 * k * (k - 2.0) ** (k - 2)))


def _validate_hemisphere(m) -> np.ndarray:
    mm = _as_finite_array(m, "m")
    if np.any((mm < 0.0) | (mm >= 1.0)):
        raise ValueError("overlap m must lie in [0, 1)")
    return mm


def s_u(params: ModelParams, m):
    """Low-overlap branch of max_x s_star(m, x), for m in [0, 1).

    (1/2) log(k-1) + (1/2) log(1-m^2) - k lam^2 m^(2k-2) (1-m^2)
    + (k/(k-2)) lam^2 m^(2k).  At m = 0 it equals (1/2) log(k-1) > 0.
    """
    k, lam = params.k, params.lam
    mm = _validate_hemisphere(m)
    m2k = mm ** (2 * k)
    one_minus = (1.0 - mm) * (1.0 + mm)  # 1 - m^2 without cancellation near m = 1
    val = (
        0.5 * math.log(k - 1.0)
        + 0.5 * np.log(one_minus)
        - k * lam * lam * mm ** (2 * k - 2) * one_minus
        + (k / (k - 2.0)) * lam * lam * m2k
    )
    return _maybe_scalar(val)


def s_g(params: ModelParams, m):
    """High-overlap branch of max_x s_star(m, x), for m in [0, 1).

    With w = sqrt(k/2) lam m^k:

    (1/2) log(1-m^2) - k lam^2 m^(2k-2) (1-m^2) - w^2 + w sqrt(1 + w^2) + asinh(w).

    (No explicit log(k-1) term: the entropy constant is absorbed by the
    logarithm inside the edge-branch minimum.)  Never positive on [0, 1);
    vanishes exactly on the solution set of m^(2k-4)(1-m^2) = 1/(2k lam^2),
    and equals f_alpha(m^2, w) identically.
    """
    k, lam = params.k, params.lam
    mm = _validate_hemisphere(m)
    w = math.sqrt(0.5 * k) * lam * mm**k
    one_minus = (1.0 - mm) * (1.0 + mm)
    val = (
        0.5 * np.log(one_minus)
        - k * lam * lam * mm ** (2 * k - 2) * one_minus
        + w / (w + np.sqrt(1.0 + w * w))  # -w^2 + w sqrt(1 + w^2), not cancelling
        + np.arcsinh(w)
    )
    return _maybe_scalar(val)


def s_star_projection(params: ModelParams, m):
    """max_x s_star(params, m, x) on the hemisphere m in [0, 1), in closed form.

    Dispatches to ``s_u`` below the crossover ``m_critical`` and to ``s_g``
    at or above it (everything is the low branch when lam = 0).
    """
    mm = _validate_hemisphere(m)
    if params.lam == 0.0:
        return s_u(params, m)
    mc = m_critical(params)
    out = np.where(mm < mc, s_u(params, mm), s_g(params, mm))
    return _maybe_scalar(out)


def good_location_zero(params: ModelParams) -> float | None:
    """Overlap in [m_critical, 1] where the high-overlap complexity touches zero.

    Solves m^(2k-4)(1-m^2) = 1/(2k lam^2) on the decreasing side of the
    left-hand side, [sqrt((k-2)/(k-1)), 1], by the multisection
    ``_bisect_crossings`` to a bracket a few ulp of 1 wide (about 12
    rounds).  Above 1.001 lambda_critical(k) the root is within 2 ulp of 1
    of the exact one; closer to the tangency it is only as good as its
    conditioning allows.
    Returns None when lam < lambda_critical(k) (no solution); returns the
    tangency sqrt((k-2)/(k-1)) when lam sits exactly at the critical SNR,
    where the root is double and a sign-change search would be ill-posed.
    """
    k, lam = params.k, params.lam
    if lam < lambda_critical(k):  # includes lam = 0: pure noise has no good zero
        return None

    target = 1.0 / (2.0 * k * lam * lam)

    def h(m):  # a float or an array of them
        return m ** (2 * k - 4) * (1.0 - m * m) - target

    # h is maximal at m_peak; for lam >= lambda_critical the root at or above
    # m_peak is the unique one in [m_critical, 1].
    m_peak = math.sqrt((k - 2.0) / (k - 1.0))
    if h(m_peak) <= 0.0:
        # only possible (up to rounding) at lam = lambda_critical: tangency
        return m_peak
    return float(_bisect_crossings(h, [m_peak], [1.0], np.array([h(1.0)]), _ROOT_XTOL)[0])


def _bisect_crossings(fn, lo, hi, f_hi: np.ndarray, xtol: float) -> np.ndarray:
    """Narrow every bracket with fn(lo) > 0 >= fn(hi) to width ``xtol``, together.

    A multisection: each round places ``_SECTION_POINTS`` evenly spaced
    interior points in every live bracket and evaluates all of them in one
    ``fn`` call (``fn`` maps an array of points to values).  The new bracket
    runs from the last point with fn > 0 before the first point with
    fn <= 0 to that point.  Brackets may be descending (negative-m edges).
    A point where fn is exactly 0 is returned as is, a bracket narrower than
    ``xtol`` gives its midpoint, and after ``_SECTION_ROUNDS`` rounds every
    bracket still live gives its midpoint too.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    out = np.where(f_hi == 0.0, hi, math.nan)
    live = np.flatnonzero(f_hi != 0.0)
    frac = np.arange(1, _SECTION_POINTS + 1) / (_SECTION_POINTS + 1)
    for _ in range(_SECTION_ROUNDS):
        done = np.abs(hi[live] - lo[live]) <= xtol
        out[live[done]] = 0.5 * (lo[live[done]] + hi[live[done]])
        live = live[~done]
        if not live.size:
            return out
        a, b = lo[live], hi[live]
        inner = a[:, None] + (b - a)[:, None] * frac
        f = np.asarray(fn(inner.ravel()), dtype=float).reshape(inner.shape)
        # each row: lo (fn > 0), the interior points, hi (fn < 0 while live)
        pts = np.column_stack([a, inner, b])
        f = np.column_stack([np.ones(live.size), f, -np.ones(live.size)])
        j = np.argmax(f <= 0.0, axis=1)
        r = np.arange(live.size)
        lo[live], hi[live] = pts[r, j - 1], pts[r, j]
        exact = f[r, j] == 0.0
        out[live[exact]] = hi[live[exact]]
        live = live[~exact]
    out[live] = 0.5 * (lo[live] + hi[live])
    return out


def minimize_g(a: float, b: float) -> tuple[float, float]:
    """Minimize g(x) = a x^2 - b x + int_2^|x| sqrt(y^2-4) dy (integral for |x| > 2).

    Requires a > 0, b > 0, so the minimizer is on the positive axis.  Returns
    (argmin, min).  For b <= 4a the quadratic vertex b/(2a) <= 2 wins and the
    minimum is -b^2/(4a).  For b > 4a the minimizer exits the bulk and solves
    2 a x - b + sqrt(x^2 - 4) = 0:

        x* = (b^2 + 4) / (2 a b + sqrt(b^2 + 4 - 16 a^2)),

    a form that stays stable at a = 1/2 where the textbook quadratic-formula
    expression degenerates.  The minimum there is
    -(b/2) x* - 2 log(((1/2 - a) x* + b/2)).
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0.0 or b <= 0.0:
        raise ValueError("minimize_g requires finite a > 0 and b > 0")
    if b <= 4.0 * a:
        return b / (2.0 * a), -b * b / (4.0 * a)
    disc = b * b + 4.0 - 16.0 * a * a  # > 4 whenever b > 4a
    x_star = (b * b + 4.0) / (2.0 * a * b + math.sqrt(disc))
    val = -0.5 * b * x_star - 2.0 * math.log((0.5 - a) * x_star + 0.5 * b)
    return x_star, val


def f_alpha(alpha: float, x):
    """Auxiliary one-variable family behind the zero set of ``s_g``.

    f_alpha(x) = (1/2) log(1-alpha) - 2 x^2 / alpha + x^2 + x sqrt(1+x^2) + asinh(x)
    for alpha in (0, 1) and x >= 0.  Strictly negative except at the single
    point x = alpha / (2 sqrt(1-alpha)), where it vanishes; composing with
    alpha = m^2, x = sqrt(k/2) lam m^k recovers ``s_g`` exactly, which is why
    s_g <= 0 with equality only on the explicit root set.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or not (0.0 < alpha < 1.0):
        raise ValueError("f_alpha requires alpha in (0, 1)")
    xx = _as_finite_array(x, "x")
    if np.any(xx < 0.0):
        raise ValueError("f_alpha requires x >= 0")
    val = (
        0.5 * math.log(1.0 - alpha)
        - 2.0 * xx * xx / alpha
        + xx * xx
        + xx * np.sqrt(1.0 + xx * xx)
        + np.arcsinh(xx)
    )
    return _maybe_scalar(val)


def threshold_report(params: ModelParams) -> ThresholdReport:
    """Bundle m_critical (if lam > 0), lambda_critical, and the zero-touch overlap (if any)."""
    return ThresholdReport(
        m_crossover=m_critical(params) if params.lam > 0.0 else None,
        lambda_crit=lambda_critical(params.k),
        good_zero=good_location_zero(params),
    )
