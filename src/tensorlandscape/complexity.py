"""Closed-form landscape complexity for rank-one spiked tensor PCA.

A symmetric order-k tensor observation Y = lam * u^(x)k + noise, with the
noise a symmetrized iid Gaussian array scaled so that the sphere-constrained
objective f(sigma) = <Y, sigma^(x)k> has noise variance 1/(2n), produces an
energy landscape whose expected critical-point counts grow (or decay)
exponentially in the dimension n.  This module evaluates the two exponential
growth rates as functions of the overlap m = <sigma, u> and the objective
value x = f(sigma):

* ``s_star(params, m, x)``  -- all critical points,
* ``s_zero(params, m, x)``  -- local maxima only.

The local-maximum rate subtracts ``ldp_rate(theta, t)``, the large-deviation
cost for the largest eigenvalue of a rank-one additively deformed GOE matrix
to sit at ``t`` below its typical location theta + 1/theta (the BBP edge).
The coordinate maps ``theta_of_m`` / ``t_of_x`` translate landscape
coordinates (m, x) into the deformation strength and spectral shift of the
conditional Hessian.  ``phi_star`` is the log-potential of the semicircle
law, the n -> oo limit of (1/n) log E|det(GOE - x)|.

Conventions used throughout:

* extended reals are IEEE floats; -inf is a legitimate value of a complexity
  (it marks exponentially impossible regions) and +inf a legitimate value of
  the rate function.  No sentinel encodings.
* every function broadcasts over numpy arrays and returns a Python float for
  scalar input.  Inputs are not expanded up front: a term of one coordinate
  is computed on that coordinate's array, and only terms of both take the
  broadcast shape.
* inputs must be finite; domain violations raise ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "phi_star",
    "ldp_rate",
    "theta_of_m",
    "t_of_x",
    "s_star",
    "s_zero",
    "j_spherical",
]


@dataclass(frozen=True)
class ModelParams:
    """Tensor order ``k`` (integer, >= 3) and signal-to-noise ratio ``lam`` (>= 0).

    ``k * lam**2`` must be finite (lam below about 7.7e153 at k = 3): the
    surfaces multiply it by m^(2k-2), and an infinite product would turn
    m = 0 into nan."""

    k: int
    lam: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _count(self.k, "k", 3))
        object.__setattr__(self, "lam", _real(self.lam, "lam", 0.0))
        if not math.isfinite(self.k * self.lam * self.lam):
            raise ValueError(f"lam must keep k * lam**2 finite, got {self.lam!r} at k = {self.k}")


def _count(value, name: str, low: int) -> int:
    """``value`` as an int, if it is an integer >= ``low`` (a bool is not):
    the one rule for every count the package takes."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
        raise ValueError(f"{name} must be >= {low} and an integer (not a bool), got {value!r}")
    return int(value)


def _real(value, name: str, low: float, strict: bool = False) -> float:
    """``value`` as a float, if it is one finite real number (a Python or
    NumPy int or float; not a bool, a string, a sequence or a complex) >=
    ``low``, or > ``low`` if ``strict``: the one rule for the real-valued
    settings ``lam``, ``tol`` and ``xtol``, and, with ``low`` = -inf, for
    the bounds of a ``GridSpec``."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nesting
        arr = np.asarray(None)
    if not (arr.ndim == 0 and arr.dtype.kind in "iuf" and np.isfinite(arr)
            and (arr > low if strict else arr >= low)):
        bound = f" {'>' if strict else '>='} {low}" if low > -math.inf else ""
        raise ValueError(f"{name} must be a finite real number{bound}, got {value!r}")
    return float(arr)


def _seed(seed) -> np.random.SeedSequence:
    """The ``SeedSequence`` of ``seed``, an integer >= 0 or a non-empty list
    or tuple of them, each checked by ``_count``: None (OS entropy), a bool
    or a float is a ValueError that names ``seed``.

    NumPy drops trailing zero words, so ``5``, ``[5, 0]`` and ``(5, 0, 0)``
    seed one stream; a sequence seed that must differ from ``s`` needs a
    nonzero last word, as ``[s, 1]`` has."""
    if not isinstance(seed, (list, tuple)):
        return np.random.SeedSequence(_count(seed, "seed", 0))
    if not seed:
        raise ValueError("seed must be an integer >= 0 or a non-empty sequence of them")
    return np.random.SeedSequence([_count(s, "seed", 0) for s in seed])


def _as_finite_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _maybe_scalar(arr: np.ndarray):
    return float(arr) if np.ndim(arr) == 0 else arr


def phi_star(x):
    """Log-potential of the semicircle law: integral of log|y - x| sigma_sc(dy).

    Equals x^2/4 - 1/2 inside the support (|x| <= 2); outside, the extra
    terms -(|x|/4) sqrt(x^2-4) + log((|x| + sqrt(x^2-4))/2) keep the function
    continuous at the edges.  Even in x.

    Outside, x^2/4 - (|x|/4) sqrt(x^2-4) is evaluated as
    |x| / (|x| + sqrt(x^2-4)), which does not cancel at large |x|.  Both
    terms are built from h = |x|/2 + sqrt(x^2-4)/2, which does not overflow;
    where x^2 does, sqrt(x^2-4) is taken as |x|, to which it rounds there.
    """
    ax = np.abs(_as_finite_array(x, "x"))
    with np.errstate(over="ignore"):
        square = ax * ax
    s = np.where(square < np.inf, np.sqrt(np.maximum(square - 4.0, 0.0)), ax)
    inside = 0.25 * square - 0.5
    # halving is exact, so h is (|x| + s)/2 rounded once.  The outside branch
    # is also evaluated inside the support; the floor of its denominator
    # (never binding outside, where h > 1) avoids 0/0 at x = 0
    half = 0.5 * ax + 0.5 * s
    with np.errstate(divide="ignore"):
        outside = 0.5 * ax / np.maximum(half, 1.0) - 0.5 + np.log(half)
    return _maybe_scalar(np.where(ax <= 2.0, inside, outside))


def _sqrt_shifted_antideriv(y: np.ndarray) -> np.ndarray:
    # antiderivative of sqrt(y^2 - 4) on y >= 2:
    #   (y/2) sqrt(y^2-4) - 2 log((y + sqrt(y^2-4))/2),  zero at y = 2
    s = np.sqrt(np.maximum(y * y - 4.0, 0.0))
    return 0.5 * y * s - 2.0 * np.log(0.5 * (y + s))


def ldp_rate(theta, t):
    """Large-deviation rate for the top eigenvalue of theta e1 e1^T + GOE to sit at t.

    Speed-n rate of P(lambda_max <= t).  Three regimes:

    * t < 2: +inf.  Pushing the whole semicircle bulk below its edge costs
      more than e^(-cn); at this speed the event is impossible.
    * theta <= 1, t >= 2, or theta > 1, t >= theta + 1/theta: 0.  The typical
      top eigenvalue already sits at or below t.
    * theta > 1, 2 <= t < theta + 1/theta: the cost of dragging the rank-one
      outlier from its typical location rho = theta + 1/theta down to t,

        (1/4) int_rho^t sqrt(y^2-4) dy - (theta/2)(t - rho) + (t^2 - rho^2)/8.

    Nonnegative, convex and strictly decreasing in t on [2, rho), vanishing
    smoothly at t = rho.
    """
    th = _as_finite_array(theta, "theta")
    tt = _as_finite_array(t, "t")
    out = np.where(tt < 2.0, np.inf, 0.0)

    th_safe = np.where(th > 1.0, th, 2.0)
    rho = th_safe + 1.0 / th_safe
    mid = (th > 1.0) & (tt >= 2.0) & (tt < rho)
    t_safe = np.where(mid, tt, 2.0)
    val = (
        0.25 * (_sqrt_shifted_antideriv(t_safe) - _sqrt_shifted_antideriv(rho))
        - 0.5 * th_safe * (t_safe - rho)
        + 0.125 * (t_safe * t_safe - rho * rho)
    )
    # rounding near the smooth zero at t = rho can leave val at -1e-17; clamp
    out = np.where(mid, np.maximum(val, 0.0), out)
    return _maybe_scalar(out)


def theta_of_m(params: ModelParams, m):
    """Rank-one deformation strength of the conditional Hessian at overlap m."""
    k, lam = params.k, params.lam
    mm = _as_finite_array(m, "m")
    if np.any(np.abs(mm) > 1.0):
        raise ValueError("overlap m must satisfy |m| <= 1")
    one_minus = (1.0 - mm) * (1.0 + mm)
    return _maybe_scalar(math.sqrt(2.0 * k * (k - 1.0)) * lam * mm ** (k - 2) * one_minus)


def t_of_x(params: ModelParams, x):
    """Spectral shift of the conditional Hessian at objective value x."""
    k = params.k
    xx = _as_finite_array(x, "x")
    return _maybe_scalar(math.sqrt(2.0 * k / (k - 1.0)) * xx)


def _s_star_without_phi(params: ModelParams, m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The terms of ``s_star`` other than ``phi_star``, for |m| < 1.

    Volume, signal and energy terms of the Kac-Rice integrand per unit n;
    ``kacrice.crt_expected`` uses n times this as its finite-n weight.
    """
    k, lam = params.k, params.lam
    # (1 - m)(1 + m) keeps full relative precision as |m| -> 1, where 1 - m*m
    # loses the digits rounded off m*m
    one_minus = (1.0 - m) * (1.0 + m)
    return (
        0.5 * (math.log(k - 1.0) + 1.0)
        + 0.5 * np.log(one_minus)
        - k * lam * lam * m ** (2 * k - 2) * one_minus
        # np.square, not ** 2: on a 0-d input that would be a NumPy scalar
        # power, which can differ in the last bit from the array path
        - np.square(x - lam * m**k)
    )


def _s_star_arrays(params: ModelParams, m, x) -> np.ndarray:
    k = params.k
    mm = _as_finite_array(m, "m")
    if np.any(np.abs(mm) > 1.0):
        raise ValueError("overlap m must satisfy |m| <= 1")
    xx = _as_finite_array(x, "x")

    # |m| = 1 is exponentially unreachable: the (1-m^2)^((n-3)/2) area factor
    # kills the count.  Return -inf there without touching the log.
    edge = np.abs(mm) >= 1.0
    m_safe = np.where(edge, 0.0, mm)
    val = _s_star_without_phi(params, m_safe, xx) + phi_star(math.sqrt(2.0 * k / (k - 1.0)) * xx)
    return np.where(edge, -np.inf, val)


def s_star(params: ModelParams, m, x):
    """Exponential growth rate of the expected number of critical points near (m, x).

    Finite for |m| < 1, exactly -inf at |m| = 1.  At m = 0 the rate is
    independent of lam; its maximum over x is (1/2) log(k-1), attained at x = 0.
    """
    return _maybe_scalar(_s_star_arrays(params, m, x))


def s_zero(params: ModelParams, m, x):
    """Exponential growth rate of the expected number of local maxima near (m, x).

    Equals ``s_star`` minus the top-eigenvalue cost
    ``ldp_rate(theta_of_m(m), t_of_x(x))``; in particular it is -inf wherever
    t_of_x(x) < 2, i.e. for x below sqrt(2(k-1)/k), where a critical point
    cannot be a local maximum at exponential scale.
    """
    star = _s_star_arrays(params, m, x)
    cost = ldp_rate(theta_of_m(params, m), t_of_x(params, x))
    # star = -inf (overlap edge) and cost = +inf combine to -inf under IEEE
    # arithmetic, which is the intended reading: the region is unreachable.
    return _maybe_scalar(star - cost)


def j_spherical(x, theta):
    """Limit of (1/n) log of the rank-one spherical integral at edge location x >= 2.

    For a deformation of strength theta > 0 against a spectrum with semicircle
    limit and largest eigenvalue at x:

    * theta <= 1 and x <= theta + 1/theta:  theta^2 / 4,
    * otherwise: (theta x - 1 - log(theta) - phi_star(x)) / 2.

    Continuous across both branch boundaries.
    """
    xx = _as_finite_array(x, "x")
    th = _as_finite_array(theta, "theta")
    if np.any(xx < 2.0):
        raise ValueError("j_spherical requires x >= 2")
    if np.any(th <= 0.0):
        raise ValueError("j_spherical requires theta > 0")
    low = (th <= 1.0) & (xx <= th + 1.0 / th)
    val = 0.5 * (th * xx - 1.0 - np.log(th) - phi_star(xx))
    return _maybe_scalar(np.where(low, 0.25 * th * th, val))
