"""Finite-n Monte Carlo evaluation of exact expected critical-point counts.

The closed forms in :mod:`tensorlandscape.complexity` are n -> oo limits.  At
finite n the expected number of critical points (or local maxima) of the
spiked tensor objective with overlap in M and value in E is an exact
two-dimensional integral whose integrand contains E|det H| for a shifted
rank-one-deformed GOE matrix

    H = theta_n(m) e1 e1^T + W_(n-1) - t_n(x) I,        W_(n-1) ~ GOE(n-1),

a dimension-dependent prefactor, and an explicit exponential weight.  This
module estimates the determinant expectation by Monte Carlo and performs the
(m, x) integral by midpoint quadrature, entirely in log space so that counts
spanning hundreds of orders of magnitude do not overflow.

Design notes:

* Householder tridiagonalisation of W fixes e1, so H is orthogonally similar
  to theta e1 e1^T + T - t I with T the beta = 1 tridiagonal model of GOE(d),
  d = n - 1 (Dumitriu & Edelman, J. Math. Phys. 43, 2002).  All samples are
  drawn at once from the caller's seed; ``n_threads`` is only validated.
* one draw serves every grid cell (common random numbers): the bottom-up
  LDL^T pivots p_d, ..., p_2 of T - t I are swept once per sample over all
  shifts t_n(x), and theta_n(m) enters only the last pivot p_1, so a cell
  costs O(1).  log|det H| is log prod |p_i|, one log per block of pivots; by
  Sylvester's inertia H has as many eigenvalues above 0 as positive pivots:
  the local-maximum restriction 1{H <= 0} keeps a cell when no pivot is
  positive, so it is at most the unrestricted estimate sample by sample.
* for local maxima, shifts below every draw's Rayleigh lower bound on the top
  eigenvalue of T[1:, 1:] have a positive pivot in every draw and are not
  swept (two thirds of the default x window at lambda = 0), bit for bit.
* the (m, x) sum factors per x column: exp(weight) is the column's total
  exp(L_x) times convex shares over m, so a sample's total is
  sum_x exp(log_tail + L_x) * sum_m share |p_1|.  The inner sum is read
  from prefix tables over sorted theta, and one log-sum-exp over x reduces
  all samples in a reused buffer: memory is O(samples x (n + x_steps)), and
  no (samples, m, x) array is built.  The column totals L_x come from the
  same log-sum-exp, ``_log_sum_exp``, over m.
* theta_n and t_n are ``theta_of_m`` and ``t_of_x`` scaled by sqrt(n/(n-1)),
  and the exponential weight is n times the terms of ``s_star`` other than
  ``phi_star``: every formula comes from :mod:`tensorlandscape.complexity`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .complexity import ModelParams, _count, _s_star_without_phi, _seed, t_of_x, theta_of_m

__all__ = [
    "McEstimate",
    "crt_expected",
    "growth_rate_fit",
    "log_count_prefactor",
]


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate: sample mean, standard error (sample std / sqrt(N)), size.

    For exponentially large quantities the log-scale fields are the usable
    ones: ``log_mean`` = log of the sample mean, ``log_std_error`` = relative
    standard error, which is the standard error of the log to first order.
    Two health fields describe the per-sample values r: ``ess_ratio`` =
    (sum r)^2 / (N sum r^2), the effective sample size over N, in [1/N, 1];
    ``max_share`` = max r / sum r, the largest single sample's share of the
    mean, in (0, 1].  Both are None where nothing filled them or every
    sample is 0.
    """

    mean: float
    std_error: float
    n_samples: int
    log_mean: float | None = None
    log_std_error: float | None = None
    ess_ratio: float | None = None
    max_share: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_samples", _count(self.n_samples, "n_samples", 1))
        if not self.std_error >= 0.0:
            raise ValueError("std_error must be >= 0")


def _tridiagonal(seed, n_samples: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``n_samples`` rows of GOE(dim)'s tridiagonal model: diagonal a_i ~ N(0, 2/dim),
    squared off-diagonal b_i^2 ~ chi^2_(dim-i) / dim = standard Gamma((dim-i)/2) * 2/dim
    (numpy's ``gamma``, bit for bit), drawn row by row, stored sample-contiguous."""
    rng = np.random.default_rng(seed)
    a = np.asfortranarray(rng.normal(scale=math.sqrt(2.0 / dim), size=(n_samples, dim)))
    b2 = np.asfortranarray(rng.standard_gamma(np.arange(dim - 1, 0, -1) / 2, (n_samples, dim - 1)))
    return a, np.multiply(b2, 2.0 / dim, out=b2)


def _pivots(a: np.ndarray, b2: np.ndarray, t: np.ndarray, count_positive: bool = True):
    """Bottom-up LDL^T pivots p_d, ..., p_2 of T - t I per row of (a, b2) and shift t.

    Returns (samples, len(t)) arrays: log prod |p_i|, the number of positive
    p_i over i >= 2 (if ``count_positive``, else None), and ``last``, with
    p_1 = theta + last for the deformation theta e1 e1^T.  A |p_i| below
    pivmin = tiny * max(1, max b^2) becomes -pivmin (LAPACK ``dstebz``).  A
    cell multiplies its |p_i| in [2^-63, 2^63] over fixed blocks of 16, one
    log each (2^(+-1008) is normal), and logs the others alone; both run only
    when min |p| or max|a| + max|t| + max b^2 / (last min |p|) >= max |p|
    says they can.  Swept on (len(t), samples) arrays in reused buffers,
    every value is bit for bit that of a (samples, len(t)) sweep.
    """
    pivmin = np.finfo(float).tiny * np.maximum(1.0, np.max(b2, axis=1, initial=0.0))
    (low_safe, high_safe), block = (2.0**-63, 2.0**63), 16
    a, b2, floor = a.T, b2.T, max(np.max(pivmin), low_safe)
    bound_a, b2_max = np.max(np.abs(a)) + np.max(np.abs(t)), np.max(b2, initial=0.0)
    shift = np.repeat(t[:, None], a.shape[1], axis=1)
    last, high = a[-1] - shift, bound_a
    log_tail, product, scratch = np.zeros_like(last), np.ones_like(last), np.empty_like(last)
    n_positive = np.zeros_like(last) if count_positive else None
    for step, i in enumerate(range(a.shape[0] - 2, -1, -1)):
        low = np.min(np.abs(last, out=scratch))
        if not (low >= floor and 2.0 * high <= high_safe):  # 2 covers the bound's rounding
            np.copyto(last, -pivmin, where=scratch < pivmin)
            alone = (np.abs(last, out=scratch) < low_safe) | (scratch > high_safe)
            log_tail[alone] += np.log(scratch[alone])
            scratch[alone] = 1.0
        product *= scratch
        if step % block == block - 1 or i == 0:
            log_tail += np.log(product, out=product)
            product.fill(1.0)
        high = bound_a + b2_max / low if low >= floor else np.inf
        if count_positive:
            n_positive += np.greater(last, 0.0, out=scratch)
        np.divide(b2[i], last, out=scratch)
        np.subtract(a[i], shift, out=last)
        last -= scratch
    return log_tail.T, None if n_positive is None else n_positive.T, last.T


def _edge_bound(a: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Per row of (a, b2), a lower bound on the top eigenvalue of T[1:, 1:] (-inf
    if d = 1): its largest diagonal entry or the Rayleigh quotient of a unit sine
    window sqrt(2/(m+1)) sin(pi j/(m+1)) on its first m = 2, 4, 8, ... rows,
    where the model's top eigenvector lives (off-diagonals sqrt(b^2) >= 0)."""
    a, b = a[:, 1:], np.sqrt(b2[:, 1:])
    bound, m = np.max(a, axis=1, initial=-np.inf), 2
    while m <= a.shape[1]:
        v = math.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.arange(1, m + 1) / (m + 1))
        np.maximum(bound, a[:, :m] @ (v * v) + 2.0 * (b[:, : m - 1] @ (v[1:] * v[:-1])), out=bound)
        m *= 2
    return bound


def _theta_sums(theta, share, last: np.ndarray, restrict_negative: bool, scratch: np.ndarray):
    """Overwrite ``last`` (len(t), samples) with sum_theta share max(-theta - last, 0)
    if ``restrict_negative``, else sum_theta share |theta + last|.  With theta
    sorted, c = #{theta_j <= -last} and a = theta_(max(c-1, 0)), the first is
    A_c + (-last - a) S_c per column; its prefix sums S_c = sum_(j<c) share_j
    and A_c = sum_(0<i<c) S_i (theta_i - theta_(i-1)) add terms >= 0.  The
    second adds suffix sums alike less (-last - a) U_c (U_c: the share from c
    on), which rounds to at most their first term U_c (theta_c - a) >= 0."""
    order = np.argsort(theta, kind="stable")
    theta, share = theta[order], share[order].T
    zero, step, below = np.zeros((len(share), 1)), np.diff(theta), np.cumsum(share, axis=1)
    slope = np.hstack([zero, below])
    intercept = np.hstack([zero, zero, np.cumsum(below[:, :-1] * step, axis=1)])
    if not restrict_negative:
        above = np.hstack([np.cumsum(share[:, ::-1], axis=1)[:, ::-1], zero])
        rest = np.cumsum(np.hstack([above[:, 1:-1] * step, zero])[:, ::-1], axis=1)[:, ::-1]
        intercept, slope = intercept + np.hstack([rest[:, :1], rest]), slope - above
    index = np.searchsorted(theta, np.negative(last, out=scratch), side="right")
    last += np.take(np.concatenate([theta[:1], theta]), index, out=scratch, mode="clip")
    index += np.arange(0, slope.size, theta.size + 1)[:, None]
    last *= np.take(-slope, index, out=scratch, mode="clip")  # (last + a)(-S): bit for bit
    last += np.take(intercept, index, out=scratch, mode="clip")


def _log_totals(draws, theta, t, log_weight: np.ndarray, restrict_negative: bool) -> np.ndarray:
    """Per draw (a, b2), log sum over the (theta, t) cells of |det(theta e1 e1^T
    + T - t I)| exp(log_weight); ``log_weight`` has shape (len(theta), len(t)).
    ``restrict_negative`` keeps only cells with no pivot above 0 (H <= 0).
    Per t column, exp(log_weight) = exp(L) * share with L the column's
    log-sum-exp, so a draw's total is sum_t exp(log_tail + L) * sum_theta
    share |p_1|: ``_theta_sums``' inner sum, at most max |p_1|.

    With ``restrict_negative``, a shift below every draw's ``_edge_bound`` less
    1e-9, far above the bound's rounding and the sweep's backward error (about
    1e-15), leaves a positive pivot p_d, ..., p_2 in every draw (Sylvester's
    inertia): it is -inf in every total and is not swept.  Each kept column is
    computed alone and the totals keep all len(t) columns, so the bits hold.
    """
    n_samples, keep = draws[0].shape[0], slice(None)
    if restrict_negative:
        keep = t >= np.min(_edge_bound(*draws)) - 1e-9
        if not keep.any():
            return np.full(n_samples, -np.inf)
    log_tail, n_positive, inner = _pivots(*draws, t[keep], restrict_negative)
    log_column = _log_sum_exp(log_weight.copy(), axis=0)[keep]
    # an all -inf column has L = -inf: share 0 there, not nan
    share = np.exp(log_weight[:, keep] - np.where(np.isfinite(log_column), log_column, 0.0))
    # F order: its first len(t[keep]) columns are ``_theta_sums``' scratch
    buffer = np.empty((n_samples, t.size), order="F")
    _theta_sums(theta, share, inner.T, restrict_negative, buffer[:, : inner.shape[1]].T)
    if restrict_negative:
        inner[n_positive != 0.0] = 0.0
    with np.errstate(divide="ignore"):
        np.log(inner, out=inner)
    log_tail += log_column
    log_tail += inner
    # all len(t) columns in C order, in the same buffer: the same pairwise sum
    totals = buffer.T.reshape(buffer.shape)
    if restrict_negative:
        totals[:, ~keep] = -np.inf
    totals[:, keep] = log_tail
    return _log_sum_exp(totals, axis=1)


def _log_sum_exp(a: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp(a) along ``axis``, overwriting ``a`` with exp(a - max).

    The only array made is the reduced one.  A slice whose maximum is not
    finite is shifted by 0 instead, so an all -inf slice gives log 0 = -inf,
    not nan.
    """
    top = np.max(a, axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    a -= top
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a, out=a), axis=axis)) + np.squeeze(top, axis=axis)


def log_count_prefactor(n: int, k: int) -> float:
    """log of the dimensional constant multiplying the count integral.

    log 2 + ((n-1)/2) log((n-1)/(2e)) - log Gamma((n-1)/2)
    + (1/2) log(n / ((k-1) e pi)).  Exponentially trivial: (1/n)|log| -> 0.
    ``n`` must be an integer >= 2 and ``k`` one >= 3 (neither a bool).

    With h = (n-1)/2, the terms h log(h/e) and log Gamma(h) nearly cancel
    (both about 5000 at n = 2000), so their difference is never formed by
    subtraction: for h >= 16 it is Stirling's series, (1/2) log(h / (2 pi))
    minus 1/(12h) - 1/(360h^3) + 1/(1260h^5) - 1/(1680h^7) + 1/(1188h^9),
    whose first omitted term is below 2e-16 there, and below 16 it is
    log(h^h e^-h / Gamma(h)).
    """
    n, k = _count(n, "n", 2), _count(k, "k", 3)
    half = 0.5 * (n - 1.0)
    if half >= 16.0:
        r = 1.0 / (half * half)
        series = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / half
        stirling = 0.5 * math.log(half / (2.0 * math.pi)) - series
    else:  # one log of a product of at most 3e18: no cancellation
        stirling = math.log(half**half * math.exp(-half) / math.gamma(half))
    return math.log(2.0) + stirling + 0.5 * math.log(n / ((k - 1.0) * math.e * math.pi))


#: the |m| bound of the count integral, see ``crt_expected``
_M_CLIP = 0.999


def crt_expected(
    params: ModelParams,
    n: int,
    m_interval: tuple[float, float] = (-0.99, 0.99),
    x_interval: tuple[float, float] = (-3.0, 3.0),
    m_steps: int = 60,
    x_steps: int = 60,
    n_samples: int = 500,
    seed: int | Sequence[int] = 0,
    which: str = "star",
    n_threads: int = 1,
) -> McEstimate:
    """Exact finite-n expected count of critical points ("star") or local maxima
    ("zero") with overlap in ``m_interval`` and objective value in ``x_interval``.

    Midpoint quadrature on an (m_steps x x_steps) grid of cell centers; the
    determinant expectation is estimated with ``n_samples`` shared draws.
    ``m_interval`` is clipped to [-0.999, 0.999]: the closed integrand has
    an integrable (1-m^2)^(-3/2) factor whose endpoint cells a midpoint rule
    cannot represent, and the clipped sliver carries no count mass at the
    scales of interest.  ``n_threads`` must be an integer >= 1 (not a bool)
    and has no effect: identical seeds give bit-identical estimates.
    ``seed`` is an integer >= 0 or a non-empty list or tuple of them, and
    each interval exactly two finite numbers (lo, hi).
    """
    for name, value, low in (("n", n, 3), ("n_samples", n_samples, 2),
                             ("m_steps", m_steps, 1), ("x_steps", x_steps, 1),
                             ("n_threads", n_threads, 1)):
        _count(value, name, low)
    seed = _seed(seed)
    for name, interval in (("m_interval", m_interval), ("x_interval", x_interval)):
        try:
            bounds = np.asarray(interval)
        except ValueError:  # a ragged nesting
            bounds = np.asarray(None)
        if not (bounds.shape == (2,) and bounds.dtype.kind in "iuf" and np.isfinite(bounds).all()):
            raise ValueError(f"{name} bounds must be finite and exactly two, got {interval!r}")
    if which not in ("star", "zero"):
        raise ValueError(f"which must be 'star' or 'zero', got {which!r}")
    m_lo = max(float(m_interval[0]), -_M_CLIP)
    m_hi = min(float(m_interval[1]), _M_CLIP)
    x_lo, x_hi = float(x_interval[0]), float(x_interval[1])
    if not m_lo < m_hi:
        raise ValueError("m_interval is empty after clipping")
    if not x_lo < x_hi:
        raise ValueError("x_interval is empty")

    theta, t, log_weight = _count_grid(params, n, (m_lo, m_hi), (x_lo, x_hi), m_steps, x_steps)
    draws = _tridiagonal(seed, n_samples, n - 1)
    log_totals = _log_totals(draws, theta, t, log_weight, which == "zero")
    log_totals += log_count_prefactor(n, params.k)
    return _mc_estimate(log_totals)


def _count_grid(params: ModelParams, n: int, m_interval, x_interval, m_steps: int, x_steps: int):
    """Midpoint cells of the (m, x) window as finite-n (theta, t) and the log
    weight of each cell, shape (m_steps, x_steps)."""
    (m_lo, m_hi), (x_lo, x_hi) = m_interval, x_interval
    dm, dx = (m_hi - m_lo) / m_steps, (x_hi - x_lo) / x_steps
    m = m_lo + (np.arange(m_steps) + 0.5) * dm
    x = x_lo + (np.arange(x_steps) + 0.5) * dx

    finite_n = math.sqrt(n / (n - 1.0))
    theta, t = finite_n * theta_of_m(params, m), finite_n * t_of_x(params, x)
    log_weight = (
        n * _s_star_without_phi(params, m[:, None], x[None, :])
        - 1.5 * np.log((1.0 - m) * (1.0 + m))[:, None]
        + math.log(dm * dx)
    )
    return theta, t, log_weight


def _mc_estimate(log_totals: np.ndarray) -> McEstimate:
    """Mean, standard error and health of the samples exp(log_totals), in log space."""
    n_samples = log_totals.size
    top = float(np.max(log_totals))
    if top == -math.inf:
        return McEstimate(
            mean=0.0, std_error=0.0, n_samples=n_samples, log_mean=-math.inf, log_std_error=0.0
        )
    r = np.exp(log_totals - top)
    r_sum = float(np.sum(r))
    r_mean = r_sum / n_samples
    r_se = float(np.std(r, ddof=1) / math.sqrt(n_samples))
    log_mean = top + math.log(r_mean)
    with np.errstate(over="ignore"):
        mean = float(np.exp(log_mean))
        se = float(np.exp(top) * r_se)
    return McEstimate(
        mean, se, n_samples, log_mean=log_mean, log_std_error=r_se / r_mean,
        ess_ratio=r_sum * r_sum / (n_samples * float(np.sum(r * r))),
        max_share=1.0 / r_sum,  # the largest r is exp(0)
    )


def growth_rate_fit(estimates: Sequence[tuple[int, float]]) -> float:
    """Least-squares slope of log expected count against n.

    ``estimates`` holds (n, log_count) pairs; at least three, with at least
    two distinct n.
    """
    if len(estimates) < 3:
        raise ValueError("growth_rate_fit needs at least 3 points")
    ns = np.array([float(n) for n, _ in estimates])
    logs = np.array([float(v) for _, v in estimates])
    if len(np.unique(ns)) < 2:
        raise ValueError("growth_rate_fit needs at least two distinct n")
    if not np.all(np.isfinite(logs)):
        raise ValueError("log counts must be finite for a slope fit")
    return float(np.polyfit(ns, logs, 1)[0])
