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

* every Monte Carlo sample owns a seed spawned from the caller's seed, and
  samples run one after another in a plain loop.  A two-thread pool over
  samples measured slower in total than this loop on the benchmark's oracle
  estimates, so ``n_threads`` is only validated (>= 1) and has no effect.
* one GOE draw is shared across all grid cells (common random numbers): the
  cell coordinates enter only through the rank-one strength theta_n(m), which
  requires one eigendecomposition per distinct theta (``_deformed_spectra``),
  and the scalar shift t_n(x), which is free once the eigenvalues are known.
  theta_n and t_n are ``theta_of_m`` and ``t_of_x`` scaled by sqrt(n/(n-1)),
  and the exponential weight is n times the terms of ``s_star`` other than
  ``phi_star``: every formula comes from :mod:`tensorlandscape.complexity`.
* restricting to local maxima multiplies the integrand by 1{H <= 0}, i.e.
  1{max eig <= t_n(x)}; the restricted estimate is sample-by-sample at most
  the unrestricted one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

from .complexity import MatrixCoords, ModelParams, _s_star_without_phi, t_of_x, theta_of_m

__all__ = [
    "GOEMatrix",
    "McEstimate",
    "sample_goe",
    "expected_abs_det",
    "crt_expected",
    "growth_rate_fit",
    "log_count_prefactor",
]


@dataclass(frozen=True)
class GOEMatrix:
    """A GOE(n) draw: symmetric, off-diagonal variance 1/n, diagonal variance 2/n."""

    n: int
    entries: np.ndarray


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate: sample mean, standard error (sample std / sqrt(N)), size.

    For exponentially large quantities the log-scale fields are the usable
    ones: ``log_mean`` = log of the sample mean, ``log_std_error`` = relative
    standard error, which is the standard error of the log to first order.
    """

    mean: float
    std_error: float
    n_samples: int
    log_mean: float | None = None
    log_std_error: float | None = None

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not self.std_error >= 0.0:
            raise ValueError("std_error must be >= 0")


def _goe_entries(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    return (a + a.T) / math.sqrt(2.0 * n)


def sample_goe(n: int, seed: int) -> GOEMatrix:
    """Draw one GOE(n) matrix from the given seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return GOEMatrix(n=n, entries=_goe_entries(rng, n))


def _deformed_spectra(seed: np.random.SeedSequence, dim: int, thetas: np.ndarray) -> np.ndarray:
    """Eigenvalues of theta e1 e1^T + W for one GOE(dim) draw W and each theta.

    Returns shape (len(thetas), dim), each row ascending.  Each theta deforms
    a fresh copy of the draw: adding theta to w[0, 0] and subtracting it
    again would not restore the entry's bits.
    """
    w = _goe_entries(np.random.default_rng(seed), dim)
    eig = np.empty((len(thetas), dim))
    for i, theta in enumerate(thetas):
        deformed = w.copy()
        deformed[0, 0] += theta
        eig[i] = np.linalg.eigvalsh(deformed)
    return eig


def _log_abs_det(eig: np.ndarray, t: np.ndarray, restrict_negative: bool) -> np.ndarray:
    """log|det(H - t I)| for spectra ``eig`` (rows) and shifts ``t`` (columns).

    With ``restrict_negative`` the entry is -inf wherever the shifted matrix
    has an eigenvalue above 0, i.e. is not a local-maximum Hessian.
    """
    with np.errstate(divide="ignore"):
        log_det = np.array([np.sum(np.log(np.abs(row[:, None] - t)), axis=0) for row in eig])
    if restrict_negative:
        log_det = np.where(eig[:, -1:] <= t, log_det, -np.inf)
    return log_det


def expected_abs_det(
    n: int,
    coords: MatrixCoords,
    n_samples: int = 1000,
    seed: int = 0,
    restrict_negative: bool = False,
    n_threads: int = 1,
) -> McEstimate:
    """Monte Carlo E|det(theta e1 e1^T + W_(n-1) - t I)|, optionally on {H <= 0}.

    ``restrict_negative`` inserts the indicator that the matrix is negative
    semidefinite (its largest eigenvalue at most 0), the local-maximum
    condition.  ``n_threads`` must be >= 1 and has no effect: samples run
    serially, so identical seeds give bit-identical estimates.
    """
    if n < 2:
        raise ValueError("n must be >= 2 (the matrix has dimension n - 1)")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    thetas, t = np.array([float(coords.theta)]), np.array([float(coords.t)])
    values = np.empty(n_samples)
    for i, s in enumerate(np.random.SeedSequence(seed).spawn(n_samples)):
        log_det = _log_abs_det(_deformed_spectra(s, n - 1, thetas), t, restrict_negative)
        values[i] = np.exp(log_det[0, 0])
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return McEstimate(mean=mean, std_error=se, n_samples=n_samples)


def log_count_prefactor(n: int, k: int) -> float:
    """log of the dimensional constant multiplying the count integral.

    log 2 + ((n-1)/2) log((n-1)/(2e)) - log Gamma((n-1)/2)
    + (1/2) log(n / ((k-1) e pi)).  Exponentially trivial: (1/n)|log| -> 0.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if k < 3:
        raise ValueError("k must be >= 3")
    half = 0.5 * (n - 1.0)
    return (
        math.log(2.0)
        + half * math.log(half / math.e)
        - float(gammaln(half))
        + 0.5 * math.log(n / ((k - 1.0) * math.e * math.pi))
    )


def crt_expected(
    params: ModelParams,
    n: int,
    m_interval: tuple[float, float] = (-0.99, 0.99),
    x_interval: tuple[float, float] = (-3.0, 3.0),
    m_steps: int = 60,
    x_steps: int = 60,
    n_samples: int = 500,
    seed: int = 0,
    which: str = "star",
    n_threads: int = 1,
    m_clip: float = 0.999,
) -> McEstimate:
    """Exact finite-n expected count of critical points ("star") or local maxima
    ("zero") with overlap in ``m_interval`` and objective value in ``x_interval``.

    Midpoint quadrature on an (m_steps x x_steps) grid of cell centers; the
    determinant expectation is estimated with ``n_samples`` shared GOE draws.
    ``m_interval`` is clipped to [-m_clip, m_clip]: the closed integrand has
    an integrable (1-m^2)^(-3/2) factor whose endpoint cells a midpoint rule
    cannot represent, and the clipped sliver carries no count mass at the
    scales of interest.  ``n_threads`` must be >= 1 and has no effect: samples
    run serially, so identical seeds give bit-identical estimates.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if which not in ("star", "zero"):
        raise ValueError(f"which must be 'star' or 'zero', got {which!r}")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    if not 0.0 < m_clip < 1.0:
        raise ValueError("m_clip must lie in (0, 1)")
    if n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    m_lo = max(float(m_interval[0]), -m_clip)
    m_hi = min(float(m_interval[1]), m_clip)
    x_lo, x_hi = float(x_interval[0]), float(x_interval[1])
    if not m_lo < m_hi:
        raise ValueError("m_interval is empty after clipping")
    if not x_lo < x_hi:
        raise ValueError("x_interval is empty")

    dm = (m_hi - m_lo) / m_steps
    dx = (x_hi - x_lo) / x_steps
    m = m_lo + (np.arange(m_steps) + 0.5) * dm
    x = x_lo + (np.arange(x_steps) + 0.5) * dx

    finite_n = math.sqrt(n / (n - 1.0))
    theta = finite_n * theta_of_m(params, m)
    t = finite_n * t_of_x(params, x)
    # one eigendecomposition per distinct rank-one strength (lam = 0 has one)
    theta_unique, theta_inverse = np.unique(theta, return_inverse=True)
    log_weight = (
        n * _s_star_without_phi(params, m[:, None], x[None, :])
        - 1.5 * np.log(1.0 - m * m)[:, None]
        + math.log(dm * dx)
    )  # (m_steps, x_steps)

    restrict = which == "zero"
    log_totals = np.empty(n_samples)
    for i, s in enumerate(np.random.SeedSequence(seed).spawn(n_samples)):
        log_det = _log_abs_det(_deformed_spectra(s, n - 1, theta_unique), t, restrict)
        log_totals[i] = logsumexp(log_det[theta_inverse] + log_weight)
    log_totals += log_count_prefactor(n, params.k)

    top = float(np.max(log_totals))
    if top == -math.inf:
        return McEstimate(
            mean=0.0, std_error=0.0, n_samples=n_samples, log_mean=-math.inf, log_std_error=0.0
        )
    r = np.exp(log_totals - top)
    r_mean = float(np.mean(r))
    r_se = float(np.std(r, ddof=1) / math.sqrt(n_samples))
    log_mean = top + math.log(r_mean)
    with np.errstate(over="ignore"):
        mean = float(np.exp(log_mean))
        se = float(np.exp(top) * r_se)
    return McEstimate(
        mean=mean,
        std_error=se,
        n_samples=n_samples,
        log_mean=log_mean,
        log_std_error=r_se / r_mean,
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
