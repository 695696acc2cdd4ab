"""Tests for the finite-n expected-count Monte Carlo pipeline.

Oracles: folded-normal closed forms for the n=2 scalar case, tensor-product
Gauss-Hermite quadrature for the n=3 two-by-two case, and direct empirical
critical-point counting of sampled tensors at n=3.  The tridiagonal pivot
kernel is checked against dense linear algebra on the same matrix, and its
law against dense GOE draws.  Up to n = 640, the count density of one small
cell, divided by n, is checked to approach the closed-form surfaces.

``expected_abs_det`` below is ``crt_expected``'s one-cell case without the
weight, and ``sample_goe`` the dense GOE reference; both exist only to test
the library's kernel.  ``log_totals_per_sample`` is the direct reduction of
each sample's (m, x) grid that ``_log_totals`` factors per x column.
``pivots_reference`` and ``log_totals_reference`` are the row-major sweep
and reduction on (samples, len(t)) arrays, which the sample-contiguous
kernel reproduces bit for bit, including where it skips the shifts that no
draw can make a local maximum; the skip is checked against LAPACK's top
eigenvalue and the full sweep's inertia.  They take one log per block of
pivots and the theta sum from prefix tables, as the kernel does; the
per-pivot logs (``pivots_log_per_pivot``) and the per-row theta loop
(``theta_sums_loop``) that those replaced are second references, met within
error bounds derived where they are used.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import gammaln, logsumexp
from scipy.stats import norm

from conftest import not_counts, not_seeds
from tensorlandscape import kacrice
from tensorlandscape import (
    ModelParams,
    McEstimate,
    crt_expected,
    growth_rate_fit,
    log_count_prefactor,
)
from tensorlandscape.complexity import phi_star, s_star, s_zero, t_of_x, theta_of_m
from tensorlandscape.kacrice import (
    _count_grid,
    _edge_bound,
    _log_sum_exp,
    _log_totals,
    _mc_estimate,
    _pivots,
    _tridiagonal,
)
from tensorlandscape.simulate import find_critical_points, make_spiked_tensor


@dataclass(frozen=True)
class MatrixCoords:
    """Conditional-Hessian coordinates: rank-one strength ``theta``, spectral shift ``t``."""

    theta: float
    t: float


@dataclass(frozen=True)
class GOEMatrix:
    """A GOE(n) draw: symmetric, off-diagonal variance 1/n, diagonal variance 2/n."""

    n: int
    entries: np.ndarray


def sample_goe(n: int, seed: int) -> GOEMatrix:
    """Draw one GOE(n) matrix from the given seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a = np.random.default_rng(np.random.SeedSequence(seed)).normal(size=(n, n))
    return GOEMatrix(n=n, entries=(a + a.T) / math.sqrt(2.0 * n))


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
    condition.  ``n_threads`` must be >= 1 and has no effect: identical seeds
    give bit-identical estimates.  The draws are ``crt_expected``'s.
    """
    if n < 2:
        raise ValueError("n must be >= 2 (the matrix has dimension n - 1)")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if n_threads < 1:
        raise ValueError("n_threads must be >= 1")
    theta, t = np.array([float(coords.theta)]), np.array([float(coords.t)])
    draws = _tridiagonal(seed, n_samples, n - 1)
    values = np.exp(_log_totals(draws, theta, t, np.zeros((1, 1)), restrict_negative))
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return McEstimate(mean=mean, std_error=se, n_samples=n_samples)


def log_totals_per_sample(draws, theta, t, log_weight, restrict_negative):
    """``_log_totals`` cell by cell: one logsumexp over each sample's whole
    (theta, t) grid of log|p_1| + log_tail + log_weight."""
    log_tail, n_positive, last = _pivots(*draws, t)
    log_totals = np.empty(last.shape[0])
    for s in range(last.shape[0]):
        p1 = theta[:, None] + last[s]
        with np.errstate(divide="ignore"):
            log_det = log_tail[s] + np.log(np.abs(p1))
        if restrict_negative:
            log_det = np.where((p1 <= 0.0) & (n_positive[s] == 0), log_det, -np.inf)
        log_totals[s] = logsumexp(log_det + log_weight)
    return log_totals


#: the kernel's block length and the |p| range a block's product takes
BLOCK, SAFE = 16, (2.0**-63, 2.0**63)

#: the unit roundoff
UNIT = 2.0**-53


def pivots_reference(a, b2, t):
    """``_pivots`` on (samples, len(t)) arrays, one new array per step: each
    cell multiplies its |p_i| in SAFE over blocks of BLOCK steps and adds the
    block's log at its end (and after the last step); a |p_i| outside SAFE
    adds its own log at its step instead."""
    pivmin = np.finfo(float).tiny * np.maximum(1.0, np.max(b2, axis=1, initial=0.0))[:, None]
    log_tail, n_positive = np.zeros((2, a.shape[0], t.size))
    product = np.ones((a.shape[0], t.size))
    last = a[:, -1:] - t
    for step, i in enumerate(range(a.shape[1] - 2, -1, -1)):
        p = np.where(np.abs(last) < pivmin, -pivmin, last)
        size = np.abs(p)
        alone = (size < SAFE[0]) | (size > SAFE[1])
        log_tail = np.where(alone, log_tail + np.log(size), log_tail)
        product = product * np.where(alone, 1.0, size)
        if step % BLOCK == BLOCK - 1 or i == 0:
            log_tail = log_tail + np.log(product)
            product = np.ones_like(product)
        n_positive += p > 0.0
        last = a[:, i : i + 1] - t - b2[:, i : i + 1] / p
    return log_tail, n_positive, last


def pivots_log_per_pivot(a, b2, t):
    """The sweep with one log per pivot, on (samples, len(t)) arrays; also
    returns sum_i |log|p_i||, the scale of its rounding."""
    pivmin = np.finfo(float).tiny * np.maximum(1.0, np.max(b2, axis=1, initial=0.0))[:, None]
    log_tail, n_positive, scale = np.zeros((3, a.shape[0], t.size))
    last = a[:, -1:] - t
    for i in range(a.shape[1] - 2, -1, -1):
        p = np.where(np.abs(last) < pivmin, -pivmin, last)
        log_tail += np.log(np.abs(p))
        scale += np.abs(np.log(np.abs(p)))
        n_positive += p > 0.0
        last = a[:, i : i + 1] - t - b2[:, i : i + 1] / p
    return log_tail, n_positive, last, scale


def theta_sums_reference(theta, share, last, restrict_negative):
    """``_theta_sums`` on (samples, len(t)) arrays ``last``, one new array per
    step: per column, over sorted theta, the prefix share S_c, the prefix
    A_c = sum_(0<i<c) S_i (theta_i - theta_(i-1)) and, for the full sum, the
    suffix share U_c and suffix B_c = sum_(i>=max(c,1)) U_i (theta_i -
    theta_(i-1)); then A_c + B_c - (last + a)(S_c - U_c) at c = #{theta_j <=
    -last}, a = theta_(max(c-1, 0))."""
    order = np.argsort(theta, kind="stable")
    theta, share = theta[order], share[order]
    size = theta.size
    below, above = [np.zeros(share.shape[1])], [np.zeros(share.shape[1])]
    for j in range(size):
        below.append(below[-1] + share[j])
        above.insert(0, above[0] + share[size - 1 - j])
    prefix = [np.zeros(share.shape[1])] * 2
    for c in range(2, size + 1):
        prefix.append(prefix[-1] + below[c - 1] * (theta[c - 1] - theta[c - 2]))
    slope, intercept = np.array(below), np.array(prefix)
    if not restrict_negative:
        suffix = [np.zeros(share.shape[1])]
        for c in range(size - 1, 0, -1):
            suffix.insert(0, suffix[0] + above[c] * (theta[c] - theta[c - 1]))
        intercept = intercept + np.array(suffix[:1] + suffix)
        slope = slope - np.array(above)
    c = np.searchsorted(theta, -last, side="right")
    column = np.arange(last.shape[1])
    anchor = theta[np.maximum(c - 1, 0)]
    return (last + anchor) * -slope[c, column] + intercept[c, column]


def theta_sums_loop(theta, share, last, restrict_negative):
    """The inner sum one theta row at a time, on (samples, len(t)) arrays."""
    inner = np.zeros_like(last)
    for theta_i, share_i in zip(theta, share):
        cell = last + theta_i
        cell = np.maximum(-cell, 0.0) if restrict_negative else np.abs(cell)
        inner += cell * share_i
    return inner


def log_totals_reference(draws, theta, t, log_weight, restrict_negative):
    """``_log_totals`` on ``pivots_reference``'s (samples, len(t)) arrays."""
    log_tail, n_positive, last = pivots_reference(*draws, t)
    log_column = _log_sum_exp(log_weight.copy(), axis=0)
    share = np.exp(log_weight - np.where(np.isfinite(log_column), log_column, 0.0))
    inner = theta_sums_reference(theta, share, last, restrict_negative)
    if restrict_negative:
        inner[n_positive != 0.0] = 0.0
    with np.errstate(divide="ignore"):
        log_inner = np.log(inner)
    log_tail += log_column
    log_tail += log_inner
    return _log_sum_exp(log_tail, axis=1)


def folded_normal_mean(mu, sigma):
    """E|X| for X ~ N(mu, sigma^2)."""
    return sigma * math.sqrt(2.0 / math.pi) * math.exp(
        -mu * mu / (2.0 * sigma * sigma)
    ) + mu * (1.0 - 2.0 * norm.cdf(-mu / sigma))


def negative_part_mean(mu, sigma):
    """E[max(0, -X)] = E[|X| 1{X <= 0}] for X ~ N(mu, sigma^2)."""
    return sigma * norm.pdf(mu / sigma) - mu * norm.cdf(-mu / sigma)


def hermite_2x2_abs_det(theta, t, nodes=64):
    """E|det([[g11 + theta, g12], [g12, g22]] - t I)| by Gauss-Hermite.

    g11, g22 ~ N(0, 1) and g12 ~ N(0, 1/2), the entry law of the deformed
    2x2 matrix used for n = 3.
    """
    z, w = np.polynomial.hermite_e.hermegauss(nodes)
    z1 = z[:, None, None]
    z2 = z[None, :, None]
    z3 = z[None, None, :]
    det = (z1 + theta - t) * (z2 - t) - (z3 / math.sqrt(2.0)) ** 2
    weight = w[:, None, None] * w[None, :, None] * w[None, None, :]
    return float(np.sum(weight * np.abs(det)) / (2.0 * math.pi) ** 1.5)


def tridiagonal_matrix(a, b2):
    """The explicit symmetric tridiagonal matrix with diagonal a and off-diagonal sqrt(b2)."""
    b = np.sqrt(b2)
    return np.diag(a) + np.diag(b, 1) + np.diag(b, -1)


class TestPivotKernel:
    """The LDL^T pivot sweep against dense linear algebra on the same matrices."""

    @pytest.mark.parametrize("d", [1, 2, 39])
    @pytest.mark.parametrize("theta", [-3.0, 0.4, 3.0])
    def test_log_abs_det_and_inertia_match_eigvalsh(self, d, theta):
        a, b2 = _tridiagonal(5, 6, d)
        for s in range(6):
            h = tridiagonal_matrix(a[s], b2[s])
            h[0, 0] += theta
            eig = np.linalg.eigvalsh(h)
            # shifts below and above the spectrum and, away from every
            # eigenvalue, in its widest gap and its middle gap
            t = [eig[0] - 1.0, eig[-1] + 1.0]
            if d > 1:
                gaps = np.diff(eig)
                for i in (int(np.argmax(gaps)), (d - 1) // 2):
                    t.append(0.5 * (eig[i] + eig[i + 1]))
            t = np.array(t)
            log_tail, n_positive, last = _pivots(a[s : s + 1], b2[s : s + 1], t)
            p1 = theta + last[0]
            log_det = log_tail[0] + np.log(np.abs(p1))
            expected = np.sum(np.log(np.abs(eig[:, None] - t)), axis=0)
            np.testing.assert_allclose(log_det, expected, rtol=0.0, atol=1e-12)
            np.testing.assert_array_equal(n_positive[0] + (p1 > 0.0),
                                          np.sum(eig[:, None] > t, axis=0))

    def test_exactly_zero_pivot_stays_finite(self):
        # p_3 = a_3 - t is exactly 0; floored at -pivmin, the sweep goes on
        # and the product of the pivots is still the determinant
        a, b2 = np.array([[0.7, -0.4, 0.25]]), np.array([[0.3, 0.5]])
        theta, t = 0.2, np.array([0.25])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            log_tail, n_positive, last = _pivots(a, b2, t)
        p1 = theta + last[0, 0]
        log_det = log_tail[0, 0] + math.log(abs(p1))
        h = tridiagonal_matrix(a[0], b2[0]) - t[0] * np.eye(3)
        h[0, 0] += theta
        assert math.isfinite(log_det)
        assert log_det == pytest.approx(math.log(abs(np.linalg.det(h))), rel=0.0, abs=1e-12)
        assert n_positive[0, 0] + (p1 > 0.0) == np.sum(np.linalg.eigvalsh(h) > 0.0)

    @staticmethod
    def assert_same_bits(a, b2, t):
        want = pivots_reference(a, b2, t)
        for count_positive in (True, False):
            got = _pivots(a, b2, t, count_positive)
            for name, g, w in zip(("log_tail", "n_positive", "last"), got, want):
                if name == "n_positive" and not count_positive:
                    assert g is None
                else:
                    assert g.shape == w.shape, name
                    np.testing.assert_array_equal(g, w, err_msg=name)

    @pytest.mark.parametrize("d", [1, 2, 39, 159])
    def test_same_bits_as_the_row_major_sweep(self, d):
        a, b2 = _tridiagonal(9, 40, d)
        assert a.T.flags.c_contiguous and b2.T.flags.c_contiguous
        t = np.linspace(-3.0, 3.0, 61)
        self.assert_same_bits(a, b2, t)  # _tridiagonal's sample-contiguous views
        self.assert_same_bits(np.ascontiguousarray(a), np.ascontiguousarray(b2), t)
        self.assert_same_bits(a[9:17], b2[9:17], t)  # row slices
        self.assert_same_bits(a[3:4], b2[3:4], t[5:6])

    def test_same_bits_where_the_floor_fires(self):
        tiny = np.finfo(float).tiny
        # p_3 = 0 exactly (test_exactly_zero_pivot_stays_finite's matrix)
        self.assert_same_bits(np.array([[0.7, -0.4, 0.25]]), np.array([[0.3, 0.5]]),
                              np.array([0.25, 0.1]))
        # p_3 = 2 tiny in both rows: floored where pivmin = 4 tiny (max b^2 = 4),
        # kept where pivmin = tiny, in the same step
        a = np.array([[0.7, -0.4, 3.0 * tiny], [0.2, 0.9, 3.0 * tiny]])
        b2 = np.array([[0.3, 4.0], [0.5, 0.25]])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            self.assert_same_bits(a, b2, np.array([tiny, 0.5]))
        log_tail, _, _ = _pivots(a, b2, np.array([tiny]))
        p3 = np.array([-4.0 * tiny, 2.0 * tiny])
        p2 = np.array([-0.4 - tiny - 4.0 / p3[0], 0.9 - tiny - 0.25 / p3[1]])
        np.testing.assert_allclose(log_tail[:, 0], np.log(np.abs(p3)) + np.log(np.abs(p2)),
                                   rtol=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 17, 39, 159, 639])
    def test_block_logs_match_per_pivot_logs(self, d):
        # The pivots are the same floats on both sides (n_positive and last
        # keep their bits), so only the logs differ.  With u = UNIT,
        # gamma_k = k u / (1 - k u), S = sum_i |log|p_i|| and np.log taken
        # to be within 4 ulp (8u |log x|):
        # - a block's product of at most 16 |p| in SAFE rounds by at most
        #   gamma_15 relatively, which moves its log by at most 16u;
        # - summing at most 2d terms errs by at most gamma_2d times their
        #   magnitudes, at most S plus rounding, per side gamma_d for d - 1
        #   logs per pivot;
        # so |blocked - per pivot| <= 16u (d / 16 + 1)
        #   + 1.01 (16u + gamma_2d + gamma_d) S.
        a, b2 = _tridiagonal(d, 50, d)
        t = np.linspace(-3.0, 3.0, 61)
        log_tail, n_positive, last = _pivots(a, b2, t)
        want, want_positive, want_last, scale = pivots_log_per_pivot(a, b2, t)
        np.testing.assert_array_equal(n_positive, want_positive)
        np.testing.assert_array_equal(last, want_last)

        def gamma(k):
            return k * UNIT / (1.0 - k * UNIT)

        bound = 16.0 * UNIT * (d / 16.0 + 1.0) + 1.01 * (16.0 * UNIT + gamma(2 * d)
                                                         + gamma(d)) * scale
        assert np.all(np.abs(log_tail - want) <= bound)
        if d > BLOCK:  # the logs are taken per block, not per pivot
            assert np.any(log_tail != want)

    def test_one_cell_leaves_the_safe_range(self):
        # Draw 2 at t = 0 gets p_34 = 0 exactly, at step 5 of the first
        # block: the floor makes it -pivmin and the next pivot about
        # b_33^2 / pivmin, both outside SAFE and logged alone.  Every other
        # cell keeps the bits it has without that draw or that shift.
        a, b2 = (np.array(v) for v in _tridiagonal(11, 6, 40))
        t = np.array([-0.5, 0.0, 0.7])
        p = a[2, 39] - 0.0
        for i in range(38, 34, -1):
            p = a[2, i] - 0.0 - b2[2, i] / p
        a[2, 34] = b2[2, 34] / p
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = _pivots(a, b2, t)
        others = np.arange(6) != 2
        for g, w in zip(got, _pivots(a[others], b2[others], t)):
            np.testing.assert_array_equal(g[others], w)
        for g, w in zip(got, _pivots(a[2:3], b2[2:3], t[[0, 2]])):
            np.testing.assert_array_equal(g[2, [0, 2]], w[0])
        for g, w in zip(got, pivots_reference(a, b2, t)):
            np.testing.assert_array_equal(g, w)
        # the floored cell is finite and still the log-determinant
        log_tail, n_positive, last = got
        h = tridiagonal_matrix(a[2], b2[2])
        pivmin = np.finfo(float).tiny * max(1.0, float(np.max(b2[2])))
        assert abs(a[2, 33] + b2[2, 33] / pivmin) > SAFE[1]
        log_det = log_tail[2, 1] + math.log(abs(last[2, 1]))
        assert math.isfinite(log_det)
        assert log_det == pytest.approx(np.linalg.slogdet(h)[1], rel=0.0, abs=1e-10)
        assert n_positive[2, 1] + (last[2, 1] > 0.0) == np.sum(np.linalg.eigvalsh(h) > 0.0)

    @pytest.mark.parametrize("restrict", [False, True])
    def test_abs_det_law_matches_dense_goe(self, restrict):
        # d = 5: the tridiagonal estimator against dense GOE(5) draws
        theta, t, samples = 0.5, 1.5, 6000
        w = np.array([sample_goe(5, seed=10_000 + i).entries for i in range(samples)])
        w[:, 0, 0] += theta
        h = w - t * np.eye(5)
        values = np.abs(np.linalg.det(h))
        if restrict:
            values = values * (np.linalg.eigvalsh(h)[:, -1] <= 0.0)
        dense_se = values.std(ddof=1) / math.sqrt(samples)
        est = expected_abs_det(6, MatrixCoords(theta=theta, t=t), n_samples=samples,
                               seed=17, restrict_negative=restrict)
        assert abs(est.mean - values.mean()) < 4.0 * math.hypot(est.std_error, dense_se)


class TestTridiagonal:
    """The draws are numpy's ``gamma`` and ``normal`` in their order."""

    @pytest.mark.parametrize("seed, samples, dim", [
        (0, 400, 159), (3, 7, 1), (5, 9, 2), (8, 3, 3), ([3, 40], 50, 39), (11, 2, 640),
    ])
    def test_is_the_gamma_draw_bit_for_bit(self, seed, samples, dim):
        a, b2 = _tridiagonal(seed, samples, dim)
        rng = np.random.default_rng(seed)
        want_a = rng.normal(scale=math.sqrt(2.0 / dim), size=(samples, dim))
        want_b2 = rng.gamma(np.arange(dim - 1.0, 0.0, -1.0) / 2.0, 2.0 / dim,
                            size=(samples, dim - 1))
        np.testing.assert_array_equal(a, want_a)
        np.testing.assert_array_equal(b2, want_b2)
        assert a.shape == (samples, dim) and b2.shape == (samples, dim - 1)
        assert a.T.flags.c_contiguous and b2.T.flags.c_contiguous


class TestThetaSums:
    """The prefix-table theta sum against the row-major tables and the per-row loop."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        theta=st.lists(st.one_of(st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.0]),
                                 st.floats(-6.0, 6.0, allow_subnormal=False)),
                       min_size=1, max_size=9),
        columns=st.integers(1, 4),
        samples=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
        empty_column=st.booleans(),
        restrict=st.booleans(),
    )
    def test_matches_the_row_loop(self, theta, columns, samples, seed, empty_column, restrict):
        # Bounds, with u = UNIT and M = len(theta); gamma_k = k u / (1 - k u).
        # The loop sums M terms >= 0 and is within gamma_(M+1) of the exact
        # sum, relatively.  "zero": S_c (prefix of <= M shares), A_c (prefix
        # of S_i times one rounded difference) and (-last - a) S_c are all
        # >= 0, so A_c + (-last - a) S_c is within gamma_(2M+1) relatively;
        # together |prefix - loop| <= 4 (M + 1) u * loop.  "star": the tables
        # are within gamma_(2M+1) of sum_m share_m |theta_m - a| and gamma_M
        # of the signed share S_c - U_c, so the sum is within
        # gamma_(2M+3) sum_m share_m (|theta_m - a| + |last + a|)
        # <= gamma_(2M+3) sum_m share_m (3 max|theta| + |last|), and the loop
        # within gamma_(M+1) of that too: 4 (M + 1) u times it bounds both.
        # (The model of rounding assumes no underflow: theta is not subnormal.)
        theta = np.array(theta)
        rng = np.random.default_rng(seed)
        share = np.exp(rng.normal(scale=3.0, size=(theta.size, columns)))
        share *= rng.random(share.shape) < 0.8  # some shares exactly 0
        share /= np.maximum(share.sum(axis=0), np.finfo(float).tiny)
        if empty_column:
            share[:, rng.integers(columns)] = 0.0
        last = rng.uniform(-8.0, 8.0, size=(samples, columns))
        source = rng.integers(4, size=last.shape)
        last[source == 0] = -theta[rng.integers(theta.size, size=last.shape)][source == 0]
        last[source == 1] = rng.choice([-1e6, 1e6], size=last.shape)[source == 1]
        got = last.T.copy()  # (len(t), samples), C order
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            kacrice._theta_sums(theta, share, got, restrict, np.empty_like(got))
        got = got.T
        np.testing.assert_array_equal(got, theta_sums_reference(theta, share, last, restrict))
        want = theta_sums_loop(theta, share, last, restrict)
        if restrict:
            scale = want
        else:
            scale = share.sum(axis=0) * (3.0 * np.max(np.abs(theta)) + np.abs(last))
        assert np.all(got >= 0.0)
        assert np.all(np.abs(got - want) <= 4.0 * (theta.size + 1) * UNIT * scale)

    @pytest.mark.parametrize("restrict", [False, True])
    def test_equal_thetas_have_one_breakpoint(self, restrict):
        # lambda = 0: every theta is 0, so the sum is |last| or max(-last, 0)
        # times the column's share
        share = np.array([[0.25, 0.0], [0.5, 0.0], [0.25, 0.0]])
        last = np.array([[-2.0, -1.0, 0.0, 1.5], [3.0, -3.0, 0.0, 0.5]])
        got = last.copy()
        kacrice._theta_sums(np.zeros(3), share, got, restrict, np.empty_like(got))
        part = np.maximum(-last[0], 0.0) if restrict else np.abs(last[0])
        np.testing.assert_array_equal(got, [part, np.zeros(4)])


class TestLogTotals:
    """The per-column reduction against the per-sample grid reduction."""

    @pytest.mark.parametrize("restrict", [False, True])
    @pytest.mark.parametrize("lam", [0.0, 1.5])
    @pytest.mark.parametrize("n", [3, 6, 40, 160])
    @pytest.mark.parametrize("window, steps", [
        (((-0.99, 0.99), (-3.0, 3.0)), 60), (((0.2, 0.4), (1.4, 1.6)), 1),
    ])
    def test_matches_per_sample_reduction(self, restrict, lam, n, window, steps):
        theta, t, log_weight = _count_grid(ModelParams(3, lam), n, *window, steps, steps)
        draws = _tridiagonal(8, 100, n - 1)
        got = _log_totals(draws, theta, t, log_weight, restrict)
        want = log_totals_per_sample(draws, theta, t, log_weight, restrict)
        assert np.isfinite(want).any()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("restrict", [False, True])
    @pytest.mark.parametrize("lam", [0.0, 1.5])
    @pytest.mark.parametrize("n", [3, 40, 160])
    @pytest.mark.parametrize("window, m_steps, x_steps", [
        (((0.2, 0.4), (1.4, 1.6)), 1, 1), (((-0.99, 0.99), (-3.0, 3.0)), 60, 60),
        (((-0.99, 0.99), (-3.0, 3.0)), 7, 480),
    ])
    def test_same_bits_as_the_row_major_reduction(self, restrict, lam, n, window, m_steps,
                                                  x_steps):
        # the oracle's bytes: the sample-contiguous sweep and reduction give
        # every total of the row-major ones bit for bit
        theta, t, log_weight = _count_grid(ModelParams(3, lam), n, *window, m_steps, x_steps)
        draws = _tridiagonal(12, 50, n - 1)
        got = _log_totals(draws, theta, t, log_weight, restrict)
        np.testing.assert_array_equal(
            got, log_totals_reference(draws, theta, t, log_weight, restrict))
        assert np.isfinite(got).any()

    @pytest.mark.parametrize("restrict", [False, True])
    def test_zero_second_pivot_does_not_overflow(self, restrict):
        # p_3 = 0.5 and p_2 = a_2 - t - b_2^2 / p_3 = 0 exactly: floored at
        # -pivmin, it leaves last = a_1 - t + b_1^2 / pivmin = 1 / tiny
        a, b2 = np.array([[0.7, 0.75, 0.75]]), np.array([[4.0, 0.25]])
        theta, t = np.linspace(-3.0, 3.0, 60), np.array([0.25, -0.5, 1.0])
        log_weight = np.linspace(-5.0, 5.0, 180).reshape(60, 3)
        with np.errstate(over="raise", invalid="raise"):
            _, _, last = _pivots(a, b2, t)
            got = _log_totals((a, b2), theta, t, log_weight, restrict)
        assert last[0, 0] == pytest.approx(1.0 / np.finfo(float).tiny, rel=1e-15)
        want = log_totals_per_sample((a, b2), theta, t, log_weight, restrict)
        # the floor is negative, so last is huge and positive: p_1 > 0 masks
        # every cell of the restricted total
        assert np.all(got == -np.inf) if restrict else np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_fully_masked_sample_is_minus_infinity(self):
        # every shift below the spectrum: all pivots positive, no local maximum
        draws = _tridiagonal(2, 5, 5)
        theta, t = np.array([-1.0, 0.0, 1.0]), np.array([-20.0, -15.0])
        got = _log_totals(draws, theta, t, np.zeros((3, 2)), True)
        assert np.all(got == -np.inf)

    @pytest.mark.parametrize("restrict", [False, True])
    def test_empty_weight_column_adds_nothing(self, restrict):
        theta, t, log_weight = _count_grid(ModelParams(3, 1.5), 6, (-0.99, 0.99),
                                          (-3.0, 3.0), 20, 20)
        draws = _tridiagonal(4, 50, 5)
        log_weight[:, 7] = -np.inf
        with np.errstate(invalid="raise"):
            got = _log_totals(draws, theta, t, log_weight, restrict)
        keep = np.arange(t.size) != 7
        without = _log_totals(draws, theta, t[keep], log_weight[:, keep], restrict)
        np.testing.assert_allclose(got, without, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("restrict", [False, True])
    def test_rows_are_independent(self, restrict):
        theta, t, log_weight = _count_grid(ModelParams(3, 1.5), 12, (-0.99, 0.99),
                                          (-3.0, 3.0), 30, 40)
        a, b2 = _tridiagonal(6, 40, 11)
        full = _log_totals((a, b2), theta, t, log_weight, restrict)
        part = _log_totals((a[9:17], b2[9:17]), theta, t, log_weight, restrict)
        np.testing.assert_array_equal(part, full[9:17])


def swept_shifts(monkeypatch):
    """Record the shifts of every ``_pivots`` sweep that ``_log_totals`` runs."""
    seen = []

    def spy(a, b2, t, count_positive=True):
        seen.append(t.copy())
        return _pivots(a, b2, t, count_positive)

    monkeypatch.setattr(kacrice, "_pivots", spy)
    return seen


class TestEdgePruning:
    """The "zero" reduction skips the shifts below every draw's edge bound."""

    @pytest.mark.parametrize("d", [2, 3, 5, 39, 159, 639])
    def test_bound_is_below_the_top_eigenvalue(self, d):
        a, b2 = _tridiagonal(d, 300, d)
        bound = _edge_bound(a, b2)
        top = np.array([eigvalsh_tridiagonal(a[s, 1:], np.sqrt(b2[s, 1:]), select="i",
                                             select_range=(d - 2, d - 2))[0]
                        for s in range(a.shape[0])])
        # the bound is a Rayleigh quotient: below the top up to rounding,
        # which the margin exceeds by far
        assert np.all(bound <= top + 1e-12)
        assert np.all(top - bound < 1.0)

    def test_empty_block_has_no_bound(self):
        a, b2 = _tridiagonal(0, 7, 1)
        assert np.all(_edge_bound(a, b2) == -np.inf)

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("n", [3, 6, 40, 160, 640])
    @pytest.mark.parametrize("lam", [0.0, 1.5, 3.0])
    def test_skipped_shifts_have_a_positive_pivot_in_every_draw(self, monkeypatch, k, n, lam):
        theta, t, log_weight = _count_grid(ModelParams(k, lam), n, (-0.99, 0.99),
                                          (-3.0, 3.0), 60, 60)
        draws = _tridiagonal([k, n], 400, n - 1)
        seen = swept_shifts(monkeypatch)
        _log_totals(draws, theta, t, log_weight, True)
        skipped = ~np.isin(t, seen[0]) if seen else np.ones(t.size, bool)
        _, n_positive, _ = _pivots(*draws, t)
        assert np.all(n_positive[:, skipped] >= 1)
        # and almost every shift that no draw can use is skipped
        dead = np.all(n_positive != 0, axis=0)
        if n >= 40:
            assert skipped.sum() >= dead.sum() - 2 > 30

    def test_star_sweeps_every_shift(self, monkeypatch):
        theta, t, log_weight = _count_grid(ModelParams(3, 0.0), 40, (-0.99, 0.99),
                                          (-3.0, 3.0), 60, 60)
        seen = swept_shifts(monkeypatch)
        _log_totals(_tridiagonal(1, 50, 39), theta, t, log_weight, False)
        np.testing.assert_array_equal(seen[0], t)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 8),
        n_samples=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        t=st.lists(st.one_of(st.floats(-4.0, 4.0), st.floats(-1e6, -5.0),
                             st.floats(5.0, 1e6)), min_size=1, max_size=12),
        theta=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=5),
        empty_column=st.booleans(),
        restrict=st.booleans(),
    )
    def test_same_bits_as_the_unpruned_reduction(self, d, n_samples, seed, t, theta,
                                                 empty_column, restrict):
        t, theta = np.array(t), np.array(theta)
        rng = np.random.default_rng(seed)
        log_weight = rng.normal(scale=3.0, size=(theta.size, t.size))
        if empty_column:
            log_weight[:, rng.integers(t.size)] = -np.inf
        draws = _tridiagonal(seed, n_samples, d)
        got = _log_totals(draws, theta, t, log_weight, restrict)
        assert got.shape == (n_samples,)
        np.testing.assert_array_equal(
            got, log_totals_reference(draws, theta, t, log_weight, restrict))

    def test_every_shift_skipped_sweeps_nothing(self, monkeypatch):
        draws = _tridiagonal(3, 9, 6)
        t = np.min(_edge_bound(*draws)) - 1e-6 - np.array([0.0, 4.0, 1.0])
        seen = swept_shifts(monkeypatch)
        got = _log_totals(draws, np.array([-1.0, 0.5]), t, np.zeros((2, 3)), True)
        assert seen == []
        assert got.shape == (9,) and np.all(got == -np.inf)
        np.testing.assert_array_equal(
            got, log_totals_reference(draws, np.array([-1.0, 0.5]), t, np.zeros((2, 3)), True))

    def test_dimension_one_skips_nothing(self, monkeypatch):
        # no pivot above p_1: every shift is swept, and low ones live
        draws, theta, t = _tridiagonal(5, 8, 1), np.array([0.0, 2.0]), np.array([10.0, -10.0, 0.0])
        log_weight = np.zeros((2, 3))
        seen = swept_shifts(monkeypatch)
        got = _log_totals(draws, theta, t, log_weight, True)
        np.testing.assert_array_equal(seen[0], t)
        np.testing.assert_array_equal(got, log_totals_reference(draws, theta, t, log_weight, True))
        assert np.all(np.isfinite(got))


class TestLogSumExp:
    """The in-package reduction against ``scipy.special.logsumexp``."""

    @staticmethod
    def check(a, axis):
        want = logsumexp(a, axis=axis)
        work = a.copy()
        with np.errstate(invalid="raise"):
            got = _log_sum_exp(work, axis)
        assert got.shape == want.shape
        # relative, and absolute near a result of 0 (a total near 1)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
        return work

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (60, 60), (400, 60), (7, 3)])
    def test_random_arrays(self, axis, shape):
        rng = np.random.default_rng(list(shape))
        self.check(40.0 * rng.standard_normal(shape) + 5.0, axis)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("lam", [0.0, 1.5, 3.0])
    @pytest.mark.parametrize("n", [3, 6, 40, 160, 640])
    def test_count_grids_with_empty_rows_and_columns(self, axis, lam, n):
        _, _, log_weight = _count_grid(ModelParams(3, lam), n, (-0.99, 0.99), (-3.0, 3.0),
                                       60, 60)
        self.check(log_weight, axis)
        log_weight[4, :] = log_weight[:, 11] = -np.inf
        self.check(log_weight, axis)

    def test_all_minus_infinity_is_minus_infinity(self):
        a = np.full((3, 4), -np.inf)
        a[1, 2] = 0.5
        self.check(a, 0)
        self.check(a, 1)
        assert list(_log_sum_exp(a.copy(), 1)) == [-np.inf, 0.5, -np.inf]
        assert list(_log_sum_exp(a.copy(), 0)) == [-np.inf, -np.inf, 0.5, -np.inf]

    def test_overwrites_its_input_with_the_shifted_exponentials(self):
        a = np.log(np.array([[1.0, 3.0], [2.0, 6.0]]))
        work = self.check(a, 1)
        np.testing.assert_allclose(work, [[1.0 / 3.0, 1.0], [1.0 / 3.0, 1.0]], rtol=1e-15)


class TestSampleGoe:
    def test_symmetric_and_deterministic(self):
        a = sample_goe(8, seed=123)
        b = sample_goe(8, seed=123)
        assert a.n == 8
        assert np.array_equal(a.entries, a.entries.T)
        assert np.array_equal(a.entries, b.entries)
        c = sample_goe(8, seed=124)
        assert not np.array_equal(a.entries, c.entries)

    def test_entry_variances(self):
        n = 500
        g = sample_goe(n, seed=0).entries
        iu = np.triu_indices(n, k=1)
        off = g[iu]
        diag = np.diag(g)
        # var estimates: relative sd sqrt(2/N), bounds at 4 sigma
        off_rel = abs(off.var(ddof=1) * n - 1.0)
        diag_rel = abs(diag.var(ddof=1) * n / 2.0 - 1.0)
        assert off_rel < 4.0 * math.sqrt(2.0 / off.size)
        assert diag_rel < 4.0 * math.sqrt(2.0 / diag.size)
        assert abs(off.mean()) < 4.0 / math.sqrt(n * off.size)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            sample_goe(0, seed=0)


class TestExpectedAbsDet:
    # n=2: the matrix is the scalar g + theta - t with g ~ N(0, 2), so the
    # expectation has a folded-normal closed form.
    SIGMA = math.sqrt(2.0)

    @pytest.mark.parametrize(
        "theta,t",
        [(0.0, 0.0), (5.0, 0.0), (1.5, -0.7)],
    )
    def test_scalar_case_folded_normal(self, theta, t):
        exact = folded_normal_mean(theta - t, self.SIGMA)
        est = expected_abs_det(
            2, MatrixCoords(theta=theta, t=t), n_samples=20000, seed=7
        )
        assert abs(est.mean - exact) < 4.0 * est.std_error

    def test_scalar_case_center_value(self):
        # theta = t = 0: E|N(0, 2)| = 2 / sqrt(pi)
        exact = 2.0 / math.sqrt(math.pi)
        est = expected_abs_det(2, MatrixCoords(theta=0.0, t=0.0), n_samples=20000, seed=7)
        assert abs(est.mean - exact) < 4.0 * est.std_error
        assert abs(exact - folded_normal_mean(0.0, self.SIGMA)) < 1e-15

    @pytest.mark.parametrize(
        "theta,t",
        [(0.0, 0.0), (1.5, -0.7)],
    )
    def test_scalar_case_restricted(self, theta, t):
        exact = negative_part_mean(theta - t, self.SIGMA)
        est = expected_abs_det(
            2,
            MatrixCoords(theta=theta, t=t),
            n_samples=20000,
            seed=7,
            restrict_negative=True,
        )
        assert abs(est.mean - exact) < 4.0 * est.std_error
        # theta = t = 0 splits the folded mean in half: 1 / sqrt(pi)
        if theta == 0.0 and t == 0.0:
            assert abs(exact - 1.0 / math.sqrt(math.pi)) < 1e-15

    def test_two_by_two_against_quadrature(self):
        # n=3: tensor-product Gauss-Hermite over the three Gaussian entries
        theta, t = 1.0, 0.5
        oracle = hermite_2x2_abs_det(theta, t)
        # quadrature self-consistency: node count does not move the value
        assert abs(oracle - hermite_2x2_abs_det(theta, t, nodes=96)) < 1e-3
        est = expected_abs_det(3, MatrixCoords(theta=theta, t=t), n_samples=8000, seed=13)
        assert abs(est.mean - oracle) < 4.0 * est.std_error

    def test_restricted_at_most_unrestricted(self):
        coords = MatrixCoords(theta=0.8, t=0.9)
        full = expected_abs_det(6, coords, n_samples=500, seed=3)
        neg = expected_abs_det(6, coords, n_samples=500, seed=3, restrict_negative=True)
        # same draws, some zeroed: the mean can only go down
        assert neg.mean <= full.mean

    def test_shift_symmetry_at_zero_theta(self):
        # theta = 0: the spectrum is symmetric in law, so t and -t agree
        a = expected_abs_det(6, MatrixCoords(theta=0.0, t=1.2), n_samples=4000, seed=21)
        b = expected_abs_det(6, MatrixCoords(theta=0.0, t=-1.2), n_samples=4000, seed=22)
        z = abs(a.mean - b.mean) / math.hypot(a.std_error, b.std_error)
        assert z < 4.0

    def test_thread_count_does_not_change_result(self):
        coords = MatrixCoords(theta=1.1, t=0.3)
        a = expected_abs_det(6, coords, n_samples=2000, seed=9, n_threads=1)
        b = expected_abs_det(6, coords, n_samples=2000, seed=9, n_threads=3)
        assert a.mean == b.mean
        assert a.std_error == b.std_error

    def test_rejects_bad_arguments(self):
        coords = MatrixCoords(theta=0.0, t=0.0)
        with pytest.raises(ValueError):
            expected_abs_det(1, coords)
        with pytest.raises(ValueError):
            expected_abs_det(4, coords, n_samples=0)

    def test_rejects_nonpositive_thread_count(self):
        coords = MatrixCoords(theta=0.0, t=0.0)
        for threads in (0, -4):
            with pytest.raises(ValueError):
                expected_abs_det(4, coords, n_samples=2, n_threads=threads)


class TestMcHealth:
    def test_equal_samples(self):
        est = _mc_estimate(np.full(8, 3.5))
        assert est.ess_ratio == 1.0
        assert est.max_share == 1.0 / 8.0

    def test_uneven_samples(self):
        # values 1, 1, 2, 0: (sum)^2 / (N sum of squares) = 16 / (4 * 6)
        est = _mc_estimate(np.array([0.0, 0.0, math.log(2.0), -np.inf]) + 30.0)
        assert est.ess_ratio == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert est.max_share == pytest.approx(0.5, rel=1e-15)

    def test_bounds_on_a_real_estimate(self):
        est = crt_expected(ModelParams(3, 0.0), 40, n_samples=200, seed=1, which="zero")
        assert 1.0 / 200 <= est.ess_ratio <= 1.0
        # the largest sample carries at least the mean's share of the total
        assert 1.0 / 200 <= est.max_share <= 1.0

    def test_all_zero_samples_leave_health_unset(self):
        est = _mc_estimate(np.full(4, -np.inf))
        assert est.mean == 0.0 and est.ess_ratio is None and est.max_share is None

    def test_defaults_keep_the_plain_constructor(self):
        est = McEstimate(mean=1.0, std_error=0.1, n_samples=10)
        assert est.ess_ratio is None and est.max_share is None

    def test_sample_count_is_a_count(self):
        for n_samples in not_counts(1):
            with pytest.raises(ValueError, match="^n_samples must be >= 1 and an integer"):
                McEstimate(mean=1.0, std_error=0.1, n_samples=n_samples)


class TestLogCountPrefactor:
    def test_exponentially_trivial(self):
        # the constant contributes nothing at exponential scale
        assert abs(log_count_prefactor(50, 3)) / 50.0 < 0.2
        rates = [abs(log_count_prefactor(n, 3)) / n for n in (20, 50, 100)]
        assert rates[0] > rates[1] > rates[2]

    @pytest.mark.parametrize("k", [3, 4, 8])
    def test_matches_the_gammaln_formula(self, k):
        # the terms nearly cancel at large n, so the tolerance is relative
        # to log Gamma((n-1)/2), the one term whose evaluation differs
        for n in range(3, 2001):
            half = 0.5 * (n - 1.0)
            want = (math.log(2.0) + half * math.log(half / math.e) - float(gammaln(half))
                    + 0.5 * math.log(n / ((k - 1.0) * math.e * math.pi)))
            scale = max(abs(float(gammaln(half))), abs(want))
            assert abs(log_count_prefactor(n, k) - want) <= 1e-14 * scale, n

    @pytest.mark.parametrize("k", [3, 4, 8])
    def test_matches_high_precision(self, k):
        # within 4 ulp of the 50-digit value: the two terms that cancel at
        # large n (both about 5000 at n = 2000) must not be subtracted
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for n in [*range(2, 2001), *range(2001, 20001, 97)]:
                half = mpmath.mpf(n - 1) / 2
                want = (mpmath.log(2) + half * mpmath.log(half / mpmath.e)
                        - mpmath.loggamma(half)
                        + mpmath.log(n / ((k - 1) * mpmath.e * mpmath.pi)) / 2)
                tol = 4 * math.ulp(max(1.0, abs(float(want))))
                assert abs(log_count_prefactor(n, k) - want) <= tol, n

    def test_rejects_bad_arguments(self):
        for n in not_counts(2):
            with pytest.raises(ValueError, match="^n must be >= 2 and an integer"):
                log_count_prefactor(n, 3)
        for k in not_counts(3):
            with pytest.raises(ValueError, match="^k must be >= 3 and an integer"):
                log_count_prefactor(10, k)


class TestCrtExpected:
    def test_thread_and_rerun_determinism(self):
        params = ModelParams(3, 1.0)
        kwargs = dict(m_steps=20, x_steps=20, n_samples=60, seed=4)
        a = crt_expected(params, 5, n_threads=1, **kwargs)
        b = crt_expected(params, 5, n_threads=3, **kwargs)
        c = crt_expected(params, 5, n_threads=1, **kwargs)
        assert a.log_mean == b.log_mean == c.log_mean
        assert a.std_error == b.std_error == c.std_error

    @pytest.mark.parametrize("which", ["star", "zero"])
    def test_thread_count_leaves_every_field_at_n160(self, which):
        kwargs = dict(n_samples=100, seed=11, which=which)
        one = crt_expected(ModelParams(3, 0.0), 160, n_threads=1, **kwargs)
        assert one == crt_expected(ModelParams(3, 0.0), 160, n_threads=3, **kwargs)
        assert math.isfinite(one.log_mean) and one.ess_ratio is not None

    def test_local_maxima_at_most_critical_points(self):
        params = ModelParams(3, 0.0)
        kwargs = dict(m_steps=30, x_steps=30, n_samples=200, seed=2)
        star = crt_expected(params, 6, which="star", **kwargs)
        zero = crt_expected(params, 6, which="zero", **kwargs)
        assert zero.log_mean <= star.log_mean

    def test_low_value_window_has_no_maxima(self):
        # local maxima concentrate at objective values above the spectral
        # cutoff; a window capped at 0.5 catches essentially none of them
        params = ModelParams(3, 0.0)
        kwargs = dict(x_interval=(-3.0, 0.5), m_steps=40, x_steps=40,
                      n_samples=300, seed=1)
        star = crt_expected(params, 10, which="star", **kwargs)
        zero = crt_expected(params, 10, which="zero", **kwargs)
        assert star.mean > 1.0
        assert zero.mean <= 1e-8 * star.mean

    def test_growth_rate_trend_pure_noise(self):
        # lambda = 0: the count rate (1/n) log E decreases toward its limit
        # (1/2) log 2 ~= 0.3466 from above; at n = 40 it is inside the
        # limit + 0.15 corridor, and the fitted slope brackets the limit
        params = ModelParams(3, 0.0)
        rates, pairs = [], []
        for n in (10, 20, 40):
            est = crt_expected(params, n, n_samples=400, seed=0, which="star")
            rates.append(est.log_mean / n)
            pairs.append((n, est.log_mean))
        assert rates[0] > rates[1] > rates[2]
        assert rates[2] > 0.5 * math.log(2.0)
        assert rates[2] < 0.5 * math.log(2.0) + 0.15
        slope = growth_rate_fit(pairs)
        assert 0.25 < slope < 0.40

    def test_matches_empirical_counts_small_n(self):
        # strongest oracle: count critical points of actual sampled tensors
        # at n = 3 by multi-start root finding, then compare windowed counts
        n, k = 3, 3
        u = np.zeros(n)
        u[0] = 1.0
        totals, maxima = [], []
        for d in range(12):
            tensor = make_spiked_tensor(n, k, 0.0, u, seed=3000 + d)
            records, _ = find_critical_points(tensor, n_starts=500, seed=13000 + d)
            inside = [r for r in records if abs(r.m) <= 0.99 and abs(r.f_value) <= 3.0]
            totals.append(len(inside))
            maxima.append(sum(1 for r in inside if r.index == 0))
        totals = np.asarray(totals, dtype=float)
        maxima = np.asarray(maxima, dtype=float)
        emp, emp_se = totals.mean(), totals.std(ddof=1) / math.sqrt(totals.size)
        emp0, emp0_se = maxima.mean(), maxima.std(ddof=1) / math.sqrt(maxima.size)

        params = ModelParams(k, 0.0)
        kwargs = dict(m_steps=80, x_steps=80, n_samples=1500, seed=5)
        star = crt_expected(params, n, which="star", **kwargs)
        zero = crt_expected(params, n, which="zero", **kwargs)
        # 5 combined standard errors plus a small quadrature/clipping slack
        tol = 5.0 * math.hypot(emp_se, star.std_error) + 0.05 * star.mean
        tol0 = 5.0 * math.hypot(emp0_se, zero.std_error) + 0.05 * zero.mean
        assert abs(emp - star.mean) < tol
        assert abs(emp0 - zero.mean) < tol0

    def test_matches_homotopy_counts(self):
        # the oracle with exact inventories: every critical point of each
        # sampled n = 4 tensor, found by the homotopy, counted in the window
        n, k = 4, 3
        u = np.zeros(n)
        u[0] = 1.0
        for lam in (0.0, 1.5):
            totals, maxima = [], []
            for d in range(80):
                tensor = make_spiked_tensor(n, k, lam, u, seed=4000 + d)
                records, failures = find_critical_points(tensor, n_starts=1, seed=d)
                assert failures == 0
                inside = [r for r in records if abs(r.m) <= 0.99 and abs(r.f_value) <= 3.0]
                totals.append(len(inside))
                maxima.append(sum(1 for r in inside if r.index == 0))
            params = ModelParams(k, lam)
            kwargs = dict(m_steps=80, x_steps=80, n_samples=5000, seed=5)
            for which, counts in (("star", totals), ("zero", maxima)):
                counts = np.asarray(counts, dtype=float)
                emp, emp_se = counts.mean(), counts.std(ddof=1) / math.sqrt(counts.size)
                est = crt_expected(params, n, which=which, **kwargs)
                # test_matches_empirical_counts_small_n's rule
                tol = 5.0 * math.hypot(emp_se, est.std_error) + 0.05 * est.mean
                assert abs(emp - est.mean) < tol, (lam, which, emp, est.mean)

    @pytest.mark.parametrize("seed", not_seeds())
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="^seed must be"):
            crt_expected(ModelParams(3, 1.0), 5, n_samples=2, seed=seed)

    def test_seed_forms_give_the_same_estimate(self):
        params = ModelParams(3, 1.0)
        for one, other in ((7, np.int64(7)), ([3, 4], (3, 4))):
            assert (crt_expected(params, 5, n_samples=20, seed=one)
                    == crt_expected(params, 5, n_samples=20, seed=other))

    def test_rejects_bad_arguments(self):
        params = ModelParams(3, 1.0)
        with pytest.raises(ValueError):
            crt_expected(params, 2)
        with pytest.raises(ValueError):
            crt_expected(params, 5, which="both")
        with pytest.raises(ValueError):
            crt_expected(params, 5, n_samples=1)
        with pytest.raises(ValueError):
            crt_expected(params, 5, m_interval=(0.9995, 0.9999))
        with pytest.raises(ValueError):
            crt_expected(params, 5, x_interval=(1.0, 1.0))
        # every count is an integer >= its minimum, not a bool, and the
        # error names it
        for name, low in (("n", 3), ("n_samples", 2), ("m_steps", 1), ("x_steps", 1),
                          ("n_threads", 1)):
            for value in not_counts(low):
                args = dict(n=5, n_samples=2, m_steps=2, x_steps=2) | {name: value}
                with pytest.raises(ValueError, match=f"^{name} must be >= {low} and an integer"):
                    crt_expected(params, **args)

    @pytest.mark.parametrize("name, interval", [
        ("m_interval", (-math.inf, 0.5)), ("m_interval", (-0.5, math.nan)),
        ("x_interval", (-math.inf, 3.0)), ("x_interval", (-3.0, math.nan)),
        ("x_interval", (math.nan, math.inf)),
    ])
    def test_rejects_nonfinite_interval_bounds_at_entry(self, monkeypatch, name, interval):
        # named in the error before any grid is built, and without a
        # floating-point warning on the way
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(kacrice, "_count_grid", no_grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} bounds must be finite"):
                crt_expected(ModelParams(3, 0.0), 5, n_samples=2, **{name: interval})

    @pytest.mark.parametrize("name, interval", [
        ("m_interval", (-0.5, 0.5, 7.0)), ("x_interval", 1.0), ("x_interval", (1.0,)),
    ])
    def test_rejects_an_interval_that_is_not_two_numbers(self, name, interval):
        with pytest.raises(ValueError, match=f"^{name} bounds must be finite and exactly two"):
            crt_expected(ModelParams(3, 0.0), 5, n_samples=2, **{name: interval})

    def test_growth_rate_large_n(self):
        # lambda = 0 at n in the hundreds: the slope of log E[count] is
        # within 0.03 of its n -> oo limit (1/2) log 2
        params = ModelParams(3, 0.0)
        pairs = [(n, crt_expected(params, n, n_samples=200, seed=0).log_mean)
                 for n in (160, 320, 640)]
        assert abs(growth_rate_fit(pairs) - 0.5 * math.log(2.0)) < 0.03

    @pytest.mark.parametrize("which, lam, m, x", [
        ("star", 1.5, 0.3, 0.5), ("star", 0.0, 0.0, 0.3), ("zero", 1.5, 0.3, 1.4),
    ])
    def test_cell_density_tends_to_the_limit(self, which, lam, m, x):
        # one small cell: (log E[count] - log area) / n -> s_star or s_zero at (m, x)
        params, h = ModelParams(3, lam), 1e-3
        limit = (s_star if which == "star" else s_zero)(params, m, x)
        gaps = [abs((crt_expected(params, n, m_interval=(m - h, m + h),
                                  x_interval=(x - h, x + h), m_steps=1, x_steps=1,
                                  n_samples=200, seed=0, which=which).log_mean
                     - math.log(4.0 * h * h)) / n - limit)
                for n in (40, 160, 640)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.03

    def test_rejects_grid_steps_below_one(self):
        params = ModelParams(3, 1.0)
        for steps in (dict(m_steps=0), dict(m_steps=-3), dict(x_steps=0)):
            with pytest.raises(ValueError, match="must be >= 1"):
                crt_expected(params, 5, n_samples=2, **steps)

    @pytest.mark.parametrize("setting", [
        {"n": 10.0}, {"n": True}, {"n_samples": 2.5}, {"n_samples": 200.0},
        {"m_steps": 2.5}, {"m_steps": math.nan}, {"x_steps": True}, {"x_steps": "3"},
    ])
    def test_rejects_grid_and_sample_counts_that_are_not_integers(self, setting):
        # a fractional grid would cover more than the window; the error
        # names the count
        args = dict(n=10, n_samples=2, m_steps=2, x_steps=2) | setting
        with pytest.raises(ValueError, match=f"^{next(iter(setting))} must be"):
            crt_expected(ModelParams(3, 0.0), **args)

    def test_rejects_nonpositive_thread_count(self):
        params = ModelParams(3, 1.0)
        for threads in (0, -4):
            with pytest.raises(ValueError):
                crt_expected(params, 5, m_steps=2, x_steps=2, n_samples=2,
                             n_threads=threads)


class TestEstimatorAgreement:
    """On one grid cell, crt_expected is the closed-form weight times the
    prefactor times expected_abs_det at the finite-n matrix coordinates,
    sample for sample: both estimators draw from the same spawned seeds."""

    @pytest.mark.parametrize("which", ["star", "zero"])
    @pytest.mark.parametrize("k,lam,n", [(3, 1.5, 6), (4, 0.8, 9)])
    def test_one_cell_grid(self, which, k, lam, n):
        params = ModelParams(k, lam)
        (m_lo, m_hi), (x_lo, x_hi) = (0.3, 0.5), (1.0, 1.4)
        samples, seed = 300, 11
        est = crt_expected(params, n, m_interval=(m_lo, m_hi), x_interval=(x_lo, x_hi),
                           m_steps=1, x_steps=1, n_samples=samples, seed=seed, which=which)

        dm, dx = m_hi - m_lo, x_hi - x_lo
        m, x = m_lo + 0.5 * dm, x_lo + 0.5 * dx
        weight = (n * (s_star(params, m, x) - phi_star(t_of_x(params, x)))
                  - 1.5 * math.log(1.0 - m * m) + math.log(dm * dx))
        finite_n = math.sqrt(n / (n - 1.0))
        coords = MatrixCoords(theta=finite_n * theta_of_m(params, m),
                              t=finite_n * t_of_x(params, x))
        det = expected_abs_det(n, coords, n_samples=samples, seed=seed,
                               restrict_negative=which == "zero")
        assert det.mean > 0.0
        expected = log_count_prefactor(n, k) + weight + math.log(det.mean)
        assert est.log_mean == pytest.approx(expected, rel=0.0, abs=1e-12)


class TestGrowthRateFit:
    def test_exact_linear_data(self):
        assert growth_rate_fit([(10, 3.0), (20, 6.0), (30, 9.0)]) == pytest.approx(0.3)

    def test_noisy_linear_data(self):
        rng = np.random.default_rng(17)
        ns = np.arange(5, 45, 5)
        sigma = 0.3
        logs = 1.2 + 0.35 * ns + sigma * rng.normal(size=ns.size)
        slope = growth_rate_fit(list(zip(ns.tolist(), logs.tolist())))
        # least squares: sd of the slope is sigma / sqrt(sum (n - mean)^2)
        slope_se = sigma / math.sqrt(np.sum((ns - ns.mean()) ** 2))
        assert abs(slope - 0.35) < 2.0 * slope_se

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            growth_rate_fit([(10, 3.0), (20, 6.0)])
        with pytest.raises(ValueError):
            growth_rate_fit([(10, 3.0), (10, 3.1), (10, 2.9)])
        with pytest.raises(ValueError):
            growth_rate_fit([(10, 3.0), (20, -math.inf), (30, 9.0)])
