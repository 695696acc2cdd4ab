"""Tests for the finite-n expected-count Monte Carlo pipeline.

Oracles: folded-normal closed forms for the n=2 scalar case, tensor-product
Gauss-Hermite quadrature for the n=3 two-by-two case, and direct empirical
critical-point counting of sampled tensors at n=3.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

from tensorlandscape import (
    ModelParams,
    crt_expected,
    expected_abs_det,
    growth_rate_fit,
    log_count_prefactor,
    sample_goe,
)
from tensorlandscape.complexity import MatrixCoords, phi_star, s_star, t_of_x, theta_of_m
from tensorlandscape.simulate import find_critical_points, make_spiked_tensor


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

    def test_log_eigenvalue_determinant_identity(self):
        # the sampler works through eigenvalues; check against a direct
        # determinant on a 5x5 deformed draw
        theta, t = 1.3, 0.4
        h = sample_goe(5, seed=42).entries.copy()
        h[0, 0] += theta
        eig = np.linalg.eigvalsh(h)
        via_eig = float(np.exp(np.sum(np.log(np.abs(eig - t)))))
        direct = abs(float(np.linalg.det(h - t * np.eye(5))))
        assert via_eig == pytest.approx(direct, rel=1e-10)

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


class TestLogCountPrefactor:
    def test_exponentially_trivial(self):
        # the constant contributes nothing at exponential scale
        assert abs(log_count_prefactor(50, 3)) / 50.0 < 0.2
        rates = [abs(log_count_prefactor(n, 3)) / n for n in (20, 50, 100)]
        assert rates[0] > rates[1] > rates[2]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            log_count_prefactor(1, 3)
        with pytest.raises(ValueError):
            log_count_prefactor(10, 2)


class TestCrtExpected:
    def test_thread_and_rerun_determinism(self):
        params = ModelParams(3, 1.0)
        kwargs = dict(m_steps=20, x_steps=20, n_samples=60, seed=4)
        a = crt_expected(params, 5, n_threads=1, **kwargs)
        b = crt_expected(params, 5, n_threads=3, **kwargs)
        c = crt_expected(params, 5, n_threads=1, **kwargs)
        assert a.log_mean == b.log_mean == c.log_mean
        assert a.std_error == b.std_error == c.std_error

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
        with pytest.raises(ValueError):
            crt_expected(params, 5, m_clip=1.0)

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
