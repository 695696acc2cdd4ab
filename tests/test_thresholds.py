"""Unit tests for SNR thresholds, hemisphere formulas, and the good maximum."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize

from conftest import not_counts
from tensorlandscape import (
    ModelParams,
    ThresholdReport,
    f_alpha,
    good_location_zero,
    lambda_critical,
    m_critical,
    minimize_g,
    s_g,
    s_star_projection,
    s_u,
    threshold_report,
)
from tensorlandscape import thresholds


def zero_characteristic(params, m):
    """m^(2k-4) (1-m^2) - 1/(2 k lam^2): vanishes where s_g does (m > 0)."""
    k, lam = params.k, params.lam
    return m ** (2 * k - 4) * (1 - m * m) - 1.0 / (2.0 * k * lam * lam)


class TestLambdaCritical:
    def test_k3_twelve_digits(self):
        assert abs(lambda_critical(3) - math.sqrt(2.0 / 3.0)) < 5e-13

    def test_k4(self):
        assert abs(lambda_critical(4) - math.sqrt(27.0 / 32.0)) < 1e-14

    def test_general_formula(self):
        for k in (3, 4, 5, 8):
            expected = math.sqrt((k - 1.0) ** (k - 1)
                                 / (2.0 * k * (k - 2.0) ** (k - 2)))
            assert abs(lambda_critical(k) - expected) < 1e-13

    def test_domain(self):
        for k in not_counts(3):
            with pytest.raises(ValueError, match="^k must be >= 3 and an integer"):
                lambda_critical(k)


class TestMCritical:
    def test_continuity_of_branches(self):
        # the two hemisphere formulas agree at the crossover overlap
        for k, lam in [(3, 3.0), (4, 1.2), (5, 0.9)]:
            params = ModelParams(k, lam)
            mc = m_critical(params)
            assert 0.0 < mc
            if mc < 1.0:
                assert abs(s_u(params, mc) - s_g(params, mc)) < 1e-12

    def test_at_critical_snr_hits_characteristic_peak(self):
        for k in (3, 4, 6):
            params = ModelParams(k, lambda_critical(k))
            m_peak = math.sqrt((k - 2.0) / (k - 1.0))
            assert abs(m_critical(params) - m_peak) < 1e-12

    def test_exceeds_one_at_weak_snr(self):
        # below this scale the dispatch never switches branches
        assert m_critical(ModelParams(3, 0.2)) > 1.0

    def test_requires_positive_snr(self):
        with pytest.raises(ValueError):
            m_critical(ModelParams(3, 0.0))


class TestSU:
    def test_zero_overlap_value(self):
        assert abs(s_u(ModelParams(3, 3.0), 0.0) - 0.5 * math.log(2.0)) < 1e-15
        assert abs(s_u(ModelParams(5, 0.3), 0.0) - 0.5 * math.log(4.0)) < 1e-15

    def test_high_precision_spot_value(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            k, lam, m = 3, mpmath.mpf(3), mpmath.mpf("0.3")
            half = mpmath.mpf(1) / 2
            expected = (half * mpmath.log(1 - m ** 2)
                        - k * lam ** 2 * m ** (2 * k - 2) * (1 - m ** 2)
                        + (k / mpmath.mpf(k - 2)) * lam ** 2 * m ** (2 * k)
                        + half * mpmath.log(k - 1))
        assert abs(s_u(ModelParams(3, 3.0), 0.3) - float(expected)) < 1e-14

    def test_domain(self):
        params = ModelParams(3, 1.0)
        with pytest.raises(ValueError):
            s_u(params, 1.0)
        with pytest.raises(ValueError):
            s_u(params, -0.1)


class TestSG:
    def test_nonpositive_on_dense_grid(self):
        m = np.linspace(0.0, 0.999999, 5000)
        for k, lam in [(3, 1.5), (4, 2.0), (5, 3.0), (3, 30.0)]:
            assert np.max(s_g(ModelParams(k, lam), m)) <= 1e-12

    def test_origin_degenerate_zero(self):
        # every term vanishes at m=0; the informative zeros are the m>0 roots
        assert s_g(ModelParams(3, 2.0), 0.0) == 0.0

    def test_vanishes_exactly_on_root_set(self):
        params = ModelParams(3, 3.0)
        # m^2 (1-m^2) = 1/54 has two roots in (0,1)
        roots = np.sqrt(np.sort(np.roots([1.0, -1.0, 1.0 / 54.0])))
        for r in roots:
            assert abs(s_g(params, float(r))) < 1e-12
        # strictly negative away from {0} and the root set
        m = np.linspace(0.01, 0.999, 800)
        mask = np.all(np.abs(m[:, None] - roots[None, :]) > 0.01, axis=1)
        assert np.max(s_g(params, m[mask])) < -1e-7

    def test_matches_one_variable_representation(self):
        for k, lam in [(3, 3.0), (4, 1.1), (5, 2.4)]:
            params = ModelParams(k, lam)
            for m in np.linspace(0.05, 0.99, 30):
                w = math.sqrt(k / 2.0) * lam * m ** k
                assert abs(s_g(params, m) - f_alpha(m * m, w)) < 1e-10


class TestHighPrecisionDifferential:
    """s_u and s_g against 40-digit mpmath, near m = 1 and at large w.

    Errors are measured against the sum of the terms' magnitudes, with
    -w^2 + w sqrt(1 + w^2) counted as the one term w / (w + sqrt(1 + w^2)).
    The points are where the naive forms cancel: 1 - m*m would lose about
    2.5e-10 at m = 1 - 1e-9, and -w^2 + w sqrt(1 + w^2) 3.2e-10 at lam = 1e3,
    m = 0.99.
    """

    @pytest.fixture(autouse=True)
    def _mp(self):
        mpmath = pytest.importorskip("mpmath")
        saved = mpmath.mp.dps
        mpmath.mp.dps = 40
        self.mp = mpmath
        yield
        mpmath.mp.dps = saved

    def ref_branches(self, k, lam, m):
        """((s_u, scale), (s_g, scale)) at m."""
        mp = self.mp
        k, lam, m = mp.mpf(k), mp.mpf(lam), mp.mpf(m)
        one_minus = 1 - m * m
        w = mp.sqrt(k / 2) * lam * m**k
        common = [mp.log(one_minus) / 2, -k * lam**2 * m ** (2 * k - 2) * one_minus]
        low = [mp.log(k - 1) / 2] + common + [k / (k - 2) * lam**2 * m ** (2 * k)]
        high = common + [w / (w + mp.sqrt(1 + w * w)), mp.asinh(w)]
        return [(sum(t), sum(abs(v) for v in t)) for t in (low, high)]

    @pytest.mark.parametrize("k, lam", [(3, 3.0), (3, 32.0), (3, 1e3), (4, 1.7), (5, 0.9)])
    def test_branches(self, k, lam):
        params = ModelParams(k, lam)
        for m in (0.0, 0.3, 0.7, 0.99, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12):
            (low, low_scale), (high, high_scale) = self.ref_branches(k, lam, m)
            assert abs(s_u(params, m) - low) <= 2e-15 * (1 + low_scale), m
            assert abs(s_g(params, m) - high) <= 2e-15 * (1 + high_scale), m


class TestFAlpha:
    def test_tangent_zero_location(self):
        for alpha in (0.1, 0.5, 0.9):
            x0 = alpha / (2.0 * math.sqrt(1.0 - alpha))
            assert abs(f_alpha(alpha, x0)) < 1e-12
            x = np.linspace(0.0, 3.0, 500)
            vals = f_alpha(alpha, x)
            assert np.max(vals[np.abs(x - x0) > 0.05]) < -1e-6

    def test_domain(self):
        with pytest.raises(ValueError):
            f_alpha(0.0, 1.0)
        with pytest.raises(ValueError):
            f_alpha(1.0, 1.0)
        with pytest.raises(ValueError):
            f_alpha(0.5, -0.1)


class TestGoodLocationZero:
    def test_absent_below_critical_snr(self):
        assert good_location_zero(ModelParams(3, 0.5)) is None
        assert good_location_zero(ModelParams(3, 0.8)) is None
        assert good_location_zero(ModelParams(3, 0.0)) is None

    def test_tangency_at_critical_snr(self):
        got = good_location_zero(ModelParams(3, lambda_critical(3)))
        assert got is not None
        assert abs(got - math.sqrt(0.5)) < 1e-10

    def test_quadratic_root_k3(self):
        # m^2 (1-m^2) = 1/(2 k lam^2) = 1/54; take the larger root
        got = good_location_zero(ModelParams(3, 3.0))
        expected = math.sqrt((1.0 + math.sqrt(1.0 - 4.0 / 54.0)) / 2.0)
        assert abs(got - expected) < 1e-10

    def test_characteristic_sign_change_count(self):
        # just above the critical SNR: exactly one sign change on [m_c, 1]
        for lam, want in [(0.9, 1), (0.8, 0)]:
            params = ModelParams(3, lam)
            mc = min(m_critical(params), 0.999)
            m = np.linspace(mc, 0.999999, 4000)
            h = zero_characteristic(params, m)
            changes = int(np.count_nonzero(np.diff(np.sign(h)) != 0))
            assert changes == want, (lam, changes)

    def test_root_satisfies_characteristic(self):
        for k, lam in [(3, 0.9), (3, 4.0), (4, 1.5), (5, 2.0)]:
            params = ModelParams(k, lam)
            root = good_location_zero(params)
            assert root is not None
            assert abs(zero_characteristic(params, root)) < 1e-11
            m_peak = math.sqrt((k - 2.0) / (k - 1.0))
            assert m_peak - 1e-12 <= root < 1.0

    def test_sits_above_dispatch_crossover(self):
        params = ModelParams(3, 3.0)
        assert good_location_zero(params) > m_critical(params)

    @pytest.mark.parametrize("k", range(3, 9))
    def test_matches_high_precision_root(self, k):
        # within 4 ulp of 1 of a 60-digit bisection root of the same float lam;
        # nearer the tangency the root is ill-conditioned, and
        # test_root_satisfies_characteristic covers it
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            for factor in (1 + 1e-3, 1.1, 1.5, 2.0, 10.0, 1e2, 1e4, 1e6):
                lam = lambda_critical(k) * factor
                target = 1 / (2 * k * mpmath.mpf(lam) ** 2)
                lo, hi = mpmath.sqrt(mpmath.mpf(k - 2) / (k - 1)), mpmath.mpf(1)
                for _ in range(220):
                    mid = (lo + hi) / 2
                    if mid ** (2 * k - 4) * (1 - mid * mid) > target:
                        lo = mid
                    else:
                        hi = mid
                err = abs(good_location_zero(ModelParams(k, lam)) - lo)
                assert err <= 4 * math.ulp(1.0), (factor, float(err))


class TestBisectCrossings:
    def test_narrows_brackets_together(self):
        # cos has roots pi/2 and 3 pi/2; the brackets run both ways, and each
        # round evaluates all of them in one call
        calls = []

        def fn(x):
            calls.append(x.size)
            return np.cos(x)

        lo = np.array([0.0, 0.0, 2.0 * math.pi - 0.5, 1.2])
        hi = np.array([2.0, -2.0, 4.0, 1.6])
        roots = np.array([0.5, -0.5, 1.5, 0.5]) * math.pi
        got = thresholds._bisect_crossings(fn, lo, hi, np.cos(hi), 1e-12)
        assert np.all(np.abs(got - roots) <= 1e-12)
        assert len(calls) <= 10 and calls[0] == 16 * lo.size

    def test_exact_zeros_are_returned_as_is(self):
        # fn is 0 on [0.4, 0.6]: the first round's point 7/17 hits it, and a
        # zero at hi needs no round at all
        def fn(x):
            return np.where(x < 0.4, 0.4 - x, np.where(x > 0.6, 0.6 - x, 0.0))

        got = thresholds._bisect_crossings(fn, [0.0, 0.0], [1.0, 0.5], np.array([-0.4, 0.0]),
                                           1e-12)
        assert got[0] == 7 / 17 and got[1] == 0.5


class TestSStarProjection:
    def test_zero_snr_uses_single_branch(self):
        params = ModelParams(3, 0.0)
        m = np.linspace(0.0, 0.99, 50)
        np.testing.assert_allclose(s_star_projection(params, m),
                                   s_u(params, m), rtol=0, atol=0)

    def test_dispatch(self):
        params = ModelParams(3, 3.0)
        mc = m_critical(params)
        assert s_star_projection(params, 0.0) == s_u(params, 0.0)
        assert s_star_projection(params, 0.99) == s_g(params, 0.99)
        lo, hi = mc - 1e-6, mc + 1e-6
        assert abs(s_star_projection(params, lo) - s_star_projection(params, hi)) < 1e-5

    def test_weak_snr_all_uninformative(self):
        params = ModelParams(3, 0.2)
        m = np.linspace(0.0, 0.99, 64)
        np.testing.assert_array_equal(s_star_projection(params, m), s_u(params, m))


class TestMinimizeG:
    @staticmethod
    def _objective(a, b, x):
        def tail(z):
            if z <= 2.0:
                return 0.0
            s = math.sqrt(z * z - 4.0)
            return 0.5 * z * s - 2.0 * math.log(0.5 * (z + s))
        return a * x * x - b * x + tail(abs(x))

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(50):
            a = float(rng.uniform(0.05, 3.0))
            b = float(rng.uniform(0.05, 8.0))
            x_star, val = minimize_g(a, b)
            xs = np.linspace(1e-6, max(4.0, 2.0 * b / a), 20001)
            brute = min(self._objective(a, b, float(x)) for x in xs)
            res = optimize.minimize_scalar(
                lambda x: self._objective(a, b, x),
                bounds=(1e-9, max(4.0, 2.0 * b / a)), method="bounded",
                options={"xatol": 1e-12})
            brute = min(brute, float(res.fun))
            assert val <= brute + 1e-8
            assert abs(val - brute) < 1e-8
            worst = max(worst, abs(val - brute))
        assert worst < 1e-8

    def test_interior_branch_closed_form(self):
        x_star, val = minimize_g(1.0, 2.0)
        assert x_star == 1.0 and val == -1.0

    def test_stable_at_half(self):
        # the log coefficient (1/2 - a) vanishes here; the stable form must not
        x_star, val = minimize_g(0.5, 5.0)
        assert np.isfinite(val)
        assert abs(2.0 * 0.5 * x_star - 5.0 + math.sqrt(x_star ** 2 - 4.0)) < 1e-12

    def test_first_order_condition_strong_branch(self):
        for a, b in [(0.3, 2.0), (1.0, 6.0), (0.5, 2.1)]:
            if b <= 4 * a:
                continue
            x_star, _ = minimize_g(a, b)
            assert x_star > 2.0
            assert abs(2 * a * x_star - b + math.sqrt(x_star ** 2 - 4.0)) < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            minimize_g(0.0, 1.0)
        with pytest.raises(ValueError):
            minimize_g(1.0, -1.0)


class TestThresholdReport:
    def test_bundle(self):
        rep = threshold_report(ModelParams(3, 3.0))
        assert isinstance(rep, ThresholdReport)
        assert abs(rep.lambda_crit - lambda_critical(3)) == 0.0
        assert rep.good_zero is not None
        assert abs(rep.good_zero - good_location_zero(ModelParams(3, 3.0))) == 0.0

    def test_absent_good_zero(self):
        rep = threshold_report(ModelParams(3, 0.5))
        assert rep.good_zero is None

    def test_absent_crossover_at_zero_snr(self):
        # m_critical is undefined at lam = 0; the report says absent, as the
        # thresholds command does, instead of raising
        rep = threshold_report(ModelParams(3, 0.0))
        assert rep.m_crossover is None
        assert rep.good_zero is None
        assert abs(rep.lambda_crit - lambda_critical(3)) == 0.0
