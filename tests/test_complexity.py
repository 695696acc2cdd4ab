"""Unit tests for the closed-form complexity surfaces and their ingredients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from conftest import not_counts, not_reals
from tensorlandscape import (
    GridSpec,
    ModelParams,
    band_endpoints,
    gradient_ascent,
    j_spherical,
    ldp_rate,
    make_spiked_tensor,
    phi_star,
    power_iteration,
    region_nonnegative,
    s_star,
    s_zero,
    t_of_x,
    theta_of_m,
)
from tensorlandscape.complexity import _real, _seed


def semicircle_log_potential(x):
    """Quadrature oracle: integral of log|x-y| against the semicircle density."""
    def dens(y):
        return np.sqrt(4.0 - y * y) / (2.0 * np.pi)

    pts = [x] if abs(x) < 2 else []
    val, err = integrate.quad(lambda y: math.log(abs(x - y)) * dens(y),
                              -2.0, 2.0, points=pts, limit=200)
    assert err < 1e-7
    return val


class TestModelParams:
    def test_validation(self):
        ModelParams(3, 0.0)
        ModelParams(5, 2.5)
        with pytest.raises(ValueError):
            ModelParams(2, 1.0)
        with pytest.raises(ValueError):
            ModelParams(3, -0.1)
        with pytest.raises(ValueError):
            ModelParams(3, float("inf"))
        with pytest.raises(ValueError):
            ModelParams(3.5, 1.0)
        for k in not_counts(3):
            with pytest.raises(ValueError, match="^k must be >= 3 and an integer"):
                ModelParams(k, 1.0)

    def test_landscape_point_domain(self):
        # the surfaces take any point with |m| <= 1 and finite x, and no other
        params = ModelParams(3, 1.0)
        for surface in (s_star, s_zero):
            surface(params, 0.5, 1.0)
            surface(params, -1.0, 0.0)
            with pytest.raises(ValueError):
                surface(params, 1.0000001, 0.0)
            with pytest.raises(ValueError):
                surface(params, 0.5, math.nan)


def _optimizer_run(optimizer):
    tensor = make_spiked_tensor(4, 3, 1.0, np.array([1.0, 0.0, 0.0, 0.0]), seed=0)
    return lambda tol: optimizer(tensor, np.array([0.0, 1.0, 0.0, 0.0]), tol=tol)


def _grid_with(name):
    bounds = {"m_min": -0.5, "m_max": 0.5, "x_min": -3.0, "x_max": 3.0}
    return lambda v: GridSpec(**(bounds | {name: v}), m_steps=4, x_steps=4)


#: every real-valued setting, its name, a value it accepts as an int and one
#: as a NumPy float
REAL_SETTINGS = {
    "GridSpec.m_min": ("m_min", _grid_with("m_min"), -1, np.float64(-0.25)),
    "GridSpec.m_max": ("m_max", _grid_with("m_max"), 1, np.float64(0.25)),
    "GridSpec.x_min": ("x_min", _grid_with("x_min"), -2, np.float64(-2.5)),
    "GridSpec.x_max": ("x_max", _grid_with("x_max"), 2, np.float64(2.5)),
    "ModelParams.lam": ("lam", lambda v: ModelParams(3, v), 2, np.float64(1.5)),
    "power_iteration.tol": ("tol", _optimizer_run(power_iteration), 1, np.float64(1e-8)),
    "gradient_ascent.tol": ("tol", _optimizer_run(gradient_ascent), 1, np.float64(1e-8)),
    "band_endpoints.xtol": ("xtol", lambda v: band_endpoints(ModelParams(3, 3.0), "star", xtol=v),
                            1, np.float64(1e-10)),
    "region_nonnegative.tol": ("tol", lambda v: region_nonnegative(
        ModelParams(3, 1.5), GridSpec(-1.0, 1.0, -3.0, 3.0, 4, 4), "star", tol=v),
        0, np.float64(0.5)),
}


class TestRealRule:
    @pytest.mark.parametrize("site", sorted(REAL_SETTINGS))
    def test_rejects_what_is_not_a_real_number(self, site):
        name, call, _, _ = REAL_SETTINGS[site]
        for value in not_reals():
            with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
                call(value)

    @pytest.mark.parametrize("site", sorted(REAL_SETTINGS))
    def test_accepts_an_int_and_a_numpy_float(self, site):
        _, call, as_int, as_numpy = REAL_SETTINGS[site]
        call(as_int)
        call(as_numpy)

    def test_bounds(self):
        assert _real(0, "x", 0.0) == 0.0 and type(_real(np.float32(0.5), "x", 0.0)) is float
        for value, strict in ((0.0, True), (-1e-300, False), (math.nan, False),
                              (math.inf, False), (np.array([[1.0]]), False)):
            with pytest.raises(ValueError, match="^x must be"):
                _real(value, "x", 0.0, strict)


def test_seeds_that_differ_in_trailing_zeros_draw_one_stream():
    # NumPy drops trailing zero words of a seed; a nonzero last word differs
    def draw(seed):
        return np.random.default_rng(_seed(seed)).standard_normal(4)

    for seed in ([5, 0], (5, 0, 0)):
        np.testing.assert_array_equal(draw(seed), draw(5))
    assert not np.array_equal(draw([5, 1]), draw(5))


class TestPhiStar:
    def test_center_value_exact(self):
        assert phi_star(0.0) == -0.5

    def test_even(self):
        x = np.linspace(0.0, 6.0, 101)
        np.testing.assert_array_equal(phi_star(x), phi_star(-x))

    def test_branch_continuity_at_edge(self):
        eps = 1e-12
        for s in (2.0, -2.0):
            inner = phi_star(s * (1 - eps))
            outer = phi_star(s * (1 + eps))
            assert abs(inner - outer) < 1e-10

    @pytest.mark.parametrize("x", [0.0, 1.0, 2.0, 3.0, 5.0])
    def test_matches_quadrature(self, x):
        assert abs(phi_star(x) - semicircle_log_potential(x)) < 1e-6

    def test_outside_value_closed_form(self):
        # independent arithmetic for x=3: x^2/4 - 1/2 - (x/4) sqrt(x^2-4)
        #   + log((x + sqrt(x^2-4)) / 2)
        r = math.sqrt(5.0)
        expected = 9.0 / 4.0 - 0.5 - 0.75 * r + math.log((3.0 + r) / 2.0)
        assert abs(phi_star(3.0) - expected) < 1e-15

    def test_monotone_in_abs(self):
        x = np.linspace(0.0, 8.0, 200)
        v = phi_star(x)
        assert np.all(np.diff(v) > 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            phi_star(float("nan"))


class TestLdpRate:
    def test_infinite_iff_below_bulk_edge(self):
        thetas = [0.2, 1.0, 1.7, 4.0]
        for th in thetas:
            assert ldp_rate(th, 1.999999) == np.inf
            assert ldp_rate(th, -5.0) == np.inf
            assert np.isfinite(ldp_rate(th, 2.0))

    def test_zero_regions(self):
        # weak pull: free at and beyond the bulk edge
        for th in (0.1, 0.5, 1.0):
            assert ldp_rate(th, 2.0) == 0.0
            assert ldp_rate(th, 3.7) == 0.0
        # strong pull: free only beyond theta + 1/theta
        for th in (1.5, 2.0, 5.0):
            rho = th + 1.0 / th
            assert ldp_rate(th, rho) == 0.0
            assert ldp_rate(th, rho + 1.0) == 0.0
            assert ldp_rate(th, rho - 1e-3) > 0.0

    @pytest.mark.parametrize("theta,t", [(1.5, 2.05), (2.0, 2.2), (3.0, 3.0), (5.0, 5.1)])
    def test_middle_branch_quadrature(self, theta, t):
        rho = theta + 1.0 / theta
        quad_part, err = integrate.quad(lambda y: np.sqrt(y * y - 4.0), rho, t)
        assert err < 1e-10
        expected = (0.25 * quad_part - 0.5 * theta * (t - rho)
                    + (t * t - rho * rho) / 8.0)
        assert abs(ldp_rate(theta, t) - expected) < 1e-12

    def test_decreasing_on_middle_branch(self):
        theta = 2.5
        rho = theta + 1.0 / theta
        ts = np.linspace(2.0, rho, 40)
        vals = ldp_rate(theta, ts)
        assert np.all(np.diff(vals) < 0)

    def test_continuity_at_free_boundary(self):
        theta = 2.5
        rho = theta + 1.0 / theta
        assert abs(ldp_rate(theta, rho - 1e-9)) < 1e-8

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        th = rng.uniform(0.05, 6.0, 300)
        t = rng.uniform(2.0, 9.0, 300)
        assert np.all(ldp_rate(th, t) >= 0.0)


class TestCoordinateMaps:
    def test_theta_of_m(self):
        params = ModelParams(3, 2.0)
        m = 0.5
        expected = math.sqrt(2 * 3 * 2) * 2.0 * m * (1 - m * m)
        assert abs(theta_of_m(params, m) - expected) < 1e-15
        assert theta_of_m(params, 0.0) == 0.0
        assert theta_of_m(params, 1.0) == 0.0

    def test_t_of_x_bulk_edge(self):
        # t = 2 exactly at the threshold objective value sqrt(2(k-1)/k)
        for k in (3, 4, 7):
            params = ModelParams(k, 1.0)
            x_edge = math.sqrt(2.0 * (k - 1) / k)
            assert abs(t_of_x(params, x_edge) - 2.0) < 1e-14


class TestSurfaces:
    def test_center_value(self):
        assert abs(s_star(ModelParams(3, 3.0), 0.0, 0.0) - 0.5 * math.log(2.0)) < 1e-15

    def test_minus_inf_on_poles(self):
        params = ModelParams(3, 3.0)
        assert s_star(params, 1.0, 3.0) == -np.inf
        assert s_star(params, -1.0, 0.0) == -np.inf
        assert s_zero(params, 1.0, 3.0) == -np.inf

    def test_zero_overlap_reduction(self):
        # at m=0 the surface is (log(k-1)+1)/2 - x^2 + phi_star(sqrt(2k/(k-1)) x)
        for k, lam in [(3, 3.0), (4, 0.7), (6, 2.2)]:
            params = ModelParams(k, lam)
            x = np.linspace(-2.5, 2.5, 41)
            expected = (0.5 * (math.log(k - 1.0) + 1.0) - x * x
                        + phi_star(np.sqrt(2.0 * k / (k - 1.0)) * x))
            np.testing.assert_allclose(s_star(params, 0.0, x), expected,
                                       rtol=0, atol=1e-14)

    def test_high_precision_spot_value(self):
        # term-by-term high-precision oracle at an interior point
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            k, lam, m, x = 3, 3.0, mpmath.mpf("0.5"), mpmath.mpf("1.0")
            half = mpmath.mpf(1) / 2
            term = (half * (mpmath.log(k - 1) + 1) + half * mpmath.log(1 - m ** 2)
                    - k * lam ** 2 * m ** (2 * k - 2) * (1 - m ** 2)
                    - (x - lam * m ** k) ** 2)
            y = mpmath.sqrt(mpmath.mpf(2 * k) / (k - 1)) * x
            # |y| < 2 here, so the log-potential is y^2/4 - 1/2
            term += y ** 2 / 4 - half
        got = s_star(ModelParams(3, 3.0), 0.5, 1.0)
        assert abs(got - float(term)) < 1e-14

    def test_zero_surface_is_star_minus_cost(self):
        rng = np.random.default_rng(1)
        params = ModelParams(3, 1.3)
        m = rng.uniform(-0.99, 0.99, 200)
        x = rng.uniform(-3.0, 3.0, 200)
        cost = ldp_rate(theta_of_m(params, m), t_of_x(params, x))
        star = s_star(params, m, x)
        expected = star - cost
        got = s_zero(params, m, x)
        finite = np.isfinite(expected)
        np.testing.assert_allclose(got[finite], expected[finite], rtol=0, atol=1e-14)
        assert np.all(got[~finite] == -np.inf)

    def test_zero_surface_minus_inf_below_spectral_cutoff(self):
        params = ModelParams(3, 2.0)
        x_edge = math.sqrt(2.0 * (params.k - 1) / params.k)
        m = np.linspace(-0.9, 0.9, 21)
        assert np.all(s_zero(params, m, x_edge - 1e-6) == -np.inf)
        assert np.all(np.isfinite(s_zero(params, m, x_edge + 1e-6)))

    def test_zero_never_exceeds_star(self):
        rng = np.random.default_rng(2)
        params = ModelParams(4, 1.1)
        m = rng.uniform(-1.0, 1.0, 500)
        x = rng.uniform(-4.0, 4.0, 500)
        assert np.all(s_zero(params, m, x) <= s_star(params, m, x) + 1e-15)

    def test_broadcasting_and_scalars(self):
        params = ModelParams(3, 1.0)
        out = s_star(params, np.zeros((2, 1)), np.zeros((1, 3)))
        assert out.shape == (2, 3)
        assert isinstance(s_star(params, 0.1, 0.2), float)


class TestJSpherical:
    def test_weak_pull_value(self):
        assert abs(j_spherical(2.0, 0.5) - 0.0625) < 1e-15

    def test_branch_agreement_at_unit_pull(self):
        assert abs(j_spherical(2.0, 1.0) - 0.25) < 1e-12

    def test_strong_pull_value(self):
        expected = 0.5 * (6.0 - 1.0 - math.log(2.0) - phi_star(3.0))
        assert abs(j_spherical(3.0, 2.0) - expected) < 1e-14

    def test_continuity_in_theta(self):
        lo = j_spherical(2.5, 1.0 - 1e-10)
        hi = j_spherical(2.5, 1.0 + 1e-10)
        assert abs(lo - hi) < 1e-8

    def test_continuity_in_x(self):
        # theta > 1: the detachment point theta + 1/theta is where x starts to bite
        theta = 1.8
        rho = theta + 1.0 / theta
        assert abs(j_spherical(rho, theta) - j_spherical(rho - 1e-10, theta)) < 1e-8

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            j_spherical(1.5, 1.0)
        with pytest.raises(ValueError):
            j_spherical(2.5, 0.0)
        with pytest.raises(ValueError):
            j_spherical(2.5, -1.0)


class TestHighPrecisionDifferential:
    """Closed forms against 40-digit mpmath references over a wide range.

    Each reference is built term by term, the ldp integral by mpmath
    quadrature.  Errors are measured against the size of what the double
    formula adds up, which is where its rounding enters: the value itself
    for phi_star, and the sum of the terms' magnitudes for the surfaces.
    """

    @pytest.fixture(autouse=True)
    def _mp(self):
        mpmath = pytest.importorskip("mpmath")
        saved = mpmath.mp.dps
        mpmath.mp.dps = 40
        self.mp = mpmath
        yield
        mpmath.mp.dps = saved

    def ref_phi(self, y):
        mp = self.mp
        y = abs(mp.mpf(y))
        if y <= 2:
            return y * y / 4 - mp.mpf(1) / 2
        s = mp.sqrt(y * y - 4)
        return y * y / 4 - mp.mpf(1) / 2 - y * s / 4 + mp.log((y + s) / 2)

    def ref_ldp(self, theta, t):
        """(value, scale): rho^2 is the size of the terms the closed form cancels."""
        mp = self.mp
        theta, t = mp.mpf(theta), mp.mpf(t)
        if t < 2:
            return mp.inf, 0
        if theta <= 1 or t >= theta + 1 / theta:
            return mp.mpf(0), 0
        rho = theta + 1 / theta
        integral = mp.quad(lambda y: mp.sqrt(y * y - 4), [rho, t]) / 4
        return integral - theta * (t - rho) / 2 + (t * t - rho * rho) / 8, rho * rho

    def ref_surfaces(self, k, lam, m, x):
        """(s_star, s_zero, scale) at (m, x)."""
        mp = self.mp
        m, x = mp.mpf(m), mp.mpf(x)
        one_minus = 1 - m * m
        terms = [
            (mp.log(k - 1) + 1) / 2,
            mp.log(one_minus) / 2,
            -k * lam**2 * m ** (2 * k - 2) * one_minus,
            -((x - lam * m**k) ** 2),
            self.ref_phi(mp.sqrt(mp.mpf(2 * k) / (k - 1)) * x),
        ]
        star = sum(terms)
        theta = mp.sqrt(2 * k * (k - 1)) * lam * m ** (k - 2) * one_minus
        cost, cost_scale = self.ref_ldp(theta, mp.sqrt(mp.mpf(2 * k) / (k - 1)) * x)
        return star, star - cost, sum(abs(t) for t in terms) + cost_scale

    @pytest.mark.parametrize("x", [0.0, 1.5, 2.0, 2.0 + 1e-12, 2.5, 10.0, 1e3, 1e5, -1e5])
    def test_phi_star(self, x):
        ref = self.ref_phi(x)
        assert abs(phi_star(x) - ref) <= 1e-15 * max(1.0, abs(ref))

    @pytest.mark.parametrize("theta", [0.3, 1.0, 1.0 + 1e-9, 1.1, 2.0, 30.0, 1e3])
    def test_ldp_rate(self, theta):
        rho = theta + 1.0 / theta
        for t in (1.5, 2.0, 2.0 + 1e-9, 2.5, 0.5 * (2.0 + rho), rho * (1.0 - 1e-6),
                  rho * (1.0 - 1e-12), rho, rho + 1.0, 1e5):
            ref, scale = self.ref_ldp(theta, t)
            got = ldp_rate(theta, t)
            if ref == self.mp.inf:
                assert got == np.inf
            else:
                assert abs(got - ref) <= 1e-14 * (1 + scale), (theta, t)

    @pytest.mark.parametrize("k, lam", [(3, 0.0), (3, 3.0), (4, 1.7), (3, 32.0), (5, 0.9)])
    def test_surfaces(self, k, lam):
        params = ModelParams(k, lam)
        near_one = [1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]
        for m in [0.0, 0.3, -0.7, 0.99] + near_one + [-v for v in near_one]:
            for x in (-1e5, -3.0, 0.0, 1.0, 1.2, 2.0, 3.0, 10.0, 1e5):
                star, zero, scale = self.ref_surfaces(k, lam, m, x)
                tol = 1e-14 * (1 + scale)
                assert abs(s_star(params, m, x) - star) <= tol, (m, x)
                got = s_zero(params, m, x)
                if zero == -self.mp.inf:
                    assert got == -np.inf, (m, x)
                else:
                    assert abs(got - zero) <= tol, (m, x)


@pytest.mark.parametrize("k, lam", [(3, 3.0), (4, 1.7)])
def test_array_equals_scalar_calls_on_random_points(k, lam):
    # a squared energy term taken by pow() on scalars but by multiplication
    # on arrays used to differ in the last bit at about one point in 1000
    params = ModelParams(k, lam)
    rng = np.random.default_rng(7)
    m, x = rng.uniform(-1.0, 1.0, 2000), rng.uniform(-5.0, 5.0, 2000)
    for fn in (s_star, s_zero):
        np.testing.assert_array_equal(fn(params, m, x),
                                      [fn(params, a, b) for a, b in zip(m, x)])


_overlaps = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6)
_values = st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=st.integers(3, 6), lam=st.floats(0.0, 40.0), ms=_overlaps, xs=_values)
def test_broadcast_equals_scalar_calls(k, lam, ms, xs):
    # bitwise: projections compare values computed on arrays of any shape
    params = ModelParams(k, lam)
    m, x = np.array(ms)[:, None], np.array(xs)[None, :]
    for fn in (s_star, s_zero):
        grid = fn(params, m, x)
        assert grid.shape == (len(ms), len(xs))
        for i, mi in enumerate(ms):
            for j, xj in enumerate(xs):
                assert grid[i, j] == fn(params, mi, xj)
    np.testing.assert_array_equal(phi_star(np.array(xs)), [phi_star(v) for v in xs])
    np.testing.assert_array_equal(theta_of_m(params, np.array(ms)),
                                  [theta_of_m(params, v) for v in ms])
    thetas = np.abs(np.array(xs)) / 1e4
    ts = np.sqrt(2.0 * k / (k - 1.0)) * np.array(xs) / 10.0
    np.testing.assert_array_equal(ldp_rate(thetas[:, None], ts[None, :]),
                                  [[ldp_rate(a, b) for b in ts] for a in thetas])
    # both j_spherical branches: theta in [0.01, 3.01], edge x in [2, 12]
    edges = 2.0 + np.abs(np.array(xs)) / 1e4
    strengths = 0.01 + 3.0 * np.abs(np.array(ms))
    np.testing.assert_array_equal(j_spherical(edges[None, :], strengths[:, None]),
                                  [[j_spherical(a, b) for a in edges] for b in strengths])


def test_incompatible_shapes_raise():
    # no function expands its inputs up front; the first term of both
    # coordinates is where mismatched shapes must still fail
    params = ModelParams(3, 1.5)
    m, x = np.linspace(-0.5, 0.5, 3), np.linspace(2.5, 3.5, 4)
    for fn in (s_star, s_zero):
        with pytest.raises(ValueError):
            fn(params, m, x)
    with pytest.raises(ValueError):
        ldp_rate(np.full(3, 1.5), np.full(4, 2.5))
    with pytest.raises(ValueError):
        j_spherical(np.full(4, 2.5), np.full(3, 0.5))
