"""Unit tests for grid scans, projections, and band-endpoint extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import not_counts
from tensorlandscape import scan
from tensorlandscape import (
    GridSpec,
    ModelParams,
    band_endpoints,
    good_location_zero,
    grid_centers,
    lambda_critical,
    project_max_over_m,
    project_max_over_x,
    region_nonnegative,
    s_star,
    s_star_projection,
    s_zero,
)


class TestGridSpec:
    def test_validation(self):
        GridSpec(m_min=-0.9, m_max=0.9, x_min=-3, x_max=3, m_steps=10, x_steps=10)
        with pytest.raises(ValueError):
            GridSpec(m_min=0.5, m_max=0.4, x_min=-3, x_max=3, m_steps=10, x_steps=10)
        with pytest.raises(ValueError):
            GridSpec(m_min=-1.2, m_max=0.4, x_min=-3, x_max=3, m_steps=10, x_steps=10)
        with pytest.raises(ValueError):
            GridSpec(m_min=-0.9, m_max=0.9, x_min=3, x_max=-3, m_steps=10, x_steps=10)
        # each bound is one finite real number, stored as a float (the other
        # non-numbers are in test_complexity's REAL_SETTINGS)
        assert type(GridSpec(-1, 1, -3, 3, 4, 4).m_min) is float
        for bounds, name in ((("-0.5", True, "-3", 3.0), "m_min"),
                             ((-0.5, 0.5, -3, math.inf), "x_max")):
            with pytest.raises(ValueError, match=f"^{name} must be a finite real number, got"):
                GridSpec(*bounds, 4, 4)
        # each step count is an integer >= 2, not a bool, and the error names it
        for name in ("m_steps", "x_steps"):
            for value in [0] + not_counts(2):
                steps = dict(m_steps=10, x_steps=10) | {name: value}
                with pytest.raises(ValueError, match=f"^{name} must be >= 2 and an integer"):
                    GridSpec(m_min=-0.9, m_max=0.9, x_min=-3, x_max=3, **steps)

    def test_centers_are_midpoints(self):
        grid = GridSpec(m_min=-1.0, m_max=1.0, x_min=0.0, x_max=2.0,
                        m_steps=4, x_steps=2)
        m, x = grid_centers(grid)
        np.testing.assert_allclose(m, [-0.75, -0.25, 0.25, 0.75], atol=1e-15)
        np.testing.assert_allclose(x, [0.5, 1.5], atol=1e-15)


class TestProjectOverX:
    def test_matches_piecewise_formula_spot(self):
        params = ModelParams(3, 3.0)
        for m in (0.0, 0.3, 0.6, 0.95):
            res = project_max_over_x(params, m, "star")
            assert abs(res.value - s_star_projection(params, m)) < 1e-7
            # the maximizer actually attains the reported value
            assert abs(s_star(params, m, res.arg) - res.value) < 1e-12

    def test_center_values(self):
        params = ModelParams(3, 3.0)
        star = project_max_over_x(params, 0.0, "star").value
        zero = project_max_over_x(params, 0.0, "zero").value
        assert abs(star - 0.5 * math.log(2.0)) < 1e-9
        assert np.isfinite(zero)
        assert zero < star  # the constrained max pays a strict cost at m=0

    def test_constrained_maximizer_sits_at_spectral_cutoff(self):
        # below the cutoff the constrained surface is -inf, and at m=0 the
        # unconstrained maximizer is inside the excluded region, so the
        # constrained max lands exactly on the boundary
        params = ModelParams(3, 3.0)
        res = project_max_over_x(params, 0.0, "zero")
        x_edge = math.sqrt(2.0 * (params.k - 1) / params.k)
        assert abs(res.arg - x_edge) < 1e-6
        assert abs(s_zero(params, 0.0, res.arg) - res.value) < 1e-12

    def test_all_minus_inf_interval(self):
        # s_zero is -inf for every m below the cutoff x = sqrt(2(k-1)/k)
        res = project_max_over_m(ModelParams(3, 1.0), 0.0, "zero")
        assert res.value == -np.inf
        assert math.isnan(res.arg)

    def test_rejects_bad_interval(self):
        params = ModelParams(3, 1.0)
        with pytest.raises(ValueError):
            project_max_over_x(params, 1.0, "star")

    @pytest.mark.parametrize("coarse", [0, -3, 2.0, 11.5, False] + not_counts(2))
    @pytest.mark.parametrize("project", [project_max_over_x, project_max_over_m])
    def test_rejects_bad_coarse(self, project, coarse):
        with pytest.raises(ValueError, match="^coarse must be >= 2 and an integer"):
            project(ModelParams(3, 3.0), 0.1, "star", coarse=coarse)

    def test_rejects_unknown_surface(self):
        with pytest.raises(ValueError):
            project_max_over_x(ModelParams(3, 1.0), 0.0, "both")

    def test_scalar_and_array_results(self):
        params = ModelParams(3, 2.0)
        res = project_max_over_x(params, 0.2, "zero")
        assert isinstance(res.arg, float) and isinstance(res.value, float)
        arr = project_max_over_x(params, np.array([0.2]), "zero")
        assert arr.value.shape == arr.arg.shape == (1,)
        assert arr.value[0] == res.value and arr.arg[0] == res.arg
        with pytest.raises(ValueError):
            project_max_over_x(params, np.zeros((2, 2)), "zero")
        with pytest.raises(ValueError):
            project_max_over_x(params, np.array([0.2, 1.0]), "zero")


class TestProjectOverM:
    def test_array_matches_scalar_calls_across_blocks(self):
        # more rows than one evaluation block holds; rows below the spectral
        # cutoff x = sqrt(4/3) are -inf for every m
        params = ModelParams(3, 3.0)
        xs = np.linspace(0.0, 3.0, 200)
        res = project_max_over_m(params, xs, "zero")
        assert np.any(res.value == -np.inf) and np.any(np.isfinite(res.value))
        for i, x in enumerate(xs):
            one = project_max_over_m(params, float(x), "zero")
            assert _same(res.value[i], one.value) and _same(res.arg[i], one.arg)

    def test_dominates_sampled_values(self):
        params = ModelParams(3, 2.0)
        rng = np.random.default_rng(3)
        for x in (0.5, 1.2, 2.0):
            res = project_max_over_m(params, x, "star")
            samples = s_star(params, rng.uniform(-0.999, 0.999, 400), x)
            assert res.value >= np.max(samples) - 1e-9
            assert -1.0 < res.arg < 1.0

    def test_even_snr_zero_symmetric(self):
        params = ModelParams(4, 0.0)
        res = project_max_over_m(params, 1.0, "star")
        # at zero SNR the surface is even in m; maximizer at the center
        assert abs(res.arg) < 1e-6


class TestRegionNonnegative:
    def test_two_component_structure(self):
        # moderately strong SNR: a band around m=0 plus a high-overlap island.
        # The island is a tangency (peak value exactly 0 at one point), so a
        # small tolerance makes it grid-visible; the band is a thin crescent
        # hugging the spectral cutoff in x, so the x grid must resolve it.
        params = ModelParams(3, 2.25)
        grid = GridSpec(m_min=0.0, m_max=0.999, x_min=-3.0, x_max=3.0,
                        m_steps=300, x_steps=600)
        mask = region_nonnegative(params, grid, "zero", tol=2e-3)
        m_has = mask.any(axis=1)
        runs = int(np.count_nonzero(np.diff(m_has.astype(int)) == 1)
                   + (1 if m_has[0] else 0))
        assert runs == 2
        m, _ = grid_centers(grid)
        assert m_has[0]  # band containing m=0
        assert m[m_has].max() > 0.9  # island near the good maximum

    def test_star_region_contains_zero_region(self):
        params = ModelParams(3, 2.25)
        grid = GridSpec(m_min=-0.999, m_max=0.999, x_min=-3.0, x_max=3.0,
                        m_steps=80, x_steps=80)
        mask_star = region_nonnegative(params, grid, "star")
        mask_zero = region_nonnegative(params, grid, "zero")
        assert np.all(mask_star | ~mask_zero)

    def test_tolerance_widens_region(self):
        params = ModelParams(3, 1.5)
        grid = GridSpec(m_min=-0.99, m_max=0.99, x_min=-2.0, x_max=2.0,
                        m_steps=40, x_steps=40)
        tight = region_nonnegative(params, grid, "zero")
        loose = region_nonnegative(params, grid, "zero", tol=0.05)
        assert loose.sum() > tight.sum()
        assert np.all(loose | ~tight)

    @pytest.mark.parametrize("tol", [math.nan, -1e-3, math.inf])
    def test_rejects_bad_tolerance(self, tol):
        grid = GridSpec(-1.0, 1.0, -3.0, 3.0, 8, 8)
        with pytest.raises(ValueError, match="tol"):
            region_nonnegative(ModelParams(3, 1.5), grid, "star", tol=tol)


class TestBandEndpoints:
    def test_zero_band_brackets_center(self):
        params = ModelParams(3, 3.0)
        band = band_endpoints(params, which="zero")
        assert band.m1 < 0.0 < band.m2
        # endpoints are genuine zero crossings of the projected curve
        for m in (band.m1, band.m2):
            assert abs(project_max_over_x(params, m, "zero").value) < 1e-6
        inside = project_max_over_x(params, 0.5 * (band.m1 + band.m2), "zero")
        assert inside.value > 0.0

    def test_star_band_wider_than_zero_band(self):
        params = ModelParams(3, 3.0)
        bz = band_endpoints(params, which="zero")
        bs = band_endpoints(params, which="star")
        assert bs.m2 > bz.m2
        assert bs.m1 < bz.m1

    def test_touch_point_matches_good_zero(self):
        # the closed-form root is where both projected surfaces climb back
        # to zero: a local maximum of height 0
        for k, lam in ((3, 3.0), (4, 1.7), (5, 40.0)):
            params = ModelParams(k, lam)
            m = good_location_zero(params)
            step = 1e-4 * (1.0 - m)
            for which in ("zero", "star"):
                assert band_endpoints(params, which=which).m_star == m
                value = project_max_over_x(params, m, which).value
                assert abs(value) < 1e-10
                for near in (m - step, m + step):
                    assert project_max_over_x(params, near, which).value < value

    def test_touch_point_found_at_strong_snr(self):
        # the high-overlap bump narrows toward m = 1 as the SNR grows
        for lam in (8.0, 32.0, 1e3, 1e4):
            params = ModelParams(3, lam)
            for which in ("zero", "star"):
                band = band_endpoints(params, which=which)
                assert band.m1 is not None and band.m2 is not None
                assert band.m_star == good_location_zero(params)

    @pytest.mark.parametrize("which", ["zero", "star"])
    @pytest.mark.parametrize("k", [3, 4])
    def test_touch_point_from_critical_snr_on(self, k, which):
        for rel in (0.0, 1e-9, 1e-6):
            params = ModelParams(k, lambda_critical(k) * (1.0 + rel))
            band = band_endpoints(params, which=which)
            assert band.m_star is not None
            assert band.m_star == good_location_zero(params)
        below = band_endpoints(ModelParams(k, lambda_critical(k) * (1.0 - 1e-9)), which=which)
        assert below.m_star is None

    def test_no_touch_point_below_critical_snr(self):
        params = ModelParams(3, 0.5)
        band = band_endpoints(params, which="zero")
        assert band.m1 < 0.0 < band.m2  # the center band survives
        assert band.m_star is None

    @pytest.mark.parametrize("xtol", [math.nan, 0.0, -1.0, math.inf])
    def test_rejects_bad_xtol(self, xtol):
        with pytest.raises(ValueError, match="xtol"):
            band_endpoints(ModelParams(3, 3.0), which="zero", xtol=xtol)

    def test_zero_edges_take_few_projections(self, monkeypatch):
        # the multisection evaluates all points of a round in one batched
        # projection: 1 call at the star edges plus 8 rounds to 1e-10
        calls = []
        project = scan.project_max_over_x

        def counted(*args, **kwargs):
            calls.append(args)
            return project(*args, **kwargs)

        monkeypatch.setattr(scan, "project_max_over_x", counted)
        band_endpoints(ModelParams(3, 3.0), which="zero")
        assert len(calls) <= 10

    @pytest.mark.parametrize("which", ["zero", "star"])
    def test_tiny_xtol_ends_at_round_cap(self, which):
        # no bracket narrows below 1e-300 away from m = 0: the round cap ends
        # the search, and the edges are those of the default tolerance
        params = ModelParams(3, 3.0)
        band = band_endpoints(params, which=which, xtol=1e-300)
        default = band_endpoints(params, which=which)
        assert math.isfinite(band.m1) and math.isfinite(band.m2)
        assert band.m1 < 0.0 < band.m2
        assert abs(band.m1 - default.m1) <= 2e-10 and abs(band.m2 - default.m2) <= 2e-10

    def test_zero_projection_positive_at_center(self):
        # the zero-band search starts from m = 0, where neither surface
        # depends on lam
        for k in range(3, 21):
            for lam in (0.0, 3.0):
                assert project_max_over_x(ModelParams(k, lam), 0.0, "zero").value > 0.0

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_zero_band_inside_star_band(self, k):
        # the zero edges are searched on [0, star edge]: the zero projection
        # is positive inside its band and negative from there out to the star
        # edge, and the closed-form star edge is where the numeric star
        # projection changes sign
        for lam in (0.0, 0.5, 1.0, 1.5, 3.0, 8.0, 32.0, 100.0):
            params = ModelParams(k, lam)
            zero = band_endpoints(params, which="zero")
            star = band_endpoints(params, which="star")
            assert star.m1 == -star.m2
            inside = np.linspace(zero.m1, zero.m2, 202)[1:-1]
            assert np.all(project_max_over_x(params, inside, "zero").value > 0.0)
            # each zero edge brackets the sign change to within 2e-10
            near = np.array([zero.m1 + 2e-10, zero.m2 - 2e-10, zero.m1 - 2e-10, zero.m2 + 2e-10])
            val = project_max_over_x(params, near, "zero").value
            assert np.all(val[:2] > 0.0) and np.all(val[2:] <= 0.0)
            for z, s in ((zero.m1, star.m1), (zero.m2, star.m2)):
                between = np.linspace(z, s, 202)[1:-1]
                assert np.all(project_max_over_x(params, between, "zero").value < 0.0)
                side = math.copysign(1.0, s)
                near = np.array([s - side * 1e-8, s + side * 1e-8])
                val_in, val_out = project_max_over_x(params, near, "star").value
                assert val_in > 0.0 >= val_out


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    k=st.integers(3, 4),
    lam=st.floats(0.0, 10.0),
    which=st.sampled_from(["star", "zero"]),
    ms=st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=4),
    xs=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4),
)
def test_array_projection_equals_scalar_calls(k, lam, which, ms, xs):
    # bitwise: the projection CLI compares its rows to scalar calls with ==
    params = ModelParams(k, lam)
    for project, points in ((project_max_over_x, ms), (project_max_over_m, xs)):
        res = project(params, np.array(points), which)
        for i, v in enumerate(points):
            one = project(params, v, which)
            assert _same(res.value[i], one.value) and _same(res.arg[i], one.arg)


# band_endpoints as printed by `tensorland thresholds` when each projection
# was a scalar coarse scan plus one golden-section polish per seed; the
# batched search must reproduce them.  None marks an 'absent' touch point.
SCALAR_SEARCH_BANDS = {
    (3, 0.0): {
        "zero": (-0.16165698011149626, 0.16165698011149626, None),
        "star": (-0.7071067811943772, 0.7071067811943772, None),
    },
    (3, 0.5): {
        "zero": (-0.1394963143362431, 0.20964937429172337, None),
        "star": (-0.7071067811943772, 0.7071067811943772, None),
    },
    (3, 3.0): {
        "zero": (-0.096524691106084554, 0.14330546624906992, 0.99051765468880648),
        "star": (-0.34244146638103085, 0.34244146638103085, 0.99051765469887165),
    },
    (3, 8.0): {
        "zero": (-0.069754623525753567, 0.053296992627076448, 0.99869365483170991),
        "star": (-0.20738387862620877, 0.20738387862620877, 0.99869365476074035),
    },
    (4, 1.7): {
        "zero": (-0.4968716920018032, 0.4968716920018032, 0.97586195942542819),
        "star": (-0.63162483009876569, 0.63162483009876569, 0.97586195929041541),
    },
    (3, 32.0): {
        "zero": (-0.039875787570455082, 0.013307802185512143, 0.99991860322851778),
        "star": (-0.10321459874472041, 0.10321459874472041, 0.99991860322684434),
    },
}


@pytest.mark.parametrize("which", ["zero", "star"])
@pytest.mark.parametrize("k, lam", sorted(SCALAR_SEARCH_BANDS))
def test_band_endpoints_match_scalar_search(k, lam, which):
    m1, m2, m_star = SCALAR_SEARCH_BANDS[(k, lam)][which]
    band = band_endpoints(ModelParams(k, lam), which=which)
    assert abs(band.m1 - m1) <= 2e-10
    assert abs(band.m2 - m2) <= 2e-10
    if m_star is None:
        assert band.m_star is None
    else:
        assert band.m_star is not None and abs(band.m_star - m_star) <= 1e-9
