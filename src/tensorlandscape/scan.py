"""Grid scans, one-dimensional projections, and band detection for complexity maps.

The closed forms in :mod:`tensorlandscape.complexity` are cheap to evaluate,
so global structure is extracted numerically: maximize over one landscape
coordinate at a fixed value of the other (coarse scan plus golden-section
polish), locate the overlap band where local maxima are exponentially
numerous (sign-change multisection on the projection), and rasterize the
nonnegativity region of either complexity over a rectangular grid.  The
band report takes its critical-point band and touch point from the closed
forms :func:`tensorlandscape.thresholds.s_star_projection` and
:func:`tensorlandscape.thresholds.good_location_zero`.

Projections take a scalar or a 1-D array of fixed coordinates and handle
all of them in one batched pass: the coarse scan is one broadcast over
(fixed coordinate, scan point) cells, at most ``_BLOCK_CELLS`` (65536) cells
per block so that temporaries stay at a few MB, and the golden-section
polish advances every bracket of a block together as arrays.  The result
at each coordinate is bitwise the scalar call's.  ``band_endpoints``
narrows both local-maximum band edges together inside the critical-point
band by multisection (``_bisect_crossings``, which lives in
:mod:`tensorlandscape.thresholds` and also locates the touch point): each
round is one batched projection over 16 interior points of each edge's
bracket and narrows it 17-fold, so the default ``xtol`` of 1e-10 takes 8
or 9 rounds (brackets up to 0.71 wide).

Evaluation is vectorized numpy and therefore deterministic; no randomness
enters this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexity import ModelParams, _count, _real, s_star, s_zero
from .thresholds import _bisect_crossings, good_location_zero, s_star_projection

__all__ = [
    "GridSpec",
    "BandReport",
    "ProjectionResult",
    "grid_centers",
    "project_max_over_x",
    "project_max_over_m",
    "region_nonnegative",
    "band_endpoints",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Most (row, coarse point) cells one projection evaluates in one broadcast;
#: bounds the temporaries of a batched projection at a few MB.
_BLOCK_CELLS = 1 << 16

#: Bracket width at which a projection's golden-section polish stops.
_PROJECTION_XTOL = 1e-9

#: Overlap interval of ``project_max_over_m``.
_M_SEARCH = (-1.0 + 1e-9, 1.0 - 1e-9)

#: Points of the grid over [0, 1 - 1e-7] that brackets the critical-point band edge.
_BAND_SCAN_POINTS = 1200


@dataclass(frozen=True)
class GridSpec:
    """Rectangular (m, x) grid: bounds plus cell counts along each axis.

    Cells are half-open boxes of equal size; evaluation happens at cell
    centers.  ``m`` bounds must stay within [-1, 1].
    """

    m_min: float
    m_max: float
    x_min: float
    x_max: float
    m_steps: int
    x_steps: int

    def __post_init__(self) -> None:
        for name in ("m_min", "m_max", "x_min", "x_max"):
            object.__setattr__(self, name, _real(getattr(self, name), name, -math.inf))
        if not (-1.0 <= self.m_min < self.m_max <= 1.0):
            raise ValueError("need -1 <= m_min < m_max <= 1")
        if not self.x_min < self.x_max:
            raise ValueError("need x_min < x_max")
        for name in ("m_steps", "x_steps"):
            object.__setattr__(self, name, _count(getattr(self, name), name, 2))


@dataclass(frozen=True)
class ProjectionResult:
    """Argmax and value of a one-dimensional complexity maximization.

    Floats for a scalar fixed coordinate, arrays for an array of them.
    """

    arg: float | np.ndarray
    value: float | np.ndarray


@dataclass(frozen=True)
class BandReport:
    """Overlap band where the projected complexity is nonnegative.

    ``m1 < 0 < m2`` are the crossing overlaps around the uninformative
    cluster at m = 0 (always present: both projections are positive at 0).
    ``m_star`` is the isolated high-overlap location where the projection
    climbs back to zero; present iff lam >= lambda_critical(k), and taken
    from ``good_location_zero`` (the same point for both surfaces).
    """

    m1: float
    m2: float
    m_star: float | None


def grid_centers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Cell-center coordinates of a grid, as (m_centers, x_centers)."""
    dm = (grid.m_max - grid.m_min) / grid.m_steps
    dx = (grid.x_max - grid.x_min) / grid.x_steps
    m = grid.m_min + (np.arange(grid.m_steps) + 0.5) * dm
    x = grid.x_min + (np.arange(grid.x_steps) + 0.5) * dx
    return m, x


def _complexity_fn(which: str):
    if which == "star":
        return s_star
    if which == "zero":
        return s_zero
    raise ValueError(f"which must be 'star' or 'zero', got {which!r}")


def _golden_max(fn, a, b, xtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maxima on the brackets [a[j], b[j]], advanced together.

    ``fn(j, u)`` evaluates the function of bracket ``j`` at ``u`` (equal-shape
    arrays).  A bracket narrower than ``xtol`` stops being evaluated while
    the others continue.  -inf values are tolerated (plain comparisons push
    the bracket toward the finite side).  Returns the best point actually
    evaluated per bracket and its value: the maximizer may sit on a jump
    (e.g. the spectral cutoff below which the local-max complexity is -inf)
    and the bracket midpoint could land on its wrong side.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    j = np.arange(a.size)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = np.split(np.asarray(fn(np.tile(j, 2), np.concatenate([c, d])), dtype=float), 2)
    left = fc >= fd
    best_x, best_f = np.where(left, c, d), np.where(left, fc, fd)
    live = np.flatnonzero(b - a > xtol)
    while live.size:
        left = fc[live] >= fd[live]
        lw, rw = live[left], live[~left]
        # left-moving brackets keep [a, d] and probe a new c; the others keep
        # [c, b] and probe a new d
        b[lw], d[lw], fd[lw] = d[lw], c[lw], fc[lw]
        c[lw] = b[lw] - _INV_PHI * (b[lw] - a[lw])
        a[rw], c[rw], fc[rw] = c[rw], d[rw], fd[rw]
        d[rw] = a[rw] + _INV_PHI * (b[rw] - a[rw])
        idx = np.concatenate([lw, rw])
        u = np.concatenate([c[lw], d[rw]])
        f = np.asarray(fn(idx, u), dtype=float)
        fc[lw], fd[rw] = f[: lw.size], f[lw.size :]
        better = f > best_f[idx]
        best_x[idx[better]], best_f[idx[better]] = u[better], f[better]
        live = live[b[live] - a[live] > xtol]
    return best_x, best_f


def _coarse_maxima(vals: np.ndarray) -> np.ndarray:
    """Mask of the finite entries of each row that are >= both row neighbours.

    A missing neighbour (row ends) counts as -inf.
    """
    padded = np.pad(vals, ((0, 0), (1, 1)), constant_values=-np.inf)
    return np.isfinite(vals) & (vals >= padded[:, :-2]) & (vals >= padded[:, 2:])


def _project_rows(f, fixed, lo: float, hi: float, coarse: int) -> ProjectionResult:
    """Maximize ``f(r, u)`` over u in [lo, hi] at each fixed coordinate r.

    ``fixed`` is a scalar or a 1-D array; ``f`` broadcasts over arrays.
    Each block of at most ``_BLOCK_CELLS`` (r, u) cells is scanned on
    ``coarse`` points of [lo, hi]; every coarse local maximum seeds a
    golden-section polish, which keeps multimodal projections (band +
    high-overlap bump) honest, and all seeds of the block are polished
    together.  Per r, the best evaluated point wins, a polish never loses to
    its own seed, and among equal seeds the first wins; an all -inf row
    gives (nan, -inf).
    """
    fixed = np.asarray(fixed, dtype=float)
    if fixed.ndim > 1:
        raise ValueError("the fixed coordinate must be a scalar or a 1-D array")
    coarse = _count(coarse, "coarse", 2)
    rows = fixed.reshape(-1)
    us = np.linspace(lo, hi, coarse)
    args = np.full(rows.shape, math.nan)
    values = np.full(rows.shape, -math.inf)
    per_block = max(1, _BLOCK_CELLS // coarse)
    for start in range(0, rows.size, per_block):
        r = rows[start : start + per_block]
        vals = np.asarray(f(r[:, None], us[None, :]), dtype=float)
        row, col = np.nonzero(_coarse_maxima(vals))
        if not row.size:
            continue
        arg, val = _golden_max(
            lambda j, u: f(r[row[j]], u),
            us[np.maximum(col - 1, 0)],
            us[np.minimum(col + 1, coarse - 1)],
            _PROJECTION_XTOL,
        )
        seed_val = vals[row, col]
        lost = seed_val > val  # refinement must never lose to its own seed
        arg[lost], val[lost] = us[col[lost]], seed_val[lost]
        top = np.full(r.size, -math.inf)
        np.maximum.at(top, row, val)
        # seeds are in row-major order, so the first hit of a row's top value
        # is its first best seed
        win = np.flatnonzero(val == top[row])
        hit_rows, first = np.unique(row[win], return_index=True)
        args[start + hit_rows] = arg[win[first]]
        values[start + hit_rows] = val[win[first]]
    if fixed.ndim == 0:
        return ProjectionResult(arg=float(args[0]), value=float(values[0]))
    return ProjectionResult(arg=args, value=values)


def project_max_over_x(
    params: ModelParams,
    m,
    which: str = "star",
    coarse: int = 401,
) -> ProjectionResult:
    """Maximize the chosen complexity over the objective value x at fixed overlap m.

    ``m`` is a scalar or a 1-D array; for an array, ``arg`` and ``value`` are
    arrays with one entry per m, each equal to the scalar call at that m.
    The search interval [-(lam+3), lam+3] always contains the
    maximizer: the optimal x drifts to lam as |m| -> 1 and stays O(1) at
    m = 0.  The value is -inf (and the arg nan) where the complexity is -inf
    on the whole interval.  ``coarse``, an integer >= 2, is the number of
    scan points that seed the golden-section polish.
    """
    if not np.all(np.abs(np.asarray(m, dtype=float)) < 1.0):
        raise ValueError("projection over x requires |m| < 1")
    fn = _complexity_fn(which)
    hi = params.lam + 3.0
    return _project_rows(lambda m_, x_: fn(params, m_, x_), m, -hi, hi, coarse)


def project_max_over_m(
    params: ModelParams,
    x,
    which: str = "star",
    coarse: int = 401,
) -> ProjectionResult:
    """Maximize the chosen complexity over the overlap m at fixed objective value x.

    ``x`` is a scalar or a 1-D array and ``coarse`` an integer >= 2, as for
    :func:`project_max_over_x`.  The search interval is [-1 + 1e-9, 1 - 1e-9].
    """
    fn = _complexity_fn(which)
    return _project_rows(lambda x_, m_: fn(params, m_, x_), x, *_M_SEARCH, coarse)


def region_nonnegative(
    params: ModelParams, grid: GridSpec, which: str = "zero", tol: float = 0.0
) -> np.ndarray:
    """Boolean mask, shape (m_steps, x_steps): complexity >= -tol at cell centers.

    tol = 0 is the exact sign region.  A small positive tol widens it enough
    to expose measure-zero features (the complexity touches zero at a single
    point above the critical SNR, which no finite grid hits exactly).  ``tol``
    must be finite and >= 0.
    """
    fn = _complexity_fn(which)
    tol = _real(tol, "tol", 0.0)
    m, x = grid_centers(grid)
    vals = fn(params, m[:, None], x[None, :])
    return np.asarray(vals >= -tol)


def band_endpoints(
    params: ModelParams,
    which: str = "zero",
    xtol: float = 1e-10,
) -> BandReport:
    """Locate where the projected complexity max_x S(m, x) changes sign.

    The star edges m1 = -m2 bound the first sign region of the closed-form,
    even ``s_star_projection``: a grid bracket narrowed to ``xtol`` (finite
    and > 0) by multisection, 6 rounds at the default.  Since
    s_zero <= s_star, the zero edges are narrowed together inside them, on
    [0, m1] and [0, m2]: each round is one batched numeric projection over
    16 points of each bracket, and shrinks both brackets 17-fold, so the
    default takes 8 or 9 rounds.  A round cap ends the search for a ``xtol``
    below what doubles resolve.
    The touch point ``m_star``, where the projection climbs back to zero at
    high overlap, is the closed-form root ``good_location_zero(params)`` for
    either surface: present iff lam >= lambda_critical(k).

    Conditioning: within about 1e-9 (relative) of lambda_critical(k) the
    projections touch zero tangentially, and are flat to +-1e-15 over about
    1e-4 in m around the edges.  There m1 and m2 are set by rounding and are
    good to only about 5e-5, whatever ``xtol``.
    """
    xtol = _real(xtol, "xtol", 0.0, strict=True)

    def star(ms: np.ndarray) -> np.ndarray:
        return s_star_projection(params, ms)

    ms = np.linspace(0.0, 1.0 - 1e-7, _BAND_SCAN_POINTS)
    vals = star(ms)
    i = np.flatnonzero(vals <= 0.0)[0]  # vals[0] = log(k - 1) / 2 > 0
    edge = float(_bisect_crossings(star, ms[i - 1 : i], ms[i : i + 1], vals[i : i + 1], xtol)[0])
    if which == "star":
        return BandReport(m1=-edge, m2=edge, m_star=good_location_zero(params))

    def proj(ms: np.ndarray) -> np.ndarray:
        return project_max_over_x(params, ms, which=which).value

    # in exact arithmetic proj <= star = 0 at the star edges; rounding can
    # leave it a few ulp above 0 there (k = 4 at lambda_critical)
    edges = np.array([-edge, edge])
    m1, m2 = _bisect_crossings(proj, np.zeros(2), edges, np.minimum(proj(edges), 0.0), xtol)
    return BandReport(m1=float(m1), m2=float(m2), m_star=good_location_zero(params))
