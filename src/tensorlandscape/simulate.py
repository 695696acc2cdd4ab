"""Direct simulation of the spiked tensor objective on the sphere.

Everything here works with a symmetric tensor

    Y = lam * u^(x)k + W / sqrt(2n),

where W is an iid Gaussian array averaged over all k! index-position
permutations.  With that normalization f(sigma) = <Y, sigma^(x)k> has noise
variance 1/(2n) at every unit sigma, matching the scaling under which the
complexity formulas of the sibling modules are exact.

Provided tools: Riemannian gradient and Hessian of f on the unit sphere
(the Hessian in an explicit orthonormal tangent basis, so its eigenvalues
classify critical points), tensor power iteration and projected gradient
ascent with backtracking (one shifted power loop with one stopping rule,
|grad f| < tol), and an inventory of critical points with their Morse
index.  The inventory tracks every path of a total-degree homotopy to the
complex eigenvectors Y[x^(k-1)] = x, all paths at once, and certifies the
result complete; where it cannot (past a path budget, or on a degenerate
tensor), it also runs a multi-start search by damped (Levenberg-Marquardt)
Newton steps on |grad f|^2 / 2.

Two kernels contract the tensor, each for a (B, n) stack of points (a
single point is a stack of one), and both read its packed store, which
keeps the pairs j <= l of its last two axes: half the bytes of the dense
array, built with the tensor and its only state.
``_contract`` reads every packed column and gives Y[x^(k-2)] and
Y[x^(k-1)] for real or complex rows: the Hessians, the Newton steps and the
homotopy use it, and ``_contract_rows`` adds f and the sphere gradient of
real rows.  ``_gradient_rows`` gives only w = Y[x^(k-1)], f and the sphere
gradient of real rows, from the packed columns whose two indices lie in
one half of [0, n), about a quarter of the dense bytes: ``objective``,
``riemannian_grad``, both optimizers and the values of the inventory's
records use it.  At n = 100, k = 3 it takes about 0.55 of
``_contract_rows``'s time for one point (``BENCH_simulate.json``).

``objective``, ``riemannian_grad`` and ``riemannian_hess`` take a unit
sigma (norm within 1e-12 of 1) and raise ValueError for any other.

The store is meant for desk-scale dimensions, not production tensor
decomposition: a tensor holds n^(k-1)(n+1)/2 floats, and
``make_spiked_tensor`` draws its Gaussian array whole, n^k floats more
while it builds one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .complexity import ModelParams, _count, _real, _seed

__all__ = [
    "SpikedTensor",
    "CriticalPointRecord",
    "AscentTrace",
    "DegenerateIterateError",
    "make_spiked_tensor",
    "noiseless_tensor",
    "objective",
    "tangent_basis",
    "riemannian_grad",
    "riemannian_hess",
    "power_iteration",
    "gradient_ascent",
    "find_critical_points",
    "landscape_histogram",
]


class DegenerateIterateError(RuntimeError):
    """Raised when an iteration produces a vector it cannot renormalize."""


#: ``SpikedTensor.from_dense`` takes an entry within this much of max|Y| of
#: its transposes as equal
_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class SpikedTensor:
    """A realized observation: dimension, order, planted direction, and Y's
    packed store, its only state, frozen and read-only.

    ``packed`` keeps the pairs j <= l of Y's last two axes, of shape
    (n^(k-2), n(n+1)/2): packed[a, p] = Y[a, j_p, l_p] in ``_triangle``
    order, a the leading k-2 indices flattened; the entry for (j, l) stands
    for (l, j) too.  ``make_spiked_tensor`` and ``noiseless_tensor`` build
    it without a dense array; ``from_dense`` packs one.
    """

    n: int
    k: int
    u: np.ndarray
    packed: np.ndarray

    def __post_init__(self):
        if np.shape(self.packed) != (self.n ** (self.k - 2), self.n * (self.n + 1) // 2):
            raise ValueError("packed must have shape (n^(k-2), n(n+1)/2); "
                             "SpikedTensor.from_dense packs a dense array")

    @classmethod
    def from_dense(cls, n: int, k: int, u: np.ndarray, data: np.ndarray) -> SpikedTensor:
        """The tensor with the dense entries ``data``, packed.

        ``n`` must be an integer >= 2 and ``k`` one >= 3 (neither a bool),
        ``u`` a unit vector of length n, and ``data`` a finite array of shape
        (n,)^k, symmetric: within _SYMMETRY_TOL max|data| of its transpose
        under each swap of two adjacent axes (so within k(k-1)/2 times that
        of any transpose).  The entries with j <= l in the last two axes are
        kept.
        """
        n, k = _count(n, "n", 2), _count(k, "k", 3)
        u = _check_unit(u, "u", size=n)
        data = np.asarray(data, dtype=float)
        if data.shape != (n,) * k:
            raise ValueError(f"data must have shape (n,)^k = {(n,) * k}, got {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError("data must be finite")
        bound = _SYMMETRY_TOL * np.abs(data).max()
        for axis in range(k - 1):
            if not np.abs(data - np.swapaxes(data, axis, axis + 1)).max() <= bound:
                raise ValueError(f"data must be symmetric (within {_SYMMETRY_TOL} max|data|)")
        rows, cols, _ = _triangle(n)
        packed = np.take(data.reshape(-1, n * n), rows * n + cols, axis=1)
        packed.flags.writeable = False
        return cls(n, k, u.copy(), packed)

    @functools.cached_property
    def data(self) -> np.ndarray:
        """The dense Y, of shape (n,)^k, unpacked from the store on the first
        read and kept, read-only: exactly symmetric in its last two axes, and
        in the others only as the store is (see ``make_spiked_tensor``)."""
        data = np.take(self.packed, _triangle(self.n)[2], axis=1).reshape((self.n,) * self.k)
        data.flags.writeable = False
        return data


@dataclass
class CriticalPointRecord:
    """One located critical point.

    ``index`` counts tangent-Hessian eigenvalues above the zero threshold, so
    index 0 is a local maximum (negative semidefinite up to the threshold);
    ``m`` is the overlap with the planted direction; ``iters`` the accepted
    steps of the homotopy path or Newton start, or the steps of the power or
    ascent run, that found it.
    """

    sigma: np.ndarray
    f_value: float
    grad_norm: float
    index: int
    m: float
    iters: int = 0


@dataclass
class AscentTrace:
    """Objective values along accepted ascent steps, plus termination info."""

    f_values: np.ndarray
    grad_norm: float
    iters: int
    converged: bool


def _check_unit(v: np.ndarray, name: str, tol: float = 1e-12,
                size: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a vector")
    if not abs(float(np.linalg.norm(v)) - 1.0) <= tol:  # NaN fails too
        raise ValueError(f"{name} must have unit norm (within {tol})")
    if size is not None and len(v) != size:
        raise ValueError(f"{name} must have length n = {size}")
    return v


def _build(n: int, params: ModelParams, u: np.ndarray, g: np.ndarray | None) -> SpikedTensor:
    """The tensor lam u^(x)k + sym(g)/sqrt(2n) (lam u^(x)k if ``g`` is None),
    its store filled one slab Y[a] at a time with O(n^(k-1)) scratch.  Each
    slab repeats the plain expression's operations in its order, so the
    store is bit for bit its columns: ((u_a u_i) u_j)... lam, plus the k!
    views ``np.transpose(g, perm)[a]`` summed in ``permutations`` order,
    divided by k! and then by sqrt(2n)."""
    k, depth = params.k, n ** (params.k - 3)
    rows, cols, _ = _triangle(n)
    keep = rows * n + cols
    packed = np.empty((n * depth, keep.size))
    for a in range(n):
        slab = u[a] * u
        for _ in range(k - 2):
            slab = np.multiply.outer(slab, u)
        slab *= params.lam
        if g is not None:
            noise = np.zeros((n,) * (k - 1))
            for perm in itertools.permutations(range(k)):
                noise += np.transpose(g, perm)[a]
            noise /= math.factorial(k)
            noise /= math.sqrt(2.0 * n)
            slab += noise
        packed[a * depth:(a + 1) * depth] = slab.reshape(depth, n * n)[:, keep]
    packed.flags.writeable = False
    return SpikedTensor(n=n, k=k, u=u.copy(), packed=packed)


def make_spiked_tensor(n: int, k: int, lam: float, u: np.ndarray,
                       seed: int | Sequence[int]) -> SpikedTensor:
    """Draw Y = lam u^(x)k + sym(G)/sqrt(2n) with G iid standard Gaussian.

    The symmetrization averages G over all k! index-position permutations;
    an entry with all-distinct indices then has variance 1/(2n k!), and
    <Y - E Y, sigma^(x)k> ~ N(0, 1/(2n)) for every unit sigma.

    The store is symmetric only up to rounding.  The symmetrization sums
    the k! transposes of G in each entry's own index order, and each entry
    of the signal is its own product of u's, so most entries differ from
    some transpose of theirs: by up to 1.3, 1.7 and 5.6 eps max|Y| on draws
    at k = 3, 4 and 5 (n = 100, 20 and 10), and by up to 0.8 eps max|Y| in
    ``noiseless_tensor``'s products.  The kernels read different
    transposes of one entry, and agree only to that rounding.

    ``n`` must be an integer >= 2 and ``k`` one >= 3 (neither a bool), and
    ``lam`` finite and >= 0, as ``ModelParams`` requires, and ``seed`` an
    integer >= 0 or a non-empty list or tuple of them.
    """
    n, params = _count(n, "n", 2), ModelParams(k, lam)
    u = _check_unit(u, "u", size=n)
    return _build(n, params, u, np.random.default_rng(_seed(seed)).normal(size=(n,) * params.k))


def noiseless_tensor(n: int, k: int, lam: float, u: np.ndarray) -> SpikedTensor:
    """The pure signal lam u^(x)k; the landscape every algorithm should ace.

    Symmetric only up to rounding, as ``make_spiked_tensor`` says.

    ``n`` must be an integer >= 2 and ``k`` one >= 3 (neither a bool), and
    ``lam`` finite and > 0: at lam = 0 the tensor is zero and every point of
    the sphere is critical.
    """
    n, params = _count(n, "n", 2), ModelParams(k, lam)
    if params.lam == 0.0:
        raise ValueError("lam must be > 0")
    return _build(n, params, _check_unit(u, "u", size=n), None)


@functools.lru_cache(maxsize=8)
def _triangle(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs j <= l of an (n, n) matrix in packed order, and the (n, n)
    map from (j, l) to the packed position of (min(j, l), max(j, l)); all
    read-only.

    With A = [0, n//2) and B = [n//2, n), the pairs with both indices in A
    come first, then those with both in B, each block in ``np.triu_indices``
    order, then those with j in A and l in B, in row-major order."""
    half = n // 2
    rows, cols = np.triu_indices(n)
    order = np.argsort(np.where(cols < half, 0, np.where(rows >= half, 1, 2)), kind="stable")
    rows, cols = rows[order], cols[order]
    unpack = np.empty((n, n), dtype=np.intp)
    unpack[rows, cols] = unpack[cols, rows] = np.arange(rows.size)
    rows.flags.writeable = cols.flags.writeable = unpack.flags.writeable = False
    return rows, cols, unpack


@functools.lru_cache(maxsize=8)
def _halves(n: int) -> tuple:
    """What ``_gradient_rows`` reads of ``_triangle(n)``, all read-only:
    n//2; the number of pairs within A and within either half; the first
    indices of the same-half pairs followed by their second indices; the
    weight of each, 1 on the diagonal and 2 off it, as a column; and the maps
    from (j, l) in A x A to its position among the A pairs, and from B x B
    to its position among the B pairs."""
    rows, cols, unpack = _triangle(n)
    half = n // 2
    within_a = half * (half + 1) // 2
    same = within_a + (n - half) * (n - half + 1) // 2
    ends = np.concatenate([rows[:same], cols[:same]])
    weight = np.where(rows[:same] == cols[:same], 1.0, 2.0)[:, None]
    fold_a, fold_b = unpack[:half, :half].copy(), unpack[half:, half:] - within_a
    for table in (ends, weight, fold_a, fold_b):
        table.flags.writeable = False
    return half, within_a, same, ends, weight, fold_a, fold_b


def _contract(tensor: SpikedTensor, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of a (B, n) array x, real or complex: Y[x^(k-2)] of shape
    (B, n, n) and Y[x^(k-1)] of shape (B, n).

    Y[x^(k-2)] comes from every column of the packed tensor: one matrix
    product contracts its first index, k-3 einsums the next ones, and one
    gather unpacks the symmetric result.  A row of a stack is not bit for
    bit that row contracted alone, so single points go in as (1, n)
    stacks."""
    packed, n = tensor.packed, tensor.n
    out = x @ packed.reshape(n, -1)
    for _ in range(tensor.k - 3):
        out = np.einsum("bjt,bj->bt", out.reshape(len(x), n, out.shape[1] // n), x)
    flat = np.take(out, _triangle(n)[2], axis=1)
    return flat, np.einsum("bij,bj->bi", flat, x)


def _contract_rows(tensor: SpikedTensor, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """For each row of a real (B, n) array x: Y[x^(k-2)], w = Y[x^(k-1)],
    f = w . x of shape (B,) and the sphere gradient of shape (B, n), from
    one ``_contract``."""
    flat, w = _contract(tensor, x)
    return flat, w, np.vecdot(w, x), _sphere_grad(tensor.k, w, x)


def _gradient_rows(tensor: SpikedTensor, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """For each row of a real (B, n) array x: w = Y[x^(k-1)], f = w . x of
    shape (B,) and the sphere gradient of shape (B, n), from the packed
    columns whose two indices lie in one half, A = [0, n//2) or B = [n//2,
    n): about n^k/4 floats, a quarter of the dense array.

    The pairs (j, l) within one half reach w_i through one product of those
    columns with x (x) x packed the same way, off-diagonal terms doubled.
    A pair across the halves, a in A and b in B, reaches w_i for i in A
    through the same-half entry Y[b, ..., i, a]: the rows with first index
    in B, contracted with x and the middle indices, give a symmetric A x A
    matrix, and twice it times x_A is w_A's share of the cross pairs; w_B's
    share reads Y[a, ..., i, b] likewise.  ``_contract`` reads Y[i, ..., a,
    b] instead, so the two kernels agree up to rounding and the symmetry of
    ``data`` (see ``make_spiked_tensor``).  A row of a stack is not bit for
    bit that row alone, so single points go in as (1, n) stacks."""
    packed, n, size = tensor.packed, tensor.n, len(x)
    half, within_a, same, ends, weight, fold_a, fold_b = _halves(n)
    lead = x  # x^(k-2), flattened as the packed rows are
    for _ in range(tensor.k - 3):
        lead = (lead[:, :, None] * x[:, None, :]).reshape(size, lead.shape[1] * n)
    at_ends = x.T.take(ends, axis=0)
    w = (packed[:, :same] @ (at_ends[:same] * at_ends[same:] * weight)).T
    for _ in range(tensor.k - 3):
        w = np.einsum("bij,bj->bi", w.reshape(size, w.shape[1] // n, n), x)
    cut, twice = len(packed) // n * half, 2.0 * x  # rows from cut on have first index in B
    across = (lead[:, cut:] @ packed[cut:, :within_a]).take(fold_a, axis=1)
    w[:, :half] += (across @ twice[:, :half, None])[:, :, 0]
    across = (lead[:, :cut] @ packed[:cut, within_a:same]).take(fold_b, axis=1)
    w[:, half:] += (across @ twice[:, half:, None])[:, :, 0]
    return w, np.vecdot(w, x), _sphere_grad(tensor.k, w, x)


def objective(tensor: SpikedTensor, sigma: np.ndarray) -> float:
    """f(sigma) = <Y, sigma^(x)k> for unit sigma."""
    return float(_gradient_rows(tensor, _check_unit(sigma, "sigma", size=tensor.n)[None])[1][0])


def tangent_basis(sigma: np.ndarray) -> np.ndarray:
    """Orthonormal (n, n-1) completion of sigma from a Householder reflection.

    Columns span the tangent space of the sphere at sigma; the construction
    is deterministic in sigma.  Leading batch axes are kept: a (B, n) stack
    of points gives a (B, n, n-1) stack of bases, each row bit for bit the
    basis of that point alone.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[-1]
    v = sigma.copy()
    v[..., 0] += np.where(sigma[..., 0] >= 0.0, 1.0, -1.0)
    v /= np.sqrt(np.vecdot(v, v))[..., None]
    # columns 2..n of the reflection I - 2 v v^T are orthonormal and
    # orthogonal to the image of e1, which is -sign(sigma_0) * sigma
    basis = -2.0 * (v[..., :, None] * v[..., None, 1:])
    basis[..., np.arange(1, n), np.arange(n - 1)] += 1.0
    return basis


def _sphere_grad(k: int, w: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """k P_orth w for the contraction w = Y[sigma^(k-1)], over leading batch axes."""
    g = k * w
    return g - np.vecdot(g, sigma)[..., None] * sigma


def _sphere_hess(k: int, flat: np.ndarray, f_val, basis: np.ndarray) -> np.ndarray:
    """k(k-1) B^T flat B - k f I, symmetrized, for flat = Y[sigma^(k-2)] and
    f = f(sigma), over leading batch axes."""
    hess = (k * (k - 1.0) * (np.swapaxes(basis, -1, -2) @ flat @ basis)
            - k * np.asarray(f_val)[..., None, None] * np.eye(basis.shape[-1]))
    return 0.5 * (hess + np.swapaxes(hess, -1, -2))


def riemannian_grad(tensor: SpikedTensor, sigma: np.ndarray) -> np.ndarray:
    """Sphere gradient of f at unit sigma: k P_orth Y[sigma^(k-1)], an n-vector."""
    return _gradient_rows(tensor, _check_unit(sigma, "sigma", size=tensor.n)[None])[2][0]


def riemannian_hess(
    tensor: SpikedTensor, sigma: np.ndarray, basis: np.ndarray | None = None
) -> np.ndarray:
    """Sphere Hessian of f at unit sigma in an orthonormal tangent basis.

    k(k-1) B^T Y[sigma^(k-2)] B - k f(sigma) I, symmetric of shape
    (n-1, n-1); its eigenvalue signs give the Morse index.  ``basis``
    defaults to ``tangent_basis(sigma)``; pass an explicit one to study
    specific tangent directions (e.g. the spike direction).
    """
    sigma = _check_unit(sigma, "sigma", size=tensor.n)
    flat, _, f_val, _ = _contract_rows(tensor, sigma[None])
    if basis is None:
        basis = tangent_basis(sigma)
    return _sphere_hess(tensor.k, flat[0], f_val[0], basis)


def _at_point(tensor: SpikedTensor, sigma: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """w = Y[sigma^(k-1)], f and the sphere gradient at one point, from one
    contraction of the tensor; a zero or non-finite w is an error."""
    w, f_val, grad = _gradient_rows(tensor, sigma[None])
    if not 0.0 < float(np.linalg.norm(w)) < math.inf:
        raise DegenerateIterateError("the contraction Y[sigma^(k-1)] is zero or not finite")
    return w[0], float(f_val[0]), grad[0]


#: the largest ascent step
_ASCENT_STEP = 0.1


def _shifted_power(tensor: SpikedTensor, sigma0: np.ndarray, max_iters: int, tol: float,
                   shifted: bool) -> tuple[np.ndarray, AscentTrace]:
    """Shifted power iteration sigma <- normalize(w + alpha sigma), w = Y[sigma^(k-1)].

    Power iteration is alpha = 0.  The ascent (``shifted``) starts each step
    at alpha = max(1/(k h_max), (k-1)|f|) - f, the gradient step of size
    min(h_max, 1/(k(k-1)|f|)), h_max = _ASCENT_STEP; for f > 0 that is
    SS-HOPM's shift (k-2) f (Kolda & Mayo 2011, 2014).  A candidate losing
    more than 1e-12 of f is retried with alpha <- 2 alpha + f, which halves
    the step; the run ends after 60 tries.  Stops once |grad f| < tol,
    checked before each step, or after ``max_iters`` steps.
    """
    max_iters, tol = _count(max_iters, "max_iters", 1), _real(tol, "tol", 0.0, strict=True)
    sigma = _check_unit(np.asarray(sigma0, dtype=float), "sigma0", tol=1e-8, size=tensor.n)
    sigma = sigma / np.linalg.norm(sigma)
    k = tensor.k
    w, f_val, grad = _at_point(tensor, sigma)
    trace = [f_val]
    while True:
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < tol or len(trace) > max_iters:
            break
        alpha = max(1.0 / (k * _ASCENT_STEP), (k - 1) * abs(f_val)) - f_val if shifted else 0.0
        for _ in range(60):
            cand = w + alpha * sigma
            cand /= np.linalg.norm(cand)
            w_cand, f_cand, grad_cand = _at_point(tensor, cand)
            if not shifted or f_cand >= f_val - 1e-12:
                break
            alpha = 2.0 * alpha + f_val
        else:
            break
        sigma, w, f_val, grad = cand, w_cand, f_cand, grad_cand
        trace.append(f_val)
    return sigma, AscentTrace(np.asarray(trace), grad_norm, len(trace) - 1, grad_norm < tol)


def power_iteration(tensor: SpikedTensor, sigma0: np.ndarray, max_iters: int = 500,
                    tol: float = 1e-10) -> tuple[np.ndarray, int]:
    """Tensor power iteration sigma <- Y[sigma^(k-1)] / |Y[sigma^(k-1)]|.

    Stops once |grad f| < ``tol`` (checked before each step) or after
    ``max_iters`` steps; returns (sigma, steps taken).  Raises
    DegenerateIterateError on a zero contraction (e.g. a noiseless tensor
    contracted orthogonally to its spike, whose orthogonal sphere is an
    invariant set the iteration cannot leave).  ``max_iters`` must be an
    integer >= 1 (not a bool) and ``tol`` finite and > 0.
    """
    sigma, trace = _shifted_power(tensor, sigma0, max_iters, tol, shifted=False)
    return sigma, trace.iters


def gradient_ascent(tensor: SpikedTensor, sigma0: np.ndarray, max_iters: int = 2000,
                    tol: float = 1e-8) -> tuple[np.ndarray, AscentTrace]:
    """Projected gradient ascent sigma <- normalize(sigma + h grad f), h <= 0.1.

    The step h = min(0.1, 1/(k(k-1)|f|)) is halved while it loses more than
    1e-12 of f, so the recorded trace is monotone up to that tolerance.
    Stops once |grad f| < ``tol`` (checked before each step); running out of
    iterations is reported via the trace, not raised.  One contraction per
    point gives both f and the gradient.  Raises DegenerateIterateError on a
    zero contraction.  ``max_iters`` must be an integer >= 1 (not a bool)
    and ``tol`` finite and > 0.
    """
    return _shifted_power(tensor, sigma0, max_iters, tol, shifted=True)


#: tangent-Hessian eigenvalues above this count toward the Morse index;
#: below it they are treated as zero modes (local-max classification margin)
INDEX_ZERO_THRESHOLD = 1e-8

#: Newton damping at each start, its floor, and the ceiling past which a start
#: has stalled; a rejected step raises it tenfold, an accepted one lowers it.
#: A start converges once |grad f| < _NEWTON_TOL, within _NEWTON_MAX_ITERS
#: steps; found points closer than _DEDUP_CHORD in chord distance are merged.
#: Starts are searched _NEWTON_BLOCK at a time, so memory stays
#: O(_NEWTON_BLOCK n^(k-1)).
_DAMPING_START = 1e-3
_DAMPING_FLOOR = 1e-20
_DAMPING_CEILING = 1e12
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITERS = 100
_DEDUP_CHORD = 1e-6
_NEWTON_BLOCK = 256


def _newton_block(tensor: SpikedTensor, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drive the sphere gradient to zero from each row of a (B, n) block of starts.

    Levenberg-Marquardt on |grad f|^2 / 2, each start with its own damping
    mu: with H = V diag(e) V^T and tangent gradient g, s = -V diag(e / (e^2
    + mu)) V^T g solves (H^2 + mu I) s = -H g, a descent step for every
    mu > 0.  A step is accepted only if it lowers |grad f|; then mu <-
    max(mu / 10, floor) and the eigensystem is recomputed.  A rejected step
    retries with mu <- 10 mu; the start fails once mu passes the ceiling or
    after _NEWTON_MAX_ITERS accepted steps without convergence.  Returns the
    final points (updated in place) and the accepted steps of each start,
    -1 for a start that failed.
    """
    k, (size, n) = tensor.k, sigma.shape
    flat, _, f_val, grad = _contract_rows(tensor, sigma)
    grad_norm = np.sqrt(np.vecdot(grad, grad))
    mu = np.full(size, _DAMPING_START)
    steps = np.zeros(size, dtype=int)
    active = ~(grad_norm < _NEWTON_TOL)
    fresh = active.copy()  # starts whose eigensystem is out of date
    basis = np.empty((size, n, n - 1))
    eig, vec, gv = np.empty((size, n - 1)), np.empty((size, n - 1, n - 1)), np.empty((size, n - 1))
    while active.any():
        if fresh.any():
            rows = np.flatnonzero(fresh)
            basis[rows] = tangent_basis(sigma[rows])
            eig[rows], vec[rows] = np.linalg.eigh(
                _sphere_hess(k, flat[rows], f_val[rows], basis[rows]))
            tangent = np.einsum("bji,bj->bi", basis[rows], grad[rows])
            gv[rows] = np.einsum("bji,bj->bi", vec[rows], tangent)
        live = np.flatnonzero(active)
        e = eig[live]
        coef = np.einsum("bij,bj->bi", vec[live], e / (e * e + mu[live, None]) * gv[live])
        cand = sigma[live] - np.einsum("bij,bj->bi", basis[live], coef)
        cand /= np.sqrt(np.vecdot(cand, cand))[:, None]
        cand_flat, _, cand_f, cand_grad = _contract_rows(tensor, cand)
        cand_norm = np.sqrt(np.vecdot(cand_grad, cand_grad))
        better = cand_norm < grad_norm[live]
        took, rejected = live[better], live[~better]
        sigma[took], flat[took], grad[took] = cand[better], cand_flat[better], cand_grad[better]
        f_val[took] = cand_f[better]
        grad_norm[took] = cand_norm[better]
        mu[took] = np.maximum(mu[took] / 10.0, _DAMPING_FLOOR)
        steps[took] += 1
        mu[rejected] *= 10.0
        stalled = rejected[mu[rejected] > _DAMPING_CEILING]
        capped = took[(steps[took] >= _NEWTON_MAX_ITERS) & ~(grad_norm[took] < _NEWTON_TOL)]
        steps[stalled], steps[capped] = -1, -1
        active[stalled] = active[capped] = False
        active[took[grad_norm[took] < _NEWTON_TOL]] = False
        fresh[:] = False
        fresh[took] = active[took]
    return sigma, steps


def _records(tensor: SpikedTensor, points: np.ndarray, iters) -> list[CriticalPointRecord]:
    """The records of the rows of a (B, n) stack of final points, with their
    ``iters`` (one per row).

    Each row goes through ``_gradient_rows`` on its own, which gives its
    ``grad_norm`` and ``f_value`` bit for bit as ``riemannian_grad`` and
    ``objective`` would; the Morse indices of all rows come from one stacked
    tangent Hessian, built from one ``_contract`` of the stack and those
    values, and one ``eigvalsh``.
    """
    rows = [_gradient_rows(tensor, sigma[None]) for sigma in points]
    f_vals = np.array([f_val[0] for _, f_val, _ in rows])
    hess = _sphere_hess(tensor.k, _contract(tensor, points)[0], f_vals, tangent_basis(points))
    index = np.count_nonzero(np.linalg.eigvalsh(hess) > INDEX_ZERO_THRESHOLD, axis=-1)
    return [CriticalPointRecord(sigma=sigma.copy(), f_value=float(f_val[0]),
                                grad_norm=float(np.linalg.norm(grad[0])), index=i,
                                m=float(np.dot(sigma, tensor.u)), iters=it)
            for sigma, (_, f_val, grad), i, it in zip(points, rows, index.tolist(), iters)]


def _distinct(found: list[CriticalPointRecord], n: int) -> list[CriticalPointRecord]:
    """``found`` sorted by (overlap, value), keeping each record whose point
    is at least _DEDUP_CHORD in chord distance from every one kept before."""
    kept, sigmas = [], np.empty((len(found), n))
    for record in sorted(found, key=lambda r: (r.m, r.f_value)):
        gap = sigmas[:len(kept)] - record.sigma
        if np.all(np.sqrt(np.vecdot(gap, gap)) >= _DEDUP_CHORD):
            sigmas[len(kept)] = record.sigma
            kept.append(record)
    return kept


def _multistart(tensor: SpikedTensor, n_starts: int,
                seed) -> tuple[list[CriticalPointRecord], int]:
    """Damped Newton from ``n_starts`` uniform starts drawn from ``seed``:
    the distinct converged records and the number of starts that failed.

    Starts are searched in blocks of _NEWTON_BLOCK, all starts of a block at
    once (see ``_newton_block``); the block size moves the points only by
    rounding.  A start fails if its search stalls or if its record's
    ``grad_norm`` is not below _NEWTON_TOL.
    """
    rng = np.random.default_rng(seed)
    points, iters = [], []  # the final point and accepted steps of each converged start
    for first in range(0, n_starts, _NEWTON_BLOCK):
        starts = rng.normal(size=(min(_NEWTON_BLOCK, n_starts - first), tensor.n))
        starts /= np.sqrt(np.vecdot(starts, starts))[:, None]
        ends, steps = _newton_block(tensor, starts)
        points.append(ends[steps >= 0])
        iters.extend(steps[steps >= 0].tolist())
    found = [r for r in _records(tensor, np.concatenate(points), iters)
             if r.grad_norm < _NEWTON_TOL]
    return _distinct(found, tensor.n), n_starts - len(found)


#: the most paths, (k-1)^n, the homotopy tracks; past it only the multistart
#: search runs.  Against the default 1,000 starts, the homotopy took up to
#: twice as long at 1,024 paths and found every point (the starts missed 58
#: of 310 at k = 3, n = 10), and 3-4 times as long at 2,048 (README).
_PATH_BUDGET = 1024

#: path tracking: the first step in s, the smallest step before a path fails,
#: the most tries (accepted or not) a path takes, and the norm of x past
#: which it has diverged
_PATH_STEP, _PATH_MIN_STEP, _PATH_MAX_TRIES, _PATH_MAX_NORM = 0.05, 1e-9, 1000, 1e8


def _homotopy_system(tensor: SpikedTensor, x: np.ndarray, s: np.ndarray, gamma: complex):
    """H = (1 - s) gamma G + s F, its Jacobian in x and dH/ds at each row of
    a complex (P, n) array x, at that row's s, with F(x) = Y[x^(k-1)] - x
    and G_i(x) = x_i^(k-1) - 1."""
    k, n = tensor.k, tensor.n
    flat, w = _contract(tensor, x)
    power = x ** (k - 2)
    start, target = ((1.0 - s) * gamma)[:, None], s[:, None]
    f, g = w - x, power * x - 1.0
    jac = flat * ((k - 1.0) * s)[:, None, None]
    jac.reshape(len(x), -1)[:, ::n + 1] += (k - 1.0) * start * power - target
    return start * g + target * f, jac, f - gamma * g


def _newton(tensor: SpikedTensor, x: np.ndarray, s: np.ndarray, gamma: complex):
    """One Newton step on H(., s) from each row of x: the new rows, the norm
    of each step, and the tangent dx/ds = -H_x^-1 H_s at the old rows."""
    value, jac, ds = _homotopy_system(tensor, x, s, gamma)
    sol = np.linalg.solve(jac, np.stack([value, ds], axis=-1))
    return x - sol[..., 0], np.sqrt(np.vecdot(sol[..., 0], sol[..., 0]).real), -sol[..., 1]


def _track(tensor: SpikedTensor, gamma: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Track every path of ``_homotopy_system`` from s = 0, where x_i runs
    over the (k-1)-th roots of unity, to s = 1, all paths at once.

    Each path has its own step in s: a fourth-order Runge-Kutta predictor on
    dx/ds = -H_x^-1 H_s, then two Newton corrections at the new s.  The step
    is accepted if the first correction is at most 1e-2 (1 + |x|), which
    keeps a path from jumping to another, and the second at most 1e-4
    (1 + |x|); the next step is then twice as long if the first correction
    was at most 2.5e-4 (1 + |x|), and as long otherwise.  A rejected step is
    retried at half the length.  A path fails once its step is below
    _PATH_MIN_STEP, after _PATH_MAX_TRIES tries, or once |x| passes
    _PATH_MAX_NORM.  The endpoints get three more Newton steps at s = 1, and
    a path reaches s = 1 only if the last is at most 1e-10 (1 + |x|).
    Returns the (P, n) endpoints, the accepted steps of each path and
    whether each path reached s = 1.
    """
    k, n = tensor.k, tensor.n
    x = np.exp(2j * np.pi / (k - 1) * np.indices((k - 1,) * n).reshape(n, -1).T)
    ends, steps, done = x.copy(), np.zeros(len(x), dtype=int), np.zeros(len(x), dtype=bool)
    paths = np.arange(len(x))  # the live paths, and their s, step, tangent and tries
    s, step, tries = np.zeros(len(x)), np.full(len(x), _PATH_STEP), np.zeros(len(x), dtype=int)
    v = _newton(tensor, x, s, gamma)[2]

    def velocity(x, s):  # the tangent alone: through _newton a track took 8 % longer
        _, jac, ds = _homotopy_system(tensor, x, s, gamma)
        return -np.linalg.solve(jac, ds[..., None])[..., 0]

    while len(paths):
        h = np.minimum(step, 1.0 - s)
        mid, end = s + 0.5 * h, np.where(h < 1.0 - s, s + h, 1.0)
        v2 = velocity(x + 0.5 * h[:, None] * v, mid)
        v3 = velocity(x + 0.5 * h[:, None] * v2, mid)
        v4 = velocity(x + h[:, None] * v3, end)
        cand = x + (h / 6.0)[:, None] * (v + 2.0 * (v2 + v3) + v4)
        cand, first, _ = _newton(tensor, cand, end, gamma)
        cand, second, tangent = _newton(tensor, cand, end, gamma)
        scale = 1.0 + np.sqrt(np.vecdot(cand, cand).real)
        took = (second <= 1e-4 * scale) & (first <= 1e-2 * scale)
        x[took], s[took], v[took] = cand[took], end[took], tangent[took]
        steps[paths[took]] += 1
        step = np.where(took, np.where(first <= 2.5e-4 * scale, 2.0 * h, h), 0.5 * h)
        tries += 1
        finished = took & (s == 1.0)
        leave = finished | (step < _PATH_MIN_STEP) | (tries >= _PATH_MAX_TRIES) | (
            took & ~(scale <= _PATH_MAX_NORM))
        if leave.any():
            ends[paths[leave]], done[paths[finished]] = x[leave], True
            stay = ~leave
            paths, x, s, step, v, tries = (a[stay] for a in (paths, x, s, step, v, tries))
    one = np.ones(len(ends))
    for _ in range(3):
        ends, last, _ = _newton(tensor, ends, one, gamma)
    return ends, steps, done & (last <= 1e-10 * (1.0 + np.linalg.norm(ends, axis=1)))


def _all_distinct(x: np.ndarray, tol: float) -> bool:
    """Whether every two rows of a complex (P, n) array are farther apart
    than ``tol`` (1 + the larger norm), compared a block of rows at a time."""
    sq = np.vecdot(x, x).real
    for first in range(0, len(x), _NEWTON_BLOCK):
        block = slice(first, first + _NEWTON_BLOCK)
        gap = sq[block, None] + sq[None, :] - 2.0 * (x[block].conj() @ x.T).real
        scale = 1.0 + np.sqrt(np.maximum(sq[block, None], sq[None, :]))
        np.fill_diagonal(gap[:, first:], np.inf)
        if not np.all(gap > (tol * scale) ** 2):
            return False
    return True


def _homotopy(tensor: SpikedTensor, gamma: complex) -> tuple[list[CriticalPointRecord], int, bool]:
    """The critical points at the real endpoints of ``_track``'s paths, the
    number of paths that failed, and whether the inventory is certified
    complete.

    A real eigenvector sigma with eigenvalue lam = f(sigma) gives endpoints
    x = c sigma with c^(k-2) lam = 1, so z = x / sqrt(x . x) (complex root)
    is +-sigma; an endpoint is kept if z is real to 1e-8, and both +z and -z
    are polished by ``_newton_block``, then deduplicated.  The certificate:
    every path reached s = 1 with a finite endpoint, the endpoints are
    pairwise distinct, every kept point polished to a record, the records'
    sum of (-1)^index is 1 + (-1)^(n-1) (the Euler characteristic of the
    sphere), for odd k each record pairs with its antipode (value -f, index
    n - 1 - index), and the real pairs are at most ((k-1)^n - 1)/(k-2)
    (Cartwright and Sturmfels 2013).
    """
    k, n = tensor.k, tensor.n
    with np.errstate(all="ignore"):  # diverging paths overflow before they stop
        try:
            ends, steps, done = _track(tensor, gamma)
        except np.linalg.LinAlgError:  # an exactly singular Jacobian
            return [], (k - 1) ** n, False
        nonzero = done & (np.linalg.norm(ends, axis=1) > 1e-8)  # x = 0 always solves F
        z = ends[nonzero] / np.sqrt(np.sum(ends[nonzero] ** 2, axis=1))[:, None]
    real = np.all(np.abs(z.imag) <= 1e-8, axis=1)
    sigma = z.real[real] / np.linalg.norm(z.real[real], axis=1)[:, None]
    polished, polish = _newton_block(tensor, np.concatenate([sigma, -sigma]))
    iters = np.tile(steps[nonzero][real], 2)[polish >= 0].tolist()
    found = [r for r in _records(tensor, polished[polish >= 0], iters)
             if r.grad_norm < _NEWTON_TOL]
    records = _distinct(found, n)
    certified = (bool(done.all()) and len(found) == 2 * len(sigma)
                 and _all_distinct(ends, 1e-6)
                 and sum((-1) ** r.index for r in records) == 1 + (-1) ** (n - 1)
                 and len(records) // 2 <= ((k - 1) ** n - 1) // (k - 2))
    if certified and k % 2:
        sigmas = np.array([r.sigma for r in records])
        for r in records:
            partner = records[int(np.argmin(np.linalg.norm(sigmas + r.sigma, axis=1)))]
            certified &= bool(np.linalg.norm(partner.sigma + r.sigma) < _DEDUP_CHORD
                              and abs(partner.f_value + r.f_value) <= 1e-9
                              and partner.index == n - 1 - r.index)
    return records, int(np.count_nonzero(~done)), certified


def find_critical_points(
    tensor: SpikedTensor,
    n_starts: int = 1000,
    seed: int | Sequence[int] = 0,
) -> tuple[list[CriticalPointRecord], int]:
    """Inventory of critical points: homotopy, with multistart Newton where it
    cannot prove itself complete.

    While the path count (k-1)^n is within _PATH_BUDGET, every complex
    eigenvector x of Y[x^(k-1)] = x is found by tracking all paths of the
    total-degree homotopy (1 - s) gamma G + s F at once (``_track``), with
    gamma a random unit complex number drawn from ``seed``; the real ones
    become records (``_homotopy``).  If the paths' completeness certificate
    holds, those records are the inventory and the failure count is 0.
    Otherwise, or past the budget, ``n_starts`` damped Newton starts drawn
    from ``seed`` run as well (``_multistart``) and their records are
    merged with the homotopy's; the failure count is then the number of
    paths that did not reach s = 1 plus the number of starts that failed.

    A record's ``iters`` is the accepted steps of the path (homotopy) or of
    the Newton start (multistart) that found it.  Records have
    ``grad_norm`` below 1e-10, are sorted by (overlap, value) and are at
    least 1e-6 apart in chord distance, hence in angle (antipodes are
    distinct points: for odd k they carry opposite values).  ``n_starts``
    must be an integer >= 1 (not a bool) and ``seed`` an integer >= 0 or a
    non-empty list or tuple of them.  Returns (records, failure count).
    """
    n_starts, seed = _count(n_starts, "n_starts", 1), _seed(seed)
    records, failures = [], 0
    if (tensor.k - 1) ** tensor.n <= _PATH_BUDGET:
        angle = np.random.default_rng(seed.spawn(1)[0]).random()
        records, failures, certified = _homotopy(tensor, complex(np.exp(2j * np.pi * angle)))
        if certified:
            return records, 0
    more, failed = _multistart(tensor, n_starts, seed)
    return _distinct(records + more, tensor.n), failures + failed


def landscape_histogram(
    records: list[CriticalPointRecord],
    m_bins: int = 20,
    f_bins: int = 20,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2D histogram of local-maximum records over (overlap, value).

    Only records with Morse index 0 are binned.  The overlap axis spans
    [-1, 1]; the value axis spans the values of all supplied records (padded),
    so an empty local-max subset still yields a well-defined zero histogram.
    ``m_bins`` and ``f_bins`` must be integers >= 1 (not bools).
    """
    if not records:
        raise ValueError("landscape_histogram needs a nonempty record list")
    m_bins, f_bins = _count(m_bins, "m_bins", 1), _count(f_bins, "f_bins", 1)
    f_all = [r.f_value for r in records]
    span = max(max(f_all) - min(f_all), 1e-12)
    f_range = (min(f_all) - 0.05 * span, max(f_all) + 0.05 * span)
    maxima = [r for r in records if r.index == 0]
    m_vals = np.array([r.m for r in maxima])
    f_vals = np.array([r.f_value for r in maxima])
    counts, m_edges, f_edges = np.histogram2d(
        m_vals, f_vals, bins=[m_bins, f_bins], range=[(-1.0, 1.0), f_range]
    )
    return counts, m_edges, f_edges
