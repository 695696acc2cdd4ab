"""Tests for tensor sampling, sphere calculus, and landscape exploration.

Oracles: finite differences for the gradient and Hessian, exact closed forms
on the noiseless rank-one landscape, invariance under rotations of the
ambient space, and a per-start Newton search against which the batched
multistart search is checked.
"""

import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import not_counts, not_seeds
from tensorlandscape import (
    DegenerateIterateError,
    SpikedTensor,
    find_critical_points,
    gradient_ascent,
    landscape_histogram,
    make_spiked_tensor,
    noiseless_tensor,
    objective,
    power_iteration,
    riemannian_grad,
    riemannian_hess,
    tangent_basis,
)
from tensorlandscape import simulate
from tensorlandscape.simulate import CriticalPointRecord


def unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def rotate_tensor(data, q):
    """Apply q to every mode of a k=3 tensor."""
    return np.einsum("ai,bj,cl,ijl->abc", q, q, q, data)


def retract(sigma, v, h):
    cand = sigma + h * v
    return cand / np.linalg.norm(cand)


def newton_polish(tensor, sigma):
    """One start of the Newton search, one start at a time: the reference
    the batched search in ``simulate`` must reproduce.

    Levenberg-Marquardt on |grad f|^2 / 2: with H = V diag(e) V^T and tangent
    gradient g, s = -V diag(e / (e^2 + mu)) V^T g solves (H^2 + mu I) s = -H g.
    Returns (sigma, |grad f|, steps taken), or None if the start stalls.
    """
    mu = simulate._DAMPING_START
    grad = riemannian_grad(tensor, sigma)
    grad_norm = float(np.linalg.norm(grad))
    for it in range(simulate._NEWTON_MAX_ITERS):
        if grad_norm < simulate._NEWTON_TOL:
            return sigma, grad_norm, it
        basis = tangent_basis(sigma)
        eig, vec = np.linalg.eigh(riemannian_hess(tensor, sigma, basis=basis))
        gv = vec.T @ (basis.T @ grad)
        while True:
            cand = sigma - basis @ (vec @ (eig / (eig * eig + mu) * gv))
            cand /= np.linalg.norm(cand)
            cand_grad = riemannian_grad(tensor, cand)
            cand_norm = float(np.linalg.norm(cand_grad))
            if cand_norm < grad_norm:
                break
            mu *= 10.0
            if mu > simulate._DAMPING_CEILING:
                return None
        sigma, grad, grad_norm = cand, cand_grad, cand_norm
        mu = max(mu / 10.0, simulate._DAMPING_FLOOR)
    if grad_norm < simulate._NEWTON_TOL:
        return sigma, grad_norm, simulate._NEWTON_MAX_ITERS
    return None


def reference_search(tensor, n_starts, seed):
    """``find_critical_points`` with one ``newton_polish`` call per start."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    found, failures = [], 0
    for _ in range(n_starts):
        start = rng.normal(size=tensor.n)
        polished = newton_polish(tensor, start / np.linalg.norm(start))
        if polished is None:
            failures += 1
            continue
        sigma, grad_norm, iters = polished
        eigs = np.linalg.eigvalsh(riemannian_hess(tensor, sigma))
        found.append(CriticalPointRecord(
            sigma=sigma, f_value=objective(tensor, sigma), grad_norm=grad_norm,
            index=int(np.sum(eigs > simulate.INDEX_ZERO_THRESHOLD)),
            m=float(sigma @ tensor.u), iters=iters))
    found.sort(key=lambda r: (r.m, r.f_value))
    records = []
    for rec in found:
        if all(np.linalg.norm(rec.sigma - kept.sigma) >= simulate._DEDUP_CHORD
               for kept in records):
            records.append(rec)
    return records, failures


def cli_tensor(n, lam, seed):
    """The k = 3 tensor perfbench's ``cli_draw(n, lam, seed)`` draws."""
    u = unit(np.random.default_rng(seed), n)
    return make_spiked_tensor(n, 3, lam, u, seed=seed)


def packed_columns(dense):
    """The pairs j <= l of the last two axes of a dense (n,)^k array, rows
    flattened over the leading k-2 indices: the pairs within [0, n//2), then
    within [n//2, n), then across, each in row-major order."""
    n = dense.shape[0]
    half = n // 2
    pairs = ([(j, l) for j in range(half) for l in range(j, half)]
             + [(j, l) for j in range(half, n) for l in range(j, n)]
             + [(j, l) for j in range(half) for l in range(half, n)])
    rows, cols = np.array(pairs).T
    return dense.reshape(-1, n, n)[:, rows, cols]


def assert_same_search(got, want):
    """Same record count, failure count and Morse indices; points within 1e-12."""
    (records, failures), (ref_records, ref_failures) = got, want
    assert failures == ref_failures
    assert [r.index for r in records] == [r.index for r in ref_records]
    for rec, ref in zip(records, ref_records):
        np.testing.assert_allclose(rec.sigma, ref.sigma, rtol=0.0, atol=1e-12)


class TestMakeSpikedTensor:
    def test_deterministic_and_symmetric(self):
        rng = np.random.default_rng(0)
        u = unit(rng, 5)
        a = make_spiked_tensor(5, 3, 1.0, u, seed=9)
        b = make_spiked_tensor(5, 3, 1.0, u, seed=9)
        assert np.array_equal(a.packed, b.packed)
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
            assert np.allclose(a.data, np.transpose(a.data, perm), atol=1e-15)

    def test_planted_value_dominates_at_huge_snr(self):
        rng = np.random.default_rng(1)
        u = unit(rng, 4)
        tensor = make_spiked_tensor(4, 3, 1e6, u, seed=0)
        assert objective(tensor, u) == pytest.approx(1e6, rel=1e-4)

    def test_distinct_index_entry_variance(self):
        # an all-distinct-indices entry of the symmetrized noise has
        # variance 1/(2 n k!)
        n, k = 12, 3
        u = np.zeros(n)
        u[0] = 1.0
        values = []
        for seed in range(10):
            data = make_spiked_tensor(n, k, 0.0, u, seed=seed).data
            i, j, l = np.meshgrid(*(np.arange(n),) * 3, indexing="ij")
            distinct = (i < j) & (j < l)
            values.append(data[distinct])
        values = np.concatenate(values)
        ratio = values.var(ddof=1) * 2.0 * n * math.factorial(k)
        assert abs(ratio - 1.0) < 4.0 * math.sqrt(2.0 / values.size)

    def test_projected_noise_variance(self):
        # <Y, sigma^(x)k> ~ N(0, 1/(2n)) at lam = 0 for any unit sigma
        n, k = 8, 3
        rng = np.random.default_rng(5)
        u = unit(rng, n)
        sigma = unit(rng, n)
        vals = np.array(
            [objective(make_spiked_tensor(n, k, 0.0, u, seed=s), sigma) for s in range(400)]
        )
        ratio = vals.var(ddof=1) * 2.0 * n
        assert abs(ratio - 1.0) < 4.0 * math.sqrt(2.0 / (vals.size - 1))

    @pytest.mark.parametrize("n, k", [(5, 3), (7, 4), (2, 3), (8, 4), (10, 5), (3, 6)])
    def test_store_is_the_sum_bit_for_bit(self, n, k):
        # the store is built a slab at a time; it must hold the columns of
        # the plain expression lam u^(x)k + sym(G) / sqrt(2n) exactly, and
        # noiseless_tensor's those of lam u^(x)k
        u = unit(np.random.default_rng(n), n)
        g = np.random.default_rng(np.random.SeedSequence(11)).normal(size=(n,) * k)
        sym = np.zeros_like(g)
        for perm in itertools.permutations(range(k)):
            sym += np.transpose(g, perm)
        rank_one = functools.reduce(np.multiply.outer, [u] * k)
        want = 1.7 * rank_one + sym / math.factorial(k) / math.sqrt(2.0 * n)
        assert np.array_equal(make_spiked_tensor(n, k, 1.7, u, seed=11).packed,
                              packed_columns(want))
        assert np.array_equal(noiseless_tensor(n, k, 1.7, u).packed,
                              packed_columns(1.7 * rank_one))

    def test_build_holds_the_store_alone(self):
        # traced: the tensor holds its n^2(n+1)/2 stored floats, and the
        # build peaks at G plus the store plus a few (n,)^(k-1) slabs, not
        # at two n^k arrays
        n, k = 60, 3
        u = unit(np.random.default_rng(0), n)
        make_spiked_tensor(n, k, 1.0, u, seed=0)  # fills the index caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tensor = make_spiked_tensor(n, k, 1.0, u, seed=0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        store, slab = 8 * n * n * (n + 1) // 2, 8 * n ** (k - 1)
        assert store <= held - base <= store + slab
        assert peak - base <= 8 * n ** k + store + 6 * slab
        assert tensor.packed.nbytes == store

    def test_rejects_bad_arguments(self):
        u = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            make_spiked_tensor(1, 3, 1.0, np.array([1.0]), seed=0)
        with pytest.raises(ValueError):
            make_spiked_tensor(3, 2, 1.0, u, seed=0)
        with pytest.raises(ValueError):
            make_spiked_tensor(3, 3, -0.5, u, seed=0)
        with pytest.raises(ValueError):
            make_spiked_tensor(3, 3, 1.0, 2.0 * u, seed=0)
        with pytest.raises(ValueError):
            make_spiked_tensor(4, 3, 1.0, u, seed=0)
        # n and k are counts for both builders, and the error names them
        for build in (lambda n, k: make_spiked_tensor(n, k, 1.0, u, seed=0),
                      lambda n, k: noiseless_tensor(n, k, 1.0, u)):
            for n in not_counts(2):
                with pytest.raises(ValueError, match="^n must be >= 2 and an integer"):
                    build(n, 3)
            for k in not_counts(3):
                with pytest.raises(ValueError, match="^k must be >= 3 and an integer"):
                    build(3, k)

    @pytest.mark.parametrize("seed", not_seeds())
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="^seed must be"):
            make_spiked_tensor(3, 3, 1.0, np.array([1.0, 0.0, 0.0]), seed=seed)

    def test_seed_forms_draw_the_same_tensor(self):
        # a NumPy integer is its int, a tuple its list
        u = np.array([1.0, 0.0, 0.0])
        for one, other in ((7, np.int64(7)), ([3, 4], (3, 4)), ([3, 4], [np.int32(3), 4])):
            assert np.array_equal(make_spiked_tensor(3, 3, 1.0, u, seed=one).packed,
                                  make_spiked_tensor(3, 3, 1.0, u, seed=other).packed)


def dense_contraction(data, x):
    """Y[x^(k-2)] per row of x by one plain einsum over the dense tensor."""
    k = data.ndim
    axes = "acdefg"[:k]
    spec = ",".join([axes] + ["b" + a for a in axes[:k - 2]])
    return np.einsum(f"{spec}->b{axes[k - 2:]}", data, *[x] * (k - 2))


class TestPackedKernel:
    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("n", [2, 3, 7, 8])
    @pytest.mark.parametrize("rows", [1, 6])
    def test_matches_dense_einsum(self, k, n, rows):
        # both kernels; odd and even n split [0, n) into unequal or equal halves
        rng = np.random.default_rng([k, n, rows])
        tensor = make_spiked_tensor(n, k, 1.3, unit(rng, n), seed=k + n)
        x = rng.standard_normal((rows, n))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        flat, w, f, grad = simulate._contract_rows(tensor, x)
        want = dense_contraction(tensor.data, x)
        want_w = np.einsum("bij,bj->bi", want, x)
        want_f = np.einsum("bi,bi->b", want_w, x)
        want_grad = k * (want_w - want_f[:, None] * x)
        for got, ref in [(flat, want), (w, want_w), (f, want_f), (grad, want_grad),
                         *zip(simulate._gradient_rows(tensor, x), (want_w, want_f, want_grad))]:
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("k", [3, 4])
    def test_kernels_take_an_empty_stack(self, k):
        # a search whose every start fails leaves no points to record
        tensor = make_spiked_tensor(4, k, 1.0, np.array([1.0, 0.0, 0.0, 0.0]), seed=0)
        empty = np.zeros((0, 4))
        assert [a.shape for a in simulate._contract_rows(tensor, empty)] == [
            (0, 4, 4), (0, 4), (0,), (0, 4)]
        assert [a.shape for a in simulate._gradient_rows(tensor, empty)] == [(0, 4), (0,), (0, 4)]
        assert simulate._records(tensor, empty, []) == []

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("make", ["spiked", "noiseless"])
    def test_store_is_symmetric_up_to_rounding(self, k, make):
        # the kernels read different transposes of one stored entry, so
        # their agreement rests on this bound; the unpacked data is exactly
        # symmetric in its last two axes
        n = 6
        u = unit(np.random.default_rng(k), n)
        tensor = (make_spiked_tensor(n, k, 1.5, u, seed=1) if make == "spiked"
                  else noiseless_tensor(n, k, 1.5, u))
        data = tensor.data
        assert np.array_equal(data, np.swapaxes(data, -1, -2))
        bound = math.factorial(k) * np.finfo(float).eps * np.abs(data).max()
        for perm in itertools.permutations(range(k)):
            assert np.abs(data - np.transpose(data, perm)).max() <= bound

    @pytest.mark.parametrize("k", [3, 4])
    def test_store_is_made_at_construction_and_read_only(self, k):
        n = 5
        tensor = make_spiked_tensor(n, k, 1.0, unit(np.random.default_rng(0), n), seed=1)
        packed = tensor.packed
        assert packed.shape == (n ** (k - 2), n * (n + 1) // 2)
        objective(tensor, tensor.u)
        riemannian_hess(tensor, tensor.u)
        find_critical_points(tensor, n_starts=3, seed=0)
        # the contractions cache nothing: the store is the whole state
        assert set(vars(tensor)) == {"n", "k", "u", "packed"}
        assert vars(tensor)["packed"] is packed
        # data is unpacked once, on the first read, and kept
        data = tensor.data
        assert vars(tensor)["data"] is data and tensor.data is data
        assert data.shape == (n,) * k
        assert np.array_equal(packed_columns(data), packed)
        for array in (packed, data):
            with pytest.raises(ValueError):
                array.flat[0] = 1.0

    def test_tensor_is_frozen(self):
        tensor = noiseless_tensor(4, 3, 1.0, np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            tensor.data = np.zeros((4, 4, 4))
        with pytest.raises(dataclasses.FrozenInstanceError):
            tensor.packed = np.zeros((4, 10))

    @pytest.mark.parametrize("make", ["spiked", "noiseless", "dense"])
    def test_store_and_data_cannot_change(self, make):
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        tensor = (make_spiked_tensor(4, 3, 2.0, e1, seed=0) if make == "spiked"
                  else noiseless_tensor(4, 3, 2.0, e1))
        if make == "dense":
            tensor = SpikedTensor.from_dense(4, 3, e1, tensor.data)
        before = objective(tensor, e1)
        with pytest.raises(ValueError, match="read-only"):
            tensor.packed[0, 0] += 1.0
        with pytest.raises(ValueError, match="read-only"):
            tensor.data[0, 0, 0] += 1.0
        assert objective(tensor, e1) == before


class TestFromDense:
    """``SpikedTensor.from_dense`` packs a dense array, and rejects one that
    the kernels would misread."""

    E1 = np.array([1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("make", ["spiked", "noiseless"])
    def test_packs_the_stored_entries(self, k, make):
        n = 5
        u = unit(np.random.default_rng(k), n)
        tensor = (make_spiked_tensor(n, k, 1.5, u, seed=2) if make == "spiked"
                  else noiseless_tensor(n, k, 1.5, u))
        dense = SpikedTensor.from_dense(n, k, u, tensor.data)
        assert np.array_equal(dense.packed, tensor.packed)
        assert not dense.packed.flags.writeable
        assert np.array_equal(dense.u, u) and dense.u is not u

    def test_rejects_a_tensor_of_another_shape(self):
        # the kernels would read a (4, 4, 4, 4) array's rows as those of a
        # k = 3 tensor, and give a wrong Hessian
        data = noiseless_tensor(4, 4, 1.0, self.E1).data
        # the plain constructor takes a store, never a dense array
        with pytest.raises(ValueError, match="from_dense"):
            SpikedTensor(4, 3, self.E1, data)
        with pytest.raises(ValueError, match="shape"):
            SpikedTensor.from_dense(4, 3, self.E1, data)
        with pytest.raises(ValueError, match="shape"):
            SpikedTensor.from_dense(4, 4, self.E1, data[:3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_entries_that_are_not_finite(self, bad):
        data = np.zeros((4, 4, 4))
        data[1, 2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            SpikedTensor.from_dense(4, 3, self.E1, data)

    def test_rejects_a_tensor_that_is_not_symmetric(self):
        # the store keeps the upper triangle of the last two axes only, so
        # its f would not be <Y, x^(x)k> for a non-symmetric Y
        with pytest.raises(ValueError, match="symmetric"):
            SpikedTensor.from_dense(4, 3, self.E1, np.arange(64.0).reshape(4, 4, 4))
        # a swap of the first two axes is checked as well as of the last two
        data = np.array(noiseless_tensor(4, 3, 1.0, np.full(4, 0.5)).data)
        data[0, 1, 2] = data[0, 2, 1] = 0.125 * (1.0 + 1e-11)
        with pytest.raises(ValueError, match="symmetric"):
            SpikedTensor.from_dense(4, 3, self.E1, data)
        data[0, 1, 2] = data[0, 2, 1] = 0.125 * (1.0 + 1e-13)  # within the bound
        SpikedTensor.from_dense(4, 3, self.E1, data)

    def test_rejects_a_bad_spike(self):
        data = noiseless_tensor(4, 3, 1.0, self.E1).data
        with pytest.raises(ValueError, match="length n"):
            SpikedTensor.from_dense(4, 3, np.array([1.0, 0.0, 0.0]), data)
        with pytest.raises(ValueError, match="unit norm"):
            SpikedTensor.from_dense(4, 3, 2.0 * self.E1, data)

    def test_rejects_counts_that_are_not_counts(self):
        data = noiseless_tensor(4, 3, 1.0, self.E1).data
        for n in not_counts(2):
            with pytest.raises(ValueError, match="^n must be >= 2 and an integer"):
                SpikedTensor.from_dense(n, 3, self.E1, data)
        for k in not_counts(3):
            with pytest.raises(ValueError, match="^k must be >= 3 and an integer"):
                SpikedTensor.from_dense(4, k, self.E1, data)


class TestNoiselessTensor:
    def test_objective_at_spike(self):
        rng = np.random.default_rng(2)
        u = unit(rng, 6)
        tensor = noiseless_tensor(6, 3, 2.5, u)
        assert objective(tensor, u) == pytest.approx(2.5, rel=1e-12)
        assert objective(tensor, -u) == pytest.approx(-2.5, rel=1e-12)

    def test_rejects_non_unit_spike(self):
        with pytest.raises(ValueError):
            noiseless_tensor(4, 3, 1.0, np.full(4, 0.7))

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_lambda_not_positive_and_finite(self, lam):
        with pytest.raises(ValueError, match="lam"):
            noiseless_tensor(4, 3, lam, np.array([1.0, 0.0, 0.0, 0.0]))


class TestSphereCalculus:
    def setup_method(self):
        rng = np.random.default_rng(33)
        self.n = 7
        u = unit(rng, self.n)
        self.tensor = make_spiked_tensor(self.n, 3, 1.2, u, seed=8)
        self.sigma = unit(rng, self.n)
        self.rng = rng

    def test_odd_order_sign_symmetry(self):
        # k = 3: f(-sigma) = -f(sigma) exactly
        assert objective(self.tensor, -self.sigma) == -objective(self.tensor, self.sigma)

    @pytest.mark.parametrize("n", [2, 3, 5, 12])
    def test_batched_calculus_rows_match_single_calls(self, n):
        # a stack of points, with first entries of both signs and one zero,
        # gives per row the basis and gradient projection of that point
        # alone, bit for bit
        rng = np.random.default_rng(n)
        sigma = rng.standard_normal((9, n))
        sigma[:, 0] = np.abs(sigma[:, 0]) * np.resize([1.0, -1.0], 9)
        sigma[8, 0] = 0.0
        sigma /= np.linalg.norm(sigma, axis=1, keepdims=True)
        w = rng.standard_normal((9, n))
        bases = tangent_basis(sigma)
        grads = simulate._sphere_grad(3, w, sigma)
        assert bases.shape == (9, n, n - 1)
        for row in range(9):
            assert np.array_equal(bases[row], tangent_basis(sigma[row]))
            assert np.array_equal(grads[row], simulate._sphere_grad(3, w[row], sigma[row]))

    def test_tangent_basis_orthonormal(self):
        basis = tangent_basis(self.sigma)
        assert basis.shape == (self.n, self.n - 1)
        assert np.allclose(basis.T @ basis, np.eye(self.n - 1), atol=1e-14)
        assert np.max(np.abs(basis.T @ self.sigma)) < 1e-14
        assert np.array_equal(basis, tangent_basis(self.sigma))

    def test_gradient_is_tangent(self):
        grad = riemannian_grad(self.tensor, self.sigma)
        assert abs(float(grad @ self.sigma)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        grad = riemannian_grad(self.tensor, self.sigma)
        basis = tangent_basis(self.sigma)
        h = 1e-6
        for col in range(basis.shape[1]):
            v = basis[:, col]
            fd = (
                objective(self.tensor, retract(self.sigma, v, h))
                - objective(self.tensor, retract(self.sigma, v, -h))
            ) / (2.0 * h)
            assert fd == pytest.approx(float(grad @ v), rel=1e-5, abs=1e-8)

    def test_hessian_symmetric_and_matches_finite_differences(self):
        basis = tangent_basis(self.sigma)
        hess = riemannian_hess(self.tensor, self.sigma, basis=basis)
        assert np.array_equal(hess, hess.T)
        h = 1e-4
        f0 = objective(self.tensor, self.sigma)
        for col in range(0, basis.shape[1], 2):
            v = basis[:, col]
            fd2 = (
                objective(self.tensor, retract(self.sigma, v, h))
                - 2.0 * f0
                + objective(self.tensor, retract(self.sigma, v, -h))
            ) / (h * h)
            assert fd2 == pytest.approx(float(hess[col, col]), rel=1e-3, abs=1e-6)

    def test_noiseless_hessian_at_spike(self):
        # flat directions vanish at the spike: Hess = -k lam I in any
        # tangent basis
        rng = np.random.default_rng(4)
        u = unit(rng, 6)
        tensor = noiseless_tensor(6, 3, 1.7, u)
        hess = riemannian_hess(tensor, u)
        assert np.allclose(hess, -3.0 * 1.7 * np.eye(5), atol=1e-12)

    def test_rotation_equivariance(self):
        q, _ = np.linalg.qr(self.rng.standard_normal((self.n, self.n)))
        rotated = SpikedTensor.from_dense(self.n, 3, q @ self.tensor.u,
                                          rotate_tensor(self.tensor.data, q))
        sig_q = q @ self.sigma
        assert objective(rotated, sig_q) == pytest.approx(
            objective(self.tensor, self.sigma), abs=1e-10
        )
        grad = riemannian_grad(self.tensor, self.sigma)
        grad_q = riemannian_grad(rotated, sig_q)
        assert np.allclose(grad_q, q @ grad, atol=1e-10)
        eigs = np.linalg.eigvalsh(riemannian_hess(self.tensor, self.sigma))
        eigs_q = np.linalg.eigvalsh(riemannian_hess(rotated, sig_q))
        assert np.allclose(eigs, eigs_q, atol=1e-10)


class TestPowerIteration:
    def test_noiseless_recovers_spike_in_one_step(self):
        # odd k: the contraction of a rank-one tensor points along u from
        # any start with nonzero overlap
        rng = np.random.default_rng(6)
        u = unit(rng, 12)
        v = unit(rng, 12)
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        sigma0 = 0.5 * u + math.sqrt(0.75) * v
        tensor = noiseless_tensor(12, 3, 2.0, u)
        sigma, iters = power_iteration(tensor, sigma0)
        assert abs(float(sigma @ u)) > 1.0 - 1e-12
        assert iters <= 3

    def test_strong_snr_recovery_within_small_budget(self):
        n = 30
        rng = np.random.default_rng(900)
        u = unit(rng, n)
        tensor = make_spiked_tensor(n, 3, 2.0 * math.sqrt(n), u, seed=0)
        sigma, iters = power_iteration(tensor, unit(rng, n), max_iters=50)
        assert iters < 50
        assert abs(float(sigma @ u)) > 0.8

    def test_stops_below_gradient_tolerance(self):
        # the tensors and starts of perfbench's `cli_draw(12, 2.0, seed)`,
        # seeds 0-2: a run that stops early stops on |grad f| < tol
        for seed in range(3):
            rng = np.random.default_rng(seed)
            u = unit(rng, 12)
            tensor = make_spiked_tensor(12, 3, 2.0, u, seed=seed)
            sigma, iters = power_iteration(tensor, unit(rng, 12), tol=1e-10)
            assert iters < 500
            assert float(np.linalg.norm(riemannian_grad(tensor, sigma))) < 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        u = unit(rng, 8)
        tensor = make_spiked_tensor(8, 3, 1.0, u, seed=2)
        s0 = unit(rng, 8)
        a, ia = power_iteration(tensor, s0, max_iters=40)
        b, ib = power_iteration(tensor, s0, max_iters=40)
        assert np.array_equal(a, b) and ia == ib

    def test_rejects_non_unit_start(self):
        tensor = noiseless_tensor(3, 3, 1.0, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            power_iteration(tensor, np.array([0.0, 2.0, 0.0]))


class TestGradientAscent:
    def test_trace_is_monotone(self):
        rng = np.random.default_rng(3)
        u = unit(rng, 10)
        tensor = make_spiked_tensor(10, 3, 1.5, u, seed=4)
        _, trace = gradient_ascent(tensor, unit(rng, 10))
        assert np.all(np.diff(trace.f_values) >= -1e-12)
        assert trace.iters == trace.f_values.size - 1

    def test_noiseless_reaches_global_maximum(self):
        rng = np.random.default_rng(12)
        u = unit(rng, 12)
        v = unit(rng, 12)
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        tensor = noiseless_tensor(12, 3, 2.0, u)
        sigma, trace = gradient_ascent(tensor, 0.5 * u + math.sqrt(0.75) * v)
        assert trace.converged
        assert trace.f_values[-1] >= 2.0 - 1e-6

    def test_converges_at_strong_snr(self):
        # the acceptance suite's n = 30, lambda = 2 sqrt(30) tensors and starts
        n = 30
        for seed in range(5):
            rng = np.random.default_rng(seed + 900)
            u = unit(rng, n)
            tensor = make_spiked_tensor(n, 3, 2.0 * math.sqrt(n), u, seed=seed)
            _, trace = gradient_ascent(tensor, unit(rng, n))
            assert trace.converged and trace.grad_norm < 1e-8

    def test_terminals_are_second_order(self):
        # accepted-monotone ascent with halving steps should not stop at a
        # strict saddle
        rng = np.random.default_rng(42)
        n = 12
        u = unit(rng, n)
        tensor = make_spiked_tensor(n, 3, 3.0, u, seed=11)
        for _ in range(5):
            sigma, trace = gradient_ascent(tensor, unit(rng, n), max_iters=4000)
            assert trace.converged
            top = float(np.linalg.eigvalsh(riemannian_hess(tensor, sigma))[-1])
            assert top <= 1e-6

    def test_final_value_and_gradient_match_fresh_calls(self):
        # f and the gradient come from one contraction per point; they must
        # equal what objective and riemannian_grad give, bit for bit
        rng = np.random.default_rng(5)
        tensor = make_spiked_tensor(10, 3, 1.5, unit(rng, 10), seed=4)
        for max_iters in (1, 7, 2000):
            sigma, trace = gradient_ascent(tensor, unit(rng, 10), max_iters=max_iters)
            assert trace.f_values[-1] == objective(tensor, sigma)
            assert trace.grad_norm == float(np.linalg.norm(riemannian_grad(tensor, sigma)))


@pytest.mark.parametrize("method", [power_iteration, gradient_ascent])
@pytest.mark.parametrize("setting", [
    {"max_iters": 0}, {"max_iters": -5},
    {"tol": 0.0}, {"tol": -1e-8}, {"tol": math.nan}, {"tol": math.inf},
    {"max_iters": 2.5}, {"max_iters": True}, {"max_iters": np.float64(3.0)},
    {"max_iters": None}, {"max_iters": math.nan}, {"max_iters": math.inf},
])
def test_rejects_bad_iteration_setting(method, setting):
    # the start converges within a few steps: a cap that is not a count must
    # raise, not let the run end on its own (a nan cap never ends a run)
    tensor = noiseless_tensor(3, 3, 1.0, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match=next(iter(setting))):
        method(tensor, np.array([0.6, 0.8, 0.0]), **setting)


@pytest.mark.parametrize("method", [power_iteration, gradient_ascent])
def test_single_iteration_is_allowed(method):
    tensor = noiseless_tensor(4, 3, 1.0, np.array([1.0, 0.0, 0.0, 0.0]))
    method(tensor, np.array([0.6, 0.8, 0.0, 0.0]), max_iters=1)


@pytest.mark.parametrize("method", [power_iteration, gradient_ascent])
def test_noiseless_orthogonal_start_degenerates(method):
    # exactly orthogonal to the spike the contraction is zero
    tensor = noiseless_tensor(3, 3, 1.0, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DegenerateIterateError):
        method(tensor, np.array([0.0, 1.0, 0.0]))


@pytest.mark.parametrize("entry", [
    lambda v: make_spiked_tensor(3, 3, 1.0, v, seed=0),
    lambda v: noiseless_tensor(3, 3, 1.0, v),
    lambda v: power_iteration(noiseless_tensor(3, 3, 1.0, np.array([1.0, 0.0, 0.0])), v),
    lambda v: gradient_ascent(noiseless_tensor(3, 3, 1.0, np.array([1.0, 0.0, 0.0])), v),
    lambda v: objective(noiseless_tensor(3, 3, 1.0, np.array([1.0, 0.0, 0.0])), v),
    lambda v: riemannian_grad(noiseless_tensor(3, 3, 1.0, np.array([1.0, 0.0, 0.0])), v),
    lambda v: riemannian_hess(noiseless_tensor(3, 3, 1.0, np.array([1.0, 0.0, 0.0])), v),
], ids=["make_spiked_tensor", "noiseless_tensor", "power_iteration", "gradient_ascent",
        "objective", "riemannian_grad", "riemannian_hess"])
def test_nan_vector_is_not_a_unit_vector(entry):
    # a NaN norm compares False both ways; it must fail the unit check
    with pytest.raises(ValueError, match="unit norm"):
        entry(np.array([math.nan, 0.0, 0.0]))


@pytest.mark.parametrize("calculus", [objective, riemannian_grad, riemannian_hess])
def test_calculus_rejects_a_point_off_the_sphere(calculus):
    # f, its gradient and its Hessian on the sphere are defined at unit points
    # only; off the sphere the formulas give numbers that are none of them
    tensor = noiseless_tensor(3, 3, 1.0, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="^sigma must have unit norm"):
        calculus(tensor, np.array([0.6, 0.8, 1e-3]))
    calculus(tensor, np.array([0.6, 0.8, 0.0]))


@pytest.mark.parametrize("entry, name", [
    (objective, "sigma"), (riemannian_grad, "sigma"), (riemannian_hess, "sigma"),
    (power_iteration, "sigma0"), (gradient_ascent, "sigma0"),
], ids=["objective", "riemannian_grad", "riemannian_hess", "power_iteration",
        "gradient_ascent"])
@pytest.mark.parametrize("length", [3, 5])
def test_rejects_a_unit_point_of_the_wrong_length(entry, name, length):
    # a unit vector of another dimension is not a point of this tensor's sphere
    tensor = make_spiked_tensor(4, 3, 1.0, np.array([1.0, 0.0, 0.0, 0.0]), seed=0)
    with pytest.raises(ValueError, match=f"^{name} must have length n = 4"):
        entry(tensor, np.eye(length)[0])


@pytest.mark.parametrize("method", [power_iteration, gradient_ascent])
def test_contracts_each_point_once(method, monkeypatch):
    contracted = []
    original = simulate._gradient_rows

    def recording(tensor, x):
        contracted.extend(row.tobytes() for row in x)
        return original(tensor, x)

    monkeypatch.setattr(simulate, "_gradient_rows", recording)
    rng = np.random.default_rng(8)
    tensor = make_spiked_tensor(10, 3, 1.5, unit(rng, 10), seed=4)
    _, out = method(tensor, unit(rng, 10), max_iters=300)
    iters = out if method is power_iteration else out.iters
    assert len(contracted) > iters > 1
    assert len(set(contracted)) == len(contracted)


class TestFindCriticalPoints:
    def test_inventory_with_antipodal_pairing(self):
        # small noisy instance: the record list saturates and pairs exactly
        # under sigma -> -sigma with negated values and complementary index
        n = 4
        u = np.zeros(n)
        u[0] = 1.0
        tensor = make_spiked_tensor(n, 3, 1.5, u, seed=3)
        records, failures = find_critical_points(tensor, n_starts=800, seed=2)
        assert len(records) == 26
        assert failures < 800
        for rec in records:
            assert rec.grad_norm < 1e-10
            assert 0 <= rec.index <= n - 1
            assert -1.0 - 1e-9 <= rec.m <= 1.0 + 1e-9
            partner = min(records, key=lambda q: np.linalg.norm(q.sigma + rec.sigma))
            assert np.linalg.norm(partner.sigma + rec.sigma) < 1e-6
            assert abs(partner.f_value + rec.f_value) < 1e-9
            assert partner.index == (n - 1) - rec.index
        # doubling the start budget finds nothing new
        again, _ = find_critical_points(tensor, n_starts=1600, seed=2)
        assert len(again) == len(records)

    def test_records_are_deduplicated(self):
        n = 4
        u = np.zeros(n)
        u[0] = 1.0
        tensor = make_spiked_tensor(n, 3, 1.5, u, seed=3)
        records, _ = find_critical_points(tensor, n_starts=200, seed=7)
        for a in range(len(records)):
            for b in range(a + 1, len(records)):
                cosine = float(np.clip(records[a].sigma @ records[b].sigma, -1.0, 1.0))
                assert math.acos(cosine) >= 1e-6

    def test_noiseless_rank_one_landscape(self):
        # the rank-one landscape at n=3 has maxima at +-u and a degenerate
        # equator circle: equator records carry an exact Hessian zero mode
        u = np.array([1.0, 0.0, 0.0])
        tensor = noiseless_tensor(3, 3, 1.0, u)
        records, _ = find_critical_points(tensor, n_starts=400, seed=1)
        ms = np.array([r.m for r in records])
        assert ms.max() > 1.0 - 1e-9
        assert ms.min() < -1.0 + 1e-9
        equator = [r for r in records if abs(r.m) < 1e-3]
        assert equator
        for rec in equator[:20]:
            eigs = np.linalg.eigvalsh(riemannian_hess(tensor, rec.sigma))
            assert np.min(np.abs(eigs)) < 1e-8

    def test_inventory_is_complete(self):
        # Morse theory on S^(n-1): sum of (-1)^index is 1 + (-1)^(n-1); real
        # eigenvector pairs are at most ((k-1)^n - 1)/(k-2) (Cartwright and
        # Sturmfels 2013), 15 for n=4, k=3
        n, k = 4, 3
        u = np.zeros(n)
        u[0] = 1.0
        tensor = make_spiked_tensor(n, k, 1.5, u, seed=3)
        records, _ = find_critical_points(tensor, n_starts=800, seed=2)
        assert sum((-1) ** r.index for r in records) == 1 + (-1) ** (n - 1)
        assert len(records) // 2 <= ((k - 1) ** n - 1) // (k - 2)

    def test_record_gradient_norm_is_recomputable(self):
        # the Newton search reports the norm it last evaluated; it must be
        # the norm at the returned point, bit for bit
        u = np.array([1.0, 0.0, 0.0, 0.0])
        tensor = make_spiked_tensor(4, 3, 1.5, u, seed=3)
        records, _ = find_critical_points(tensor, n_starts=200, seed=7)
        assert records
        for rec in records:
            assert rec.grad_norm == float(np.linalg.norm(riemannian_grad(tensor, rec.sigma)))

    @pytest.mark.parametrize("n, k, starts, seeds", [
        (4, 3, 300, [1]),  # the README's newton example, seed 0
        (5, 3, 100, [[0, 0], [0, 1]]),  # the benchmark's inventory tensor 0
        (4, 4, 300, [1]),
        (4, 5, 200, [3]),
    ], ids=["readme", "inventory", "k4", "k5"])
    def test_matches_per_start_reference(self, n, k, starts, seeds):
        # the multistart engine; at k = 3 this is cli_tensor(n, 1.5, 0)
        tensor = make_spiked_tensor(n, k, 1.5, unit(np.random.default_rng(0), n), seed=0)
        for seed in seeds:
            assert_same_search(simulate._multistart(tensor, starts, seed),
                               reference_search(tensor, starts, seed))

    def test_block_size_moves_points_only_by_rounding(self, monkeypatch):
        tensor = cli_tensor(5, 1.5, 0)
        default = simulate._multistart(tensor, 100, [0, 0])
        monkeypatch.setattr(simulate, "_NEWTON_BLOCK", 7)
        assert_same_search(simulate._multistart(tensor, 100, [0, 0]), default)

    @pytest.mark.parametrize("t, count", [(0, 30), (1, 18)])
    def test_benchmark_inventory_is_complete_after_one_call(self, t, count):
        # the benchmark's n = 5 inventory tensors with its first batch of
        # 100 starts: the paths alone give the reference counts
        records, failures = find_critical_points(cli_tensor(5, 1.5, t), n_starts=100,
                                                 seed=[t, 0])
        assert (len(records), failures) == (count, 0)
        assert sum((-1) ** r.index for r in records) == 2
        assert all(r.grad_norm < 1e-10 and r.iters >= 1 for r in records)

    def test_inventory_count_is_even(self):
        # 500 multistart starts find 21 points here: an odd count, so an
        # antipodal partner is missing
        u = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        records, failures = find_critical_points(make_spiked_tensor(5, 3, 1.5, u, seed=3),
                                                 n_starts=500, seed=2)
        assert (len(records), failures) == (22, 0)
        assert sum((-1) ** r.index for r in records) == 2

    @pytest.mark.parametrize("n, k", [(4, 4), (4, 5)])
    def test_matches_long_multistart(self, n, k):
        # the k = 4 and k = 5 tensors of test_matches_per_start_reference
        tensor = make_spiked_tensor(n, k, 1.5, unit(np.random.default_rng(0), n), seed=0)
        records, failures = find_critical_points(tensor, n_starts=1, seed=0)
        reference, _ = simulate._multistart(tensor, 2000, 1)
        assert failures == 0
        assert [r.index for r in records] == [r.index for r in reference]
        for rec, ref in zip(records, reference):  # the starts stop at |grad f| < 1e-10
            np.testing.assert_allclose(rec.sigma, ref.sigma, rtol=0.0, atol=1e-8)

    def test_inventory_does_not_depend_on_gamma(self):
        # the README's newton example: each seed draws its own gamma, and
        # every one tracks to the same 10 points
        tensor = cli_tensor(4, 1.5, 0)
        first, _ = find_critical_points(tensor, seed=1)
        assert len(first) == 10
        for seed in (2, [3, 4]):
            again, failures = find_critical_points(tensor, seed=seed)
            assert failures == 0 and len(again) == 10
            for rec, ref in zip(again, first):
                np.testing.assert_allclose(rec.sigma, ref.sigma, rtol=0.0, atol=1e-12)

    def test_degenerate_tensor_falls_back_to_multistart(self, monkeypatch):
        # the noiseless tensor's equator circle is a curve of critical
        # points: paths meet on it, the certificate fails and the starts run
        tensor = noiseless_tensor(3, 3, 1.0, np.array([1.0, 0.0, 0.0]))
        assert not simulate._homotopy(tensor, complex(np.exp(0.7j)))[2]
        calls, multistart = [], simulate._multistart
        monkeypatch.setattr(simulate, "_multistart",
                            lambda *args: calls.append(args[1]) or multistart(*args))
        records, _ = find_critical_points(tensor, n_starts=50, seed=1)
        assert calls == [50]
        ms = [r.m for r in records]
        assert max(ms) > 1.0 - 1e-9 and min(ms) < -1.0 + 1e-9

    def test_over_budget_runs_multistart_only(self, monkeypatch):
        def no_paths(*args):
            raise AssertionError("paths tracked past the budget")

        tensor = cli_tensor(4, 1.5, 0)  # 16 paths
        monkeypatch.setattr(simulate, "_PATH_BUDGET", 15)
        monkeypatch.setattr(simulate, "_track", no_paths)
        assert_same_search(find_critical_points(tensor, n_starts=300, seed=1),
                           simulate._multistart(tensor, 300, 1))

    @pytest.mark.parametrize("seed", not_seeds())
    def test_rejects_bad_seed(self, seed):
        tensor = cli_tensor(4, 1.5, 0)
        with pytest.raises(ValueError, match="^seed must be"):
            find_critical_points(tensor, n_starts=1, seed=seed)

    def test_rejects_bad_start_count(self):
        tensor = noiseless_tensor(3, 3, 1.0, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            find_critical_points(tensor, n_starts=0)

    @pytest.mark.parametrize("setting", [
        {"n_starts": 0}, {"n_starts": -3}, {"n_starts": 2.5}, {"n_starts": 2.0},
        {"n_starts": math.nan}, {"n_starts": math.inf}, {"n_starts": None},
        {"n_starts": True}, {"n_starts": False}, {"n_starts": np.float64(3.0)},
    ])
    def test_rejects_bad_search_setting(self, setting):
        # a start count that is not an integer >= 1 (a bool is not) is named
        # in the error, before any start is drawn
        tensor = noiseless_tensor(3, 3, 1.0, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match=next(iter(setting))):
            find_critical_points(tensor, **setting)


class TestLandscapeHistogram:
    def _record(self, m, f, index):
        sigma = np.array([m, math.sqrt(max(0.0, 1.0 - m * m))])
        return CriticalPointRecord(
            sigma=sigma, f_value=f, grad_norm=0.0, index=index, m=m
        )

    def test_bins_only_local_maxima(self):
        records = [
            self._record(0.1, 0.5, 0),
            self._record(-0.4, 0.2, 1),
            self._record(0.8, 1.1, 0),
        ]
        counts, m_edges, f_edges = landscape_histogram(records, m_bins=4, f_bins=4)
        assert counts.shape == (4, 4)
        assert counts.sum() == 2
        assert m_edges[0] == -1.0 and m_edges[-1] == 1.0
        assert f_edges[0] < 0.2 and f_edges[-1] > 1.1

    def test_saddles_only_yield_zero_histogram(self):
        records = [self._record(0.0, 0.3, 2), self._record(0.5, -0.1, 1)]
        counts, _, _ = landscape_histogram(records, m_bins=3, f_bins=5)
        assert counts.shape == (3, 5)
        assert counts.sum() == 0

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            landscape_histogram([])

    def test_bin_counts_are_counts(self):
        records = [self._record(0.1, 0.5, 0)]
        for name in ("m_bins", "f_bins"):
            for bins in not_counts(1):
                with pytest.raises(ValueError, match=f"^{name} must be >= 1 and an integer"):
                    landscape_histogram(records, **{name: bins})

    def test_strong_snr_cluster_near_spike(self):
        # lam = 3 at n = 7: local maxima with overlap above 0.9 appear
        n, lam = 7, 3.0
        u = np.zeros(n)
        u[0] = 1.0
        maxima = []
        for seed in range(3):
            tensor = make_spiked_tensor(n, 3, lam, u, seed=seed)
            records, _ = find_critical_points(tensor, n_starts=300, seed=seed + 1)
            maxima.extend(r for r in records if r.index == 0)
        assert any(r.m > 0.9 for r in maxima)
        counts, m_edges, _ = landscape_histogram(maxima, m_bins=10, f_bins=8)
        assert counts.sum() == len(
            [r for r in maxima if -1.0 <= r.m <= 1.0]
        )
        # the records above 0.9 land in the top bin [0.8, 1.0]
        high_rows = counts[m_edges[:-1] >= 0.8 - 1e-12, :].sum()
        assert high_rows >= 1
