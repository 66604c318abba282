"""Tests for the dense reference implementations."""
import numpy as np
import pytest

from biphoton_sim import (
    GaussianJsaModel,
    ProcessType,
    build_covariance_exact,
    build_gaussian_jsa,
    default_grids,
    schmidt_decompose,
)
from biphoton_sim.oracle import (
    MAX_DENSE_DIM,
    DenseState,
    dense_covariance_exp,
    dense_generator,
    dense_log_det,
    dense_projection_eigs,
    dense_sandwich,
    tmsv_statistics,
)


def small_jsa():
    model = GaussianJsaModel(1.0, 3.0)
    grids = default_grids(model, extent_sigmas=5.2, points_per_width=3.0)
    return build_gaussian_jsa(model, *grids)


class TestDenseCovarianceExp:
    def test_zero_generator(self):
        z = dense_generator(small_jsa(), 0.0, ProcessType.TYPE_II)
        state = dense_covariance_exp(z)
        assert np.max(np.abs(state.matrix)) == 0.0

    def test_single_mode_eigenvalues(self, rng):
        from conftest import random_schmidt
        from biphoton_sim import DiscretizedJsa

        schmidt = random_schmidt(rng, n_modes=1)
        psi = (schmidt.modes_signal * schmidt.coefficients) @ schmidt.modes_idler.conj().T
        jsa = DiscretizedJsa(schmidt.grid_signal, schmidt.grid_idler, psi)
        gain = 0.6
        z = dense_generator(jsa, gain, ProcessType.TYPE_II)
        state = dense_covariance_exp(z)
        evals = np.sort(np.linalg.eigvalsh(state.matrix))
        sigma = gain  # single Schmidt mode, type-II
        assert evals[-1] == pytest.approx((np.exp(sigma) - 1) / 2, abs=1e-12)
        assert evals[0] == pytest.approx((np.exp(-sigma) - 1) / 2, abs=1e-12)

    def test_agrees_with_mode_assembly(self):
        jsa = small_jsa()
        gain = 0.8
        z = dense_generator(jsa, gain, ProcessType.TYPE_II)
        schmidt = schmidt_decompose(jsa, lambda_floor=0.0)
        exact = build_covariance_exact(schmidt, gain, ProcessType.TYPE_II)
        state = dense_covariance_exp(z)
        assert np.max(np.abs(state.matrix - exact.mat.to_dense())) < 1e-9

    def test_dimension_cap(self, rng):
        big = np.zeros((MAX_DENSE_DIM + 2, MAX_DENSE_DIM + 2))
        with pytest.raises(ValueError, match="capped"):
            dense_log_det(big)


class TestDenseSandwich:
    def test_diagonal_matches_matrix(self, rng):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        d = np.array([1.0, 0.5, 0.0, 0.9, 1.0])
        assert np.array_equal(dense_sandwich(d, a), np.diag(d) @ a @ np.diag(d))
        s = rng.standard_normal((3, 5))
        assert np.allclose(dense_sandwich(s, a), s @ a @ s.T, rtol=0, atol=1e-14)


class TestDenseLogDet:
    def test_zero(self):
        assert dense_log_det(np.zeros((5, 5))) == 0.0

    def test_diagonal(self):
        lam = np.array([0.4, -0.2, 0.1])
        assert dense_log_det(np.diag(lam)) == pytest.approx(
            np.sum(np.log1p(lam)), rel=1e-14
        )

    def test_singular(self):
        with pytest.raises(np.linalg.LinAlgError):
            dense_log_det(np.diag([-1.0, 0.3]))


class TestDenseProjectionEigs:
    def test_full_mask(self, rng):
        a = rng.standard_normal((6, 6))
        h = (a + a.T) / 2
        got = dense_projection_eigs(h, np.arange(6))
        assert np.allclose(got, np.linalg.eigvalsh(h))

    def test_empty_mask(self, rng):
        assert dense_projection_eigs(np.eye(3), np.array([], dtype=int)).size == 0

    def test_rank_one_contraction(self, rng):
        v = rng.standard_normal(8)
        h = np.outer(v, v)
        sub = dense_projection_eigs(h, np.arange(4))
        assert sub.max() <= np.linalg.eigvalsh(h).max() + 1e-12

    def test_interlacing_random(self, rng):
        for _ in range(20):
            dim = int(rng.integers(4, 12))
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = (a + a.conj().T) / 2
            ev = np.linalg.eigvalsh(h)
            keep = np.flatnonzero(rng.random(dim) < 0.6)
            if keep.size == 0:
                keep = np.array([0])
            evp = dense_projection_eigs(h, keep)
            pos = np.sort(ev[ev > 0])[::-1]
            pos_p = np.sort(evp[evp > 0])[::-1]
            for k in range(pos_p.size):
                assert pos_p[k] <= pos[k] + 1e-9
            neg = np.sort(-ev[ev < 0])[::-1]
            neg_p = np.sort(-evp[evp < 0])[::-1]
            for k in range(neg_p.size):
                assert neg_p[k] <= neg[k] + 1e-9


class TestTmsvStatistics:
    def test_zero_squeezing(self):
        pmf = tmsv_statistics(0.0, 0.5, 4)
        assert pmf[0, 0] == pytest.approx(1.0)
        assert np.sum(pmf) == pytest.approx(1.0)

    def test_lossless_perfect_pairing(self):
        pmf = tmsv_statistics(0.8, 1.0, 5)
        off = pmf - np.diag(np.diag(pmf))
        assert np.max(np.abs(off)) == 0.0
        tau2 = np.tanh(0.4) ** 2
        expected = (1 - tau2) * tau2 ** np.arange(6)
        assert np.allclose(np.diag(pmf), expected, atol=1e-15)

    def test_normalization_with_loss(self):
        pmf = tmsv_statistics(0.6, 0.7, 40)
        assert np.sum(pmf) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            tmsv_statistics(-0.1, 0.5, 3)
        with pytest.raises(ValueError):
            tmsv_statistics(0.5, 1.5, 3)


class TestDenseState:
    def test_hermiticity_enforced(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            DenseState(bad, np.ones(2))
