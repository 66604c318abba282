"""Tests for the generator, exact covariance, series truncation and norms."""
import numpy as np
import pytest

from biphoton_sim import (
    GaussianJsaModel,
    ProcessType,
    SqueezingSpectrum,
    build_covariance_exact,
    build_gaussian_jsa,
    build_generator,
    covariance_eigenvalues,
    covariance_series,
    covariance_truncation_bound,
    default_grids,
    gain_for_mean_pairs,
    mean_pairs,
    mean_photon_number,
    norms,
    schmidt_decompose,
)
from conftest import random_covariance, random_schmidt


def small_jsa(aspect=3.0):
    model = GaussianJsaModel(1.0, aspect)
    grids = default_grids(model, extent_sigmas=5.2, points_per_width=3.0)
    return build_gaussian_jsa(model, *grids)


class TestGenerator:
    def test_zero_gain(self):
        z = build_generator(small_jsa(), 0.0, ProcessType.TYPE_II)
        assert all(b is None for row in z.mat.blocks for b in row)

    def test_type0i_hermitian(self):
        z = build_generator(small_jsa(), 0.8, ProcessType.TYPE_0I)
        assert z.mat.hermiticity_defect() < 1e-12

    def test_type2_antidiagonal_layout(self):
        z = build_generator(small_jsa(), 0.8, ProcessType.TYPE_II)
        blocks = z.mat.blocks
        for i in range(4):
            for j in range(4):
                if i + j == 3:
                    assert blocks[i][j] is not None
                else:
                    assert blocks[i][j] is None

    def test_type0i_rejects_asymmetric_jsa(self):
        from biphoton_sim import DiscretizedJsa, FrequencyGrid

        grid = FrequencyGrid.uniform(-6.0, 6.0, 31)
        f = np.exp(-grid.points**2 / 2.0)
        g = np.exp(-grid.points**2 / 6.0)
        vals = np.outer(f, g).astype(complex)
        norm = np.einsum("m,n,mn->", grid.weights, grid.weights, np.abs(vals) ** 2)
        jsa = DiscretizedJsa(grid, grid, vals / np.sqrt(norm))
        with pytest.raises(ValueError, match="symmetric"):
            build_generator(jsa, 0.5, ProcessType.TYPE_0I)


class TestExactCovariance:
    def test_zero_gain_is_zero(self, rng):
        gamma, _, _ = random_covariance(rng, gain=0.0)
        assert np.max(np.abs(gamma.mat.to_dense())) == 0.0

    def test_single_mode_type0i_eigenvalues(self, rng):
        schmidt = random_schmidt(rng, n_modes=1)
        gain = 0.45
        gamma = build_covariance_exact(schmidt, gain, ProcessType.TYPE_0I)
        evals = np.linalg.eigvalsh(gamma.mat.to_dense())
        expected = np.array([(np.exp(2 * gain) - 1) / 2, (np.exp(-2 * gain) - 1) / 2])
        top = np.sort(np.abs(evals))[::-1][:2]
        assert np.allclose(np.sort(np.abs(expected))[::-1], top, atol=1e-12)

    def test_type2_twofold_degeneracy(self, rng):
        gamma, spectrum, _ = random_covariance(rng, process=ProcessType.TYPE_II)
        evals = np.sort(np.linalg.eigvalsh(gamma.mat.to_dense()))
        closed = np.sort(covariance_eigenvalues(spectrum))
        nonzero = closed[np.abs(closed) > 1e-14]
        # every closed-form value appears (twofold degeneracy is built in)
        for val in nonzero:
            assert np.min(np.abs(evals - val)) < 1e-9

    def test_needs_modes(self):
        from biphoton_sim import SchmidtSpectrum

        bare = SchmidtSpectrum(np.array([1.0]))
        with pytest.raises(ValueError, match="modes"):
            build_covariance_exact(bare, 0.3, ProcessType.TYPE_II)

    def test_hermitian_and_trace_positive(self, rng):
        for process in ProcessType:
            gamma, _, _ = random_covariance(rng, process=process)
            assert gamma.mat.hermiticity_defect() < 1e-10
            assert np.real(gamma.mat.trace()) >= 0


class TestSeries:
    def test_order_one_is_generator(self):
        jsa = small_jsa()
        z = build_generator(jsa, 0.6, ProcessType.TYPE_II)
        g1 = covariance_series(z, 1)
        assert np.max(np.abs(g1.mat.to_dense() - z.mat.to_dense())) < 1e-14

    def test_order_two_is_z_plus_z_squared(self):
        jsa = small_jsa()
        z = build_generator(jsa, 0.6, ProcessType.TYPE_II)
        g2 = covariance_series(z, 2)
        zd = z.mat.to_dense()
        assert np.max(np.abs(g2.mat.to_dense() - (zd + zd @ zd))) < 1e-12

    def test_converges_to_exact(self):
        jsa = small_jsa()
        gain = 0.7
        z = build_generator(jsa, gain, ProcessType.TYPE_II)
        schmidt = schmidt_decompose(jsa, lambda_floor=0.0)
        exact = build_covariance_exact(schmidt, gain, ProcessType.TYPE_II)
        g30 = covariance_series(z, 30)
        diff = np.linalg.svd(
            g30.mat.to_dense() - exact.mat.to_dense(), compute_uv=False
        ).sum()
        assert diff < 1e-12

    @pytest.mark.parametrize("process", list(ProcessType))
    def test_series_error_matches_closed_form(self, rng, process):
        # relative trace-norm error equals the closed form when all sigmas enter
        from biphoton_sim import DiscretizedJsa, SchmidtSpectrum

        gain = 0.5
        if process is ProcessType.TYPE_II:
            schmidt = random_schmidt(rng, n_modes=4)
        else:
            # symmetric kernel: idler modes are the conjugated signal modes
            base = random_schmidt(rng, n_modes=4)
            schmidt = SchmidtSpectrum(
                base.coefficients,
                truncation_tail=0.0,
                modes_signal=base.modes_signal,
                modes_idler=base.modes_signal.conj(),
                grid_signal=base.grid_signal,
                grid_idler=base.grid_idler,
            )
        exact = build_covariance_exact(schmidt, gain, process)
        spectrum = SqueezingSpectrum.from_schmidt(schmidt, gain, process)
        # rebuild the generator from the same modes via a synthetic JSA kernel
        psi = (
            schmidt.modes_signal
            * schmidt.coefficients
        ) @ schmidt.modes_idler.conj().T
        jsa = DiscretizedJsa(schmidt.grid_signal, schmidt.grid_idler, psi)
        z = build_generator(jsa, gain, process)
        for order in (1, 2, 3, 4):
            g_n = covariance_series(z, order)
            num = np.linalg.svd(
                exact.mat.to_dense() - g_n.mat.to_dense(), compute_uv=False
            ).sum()
            den = np.linalg.svd(exact.mat.to_dense(), compute_uv=False).sum()
            closed = covariance_truncation_bound(spectrum.sigmas, order).value
            assert num / den == pytest.approx(closed, abs=1e-9)


class TestEigenvaluesAndMoments:
    def test_zero_sigma(self):
        sq = SqueezingSpectrum(np.array([0.0]), ProcessType.TYPE_0I, 0.0)
        assert np.all(covariance_eigenvalues(sq) == 0.0)

    def test_log_three(self):
        sq = SqueezingSpectrum(np.array([np.log(3.0)]), ProcessType.TYPE_0I, 1.0)
        vals = covariance_eigenvalues(sq)
        assert vals[0] == pytest.approx(1.0)
        assert vals[-1] == pytest.approx(-1.0 / 3.0)

    def test_type2_duplicates(self):
        sq = SqueezingSpectrum(np.array([0.8]), ProcessType.TYPE_II, 0.8)
        vals = covariance_eigenvalues(sq)
        assert vals.size == 4
        assert vals[0] == vals[1]
        assert vals[2] == vals[3]

    def test_mean_photon_zero(self, rng):
        gamma, _, _ = random_covariance(rng, gain=0.0)
        assert mean_photon_number(gamma) == 0.0

    def test_mean_photon_exact_type0i(self, rng):
        gamma, spectrum, _ = random_covariance(
            rng, process=ProcessType.TYPE_0I, gain=0.5
        )
        expected = np.sum(np.cosh(spectrum.sigmas) - 1.0) / 2.0
        assert mean_photon_number(gamma) == pytest.approx(expected, abs=1e-12)

    def test_mean_photon_low_gain_type2(self, rng):
        gain = 1e-3
        gamma, spectrum, _ = random_covariance(
            rng, process=ProcessType.TYPE_II, gain=gain
        )
        assert mean_photon_number(gamma) == pytest.approx(gain**2 / 2.0, rel=1e-5)
        assert mean_pairs(spectrum) == pytest.approx(gain**2 / 4.0, rel=1e-5)

    def test_gain_inversion(self, rng):
        schmidt = random_schmidt(rng)
        for process in ProcessType:
            for mu in (1e-3, 0.1, 1.0):
                gain = gain_for_mean_pairs(schmidt, mu, process)
                sq = SqueezingSpectrum.from_schmidt(schmidt, gain, process)
                assert mean_pairs(sq) == pytest.approx(mu, rel=1e-12)


class TestNorms:
    def test_zero(self, rng):
        gamma, _, _ = random_covariance(rng, gain=0.0)
        res = norms(gamma)
        assert res.trace_norm == 0.0 and res.hs_norm == 0.0

    def test_single_sigma_trace_norm(self):
        sigma = 0.9
        sq = SqueezingSpectrum(np.array([sigma]), ProcessType.TYPE_0I, 1.0)
        assert norms(sq).trace_norm == pytest.approx(np.sinh(sigma), rel=1e-14)

    def test_matches_dense(self, rng):
        gamma, spectrum, _ = random_covariance(rng, gain=0.6)
        closed = norms(spectrum)
        dense = norms(gamma)
        assert dense.trace_norm == pytest.approx(closed.trace_norm, abs=1e-10)
        assert dense.hs_norm == pytest.approx(closed.hs_norm, abs=1e-10)
        assert dense.largest_abs_eigenvalue == pytest.approx(
            closed.largest_abs_eigenvalue, abs=1e-10
        )
