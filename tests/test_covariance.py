"""Tests for the exact covariance, its factor, eigenvalues and norms, and for
the dense generator and series references that the bounds are checked against."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_sim import (
    GaussianJsaModel,
    ProcessType,
    SchmidtSpectrum,
    SqueezingSpectrum,
    analytic_gaussian_schmidt,
    build_covariance_exact,
    build_gaussian_jsa,
    covariance_eigenvalues,
    covariance_truncation_bound,
    default_grids,
    gain_for_mean_pairs,
    mean_pairs,
    norms,
    schmidt_decompose,
)
from biphoton_sim.oracle import (
    dense_covariance_series,
    dense_generator,
    gain_for_mean_pairs_reference,
)
from conftest import dirichlet_schmidt, random_covariance, random_schmidt

# Newton stops at the first iterate that no longer falls, the bisection
# reference on the bracket around the float root: over 25,000 random
# spectra they differed by at most 3 ulp
GAIN_ULPS = 4


def assert_within_ulps(gain, reference):
    assert abs(gain - reference) <= GAIN_ULPS * np.spacing(reference)


def small_jsa(aspect=3.0):
    model = GaussianJsaModel(1.0, aspect)
    grids = default_grids(model, extent_sigmas=5.2, points_per_width=3.0)
    return build_gaussian_jsa(model, *grids)


class TestGenerator:
    """The dense generator reference of `oracle`."""

    def test_zero_gain(self):
        z = dense_generator(small_jsa(), 0.0, ProcessType.TYPE_II)
        assert np.max(np.abs(z.matrix)) == 0.0

    def test_type0i_hermitian(self):
        zd = dense_generator(small_jsa(), 0.8, ProcessType.TYPE_0I).matrix
        assert np.max(np.abs(zd - zd.conj().T)) < 1e-12

    def test_type2_antidiagonal_layout(self):
        jsa = small_jsa()
        zd = dense_generator(jsa, 0.8, ProcessType.TYPE_II).matrix
        n = jsa.grid_signal.n
        assert zd.shape == (4 * n, 4 * n)
        for i in range(4):
            for j in range(4):
                block = zd[i * n:(i + 1) * n, j * n:(j + 1) * n]
                assert np.any(block != 0) == (i + j == 3)

    def test_type0i_rejects_asymmetric_jsa(self):
        from biphoton_sim import DiscretizedJsa, FrequencyGrid

        grid = FrequencyGrid.uniform(-6.0, 6.0, 31)
        f = np.exp(-grid.points**2 / 2.0)
        g = np.exp(-grid.points**2 / 6.0)
        vals = np.outer(f, g).astype(complex)
        norm = np.einsum("m,n,mn->", grid.weights, grid.weights, np.abs(vals) ** 2)
        jsa = DiscretizedJsa(grid, grid, vals / np.sqrt(norm))
        with pytest.raises(ValueError, match="symmetric"):
            dense_generator(jsa, 0.5, ProcessType.TYPE_0I)


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
            assert np.real(np.trace(gamma.mat.to_dense())) >= 0


class TestFactor:
    @pytest.mark.parametrize(
        "process, per_mode", [(ProcessType.TYPE_II, 4), (ProcessType.TYPE_0I, 2)]
    )
    def test_factor_reproduces_exact_covariance(self, rng, process, per_mode):
        from biphoton_sim.covariance import covariance_core, covariance_factor

        schmidt = random_schmidt(rng, n_modes=3)
        basis = covariance_factor(schmidt, process)
        r = basis.shape[1]
        assert r == per_mode * 3
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(r))) < 1e-13
        for gain in (0.0, 0.35, 0.9):
            sq = SqueezingSpectrum.from_schmidt(schmidt, gain, process)
            core = covariance_core(sq)
            assert core.shape == (r, r)
            exact = build_covariance_exact(schmidt, gain, process).mat.to_dense()
            assert np.max(np.abs(basis @ core @ basis.conj().T - exact)) < 1e-14


class TestSeries:
    """The dense series reference of `oracle` against the exact covariance."""

    def test_order_one_is_generator(self):
        jsa = small_jsa()
        z = dense_generator(jsa, 0.6, ProcessType.TYPE_II)
        g1 = dense_covariance_series(z, 1)
        assert np.max(np.abs(g1 - z.matrix)) < 1e-14

    def test_order_two_is_z_plus_z_squared(self):
        jsa = small_jsa()
        z = dense_generator(jsa, 0.6, ProcessType.TYPE_II)
        g2 = dense_covariance_series(z, 2)
        zd = z.matrix
        assert np.max(np.abs(g2 - (zd + zd @ zd))) < 1e-12

    def test_converges_to_exact(self):
        jsa = small_jsa()
        gain = 0.7
        z = dense_generator(jsa, gain, ProcessType.TYPE_II)
        schmidt = schmidt_decompose(jsa, lambda_floor=0.0)
        exact = build_covariance_exact(schmidt, gain, ProcessType.TYPE_II)
        g30 = dense_covariance_series(z, 30)
        diff = np.linalg.svd(g30 - exact.mat.to_dense(), compute_uv=False).sum()
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
        z = dense_generator(jsa, gain, process)
        for order in (1, 2, 3, 4):
            g_n = dense_covariance_series(z, order)
            num = np.linalg.svd(exact.mat.to_dense() - g_n, compute_uv=False).sum()
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

    # the mean photon number is Tr(Gamma)/2 for zero displacement

    def test_mean_photon_zero(self, rng):
        gamma, _, _ = random_covariance(rng, gain=0.0)
        assert np.trace(gamma.mat.to_dense()).real / 2.0 == 0.0

    def test_mean_photon_exact_type0i(self, rng):
        gamma, spectrum, _ = random_covariance(
            rng, process=ProcessType.TYPE_0I, gain=0.5
        )
        expected = np.sum(np.cosh(spectrum.sigmas) - 1.0) / 2.0
        mean_photons = np.trace(gamma.mat.to_dense()).real / 2.0
        assert mean_photons == pytest.approx(expected, abs=1e-12)

    def test_mean_photon_low_gain_type2(self, rng):
        gain = 1e-3
        gamma, spectrum, _ = random_covariance(
            rng, process=ProcessType.TYPE_II, gain=gain
        )
        mean_photons = np.trace(gamma.mat.to_dense()).real / 2.0
        assert mean_photons == pytest.approx(gain**2 / 2.0, rel=1e-5)
        assert mean_pairs(spectrum) == pytest.approx(gain**2 / 4.0, rel=1e-5)

    def test_gain_inversion(self, rng):
        schmidt = random_schmidt(rng)
        for process in ProcessType:
            for mu in (1e-3, 0.1, 1.0):
                gain = gain_for_mean_pairs(schmidt, mu, process)
                sq = SqueezingSpectrum.from_schmidt(schmidt, gain, process)
                assert mean_pairs(sq) == pytest.approx(mu, rel=1e-12)

    @pytest.mark.parametrize("process", list(ProcessType))
    @pytest.mark.parametrize("mu", [1e-12, 1e-3, 0.1, 1.0, 5.0, 50.0, 1e3])
    def test_gain_inversion_matches_reference_bitwise(self, process, mu):
        # Newton and the bisection reference stop on different sides of the
        # float root, so they agree within GAIN_ULPS, not to the bit; the
        # single mode starts Newton on its root, and aspect 1000 with 9,300
        # modes is the largest spectrum of fig1/fig2
        spectra = [
            analytic_gaussian_schmidt(r, 400) for r in np.geomspace(1.0, 1e3, 13)
        ]
        spectra += [
            schmidt_decompose(small_jsa(3.0)),
            SchmidtSpectrum(np.array([1.0])),
            analytic_gaussian_schmidt(1e3, 9300),
        ]
        for schmidt in spectra:
            gain = gain_for_mean_pairs(schmidt, mu, process)
            assert_within_ulps(gain, gain_for_mean_pairs_reference(schmidt, mu, process))

    @pytest.mark.parametrize("process", list(ProcessType))
    def test_sequence_inversion_matches_reference_bitwise(self, process):
        # one iteration for every value: mu = 0, repeated values, and values
        # whose iterations stop after different step counts; each value's
        # gain is that of its own call, to the bit
        mus = [0.0, 0.1, 1e-3, 0.1, 5.0, 0.0, 1e-9, 1.0, 1.0, 2.5]
        spectra = [analytic_gaussian_schmidt(r, 400) for r in (1.0, 3.0, 30.0, 1e3)]
        spectra.append(schmidt_decompose(small_jsa(3.0)))
        for schmidt in spectra:
            gains = gain_for_mean_pairs(schmidt, mus, process)
            assert isinstance(gains, np.ndarray) and gains.shape == (len(mus),)
            for mu, gain in zip(mus, gains):
                assert gain == gain_for_mean_pairs(schmidt, mu, process)
                assert_within_ulps(gain, gain_for_mean_pairs_reference(schmidt, mu, process))
            assert gain_for_mean_pairs(schmidt, np.array(mus[4:5]), process) == gains[4:5]

    @settings(max_examples=200, deadline=None)
    @given(dirichlet_schmidt(), st.sampled_from(list(ProcessType)), st.floats(1e-4, 30.0))
    def test_inversion_of_random_spectra(self, schmidt, process, mu):
        gain = gain_for_mean_pairs(schmidt, mu, process)
        assert_within_ulps(gain, gain_for_mean_pairs_reference(schmidt, mu, process))
        sq = SqueezingSpectrum.from_schmidt(schmidt, gain, process)
        assert abs(mean_pairs(sq) - mu) <= 1e-14 * mu

    def test_sequence_inversion_checks(self):
        zero = SchmidtSpectrum(np.zeros(3), truncation_tail=1.0)
        assert gain_for_mean_pairs(zero, [0.0, 0.0], ProcessType.TYPE_II).tolist() == [0.0, 0.0]
        with pytest.raises(ValueError, match="all-zero spectrum"):
            gain_for_mean_pairs(zero, [0.0, 0.1], ProcessType.TYPE_II)
        with pytest.raises(ValueError, match="non-negative"):
            gain_for_mean_pairs(analytic_gaussian_schmidt(3.0, 4), [0.1, -1e-3],
                                ProcessType.TYPE_II)


class TestNorms:
    def test_zero(self, rng):
        _, spectrum, _ = random_covariance(rng, gain=0.0)
        res = norms(spectrum)
        assert res.trace_norm == 0.0 and res.hs_norm == 0.0
        assert res.largest_abs_eigenvalue == 0.0

    def test_single_sigma_trace_norm(self):
        sigma = 0.9
        sq = SqueezingSpectrum(np.array([sigma]), ProcessType.TYPE_0I, 1.0)
        assert norms(sq).trace_norm == pytest.approx(np.sinh(sigma), rel=1e-14)

    def test_matches_dense(self, rng):
        gamma, spectrum, _ = random_covariance(rng, gain=0.6)
        closed = norms(spectrum)
        evals = np.linalg.eigvalsh(gamma.mat.to_dense())
        assert np.sum(np.abs(evals)) == pytest.approx(closed.trace_norm, abs=1e-10)
        assert np.sqrt(np.sum(evals**2)) == pytest.approx(closed.hs_norm, abs=1e-10)
        assert np.max(np.abs(evals)) == pytest.approx(
            closed.largest_abs_eigenvalue, abs=1e-10
        )
