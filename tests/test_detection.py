"""Tests for generating functions, photon statistics and approximations."""
import math

import numpy as np
import pytest

from biphoton_sim import (
    DetectionProjection,
    DetectionWindow,
    ExactProductGf,
    GaussianJsaModel,
    HermiteParams,
    LossProfile,
    PoissonParams,
    ProcessType,
    QuadraticParams,
    SpectralRadiusWarning,
    SqueezingSpectrum,
    analytic_gaussian_schmidt,
    apply_loss,
    build_gaussian_jsa,
    default_grids,
    gain_for_mean_pairs,
    gf_exact,
    gf_hermite,
    gf_poisson,
    hermite_g2,
    hermite_params,
    log_det_series,
    log_series_gf,
    pnd,
    poisson_params,
    quadratic_vacuum,
    schmidt_number,
    vacuum_probability,
)
from biphoton_sim.bounds import OutOfDomainError
from biphoton_sim.detection import save_pnd_csv
from biphoton_sim.oracle import (
    dense_log_det,
    detector_parts_from_covariance,
    tmsv_statistics,
)
from conftest import random_covariance


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def bivariate_poisson_pmf(params: PoissonParams, n, m):
    """Direct PMF of the bivariate Poisson with marginals a+c, b+c."""
    a = params.mu * (params.p_s - params.p_si)
    b = params.mu * (params.p_i - params.p_si)
    c = params.mu * params.p_si
    total = 0.0
    for k in range(min(n, m) + 1):
        total += (
            a ** (n - k)
            / math.factorial(n - k)
            * b ** (m - k)
            / math.factorial(m - k)
            * c**k
            / math.factorial(k)
        )
    return math.exp(-(a + b + c)) * total


def hermite_polynomial(n, x):
    """Physicists' Hermite polynomial, complex argument."""
    h_prev, h = 1.0 + 0.0j, 2.0 * x
    if n == 0:
        return h_prev
    for k in range(1, n):
        h_prev, h = h, 2.0 * x * h - 2.0 * k * h_prev
    return h


def hermite_marginal_pmf(mu, eps2, n):
    eps = math.sqrt(eps2)
    arg = 1j * (mu - eps2) / (math.sqrt(2.0) * eps)
    val = (
        eps**n
        / (1j**n * math.sqrt(2.0**n) * math.factorial(n))
        * math.exp(-(mu - eps2 / 2.0))
        * hermite_polynomial(n, arg)
    )
    assert abs(val.imag) < 1e-14
    return val.real


def single_mode_spectrum(sigma, process):
    return SqueezingSpectrum(np.array([sigma]), process, 1.0)


# ---------------------------------------------------------------------------
# exact generating function
# ---------------------------------------------------------------------------


class TestGfExact:
    def test_single_mode_type2_vacuum(self):
        mu = 1.0
        sigma = 2.0 * math.asinh(math.sqrt(mu))
        sq = single_mode_spectrum(sigma, ProcessType.TYPE_II)
        assert gf_exact(sq, (0.0, 0.0)) == pytest.approx(0.5, rel=1e-12)

    def test_total_probability(self, rng):
        for process in ProcessType:
            sig = np.sort(rng.uniform(0.1, 1.0, 4))[::-1]
            sq = SqueezingSpectrum(sig, process, 1.0)
            w = 1.0 if process is ProcessType.TYPE_0I else (1.0, 1.0)
            assert gf_exact(sq, w) == pytest.approx(1.0, abs=1e-12)
            # loss does not change the total probability
            eta2 = 0.3 if process is ProcessType.TYPE_0I else (0.3, 0.8)
            assert gf_exact(sq, w, eta2) == pytest.approx(1.0, abs=1e-12)

    def test_poissonian_limit(self):
        # convergence to the infinitely entangled limit is O(mu^2 / J)
        mu = 0.1
        j = 10_000
        sigma = 2.0 * math.asinh(math.sqrt(mu / j))
        sq = SqueezingSpectrum(np.full(j, sigma), ProcessType.TYPE_II, 1.0)
        assert gf_exact(sq, (0.0, 0.0)) == pytest.approx(math.exp(-mu), abs=1e-6)

    def test_matches_dense_determinant(self, rng):
        gamma, spectrum, _ = random_covariance(rng, process=ProcessType.TYPE_II)
        gd = gamma.mat.to_dense()
        n = gamma.dofs[0].grid.n
        for w_s, w_i in ((1.0, 1.0), (0.3, 0.9), (0.0, 0.4)):
            w_diag = np.concatenate(
                [np.full(n, w_s), np.full(n, w_i), np.full(n, w_s), np.full(n, w_i)]
            )
            g_dense = math.exp(-0.5 * dense_log_det(w_diag[:, None] * gd))
            # package convention: argument 0 marks vacuum, i.e. 1 - w
            assert gf_exact(spectrum, (1.0 - w_s, 1.0 - w_i)) == pytest.approx(
                g_dense, rel=1e-12
            )

    def test_type0i_matches_dense(self, rng):
        gamma, spectrum, _ = random_covariance(
            rng, process=ProcessType.TYPE_0I, gain=0.4
        )
        gd = gamma.mat.to_dense()
        for w in (1.0, 0.55):
            g_dense = math.exp(-0.5 * dense_log_det(w * gd))
            assert gf_exact(spectrum, 1.0 - w) == pytest.approx(g_dense, rel=1e-12)

    def test_loss_matches_dense(self, rng):
        gamma, spectrum, _ = random_covariance(rng, process=ProcessType.TYPE_II)
        eta2_s, eta2_i = 0.49, 0.81
        lossy = apply_loss(
            gamma, LossProfile((math.sqrt(eta2_s), math.sqrt(eta2_i)))
        )
        g_dense = math.exp(-0.5 * dense_log_det(lossy.mat.to_dense()))
        assert gf_exact(spectrum, (0.0, 0.0), (eta2_s, eta2_i)) == pytest.approx(
            g_dense, rel=1e-12
        )

    def test_out_of_domain(self):
        sq = single_mode_spectrum(2.0, ProcessType.TYPE_0I)
        with pytest.raises(OutOfDomainError):
            gf_exact(sq, -3.0)


# ---------------------------------------------------------------------------
# log-determinant series
# ---------------------------------------------------------------------------


class TestLogDetSeries:
    def test_zero_operand(self, rng):
        gamma, _, _ = random_covariance(rng, gain=0.0)
        assert log_det_series(gamma, 5) == 0.0

    def test_second_order_matches_hs_form(self, rng):
        # pair source with loss: exponent -Tr(K)/2 + Tr(K^2)/4 with
        # Tr(K^2) the squared HS norm of the symmetrized operand
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_II, gain=0.4)
        lossy = apply_loss(gamma, LossProfile((0.8, 0.9)))
        d = lossy.mat.to_dense()
        exponent = -0.5 * log_det_series(lossy, 2, check_radius=False)
        expected = -np.trace(d).real / 2.0 + np.linalg.norm(d) ** 2 / 4.0
        assert exponent == pytest.approx(expected, abs=1e-12)

    def test_converges_to_dense(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_0I, gain=0.4)
        dense = dense_log_det(gamma.mat.to_dense())
        approx = log_det_series(gamma, 40)
        assert approx == pytest.approx(dense, abs=1e-10)

    def test_monotone_convergence(self, rng):
        # spectral radius <= 0.5: errors shrink monotonically to the floor
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_0I, gain=0.35)
        dense = dense_log_det(gamma.mat.to_dense())
        errs = [
            abs(log_det_series(gamma, order, check_radius=False) - dense)
            for order in range(1, 26)
        ]
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-14

    def test_radius_warning(self, rng):
        sigma = 1.2  # largest eigenvalue (e^1.2 - 1)/2 = 1.16 > 0.95
        schmidt_like, spectrum, _ = random_covariance(
            rng, process=ProcessType.TYPE_0I, gain=sigma / 2.0, n_modes=1
        )
        with pytest.warns(SpectralRadiusWarning):
            log_det_series(schmidt_like, 3)


# ---------------------------------------------------------------------------
# single-pair probability integrals
# ---------------------------------------------------------------------------


def gaussian_jsa(aspect=3.0, **kwargs):
    model = GaussianJsaModel(1.0, aspect)
    kwargs.setdefault("points_per_width", 4.0)
    return build_gaussian_jsa(model, *default_grids(model, **kwargs))


class TestPoissonParams:
    def test_unbounded_lossless(self):
        jsa = gaussian_jsa()
        params = poisson_params(
            jsa, LossProfile((1.0, 1.0)), DetectionProjection.full(2), 0.4,
            ProcessType.TYPE_II,
        )
        assert params.p_s == pytest.approx(1.0, abs=1e-10)
        assert params.p_i == pytest.approx(1.0, abs=1e-10)
        assert params.p_si == pytest.approx(1.0, abs=1e-10)
        assert params.mu == pytest.approx(0.04)

    def test_uniform_loss_factors_out(self):
        jsa = gaussian_jsa()
        eta = math.sqrt(0.5)
        params = poisson_params(
            jsa, LossProfile((eta, eta)), DetectionProjection.full(2), 0.4,
            ProcessType.TYPE_II,
        )
        assert params.p_s == pytest.approx(0.5, abs=1e-10)
        assert params.p_i == pytest.approx(0.5, abs=1e-10)
        assert params.p_si == pytest.approx(0.25, abs=1e-10)

    def test_disjoint_windows_separable_jsa(self):
        jsa = gaussian_jsa(aspect=1.0)  # separable
        windows = DetectionProjection(
            (DetectionWindow(-math.inf, 0.0), DetectionWindow(0.0, math.inf))
        )
        params = poisson_params(
            jsa, LossProfile((1.0, 1.0)), windows, 0.4, ProcessType.TYPE_II
        )
        assert params.p_si == pytest.approx(params.p_s * params.p_i, abs=1e-10)

    def test_window_outside_grid(self):
        jsa = gaussian_jsa()
        windows = DetectionProjection(
            (DetectionWindow(1e4, 2e4), DetectionWindow.unbounded())
        )
        with pytest.raises(ValueError, match="outside"):
            poisson_params(jsa, LossProfile((1.0, 1.0)), windows, 0.4,
                           ProcessType.TYPE_II)

    def test_time_domain_unbounded_equals_frequency(self):
        jsa = gaussian_jsa()
        freq = poisson_params(
            jsa, LossProfile((0.9, 0.8)), DetectionProjection.full(2), 0.4,
            ProcessType.TYPE_II,
        )
        windows = DetectionProjection(
            (DetectionWindow.unbounded("time"), DetectionWindow.unbounded("time"))
        )
        time = poisson_params(
            jsa, LossProfile((0.9, 0.8)), windows, 0.4, ProcessType.TYPE_II
        )
        # unitary change of axis: unbounded probabilities are unchanged
        assert time.p_s == pytest.approx(freq.p_s, abs=1e-12)
        assert time.p_i == pytest.approx(freq.p_i, abs=1e-12)
        assert time.p_si == pytest.approx(freq.p_si, abs=1e-12)

    def test_type0i_shared_interval(self):
        jsa = gaussian_jsa()
        windows = DetectionProjection((DetectionWindow(-2.0, 2.0),))
        params = poisson_params(
            jsa, LossProfile((1.0,)), windows, 0.4, ProcessType.TYPE_0I
        )
        assert params.p_s == params.p_i
        assert params.mu == pytest.approx(0.08)
        # correlations push the coincidence above the independent value
        assert params.p_s**2 - 1e-12 <= params.p_si <= params.p_s + 1e-12

    def test_type0i_uniform_loss_scaling(self):
        # single-photon probability scales with eta^2, coincidences with eta^4
        jsa = gaussian_jsa()
        eta = math.sqrt(0.6)
        full = DetectionProjection.full(1)
        params = poisson_params(
            jsa, LossProfile((eta,)), full, 0.4, ProcessType.TYPE_0I
        )
        assert params.p_s == pytest.approx(0.6, abs=1e-10)
        assert params.p_si == pytest.approx(0.36, abs=1e-10)

    def test_invariants_validated(self):
        with pytest.raises(ValueError):
            PoissonParams(0.5, 0.2, 0.9, 0.3)  # p_si > p_s


# ---------------------------------------------------------------------------
# Poisson and Hermite generating functions
# ---------------------------------------------------------------------------


class TestGfPoisson:
    def test_w_zero_total(self):
        params = PoissonParams(0.7, 0.6, 0.5, 0.4)
        assert gf_poisson(params, 0.0, 0.0) == 1.0

    def test_mu_zero(self):
        params = PoissonParams(0.0, 1.0, 1.0, 1.0)
        assert gf_poisson(params, 0.7, 0.2) == 1.0

    def test_vacuum_value(self):
        params = PoissonParams(0.1, 1.0, 1.0, 1.0)
        assert gf_poisson(params, 1.0, 1.0) == pytest.approx(
            math.exp(-0.1), rel=1e-12
        )
        assert vacuum_probability(params, "poisson") == pytest.approx(
            0.904837, abs=1e-6
        )

    def test_marginal_is_poisson(self):
        params = PoissonParams(0.4, 0.8, 0.6, 0.5)
        stats = pnd(params, (12, 12))
        marginal = stats.probabilities.sum(axis=1)
        mean = params.mu * params.p_s
        expected = [math.exp(-mean) * mean**n / math.factorial(n) for n in range(13)]
        assert np.allclose(marginal, expected, atol=1e-10)


class TestGfHermite:
    def test_reduces_to_poisson(self):
        mu, eta_s2, eta_i2 = 0.3, 0.7, 0.5
        params = PoissonParams(mu, eta_s2, eta_i2, eta_s2 * eta_i2)
        for w_s in np.linspace(0.0, 1.0, 7):
            for w_i in np.linspace(0.0, 1.0, 7):
                assert gf_hermite(mu, 0.0, eta_s2, eta_i2, w_s, w_i) == pytest.approx(
                    gf_poisson(params, w_s, w_i), abs=1e-14
                )

    def test_marginal_form(self):
        mu, eps2 = 0.3, 0.05
        for w in np.linspace(0.0, 1.0, 9):
            expected = math.exp(-(mu - eps2) * w - eps2 * (2 * w - w * w) / 2.0)
            assert gf_hermite(mu, eps2, 1.0, 0.0, w, 0.3) == pytest.approx(
                expected, rel=1e-14
            )

    def test_g2_example(self):
        assert hermite_g2(0.2, 0.04) == pytest.approx(2.0)

    def test_g2_matches_moment_generating_function(self):
        # moments from the substitution w -> 1 - e^w in the marginal GF
        mu, eps2 = 0.3, 0.05

        def moment_gf(w):
            return gf_hermite(mu, eps2, 1.0, 0.0, 1.0 - math.exp(w), 0.0)

        h = 1e-5
        m0, mp, mm = moment_gf(0.0), moment_gf(h), moment_gf(-h)
        mean = (mp - mm) / (2.0 * h)
        second = (mp - 2.0 * m0 + mm) / (h * h)
        g2_numeric = (second - mean) / mean**2
        assert mean == pytest.approx(mu, rel=1e-8)
        assert g2_numeric == pytest.approx(hermite_g2(mu, eps2), rel=1e-5)

    def test_invalid_distribution(self):
        with pytest.raises(ValueError, match="invalid distribution"):
            gf_hermite(0.01, 0.05, 1.0, 1.0, 1.0, 1.0)

    def test_parameter_map(self):
        k = 5.0 / 3.0
        hp = hermite_params(0.6, k, ProcessType.TYPE_II)
        c2, c4 = 0.36, 0.36**2
        assert hp.mu == pytest.approx(c2 / 4.0 + c4 / (48.0 * k))
        assert hp.eps2 == pytest.approx(c4 / (16.0 * k))
        hp0 = hermite_params(0.6, k, ProcessType.TYPE_0I)
        assert hp0.mu == pytest.approx(c2 / 2.0 + c4 / (6.0 * k))
        assert hp0.eps2 == pytest.approx(c4 / (2.0 * k))


# ---------------------------------------------------------------------------
# photon-number distributions
# ---------------------------------------------------------------------------


class TestPnd:
    def test_poisson_matches_pmf(self):
        params = PoissonParams(0.6, 0.8, 0.7, 0.55)
        stats = pnd(params, (10, 10))
        for n in range(11):
            for m in range(11):
                assert stats.probabilities[n, m] == pytest.approx(
                    bivariate_poisson_pmf(params, n, m), abs=1e-12
                )

    def test_hermite_marginal_matches_polynomial_formula(self):
        mu, eps2 = 0.35, 0.06
        stats = pnd(HermiteParams(mu, eps2, 1.0, 0.0), (8, 0))
        for n in range(9):
            assert stats.probabilities[n, 0] == pytest.approx(
                hermite_marginal_pmf(mu, eps2, n), abs=1e-10
            )

    def test_exact_lossless_perfect_correlation(self):
        sq = single_mode_spectrum(0.8, ProcessType.TYPE_II)
        stats = pnd(ExactProductGf(sq), (6, 6))
        p = stats.probabilities
        off_diag = p - np.diag(np.diag(p))
        assert np.max(np.abs(off_diag)) < 1e-12

    def test_exact_matches_tmsv_oracle(self):
        sigma, eta = 0.4, 0.7
        sq = single_mode_spectrum(sigma, ProcessType.TYPE_II)
        stats = pnd(ExactProductGf(sq, eta * eta, eta * eta), (6, 6))
        ref = tmsv_statistics(sigma, eta, 6)
        assert np.max(np.abs(stats.probabilities - ref)) < 1e-10

    def test_type0i_squeezed_vacuum_distribution(self):
        sigma = 0.9
        sq = single_mode_spectrum(sigma, ProcessType.TYPE_0I)
        stats = pnd(ExactProductGf(sq), 8)
        r = sigma / 2.0
        t = math.tanh(r)
        for k in range(5):
            expected = (
                math.factorial(2 * k)
                / (4.0**k * math.factorial(k) ** 2)
                * t ** (2 * k)
                / math.cosh(r)
            )
            assert stats.probabilities[2 * k] == pytest.approx(expected, abs=1e-12)
            if 2 * k + 1 <= 8:
                assert stats.probabilities[2 * k + 1] < 1e-14

    def test_log_series_matches_tmsv(self, rng):
        sigma, eta = 0.4, 0.7
        schmidt_gamma, spectrum, _ = random_covariance(
            rng, process=ProcessType.TYPE_II, gain=sigma, n_modes=1
        )
        lossy = apply_loss(schmidt_gamma, LossProfile((eta, eta)))
        parts = detector_parts_from_covariance(lossy, (0, 1))
        gf = log_series_gf(parts, 25)
        stats = pnd(gf, (5, 5))
        ref = tmsv_statistics(sigma, eta, 5)
        assert np.max(np.abs(stats.probabilities - ref)) < 1e-10

    def test_log_series_cutoff_capped_by_order(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_II, gain=0.3)
        parts = detector_parts_from_covariance(gamma, (0, 1))
        gf = log_series_gf(parts, 4)
        with pytest.raises(ValueError, match="series order"):
            pnd(gf, (6, 6))

    def test_splitter_to_discarded_ancilla_equals_loss(self, rng):
        # a beam splitter whose second port is discarded acts as a loss
        # channel with intensity transmission T^2 on the detected arm
        from biphoton_sim import beam_splitter, compose_all, compress
        from biphoton_sim.detection import detector_parts_compressed
        from biphoton_sim.transforms import output_dofs

        gamma, spectrum, _ = random_covariance(
            rng, process=ProcessType.TYPE_II, gain=0.5, n_modes=2
        )
        n = gamma.dofs[0].grid.n
        t_coef = 0.8
        s = compress(
            compose_all(
                [beam_splitter(t_coef, 0.6, (0, 2), 3, n=n)]
            ),
            2,
        )
        windows = DetectionProjection(
            (DetectionWindow.unbounded(), DetectionWindow.unbounded(), None)
        )
        dofs_out = output_dofs(s, gamma.dofs)
        parts = detector_parts_compressed(s, windows, gamma, (0, 1, None), dofs_out)
        stats = pnd(log_series_gf(parts, 25), (4, 4))
        ref = pnd(ExactProductGf(spectrum, t_coef**2, 1.0), (4, 4))
        assert np.max(np.abs(stats.probabilities - ref.probabilities)) < 1e-10

    @pytest.mark.parametrize(
        "build",
        [
            lambda: (PoissonParams(0.3, 0.9, 0.8, 0.75), (0.27, 0.24)),
            lambda: (HermiteParams(0.31, 0.02, 0.9, 0.8), (0.28, 0.25)),
            lambda: (
                ExactProductGf(single_mode_spectrum(1.0, ProcessType.TYPE_II), 0.9, 0.8),
                (np.sinh(0.5) ** 2 * 0.9, np.sinh(0.5) ** 2 * 0.8),
            ),
        ],
    )
    def test_normalization_deficit(self, build):
        gf, means = build()
        cutoffs = [int(10 * m + 20) for m in means]
        stats = pnd(gf, cutoffs)
        assert stats.normalization_deficit < 1e-8

    def test_csv_export(self, tmp_path):
        stats = pnd(PoissonParams(0.2, 1.0, 1.0, 1.0), (2, 2))
        path = tmp_path / "pnd.csv"
        save_pnd_csv(stats, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "n1,n2,probability"
        assert len(rows) == 10


# ---------------------------------------------------------------------------
# vacuum probability methods and orderings
# ---------------------------------------------------------------------------


class TestVacuumProbability:
    def test_exact_dispatch(self):
        mu = 1.0
        sq = single_mode_spectrum(2.0 * math.asinh(math.sqrt(mu)), ProcessType.TYPE_II)
        assert vacuum_probability(sq, "exact") == pytest.approx(0.5, rel=1e-12)

    def test_linear_negative_flagged(self):
        params = PoissonParams(2.0, 1.0, 1.0, 1.0)
        with pytest.warns(UserWarning, match="negative"):
            value = vacuum_probability(params, "linear")
        assert value == pytest.approx(-1.0)

    def test_log_series_dispatch(self, rng):
        gamma, spectrum, _ = random_covariance(rng, process=ProcessType.TYPE_II,
                                               gain=0.3)
        p_series = vacuum_probability(gamma, "log_series", order=30)
        p_exact = vacuum_probability(spectrum, "exact")
        assert p_series == pytest.approx(p_exact, rel=1e-12)

    def test_method_type_mismatch(self):
        with pytest.raises(TypeError):
            vacuum_probability(PoissonParams(0.1, 1, 1, 1), "hermite")

    def test_poisson_between_linear_and_exact(self):
        spectra = [
            analytic_gaussian_schmidt(1.0, 1),
            analytic_gaussian_schmidt(3.0, 60),
            analytic_gaussian_schmidt(10.0, 400),
        ]
        for schmidt in spectra:
            for mu in np.linspace(0.05, 3.0, 12):
                gain = gain_for_mean_pairs(schmidt, mu, ProcessType.TYPE_II)
                sq = SqueezingSpectrum.from_schmidt(schmidt, gain, ProcessType.TYPE_II)
                p_exact = vacuum_probability(sq, "exact")
                p_poisson = math.exp(-mu)
                p_linear = 1.0 - mu
                # infinite-entanglement limit is always the better approximation
                assert abs(p_exact - p_poisson) <= abs(p_exact - p_linear) + 1e-12
                assert p_linear <= p_poisson <= p_exact + 1e-12


class TestQuadraticVacuum:
    def test_zero_gain(self):
        schmidt = analytic_gaussian_schmidt(3.0, 40)
        assert quadratic_vacuum(schmidt, 0.0, 1.0, ProcessType.TYPE_II) == 1.0

    def test_single_mode_matches_truncated_tmsv(self):
        schmidt = analytic_gaussian_schmidt(1.0, 1)
        gain = 0.8
        for eta in (1.0, 0.7):
            t2 = math.tanh(gain / 2.0) ** 2
            miss = (1.0 - eta * eta) ** 2
            expected = (1.0 + miss * t2 + miss**2 * t2**2) / (1.0 + t2 + t2**2)
            got = quadratic_vacuum(schmidt, gain, eta, ProcessType.TYPE_II)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_small_gain_order_c6(self):
        # difference to the exact vacuum probability scales like C^6
        schmidt = analytic_gaussian_schmidt(3.0, 80)
        diffs = []
        for c2 in (1e-3, 2e-3, 4e-3):
            gain = math.sqrt(c2)
            sq = SqueezingSpectrum.from_schmidt(schmidt, gain, ProcessType.TYPE_II)
            p_exact = vacuum_probability(sq, "exact")
            p_quad = quadratic_vacuum(schmidt, gain, 1.0, ProcessType.TYPE_II)
            diffs.append(abs(p_quad - p_exact))
        assert diffs[0] < 1e-8
        assert diffs[1] / diffs[0] == pytest.approx(8.0, rel=0.25)
        assert diffs[2] / diffs[1] == pytest.approx(8.0, rel=0.25)

    def test_dispatch(self):
        schmidt = analytic_gaussian_schmidt(2.0, 40)
        qp = QuadraticParams(schmidt, 0.4, 0.9, ProcessType.TYPE_II)
        assert vacuum_probability(qp, "quadratic") == pytest.approx(
            quadratic_vacuum(schmidt, 0.4, 0.9, ProcessType.TYPE_II)
        )


class TestHermiteOrdering:
    def test_hermite_beats_quadratic(self):
        # spot check of the headline comparison on a small grid
        for aspect in (1.0, 3.0, 10.0):
            schmidt = analytic_gaussian_schmidt(aspect, 600)
            k = schmidt_number(schmidt)
            for mu in (0.05, 0.3, 1.0):
                gain = gain_for_mean_pairs(schmidt, mu, ProcessType.TYPE_II)
                sq = SqueezingSpectrum.from_schmidt(schmidt, gain, ProcessType.TYPE_II)
                p_exact = vacuum_probability(sq, "exact")
                hp = hermite_params(gain, k, ProcessType.TYPE_II)
                p_hermite = vacuum_probability(hp, "hermite")
                p_quad = quadratic_vacuum(schmidt, gain, 1.0, ProcessType.TYPE_II)
                assert abs(p_hermite - p_exact) <= abs(p_quad - p_exact) + 1e-12
