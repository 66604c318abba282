"""Tests for generating functions, photon statistics and approximations."""
import itertools
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from biphoton_sim import (
    DetectionProjection,
    DetectionWindow,
    ExactProductGf,
    GaussianJsaModel,
    HermiteParams,
    PoissonParams,
    ProcessType,
    SchmidtSpectrum,
    SpectralRadiusWarning,
    SqueezingSpectrum,
    analytic_gaussian_schmidt,
    build_gaussian_jsa,
    default_grids,
    gain_for_mean_pairs,
    hermite_params,
    pnd,
    quadratic_vacuum,
    schmidt_decompose,
    schmidt_number,
    vacuum_point_gf,
    vacuum_probability,
    vacuum_range,
)
from biphoton_sim.detection import (
    InvalidDistributionError,
    PhotonStatistics,
    _poly_exp,
    _poly_mul,
    log_series_power_sum,
    save_pnd_csv,
)
from biphoton_sim.oracle import (
    dense_log_det,
    dense_sandwich,
    detector_parts_from_covariance,
    log_det_series,
    poisson_params_reference,
    tmsv_statistics,
)
from conftest import dirichlet_schmidt, random_covariance


def with_loss(gamma, etas):
    """eta Gamma eta for per-mode field transmittivities `etas`, dense."""
    diag = np.concatenate([np.full(d.grid.n, e) for d, e in zip(gamma.dofs, etas)] * 2)
    return dense_sandwich(diag, gamma.mat.to_dense())


def detector_parts(dense_gamma, gamma, detectors):
    """Per-detector parts of a dense covariance over the modes of `gamma`."""
    return detector_parts_from_covariance(
        dense_gamma, [d.grid.n for d in gamma.dofs], detectors
    )


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


def type2_exact_pnd(sigmas, eta2, cutoff):
    """Taylor coefficients in (x_s, x_i), up to `cutoff` per axis, of
    prod_j 1 / (C_j - S_j y_s y_i) with y = 1 - eta2 + eta2 x, in exact
    rational arithmetic from the floats C_j = cosh^2(sigma_j/2) and
    S_j = sinh^2(sigma_j/2)."""
    n = cutoff + 1

    def mul(a, b):
        out = {}
        for (i, j), u in a.items():
            for (k, l), v in b.items():
                if i + k < n and j + l < n:
                    out[i + k, j + l] = out.get((i + k, j + l), 0) + u * v
        return out

    e = Fraction(eta2)
    d = mul({(0, 0): 1 - e, (1, 0): e}, {(0, 0): 1 - e, (0, 1): e})
    b0 = d.pop((0, 0))
    total = {(0, 0): Fraction(1)}
    for sigma in sigmas:
        c, s = Fraction(math.cosh(sigma / 2) ** 2), Fraction(math.sinh(sigma / 2) ** 2)
        # 1 / (C - S b0 - S D) = sum_k (S D)^k / (C - S b0)^(k+1); as D(0) = 0,
        # the terms k > 2 cutoff lie beyond the table
        ratio = s / (c - s * b0)
        term, factor = {(0, 0): 1 / (c - s * b0)}, {}
        for _ in range(2 * cutoff + 1):
            for key, v in term.items():
                factor[key] = factor.get(key, 0) + v
            term = {key: v * ratio for key, v in mul(term, d).items()}
        total = mul(total, factor)
    return np.array([[float(total.get((i, j), 0)) for j in range(n)] for i in range(n)])


def convolve_poly_mul(a, b, shape):
    """Truncated product a * b by a full n-D convolution."""
    from scipy.signal import convolve

    kept = convolve(a, b, method="direct")[tuple(slice(0, s) for s in shape)]
    out = np.zeros(shape)
    out[tuple(slice(0, s) for s in kept.shape)] = kept
    return out


def convolve_poly_exp(exponent):
    """exp of a truncated polynomial as exp(h_0) sum_k h^k / k!, h the
    non-constant part, with one full convolution per power."""
    shape = exponent.shape
    zero = (0,) * exponent.ndim
    h = exponent.copy()
    h[zero] = 0.0
    out = np.zeros(shape)
    out[zero] = 1.0
    term = out.copy()
    for k in range(1, sum(s - 1 for s in shape) + 1):
        term = convolve_poly_mul(term, h, shape) / k
        out = out + term
    return out * np.exp(exponent[zero])


# ---------------------------------------------------------------------------
# exact generating function
# ---------------------------------------------------------------------------


def with_transmissions(gf, w_s, w_i):
    """`gf` with its signal and idler intensity transmissions scaled by w_s
    and w_i (`PoissonParams`: p_s, p_i and p_si by w_s, w_i and w_s w_i).
    Its vacuum probability is `gf`'s generating function at the argument
    x = 1 - w, where x = 0 marks the vacuum and x = 1 the total probability."""
    if isinstance(gf, PoissonParams):
        return PoissonParams(gf.mu, w_s * gf.p_s, w_i * gf.p_i, w_s * w_i * gf.p_si)
    if isinstance(gf, HermiteParams):
        return HermiteParams(gf.mu, gf.eps2, w_s * gf.eta_s2, w_i * gf.eta_i2)
    return ExactProductGf(gf.spectrum, w_s * gf.eta2_s, w_i * gf.eta2_i)


class TestGfExact:
    """The exact generating function at argument x, as the vacuum probability
    at the transmissions eta2 (1 - x)."""

    def test_single_mode_type2_vacuum(self):
        mu = 1.0
        sigma = 2.0 * math.asinh(math.sqrt(mu))
        sq = single_mode_spectrum(sigma, ProcessType.TYPE_II)
        assert vacuum_probability(ExactProductGf(sq)) == pytest.approx(0.5, rel=1e-12)

    def test_total_probability(self, rng):
        # x = 1 thins every transmission to 0, with or without loss
        for process in ProcessType:
            sig = np.sort(rng.uniform(0.1, 1.0, 4))[::-1]
            sq = SqueezingSpectrum(sig, process, 1.0)
            for eta2 in ((1.0, 1.0), (0.3, 0.8)):
                gf = with_transmissions(ExactProductGf(sq, *eta2), 0.0, 0.0)
                assert vacuum_probability(gf) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("process", list(ProcessType))
    @pytest.mark.parametrize("sigma", [1.0, 40.0, 700.0, 1500.0])
    def test_zero_transmission_is_the_vacuum(self, process, sigma):
        # no photon reaches a detector, so no click, at any squeezing
        gf = ExactProductGf(single_mode_spectrum(sigma, process), 0.0, 0.0)
        assert vacuum_probability(gf) == 1.0
        table = pnd(gf, 2).probabilities
        assert table.flat[0] == 1.0 and np.count_nonzero(table) == 1

    def test_poissonian_limit(self):
        # convergence to the infinitely entangled limit is O(mu^2 / J)
        mu = 0.1
        j = 10_000
        sigma = 2.0 * math.asinh(math.sqrt(mu / j))
        sq = SqueezingSpectrum(np.full(j, sigma), ProcessType.TYPE_II, 1.0)
        assert vacuum_probability(ExactProductGf(sq)) == pytest.approx(math.exp(-mu),
                                                                        abs=1e-6)

    def test_matches_dense_determinant(self, rng):
        gamma, spectrum, _ = random_covariance(rng, process=ProcessType.TYPE_II)
        gd = gamma.mat.to_dense()
        n = gamma.dofs[0].grid.n
        for w_s, w_i in ((1.0, 1.0), (0.3, 0.9), (0.0, 0.4)):
            w_diag = np.concatenate(
                [np.full(n, w_s), np.full(n, w_i), np.full(n, w_s), np.full(n, w_i)]
            )
            g_dense = math.exp(-0.5 * dense_log_det(w_diag[:, None] * gd))
            # the generating function at x = 1 - w: the vacuum at transmissions w
            gf = ExactProductGf(spectrum, w_s, w_i)
            assert vacuum_probability(gf) == pytest.approx(g_dense, rel=1e-12)

    def test_type0i_matches_dense(self, rng):
        gamma, spectrum, _ = random_covariance(
            rng, process=ProcessType.TYPE_0I, gain=0.4
        )
        gd = gamma.mat.to_dense()
        for w in (1.0, 0.55):
            g_dense = math.exp(-0.5 * dense_log_det(w * gd))
            gf = ExactProductGf(spectrum, w, w)
            assert vacuum_probability(gf) == pytest.approx(g_dense, rel=1e-12)

    def test_loss_matches_dense(self, rng):
        gamma, spectrum, _ = random_covariance(rng, process=ProcessType.TYPE_II)
        eta2_s, eta2_i = 0.49, 0.81
        lossy = with_loss(gamma, (math.sqrt(eta2_s), math.sqrt(eta2_i)))
        g_dense = math.exp(-0.5 * dense_log_det(lossy))
        gf = ExactProductGf(spectrum, eta2_s, eta2_i)
        assert vacuum_probability(gf) == pytest.approx(g_dense, rel=1e-12)

    def test_vanishing_transmission(self):
        # 1 - eta2 rounds to 1, yet sinh^2(20) ~ 6e16 scales 1 - X = 2 eta2
        eta2, sigma = 1e-20, 40.0
        one_minus_x = 2.0 * eta2 - eta2 * eta2
        vacuum = 1.0 / (1.0 + one_minus_x * math.sinh(sigma / 2.0) ** 2)
        sq = single_mode_spectrum(sigma, ProcessType.TYPE_II)
        gf = ExactProductGf(sq, eta2, eta2)
        assert vacuum_probability(gf) == pytest.approx(vacuum, rel=1e-12)
        sq = single_mode_spectrum(sigma, ProcessType.TYPE_0I)
        gf = ExactProductGf(sq, eta2, eta2)
        assert vacuum_probability(gf) == pytest.approx(math.sqrt(vacuum), rel=1e-12)

    def test_out_of_domain(self):
        # the argument x = -3 would thin to the transmission 4
        sq = single_mode_spectrum(2.0, ProcessType.TYPE_0I)
        for eta2 in ((4.0, 1.0), (1.0, -0.5)):
            with pytest.raises(ValueError, match=r"transmissions must lie in \[0, 1\]"):
                ExactProductGf(sq, *eta2)


def generating_polynomial(table, x):
    """sum_n P[n] x^n of a table P, one argument per detector axis."""
    for x_d in reversed(x):
        table = table @ (x_d ** np.arange(table.shape[-1]))
    return float(table)


class TestGeneratingPolynomial:
    """The table's generating polynomial at x in [0, 1]^D is the vacuum
    probability at the transmissions eta2 (1 - x), short of the mass beyond
    the cutoffs at most: the table route (`pnd`) and the vacuum route
    (`vacuum_probability`) describe one generating function."""

    @pytest.mark.parametrize("model", ["poisson", "hermite", "exact_type2", "exact_type0i"])
    def test_polynomial_is_thinned_vacuum(self, rng, model):
        if model == "poisson":
            gf, cutoffs = PoissonParams(rng.uniform(0.1, 1.0), 0.8, 0.6, 0.45), (10, 10)
        elif model == "hermite":
            gf = HermiteParams(0.5, rng.uniform(0.0, 0.3), *rng.uniform(0.2, 1.0, 2))
            cutoffs = (10, 10)
        else:
            process = ProcessType.TYPE_II if model == "exact_type2" else ProcessType.TYPE_0I
            sq = SqueezingSpectrum(np.sort(rng.uniform(0.05, 0.8, 5))[::-1], process, 1.0)
            gf = ExactProductGf(sq, *rng.uniform(0.2, 1.0, 2))
            cutoffs = (10, 10) if process is ProcessType.TYPE_II else 16
        stats = pnd(gf, cutoffs)
        method = model.split("_")[0]
        rounding = 8 * np.finfo(float).eps
        for _ in range(20):
            x_s, x_i = rng.uniform(0.0, 1.0, 2)
            if model == "exact_type0i":  # one detector sees both photons
                x_i = x_s
            x = (x_s, x_i)[: stats.probabilities.ndim]
            polynomial = generating_polynomial(stats.probabilities, x)
            vacuum = vacuum_probability(with_transmissions(gf, 1.0 - x_s, 1.0 - x_i))
            assert -rounding <= vacuum - polynomial <= stats.normalization_deficit + rounding


# ---------------------------------------------------------------------------
# log-determinant series
# ---------------------------------------------------------------------------


class TestLogDetSeries:
    def test_zero_operand(self, rng):
        gamma, _, _ = random_covariance(rng, gain=0.0)
        assert log_det_series(gamma.mat.to_dense(), 5) == 0.0
        assert log_det_series(np.zeros((0, 0)), 5) == 0.0

    def test_second_order_matches_hs_form(self, rng):
        # pair source with loss: exponent -Tr(K)/2 + Tr(K^2)/4 with
        # Tr(K^2) the squared HS norm of the symmetrized operand
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_II, gain=0.4)
        d = with_loss(gamma, (0.8, 0.9))
        exponent = -0.5 * log_det_series(d, 2)
        expected = -np.trace(d).real / 2.0 + np.linalg.norm(d) ** 2 / 4.0
        assert exponent == pytest.approx(expected, abs=1e-12)

    def test_converges_to_dense(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_0I, gain=0.4)
        dense = dense_log_det(gamma.mat.to_dense())
        approx = log_det_series(gamma.mat.to_dense(), 40)
        assert approx == pytest.approx(dense, abs=1e-10)

    def test_monotone_convergence(self, rng):
        # spectral radius <= 0.5: errors shrink monotonically to the floor
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_0I, gain=0.35)
        dense = dense_log_det(gamma.mat.to_dense())
        errs = [
            abs(log_det_series(gamma.mat.to_dense(), order) - dense)
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
            log_det_series(schmidt_like.mat.to_dense(), 3)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.2),
        st.integers(1, 20),
    )
    # a 1 x 1 K has its norm as radius: on either side of 0.95
    @example(1, 1, 0, 0.94, 5)
    @example(1, 1, 0, 0.96, 5)
    def test_power_sum_of_non_normal_rank_deficient_operand(self, dim, rows, seed, norm, order):
        """K = A Gamma, A the gram of a random row-masked rows x dim factor
        (PSD, rank below dim when rows are dropped) and Gamma Hermitian, so K
        is non-normal; K is scaled to 2-norm `norm`.  The series equals
        sum_n (-1)^(n+1) Re Tr(K^n) / n by matrix powers, and the warning
        fires exactly when max |eig K| > 0.95."""
        import warnings

        gen = np.random.default_rng(seed)
        factor = gen.standard_normal((rows, dim)) + 1j * gen.standard_normal((rows, dim))
        factor = factor[gen.random(rows) < 0.6]
        gamma = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
        k = factor.conj().T @ factor @ (gamma + gamma.conj().T)
        if k.any():
            k *= norm / np.linalg.norm(k, 2)
        reference = sum(
            (-1.0) ** (n + 1) * np.trace(np.linalg.matrix_power(k, n)).real / n
            for n in range(1, order + 1)
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = log_det_series(k, order)
        assert value == pytest.approx(reference, rel=0, abs=1e-12)
        fired = [w for w in caught if issubclass(w.category, SpectralRadiusWarning)]
        assert len(fired) == int(np.max(np.abs(np.linalg.eigvals(k)), initial=0.0) > 0.95)

    def test_power_sum_memory_stays_flat_in_the_order(self):
        # the README scenario's r/2 = 70 eigenvalues at order 300,000: one
        # eigenvalue-by-order array would take 168 MB
        import tracemalloc

        mu = np.random.default_rng(7).uniform(-0.9, 0.9, 70)
        order = 300_000
        tracemalloc.start()
        try:
            value = log_series_power_sum(mu, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 1024**2
        n = np.arange(1, order + 1)
        assert value == float(np.sum(mu[:, None] ** n, axis=0) @ ((-1.0) ** (n + 1) / n))

    def test_plain_matrices_only(self, rng):
        # a block operand is passed as `.mat.to_dense()`
        gamma, _, _ = random_covariance(rng, gain=0.3)
        for operand in (gamma, gamma.mat, np.ones(4), np.ones((2, 3))):
            with pytest.raises(TypeError, match="square 2-D array"):
                log_det_series(operand, 4)


def test_detection_source_names_no_block_algebra():
    # detection takes plain matrices; the block algebra stays out of it
    source = (Path(__file__).parents[1] / "src" / "biphoton_sim" / "detection.py").read_text()
    names = ("_blocks", "BlockMatrix", "RenormalizedCovariance", "LogSeriesGf",
             "QuadraticParams", "check_radius", "_radius_estimate", "default_rng")
    assert [name for name in names if name in source] == []


# ---------------------------------------------------------------------------
# single-pair probability integrals
# ---------------------------------------------------------------------------


def gaussian_jsa(aspect=3.0, **kwargs):
    model = GaussianJsaModel(1.0, aspect)
    kwargs.setdefault("points_per_width", 4.0)
    return build_gaussian_jsa(model, *default_grids(model, **kwargs))


def single_pair(jsa, etas, windows, gain, process):
    """The PoissonParams that `run --method poisson` evaluates at `gain` for
    `jsa` behind per-mode field transmittivities `etas` and `windows`: the
    single-pair probabilities of the plan of one loss step per mode, a
    bounded time window taking its mode's Fourier kernel."""
    from biphoton_sim import DetectionPlan
    from biphoton_sim.covariance import source_dofs

    schmidt = schmidt_decompose(jsa)
    names = [d.name for d in source_dofs(schmidt, process)]
    steps = [("loss", "loss", k, eta) for k, eta in enumerate(etas)]
    steps += [("fourier", "fourier", k, ()) for k, w in enumerate(windows.windows)
              if w is not None and w.domain == "time" and (w.lo, w.hi) != (-math.inf, math.inf)]
    plan = DetectionPlan(schmidt, process, steps, windows.windows, range(len(names)), names)
    unit = plan.single_pair
    return PoissonParams(unit.mu * gain * gain, unit.p_s, unit.p_i, unit.p_si)


class TestPoissonParams:
    def test_unbounded_lossless(self):
        jsa = gaussian_jsa()
        params = single_pair(
            jsa, (1.0, 1.0), DetectionProjection.full(2), 0.4,
            ProcessType.TYPE_II,
        )
        assert params.p_s == pytest.approx(1.0, abs=1e-10)
        assert params.p_i == pytest.approx(1.0, abs=1e-10)
        assert params.p_si == pytest.approx(1.0, abs=1e-10)
        assert params.mu == pytest.approx(0.04)

    def test_uniform_loss_factors_out(self):
        jsa = gaussian_jsa()
        eta = math.sqrt(0.5)
        params = single_pair(
            jsa, (eta, eta), DetectionProjection.full(2), 0.4,
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
        params = single_pair(
            jsa, (1.0, 1.0), windows, 0.4, ProcessType.TYPE_II
        )
        assert params.p_si == pytest.approx(params.p_s * params.p_i, abs=1e-10)

    def test_window_outside_grid(self):
        # the dense reference names the arm; `run` names detection.windows[k]
        # (test_cli.py::TestPipelineDomains)
        jsa = gaussian_jsa()
        windows = DetectionProjection(
            (DetectionWindow(1e4, 2e4), DetectionWindow.unbounded())
        )
        with pytest.raises(ValueError, match="windows\\[0\\]: .*outside"):
            poisson_params_reference(jsa, (1.0, 1.0), windows, 0.4,
                                     ProcessType.TYPE_II)

    def test_time_domain_unbounded_equals_frequency(self):
        jsa = gaussian_jsa()
        freq = single_pair(
            jsa, (0.9, 0.8), DetectionProjection.full(2), 0.4,
            ProcessType.TYPE_II,
        )
        windows = DetectionProjection(
            (DetectionWindow.unbounded("time"), DetectionWindow.unbounded("time"))
        )
        time = single_pair(
            jsa, (0.9, 0.8), windows, 0.4, ProcessType.TYPE_II
        )
        # unitary change of axis: unbounded probabilities are unchanged
        assert time.p_s == pytest.approx(freq.p_s, abs=1e-12)
        assert time.p_i == pytest.approx(freq.p_i, abs=1e-12)
        assert time.p_si == pytest.approx(freq.p_si, abs=1e-12)

    def test_type0i_shared_interval(self):
        jsa = gaussian_jsa()
        windows = DetectionProjection((DetectionWindow(-2.0, 2.0),))
        params = single_pair(
            jsa, (1.0,), windows, 0.4, ProcessType.TYPE_0I
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
        params = single_pair(
            jsa, (eta,), full, 0.4, ProcessType.TYPE_0I
        )
        assert params.p_s == pytest.approx(0.6, abs=1e-10)
        assert params.p_si == pytest.approx(0.36, abs=1e-10)

    def test_invariants_validated(self):
        with pytest.raises(ValueError):
            PoissonParams(0.5, 0.2, 0.9, 0.3)  # p_si > p_s


# ---------------------------------------------------------------------------
# Poisson and Hermite generating functions
# ---------------------------------------------------------------------------


def hermite_signal_moments(mu, eps2):
    """<n> and the factorial-moment ratio <n(n-1)> / <n>^2 of the signal
    marginal of a lossless Hermite table with the idler unseen."""
    p = pnd(HermiteParams(mu, eps2, 1.0, 0.0), (30, 0)).probabilities[:, 0]
    n = np.arange(p.size)
    mean = float(p @ n)
    return mean, float(p @ (n * (n - 1))) / mean**2


class TestGfPoisson:
    """The bivariate-Poisson generating function, as the vacuum probability
    of the thinned parameters (`with_transmissions`)."""

    def test_w_zero_total(self):
        params = PoissonParams(0.7, 0.6, 0.5, 0.4)
        assert vacuum_probability(with_transmissions(params, 0.0, 0.0)) == 1.0

    def test_mu_zero(self):
        params = PoissonParams(0.0, 1.0, 1.0, 1.0)
        assert vacuum_probability(with_transmissions(params, 0.7, 0.2)) == 1.0

    def test_vacuum_value(self):
        params = PoissonParams(0.1, 1.0, 1.0, 1.0)
        assert vacuum_probability(params) == pytest.approx(
            math.exp(-0.1), rel=1e-12
        )
        assert vacuum_probability(params) == pytest.approx(
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
        hermite = HermiteParams(mu, 0.0, eta_s2, eta_i2)
        poisson = PoissonParams(mu, eta_s2, eta_i2, eta_s2 * eta_i2)
        for w_s in np.linspace(0.0, 1.0, 7):
            for w_i in np.linspace(0.0, 1.0, 7):
                value = vacuum_probability(with_transmissions(hermite, w_s, w_i))
                assert value == pytest.approx(
                    vacuum_probability(with_transmissions(poisson, w_s, w_i)),
                    abs=1e-14,
                )

    def test_marginal_form(self):
        mu, eps2 = 0.3, 0.05
        params = HermiteParams(mu, eps2, 1.0, 0.0)
        for w in np.linspace(0.0, 1.0, 9):
            expected = math.exp(-(mu - eps2) * w - eps2 * (2 * w - w * w) / 2.0)
            value = vacuum_probability(with_transmissions(params, w, 0.3))
            assert value == pytest.approx(expected, rel=1e-14)

    def test_g2_example(self):
        assert hermite_signal_moments(0.2, 0.04)[1] == pytest.approx(2.0)

    def test_g2_matches_factorial_moments(self):
        # g2 = 1 + eps2 / mu^2, from the table's factorial moments
        mu, eps2 = 0.3, 0.05
        mean, g2 = hermite_signal_moments(mu, eps2)
        assert mean == pytest.approx(mu, rel=1e-8)
        assert g2 == pytest.approx(1.0 + eps2 / mu**2, rel=1e-5)

    def test_invalid_distribution(self):
        with pytest.raises(ValueError, match="invalid distribution"):
            HermiteParams(0.01, 0.05, 1.0, 1.0)

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

    def test_exact_matches_rational_reference(self):
        sigmas = [0.05, 0.01]
        sq = SqueezingSpectrum(np.array(sigmas), ProcessType.TYPE_II, 1.0)
        got = pnd(ExactProductGf(sq, 0.05, 0.05), (5, 5)).probabilities
        ref = type2_exact_pnd(sigmas, 0.05, 5)
        assert np.all(ref > 0)
        assert np.max(np.abs(got / ref - 1.0)) < 1e-14

    def test_exact_vanishing_transmission(self):
        # G = 1 / (A - s D) with s = sinh^2(sigma/2), A = 1 + (1 - b0) s and
        # D = y_s y_i - b0 zero at x = 0; 1 - eta2 rounds to 1 and
        # tanh^2(sigma/2) to 1.0, so 1 - b0 t^2 must not be formed as written
        eta2, sigma = 1e-20, 40.0
        sq = single_mode_spectrum(sigma, ProcessType.TYPE_II)
        p = pnd(ExactProductGf(sq, eta2, eta2), (2, 2)).probabilities
        s = math.sinh(sigma / 2.0) ** 2
        a = 1.0 + (2.0 * eta2 - eta2 * eta2) * s
        one_arm = eta2 * (1.0 - eta2)
        assert np.all(np.isfinite(p))
        assert p[0, 0] == pytest.approx(1.0 / a, rel=1e-12)
        assert p[1, 0] == pytest.approx(s * one_arm / a**2, rel=1e-12)
        assert p[0, 1] == pytest.approx(s * one_arm / a**2, rel=1e-12)
        assert p[1, 1] == pytest.approx(
            s * eta2 * eta2 / a**2 + 2.0 * s * s * one_arm**2 / a**3, rel=1e-12
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_table_rejected(self, bad):
        with pytest.raises(InvalidDistributionError, match="finite"):
            PhotonStatistics(np.array([[0.5, bad], [0.0, 0.0]]), 0.0)

    def test_exact_fully_lost_is_vacuum(self):
        # every photon lost: the table is the vacuum, whatever the squeezing
        sq = SqueezingSpectrum(np.array([40.0, 1.0]), ProcessType.TYPE_II, 1.0)
        got = pnd(ExactProductGf(sq, 0.0, 0.0), (1, 1)).probabilities
        assert got.ravel() == pytest.approx([1.0, 0.0, 0.0, 0.0], rel=1e-14, abs=0)

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
        lossy = with_loss(schmidt_gamma, (eta, eta))
        parts = detector_parts(lossy, schmidt_gamma, (0, 1))
        gf = vacuum_point_gf(parts, -0.5 * dense_log_det(sum(parts)), (5, 5))
        stats = pnd(gf, (5, 5))
        ref = tmsv_statistics(sigma, eta, 5)
        assert np.max(np.abs(stats.probabilities - ref)) < 1e-10

    def test_vacuum_point_cutoffs_capped_by_table(self, rng):
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_II, gain=0.3)
        parts = detector_parts(gamma.mat.to_dense(), gamma, (0, 1))
        gf = vacuum_point_gf(parts, -0.5 * dense_log_det(sum(parts)), (2, 2))
        assert gf.exponent.shape == (3, 3)
        assert pnd(gf, (2, 2)).probabilities.shape == (3, 3)
        with pytest.raises(ValueError, match=r"cutoffs \[3, 2\] exceed the table's \[2, 2\]"):
            pnd(gf, (3, 2))

    def test_splitter_to_discarded_ancilla_equals_loss(self, rng):
        # a beam splitter whose second port is discarded acts as a loss
        # channel with intensity transmission T^2 on the detected arm
        from biphoton_sim import beam_splitter, compose_all, compress
        from biphoton_sim.oracle import detector_parts_compressed
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
        stats = pnd(vacuum_point_gf(parts, -0.5 * dense_log_det(sum(parts)), (4, 4)), (4, 4))
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


def _psd_parts(rng, count, r, scale=0.1):
    """`count` random complex positive semi-definite r x r parts."""
    parts = []
    for _ in range(count):
        a = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        parts.append(scale * (a @ a.conj().T))
    return parts


class TestVacuumPointBox:
    """`vacuum_point_gf` builds its exponent table over the cutoff box alone."""

    @pytest.mark.parametrize("r", [1, 2, 4])
    @pytest.mark.parametrize("multiplicity", [1, 2])
    def test_entries_match_a_brute_force_word_sum(self, rng, r, multiplicity):
        cutoffs = (2, 1, 2)
        parts = _psd_parts(rng, 3, r)
        total = sum(parts)
        ls = [np.linalg.solve(np.eye(r) + total, k) for k in parts]
        table = vacuum_point_gf(parts, -0.25, cutoffs, multiplicity).exponent
        assert table.shape == (3, 2, 3) and table[0, 0, 0] == -0.25
        for alpha in np.ndindex(*table.shape):
            n = sum(alpha)
            if n == 0:
                continue
            word_sum = sum(np.trace(np.linalg.multi_dot([np.eye(r), *(ls[d] for d in word)])).real
                           for word in itertools.product(range(3), repeat=n)
                           if all(word.count(d) == a for d, a in enumerate(alpha)))
            ref = multiplicity * word_sum / (2 * n)
            assert table[alpha] == pytest.approx(ref, rel=1e-12, abs=1e-15), alpha

    def test_smaller_cutoffs_take_the_leading_block(self, rng):
        parts = _psd_parts(rng, 2, 5)
        log_vac = -0.5 * dense_log_det(sum(parts))
        big = vacuum_point_gf(parts, log_vac, (4, 3))
        small = vacuum_point_gf(parts, log_vac, (2, 3))
        assert small.exponent.tobytes() == big.exponent[:3, :4].tobytes()
        got = pnd(big, (2, 3)).probabilities
        assert got.tobytes() == pnd(small, (2, 3)).probabilities.tobytes()
        assert np.allclose(got, pnd(big, (4, 3)).probabilities[:3, :4], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("cutoffs, bad", [(2.7, 2.7), (-0.5, -0.5), (True, True),
                                              ("3", "3"), (-1, -1), ([2, 2.0], 2.0)])
    def test_rejects_cutoffs_that_are_not_non_negative_ints(self, cutoffs, bad):
        message = f"cutoff {re.escape(repr(bad))} is not a non-negative integer"
        with pytest.raises(ValueError, match=message):
            pnd(PoissonParams(0.3, 0.9, 0.8, 0.75), cutoffs)
        with pytest.raises(ValueError, match=message):
            vacuum_point_gf([0.1 * np.eye(2)] * 2, 0.0, cutoffs)

    def test_rejects_an_empty_part_list(self):
        with pytest.raises(ValueError, match="at least one detector part required"):
            vacuum_point_gf([], 0.0, [])

    def test_one_detector_guard_bills_one_matrix_per_degree(self):
        # a single detector holds two matrices at a time, whatever its cutoff
        lam = 1e-3
        gf = vacuum_point_gf([lam * np.eye(60)], 0.0, 19000)
        assert gf.exponent.shape == (19001,)
        ell = lam / (1.0 + lam)
        n = np.arange(1, 6)
        assert np.allclose(gf.exponent[1:6], 60 * ell**n / (2 * n), rtol=1e-13, atol=0)

    def test_guard_refuses_an_oversized_box_before_the_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solved before the guard")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        with pytest.raises(ValueError, match=r"cutoffs \[200, 200, 200\] would need more than "
                                             "2 GiB"):
            vacuum_point_gf([np.zeros((50, 50))] * 3, 0.0, [200, 200, 200])


_real = st.floats(-1.0, 1.0)


@st.composite
def _jet_shapes(draw, ndim=None, max_size=288):
    """1-3 axes (or `ndim`) of 1-12 coefficients each, at most `max_size` in
    all, which keeps the convolution reference (quadratic in it) fast."""
    shape = []
    for _ in range(ndim or draw(st.integers(1, 3))):
        shape.append(draw(st.integers(1, min(12, max_size // math.prod(shape)))))
    return tuple(shape)


def _jets(shapes):
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=_real))


class TestJets:
    """The truncated-series arithmetic against full n-D convolutions.

    Both sides round each term they add, so the tolerance is 1e-14 of the
    largest entry of the same computation on the absolute values (for exp,
    of the non-constant coefficients), which bounds every such term.  On
    coefficients of mixed sign the entries cancel, and there the
    convolution reference strays furthest: with the exponent -1 everywhere
    on a 4 x 9 table it is 1.5e-14 of the largest entry off a 50-digit
    value, the Euler recurrence of `_poly_exp` 3.7e-16."""

    @settings(max_examples=60, deadline=None)
    @given(_jets(_jet_shapes()))
    def test_exp_matches_convolution(self, exponent):
        zero = (0,) * exponent.ndim
        majorant = np.abs(exponent)
        majorant[zero] = exponent[zero]
        got = _poly_exp(exponent)
        assert got.shape == exponent.shape
        assert np.max(np.abs(got - convolve_poly_exp(exponent))) <= 1e-14 * np.max(
            convolve_poly_exp(majorant)
        )
        assert got[zero] == np.exp(exponent[zero])

    @settings(max_examples=60, deadline=None)
    @given(_jet_shapes(), st.data())
    def test_mul_matches_convolution(self, shape, data):
        # either factor may be smaller or larger than the table
        a, b = (data.draw(_jets(_jet_shapes(len(shape)))) for _ in range(2))
        got = _poly_mul(a, b, shape)
        assert got.shape == shape
        assert np.max(np.abs(got - convolve_poly_mul(a, b, shape))) <= 1e-14 * np.max(
            convolve_poly_mul(np.abs(a), np.abs(b), shape)
        )


# ---------------------------------------------------------------------------
# small-side (Schmidt-basis) engine against the dense N x N oracle
# ---------------------------------------------------------------------------


def _engine_config(process, pipeline, detectors):
    """A small Gaussian-source scenario, pipeline-free or with a beam splitter
    into a vacuum ancilla, phase and delay, Fourier, loss and a time window."""
    names = ["signal", "idler"] if process == "type2" else ["mode"]
    steps, windows = [], [None] * len(names)
    if pipeline:
        anc = len(names)
        names = names + ["anc"]
        steps = [
            {"type": "beam_splitter", "dofs": [0, anc], "transmittance": 0.8},
            {"type": "phase", "dof": 0, "phi0_rad": 0.3, "tau_s": 1.1, "beta_l_s2": 0.05},
            {"type": "fourier", "dof": 0},
            {"type": "loss", "eta": {"0": 0.9, str(anc): 0.85}},
        ]
        windows = [[-2.5, 3.0]] + windows[1:] + ["empty" if detectors[anc] is None else None]
    return {
        "source": {
            "process": process,
            "mu": 0.01,
            "jsa": {"gaussian": {"delta_plus_rad_s": 1.0, "delta_minus_rad_s": 3.0}},
        },
        "grid": {"extent_sigmas": 5.2, "points_per_width": 1.0},
        "modes": names,
        "pipeline": steps,
        "detection": {
            "method": "log_series",
            "series_order": 20,
            "domain": "time",
            "windows": windows,
            "detectors": detectors,
            "pnd_cutoffs": [2] * (max(d for d in detectors if d is not None) + 1),
        },
        "sweep": {"parameter": "source.mu", "values": [0.01, 0.02]},
    }


def _dense_reference_transform(config, gamma):
    """The scenario's compressed pipeline, built step by step with the public
    transform API, and its output dofs and windows."""
    from biphoton_sim import (
        SymplecticTransform,
        beam_splitter,
        compose_all,
        compress,
        fourier,
        phase_shift,
    )
    from biphoton_sim._blocks import BlockMatrix
    from biphoton_sim.transforms import output_dofs

    names = config["modes"]
    m = len(names)
    grid = gamma.dofs[0].grid
    sizes = (grid.n,) * m
    grids = {i: grid for i in range(m)}
    steps = [SymplecticTransform(BlockMatrix.diagonal([1.0] * (2 * m), sizes * 2), m, m)]
    for e in config["pipeline"]:
        if e["type"] == "beam_splitter":
            t = e["transmittance"]
            steps.append(beam_splitter(t, math.sqrt(1 - t * t), tuple(e["dofs"]), m, n=grid.n))
        elif e["type"] == "phase":
            dof = e["dof"]
            steps.append(
                phase_shift(e["phi0_rad"], e["tau_s"], e["beta_l_s2"], grids[dof], dof, m,
                            sizes=sizes)
            )
        elif e["type"] == "fourier":
            step, grids[e["dof"]] = fourier(grids[e["dof"]], e["dof"], m, sizes=sizes)
            steps.append(step)
        else:
            diag = [1.0] * (2 * m)
            for key, eta in e["eta"].items():
                diag[int(key)] = diag[m + int(key)] = eta
            steps.append(SymplecticTransform(BlockMatrix.diagonal(diag, sizes * 2), m, m))
    s = compress(compose_all(steps), gamma.n_dofs)
    dofs = output_dofs(s, gamma.dofs, names=names)
    domain = config["detection"]["domain"]
    windows = DetectionProjection(
        tuple(
            None if w == "empty"
            else DetectionWindow.unbounded(domain) if w is None
            else DetectionWindow(w[0], w[1], domain)
            for w in config["detection"]["windows"]
        )
    )
    return s, dofs, windows


class TestSmallSideEngine:
    """`run` evaluates log_series on the r x r Schmidt-basis operand; it must
    agree with the dense N x N operand s^dag P s Gamma: p_vac within rtol
    1e-12 of the dense log-determinant, PND tables within rtol 1e-12 and
    atol 1e-15 of the dense vacuum-point route."""

    @pytest.mark.parametrize(
        "process, pipeline, detectors",
        [
            ("type2", False, [0, 1]),
            ("type2", False, [0, 0]),
            ("type2", True, [0, 1, None]),
            ("type2", True, [0, None, 0]),
            ("type0i", False, [0]),
            ("type0i", True, [0, None]),
            ("type0i", True, [0, 1]),
        ],
    )
    def test_matches_dense_oracle(self, process, pipeline, detectors):
        from biphoton_sim import (
            build_covariance_exact,
            compressed_determinant_operand,
            schmidt_decompose,
        )
        from biphoton_sim.cli import run_scenario
        from biphoton_sim.oracle import detector_parts_compressed

        config = _engine_config(process, pipeline, detectors)
        result = run_scenario(config)
        model = GaussianJsaModel(1.0, 3.0)
        jsa = build_gaussian_jsa(
            model, *default_grids(model, extent_sigmas=5.2, points_per_width=1.0)
        )
        schmidt = schmidt_decompose(jsa)
        kind = ProcessType(process)
        order = config["detection"]["series_order"]
        for k, point in enumerate(result["raw"]):
            gamma = build_covariance_exact(schmidt, point["gain"], kind)
            s, dofs, windows = _dense_reference_transform(config, gamma)
            operand = compressed_determinant_operand(s, windows, gamma, dofs).to_dense()
            p_dense = math.exp(-0.5 * dense_log_det(operand))
            assert point["p_vac"] == pytest.approx(p_dense, rel=1e-12, abs=0)
            if k == 0:
                # the grid-side (N x N) vacuum-point route with the dense series log-vacuum
                parts = detector_parts_compressed(s, windows, gamma, detectors, dofs)
                cutoffs = config["detection"]["pnd_cutoffs"]
                log_vac = -0.5 * log_det_series(sum(parts), order)
                ref = pnd(vacuum_point_gf(parts, log_vac, cutoffs), cutoffs)
                got = point["pnd"].probabilities
                assert np.allclose(got, ref.probabilities, rtol=1e-12, atol=1e-15)


_ENGINE_CASES = [
    ("type2", False, [0, 1]),
    ("type2", False, [0, 0]),
    ("type2", True, [0, 1, None]),
    ("type2", True, [0, None, 0]),
    ("type0i", False, [0]),
    ("type0i", True, [0, None]),
    ("type0i", True, [0, 1]),
]


def _gaussian_schmidt(points_per_width=1.0, delta_minus=3.0, extent_sigmas=5.2):
    """Schmidt spectrum of a Gaussian source with delta_plus = 1."""
    from biphoton_sim import schmidt_decompose

    model = GaussianJsaModel(1.0, delta_minus)
    grids = default_grids(model, extent_sigmas=extent_sigmas, points_per_width=points_per_width)
    return schmidt_decompose(build_gaussian_jsa(model, *grids))


class TestSchmidtSideLossFactor:
    """The bound columns take their loss factor from lambda_max of the r x r
    Schmidt-basis gram H = V^dag s^dag P s V; they must agree with the same
    bounds built from lambda_max of the dense N x N gram s^dag P s."""

    @pytest.mark.parametrize("process, pipeline, detectors", _ENGINE_CASES)
    def test_bounds_match_dense_gram(self, process, pipeline, detectors):
        from biphoton_sim import (
            build_covariance_exact,
            covariance_eigenvalues,
            det_truncation_bound_eigen,
            det_truncation_bound_hs,
            norms,
        )
        from biphoton_sim.cli import run_scenario
        from biphoton_sim.transforms import detected_gram

        config = _engine_config(process, pipeline, detectors)
        result = run_scenario(config)
        schmidt = _gaussian_schmidt()
        kind = ProcessType(process)
        order = config["detection"]["series_order"]
        gamma = build_covariance_exact(schmidt, result["raw"][0]["gain"], kind)
        s, dofs, windows = _dense_reference_transform(config, gamma)
        eta2 = float(np.linalg.eigvalsh(detected_gram(s, windows, dofs).to_dense())[-1])
        for point in result["raw"]:
            sq = SqueezingSpectrum.from_schmidt(schmidt, point["gain"], kind)
            nrm = norms(sq)
            eigen = det_truncation_bound_eigen(covariance_eigenvalues(sq), eta2, order)
            hs = det_truncation_bound_hs(
                nrm.largest_abs_eigenvalue, nrm.hs_norm**2, eta2, order
            )
            written = point["bounds"]
            assert written["det_trunc_eigen"] == pytest.approx(eigen.value, rel=1e-12, abs=0)
            assert written["det_trunc_hs"] == pytest.approx(hs.value, rel=1e-12, abs=0)


class TestNoGridSizedMatrix:
    def test_run_forms_only_schmidt_side_operands(self, monkeypatch):
        # N = 822 output rows against r = 108 Schmidt columns: any dense gram,
        # densified block operator or eigensolve wider than r fails the run
        from biphoton_sim import transforms
        from biphoton_sim._blocks import BlockMatrix
        from biphoton_sim.cli import run_scenario
        from biphoton_sim.covariance import covariance_factor

        config = _engine_config("type2", True, [0, 1, None])
        config["grid"]["points_per_width"] = 4.0
        config["detection"]["pnd_cutoffs"] = [3, 3]
        schmidt = _gaussian_schmidt(4.0)
        r = covariance_factor(schmidt, ProcessType.TYPE_II).shape[1]

        def capped(name, side_of, original):
            def wrapper(*args, **kwargs):
                side = side_of(*args)
                assert side <= r, f"{name} on a side-{side} operand (r = {r})"
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            transforms,
            "detected_gram",
            capped("detected_gram", lambda s, *a: max(s.mat.shape), transforms.detected_gram),
        )
        monkeypatch.setattr(
            BlockMatrix,
            "to_dense",
            capped("to_dense", lambda self: max(self.shape), BlockMatrix.to_dense),
        )
        monkeypatch.setattr(
            np.linalg,
            "eigvalsh",
            capped("eigvalsh", lambda a, *rest: max(np.shape(a)), np.linalg.eigvalsh),
        )
        result = run_scenario(config)
        assert len(result["rows"]) == 2
        assert result["pnd"].probabilities.shape == (4, 4)
        assert 6 * schmidt.grid_signal.n > 5 * r


def _readme_config(method):
    """The README scenario at `points_per_width` 2 with a [3, 3] PND: a
    type-II source, a beam splitter signal<->ancilla, phase and delay,
    Fourier, idler loss and a time window."""
    return {
        "source": {
            "process": "type2",
            "mu": 0.2,
            "jsa": {"gaussian": {"delta_plus_rad_s": 1.0, "delta_minus_rad_s": 4.0}},
        },
        "grid": {"extent_sigmas": 6.0, "points_per_width": 2.0},
        "modes": ["signal", "idler", "anc"],
        "pipeline": [
            {"type": "beam_splitter", "dofs": [0, 2], "transmittance": 0.9},
            {"type": "phase", "dof": 0, "phi0_rad": 0.0, "tau_s": 1.2, "beta_l_s2": 0.0},
            {"type": "fourier", "dof": 0},
            {"type": "loss", "eta": {"1": 0.85}},
        ],
        "detection": {
            "method": method,
            "domain": "time",
            "windows": [[-3.0, 3.0], None, "empty"],
            "pnd_cutoffs": [3, 3],
            "detectors": [0, 1, None],
        },
        "sweep": {"parameter": "source.mu", "values": [0.05, 0.1, 0.2]},
    }


class TestExactPipeline:
    """`exact` over a pipeline: the r x r log-determinant of 1 + M H."""

    def test_readme_pipeline_matches_dense_oracle(self):
        from biphoton_sim import build_covariance_exact, compressed_determinant_operand
        from biphoton_sim.cli import run_scenario
        from biphoton_sim.oracle import detector_parts_compressed

        config = _readme_config("exact")
        result = run_scenario(config)
        assert result["columns"][:4] == ["mu", "gain", "method", "p_vac"]
        assert "truncation_tail" in result["columns"]
        schmidt = _gaussian_schmidt(2.0, delta_minus=4.0, extent_sigmas=6.0)
        for k, point in enumerate(result["raw"]):
            gamma = build_covariance_exact(schmidt, point["gain"], ProcessType.TYPE_II)
            s, dofs, windows = _dense_reference_transform(config, gamma)
            operand = compressed_determinant_operand(s, windows, gamma, dofs).to_dense()
            log_vac = -0.5 * dense_log_det(operand)
            assert point["p_vac"] == pytest.approx(math.exp(log_vac), rel=1e-12, abs=0)
            if k == 0:
                parts = detector_parts_compressed(s, windows, gamma, [0, 1, None], dofs)
                ref = pnd(vacuum_point_gf(parts, log_vac, (3, 3)), (3, 3))
                got = point["pnd"].probabilities
                assert got[0, 0] == point["p_vac"]
                assert np.allclose(got, ref.probabilities, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("process", ["type2", "type0i"])
    def test_loss_pipeline_matches_exact_gf(self, process):
        from biphoton_sim.cli import run_scenario

        cutoffs = [3, 3] if process == "type2" else [4]
        config = {
            "source": {
                "process": process,
                "mu": 0.3,
                "jsa": {"gaussian": {"delta_plus_rad_s": 1.0, "delta_minus_rad_s": 3.0}},
            },
            "grid": {"extent_sigmas": 5.2, "points_per_width": 2.0},
            "pipeline": [{"type": "loss", "eta": {"0": 0.8}}],
            "detection": {"method": "exact", "pnd_cutoffs": cutoffs},
        }
        point = run_scenario(config)["raw"][0]
        schmidt = _gaussian_schmidt(2.0)
        sq = SqueezingSpectrum.from_schmidt(schmidt, point["gain"], ProcessType(process))
        gf = ExactProductGf(sq, 0.64, 1.0 if process == "type2" else 0.64)
        assert point["p_vac"] == pytest.approx(vacuum_probability(gf), rel=1e-12)
        ref = pnd(gf, cutoffs).probabilities
        got = point["pnd"].probabilities
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-15)


def _random_passive_config(seed):
    """A random passive pipeline over signal, idler and a vacuum ancilla:
    phase, beam splitters signal<->ancilla, idler<->ancilla and
    signal<->idler, loss and Fourier steps, random windows in each mode's
    own domain, and one or two detectors."""
    rng = np.random.default_rng(seed)
    steps, domains = [], ["frequency"] * 3
    for _ in range(rng.integers(2, 7)):
        kind = rng.choice(["phase", "splitter", "splitter", "loss", "fourier"])
        if kind == "phase":
            steps.append({"type": "phase", "dof": int(rng.integers(3)),
                          "phi0_rad": rng.uniform(0, 2 * math.pi),
                          "tau_s": rng.uniform(-1.5, 1.5), "beta_l_s2": rng.uniform(0, 0.1)})
        elif kind == "splitter":
            pair = [[0, 2], [1, 2], [0, 1]][rng.integers(3)]
            steps.append({"type": "beam_splitter", "dofs": pair,
                          "transmittance": rng.uniform(0.5, 0.95)})
        elif kind == "loss":
            modes = rng.choice(3, size=rng.integers(1, 4), replace=False)
            steps.append({"type": "loss", "eta": {str(m): rng.uniform(0.5, 1.0) for m in modes}})
        elif "time" not in domains:
            dof = int(rng.integers(3))
            steps.append({"type": "fourier", "dof": dof})
            domains[dof] = "time"
    domain = str(rng.choice(domains))
    windows = []
    for mode_domain in domains:
        kinds = [None, "empty"] + (["bounded"] * 2 if mode_domain == domain else [])
        w = kinds[rng.integers(len(kinds))]
        windows.append([-rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.5)] if w == "bounded" else w)
    if all(w == "empty" for w in windows):
        windows[0] = None
    n_detectors = int(rng.integers(1, 3))
    detectors = [None if w == "empty" else int(rng.integers(n_detectors)) for w in windows]
    return {
        "source": {
            "process": "type2",
            "mu": rng.uniform(0.05, 0.3),
            "jsa": {"gaussian": {"delta_plus_rad_s": 1.0, "delta_minus_rad_s": 3.0}},
        },
        "grid": {"extent_sigmas": 5.2, "points_per_width": 1.0},
        "modes": ["signal", "idler", "anc"],
        "pipeline": steps,
        "detection": {
            "series_order": int(rng.integers(4, 13)),
            "domain": domain,
            "windows": windows,
            "detectors": detectors,
            "pnd_cutoffs": [2] * (max(d for d in detectors if d is not None) + 1),
        },
    }


class TestConjugateSectors:
    """A type-II pipeline that never brings signal and idler together at a
    detector runs on one r/2-wide conjugate sector with multiplicity 2; one
    that does keeps all r columns.  Either way p_vac matches the dense
    N x N operand s^dag P s Gamma, and the bounds and the PND match the
    route over all r Schmidt columns."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_pipeline_matches_dense_operand(self, seed):
        # p_vac against the dense N x N operand; the bound columns against
        # lambda_max of the full r x r gram V^dag (s^dag P s) V, and the PND
        # against the vacuum-point route on the full r x r operands
        from biphoton_sim import (
            build_covariance_exact,
            compressed_determinant_operand,
            covariance_eigenvalues,
            det_truncation_bound_eigen,
            det_truncation_bound_hs,
            norms,
        )
        from biphoton_sim.cli import run_scenario
        from biphoton_sim.covariance import covariance_core, covariance_factor
        from biphoton_sim.transforms import detected_gram

        base = _random_passive_config(seed)
        order = base["detection"]["series_order"]
        cutoffs = base["detection"]["pnd_cutoffs"]
        detectors = base["detection"]["detectors"]
        schmidt = _gaussian_schmidt()
        v = covariance_factor(schmidt, ProcessType.TYPE_II)
        for method in ("log_series", "exact"):
            config = dict(base, detection=dict(base["detection"], method=method))
            point = run_scenario(config)["raw"][0]
            sq = SqueezingSpectrum.from_schmidt(schmidt, point["gain"], ProcessType.TYPE_II)
            gamma = build_covariance_exact(schmidt, point["gain"], ProcessType.TYPE_II)
            s, dofs, windows = _dense_reference_transform(config, gamma)
            operand = compressed_determinant_operand(s, windows, gamma, dofs).to_dense()
            p_exact = math.exp(-0.5 * dense_log_det(operand))

            def full_r_gram(keep):
                kept = tuple(w if keep(d) else None for w, d in zip(windows.windows, detectors))
                gram = detected_gram(s, DetectionProjection(kept), dofs).to_dense()
                return v.conj().T @ gram @ v

            core = covariance_core(sq)
            parts = [core @ full_r_gram(lambda d: d == k) for k in range(len(cutoffs))]
            total = sum(parts)
            if method == "exact":
                assert point["p_vac"] == pytest.approx(p_exact, rel=1e-12, abs=0)
                assert point["bounds"]["truncation_tail"] == schmidt.truncation_tail
                log_pnd = -0.5 * np.linalg.slogdet(np.eye(total.shape[0]) + total)[1]
            else:
                p_series = math.exp(-0.5 * log_det_series(operand, order))
                assert point["p_vac"] == pytest.approx(p_series, rel=1e-12, abs=0)
                log_pnd = -0.5 * log_det_series(total, order)
                eta2 = float(np.linalg.eigvalsh(full_r_gram(lambda d: True))[-1])
                nrm = norms(sq)
                eigen = det_truncation_bound_eigen(covariance_eigenvalues(sq), eta2, order)
                hs = det_truncation_bound_hs(
                    nrm.largest_abs_eigenvalue, nrm.hs_norm**2, eta2, order
                )
                written = point["bounds"]
                assert written["det_trunc_eigen"] == pytest.approx(eigen.value, rel=1e-12, abs=0)
                assert written["det_trunc_hs"] == pytest.approx(hs.value, rel=1e-12, abs=0)
                error = abs(point["p_vac"] - p_exact) / p_exact
                assert error <= min(eigen.value, hs.value) + 1e-12
            ref = pnd(vacuum_point_gf(parts, log_pnd, cutoffs), cutoffs)
            assert np.allclose(point["pnd"].probabilities, ref.probabilities, rtol=0, atol=1e-15)

    @staticmethod
    def _operand_widths(monkeypatch):
        """Record the side of every operand the determinant, series and
        moment routines see."""
        from biphoton_sim import detection

        widths = []

        def recorded(module, name):
            original = getattr(module, name)

            def wrapper(operand, *args, **kwargs):
                mats = operand if isinstance(operand, list) else [operand]
                widths.extend(np.shape(m)[0] for m in mats)
                return original(operand, *args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        recorded(detection, "vacuum_point_gf")
        recorded(np.linalg, "slogdet")
        return widths

    @pytest.mark.parametrize("method", ["log_series", "exact"])
    @pytest.mark.parametrize("pair, sectors", [([0, 2], 2), ([0, 1], 1)])
    def test_operand_width(self, monkeypatch, method, pair, sectors):
        from biphoton_sim.cli import run_scenario
        from biphoton_sim.covariance import covariance_factor

        config = _readme_config(method)
        config["detection"]["series_order"] = 20
        config["pipeline"][0]["dofs"] = pair
        r = covariance_factor(
            _gaussian_schmidt(2.0, delta_minus=4.0, extent_sigmas=6.0), ProcessType.TYPE_II
        ).shape[1]
        widths = self._operand_widths(monkeypatch)
        result = run_scenario(config)
        assert result["pnd"].probabilities.shape == (4, 4)
        assert widths and set(widths) == {r // sectors}


def _spectral_config(process, pipeline, order):
    """A log-series run of the README source on `pipeline`: 'none', 'loss',
    'readme' (signal<->ancilla, one type-II sector, a time window),
    'joined' (signal<->idler, all r columns) or 'undetected' (the README
    pipeline with a windowed ancilla that has no detector)."""
    config = _readme_config("log_series")
    config["source"]["process"] = process
    config["detection"]["series_order"] = order
    source = ["signal", "idler"] if process == "type2" else ["mode"]
    if pipeline in ("none", "loss"):
        config["modes"] = source
        config["pipeline"] = [] if pipeline == "none" else [
            {"type": "loss", "eta": {str(k): 0.9 - 0.1 * k for k in range(len(source))}}
        ]
        config["detection"].update(domain="frequency", windows=[None] * len(source),
                                   detectors=list(range(len(source))))
        del config["detection"]["pnd_cutoffs"]
        return config
    if process == "type0i":
        config["modes"] = ["mode", "anc"]
        config["pipeline"][0]["dofs"] = [0, 1]
        config["pipeline"][-1]["eta"] = {"1": 0.85}
        config["detection"].update(windows=[[-3.0, 3.0], None], detectors=[0, None])
    if pipeline != "undetected":
        del config["detection"]["pnd_cutoffs"]
    if pipeline == "joined":
        config["pipeline"][0]["dofs"] = [0, 1]
    if pipeline == "undetected":
        config["pipeline"].append({"type": "fourier", "dof": 2})
        config["detection"]["windows"][2] = [-2.0, 2.0]
        config["detection"]["pnd_cutoffs"] = [1, 1]  # low orders overshoot [3, 3]
    return config


def _schmidt_side_gram(config, schmidt, sector, keep=lambda k: True):
    """The r x r gram H of `run`: the pushed factor of the plan of `config`,
    its pipeline and windows written out as plan steps and windows, masked to
    the windows of the modes k with keep(k) and restricted to the columns
    `sector`."""
    from biphoton_sim import DetectionPlan

    steps = []
    for k, entry in enumerate(config["pipeline"]):
        label, kind = f"pipeline[{k}]", entry["type"]
        if kind == "loss":
            steps += [(label, kind, int(mode), eta) for mode, eta in entry["eta"].items()]
        elif kind == "beam_splitter":
            t = entry["transmittance"]
            steps.append((label, kind, tuple(entry["dofs"]), (t, math.sqrt(1.0 - t**2))))
        else:
            numbers = (entry[key] for key in ("phi0_rad", "tau_s", "beta_l_s2") if key in entry)
            steps.append((label, kind, entry["dof"], tuple(numbers)))
    detection = config["detection"]
    windows = [None if w == "empty" else DetectionWindow(*(w or (-math.inf, math.inf)),
                                                         detection["domain"])
               for w in detection["windows"]]
    plan = DetectionPlan(schmidt, ProcessType(config["source"]["process"]), steps, windows,
                         detection["detectors"], config["modes"])
    masks = [m if keep(k) else 0 * m for k, m in enumerate(plan.masks)]
    a = plan._factor[:, sector][np.concatenate(masks * 2) > 0]
    return a.conj().T @ a


class TestSpectralLogSeries:
    """`run` takes the log series of each sweep point from the eigenvalues of
    the r x r Hermitian H^1/2 M H^1/2: it must match the trace-moment series
    of M H within 1e-14 relative, keep the bound columns' loss factor
    lambda_max(H) from eigvalsh, and warn from the exact spectral radius."""

    CASES = [
        ("type2", "none", 2), ("type2", "loss", 2), ("type2", "readme", 2),
        ("type2", "joined", 1), ("type2", "undetected", 2),
        ("type0i", "none", 1), ("type0i", "loss", 1), ("type0i", "readme", 1),
    ]

    @pytest.mark.parametrize("order", [1, 2, 8, 20])
    @pytest.mark.parametrize("process, pipeline, multiplicity", CASES)
    def test_matches_trace_moment_series(self, process, pipeline, multiplicity, order):
        from biphoton_sim import (
            covariance_eigenvalues,
            det_truncation_bound_eigen,
            det_truncation_bound_hs,
            norms,
        )
        from biphoton_sim.cli import run_scenario
        from biphoton_sim.covariance import covariance_core

        config = _spectral_config(process, pipeline, order)
        config["sweep"]["values"] = [0.02, 0.05] if process == "type0i" else [0.05, 0.2]
        result = run_scenario(config)
        schmidt = _gaussian_schmidt(2.0, delta_minus=4.0, extent_sigmas=6.0)
        kind = ProcessType(process)
        r = 4 * schmidt.coefficients.size if process == "type2" else 2 * schmidt.coefficients.size
        sector = slice(0, r // multiplicity)
        h = _schmidt_side_gram(config, schmidt, sector)
        eta2 = float(np.linalg.eigvalsh(h)[-1])
        for point in result["raw"]:
            sq = SqueezingSpectrum.from_schmidt(schmidt, point["gain"], kind)
            core = covariance_core(sq)[sector, sector]
            series = log_det_series(core @ h, order)
            expected = math.exp(-0.5 * multiplicity * series)
            assert point["p_vac"] == pytest.approx(expected, rel=1e-14, abs=0)
            nrm = norms(sq)
            assert point["bounds"]["det_trunc_eigen"] == det_truncation_bound_eigen(
                covariance_eigenvalues(sq), eta2, order).value
            assert point["bounds"]["det_trunc_hs"] == det_truncation_bound_hs(
                nrm.largest_abs_eigenvalue, nrm.hs_norm**2, eta2, order).value
        if pipeline == "undetected":
            # the PND's vacuum is that of the detected modes alone
            detectors = config["detection"]["detectors"]
            h_detected = _schmidt_side_gram(config, schmidt, sector,
                                            lambda k: detectors[k] is not None)
            sq = SqueezingSpectrum.from_schmidt(schmidt, result["raw"][0]["gain"], kind)
            core = covariance_core(sq)[sector, sector]
            series = log_det_series(core @ h_detected, order)
            p_none = result["pnd"].probabilities[0, 0]
            assert p_none == pytest.approx(math.exp(-0.5 * multiplicity * series), rel=1e-14)
            assert p_none > result["raw"][0]["p_vac"]

    @pytest.mark.parametrize("above", [False, True])
    def test_radius_warning_at_exact_radius(self, above):
        # no pipeline and every row detected: H is the identity, so the
        # spectral radius of M H is the largest covariance eigenvalue
        # (e^sigma_1 - 1)/2, which is 0.95 at sigma_1 = ln 2.9
        import warnings

        from biphoton_sim.cli import run_scenario

        config = _spectral_config("type2", "none", 8)
        del config["sweep"], config["source"]["mu"]
        schmidt = _gaussian_schmidt(2.0, delta_minus=4.0, extent_sigmas=6.0)
        gain = math.log(2.9) / schmidt.coefficients[0] * (1.0 + (1e-9 if above else -1e-9))
        config["source"]["gain"] = gain
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_scenario(config)
        radius = [w for w in caught if issubclass(w.category, SpectralRadiusWarning)]
        assert len(radius) == (1 if above else 0)
        if above:
            assert "spectral radius 0.95" in str(radius[0].message)


def _dispatch_case(kind, rng):
    """A lossy generating function of each type and its vacuum value: by
    `vacuum_probability`, or for the series by `log_det_series`."""
    if kind == "poisson":
        gf = PoissonParams(0.4, 0.7, 0.6, 0.5)
        return gf, vacuum_probability(gf)
    if kind == "hermite":
        gf = hermite_params(0.8, 3.0, ProcessType.TYPE_II, 0.6, 0.7)
        return gf, vacuum_probability(gf)
    if kind == "log_series":
        gamma, _, _ = random_covariance(rng, process=ProcessType.TYPE_II, gain=0.5)
        parts = detector_parts(with_loss(gamma, (0.8, 0.7)), gamma, (0, 1))
        log_vac = -0.5 * log_det_series(sum(parts), 12)
        return vacuum_point_gf(parts, log_vac, 3), math.exp(log_vac)
    process = ProcessType.TYPE_II if kind == "exact_type2" else ProcessType.TYPE_0I
    _, spectrum, _ = random_covariance(rng, process=process, gain=0.7)
    gf = ExactProductGf(spectrum, 0.6, 0.7)
    return gf, vacuum_probability(gf)


class TestPndDispatch:
    """pnd picks the exponent and detector count from the generating
    function's type; its no-click entry is that type's vacuum probability,
    to the bit for the exact, Poisson and Hermite generating functions."""

    @pytest.mark.parametrize(
        "kind", ["poisson", "hermite", "exact_type2", "exact_type0i", "log_series", "unsupported"]
    )
    def test_vacuum_entry_matches_vacuum_probability(self, rng, kind):
        if kind == "unsupported":  # a squeezing spectrum is no generating function
            _, spectrum, _ = random_covariance(rng, gain=0.7)
            for evaluate in (lambda gf: pnd(gf, 3), vacuum_probability):
                with pytest.raises(TypeError, match="unsupported generating-function spec"):
                    evaluate(spectrum)
            return
        gf, vacuum = _dispatch_case(kind, rng)
        probs = pnd(gf, 3).probabilities
        assert probs.ndim == (1 if kind == "exact_type0i" else 2)
        if kind == "log_series":
            assert probs[(0,) * probs.ndim] == pytest.approx(vacuum, rel=1e-12, abs=0)
            assert probs[(0,) * probs.ndim] == vacuum_probability(gf)
        else:
            assert probs[(0,) * probs.ndim] == vacuum

    @pytest.mark.parametrize("kind", ["poisson", "hermite"])
    def test_vacuum_entry_bitwise_over_random_parameters(self, rng, kind):
        for _ in range(300):
            eta_s2, eta_i2 = rng.uniform(0.0, 1.0, 2)
            if kind == "poisson":
                p_s, p_i = rng.uniform(0.1, 0.5, 2)
                gf = PoissonParams(rng.uniform(0.0, 3.0), p_s, p_i, rng.uniform(0.0, min(p_s, p_i)))
            else:
                gf = hermite_params(rng.uniform(0.0, 1.5), rng.uniform(1.0, 30.0),
                                    ProcessType.TYPE_II, eta_s2, eta_i2)
            assert pnd(gf, 1).probabilities[0, 0] == vacuum_probability(gf)

    def test_unsupported_type(self):
        # the message names the supported types
        with pytest.raises(TypeError, match="unsupported.*VacuumPointGf"):
            pnd(object(), 2)


# ---------------------------------------------------------------------------
# vacuum probability methods and orderings
# ---------------------------------------------------------------------------


class TestVacuumProbability:
    def test_exact_dispatch(self):
        mu = 1.0
        sq = single_mode_spectrum(2.0 * math.asinh(math.sqrt(mu)), ProcessType.TYPE_II)
        assert vacuum_probability(ExactProductGf(sq)) == pytest.approx(0.5, rel=1e-12)

    def test_single_mode_and_poisson_match_vacuum_range(self):
        # fig3 writes `vacuum_range`'s closed forms: each process's upper
        # value is one mode's exact vacuum, the lower one exp(-mu) the
        # Poisson vacuum; here they meet the evaluators at fig3's mu values
        for mu in np.linspace(0.0, 3.0, 301):
            poisson = vacuum_probability(PoissonParams(mu, 1.0, 1.0, 1.0))
            for process, pairs in ((ProcessType.TYPE_0I, 2.0 * mu), (ProcessType.TYPE_II, mu)):
                upper, lower = vacuum_range(mu, process)
                # one mode's sigma at mean pairs x = sinh^2(sigma / 2)
                sq = single_mode_spectrum(2.0 * math.asinh(math.sqrt(pairs)), process)
                assert vacuum_probability(ExactProductGf(sq)) == pytest.approx(upper, rel=0,
                                                                                abs=1e-12)
                assert poisson == pytest.approx(lower, rel=0, abs=1e-12)

    def test_log_det_series_matches_exact(self, rng):
        gamma, spectrum, _ = random_covariance(rng, process=ProcessType.TYPE_II,
                                               gain=0.3)
        p_series = math.exp(-0.5 * log_det_series(gamma.mat.to_dense(), 30))
        p_exact = vacuum_probability(ExactProductGf(spectrum))
        assert p_series == pytest.approx(p_exact, rel=1e-12)

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
                p_exact = vacuum_probability(ExactProductGf(sq))
                p_poisson = math.exp(-mu)
                p_linear = 1.0 - mu
                # infinite-entanglement limit is always the better approximation
                assert abs(p_exact - p_poisson) <= abs(p_exact - p_linear) + 1e-12
                assert p_linear <= p_poisson <= p_exact + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        dirichlet_schmidt(),
        st.sampled_from(list(ProcessType)),
        st.floats(0.0, 3.0, exclude_min=True),
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    @example(analytic_gaussian_schmidt(3.0, 60), ProcessType.TYPE_II, 1.0, (1.0, 1.0))
    # at mu = gain^2 / 4 the Poisson value loses here: 2.6e-3 from exact against 2.0e-3
    @example(analytic_gaussian_schmidt(1.0, 1), ProcessType.TYPE_II, math.sinh(0.49) ** 2,
             (0.10, 0.34))
    # 17 equal modes near vacuum: summing ln cosh(s) + ln(rest) - ln 2 per mode
    # put the exact value 9.5 eps below the Poisson one
    @example(SchmidtSpectrum(np.full(17, 1.0 / math.sqrt(17.0))), ProcessType.TYPE_II,
             1.192092896e-07, (0.0, 0.5))
    def test_poisson_beats_single_pair_on_random_spectra(self, schmidt, process, mu, eta2):
        """The paper's claim that its lowest order, the Poisson limit at the
        exact mean pair number, is always closer to the vacuum probability
        than the single-pair approximation, under per-arm intensity
        transmissions eta2 (type-0/I: one, the first).  Both approximations
        take mu p_union, the probability that a pair is seen at all; each
        Schmidt mode's exact factor 1/(1 + p_union n_j) (its square root for
        type-0/I) is at least exp(-p_union n_j), so exact >= Poisson >= linear.

        The three values lie near 1 for small mu, where the two distances
        differ by about mu^2 / 2 and their rounding by up to a few eps: at
        mu = 1e-8 the single mode's rounded p_exact equals 1 - mu and
        exp(-mu) is one eps above both.  So the distances are compared to
        within 4 eps."""
        eta2_s, eta2_i = eta2 if process is ProcessType.TYPE_II else (eta2[0], eta2[0])
        gain = gain_for_mean_pairs(schmidt, mu, process)
        sq = SqueezingSpectrum.from_schmidt(schmidt, gain, process)
        p_exact = vacuum_probability(ExactProductGf(sq, eta2_s, eta2_i))
        seen = mu * (eta2_s + eta2_i - eta2_s * eta2_i)
        rounding = 4 * np.finfo(float).eps
        assert abs(p_exact - math.exp(-seen)) <= abs(p_exact - (1.0 - seen)) + rounding


class TestQuadraticVacuum:
    def test_zero_gain(self):
        schmidt = analytic_gaussian_schmidt(3.0, 40)
        sq = SqueezingSpectrum.from_schmidt(schmidt, 0.0, ProcessType.TYPE_II)
        assert quadratic_vacuum(sq, 1.0) == 1.0

    def test_single_mode_matches_truncated_tmsv(self):
        gain = 0.8
        sq = SqueezingSpectrum.from_schmidt(analytic_gaussian_schmidt(1.0, 1), gain,
                                            ProcessType.TYPE_II)
        for eta in (1.0, 0.7):
            t2 = math.tanh(gain / 2.0) ** 2
            miss = (1.0 - eta * eta) ** 2
            expected = (1.0 + miss * t2 + miss**2 * t2**2) / (1.0 + t2 + t2**2)
            got = quadratic_vacuum(sq, eta)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_small_gain_order_c6(self):
        # difference to the exact vacuum probability scales like C^6
        schmidt = analytic_gaussian_schmidt(3.0, 80)
        diffs = []
        for c2 in (1e-3, 2e-3, 4e-3):
            gain = math.sqrt(c2)
            sq = SqueezingSpectrum.from_schmidt(schmidt, gain, ProcessType.TYPE_II)
            p_exact = vacuum_probability(ExactProductGf(sq))
            p_quad = quadratic_vacuum(sq, 1.0)
            diffs.append(abs(p_quad - p_exact))
        assert diffs[0] < 1e-8
        assert diffs[1] / diffs[0] == pytest.approx(8.0, rel=0.25)
        assert diffs[2] / diffs[1] == pytest.approx(8.0, rel=0.25)

    def test_dispatch(self):
        # the two-pair truncation is called directly, not through vacuum_probability
        schmidt = analytic_gaussian_schmidt(2.0, 40)
        with pytest.raises(TypeError, match="unsupported generating-function spec"):
            vacuum_probability(SqueezingSpectrum.from_schmidt(schmidt, 0.5, ProcessType.TYPE_II))


class TestHermiteOrdering:
    def test_hermite_beats_quadratic(self):
        # spot check of the headline comparison on a small grid
        for aspect in (1.0, 3.0, 10.0):
            schmidt = analytic_gaussian_schmidt(aspect, 600)
            k = schmidt_number(schmidt)
            for mu in (0.05, 0.3, 1.0):
                gain = gain_for_mean_pairs(schmidt, mu, ProcessType.TYPE_II)
                sq = SqueezingSpectrum.from_schmidt(schmidt, gain, ProcessType.TYPE_II)
                p_exact = vacuum_probability(ExactProductGf(sq))
                hp = hermite_params(gain, k, ProcessType.TYPE_II)
                p_hermite = vacuum_probability(hp)
                p_quad = quadratic_vacuum(sq, 1.0)
                assert abs(p_hermite - p_exact) <= abs(p_quad - p_exact) + 1e-12
