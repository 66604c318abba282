"""Tests for the closed-form error bounds and their soundness."""
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton_sim import (
    OutOfDomainError,
    ProcessType,
    covariance_truncation_bound,
    det_truncation_bound_eigen,
    det_truncation_bound_hs,
    poisson_vs_n2_bound,
    vacuum_range,
)
from biphoton_sim.bounds import BoundReport, _log_series_tail, _logsumexp
from biphoton_sim.covariance import SqueezingSpectrum
from biphoton_sim.detection import vacuum_probability
from conftest import reference_covariance_bound


@st.composite
def _log_terms(draw):
    """1-40 finite floats in +-1e3 with forced ties and some -inf entries."""
    xs = draw(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=40,
        )
    )
    n_ties = draw(st.integers(0, len(xs) - 1))
    for i in draw(st.lists(st.integers(0, len(xs) - 1), max_size=n_ties)):
        xs[i] = max(xs)
    for i in draw(st.lists(st.integers(0, len(xs) - 1), max_size=len(xs) // 3)):
        xs[i] = -math.inf
    return xs


class TestLogSumExp:
    @settings(max_examples=500, deadline=None)
    @given(_log_terms())
    def test_equals_scipy_exactly(self, xs):
        assert _logsumexp(xs) == float(scipy.special.logsumexp(xs))

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_all_minus_inf(self, n):
        assert _logsumexp([-math.inf] * n) == -math.inf


class TestBoundReport:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-300])
    def test_rejects_non_finite_or_negative(self, value):
        with pytest.raises(ValueError, match="not finite and non-negative"):
            BoundReport(value, "DET_TRUNC_EIGEN")


class TestCovarianceTruncationBound:
    def test_converged_series_floors(self):
        for sigma in (0.5, 2.0):
            assert covariance_truncation_bound([sigma], 30).value < 1e-12

    def test_order_zero_is_one(self):
        # no terms kept: the error is the full covariance
        assert covariance_truncation_bound([0.7], 0).value == pytest.approx(1.0)

    def test_explicit_small_order(self):
        sigma = 1.3
        expected_even = (np.sinh(sigma) - sigma) / np.sinh(sigma)
        assert covariance_truncation_bound([sigma], 2).value == pytest.approx(
            expected_even, rel=1e-12
        )
        expected_odd = (np.cosh(sigma) - 1.0 - sigma**2 / 2.0) / np.sinh(sigma)
        assert covariance_truncation_bound([sigma], 3).value == pytest.approx(
            expected_odd, rel=1e-12
        )

    def test_fewer_sigmas_never_underestimate(self, rng):
        sig = np.sort(rng.uniform(0.05, 2.0, 6))[::-1]
        for order in range(1, 7):
            full = covariance_truncation_bound(sig, order).value
            for m in range(1, 6):
                partial = covariance_truncation_bound(sig[:m], order).value
                assert partial >= full - 1e-12

    def test_monotone_in_sigma(self):
        # single-sigma bound equals the monotone helper ratios
        grid = np.linspace(1e-3, 10.0, 1000)
        for order in range(1, 9):
            vals = np.array(
                [covariance_truncation_bound([s], order).value for s in grid]
            )
            assert np.all(np.diff(vals) >= -1e-14)

    def test_no_cancellation_at_tiny_sigma(self):
        val = covariance_truncation_bound([1e-6], 8).value
        # leading tail term: sigma^9/9! over sinh(sigma)
        expected = 1e-54 / math.factorial(9) / math.sinh(1e-6)
        assert val == pytest.approx(expected, rel=1e-10)

    def test_matches_gammaln_reference(self):
        # math.lgamma and scipy's gammaln differ in the last bit, which exp of
        # a log tail near -700 turns into about 1e-13 relative; below the
        # smallest normal float the tolerance is 1e-12 of that float
        tiny = np.finfo(float).tiny
        for sigma in np.geomspace(1e-6, 800.0, 300):
            for order in [*range(31), 50, 100]:
                got = covariance_truncation_bound([sigma], order).value
                ref = reference_covariance_bound(sigma, order)
                assert abs(got - ref) <= 1e-12 * max(ref, tiny), (sigma, order, got, ref)

    def test_large_sigma_log_space(self):
        val = covariance_truncation_bound([800.0], 2).value
        assert 0.99 < val <= 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            covariance_truncation_bound([0.0, 0.0], 2)


class TestDetTruncationBounds:
    def test_zero_eigenvalues(self):
        assert det_truncation_bound_eigen([0.0, 0.0], 1.0, 3).value == 0.0

    def test_scalar_example(self):
        report = det_truncation_bound_eigen([0.1], 1.0, 2)
        expected = math.expm1(0.5 * abs(math.log(1.1) - 0.1 + 0.005))
        assert report.value == pytest.approx(expected, rel=1e-10)
        assert report.value == pytest.approx(1.55e-4, abs=2e-6)

    def test_domain_violation(self):
        with pytest.raises(OutOfDomainError):
            det_truncation_bound_eigen([1.2], 1.0, 2)
        with pytest.raises(OutOfDomainError):
            det_truncation_bound_hs(1.2, 1.5, 1.0, 2)

    def test_hs_zero_limit(self):
        assert det_truncation_bound_hs(0.0, 0.0, 1.0, 2).value == 0.0

    @pytest.mark.parametrize(
        "bound",
        [
            lambda: det_truncation_bound_eigen(np.array([1.25]), np.float64(1.0), 2),
            lambda: det_truncation_bound_hs(np.float64(1.25), 1.5, np.float64(1.0), 2),
        ],
    )
    def test_domain_message_prints_plain_float(self, bound):
        with pytest.raises(OutOfDomainError) as err:
            bound()
        assert "1.25 >= 1" in str(err.value)
        assert "np.float64" not in str(err.value)

    def test_tail_of_a_spectrum_is_the_one_value_tails(self):
        """The array tail stops each value at its own order: each entry and
        the bound equal a term-by-term loop over that value alone."""

        def one_value_loop(lam, order):
            if lam == 0:
                return 0.0
            total, term, n = 0.0, (-lam) ** order, order + 1
            while True:
                term *= -lam
                inc = term / n
                total += inc
                if abs(inc) < 1e-18 * (abs(total) + 1e-300):
                    return -total
                n += 1

        lam = np.array([0.0, 3e-300, 1e-9, -1e-4, 0.3, -0.6, 0.97, -0.999, 0.5])
        for order in (0, 1, 2, 7, 20):
            tails = _log_series_tail(lam, order)
            singles = [_log_series_tail([v], order)[0] for v in lam]
            assert tails.tolist() == singles == [one_value_loop(v, order) for v in lam]
            value = det_truncation_bound_eigen(lam, 1.0, order).value
            assert value == float(np.expm1(0.5 * sum(abs(t) for t in singles)))
        with pytest.raises(OutOfDomainError, match=r"= 1.5 >= 1"):
            _log_series_tail([0.5, 0.0, -1.5, 2.0], 3)

    def test_hs_zero_transmission_is_positive_zero(self):
        value = det_truncation_bound_hs(0.5, 0.3, 0.0, 2).value
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_eigen_below_hs(self, rng):
        for _ in range(25):
            lam = rng.uniform(-0.5, 0.5, 8)
            lam1 = float(np.max(np.abs(lam)))
            hs2 = float(np.sum(lam**2))
            eta2 = float(rng.choice([0.1, 0.5, 1.0]))
            for order in (1, 2, 3):
                eig = det_truncation_bound_eigen(lam, eta2, order).value
                hs = det_truncation_bound_hs(lam1, hs2, eta2, order).value
                assert eig <= hs + 1e-14

    def test_soundness_against_dense(self, rng):
        # bounds dominate the true relative vacuum-probability error
        for _ in range(30):
            dim = int(rng.integers(4, 10))
            lam = rng.uniform(-0.5, 0.5, dim)
            q, _ = np.linalg.qr(
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            )
            gamma = (q * lam) @ q.conj().T
            eta2 = float(rng.choice([0.1, 0.5, 1.0]))
            keep = rng.random(dim) < 0.7
            if not keep.any():
                keep[0] = True
            proj = np.diag(keep.astype(float))
            gp = proj @ (eta2 * gamma) @ proj
            sign, logdet = np.linalg.slogdet(np.eye(dim) + gp)
            p_exact = math.exp(-0.5 * logdet)
            evp = np.linalg.eigvalsh(gp)
            for order in (1, 2, 3, 4):
                trunc = sum(
                    (-1.0) ** (n + 1) / n * float(np.sum(evp**n))
                    for n in range(1, order + 1)
                )
                p_approx = math.exp(-0.5 * trunc)
                true_err = abs(p_approx - p_exact) / p_exact
                eig = det_truncation_bound_eigen(lam, eta2, order).value
                hs = det_truncation_bound_hs(
                    float(np.max(np.abs(lam))), float(np.sum(lam**2)), eta2, order
                ).value
                assert eig >= true_err - 1e-12
                assert hs >= true_err - 1e-12


class TestPoissonVsN2:
    def test_zero_gain(self):
        assert poisson_vs_n2_bound(0.0, 2.0, 1.0, ProcessType.TYPE_0I).value == 0.0

    def test_dominates_fourth_order_term(self):
        # the bound covers the vacuum-probability cost of dropping the
        # fourth-order kernel term from the second-order truncation
        import numpy as np

        from biphoton_sim import (
            GaussianJsaModel,
            build_gaussian_jsa,
            default_grids,
            schmidt_decompose,
            schmidt_number,
        )
        from biphoton_sim.oracle import dense_generator

        model = GaussianJsaModel(1.0, 3.0)
        jsa = build_gaussian_jsa(
            model, *default_grids(model, extent_sigmas=5.2, points_per_width=3.0)
        )
        k = schmidt_number(schmidt_decompose(jsa, want_modes=False))
        n = jsa.grid_signal.n
        for gain in (0.3, 0.8):
            for eta_s, eta_i in ((1.0, 1.0), (0.9, 0.6)):
                z = dense_generator(jsa, gain, ProcessType.TYPE_II).matrix
                eta = np.concatenate(
                    [np.full(n, eta_s), np.full(n, eta_i)] * 2
                )
                k2 = eta[:, None] * (z + z @ z) * eta[None, :]
                kz = eta[:, None] * z * eta[None, :]
                p_ref = math.exp(
                    -np.trace(k2).real / 2.0 + np.linalg.norm(k2) ** 2 / 4.0
                )
                p_poisson = math.exp(
                    -np.trace(k2).real / 2.0 + np.linalg.norm(kz) ** 2 / 4.0
                )
                bound = poisson_vs_n2_bound(
                    gain, k, (eta_s, eta_i), ProcessType.TYPE_II
                ).value
                assert abs(p_ref - p_poisson) / p_ref <= bound + 1e-12

    def test_type2_example(self):
        val = poisson_vs_n2_bound(1.0, 1.0, (1.0, 1.0), ProcessType.TYPE_II).value
        assert val == pytest.approx(1.0 - math.exp(-1.0 / 16.0), rel=1e-12)
        assert val == pytest.approx(0.0606, abs=2e-4)

    def test_vanishes_with_entanglement(self):
        vals = [
            poisson_vs_n2_bound(1.0, k, 1.0, ProcessType.TYPE_0I).value
            for k in (1.0, 10.0, 1e4)
        ]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-4


class TestVacuumRange:
    def test_zero_mu(self):
        assert vacuum_range(0.0, ProcessType.TYPE_II) == (1.0, 1.0)

    def test_type2_at_one(self):
        upper, lower = vacuum_range(1.0, ProcessType.TYPE_II)
        assert upper == pytest.approx(0.5)
        assert lower == pytest.approx(math.exp(-1.0))

    def test_exact_vacuum_inside_range(self, rng):
        for process in ProcessType:
            for _ in range(20):
                n_modes = int(rng.integers(1, 6))
                sig = np.sort(rng.uniform(0.01, 1.2, n_modes))[::-1]
                sq = SqueezingSpectrum(sig, process, 1.0)
                mu = float(np.sum(np.sinh(sig / 2.0) ** 2))
                if process is ProcessType.TYPE_0I:
                    mu /= 2.0
                upper, lower = vacuum_range(mu, process)
                p = vacuum_probability(sq, "exact")
                assert lower - 1e-10 <= p <= upper + 1e-10
