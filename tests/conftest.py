"""Shared builders for randomized test instances."""
import numpy as np
import pytest
from hypothesis import strategies as st

from biphoton_sim import (
    FrequencyGrid,
    ProcessType,
    SchmidtSpectrum,
    SqueezingSpectrum,
    build_covariance_exact,
)


def random_orthonormal(rng, n, k):
    """k orthonormal complex columns over an n-point grid (symmetrized space)."""
    a = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    q, _ = np.linalg.qr(a)
    return q


def random_schmidt(rng, n=14, n_modes=4, grid_span=4.0):
    """A random discretized Schmidt spectrum with orthonormal modes."""
    grid = FrequencyGrid.uniform(-grid_span, grid_span, n)
    lam = rng.uniform(0.2, 1.0, n_modes)
    lam = np.sort(lam / lam.sum())[::-1]
    sqw = np.sqrt(grid.weights)
    u = random_orthonormal(rng, n, n_modes) / sqw[:, None]
    v = random_orthonormal(rng, n, n_modes) / sqw[:, None]
    return SchmidtSpectrum(
        np.sqrt(lam),
        truncation_tail=0.0,
        modes_signal=u,
        modes_idler=v,
        grid_signal=grid,
        grid_idler=grid,
    )


@st.composite
def dirichlet_schmidt(draw, max_modes=60):
    """A Schmidt spectrum of 1 to `max_modes` modes whose weights lambda_j
    (the squared coefficients) are a Dirichlet draw, sorted descending."""
    n = draw(st.integers(1, max_modes))
    alpha = draw(st.floats(0.1, 5.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = np.sort(rng.dirichlet(np.full(n, alpha)))[::-1]
    return SchmidtSpectrum(np.sqrt(lam))


def random_covariance(rng, process=ProcessType.TYPE_II, gain=0.6, **kwargs):
    schmidt = random_schmidt(rng, **kwargs)
    gamma = build_covariance_exact(schmidt, gain, process)
    spectrum = SqueezingSpectrum.from_schmidt(schmidt, gain, process)
    return gamma, spectrum, schmidt


def reference_covariance_bound(sigma: float, order: int) -> float:
    """covariance_truncation_bound([sigma], order) from scipy's gammaln and
    logsumexp: every term sigma^n / n! of the tail's parity from n = order + 1
    up to past 2 sigma + 200, where the terms have fallen by 2^-200."""
    from scipy.special import gammaln, logsumexp

    n = np.arange(order + 1, order + 2 * sigma + 202, 2)
    log_tail = logsumexp(n * np.log(sigma) - gammaln(n + 1))
    log_sinh = sigma + np.log(-np.expm1(-2.0 * sigma)) - np.log(2.0)
    return float(np.exp(log_tail - log_sinh))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
