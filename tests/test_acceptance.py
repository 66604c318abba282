"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""
import math
import time

import numpy as np
import pytest

from biphoton_sim import (
    DetectionProjection,
    DetectionWindow,
    ExactProductGf,
    GaussianJsaModel,
    HermiteParams,
    PoissonParams,
    ProcessType,
    SqueezingSpectrum,
    analytic_gaussian_schmidt,
    beam_splitter,
    build_covariance_exact,
    build_gaussian_jsa,
    compose_all,
    compress,
    compressed_determinant_operand,
    covariance_truncation_bound,
    default_grids,
    det_truncation_bound_eigen,
    det_truncation_bound_hs,
    gain_for_mean_pairs,
    gaussian_schmidt_number,
    hermite_params,
    phase_shift,
    pnd,
    quadratic_vacuum,
    schmidt_decompose,
    schmidt_number,
    vacuum_probability,
)
from biphoton_sim import DiscretizedJsa, FrequencyGrid
from biphoton_sim.cli import figure_data
from biphoton_sim.oracle import (
    dense_covariance_series,
    dense_generator,
    dense_log_det,
    dense_projection_eigs,
    tmsv_statistics,
)
from biphoton_sim.transforms import output_dofs, projection_masks
from conftest import random_covariance, random_schmidt


def report(criterion, text):
    print(f"criterion {criterion:02d} PASS: {text}")


def jsa_from_schmidt(schmidt):
    psi = (schmidt.modes_signal * schmidt.coefficients) @ schmidt.modes_idler.conj().T
    return DiscretizedJsa(schmidt.grid_signal, schmidt.grid_idler, psi)


def test_c01_fig3_closed_forms():
    t0 = time.perf_counter()
    columns, rows, _ = figure_data("fig3", points=301)
    data = np.array(rows)
    mus = data[:, 0]
    assert mus.size == 301 and mus[0] == 0.0 and mus[-1] == pytest.approx(3.0)
    worst = 0.0
    worst = max(worst, np.max(np.abs(data[:, 1] - np.exp(-mus))))
    worst = max(worst, np.max(np.abs(data[:, 2] - (1.0 + 2.0 * mus) ** -0.5)))
    worst = max(worst, np.max(np.abs(data[:, 3] - (1.0 + mus) ** -1.0)))
    worst = max(worst, np.max(np.abs(data[:, 4] - (1.0 - mus))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 1.0
    report(1, f"fig3 curves match closed forms, max err {worst:.2e}, {elapsed:.2f}s")


def test_c02_schmidt_analytic_vs_numerical():
    t0 = time.perf_counter()
    worst_lam, worst_k = 0.0, 0.0
    for aspect in (1.0, 2.0, 3.0, 5.0, 10.0, 20.0):
        model = GaussianJsaModel(1.0, aspect)
        jsa = build_gaussian_jsa(model, *default_grids(model))
        spec = schmidt_decompose(jsa, want_modes=False)
        ana = analytic_gaussian_schmidt(aspect, spec.coefficients.size + 10)
        keep = ana.lambdas > 1e-8
        n_keep = int(keep.sum())
        err = np.max(np.abs(spec.lambdas[:n_keep] - ana.lambdas[:n_keep]))
        worst_lam = max(worst_lam, float(err))
        k_num = schmidt_number(spec)
        k_ana = gaussian_schmidt_number(aspect)
        worst_k = max(worst_k, abs(k_num - k_ana))
    elapsed = time.perf_counter() - t0
    assert worst_lam < 1e-6
    assert worst_k < 1e-6
    assert elapsed < 30.0
    report(
        2,
        f"SVD vs analytic Schmidt: lambda err {worst_lam:.2e}, "
        f"K err {worst_k:.2e}, {elapsed:.1f}s",
    )


def test_c03_eigenvalue_law(rng):
    worst = 0.0
    for trial in range(20):
        process = ProcessType.TYPE_0I if trial % 2 else ProcessType.TYPE_II
        n_modes = int(rng.integers(1, 5))
        gain = float(rng.uniform(0.1, 0.9))
        schmidt = random_schmidt(rng, n=12, n_modes=n_modes)
        gamma = build_covariance_exact(schmidt, gain, process)
        spectrum = SqueezingSpectrum.from_schmidt(schmidt, gain, process)
        dim = sum(gamma.mat.row_sizes)
        from biphoton_sim import covariance_eigenvalues

        closed = covariance_eigenvalues(spectrum)
        expected = np.zeros(dim)
        expected[: closed.size] = closed
        dense = np.linalg.eigvalsh(gamma.mat.to_dense())
        err = np.max(np.abs(np.sort(expected)[::-1] - np.sort(dense)[::-1]))
        worst = max(worst, float(err))
    assert worst < 1e-9
    report(3, f"eigenvalue law on 20 random instances, max err {worst:.2e}")


def test_c04_covariance_bound_equality_and_monotonicity(rng):
    # equality at M = J against the densely computed relative trace-norm error
    worst = 0.0
    for trial in range(3):
        schmidt = random_schmidt(rng, n=12, n_modes=4)
        gain = float(rng.uniform(0.2, 0.8))
        jsa = jsa_from_schmidt(schmidt)
        z = dense_generator(jsa, gain, ProcessType.TYPE_II)
        exact = build_covariance_exact(schmidt, gain, ProcessType.TYPE_II)
        spectrum = SqueezingSpectrum.from_schmidt(schmidt, gain, ProcessType.TYPE_II)
        den = np.linalg.svd(exact.mat.to_dense(), compute_uv=False).sum()
        for order in range(1, 7):
            g_n = dense_covariance_series(z, order)
            num = np.linalg.svd(exact.mat.to_dense() - g_n, compute_uv=False).sum()
            closed = covariance_truncation_bound(spectrum.sigmas, order).value
            worst = max(worst, abs(num / den - closed))
    assert worst < 1e-9

    # monotonicity of the single-sigma error ratios over a 1000-point grid
    grid = np.linspace(1e-2, 10.0, 1000)
    for order in range(1, 9):
        vals = np.array([covariance_truncation_bound([s], order).value for s in grid])
        assert np.all(np.diff(vals) >= -1e-14), f"monotonicity fails at N={order}"
    report(4, f"covariance-series bound equality (err {worst:.2e}) and monotonicity")


def test_c05_det_bound_soundness(rng):
    checked = 0
    for trial in range(100):
        dim = int(rng.integers(4, 12))
        lam = rng.uniform(-0.5, 0.5, dim)
        q, _ = np.linalg.qr(
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        )
        gamma = (q * lam) @ q.conj().T
        eta2 = (0.1, 0.5, 1.0)[trial % 3]
        keep = rng.random(dim) < 0.7
        if not keep.any():
            keep[0] = True
        proj = np.diag(keep.astype(float))
        gp = proj @ (eta2 * gamma) @ proj
        p_exact = math.exp(-0.5 * dense_log_det(gp))
        evp = np.linalg.eigvalsh(gp)
        order = int(rng.integers(1, 5))
        trunc = sum(
            (-1.0) ** (n + 1) / n * float(np.sum(evp**n))
            for n in range(1, order + 1)
        )
        true_err = abs(math.exp(-0.5 * trunc) - p_exact) / p_exact
        eig_bound = det_truncation_bound_eigen(lam, eta2, order).value
        hs_bound = det_truncation_bound_hs(
            float(np.max(np.abs(lam))), float(np.sum(lam**2)), eta2, order
        ).value
        assert eig_bound >= true_err - 1e-12
        assert hs_bound >= true_err - 1e-12
        assert eig_bound <= hs_bound + 1e-14
        checked += 1
    assert checked == 100
    report(5, "determinant bounds dominate the true error on 100 dense instances")


def _tail_sum(x, order, odd):
    """Independent series tail sum_{n > order, n odd/even} x^n / n!."""
    total, n = 0.0, order + 1
    if n % 2 != (1 if odd else 0):
        n += 1
    term = x**n / math.factorial(n)
    while term > 0.0:
        total += term
        term *= x * x / ((n + 1) * (n + 2))
        n += 2
        if n > 600:
            break
    return total


def test_c06_fig1_fig2_regeneration():
    # fig 1: Hilbert-Schmidt determinant bound over the aspect ratio
    columns, rows, meta = figure_data("fig1", points=61)
    data = np.array(rows)
    aspects = data[:, 0]
    assert aspects[0] == pytest.approx(1.0) and aspects[-1] == pytest.approx(1e3)
    for j in range(1, data.shape[1]):
        assert np.all(np.diff(data[:, j]) <= 1e-15), f"fig1 column {j} not decreasing"
    # independent scalar re-evaluation
    from scipy.optimize import brentq

    worst = 0.0
    for i in (0, 17, 34, 60):
        aspect = aspects[i]
        z = ((aspect - 1.0) / (aspect + 1.0)) ** 2
        j_max = 1 if z == 0 else max(1, int(math.ceil(math.log(1e-16) / math.log(z))) + 1)
        lam = (1.0 - z) * z ** np.arange(j_max)
        col = 1
        for eta2 in meta["eta2s"]:
            for mu in meta["mus"]:
                def mu_of(c):
                    return float(np.sum(np.sinh(c * np.sqrt(lam) / 2.0) ** 2)) - mu

                c_hi = 2.0 * math.asinh(math.sqrt(mu)) / math.sqrt(lam[0])
                gain = brentq(mu_of, 0.0, c_hi, xtol=1e-15, rtol=8.9e-16)
                sig = gain * np.sqrt(lam)
                lp = (np.exp(sig) - 1.0) / 2.0
                lm = (np.exp(-sig) - 1.0) / 2.0
                lam1 = lp[0]
                hs2 = 2.0 * float(np.sum(lp**2) + np.sum(lm**2))
                a = eta2 * lam1
                # remainder of -ln(1-a) beyond order 2, summed directly so the
                # reference itself carries no cancellation
                tail, term, k = 0.0, a * a, 2
                while True:
                    term *= a
                    k += 1
                    inc = term / k
                    tail += inc
                    if inc < 1e-25 * max(tail, 1e-280):
                        break
                value = math.expm1(tail * hs2 / (2.0 * lam1**2))
                got = data[i, col]
                worst = max(worst, abs(got - value) / max(value, 1e-300))
                col += 1
    assert worst < 1e-12

    # fig 2: covariance truncation bound from the largest squeezing parameter
    columns2, rows2, meta2 = figure_data("fig2", points=61)
    data2 = np.array(rows2)
    for j in range(1, data2.shape[1]):
        assert np.all(np.diff(data2[:, j]) <= 1e-15), f"fig2 column {j} not decreasing"
    worst2 = 0.0
    for i in (0, 30, 60):
        aspect = data2[i, 0]
        z = ((aspect - 1.0) / (aspect + 1.0)) ** 2
        j_max = 1 if z == 0 else max(1, int(math.ceil(math.log(1e-16) / math.log(z))) + 1)
        lam = (1.0 - z) * z ** np.arange(j_max)
        col = 1
        for order in meta2["orders"]:
            for mu in meta2["mus"]:
                def mu_of(c):
                    return float(np.sum(np.sinh(c * np.sqrt(lam) / 2.0) ** 2)) - mu

                c_hi = 2.0 * math.asinh(math.sqrt(mu)) / math.sqrt(lam[0])
                gain = brentq(mu_of, 0.0, c_hi, xtol=1e-15, rtol=8.9e-16)
                sigma1 = gain * math.sqrt(lam[0])
                tail = _tail_sum(sigma1, order, odd=(order % 2 == 0))
                value = tail / math.sinh(sigma1)
                got = data2[i, col]
                worst2 = max(worst2, abs(got - value) / max(value, 1e-300))
                col += 1
    assert worst2 < 1e-12
    report(
        6,
        f"fig1/fig2 monotone decreasing; scalar re-evaluation err "
        f"{worst:.2e} / {worst2:.2e}",
    )


def test_c07_approximation_ordering():
    # Poisson always beats the single-pair approximation
    for aspect in (1.0, 3.0, 10.0):
        schmidt = analytic_gaussian_schmidt(aspect, 500)
        for mu in np.linspace(0.05, 3.0, 25):
            gain = gain_for_mean_pairs(schmidt, mu, ProcessType.TYPE_II)
            sq = SqueezingSpectrum.from_schmidt(schmidt, gain, ProcessType.TYPE_II)
            p_exact = vacuum_probability(sq, "exact")
            assert abs(p_exact - math.exp(-mu)) <= abs(p_exact - (1.0 - mu)) + 1e-12

    # Hermite beats the quadratic two-pair expansion on the examined grid
    for aspect in (1.0, 2.0, 3.0, 5.0, 10.0, 30.0):
        schmidt = analytic_gaussian_schmidt(aspect, 1200)
        k = schmidt_number(schmidt)
        for mu in np.geomspace(0.01, 1.0, 13):
            gain = gain_for_mean_pairs(schmidt, mu, ProcessType.TYPE_II)
            sq = SqueezingSpectrum.from_schmidt(schmidt, gain, ProcessType.TYPE_II)
            p_exact = vacuum_probability(sq, "exact")
            p_hermite = vacuum_probability(
                hermite_params(gain, k, ProcessType.TYPE_II), "hermite"
            )
            p_quad = quadratic_vacuum(schmidt, gain, 1.0, ProcessType.TYPE_II)
            assert abs(p_hermite - p_exact) <= abs(p_quad - p_exact) + 1e-12
    report(7, "Poisson beats linear and Hermite beats quadratic on the full grids")


def test_c08_pnd_correctness():
    # bivariate Poisson against the closed-form PMF
    params = PoissonParams(0.7, 0.85, 0.75, 0.6)
    stats = pnd(params, (10, 10))
    a = params.mu * (params.p_s - params.p_si)
    b = params.mu * (params.p_i - params.p_si)
    c = params.mu * params.p_si
    worst_p = 0.0
    for n in range(11):
        for m in range(11):
            ref = sum(
                a ** (n - k)
                / math.factorial(n - k)
                * b ** (m - k)
                / math.factorial(m - k)
                * c**k
                / math.factorial(k)
                for k in range(min(n, m) + 1)
            ) * math.exp(-(a + b + c))
            worst_p = max(worst_p, abs(stats.probabilities[n, m] - ref))
    assert worst_p < 1e-12

    # Hermite marginal against the Hermite-polynomial formula
    mu, eps2 = 0.4, 0.07
    stats_h = pnd(HermiteParams(mu, eps2, 1.0, 0.0), (8, 0))
    eps = math.sqrt(eps2)
    x = 1j * (mu - eps2) / (math.sqrt(2.0) * eps)
    worst_h = 0.0
    for n in range(9):
        h_prev, h = 1.0 + 0.0j, 2.0 * x
        if n == 0:
            val = h_prev
        else:
            for k in range(1, n):
                h_prev, h = h, 2.0 * x * h - 2.0 * k * h_prev
            val = h
        ref = (
            eps**n / (1j**n * math.sqrt(2.0**n) * math.factorial(n))
            * math.exp(-(mu - eps2 / 2.0))
            * val
        ).real
        worst_h = max(worst_h, abs(stats_h.probabilities[n, 0] - ref))
    assert worst_h < 1e-10

    # single-Schmidt-mode type-II with loss against the independent oracle
    sigma, eta = 0.4, 0.7
    sq = SqueezingSpectrum(np.array([sigma]), ProcessType.TYPE_II, 1.0)
    stats_t = pnd(ExactProductGf(sq, eta * eta, eta * eta), (6, 6))
    ref_t = tmsv_statistics(sigma, eta, 6)
    worst_t = float(np.max(np.abs(stats_t.probabilities - ref_t)))
    assert worst_t < 1e-10

    # normalization deficits at cutoff 10 * mean + 20
    for gf, means in (
        (params, (params.mu * params.p_s, params.mu * params.p_i)),
        (HermiteParams(0.41, 0.07, 0.9, 0.8), (0.37, 0.33)),
        (ExactProductGf(sq, 0.49, 0.49), (0.02, 0.02)),
    ):
        cutoffs = [int(10 * m + 20) for m in means]
        assert pnd(gf, cutoffs).normalization_deficit < 1e-8
    report(
        8,
        f"PND vs oracles: poisson {worst_p:.2e}, hermite {worst_h:.2e}, "
        f"tmsv {worst_t:.2e}; deficits < 1e-8",
    )


def test_c09_compression_identity_and_speed(rng):
    # identity on 50 randomized pipelines with 2..4 discrete modes
    worst = 0.0
    for trial in range(50):
        gamma, _, _ = random_covariance(
            rng, n=8, process=ProcessType.TYPE_II, gain=float(rng.uniform(0.2, 0.7))
        )
        n = gamma.dofs[0].grid.n
        m_total = int(rng.integers(2, 5))
        parts = [beam_splitter(np.sqrt(0.5), np.sqrt(0.5), (0, 1), m_total, n=n)]
        if m_total >= 3:
            parts.append(beam_splitter(0.6, 0.8, (0, 2), m_total, n=n))
        parts.append(
            phase_shift(
                float(rng.uniform(0, 2)), float(rng.uniform(0, 1)), 0.0,
                gamma.dofs[0].grid, 0, m_total, sizes=[n] * m_total,
            )
        )
        s = compress(compose_all(parts), 2)
        windows = tuple(
            DetectionWindow(float(lo), float(lo + rng.uniform(0.5, 8.0)))
            for lo in rng.uniform(-3.9, 0.0, m_total)
        )
        p = DetectionProjection(windows)
        dofs_out = output_dofs(s, gamma.dofs)
        operand = compressed_determinant_operand(s, p, gamma, dofs_out)
        small = dense_log_det(operand.to_dense())
        masks = projection_masks(p, dofs_out)
        pd = np.diag(np.concatenate(masks * 2))
        sd = s.mat.to_dense()
        big = dense_log_det(pd @ sd @ gamma.mat.to_dense() @ sd.conj().T @ pd)
        worst = max(worst, abs(small - big) / max(abs(big), 1e-300))
    assert worst < 1e-10

    # timing at M / M' = 4 on a 64-point grid
    n = 64
    grid = FrequencyGrid.uniform(-7.2, 7.2, n)
    model = GaussianJsaModel(1.0, 1.0)
    jsa = build_gaussian_jsa(model, grid, grid)
    schmidt = schmidt_decompose(jsa)
    gamma = build_covariance_exact(schmidt, 0.5, ProcessType.TYPE_0I)
    m_total = 4
    parts = [
        beam_splitter(np.sqrt(0.5), np.sqrt(0.5), (0, 1), m_total, n=n),
        beam_splitter(0.6, 0.8, (1, 2), m_total, n=n),
        phase_shift(0.3, 0.2, 0.0, grid, 0, m_total, sizes=[n] * m_total),
        beam_splitter(0.8, 0.6, (2, 3), m_total, n=n),
    ]
    windows = DetectionProjection(
        tuple(DetectionWindow(-2.0, 2.0) for _ in range(m_total))
    )

    def compressed_path():
        s = compress(compose_all(parts), 1)
        dofs_out = output_dofs(s, gamma.dofs)
        operand = compressed_determinant_operand(s, windows, gamma, dofs_out)
        return dense_log_det(operand.to_dense())

    def dense_path():
        total = np.eye(2 * m_total * n, dtype=complex)
        for t in parts:
            total = t.mat.to_dense() @ total
        big = np.zeros((2 * m_total * n, 2 * m_total * n), dtype=complex)
        sel = np.concatenate([np.arange(n), m_total * n + np.arange(n)])
        big[np.ix_(sel, sel)] = gamma.mat.to_dense()
        dofs_out = output_dofs(compress(compose_all(parts), 1), gamma.dofs)
        masks = projection_masks(windows, dofs_out)
        pd = np.concatenate(masks * 2)
        after = pd[:, None] * (total @ big @ total.conj().T) * pd[None, :]
        return dense_log_det(after)

    assert compressed_path() == pytest.approx(dense_path(), rel=1e-10)

    # the repeats alternate between the paths, so that a load from another
    # process falls on both; each path keeps its best of 7
    best = {compressed_path: math.inf, dense_path: math.inf}
    for _ in range(7):
        for fn in best:
            t0 = time.perf_counter()
            fn()
            best[fn] = min(best[fn], time.perf_counter() - t0)
    speedup = best[dense_path] / best[compressed_path]
    assert speedup >= 5.0
    report(9, f"compression identity err {worst:.2e}; speedup {speedup:.1f}x")


def test_c10_interlacing(rng):
    for _ in range(100):
        dim = int(rng.integers(5, 16))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (a + a.conj().T) / 2.0
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
    report(10, "interlacing holds on 100 random (state, projection) pairs")
