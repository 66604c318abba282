"""fig1 and fig2 from the Schmidt power sums of the untruncated Gaussian
spectrum (`covariance._gaussian_sweep`), against per-mode evaluations over the
truncated spectrum and against a 50-digit reference; fig4 against a 50-digit
reference."""
import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from biphoton_sim import (
    ProcessType,
    analytic_gaussian_schmidt,
    covariance_truncation_bound,
    det_truncation_bound_hs,
    gain_for_mean_pairs,
    norms,
)
from biphoton_sim import covariance, detection, scenario, spectral
from biphoton_sim.cli import FIGURES, figure_data, main
from biphoton_sim.covariance import _gaussian_spectra, _gaussian_sweep

EPS = np.finfo(float).eps


def _j_max(aspect):
    """The mode count of the per-mode figures: down to relative weight 1e-16."""
    log_z = float(spectral._gaussian_log_z(aspect))
    return 1 if log_z == -math.inf else max(1, math.ceil(math.log(1e-16) / log_z) + 1)


def _accurate_spectrum(aspect):
    """The Gaussian spectrum to the figure floor, each weight formed without
    cancellation (`analytic_gaussian_schmidt`)."""
    return analytic_gaussian_schmidt(aspect, _j_max(aspect))


def _per_mode_rows(name, points, overrides):
    """fig1/fig2 rows as sums over the modes of the truncated spectrum of
    `_gaussian_spectra`, whose gains come from `gain_for_mean_pairs`: fig1
    from `norms` and fig2 from the largest squeezing parameter, each value
    from the public bound."""
    parameters = FIGURES[name][2]
    p = {key: overrides.get(key, default) for key, (default, _) in parameters.items()}
    rows = []
    for aspect in np.geomspace(1.0, p["aspect_max"], points):
        sqs = _gaussian_spectra(float(aspect), p["mus"])[2]
        if name == "fig1":
            with np.errstate(over="ignore"):  # the HS norm of mu = 1e300 overflows
                nrms = [norms(sq) for sq in sqs]
            values = [det_truncation_bound_hs(n.largest_abs_eigenvalue, n.hs_norm**2, e,
                                              p["order"]).value
                      for e in p["eta2s"] for n in nrms]
        else:
            values = [covariance_truncation_bound([float(sq.sigmas[0])], n).value
                      for n in p["orders"] for sq in sqs]
        rows.append([float(aspect)] + values)
    return rows


def _relative_gap(got, ref):
    got, ref = np.array(got), np.array(ref)
    assert got.shape == ref.shape and np.array_equal(got[:, 0], ref[:, 0])
    gap = np.abs(got - ref) / np.maximum(np.abs(ref), np.finfo(float).tiny)
    return float(np.max(np.where((got == 0) & (ref == 0), 0.0, gap)))


def _sigma_reference(aspect, mu, guess):
    """sigma_1 at mean pair number mu to 50 digits: Newton's method on
    mu = sum_k sigma^2k / (2 (2k)! (1 - z^k)) with z exact, from `guess`."""
    with localcontext() as ctx:
        ctx.prec = 50
        r, target = Decimal(aspect), Decimal(mu)
        z = ((r - 1) / (r + 1)) ** 2
        sigma = Decimal(guess)
        for _ in range(20):
            total = slope = Decimal(0)
            term, k = Decimal(1), 0
            while True:
                k += 1
                term = term * sigma * sigma / ((2 * k - 1) * (2 * k))
                inc = term / (1 - z**k)
                total += inc / 2
                slope += k * inc / sigma
                if 2 * k > sigma and inc < total * Decimal(10) ** -45:
                    break
            step = (total - target) / slope
            sigma -= step
            if abs(step) < sigma * Decimal(10) ** -40:
                return sigma
    raise AssertionError("no convergence")  # pragma: no cover


class TestSweepSigma:
    @pytest.mark.parametrize("aspect", [1.0, 3.0, 1 / 100, 1000.0, 1e5])
    def test_matches_a_50_digit_reference(self, aspect):
        mus = [1e-8, 0.01, 1.0, 1e3, 1e300]
        sigma = _gaussian_sweep(2, aspect, mus)[1][-1]  # the last ratio is aspect_max
        for mu, got in zip(mus, sigma.tolist()):
            ref = _sigma_reference(aspect, mu, got)
            assert abs(Decimal(got) - ref) <= 2 * Decimal(EPS) * ref, (aspect, mu)

    @pytest.mark.parametrize("aspect", [*np.geomspace(1.0, 1e3, 7).tolist(), 1 / 30, 1e5])
    def test_matches_gain_for_mean_pairs_at_the_figure_floor(self, aspect):
        """sigma_1 = g c_1 of `gain_for_mean_pairs` on `analytic_gaussian_schmidt`
        to the figure floor, the per-mode route, within 8 eps: Newton's 4 ulp
        and the sweep's own rounding."""
        mus = [0.0, 1e-6, 0.01, 1.0, 10.0]
        schmidt = _accurate_spectrum(aspect)
        gains = gain_for_mean_pairs(schmidt, mus, ProcessType.TYPE_II)
        bound = 8 * EPS
        sigma = _gaussian_sweep(2, aspect, mus)[1][-1]  # the last ratio is aspect_max
        assert sigma[0] == gains[0] == 0.0  # mu = 0: no squeezing, exactly
        ref = gains[1:] * schmidt.coefficients[0]
        assert np.all(np.abs(sigma[1:] - ref) <= bound * ref)


# the default sweeps, and the extremes of the mean pair numbers a benchmark
# seed draws (each default times 0.8 to 1.25, fig2's last at most 1)
_DEFAULTS = [
    ("fig1", {}), ("fig2", {}),
    ("fig1", {"mus": [0.008, 0.125]}), ("fig1", {"mus": [0.0125, 0.08]}),
    ("fig2", {"mus": [0.008, 0.125, 1.0]}), ("fig2", {"mus": [0.0125, 0.08, 0.8]}),
]


@pytest.mark.parametrize("name, overrides", _DEFAULTS)
def test_rows_match_the_per_mode_figures(name, overrides):
    """Against the per-mode route: within 1e-13 up to aspect ratio 1000."""
    _, rows, _ = figure_data(name, overrides=overrides)
    points = FIGURES[name][1]
    assert _relative_gap(rows, _per_mode_rows(name, points, overrides)) <= 1e-13


# (figure, point count, overrides, tolerance)
_OVERRIDES = [
    ("fig1", None, {"mus": [0]}, 0.0),
    ("fig1", None, {"aspect_max": 0.01}, 1e-13),
    ("fig2", None, {"aspect_max": 0.01}, 1e-13),
    ("fig1", 5, {"aspect_max": 1e5}, 1e-13),
    ("fig2", 5, {"aspect_max": 1e5}, 1e-13),
    ("fig2", None, {"orders": [0]}, 1e-13),
    ("fig2", None, {"orders": [30]}, 1e-13),
    ("fig1", None, {"order": 0}, 1e-13),
    ("fig1", None, {"eta2s": [0]}, 0.0),
    ("fig1", None, {"mus": [1e300], "eta2s": [0]}, 0.0),
    # sigma_1 near 692: the log tail and log sinh of the bound are each
    # rounded to a few ulp of 692 (1.1e-13), in both routes
    ("fig2", None, {"mus": [1e300]}, 1e-12),
    ("fig2", 21, {"aspect_max": 0.01, "mus": [1e300]}, 1e-12),
]


@pytest.mark.parametrize("name, points, overrides, tolerance", _OVERRIDES,
                         ids=[f"{n}-{json.dumps(o)}" for n, _, o, _ in _OVERRIDES])
def test_override_rows_match_a_per_mode_evaluation(name, points, overrides, tolerance):
    """Against the per-mode route at the overrides: a high series order or
    an expm1 of a large argument amplifies any rounding of the weights."""
    points = points or FIGURES[name][1]
    _, rows, _ = figure_data(name, points=points, overrides=overrides)
    assert _relative_gap(rows, _per_mode_rows(name, points, overrides)) <= tolerance


def test_fig1_at_zero_mean_pairs_writes_zeros():
    _, rows, _ = figure_data("fig1", points=9, overrides={"mus": [0]})
    assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for row in rows for v in row[1:])


def test_sweeps_build_no_spectrum(monkeypatch):
    """fig1 and fig2 never form a per-mode spectrum, invert a gain over one or
    build a squeezing spectrum, so their cost cannot grow with the mode
    count."""

    def refuse(*args, **kwargs):
        raise AssertionError("per-mode path called")

    for module, name in [(spectral, "analytic_gaussian_schmidt"),
                         (scenario, "gain_for_mean_pairs"), (covariance, "gain_for_mean_pairs"),
                         (detection, "SqueezingSpectrum"), (covariance, "SqueezingSpectrum")]:
        monkeypatch.setattr(module, name, refuse)
    for name in ("fig1", "fig2"):
        _, rows, _ = figure_data(name, overrides={"aspect_max": 1e5})
        assert len(rows) == FIGURES[name][1]


def test_fig1_out_of_domain_names_column_and_aspect(tmp_path, capsys):
    argv = ["figure", "fig1", "--out", str(tmp_path), "--overrides", '{"mus": [0.01, 100]}']
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "numeric domain error: bound_eta2_0.1_mu_100: eta^2 |Lambda_1| = 20.049875621120893 "
        ">= 1 at aspect_ratio 1.0\n")
    assert not (tmp_path / "fig1.csv").exists()


def _fig4_reference(points, mu_min, mu_max, aspect_ratio, eta):
    """fig4's rows to 50 digits from the same float gains, sigma_j, Schmidt
    number and eta^2: |p / p_exact - 1| of the Poisson, Hermite and quadratic
    vacuum probabilities."""
    mus = np.geomspace(mu_min, mu_max, points)
    schmidt, gains, sqs = _gaussian_spectra(aspect_ratio, mus)
    rows = []
    with localcontext() as ctx:
        ctx.prec = 50
        k_number = Decimal(spectral.schmidt_number(schmidt))
        eta2 = Decimal(eta * eta)
        kept = 1 - (1 - eta2) ** 2  # a pair is seen unless both photons are lost
        miss = (1 - eta2) ** 2
        for gain, sq in zip(gains, sqs):
            sinh2 = [((s.exp() + (-s).exp() - 2) / 4) for s in map(Decimal, sq.sigmas.tolist())]
            ln_exact = -sum((1 + kept * x).ln() for x in sinh2)
            c2 = Decimal(gain) ** 2
            ln_poisson = -c2 / 4 * (2 * eta2 - eta2 * eta2)
            mu, eps2 = c2 / 4 + c2 * c2 / (48 * k_number), c2 * c2 / (16 * k_number)
            ln_hermite = (eps2 / 2 * (miss * miss - 1) + (mu - eps2) * (miss - 1))
            tanh2 = [x / (1 + x) for x in sinh2]
            one, two = sum(tanh2), (sum(tanh2) ** 2 + sum(t * t for t in tanh2)) / 2
            ln_quadratic = ((1 + miss * one + miss * miss * two) / (1 + one + two)).ln()
            rows.append([abs((v - ln_exact).exp() - 1)
                         for v in (ln_poisson, ln_hermite, ln_quadratic)])
    return rows


@pytest.mark.parametrize("eta", [1.0, 0.5])
def test_fig4_matches_a_50_digit_reference(eta):
    """Every relative error within 1e-9 of its own value: each is formed from
    the log vacua, so no digit is lost to p - p_exact."""
    defaults = {key: default for key, (default, _) in FIGURES["fig4"][2].items()}
    _, rows, _ = figure_data("fig4", overrides={"eta": eta})
    ref = _fig4_reference(FIGURES["fig4"][1], **dict(defaults, eta=eta))
    for row, ref_row in zip(rows, ref, strict=True):
        for got, want in zip(row[1:], ref_row, strict=True):
            assert abs(Decimal(got) - want) <= Decimal("1e-9") * want, (row[0], got, want)
