"""Tests for grids, Gaussian JSA construction and Schmidt analysis."""
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from biphoton_sim import (
    DiscretizedJsa,
    FrequencyGrid,
    GaussianJsaModel,
    GridCoverageError,
    SchmidtSpectrum,
    analytic_gaussian_schmidt,
    build_gaussian_jsa,
    default_grids,
    gaussian_relative_power_sums,
    gaussian_schmidt_number,
    load_jsa_csv,
    marginals,
    save_jsa_csv,
    schmidt_decompose,
    schmidt_number,
)


def make_jsa(aspect, **grid_kwargs):
    model = GaussianJsaModel(1.0, aspect)
    grid_s, grid_i = default_grids(model, **grid_kwargs)
    return build_gaussian_jsa(model, grid_s, grid_i)


class TestFrequencyGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            FrequencyGrid(np.array([0.0, 1.0]), np.array([1.0, -1.0]))

    def test_uniform_trapezoid_weights(self):
        g = FrequencyGrid.uniform(0.0, 1.0, 5)
        assert g.spacing == pytest.approx(0.25)
        assert g.weights[0] == pytest.approx(0.125)
        assert g.weights[2] == pytest.approx(0.25)
        assert np.sum(g.weights) == pytest.approx(1.0)


class TestGaussianJsa:
    def test_normalization(self):
        for aspect in (1.0, 2.5, 7.0):
            jsa = make_jsa(aspect)
            assert abs(jsa.quadrature_norm() - 1.0) < 1e-10

    def test_symmetric_model_separable_density(self):
        # aspect ratio 1 factorizes the joint spectral density
        jsa = make_jsa(1.0)
        dens = np.abs(jsa.values) ** 2
        psi_s, psi_i = marginals(jsa)
        assert np.max(np.abs(dens - np.outer(psi_s, psi_i))) < 1e-10

    def test_coverage_error(self):
        model = GaussianJsaModel(1.0, 1.0)
        tight = FrequencyGrid.uniform(-5.0, 5.0, 81)
        with pytest.raises(GridCoverageError):
            build_gaussian_jsa(model, tight, tight)

    def test_normalization_invariant_enforced(self):
        grid = FrequencyGrid.uniform(-5.0, 5.0, 16)
        bad = np.ones((16, 16), dtype=complex)
        with pytest.raises(ValueError, match="not normalized"):
            DiscretizedJsa(grid, grid, bad)


class TestGaussianJsaModel:
    @pytest.mark.parametrize(
        "args",
        [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.inf),
         (1.0, 1.0, math.nan, 0.0), (1.0, 1.0, 0.0, -math.inf)],
    )
    def test_rejects_non_positive_or_non_finite(self, args):
        with pytest.raises(ValueError):
            GaussianJsaModel(*args)


class TestAnalyticSchmidt:
    def test_no_entanglement(self):
        spec = analytic_gaussian_schmidt(1.0, 5)
        assert spec.lambdas[0] == pytest.approx(1.0)
        assert np.all(spec.lambdas[1:] == 0.0)
        assert schmidt_number(spec) == pytest.approx(1.0)

    def test_aspect_three(self):
        spec = analytic_gaussian_schmidt(3.0, 10)
        assert spec.lambdas[0] == pytest.approx(0.75, abs=1e-15)
        assert spec.lambdas[1] == pytest.approx(0.1875, abs=1e-15)
        assert gaussian_schmidt_number(3.0) == pytest.approx(5.0 / 3.0)

    def test_inverse_aspect_same_spectrum(self):
        a = analytic_gaussian_schmidt(3.0, 20)
        b = analytic_gaussian_schmidt(1.0 / 3.0, 20)
        assert np.allclose(a.coefficients, b.coefficients, atol=1e-15)

    def test_schmidt_number_converges(self):
        spec = analytic_gaussian_schmidt(3.0, 200)
        assert schmidt_number(spec) == pytest.approx(5.0 / 3.0, abs=1e-10)

    def test_k_monotone_in_aspect(self):
        ratios = np.linspace(1.0, 10.0, 40)
        ks = [gaussian_schmidt_number(r) for r in ratios]
        assert np.all(np.diff(ks) >= 0)

    @pytest.mark.parametrize("aspect", [1.0, 1 / 30, 3.0, 1000.0, 1e5])
    def test_weights_tail_and_number_match_50_digits(self, aspect):
        """lambda_j = (1 - z) z^(j - 1), its tail z^j_max and K = (1 + z)/(1 - z)
        at the float ratio's own value, with z exact: within the rounding of
        exp(j ln z), |j ln z| eps, plus a few eps, at any ratio, as neither
        1 - z nor any weight is formed by cancellation."""
        eps = Decimal(np.finfo(float).eps)
        j_max = 200
        spec = analytic_gaussian_schmidt(aspect, j_max)
        with localcontext() as ctx:
            ctx.prec = 50
            r = Decimal(aspect)
            z = ((r - 1) / (r + 1)) ** 2
            log_z = abs(z.ln()) if z else Decimal(0)
            for j in (1, 2, 3, 10, 100, 199, 200):
                ref = (1 - z) * z ** (j - 1) if j > 1 else 1 - z
                got = Decimal(float(spec.coefficients[j - 1])) ** 2
                assert abs(got - ref) <= ((j - 1) * log_z + 6) * eps * ref, (aspect, j)
            tail = z**j_max
            assert abs(Decimal(spec.truncation_tail) - tail) <= (j_max * log_z + 2) * eps * tail
            k_ref = (1 + z) / (1 - z)
            assert abs(Decimal(gaussian_schmidt_number(aspect)) - k_ref) <= 2 * eps * k_ref


class TestGaussianPowerSums:
    """S_k = sum_j lambda_j^k = (1 - z)^k / (1 - z^k) against exact rationals
    at the float aspect ratio's own value, so the only error is the
    function's rounding."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("aspect", [1.0, 1 / 100, 3 / 2, 3.0, 30.0, 1000.0, 1e5])
    def test_matches_exact_fractions(self, aspect):
        r = Fraction(aspect)
        z = ((r - 1) / (r + 1)) ** 2
        lam1 = 4 * r / (r + 1) ** 2  # 1 - z
        orders = [1, 2, 3, 7, 50, 400]
        got = gaussian_relative_power_sums(aspect, orders)
        for k, ratio in zip(orders, got.tolist()):
            exact = 1 / (1 - z**k)
            assert abs(Fraction(ratio) - exact) <= 4 * self.EPS * exact, (aspect, k)
            # S_k itself, as lambda_1^k times the ratio, wherever it is normal
            s_k = lam1**k * exact
            if s_k > 1e-300:
                value = (4 * aspect / (aspect + 1) ** 2) ** k * ratio
                assert abs(Fraction(value) - s_k) <= (k + 6) * self.EPS * s_k, (aspect, k)

    def test_first_sum_is_the_norm(self):
        # S_1 = sum_j lambda_j = 1 at every aspect ratio
        aspects = np.geomspace(1e-5, 1e5, 41)
        ratio = gaussian_relative_power_sums(aspects, 1)
        lam1 = 4 * aspects / (aspects + 1) ** 2
        assert np.allclose(ratio * lam1, 1.0, rtol=4 * self.EPS, atol=0)

    def test_broadcasts_and_checks_its_arguments(self):
        got = gaussian_relative_power_sums(np.array([[3.0], [1 / 3]]), np.arange(1, 5))
        assert got.shape == (2, 4) and np.allclose(got[0], got[1], rtol=1e-15)
        with pytest.raises(ValueError, match="aspect_ratio"):
            gaussian_relative_power_sums(0.0, 1)
        with pytest.raises(ValueError, match="at least 1"):
            gaussian_relative_power_sums(3.0, [0, 1])


class TestSchmidtDecompose:
    def test_separable_kernel_single_coefficient(self):
        grid = FrequencyGrid.uniform(-6.0, 6.0, 61)
        f = np.exp(-grid.points**2 / 2.0)
        g = np.exp(-((grid.points - 0.3) ** 2) / 1.5)
        vals = np.outer(f, g).astype(complex)
        norm = np.einsum("m,n,mn->", grid.weights, grid.weights, np.abs(vals) ** 2)
        jsa = DiscretizedJsa(grid, grid, vals / np.sqrt(norm))
        spec = schmidt_decompose(jsa)
        assert spec.coefficients[0] == pytest.approx(1.0, abs=1e-8)
        assert spec.lambdas[1:].sum() < 1e-12

    @pytest.mark.parametrize("aspect", [1.5, 7.0])
    def test_matches_analytic(self, aspect):
        jsa = make_jsa(aspect)
        spec = schmidt_decompose(jsa)
        ana = analytic_gaussian_schmidt(aspect, spec.coefficients.size)
        keep = ana.lambdas > 1e-8
        assert np.max(np.abs(spec.lambdas[: keep.sum()] - ana.lambdas[keep])) < 1e-6

    def test_matches_analytic_high_entanglement(self):
        # wide-aspect regime with an economical grid, coefficients only
        jsa = make_jsa(50.0, extent_sigmas=5.9, points_per_width=5.0)
        spec = schmidt_decompose(jsa, want_modes=False)
        ana = analytic_gaussian_schmidt(50.0, spec.coefficients.size)
        keep = ana.lambdas > 1e-8
        assert np.max(np.abs(spec.lambdas[: keep.sum()] - ana.lambdas[keep])) < 1e-6

    def test_rank_truncation_tail(self):
        jsa = make_jsa(3.0)
        spec = schmidt_decompose(jsa, rank=1)
        assert spec.coefficients.size == 1
        assert spec.truncation_tail == pytest.approx(0.25, abs=1e-6)

    def test_modes_orthonormal_under_quadrature(self):
        jsa = make_jsa(3.0)
        spec = schmidt_decompose(jsa, rank=8)
        for modes, grid in (
            (spec.modes_signal, spec.grid_signal),
            (spec.modes_idler, spec.grid_idler),
        ):
            gram = modes.conj().T @ (grid.weights[:, None] * modes)
            assert np.max(np.abs(gram - np.eye(8))) < 1e-8

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            SchmidtSpectrum(np.array([0.5, 0.9]))  # not descending
        with pytest.raises(ValueError):
            SchmidtSpectrum(np.array([0.5]))  # not normalized


class TestMarginals:
    def test_symmetric_marginals_equal(self):
        jsa = make_jsa(1.0)
        psi_s, psi_i = marginals(jsa)
        assert np.max(np.abs(psi_s - psi_i)) < 1e-12

    def test_normalized(self):
        jsa = make_jsa(3.0)
        psi_s, psi_i = marginals(jsa)
        assert jsa.grid_signal.weights @ psi_s == pytest.approx(1.0, abs=1e-10)
        assert jsa.grid_idler.weights @ psi_i == pytest.approx(1.0, abs=1e-10)

    def test_marginal_variance(self):
        model = GaussianJsaModel(1.0, 3.0)
        jsa = build_gaussian_jsa(model, *default_grids(model))
        psi_s, _ = marginals(jsa)
        var = jsa.grid_signal.weights @ (jsa.grid_signal.points**2 * psi_s)
        assert var == pytest.approx((1.0 + 9.0) / 2.0, rel=1e-6)

    def test_separable_marginals_factor(self):
        grid = FrequencyGrid.uniform(-6.0, 6.0, 61)
        f = np.exp(-grid.points**2 / 2.0)
        g = np.exp(-((grid.points - 0.4) ** 2) / 1.7)
        vals = np.outer(f, g).astype(complex)
        norm = np.einsum("m,n,mn->", grid.weights, grid.weights, np.abs(vals) ** 2)
        jsa = DiscretizedJsa(grid, grid, vals / np.sqrt(norm))
        psi_s, psi_i = marginals(jsa)
        f2 = f**2 / (grid.weights @ f**2)
        g2 = g**2 / (grid.weights @ g**2)
        assert np.max(np.abs(psi_s - f2)) < 1e-12
        assert np.max(np.abs(psi_i - g2)) < 1e-12


class TestSchmidtNumber:
    def test_examples(self):
        assert schmidt_number(SchmidtSpectrum(np.array([1.0]))) == pytest.approx(1.0)
        quad = SchmidtSpectrum(np.full(4, 0.5))  # lambda = 1/4 each
        assert schmidt_number(quad) == pytest.approx(4.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            schmidt_number(SchmidtSpectrum(np.array([0.0]), truncation_tail=1.0))


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        jsa = make_jsa(2.0, points_per_width=4.0)
        path = tmp_path / "jsa.csv"
        save_jsa_csv(jsa, path)
        back = load_jsa_csv(path)
        assert back.grid_signal.same_points(jsa.grid_signal)
        assert np.max(np.abs(back.values - jsa.values)) < 1e-12

    def test_save_matches_csv_writer_bytes(self, tmp_path):
        import csv

        values = np.array([[0.5 - 0.25j, 0.0, -1.0 / 3.0 + 2.0j],
                           [0.0, -7.5e-300 + 3.0e5j, 0.1 - 0.7j]])
        grid_s = FrequencyGrid.uniform(-1.0, 1.0, 2)
        grid_i = FrequencyGrid.uniform(-0.3, 0.4, 3)
        values = values / np.sqrt(
            np.einsum("m,n,mn->", grid_s.weights, grid_i.weights, np.abs(values) ** 2)
        )
        values[0, 1], values[1, 0] = complex(-0.0, 0.0), complex(0.0, -0.0)
        jsa = DiscretizedJsa(grid_s, grid_i, values)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["omega_s", "omega_i", "re_psi", "im_psi"])
            for m, ws in enumerate(grid_s.points):
                for n, wi in enumerate(grid_i.points):
                    v = jsa.values[m, n]
                    writer.writerow(
                        [f"{ws:.17g}", f"{wi:.17g}", f"{v.real:.17g}", f"{v.imag:.17g}"]
                    )
        path = tmp_path / "jsa.csv"
        save_jsa_csv(jsa, path)
        assert path.read_bytes() == ref.read_bytes()
        text = path.read_bytes()
        assert b",-0,0\r\n" in text and b",0,-0\r\n" in text

    @pytest.mark.parametrize("block_rows", [None, 97])
    def test_axes_of_shuffled_csv_match_full_column_unique(self, tmp_path, monkeypatch,
                                                           block_rows):
        from biphoton_sim import spectral

        if block_rows is not None:  # many blocks, the last one short
            monkeypatch.setattr(spectral, "_SCATTER_ROWS", block_rows)
        path = tmp_path / "jsa.csv"
        save_jsa_csv(make_jsa(2.0, points_per_width=4.0), path)
        header, *rows = path.read_text().splitlines(keepends=True)
        np.random.default_rng(7).shuffle(rows)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(header + "".join(rows))
        data = np.loadtxt(shuffled, delimiter=",", skiprows=1)
        back, ordered = load_jsa_csv(shuffled), load_jsa_csv(path)
        assert np.array_equal(back.grid_signal.points, np.unique(data[:, 0]))
        assert np.array_equal(back.grid_idler.points, np.unique(data[:, 1]))
        assert np.array_equal(back.values, ordered.values)

    def test_incomplete_rectangle_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "omega_s,omega_i,re_psi,im_psi\n0,0,1,0\n0,1,1,0\n1,0,1,0\n"
        )
        with pytest.raises(ValueError, match="rectangular"):
            load_jsa_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty.csv"):
            load_jsa_csv(path)

    def test_header_only_rejected(self, tmp_path, recwarn):
        path = tmp_path / "header.csv"
        path.write_text("omega_s,omega_i,re_psi,im_psi\n")
        with pytest.raises(ValueError, match="header.csv.*no samples"):
            load_jsa_csv(path)
        assert not recwarn.list

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,1,1", "line 3 has 3 fields, expected 4"),
            ("0,1,1,0,0", "line 3 has 5 fields, expected 4"),
            ("0,x,1,0", "line 3 is not four numbers"),
            ("0,1,nan,0", "line 3: non-finite value"),
            ("0,1,1,inf", "line 3: non-finite value"),
            ("0,-inf,1,0", "line 3: non-finite value"),
            ("0,1_0,1,0", "line 3 is not four numbers"),
            ("0,\u0661,1,0", "line 3 is not four numbers"),
            ("   ", "line 3 has 1 fields, expected 4"),
            ("  # c", "line 3 has 1 fields, expected 4"),
            ("\t", "line 3 has 1 fields, expected 4"),
        ],
    )
    def test_bad_row_rejected_with_its_line(self, tmp_path, recwarn, row, message):
        path = tmp_path / "bad_row.csv"
        path.write_text(
            f"omega_s,omega_i,re_psi,im_psi\n0,0,1,0\n{row}\n1,0,1,0\n1,1,1,0\n"
        )
        with pytest.raises(ValueError, match=f"bad_row.csv: {message}") as err:
            load_jsa_csv(path)
        assert "unpack" not in str(err.value)
        assert not recwarn.list

    @pytest.mark.parametrize("row", ["   ", "  # c"])
    def test_whitespace_line_before_first_row_named_by_its_line(self, tmp_path, recwarn, row):
        path = tmp_path / "blank.csv"
        path.write_text(f"omega_s,omega_i,re_psi,im_psi\n# ok\n\n{row}\n0,0,1,0\n0,1,1,0\n"
                        "1,0,1,0\n1,1,1,0\n")
        with pytest.raises(ValueError, match="blank.csv: line 4 has 1 fields, expected 4"):
            load_jsa_csv(path)
        assert not recwarn.list

    @pytest.mark.parametrize("rows, sizes", [("0,0,1,0\n0,1,1,0\n", (1, 2)),
                                             ("0,0,1,0\n1,0,1,0\n", (2, 1)),
                                             ("0,0,1,0\n", (1, 1))])
    def test_one_point_axis_rejected(self, tmp_path, rows, sizes):
        path = tmp_path / "line.csv"
        path.write_text("omega_s,omega_i,re_psi,im_psi\n" + rows)
        with pytest.raises(ValueError, match=r"line.csv: a JSA CSV grid needs at least two "
                           rf"points on each axis \(omega_s has {sizes[0]}, omega_i {sizes[1]}\)"):
            load_jsa_csv(path)

    def test_spelling_memo_is_bounded(self, tmp_path, monkeypatch):
        """Grid spellings past the memo's bound are converted, not kept."""
        from biphoton_sim import spectral

        path = tmp_path / "jsa.csv"
        save_jsa_csv(make_jsa(2.0, points_per_width=2.0), path)
        full = load_jsa_csv(path)
        monkeypatch.setattr(spectral, "_SPELLINGS", 4)
        memo = spectral._Spellings()
        assert [memo[f" {k}.5"] for k in range(10)] == [k + 0.5 for k in range(10)]
        assert len(memo) == 4
        bounded = load_jsa_csv(path)
        assert bounded.values.tobytes() == full.values.tobytes()
        assert bounded.grid_signal.points.tobytes() == full.grid_signal.points.tobytes()

    def test_bad_row_after_comment_named_by_its_line(self, tmp_path):
        path = tmp_path / "commented.csv"
        path.write_text(
            "omega_s,omega_i,re_psi,im_psi\n# by hand\n0,0,1,0 # first\n0,1,nan,0\n1,0,1,0\n"
            "1,1,1,0\n"
        )
        with pytest.raises(ValueError, match="commented.csv: line 4: non-finite value"):
            load_jsa_csv(path)


def _complex_route_spectrum(path):
    """Schmidt spectrum of a JSA CSV through the always-complex route: the
    values as re + 1j * im, the kernel as sqrt(w_s) * psi * sqrt(w_i)."""
    with open(path) as fh:
        fh.readline()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    pts_s, pts_i = np.unique(data[:, 0]), np.unique(data[:, 1])
    vals = np.full((pts_s.size, pts_i.size), np.nan + 0j)
    vals[np.searchsorted(pts_s, data[:, 0]), np.searchsorted(pts_i, data[:, 1])] = (
        data[:, 2] + 1j * data[:, 3]
    )
    back = load_jsa_csv(path)
    kernel = (
        np.sqrt(back.grid_signal.weights)[:, None]
        * vals
        * np.sqrt(back.grid_idler.weights)[None, :]
    )
    return np.linalg.svd(kernel, full_matrices=False)


class TestDtypeRule:
    """A JSA is real unless it has an imaginary part."""

    def test_gaussian_and_zero_imaginary_csv_are_real(self, tmp_path):
        jsa = make_jsa(2.0, points_per_width=4.0)
        assert jsa.values.dtype == np.float64
        path = tmp_path / "real.csv"
        save_jsa_csv(jsa, path)
        assert load_jsa_csv(path).values.dtype == np.float64

    def test_real_round_trip_is_byte_identical(self, tmp_path):
        jsa = make_jsa(2.0, points_per_width=4.0)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        save_jsa_csv(jsa, first)
        save_jsa_csv(load_jsa_csv(first), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("block_rows", [None, 97])
    def test_complex_csv_stays_complex_bit_for_bit(self, tmp_path, monkeypatch, block_rows):
        from biphoton_sim import spectral

        if block_rows is not None:  # many scatter blocks, one ending mid-row
            monkeypatch.setattr(spectral, "_SCATTER_ROWS", block_rows)
        jsa = make_jsa(2.0, points_per_width=4.0)
        grid = jsa.grid_signal
        chirp = np.exp(0.3j * np.add.outer(grid.points**2, -(jsa.grid_idler.points**3) / 7.0))
        path = tmp_path / "complex.csv"
        save_jsa_csv(DiscretizedJsa(grid, jsa.grid_idler, jsa.values * chirp), path)
        back = load_jsa_csv(path)
        assert back.values.dtype == np.complex128
        spec = schmidt_decompose(back, lambda_floor=0.0)
        u, s, vh = _complex_route_spectrum(path)
        assert np.array_equal(spec.coefficients, s)
        assert np.array_equal(spec.modes_signal, u / np.sqrt(grid.weights)[:, None])

    def test_real_matches_complex_twin(self, tmp_path):
        from biphoton_sim import FrequencyGrid

        model = GaussianJsaModel(1.0, 4.0)  # the README source
        path = tmp_path / "rect.csv"
        save_jsa_csv(
            build_gaussian_jsa(
                GaussianJsaModel(0.5, 1.5),
                FrequencyGrid.uniform(-8.0, 8.0, 41),
                FrequencyGrid.uniform(-7.5, 7.5, 31),
            ),
            path,
        )
        for jsa in (build_gaussian_jsa(model, *default_grids(model)), load_jsa_csv(path)):
            twin = DiscretizedJsa(jsa.grid_signal, jsa.grid_idler, jsa.values.astype(complex))
            real, cplx = schmidt_decompose(jsa), schmidt_decompose(twin)
            assert real.coefficients.size == cplx.coefficients.size
            assert np.max(np.abs(real.lambdas - cplx.lambdas)) <= 1e-15
            assert abs(real.truncation_tail - cplx.truncation_tail) <= 1e-15


def _same_jsa(a, b):
    """Same dtype, grids and values, bit for bit."""
    return a.values.dtype == b.values.dtype and all(
        x.tobytes() == y.tobytes()
        for x, y in [(a.values, b.values),
                     (a.grid_signal.points, b.grid_signal.points),
                     (a.grid_idler.points, b.grid_idler.points)]
    )


class TestStreamedParse:
    """A CSV parsed a block at a time from its handle reads as the one-call
    parse of its path does, bit for bit, errors included."""

    @pytest.fixture
    def stream(self, monkeypatch):
        """Stream every file, `rows` rows per block."""
        from biphoton_sim import spectral

        def at(rows):
            monkeypatch.setattr(spectral, "_STREAM_BYTES", 0)
            monkeypatch.setattr(spectral, "_SCATTER_ROWS", rows)

        return at

    @pytest.mark.parametrize("newline", ["\r\n", "\n"])
    def test_comments_and_blank_lines_at_block_edges(self, tmp_path, stream, newline):
        path = tmp_path / "jsa.csv"
        save_jsa_csv(make_jsa(2.0, points_per_width=2.0), path)
        header, *rows = path.read_bytes().decode().split("\r\n")[:-1]
        lines = [header]
        for k, row in enumerate(rows):
            if k % 7 in (6, 0):  # on both sides of each edge of 7-row blocks
                lines += ["# edge", "", "#"]
            lines.append(f"{row} # sample {k}" if k % 5 == 0 else row)
        lines += ["# trailing comment", ""]
        path.write_bytes(newline.join(lines).encode())
        one_call = load_jsa_csv(path)
        stream(7)
        streamed = load_jsa_csv(path)
        assert _same_jsa(streamed, one_call)
        assert streamed.values.size == len(rows)

    def test_complex_signed_zeros_match_re_plus_1j_im(self, tmp_path, stream):
        jsa = make_jsa(2.0, points_per_width=2.0)
        grid_s, grid_i = jsa.grid_signal, jsa.grid_idler
        values = jsa.values * np.exp(0.4j * np.add.outer(grid_s.points, grid_i.points**2))
        values /= np.sqrt(np.einsum("m,n,mn->", grid_s.weights, grid_i.weights,
                                    np.abs(values) ** 2))
        # edge samples (|psi| < 1e-30) made signed zeros, and a whole block of
        # rows with every im_psi +0.0
        values[0] = values[0].real
        values[0, :4] = [complex(-0.0, 0.0), complex(-0.0, -0.0), complex(0.0, -0.0),
                         complex(1e-40, -0.0)]
        values[1, :2] = [complex(-0.0, 0.0), complex(-0.0, -0.0)]
        path = tmp_path / "complex.csv"
        save_jsa_csv(DiscretizedJsa(grid_s, grid_i, values), path)
        text = path.read_bytes()
        assert b",-0,0\r\n" in text and b",-0,-0\r\n" in text and b",0,-0\r\n" in text
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        expected = (data[:, 2] + 1j * data[:, 3]).tobytes()  # rows in grid order
        assert grid_i.n > 7
        for rows in (None, 7, 1):
            if rows is not None:
                stream(rows)
            back = load_jsa_csv(path)
            assert back.values.dtype == np.complex128
            assert back.values.tobytes() == expected

    def test_negative_zero_imaginary_parts_stay_real(self, tmp_path, stream):
        path = tmp_path / "real.csv"
        path.write_text(
            "omega_s,omega_i,re_psi,im_psi\n0,0,2,-0\n0,1,0,0\n1,0,-0,-0\n1,1,0,-0\n"
        )
        one_call = load_jsa_csv(path)
        stream(1)
        streamed = load_jsa_csv(path)
        assert streamed.values.dtype == np.float64
        assert _same_jsa(streamed, one_call)

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,2,1", "line 11 has 3 fields, expected 4"),
            ("  # c", "line 11 has 1 fields, expected 4"),
            ("0,2,x,0", "line 11 is not four numbers"),
            ("0,2,1,nan", "line 11: non-finite value"),
        ],
    )
    def test_bad_row_in_a_later_block_named_by_its_line(self, tmp_path, recwarn, stream, rows,
                                                         row, message):
        good = [f"{s},{i},1,0" for s in range(3) for i in range(3)]
        path = tmp_path / "late.csv"
        path.write_text("\n".join(["omega_s,omega_i,re_psi,im_psi", *good[:8], "# note",
                                   row, good[8]]) + "\n")
        stream(rows)
        with pytest.raises(ValueError, match=f"late.csv: {message}"):
            load_jsa_csv(path)
        assert not recwarn.list

    def test_header_only_rejected(self, tmp_path, recwarn, stream):
        path = tmp_path / "header.csv"
        path.write_text("omega_s,omega_i,re_psi,im_psi\n# no rows\n\n")
        stream(4)
        with pytest.raises(ValueError, match="header.csv.*no samples"):
            load_jsa_csv(path)
        assert not recwarn.list

    def test_spelling_memo_is_bounded_across_blocks(self, tmp_path, monkeypatch, stream):
        from biphoton_sim import spectral

        path = tmp_path / "jsa.csv"
        save_jsa_csv(make_jsa(2.0, points_per_width=2.0), path)
        full = load_jsa_csv(path)
        stream(5)
        monkeypatch.setattr(spectral, "_SPELLINGS", 4)
        assert _same_jsa(load_jsa_csv(path), full)


class TestValuePaths:
    """Real rows in grid order keep their re_psi as the values; shuffled or
    complex rows are scattered.  Both read as `np.loadtxt` parses the rows,
    bit for bit, signed zeros included, whatever the line ends, comments
    and block edges."""

    @staticmethod
    def _jsa(kind):
        jsa = make_jsa(2.0, points_per_width=2.0)
        values = jsa.values
        if kind == "complex":
            values = values * np.exp(0.4j * np.add.outer(jsa.grid_signal.points,
                                                         jsa.grid_idler.points**2))
        values = values.astype(complex)
        # edge samples (|psi| < 1e-30) made signed zeros
        values[0, :3] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        if kind == "real":
            values = values.real.copy()
        return jsa.grid_signal, jsa.grid_idler, values

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("newline", ["\r\n", "\r", "\n"])
    def test_ordered_and_shuffled_rows_read_alike(self, tmp_path, monkeypatch, kind, newline):
        from biphoton_sim import spectral

        path = tmp_path / "jsa.csv"
        save_jsa_csv(DiscretizedJsa(*self._jsa(kind)), path)
        header, *rows = path.read_bytes().decode().split("\r\n")[:-1]
        data = np.loadtxt(rows, delimiter=",")
        expected = data[:, 2] + 1j * data[:, 3] if kind == "complex" else data[:, 2]
        axes = [np.unique(data[:, 0]).tobytes(), np.unique(data[:, 1]).tobytes()]
        shuffled = list(rows)
        np.random.default_rng(11).shuffle(shuffled)
        full, scattered = np.full, []

        def spy(shape, *args, **kwargs):
            scattered.append(shape)
            return full(shape, *args, **kwargs)

        monkeypatch.setattr(np, "full", spy)
        one_call = spectral._STREAM_BYTES, spectral._SCATTER_ROWS
        for order, lines in (("ordered", rows), ("shuffled", shuffled)):
            text = [header]
            for k, row in enumerate(lines):  # comments: more line ends than rows
                text += ["# note"] * (k % 5 == 0) + [f"{row} # {k}" if k % 3 == 0 else row]
            path.write_bytes(newline.join(text + ["# end", ""]).encode())
            for stream_bytes, block_rows in (one_call, (0, 7), (0, 64)):
                monkeypatch.setattr(spectral, "_STREAM_BYTES", stream_bytes)
                monkeypatch.setattr(spectral, "_SCATTER_ROWS", block_rows)
                scattered.clear()
                back = load_jsa_csv(path)
                assert back.values.dtype == expected.dtype
                assert back.values.tobytes() == expected.tobytes()
                assert [back.grid_signal.points.tobytes(),
                        back.grid_idler.points.tobytes()] == axes
                assert bool(scattered) == (kind == "complex" or order == "shuffled")


class TestLoadMemory:
    """A real JSA is parsed and decomposed without full-size complex copies."""

    N = 301

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        from biphoton_sim import FrequencyGrid

        grid = FrequencyGrid.uniform(-12.0, 12.0, self.N)
        path = tmp_path_factory.mktemp("memory") / "jsa.csv"
        save_jsa_csv(build_gaussian_jsa(GaussianJsaModel(1.0, 1.5), grid, grid), path)
        return path

    @staticmethod
    def _traced_peak(call):
        import tracemalloc

        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_load_peak_within_two_and_a_half_tables(self, path):
        jsa, peak = self._traced_peak(lambda: load_jsa_csv(path))
        assert jsa.values.dtype == np.float64
        assert peak <= 2.5 * self.N**2 * 32  # the parsed table is N^2 rows of 4 floats

    def test_streamed_load_peak_within_one_table(self, path, monkeypatch):
        from biphoton_sim import spectral

        monkeypatch.setattr(spectral, "_STREAM_BYTES", 0)
        monkeypatch.setattr(spectral, "_SCATTER_ROWS", 4096)  # 23 blocks
        jsa, peak = self._traced_peak(lambda: load_jsa_csv(path))
        assert jsa.values.dtype == np.float64
        assert peak <= self.N**2 * 32

    def test_streamed_ordered_load_peak_within_20_bytes_per_sample(self, tmp_path, monkeypatch):
        """Rows in grid order are read into the values array itself: the
        reader holds re_psi (8 B per sample) and uint16 grid indices (4 B),
        then the JSA copies the values (8 B)."""
        from biphoton_sim import FrequencyGrid, spectral

        n = 601
        grid = FrequencyGrid.uniform(-12.0, 12.0, n)
        path, warm = tmp_path / "jsa.csv", tmp_path / "warm.csv"
        save_jsa_csv(build_gaussian_jsa(GaussianJsaModel(1.0, 1.5), grid, grid), path)
        save_jsa_csv(make_jsa(2.0, points_per_width=1.0), warm)
        monkeypatch.setattr(spectral, "_STREAM_BYTES", 0)
        monkeypatch.setattr(spectral, "_SCATTER_ROWS", 4096)  # 89 blocks
        load_jsa_csv(warm)  # lazy imports are not the reader's memory
        jsa, peak = self._traced_peak(lambda: load_jsa_csv(path))
        assert jsa.values.dtype == np.float64
        assert peak <= 20 * n**2

    def test_decomposition_peak_within_two_real_kernels(self, path):
        jsa = load_jsa_csv(path)
        _, peak = self._traced_peak(lambda: schmidt_decompose(jsa, want_modes=False))
        assert peak <= 2.0 * self.N**2 * 8
