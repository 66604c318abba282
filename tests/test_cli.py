"""Tests for the scenario runner, figure emitter and command-line interface."""
import csv
import json
import math

import numpy as np
import pytest

from biphoton_sim.cli import ConfigError, figure_data, main, run_scenario


def base_config(**overrides):
    cfg = {
        "source": {
            "process": "type2",
            "gain": 0.4,
            "jsa": {"gaussian": {"delta_plus_rad_s": 1.0, "delta_minus_rad_s": 3.0}},
        },
        "grid": {"extent_sigmas": 5.2, "points_per_width": 3.0},
        "detection": {"method": "exact"},
    }
    cfg.update(overrides)
    return cfg


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestConfigValidation:
    def test_missing_source(self):
        with pytest.raises(ConfigError, match="source"):
            run_scenario({"detection": {}})

    def test_bad_process(self):
        cfg = base_config()
        cfg["source"]["process"] = "typeX"
        with pytest.raises(ConfigError, match="source.process"):
            run_scenario(cfg)

    def test_gain_and_mu_conflict(self):
        cfg = base_config()
        cfg["source"]["mu"] = 0.1
        with pytest.raises(ConfigError, match="either 'gain' or 'mu'"):
            run_scenario(cfg)

    def test_unknown_method(self):
        cfg = base_config(detection={"method": "magic"})
        with pytest.raises(ConfigError, match="detection.method"):
            run_scenario(cfg)

    def test_unknown_transform(self):
        cfg = base_config(detection={"method": "log_series"})
        cfg["pipeline"] = [{"type": "teleport"}]
        with pytest.raises(ConfigError, match="pipeline\\[0\\]"):
            run_scenario(cfg)


class TestRunScenario:
    def test_zero_gain_gives_unit_vacuum(self):
        cfg = base_config()
        cfg["source"]["gain"] = 0.0
        result = run_scenario(cfg)
        row = dict(zip(result["columns"], result["rows"][0]))
        assert float(row["p_vac"]) == pytest.approx(1.0)

    def test_exact_against_closed_form(self):
        cfg = base_config()
        cfg["source"].pop("gain")
        cfg["source"]["mu"] = 1.0
        result = run_scenario(cfg)
        row = dict(zip(result["columns"], result["rows"][0]))
        p = float(row["p_vac"])
        # exact vacuum of the Gaussian source sits inside the universal range
        assert math.exp(-1.0) - 1e-10 <= p <= 0.5 + 1e-10
        assert float(row["vacuum_range_upper"]) == pytest.approx(0.5)

    def test_log_series_pipeline_matches_dense_oracle(self):
        # 50:50 splitter to a vacuum ancilla, then windowed detection
        cfg = base_config(
            detection={
                "method": "log_series",
                "series_order": 30,
                "windows": [[-2.0, 2.0], None, "empty"],
            }
        )
        cfg["modes"] = ["signal", "idler", "anc"]
        cfg["pipeline"] = [
            {"type": "beam_splitter", "dofs": [0, 2], "transmittance": 0.7071067811865476},
            {"type": "loss", "eta": {"1": 0.9}},
        ]
        result = run_scenario(cfg)
        row = dict(zip(result["columns"], result["rows"][0]))
        p_vac = float(row["p_vac"])

        # dense reference, built independently of the block pipeline
        from biphoton_sim import (
            GaussianJsaModel,
            ProcessType,
            beam_splitter,
            build_covariance_exact,
            build_gaussian_jsa,
            default_grids,
            schmidt_decompose,
        )
        from biphoton_sim.oracle import dense_log_det
        from biphoton_sim.transforms import (
            DetectionProjection,
            DetectionWindow,
            _window_mask,
        )

        model = GaussianJsaModel(1.0, 3.0)
        grids = default_grids(model, extent_sigmas=5.2, points_per_width=3.0)
        jsa = build_gaussian_jsa(model, *grids)
        schmidt = schmidt_decompose(jsa)
        gamma = build_covariance_exact(schmidt, 0.4, ProcessType.TYPE_II)
        n = grids[0].n
        s = beam_splitter(0.7071067811865476, 0.7071067811865476, (0, 2), 3, n=n)
        sd = s.mat.to_dense()
        eta = np.ones(3 * n)
        eta[n : 2 * n] = 0.9
        eta = np.concatenate([eta, eta])
        big = np.zeros((6 * n, 6 * n), dtype=complex)
        sel = np.concatenate([np.arange(2 * n), 3 * n + np.arange(2 * n)])
        big[np.ix_(sel, sel)] = gamma.mat.to_dense()
        after = np.diag(eta) @ sd @ big @ sd.conj().T @ np.diag(eta)
        mask_sig = _window_mask(DetectionWindow(-2.0, 2.0), grids[0])
        mask = np.concatenate([mask_sig, np.ones(n), np.zeros(n)] * 2)
        proj = np.diag(mask)
        p_ref = math.exp(-0.5 * dense_log_det(proj @ after @ proj))
        assert p_vac == pytest.approx(p_ref, rel=1e-9)

    def test_time_domain_detection_matches_dense_oracle(self):
        # Fourier the single mode into the time domain, then window there
        cfg = {
            "source": {
                "process": "type0i",
                "gain": 0.2,
                "jsa": {"gaussian": {"delta_plus_rad_s": 1.0, "delta_minus_rad_s": 1.0}},
            },
            "grid": {"extent_sigmas": 5.2, "points_per_width": 3.0},
            "pipeline": [{"type": "fourier", "dof": 0}],
            "detection": {
                "method": "log_series",
                "series_order": 30,
                "domain": "time",
                "windows": [[-1.5, 1.5]],
            },
        }
        result = run_scenario(cfg)
        p_vac = float(dict(zip(result["columns"], result["rows"][0]))["p_vac"])

        from biphoton_sim import (
            GaussianJsaModel,
            ProcessType,
            build_covariance_exact,
            build_gaussian_jsa,
            default_grids,
            fourier,
            schmidt_decompose,
        )
        from biphoton_sim.oracle import dense_log_det
        from biphoton_sim.transforms import DetectionWindow, _window_mask

        model = GaussianJsaModel(1.0, 1.0)
        grids = default_grids(model, extent_sigmas=5.2, points_per_width=3.0)
        jsa = build_gaussian_jsa(model, *grids)
        gamma = build_covariance_exact(
            schmidt_decompose(jsa), 0.2, ProcessType.TYPE_0I
        )
        s, time_grid = fourier(grids[0], 0, 1)
        sd = s.mat.to_dense()
        mask1 = _window_mask(DetectionWindow(-1.5, 1.5, "time"), time_grid)
        mask = np.concatenate([mask1, mask1])
        after = mask[:, None] * (sd @ gamma.mat.to_dense() @ sd.conj().T) * mask[None, :]
        p_ref = np.exp(-0.5 * dense_log_det(after))
        assert p_vac == pytest.approx(p_ref, rel=1e-9)

    def test_mixed_domain_windows(self):
        # bounded time window on the transformed arm, unbounded on the other
        cfg = base_config(
            detection={
                "method": "log_series",
                "series_order": 20,
                "domain": "time",
                "windows": [[-2.0, 2.0], None],
            }
        )
        cfg["pipeline"] = [{"type": "fourier", "dof": 0}]
        result = run_scenario(cfg)
        p_vac = float(dict(zip(result["columns"], result["rows"][0]))["p_vac"])
        assert 0.0 < p_vac <= 1.0

    def test_poisson_method_with_loss(self):
        cfg = base_config(
            detection={"method": "poisson", "pnd_cutoffs": [3, 3]},
        )
        cfg["pipeline"] = [{"type": "loss", "eta": {"0": 0.8, "1": 0.9}}]
        result = run_scenario(cfg)
        row = dict(zip(result["columns"], result["rows"][0]))
        mu = 0.4**2 / 4.0
        p_union = 0.64 + 0.81 - 0.64 * 0.81
        assert float(row["p_vac"]) == pytest.approx(math.exp(-mu * p_union), rel=1e-9)
        assert float(row["poisson_vs_n2"]) > 0
        assert result["pnd"] is not None

    def test_sweep_ordering(self):
        cfg = base_config()
        cfg["source"].pop("gain")
        cfg["source"]["mu"] = 0.1
        cfg["sweep"] = {"parameter": "source.mu", "values": [0.3, 0.1, 0.2]}
        result = run_scenario(cfg)
        mus = [float(r[0]) for r in result["rows"]]
        assert mus == [0.3, 0.1, 0.2]
        p = [float(r[3]) for r in result["rows"]]
        assert p[0] < p[2] < p[1]

    def test_emitted_bound_dominates_actual_error(self):
        # pipeline-free log-series run: its bound column must cover the
        # distance to the exact vacuum probability
        for order in (2, 4, 6):
            cfg = base_config(
                detection={"method": "log_series", "series_order": order}
            )
            row_series = dict(
                zip(run_scenario(cfg)["columns"], run_scenario(cfg)["rows"][0])
            )
            cfg_exact = base_config(detection={"method": "exact"})
            row_exact = dict(
                zip(run_scenario(cfg_exact)["columns"], run_scenario(cfg_exact)["rows"][0])
            )
            p_series = float(row_series["p_vac"])
            p_exact = float(row_exact["p_vac"])
            bound = float(row_series["det_trunc_eigen"])
            assert abs(p_series - p_exact) / p_exact <= bound + 1e-12

    def test_sweep_deterministic(self):
        cfg = base_config()
        cfg["source"].pop("gain")
        cfg["source"]["mu"] = 0.1
        cfg["sweep"] = {"parameter": "source.mu", "values": [0.05, 0.2, 0.4, 0.8]}
        assert run_scenario(cfg)["rows"] == run_scenario(cfg)["rows"]

    def test_pnd_evaluated_once_at_first_sweep_point(self, monkeypatch):
        from biphoton_sim import detection

        cfg = base_config(
            detection={"method": "log_series", "series_order": 10, "pnd_cutoffs": [2, 2]}
        )
        cfg["pipeline"] = [{"type": "loss", "eta": {"0": 0.8, "1": 0.9}}]
        cfg["source"].pop("gain")
        cfg["source"]["mu"] = 0.05
        single = run_scenario(cfg)["pnd"]

        calls = []
        original = detection.log_series_gf

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(detection, "log_series_gf", counting)
        cfg["sweep"] = {"parameter": "source.mu", "values": [0.05, 0.1, 0.2]}
        swept = run_scenario(cfg)["pnd"]
        assert len(calls) == 1
        assert np.array_equal(swept.probabilities, single.probabilities)
        assert swept.normalization_deficit == single.normalization_deficit

    def test_pipeline_pnd_matches_exact_gf(self):
        # loss-only pipeline: the log-series joint statistics must agree with
        # the closed-form generating function of the lossy source
        from biphoton_sim import (
            ExactProductGf,
            GaussianJsaModel,
            ProcessType,
            SqueezingSpectrum,
            build_gaussian_jsa,
            default_grids,
            pnd,
            schmidt_decompose,
        )

        cfg = base_config(
            detection={
                "method": "log_series",
                "series_order": 25,
                "pnd_cutoffs": [4, 4],
                "detectors": [0, 1],
            }
        )
        cfg["pipeline"] = [{"type": "loss", "eta": {"0": 0.8, "1": 0.9}}]
        result = run_scenario(cfg)
        stats = result["pnd"]
        assert stats is not None

        model = GaussianJsaModel(1.0, 3.0)
        jsa = build_gaussian_jsa(
            model, *default_grids(model, extent_sigmas=5.2, points_per_width=3.0)
        )
        spectrum = SqueezingSpectrum.from_schmidt(
            schmidt_decompose(jsa), 0.4, ProcessType.TYPE_II
        )
        ref = pnd(ExactProductGf(spectrum, 0.64, 0.81), (4, 4))
        assert np.max(np.abs(stats.probabilities - ref.probabilities)) < 1e-9


def first_row(result):
    return dict(zip(result["columns"], result["rows"][0]))


def swap_config(mu, loss_first, order):
    """Type-II source with a vacuum ancilla: loss 0.1 on the ancilla and a
    full swap 0<->2, in either order, with only mode 2 detected."""
    loss = {"type": "loss", "eta": {"2": 0.1}}
    swap = {"type": "beam_splitter", "dofs": [0, 2], "transmittance": 0.0}
    cfg = base_config(
        detection={
            "method": "log_series",
            "series_order": order,
            "windows": ["empty", "empty", None],
        }
    )
    cfg["source"].pop("gain")
    cfg["source"]["mu"] = mu
    cfg["modes"] = ["signal", "idler", "anc"]
    cfg["pipeline"] = [loss, swap] if loss_first else [swap, loss]
    return cfg


def swap_source():
    """Grid size and Schmidt spectrum of the `base_config` source."""
    from biphoton_sim import (
        GaussianJsaModel,
        build_gaussian_jsa,
        default_grids,
        schmidt_decompose,
    )

    model = GaussianJsaModel(1.0, 3.0)
    grids = default_grids(model, extent_sigmas=5.2, points_per_width=3.0)
    return grids[0].n, schmidt_decompose(build_gaussian_jsa(model, *grids))


def swap_reference(gain, loss_first):
    """Exact vacuum probability of `swap_config`, from a dense numpy pipeline."""
    from biphoton_sim import ProcessType, build_covariance_exact
    from biphoton_sim.oracle import dense_log_det

    n, schmidt = swap_source()
    gamma = build_covariance_exact(schmidt, gain, ProcessType.TYPE_II).mat.to_dense()
    big = np.zeros((6 * n, 6 * n), dtype=complex)
    sel = np.concatenate([np.arange(2 * n), 3 * n + np.arange(2 * n)])
    big[np.ix_(sel, sel)] = gamma
    eye = np.eye(n)
    swap = np.zeros((6 * n, 6 * n))
    for off in (0, 3 * n):
        swap[off : off + n, off + 2 * n : off + 3 * n] = eye
        swap[off + n : off + 2 * n, off + n : off + 2 * n] = eye
        swap[off + 2 * n : off + 3 * n, off : off + n] = -eye
    loss = np.diag(np.concatenate([np.ones(2 * n), np.full(n, 0.1)] * 2))
    s = swap @ loss if loss_first else loss @ swap
    mask = np.concatenate([np.zeros(2 * n), np.ones(n)] * 2)
    k = mask[:, None] * (s @ big @ s.T) * mask[None, :]
    return math.exp(-0.5 * dense_log_det(k))


class TestCertificates:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_bounds_cover_error_when_swap_moves_light(self, order):
        # the loss acts on the vacuum ancilla, so the signal reaches the
        # detector unattenuated; a per-index loss factor of 0.01 would be false
        row = first_row(run_scenario(swap_config(0.3, True, order)))
        p_exact = swap_reference(float(row["gain"]), loss_first=True)
        rel = abs(float(row["p_vac"]) - p_exact) / p_exact
        assert rel > 1e-4
        assert rel <= float(row["det_trunc_eigen"])
        assert rel <= float(row["det_trunc_hs"])

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_loss_after_swap_keeps_per_mode_factor(self, order):
        from biphoton_sim import (
            ProcessType,
            SqueezingSpectrum,
            covariance_eigenvalues,
            det_truncation_bound_eigen,
            det_truncation_bound_hs,
            norms,
        )

        row = first_row(run_scenario(swap_config(0.3, False, order)))
        gain = float(row["gain"])
        sq = SqueezingSpectrum.from_schmidt(swap_source()[1], gain, ProcessType.TYPE_II)
        nrm = norms(sq)
        eta2 = 0.1 * 0.1
        eigen = det_truncation_bound_eigen(covariance_eigenvalues(sq), eta2, order).value
        hs = det_truncation_bound_hs(
            nrm.largest_abs_eigenvalue, nrm.hs_norm**2, eta2, order
        ).value
        assert row["det_trunc_eigen"] == f"{eigen:.17g}"
        assert row["det_trunc_hs"] == f"{hs:.17g}"
        p_exact = swap_reference(gain, loss_first=False)
        assert abs(float(row["p_vac"]) - p_exact) / p_exact <= eigen

    def test_out_of_domain_loss_factor_writes_nothing(self, tmp_path):
        from biphoton_sim import OutOfDomainError

        cfg = swap_config(1.0, True, 1)
        with pytest.raises(OutOfDomainError):
            run_scenario(cfg)
        cfg["output"] = {"csv_path": str(tmp_path / "out.csv")}
        cfg_path = tmp_path / "swap.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 3
        assert not (tmp_path / "out.csv").exists()

    def test_source_level_transmittivity_above_one(self, tmp_path, capsys):
        cfg = base_config(detection={"method": "poisson"})
        cfg["pipeline"] = [{"type": "loss", "eta": {"0": 1.2}}]
        cfg_path = tmp_path / "gain.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 2
        assert "pipeline[0].eta" in capsys.readouterr().err


class TestFigures:
    def test_fig3_closed_forms(self):
        columns, rows, _ = figure_data("fig3", points=31)
        assert columns == [
            "mu",
            "poisson",
            "single_mode_type0i",
            "single_mode_type2",
            "linear",
        ]
        for row in rows:
            mu, poisson, t0i, t2, linear = row
            assert poisson == pytest.approx(math.exp(-mu), abs=1e-12)
            assert t0i == pytest.approx(1.0 / math.sqrt(1.0 + 2.0 * mu), abs=1e-12)
            assert t2 == pytest.approx(1.0 / (1.0 + mu), abs=1e-12)
            assert linear == pytest.approx(1.0 - mu, abs=1e-12)

    def test_fig1_monotone_decreasing(self):
        columns, rows, meta = figure_data("fig1", points=12)
        data = np.array(rows)
        for j in range(1, data.shape[1]):
            assert np.all(np.diff(data[:, j]) <= 1e-15)
        assert meta["order"] == 2

    def test_fig2_floors_at_large_order(self):
        _, rows, _ = figure_data(
            "fig2", points=5, overrides={"orders": [30], "mus": [0.01]}
        )
        vals = np.array(rows)[:, 1]
        assert np.all(vals < 1e-12)

    def test_fig4_hermite_dominates_quadratic(self):
        _, rows, meta = figure_data("fig4", points=9)
        data = np.array(rows)
        assert np.all(data[:, 2] <= data[:, 3] + 1e-12)
        assert meta["eta"] == 1.0

    def test_unknown_figure(self):
        with pytest.raises(ValueError, match="unknown figure"):
            figure_data("fig9")


class TestCommandLine:
    def test_figure_command_deterministic(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["figure", "fig3", "--out", str(out1), "--points", "11"]) == 0
        assert main(["figure", "fig3", "--out", str(out2), "--points", "11"]) == 0
        assert (out1 / "fig3.csv").read_bytes() == (out2 / "fig3.csv").read_bytes()
        meta = json.loads((out1 / "fig3.meta.json").read_text())
        assert meta["x"] == "mu"

    def test_figure_svg(self, tmp_path):
        assert (
            main(["figure", "fig3", "--out", str(tmp_path), "--points", "7", "--svg"])
            == 0
        )
        svg = (tmp_path / "fig3.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_run_command(self, tmp_path):
        cfg = base_config()
        cfg["output"] = {"csv_path": str(tmp_path / "out.csv")}
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 0
        header, rows = read_csv(tmp_path / "out.csv")
        assert header[:4] == ["mu", "gain", "method", "p_vac"]
        assert len(rows) == 1
        # 17 significant digits survive a float round trip
        assert float(rows[0][3]) == float(f"{float(rows[0][3]):.17g}")

    def test_run_command_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"detection": {}}))
        assert main(["run", str(cfg_path)]) == 2

    def test_run_command_numeric_domain_exit_code(self, tmp_path):
        # gain large enough that the Hermite model stops being a distribution
        cfg = base_config(detection={"method": "hermite"})
        cfg["source"]["gain"] = 4.0
        cfg_path = tmp_path / "domain.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 3

    def test_run_command_window_outside_grid_exit_code(self, tmp_path):
        cfg = base_config(
            detection={"method": "poisson", "windows": [[500.0, 600.0], None]}
        )
        cfg_path = tmp_path / "window.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 3

    def test_schmidt_command(self, tmp_path, capsys):
        from biphoton_sim import (
            GaussianJsaModel,
            build_gaussian_jsa,
            default_grids,
            save_jsa_csv,
        )

        model = GaussianJsaModel(1.0, 3.0)
        jsa = build_gaussian_jsa(
            model, *default_grids(model, extent_sigmas=5.2, points_per_width=3.0)
        )
        path = tmp_path / "jsa.csv"
        save_jsa_csv(jsa, path)
        assert main(["schmidt", str(path), "--rank", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "j,coefficient,lambda"
        assert float(out[1].split(",")[2]) == pytest.approx(0.75, abs=1e-4)
