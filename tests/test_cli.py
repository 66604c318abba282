"""Tests for the scenario runner, figure emitter and command-line interface."""
import csv
import json
import math

import numpy as np
import pytest

from pathlib import Path

from biphoton_sim.cli import FIGURES, ConfigError, _limits_text, figure_data, main, run_scenario


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
        # the loss factor is lambda_max of the r x r Schmidt-basis gram, equal
        # to the per-mode factor 0.01 up to rounding
        assert float(row["det_trunc_eigen"]) == pytest.approx(eigen, rel=1e-12, abs=0)
        assert float(row["det_trunc_hs"]) == pytest.approx(hs, rel=1e-12, abs=0)
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

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_meta_records_every_parameter(self, name):
        _, rows, meta = figure_data(name, points=2)
        assert len(rows) == 2
        parameters, fixed = FIGURES[name][2:]
        assert meta == {**fixed, **{key: default for key, (default, _) in parameters.items()}}

    def test_meta_records_overrides(self):
        _, _, meta = figure_data("fig4", points=2, overrides={"mu_max": 2, "eta": 0.9})
        assert meta["mu_max"] == 2.0 and meta["eta"] == 0.9 and meta["mu_min"] == 0.01

    @pytest.mark.parametrize(
        "name, argv, key",
        [
            ("fig1", ["--overrides", '{"eta2s": 3}'], "--overrides.eta2s:"),
            ("fig1", ["--overrides", '{"mus": []}'], "--overrides.mus:"),
            ("fig1", ["--overrides", '{"order": 2.5}'], "--overrides.order:"),
            ("fig2", ["--overrides", '{"mus": [0.1, "x"]}'], "--overrides.mus[1]:"),
            ("fig2", ["--overrides", '{"order": 2}'], "--overrides.order:"),
            ("fig3", ["--overrides", "[1]"], "--overrides:"),
            ("fig3", ["--points", "0"], "--points:"),
            ("fig3", ["--points", "-1"], "--points:"),
            ("fig4", ["--overrides", '{"aspect_ratio": "x"}'], "--overrides.aspect_ratio:"),
            *(
                (name, ["--overrides", json.dumps(override)], key)
                for name, override, key in [
                    ("fig1", {"aspect_max": 0}, "--overrides.aspect_max: expected a number > 0"),
                    ("fig1", {"eta2s": [0.1, -0.1]}, "--overrides.eta2s[1]: expected a number >= 0"),
                    ("fig1", {"mus": [-0.1]}, "--overrides.mus[0]: expected a number >= 0"),
                    ("fig1", {"order": -1}, "--overrides.order: expected an integer >= 0"),
                    ("fig2", {"aspect_max": -1}, "--overrides.aspect_max: expected a number > 0"),
                    ("fig2", {"orders": [-1]}, "--overrides.orders[0]: expected an integer >= 0"),
                    ("fig2", {"mus": [0]}, "--overrides.mus[0]: expected a number > 0"),
                    ("fig3", {"mu_max": -1}, "--overrides.mu_max: expected a number >= 0"),
                    ("fig4", {"mu_min": 0}, "--overrides.mu_min: expected a number > 0"),
                    ("fig4", {"mu_max": -1}, "--overrides.mu_max: expected a number > 0"),
                    ("fig4", {"aspect_ratio": 0}, "--overrides.aspect_ratio: expected a number > 0"),
                    ("fig4", {"aspect_ratio": -1}, "--overrides.aspect_ratio: expected a number > 0"),
                    ("fig4", {"eta": 2}, "--overrides.eta: expected a number >= 0 and <= 1"),
                    ("fig4", {"eta": -0.5}, "--overrides.eta: expected a number >= 0 and <= 1"),
                ]
            ),
        ],
    )
    def test_malformed_figure_arguments_exit_code(self, tmp_path, capsys, name, argv, key):
        assert main(["figure", name, "--out", str(tmp_path)] + argv) == 2
        assert f"configuration error: {key}" in capsys.readouterr().err
        assert not (tmp_path / f"{name}.csv").exists()

    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("fig1", {"aspect_max": 0.5, "eta2s": [0], "mus": [0], "order": 0}),
            ("fig2", {"orders": [0]}),
            ("fig3", {"mu_max": 0}),
            ("fig4", {"aspect_ratio": 0.5, "eta": 0}),
        ],
    )
    def test_range_edges_run(self, name, overrides):
        _, rows, meta = figure_data(name, points=2, overrides=overrides)
        assert len(rows) == 2
        assert all(meta[key] == value for key, value in overrides.items())

    def test_readme_lists_every_parameter(self):
        """The README's override table holds each figure's parameters, with
        their defaults, kinds and ranges, and its default point counts."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Figures")[1].split("\n### ")[0]
        listed, points = {}, {}
        for line in section.splitlines():
            cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
            if cells[0] in ("name", "figure"):
                header = cells[0]
            elif cells[0] in FIGURES and header == "name":
                points[cells[0]] = int(cells[2])
            elif cells[0] in FIGURES:
                name, key, default, kind, limits = cells
                listed[name, key] = (json.loads(default), kind, limits)
        kinds = {float: "number", int: "integer"}
        declared = {}
        for name, (_, n, parameters, _) in FIGURES.items():
            assert points[name] == n
            for key, (value, limits) in parameters.items():
                kind = (
                    f"list of {kinds[type(value[0])]}s"
                    if isinstance(value, list)
                    else kinds[type(value)]
                )
                declared[name, key] = (value, kind, _limits_text(**limits))
        assert listed == declared


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

    def test_schmidt_command_values_only_matches_full_svd(self, tmp_path, capsys):
        from biphoton_sim import (
            GaussianJsaModel,
            build_gaussian_jsa,
            default_grids,
            load_jsa_csv,
            save_jsa_csv,
            schmidt_decompose,
            schmidt_number,
        )

        model = GaussianJsaModel(1.0, 3.0)
        jsa = build_gaussian_jsa(
            model, *default_grids(model, extent_sigmas=5.2, points_per_width=3.0)
        )
        path = tmp_path / "jsa.csv"
        save_jsa_csv(jsa, path)
        full = schmidt_decompose(load_jsa_csv(path))
        assert full.modes_signal is not None
        assert main(["schmidt", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        rows = [line.split(",") for line in out[1:] if not line.startswith("#")]
        assert len(rows) == full.coefficients.size
        scale = 1e-13 * full.coefficients[0]
        for (_, c, lam), expected in zip(rows, full.coefficients):
            assert abs(float(c) - expected) <= scale
            assert abs(float(lam) - expected**2) <= scale
        footer = dict(line[2:].split(",") for line in out if line.startswith("#"))
        assert abs(float(footer["truncation_tail"]) - full.truncation_tail) <= 1e-15
        assert float(footer["schmidt_number"]) == pytest.approx(
            schmidt_number(full), rel=1e-13
        )

    def test_schmidt_command_short_row_exit_code(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("omega_s,omega_i,re_psi,im_psi\n0,0,1,0\n0,1,1\n")
        assert main(["schmidt", str(path)]) == 3
        err = capsys.readouterr().err
        assert "short.csv: line 3 has 3 fields" in err


METHODS = ["exact", "log_series", "poisson", "hermite", "linear", "quadratic"]
SOURCE_METHODS = METHODS[2:]


class TestPlanningErrors:
    """Config mistakes found while planning exit 2 and name the field."""

    def _run(self, tmp_path, capsys, cfg):
        cfg_path = tmp_path / "plan.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["run", str(cfg_path)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "process, method, cutoffs",
        [
            ("type0i", "log_series", [2, 2]),
            ("type2", "log_series", [2, 2, 2]),
            ("type2", "log_series", [2, -1]),
            ("type0i", "exact", [2, 2]),
            ("type2", "poisson", [1, 1, 1]),
            ("type2", "linear", [2]),
            ("type0i", "quadratic", [2]),
        ],
    )
    def test_pnd_cutoffs_exit_code(self, tmp_path, capsys, process, method, cutoffs):
        cfg = base_config(detection={"method": method, "pnd_cutoffs": cutoffs})
        cfg["source"]["process"] = process
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert "detection.pnd_cutoffs" in err

    @pytest.mark.parametrize("detectors", [[0], [0, 1, 1], [None, None], [0, -1], 3])
    def test_detectors_exit_code(self, tmp_path, capsys, detectors):
        cfg = base_config(
            detection={"method": "log_series", "pnd_cutoffs": [2, 2], "detectors": detectors}
        )
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert "detection.detectors" in err

    @pytest.mark.parametrize("method", METHODS)
    def test_non_list_detectors_exit_code(self, tmp_path, capsys, method):
        cfg = base_config(detection={"method": method, "detectors": "garbage"})
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert "detection.detectors" in err

    @pytest.mark.parametrize("method", SOURCE_METHODS)
    @pytest.mark.parametrize("detectors", [[1, 0], [0, None]])
    def test_source_level_layout_exit_code(self, tmp_path, capsys, method, detectors):
        cfg = base_config(detection={"method": method, "detectors": detectors})
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert "detection.detectors" in err

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("modes", [3, "abc", ["signal"], [1, 2]])
    def test_modes_exit_code(self, tmp_path, capsys, method, modes):
        cfg = base_config(detection={"method": method}, modes=modes)
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert "configuration error: modes:" in err

    @pytest.mark.parametrize("method", ["hermite", "quadratic"])
    @pytest.mark.parametrize("windows", [[[-1, 1], [-1, 1]], [None, "empty"], [[None, 1], None]])
    def test_windows_without_window_model_exit_code(self, tmp_path, capsys, method, windows):
        cfg = base_config(detection={"method": method, "windows": windows})
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert "configuration error: detection.windows:" in err

    def test_windows_reproducer(self):
        """hermite and quadratic used to write the unwindowed p_vac (0.96094,
        0.96098) for windows that change poisson's to 0.97765; unbounded
        windows still run."""
        windows = [[-1.0, 1.0], [-1.0, 1.0]]
        poisson = run_scenario(base_config(detection={"method": "poisson", "windows": windows}))
        assert poisson["raw"][0]["p_vac"] == pytest.approx(0.97765, abs=1e-5)
        for method in ("hermite", "quadratic"):
            with pytest.raises(ConfigError, match="detection.windows"):
                run_scenario(base_config(detection={"method": method, "windows": windows}))
            bare = run_scenario(base_config(detection={"method": method}))
            unbounded = {"method": method, "windows": [None, [None, None]]}
            assert run_scenario(base_config(detection=unbounded))["rows"] == bare["rows"]

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("grid.points_per_width", {"grid": {"points_per_width": 0}}),
            ("grid.points_per_width", {"grid": {"points_per_width": -3}}),
            ("grid.extent_sigmas", {"grid": {"extent_sigmas": 0}}),
            ("grid", {"grid": [6.0, 3.0]}),
            ("sweep", {"sweep": "source.mu"}),
            ("pipeline[0].eta", {"pipeline": [{"type": "loss", "eta": [0.9]}]}),
            ("detection.series_order", {"detection": {"method": "log_series", "series_order": 0}}),
            ("detection.series_order", {"detection": {"method": "log_series", "series_order": -3}}),
            ("detection.series_order", {"detection": {"method": "log_series", "series_order": "x"}}),
            ("source.mu", {"source": {"mu": -0.1}}),
            ("source.mu", {"source": {"mu": "abc"}}),
            ("source.gain", {"source": {"gain": "abc"}}),
            ("sweep.values[0]", {"sweep": {"parameter": "source.mu", "values": ["x"]}}),
            ("sweep.values[1]", {"sweep": {"parameter": "source.mu", "values": [0.1, -1]}}),
            ("pipeline[0].dof", {"pipeline": [{"type": "phase", "dof": "x"}]}),
            ("pipeline[0].phi0_rad", {"pipeline": [{"type": "phase", "phi0_rad": "x"}]}),
            (
                "pipeline[0].transmittance",
                {"pipeline": [{"type": "beam_splitter", "dofs": [0, 1], "transmittance": "x"}]},
            ),
        ],
    )
    def test_malformed_field_exit_code(self, tmp_path, capsys, field, edit):
        cfg = base_config()
        for key, value in edit.items():
            if key == "source":
                cfg["source"].pop("gain")
                cfg["source"].update(value)
            else:
                cfg[key] = value
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert f"configuration error: {field}:" in err


def _rectangular_csv(tmp_path):
    """A type-II Gaussian JSA on a 41 x 31 grid, written as CSV."""
    from biphoton_sim import FrequencyGrid, GaussianJsaModel, build_gaussian_jsa
    from biphoton_sim.spectral import save_jsa_csv

    model = GaussianJsaModel(0.5, 1.5)
    jsa = build_gaussian_jsa(
        model, FrequencyGrid.uniform(-8.0, 8.0, 41), FrequencyGrid.uniform(-7.5, 7.5, 31)
    )
    path = tmp_path / "rect.csv"
    save_jsa_csv(jsa, path)
    return path


class TestRectangularSource:
    """Signal and idler grids of different sizes on the Schmidt-basis path."""

    @pytest.mark.parametrize("idler_eta", [None, 0.6])
    def test_log_series_matches_dense_oracle(self, tmp_path, idler_eta):
        from biphoton_sim import (
            DetectionProjection,
            ProcessType,
            SymplecticTransform,
            build_covariance_exact,
            compressed_determinant_operand,
            load_jsa_csv,
            schmidt_decompose,
        )
        from biphoton_sim._blocks import BlockMatrix
        from biphoton_sim.oracle import dense_log_det

        path = _rectangular_csv(tmp_path)
        cfg = {
            "source": {"process": "type2", "gain": 0.5, "jsa": {"csv": str(path)}},
            "detection": {"method": "log_series", "series_order": 30},
        }
        if idler_eta is not None:
            cfg["pipeline"] = [{"type": "loss", "eta": {"1": idler_eta}}]
        result = run_scenario(cfg)
        row = dict(zip(result["columns"], result["rows"][0]))

        schmidt = schmidt_decompose(load_jsa_csv(path))
        gamma = build_covariance_exact(schmidt, 0.5, ProcessType.TYPE_II)
        eta = 1.0 if idler_eta is None else idler_eta
        loss = BlockMatrix.diagonal([1.0, eta, 1.0, eta], gamma.mat.row_sizes)
        operand = compressed_determinant_operand(
            SymplecticTransform(loss, 2, 2), DetectionProjection.full(2), gamma
        ).to_dense()
        assert operand.shape == (144, 144)
        p_dense = math.exp(-0.5 * dense_log_det(operand))
        assert float(row["p_vac"]) == pytest.approx(p_dense, rel=1e-12, abs=0)

    def test_lossless_within_certificate_of_exact(self, tmp_path):
        path = _rectangular_csv(tmp_path)
        source = {"process": "type2", "mu": 0.3, "jsa": {"csv": str(path)}}
        series = run_scenario(
            {"source": source, "detection": {"method": "log_series", "series_order": 4}}
        )
        exact = run_scenario({"source": source, "detection": {"method": "exact"}})
        row = dict(zip(series["columns"], series["rows"][0]))
        p_exact = float(dict(zip(exact["columns"], exact["rows"][0]))["p_vac"])
        err = abs(float(row["p_vac"]) - p_exact) / p_exact
        assert 0 < err <= float(row["det_trunc_eigen"])

    def test_beam_splitter_across_grid_sizes_rejected(self, tmp_path):
        path = _rectangular_csv(tmp_path)
        cfg = {
            "source": {"process": "type2", "gain": 0.5, "jsa": {"csv": str(path)}},
            "pipeline": [{"type": "beam_splitter", "dofs": [0, 1], "transmittance": 0.8}],
            "detection": {"method": "log_series"},
        }
        with pytest.raises(ConfigError, match=r"pipeline\[0\]\.dofs"):
            run_scenario(cfg)


def vacuum_point_config(mu, order, eta0=None, mus=None):
    """Type-II Gaussian source (delta_minus / delta_plus = 3, extent 5.2,
    `points_per_width` 2.5) with an optional loss on mode 0 and a [3, 3]
    log-series PND."""
    cfg = base_config(
        detection={"method": "log_series", "series_order": order, "pnd_cutoffs": [3, 3]},
        grid={"extent_sigmas": 5.2, "points_per_width": 2.5},
    )
    cfg["source"].pop("gain")
    cfg["source"]["mu"] = mu
    if eta0 is not None:
        cfg["pipeline"] = [{"type": "loss", "eta": {"0": eta0}}]
    if mus is not None:
        cfg["sweep"] = {"parameter": "source.mu", "values": mus}
    return cfg


def assert_matches_exact_gf(probabilities, row, eta2_signal):
    """Every nonzero entry within the written det_trunc_eigen (+ 1e-12) of the
    closed-form generating function; its exact zeros within 1e-15."""
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

    model = GaussianJsaModel(1.0, 3.0)
    jsa = build_gaussian_jsa(
        model, *default_grids(model, extent_sigmas=5.2, points_per_width=2.5)
    )
    sq = SqueezingSpectrum.from_schmidt(
        schmidt_decompose(jsa), float(row["gain"]), ProcessType.TYPE_II
    )
    ref = pnd(ExactProductGf(sq, eta2_signal, 1.0), (3, 3)).probabilities
    nonzero = ref != 0
    assert (~nonzero).any()
    rel = np.abs(probabilities[nonzero] - ref[nonzero]) / ref[nonzero]
    assert np.max(rel) <= float(row["det_trunc_eigen"]) + 1e-12
    assert np.max(np.abs(probabilities[~nonzero])) <= 1e-15
    assert probabilities[0, 0] == float(row["p_vac"])


class TestVacuumPointPnd:
    """The log-series PND is expanded at the vacuum point, so every entry
    carries p_vac's relative error and no truncated tail."""

    def test_lossy_type2_sweep_exits_zero(self, tmp_path):
        cfg = vacuum_point_config(0.1, 10, eta0=0.9, mus=[0.1, 0.05, 0.02])
        cfg["output"] = {
            "csv_path": str(tmp_path / "lossy.csv"),
            "pnd_csv_path": str(tmp_path / "lossy_pnd.csv"),
        }
        cfg_path = tmp_path / "lossy.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 0
        columns, rows = read_csv(tmp_path / "lossy.csv")
        row = dict(zip(columns, rows[0]))
        header, pnd_rows = read_csv(tmp_path / "lossy_pnd.csv")
        assert header == ["n1", "n2", "probability"]
        assert pnd_rows[0][2] == row["p_vac"]
        probabilities = np.array([float(p) for *_, p in pnd_rows]).reshape(4, 4)
        assert_matches_exact_gf(probabilities, row, 0.81)

    @pytest.mark.parametrize("mu", [0.05, 0.2])
    @pytest.mark.parametrize("order", [10, 20])
    def test_lossless_type2_matches_exact_gf(self, mu, order):
        result = run_scenario(vacuum_point_config(mu, order))
        assert_matches_exact_gf(result["pnd"].probabilities, first_row(result), 1.0)


class TestSharedDetector:
    """Type-0/I source-level PNDs have one detector: both photons of a pair
    land on the same detected mode."""

    @pytest.mark.parametrize("method", ["poisson", "hermite"])
    def test_type0i_pnd_has_one_column(self, tmp_path, method):
        cfg = base_config(detection={"method": method, "pnd_cutoffs": [3]})
        cfg["source"]["process"] = "type0i"
        cfg["output"] = {
            "csv_path": str(tmp_path / "shared.csv"),
            "pnd_csv_path": str(tmp_path / "shared_pnd.csv"),
        }
        cfg_path = tmp_path / "shared.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 0
        columns, rows = read_csv(tmp_path / "shared.csv")
        header, pnd_rows = read_csv(tmp_path / "shared_pnd.csv")
        assert header == ["n1", "probability"]
        assert [r[0] for r in pnd_rows] == ["0", "1", "2", "3"]
        assert float(pnd_rows[0][1]) == float(dict(zip(columns, rows[0]))["p_vac"])

    def test_type0i_poisson_single_click_rate(self):
        # on the diagonal x_s = x_i the bivariate Poisson gives
        # P[1] = P[0] * 2 mu (p_s - p_si)
        from biphoton_sim import (
            DetectionProjection,
            GaussianJsaModel,
            LossProfile,
            ProcessType,
            build_gaussian_jsa,
            default_grids,
            poisson_params,
        )

        model = GaussianJsaModel(1.0, 3.0)
        jsa = build_gaussian_jsa(
            model, *default_grids(model, extent_sigmas=5.2, points_per_width=3.0)
        )
        cfg = base_config(detection={"method": "poisson", "pnd_cutoffs": [2]})
        cfg["source"]["process"] = "type0i"
        cfg["pipeline"] = [{"type": "loss", "eta": {"0": 0.9}}]
        result = run_scenario(cfg)
        p = result["pnd"].probabilities
        params = poisson_params(
            jsa, LossProfile((0.9,)), DetectionProjection.full(1), 0.4, ProcessType.TYPE_0I
        )
        assert p.shape == (3,)
        assert p[0] == pytest.approx(math.exp(-params.mu * params.p_union), rel=1e-15)
        assert p[1] == pytest.approx(p[0] * 2.0 * params.mu * (params.p_s - params.p_si),
                                     rel=1e-14)

    def test_type0i_two_cutoffs_exit_code(self, tmp_path, capsys):
        cfg = base_config(detection={"method": "poisson", "pnd_cutoffs": [2, 2]})
        cfg["source"]["process"] = "type0i"
        cfg_path = tmp_path / "two.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 2
        assert "detection.pnd_cutoffs" in capsys.readouterr().err


class TestHermiteLoss:
    """`hermite` evaluates p_vac and the PND from one lossy parameter set."""

    def test_lossy_type0i_vacuum_entry_equals_p_vac(self):
        cfg = base_config(detection={"method": "hermite", "pnd_cutoffs": [3]})
        cfg["source"]["process"] = "type0i"
        cfg["pipeline"] = [{"type": "loss", "eta": {"0": 0.9}}]
        result = run_scenario(cfg)
        p_vac = first_row(result)["p_vac"]
        assert result["pnd"].probabilities[0] == float(p_vac)
        lossless = first_row(run_scenario(base_config(
            detection={"method": "hermite"},
            source=dict(base_config()["source"], process="type0i"),
        )))["p_vac"]
        assert float(p_vac) > float(lossless)

    @pytest.mark.parametrize("process", ["type2", "type0i"])
    def test_lossless_p_vac_unchanged(self, process):
        from biphoton_sim import (
            GaussianJsaModel,
            ProcessType,
            build_gaussian_jsa,
            default_grids,
            hermite_params,
            schmidt_decompose,
            schmidt_number,
            vacuum_probability,
        )

        cfg = base_config(detection={"method": "hermite"})
        cfg["source"]["process"] = process
        model = GaussianJsaModel(1.0, 3.0)
        jsa = build_gaussian_jsa(
            model, *default_grids(model, extent_sigmas=5.2, points_per_width=3.0)
        )
        k_number = schmidt_number(schmidt_decompose(jsa))
        hp = hermite_params(0.4, k_number, ProcessType(process))
        expected = vacuum_probability(hp, "hermite")
        assert first_row(run_scenario(cfg))["p_vac"] == f"{expected:.17g}"


class TestExactWindows:
    """Windows restrict pipeline-free `exact` as they restrict any pipeline;
    unbounded windows change nothing."""

    WINDOWS = [[-1.0, 1.0], [-1.0, 1.0]]

    def test_windows_restrict_closed_form(self):
        windowed = run_scenario(
            base_config(detection={"method": "exact", "windows": self.WINDOWS})
        )
        noop = base_config(
            detection={"method": "exact", "windows": self.WINDOWS},
            pipeline=[{"type": "phase", "dof": 0}],
        )
        bare = run_scenario(base_config())
        p_windowed = windowed["raw"][0]["p_vac"]
        assert p_windowed == pytest.approx(run_scenario(noop)["raw"][0]["p_vac"], rel=1e-12, abs=0)
        assert p_windowed == pytest.approx(0.97768, abs=1e-5)
        assert bare["raw"][0]["p_vac"] == pytest.approx(0.96094, abs=1e-5)

    def test_unbounded_windows_keep_closed_form(self):
        bare = run_scenario(base_config())
        open_windows = run_scenario(
            base_config(detection={"method": "exact", "windows": [None, [None, None]]})
        )
        assert open_windows["rows"] == bare["rows"]


class TestLowOrderPnd:
    def test_sum_above_one_names_series_order(self, tmp_path, capsys):
        cfg = vacuum_point_config(0.2, 8)
        cfg["output"] = {
            "csv_path": str(tmp_path / "low.csv"),
            "pnd_csv_path": str(tmp_path / "low_pnd.csv"),
        }
        cfg_path = tmp_path / "low.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "probabilities sum above 1" in err
        assert "detection.series_order 8" in err
        assert "exact" in err
        assert not (tmp_path / "low_pnd.csv").exists()


def gaussian_spectrum(process, gain):
    """The squeezing spectrum of the `base_config` source at `gain`."""
    from biphoton_sim import (
        GaussianJsaModel,
        ProcessType,
        SqueezingSpectrum,
        build_gaussian_jsa,
        default_grids,
        schmidt_decompose,
    )

    model = GaussianJsaModel(1.0, 3.0)
    jsa = build_gaussian_jsa(
        model, *default_grids(model, extent_sigmas=5.2, points_per_width=3.0)
    )
    return SqueezingSpectrum.from_schmidt(schmidt_decompose(jsa), gain, ProcessType(process))


class TestExactEngine:
    """Pipeline-free `exact` runs on the Schmidt side like every pipeline;
    the per-mode closed form is its reference."""

    @pytest.mark.parametrize("process", ["type0i", "type2"])
    @pytest.mark.parametrize("mu", [0.01, 1.0, 20.0])
    def test_matches_closed_form(self, process, mu):
        from biphoton_sim import ExactProductGf, pnd, vacuum_probability

        cutoffs = [3] if process == "type0i" else [3, 3]
        cfg = base_config(detection={"method": "exact", "pnd_cutoffs": cutoffs})
        cfg["source"] = dict(cfg["source"], process=process, mu=mu)
        cfg["source"].pop("gain")
        result = run_scenario(cfg)
        raw = result["raw"][0]
        sq = gaussian_spectrum(process, raw["gain"])
        assert raw["p_vac"] == pytest.approx(vacuum_probability(sq, "exact"), rel=1e-12, abs=0)
        ref = pnd(ExactProductGf(sq), cutoffs).probabilities
        assert result["pnd"].probabilities.shape == ref.shape
        np.testing.assert_allclose(result["pnd"].probabilities, ref, rtol=0, atol=1e-15)


class TestDetectorLayouts:
    """`detection.detectors` applies to every method."""

    def test_exact_shared_detector(self):
        detection = {"method": "exact", "detectors": [0, 0], "pnd_cutoffs": [2]}
        bare = run_scenario(base_config(detection=detection))
        noop = run_scenario(
            base_config(detection=detection, pipeline=[{"type": "phase", "dof": 0}])
        )
        assert bare["pnd"].probabilities.shape == (3,)
        np.testing.assert_allclose(
            bare["pnd"].probabilities, noop["pnd"].probabilities, rtol=1e-13, atol=0
        )

    @pytest.mark.parametrize("method", ["poisson", "hermite"])
    def test_source_level_shared_detector(self, method):
        two_arm = run_scenario(base_config(detection={"method": method, "pnd_cutoffs": [3]}))
        shared = run_scenario(
            base_config(detection={"method": method, "pnd_cutoffs": [3], "detectors": [0, 0]})
        )
        table = two_arm["pnd"].probabilities
        p = shared["pnd"].probabilities
        assert table.shape == (4, 4) and p.shape == (4,)
        for n in range(4):
            antidiagonal = sum(table[k, n - k] for k in range(n + 1))
            assert p[n] == pytest.approx(antidiagonal, rel=1e-15, abs=0)
        assert p[0] == pytest.approx(float(first_row(shared)["p_vac"]), rel=1e-15, abs=0)
        assert shared["rows"] == two_arm["rows"]
