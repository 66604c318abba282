"""Tests for the scenario runner, figure emitter and command-line interface."""
import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlib import Path

from biphoton_sim.cli import FIGURES, ConfigError, figure_data, main, run_scenario
from biphoton_sim.covariance import _gaussian_spectra
from biphoton_sim.scenario import _limits_text
from conftest import reference_covariance_bound
from test_detection import _readme_config


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
        original = detection.vacuum_point_gf

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(detection, "vacuum_point_gf", counting)
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

    def test_fig2_csv_matches_gammaln_reference(self, tmp_path):
        assert main(["figure", "fig2", "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "fig2.csv")
        parameters = FIGURES["fig2"][2]
        orders, mus = parameters["orders"][0], parameters["mus"][0]
        assert header[1:] == [f"bound_n_{n}_mu_{mu:g}" for n in orders for mu in mus]
        for row in rows:
            sigmas = [float(sq.sigmas[0]) for sq in _gaussian_spectra(float(row[0]), mus)[2]]
            expected = [reference_covariance_bound(s, n) for n in orders for s in sigmas]
            assert [float(v) for v in row[1:]] == pytest.approx(expected, rel=1e-13, abs=0)

    def test_fig4_hermite_dominates_quadratic(self):
        _, rows, meta = figure_data("fig4", points=9)
        data = np.array(rows)
        assert np.all(data[:, 2] <= data[:, 3] + 1e-12)
        assert meta["eta"] == 1.0

    def test_fig4_zero_transmission_writes_zero_errors(self, tmp_path):
        # at eta = 0 no photon is seen, so every vacuum probability is 1
        argv = ["figure", "fig4", "--out", str(tmp_path), "--overrides", '{"eta": 0}']
        assert main(argv) == 0
        _, rows = read_csv(tmp_path / "fig4.csv")
        assert len(rows) == 61
        assert all(float(v) == 0.0 for row in rows for v in row[1:])

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

    @pytest.mark.parametrize(
        "argv, named",
        [
            pytest.param(["run", "."], "'.'", id="config_is_directory"),
            pytest.param(["run", "dot.json"], "'.'", id="csv_path_is_directory"),
            pytest.param(["run", "latin1.json"], "latin1.json: not UTF-8", id="config_not_utf8"),
            pytest.param(["schmidt", "."], "'.'", id="jsa_csv_is_directory"),
            pytest.param(["figure", "fig3", "--out", "taken", "--points", "3"], "'taken'",
                         id="out_is_file"),
        ],
    )
    def test_file_error_exit_code(self, tmp_path, monkeypatch, capsys, argv, named):
        # a path that cannot be read or written exits 2 and is named
        monkeypatch.chdir(tmp_path)
        cfg = base_config()
        cfg["output"] = {"csv_path": "."}
        (tmp_path / "dot.json").write_text(json.dumps(cfg))
        latin1 = json.dumps(base_config()).replace("type2", "type\u00e92")
        (tmp_path / "latin1.json").write_bytes(latin1.encode("latin-1"))
        (tmp_path / "taken").write_text("")
        assert main(argv) == 2
        assert named in capsys.readouterr().err

    def test_run_command_numeric_domain_exit_code(self, tmp_path):
        # gain large enough that the Hermite model stops being a distribution
        cfg = base_config(detection={"method": "hermite"})
        cfg["source"]["gain"] = 4.0
        cfg_path = tmp_path / "domain.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 3

    def test_run_command_non_finite_pnd_exit_code(self, tmp_path, capsys, monkeypatch):
        from biphoton_sim import detection

        monkeypatch.setattr(detection, "_poly_exp", lambda e: np.full(e.shape, np.nan))
        cfg = base_config(detection={"method": "exact", "pnd_cutoffs": [2, 2]})
        cfg["output"] = {"csv_path": str(tmp_path / "out.csv"),
                         "pnd_csv_path": str(tmp_path / "pnd.csv")}
        cfg_path = tmp_path / "nan_pnd.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 3
        assert "probabilities must be finite" in capsys.readouterr().err

    def test_run_command_non_finite_bound_exit_code(self, tmp_path, capsys, monkeypatch):
        from biphoton_sim import bounds

        monkeypatch.setattr(
            bounds, "_log_series_tail", lambda lams, order: np.full(np.shape(lams), np.nan)
        )
        cfg = base_config(detection={"method": "log_series", "series_order": 4})
        cfg["output"] = {"csv_path": str(tmp_path / "out.csv")}
        cfg_path = tmp_path / "nan_bound.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 3
        assert "bound value nan is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, source", [
        # the README pipeline at gain 1000: sigma_1 = 800
        ("source.gain", "1000.0", {"gain": 1000.0}),
        # an aspect-ratio-1 source, one Schmidt mode: sigma_1 = 2 asinh(1e154)
        ("sweep.values[1]", "1e+308", {"delta": 1.0, "sweep": [0.1, 1e308]}),
    ])
    def test_run_command_overflowing_point_names_its_field(self, tmp_path, capsys, field,
                                                           value, source):
        import warnings

        cfg = _readme_config("log_series")
        del cfg["source"]["mu"]
        if "gain" in source:
            cfg["source"]["gain"] = source["gain"]
            del cfg["sweep"]
        else:
            cfg["source"]["jsa"]["gaussian"]["delta_minus_rad_s"] = source["delta"]
            cfg["sweep"]["values"] = source["sweep"]
        cfg["output"] = {"csv_path": str(tmp_path / "out.csv"),
                         "pnd_csv_path": str(tmp_path / "pnd.csv")}
        cfg_path = tmp_path / "overflow.json"
        cfg_path.write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numeric domain error: {field} = {value}: the largest "
                              f"squeezing parameter ")
        assert "is not a finite float" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("field, value, source", [
        ("source.gain", "5.0", {"gain": 5.0}),
        # past sigma_1 ~ 355 the series' powers and the HS norm overflow
        ("source.gain", "300.0", {"gain": 300.0}),
        ("source.gain", "500.0", {"gain": 500.0}),
        ("sweep.values[1]", "1000000.0", {"sweep": [0.1, 1e6]}),
    ])
    def test_run_command_point_outside_the_series_domain_names_its_field(
            self, tmp_path, capsys, field, value, source):
        """`det_trunc_eigen` checks the series' domain before the series or
        the norms run, so the point exits 3 naming its field, with no numpy
        overflow or spectral-radius warning printed first."""
        import warnings

        from biphoton_sim import SpectralRadiusWarning

        cfg = _readme_config("log_series")
        del cfg["source"]["mu"]
        if "gain" in source:
            cfg["source"]["gain"] = source["gain"]
            del cfg["sweep"]
        else:
            cfg["sweep"]["values"] = source["sweep"]
        cfg["output"] = {"csv_path": str(tmp_path / "out.csv"),
                         "pnd_csv_path": str(tmp_path / "pnd.csv")}
        cfg_path = tmp_path / "domain.json"
        cfg_path.write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numeric domain error: {field} = {value}: |eta^2 lambda| = ")
        assert err.endswith(" >= 1\n")
        assert not [w for w in caught
                    if issubclass(w.category, (RuntimeWarning, SpectralRadiusWarning))]

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

    def test_schmidt_command_non_finite_exit_code(self, tmp_path, capsys, recwarn):
        path = tmp_path / "inf.csv"
        path.write_text("omega_s,omega_i,re_psi,im_psi\n0,0,1,0\n0,1,1,inf\n1,0,1,0\n1,1,1,0\n")
        assert main(["schmidt", str(path)]) == 3
        assert "inf.csv: line 3: non-finite value" in capsys.readouterr().err
        assert not recwarn.list

    @pytest.mark.parametrize("rows", ["0,0,1,0\n0,1,1,0\n", "0,0,1,0\n1,0,1,0\n"])
    def test_schmidt_command_one_point_axis_exit_code(self, tmp_path, capsys, rows):
        path = tmp_path / "line.csv"
        path.write_text("omega_s,omega_i,re_psi,im_psi\n" + rows)
        assert main(["schmidt", str(path)]) == 3
        err = capsys.readouterr().err
        assert "line.csv: a JSA CSV grid needs at least two points on each axis" in err

    @pytest.mark.parametrize("rank", ["0", "-2"])
    def test_schmidt_command_bad_rank_exit_code(self, tmp_path, capsys, rank):
        path = tmp_path / "jsa.csv"
        path.write_text("omega_s,omega_i,re_psi,im_psi\n0,0,1,0\n0,1,1,0\n1,0,1,0\n1,1,1,0\n")
        assert main(["schmidt", str(path), "--rank", rank]) == 2
        assert "--rank: expected an integer >= 1" in capsys.readouterr().err


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
    def test_null_pipeline_is_empty(self, tmp_path, capsys, method):
        # null means absent, as for the other optional fields
        cfg = base_config(detection={"method": method})
        bare = run_scenario(cfg)["rows"]
        cfg["pipeline"] = None
        assert run_scenario(cfg)["rows"] == bare
        cfg["output"] = {"csv_path": str(tmp_path / "null.csv")}
        code, _ = self._run(tmp_path, capsys, cfg)
        assert code == 0

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("pipeline", [{"type": "loss", "eta": {"0": 0.5}}, "loss", 3])
    def test_non_list_pipeline_exit_code(self, tmp_path, capsys, method, pipeline):
        cfg = base_config(detection={"method": method}, pipeline=pipeline)
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert "configuration error: pipeline: expected a list of steps" in err

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("modes", [3, "abc", ["signal"], [1, 2]])
    def test_modes_exit_code(self, tmp_path, capsys, method, modes):
        cfg = base_config(detection={"method": method}, modes=modes)
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert "configuration error: modes:" in err

    @pytest.mark.parametrize("method", SOURCE_METHODS)
    @pytest.mark.parametrize("detectors", [None, [0, 1], [0, 1, None]])
    def test_source_level_ancilla_modes_exit_code(self, tmp_path, capsys, method, detectors):
        # a loss-only pipeline reaches no ancilla, whatever the detector layout
        detection = {"method": method}
        if detectors is not None:
            detection["detectors"] = detectors
        cfg = base_config(detection=detection, modes=["signal", "idler", "anc"])
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert "configuration error: modes: source-level methods take no ancilla modes" in err

    @pytest.mark.parametrize("method", SOURCE_METHODS)
    def test_source_level_renamed_source_modes_run(self, method):
        cfg = base_config(detection={"method": method})
        bare = run_scenario(cfg)["rows"]
        cfg["modes"] = ["s", "i"]
        assert run_scenario(cfg)["rows"] == bare

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

    # path, enum and number fields that used to reach `open`, `np.loadtxt`
    # or the numerics unchecked

    @pytest.mark.parametrize(
        "field, output",
        [
            # null raised a TypeError; 1 wrote the CSV to stdout and closed it
            ("output.csv_path", {"csv_path": None}),
            ("output.csv_path", {"csv_path": 1}),
            ("output.csv_path", {"csv_path": ""}),
            # 2 wrote the PND table to stderr and closed it
            ("output.pnd_csv_path", {"csv_path": "out.csv", "pnd_csv_path": 2}),
            ("output.pnd_csv_path", {"csv_path": "out.csv", "pnd_csv_path": ""}),
        ],
    )
    def test_output_path_exit_code(self, tmp_path, capsys, monkeypatch, field, output):
        monkeypatch.chdir(tmp_path)
        cfg = base_config(detection={"method": "exact", "pnd_cutoffs": [1, 1]}, output=output)
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert f"configuration error: {field}: expected a non-empty string" in err
        assert not (tmp_path / "out.csv").exists()

    def test_jsa_csv_path_exit_code(self, tmp_path, capsys):
        cfg = base_config()
        cfg["source"]["jsa"] = {"csv": 5}
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert "configuration error: source.jsa.csv: expected a non-empty string" in err

    def test_gain_with_sweep_exit_code(self, tmp_path, capsys, monkeypatch):
        # the sweep used to drop the gain without a word
        monkeypatch.chdir(tmp_path)
        cfg = base_config(sweep={"parameter": "source.mu", "values": [0.05, 0.1]})
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert "configuration error: source.gain:" in err
        cfg["source"]["mu"] = cfg["source"].pop("gain")
        assert self._run(tmp_path, capsys, cfg)[0] == 0

    def test_sweep_without_source_mu(self, tmp_path, capsys, monkeypatch):
        # a sweep sets every point's mu: source.mu was required and then ignored
        monkeypatch.chdir(tmp_path)
        cfg = base_config(detection={"method": "log_series", "pnd_cutoffs": [2, 2]},
                          sweep={"parameter": "source.mu", "values": [0.05, 0.1]},
                          output={"csv_path": "sweep.csv", "pnd_csv_path": "sweep_pnd.csv"})
        del cfg["source"]["gain"]
        outputs = []
        for source_mu in (0.3, None):
            if source_mu is None:
                del cfg["source"]["mu"]
            else:
                cfg["source"]["mu"] = source_mu
            assert self._run(tmp_path, capsys, cfg)[0] == 0
            outputs.append([Path(name).read_bytes() for name in ("sweep.csv", "sweep_pnd.csv")])
            for name in ("sweep.csv", "sweep_pnd.csv"):
                Path(name).unlink()
        assert outputs[0] == outputs[1]

    def test_no_gain_or_mu_without_sweep_exit_code(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["source"]["gain"]
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert "configuration error: source: missing 'gain' or 'mu'" in err

    def test_grid_with_csv_jsa_exit_code(self, tmp_path, capsys, monkeypatch):
        # the grid used to be ignored: a CSV JSA is sampled on its own grid
        monkeypatch.chdir(tmp_path)
        cfg = base_config()
        cfg["source"]["jsa"] = {"csv": str(_rectangular_csv(tmp_path))}
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert "configuration error: grid:" in err
        del cfg["grid"]
        assert self._run(tmp_path, capsys, cfg)[0] == 0

    @pytest.mark.parametrize("method", ["log_series", "poisson"])
    @pytest.mark.parametrize("windows", [None, [None, None]])
    def test_domain_exit_code(self, tmp_path, capsys, method, windows):
        # with a null window this exited 3 naming no field; without windows
        # the unknown domain was accepted
        detection = {"method": method, "domain": "spectral"}
        if windows is not None:
            detection["windows"] = windows
        code, err = self._run(tmp_path, capsys, base_config(detection=detection))
        assert code == 2
        assert "configuration error: detection.domain: must be 'frequency' or 'time'" in err

    @pytest.mark.parametrize("cutoffs", [0, "", False, {}])
    def test_falsy_pnd_cutoffs_exit_code(self, tmp_path, capsys, cutoffs):
        # these used to mean "no PND table"
        cfg = base_config(detection={"method": "exact", "pnd_cutoffs": cutoffs})
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert "configuration error: detection.pnd_cutoffs:" in err

    @pytest.mark.parametrize("cutoffs", [None, []])
    def test_absent_pnd_cutoffs(self, cutoffs):
        cfg = base_config(detection={"method": "exact", "pnd_cutoffs": cutoffs})
        assert run_scenario(cfg)["pnd"] is None

    @pytest.mark.parametrize(
        "key, value",
        [
            ("delta_plus_rad_s", float("nan")),  # exited 3: NaN to integer
            ("delta_minus_rad_s", float("inf")),  # exited 1: OverflowError
            ("delta_minus_rad_s", 0.0),
            ("center_signal_rad_s", float("nan")),  # exited 3: grid not increasing
            ("center_idler_rad_s", float("-inf")),
            ("center_idler_rad_s", "x"),
        ],
    )
    def test_gaussian_field_exit_code(self, tmp_path, capsys, key, value):
        cfg = base_config()
        cfg["source"]["jsa"]["gaussian"][key] = value
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert f"configuration error: source.jsa.gaussian.{key}: expected a number" in err

    def test_gaussian_missing_width_exit_code(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["source"]["jsa"]["gaussian"]["delta_minus_rad_s"]
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert "configuration error: source.jsa.gaussian.delta_minus_rad_s:" in err

    def test_gaussian_and_csv_exit_code(self, tmp_path, capsys):
        # the Gaussian source used to run, ignoring the (missing) CSV
        cfg = base_config()
        cfg["source"]["jsa"]["csv"] = str(tmp_path / "missing.csv")
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert "configuration error: source.jsa: give either 'gaussian' or 'csv', not both" in err

    @pytest.mark.parametrize(
        "where, field",
        [
            ((), "pnd_cutoffs"),
            (("source",), "mean_pairs"),
            (("source", "jsa"), "file"),
            (("source", "jsa", "gaussian"), "delta_plus"),
            (("grid",), "points"),
            (("detection",), "pnd_cutofs"),
            (("sweep",), "value"),
            (("output",), "pnd_path"),
        ],
    )
    def test_unknown_field_exit_code(self, tmp_path, capsys, where, field):
        # a misspelt field used to be ignored: `pnd_cutofs` ran and wrote no table
        cfg = base_config(sweep={"parameter": "source.mu", "values": [0.1]},
                          output={"csv_path": str(tmp_path / "out.csv")})
        node = cfg
        for key in where:
            node = node[key]
        node[field] = [3, 3]
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert f"configuration error: {'.'.join(where + (field,))}: unknown field" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "step, field",
        [
            ({"type": "phase", "dof": 0, "tau_s": 1.0}, "tau"),
            ({"type": "fourier", "dof": 0}, "phi0_rad"),
            ({"type": "beam_splitter", "dofs": [0, 1], "transmittance": 0.8}, "eta"),
            ({"type": "loss", "eta": {"0": 0.9}}, "dof"),
        ],
    )
    def test_unknown_step_field_exit_code(self, tmp_path, capsys, step, field):
        # each step type takes its own fields: `phi0_rad` means nothing to `fourier`
        cfg = base_config(pipeline=[{"type": "loss", "eta": {"1": 0.9}}, {**step, field: 0.5}])
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert f"configuration error: pipeline[1].{field}: unknown field" in err

    def test_first_unknown_field_is_named(self, tmp_path, capsys):
        cfg = base_config()
        cfg["detection"].update(zeta=1, alpha=2)
        cfg["note"] = "top level first"
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert "configuration error: note: unknown field" in err
        del cfg["note"]
        assert self._run(tmp_path, capsys, cfg) == (2, "configuration error: detection.zeta: "
                                                       "unknown field\n")


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

    @pytest.mark.parametrize("command", ["schmidt", "run"])
    def test_loaded_jsa_is_freed_before_the_svd(self, tmp_path, monkeypatch, command):
        """No name holds a CSV JSA while LAPACK copies its kernel, so its
        values are freed before the SVD's own memory is taken."""
        import weakref

        from biphoton_sim import spectral

        path = _rectangular_csv(tmp_path)
        load, svd = spectral.load_jsa_csv, np.linalg.svd
        loaded, alive_at_svd = [], []

        def tracked_load(p):
            jsa = load(p)
            loaded.extend([weakref.ref(jsa), weakref.ref(jsa.values)])
            return jsa

        def tracked_svd(*args, **kwargs):
            alive_at_svd.append([ref() is not None for ref in loaded])
            return svd(*args, **kwargs)

        monkeypatch.setattr(spectral, "load_jsa_csv", tracked_load)
        monkeypatch.setattr(np.linalg, "svd", tracked_svd)
        if command == "schmidt":
            argv = ["schmidt", str(path)]
        else:
            cfg_path = tmp_path / "csv.json"
            cfg_path.write_text(json.dumps({
                "source": {"process": "type2", "gain": 0.5, "jsa": {"csv": str(path)}},
                "detection": {"method": "exact"},
                "output": {"csv_path": str(tmp_path / "out.csv")},
            }))
            argv = ["run", str(cfg_path)]
        assert main(argv) == 0
        assert alive_at_svd and all(flags == [False, False] for flags in alive_at_svd)

    def test_beam_splitter_across_grid_sizes_rejected(self, tmp_path):
        path = _rectangular_csv(tmp_path)
        cfg = {
            "source": {"process": "type2", "gain": 0.5, "jsa": {"csv": str(path)}},
            "pipeline": [{"type": "beam_splitter", "dofs": [0, 1], "transmittance": 0.8}],
            "detection": {"method": "log_series"},
        }
        with pytest.raises(ConfigError, match=r"pipeline\[0\]: a beam splitter joins modes"):
            run_scenario(cfg)

    def test_run_exits_2_naming_step_modes_and_sizes(self, tmp_path, capsys):
        """The plan's grid-size check is the only one; `run` reports it as a
        configuration error."""
        path = _rectangular_csv(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({
            "source": {"process": "type2", "gain": 0.5, "jsa": {"csv": str(path)}},
            "pipeline": [{"type": "beam_splitter", "dofs": [0, 1], "transmittance": 0.8}],
            "detection": {"method": "exact"},
            "output": {"csv_path": str(tmp_path / "out.csv")},
        }))
        assert main(["run", str(tmp_path / "cfg.json")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: pipeline[0]: a beam splitter joins modes of one grid size; "
            "mode 0 ('signal') has 41 points and mode 1 ('idler') 31\n")
        assert not (tmp_path / "out.csv").exists()


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
        # P[1] = P[0] * 2 mu (p_s - p_si), with the run's own single-pair
        # probabilities
        from biphoton_sim import (
            DetectionProjection,
            GaussianJsaModel,
            ProcessType,
            build_gaussian_jsa,
            default_grids,
        )
        from test_detection import single_pair

        model = GaussianJsaModel(1.0, 3.0)
        jsa = build_gaussian_jsa(
            model, *default_grids(model, extent_sigmas=5.2, points_per_width=3.0)
        )
        cfg = base_config(detection={"method": "poisson", "pnd_cutoffs": [2]})
        cfg["source"]["process"] = "type0i"
        cfg["pipeline"] = [{"type": "loss", "eta": {"0": 0.9}}]
        result = run_scenario(cfg)
        p = result["pnd"].probabilities
        params = single_pair(jsa, (0.9,), DetectionProjection.full(1), 0.4, ProcessType.TYPE_0I)
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
        expected = vacuum_probability(hp)
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
        assert err.startswith("numeric domain error: source.mu = 0.2: method 'log_series': ")
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
        assert raw["p_vac"] == pytest.approx(vacuum_probability(ExactProductGf(sq)), rel=1e-12,
                                             abs=0)
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


def random_pipeline(rng, m_total, process):
    """2-5 pipeline entries drawn from phase, fourier (once per mode), beam
    splitter and loss over `m_total` modes, with a signal-idler beam
    splitter for type-II and at least one fourier; also the modes that end
    in the time domain."""
    steps, fourier_done = [], set()
    for _ in range(rng.integers(2, 6)):
        kind = rng.choice(["phase", "fourier", "beam_splitter", "loss"])
        if kind == "fourier" and len(fourier_done) == m_total:
            kind = "loss"
        if kind == "phase":
            steps.append({"type": "phase", "dof": int(rng.integers(m_total)),
                          "phi0_rad": float(rng.uniform(-3, 3)),
                          "tau_s": float(rng.uniform(-1, 1)),
                          "beta_l_s2": float(rng.uniform(-0.5, 0.5))})
        elif kind == "fourier":
            dof = int(rng.choice(sorted(set(range(m_total)) - fourier_done)))
            fourier_done.add(dof)
            steps.append({"type": "fourier", "dof": dof})
        elif kind == "beam_splitter":
            pair = [int(d) for d in rng.choice(m_total, 2, replace=False)]
            steps.append({"type": "beam_splitter", "dofs": pair,
                          "transmittance": float(rng.uniform(0.1, 0.95))})
        else:
            modes = rng.choice(m_total, int(rng.integers(1, m_total + 1)), replace=False)
            steps.append({"type": "loss",
                          "eta": {str(d): float(rng.uniform(0.3, 1.0)) for d in modes}})
    if process == "type2" and not any(s["type"] == "beam_splitter" and sorted(s["dofs"]) == [0, 1]
                                      for s in steps):
        steps.append({"type": "beam_splitter", "dofs": [1, 0], "transmittance": 0.8})
    if not fourier_done:
        fourier_done.add(int(rng.integers(m_total)))
        steps.append({"type": "fourier", "dof": min(fourier_done)})
    return steps, fourier_done


def block_reference(cfg):
    """The pipeline of `cfg` as `transforms` block constructors, composed and
    compressed, with the source's covariance, output modes and projection."""
    from biphoton_sim import (
        BlockMatrix,
        DetectionProjection,
        DetectionWindow,
        SymplecticTransform,
        beam_splitter,
        build_covariance_exact,
        compose_all,
        compress,
        fourier,
        phase_shift,
    )
    from biphoton_sim.scenario import _build_source
    from biphoton_sim.transforms import output_dofs

    decompose, gain, _, process = _build_source(cfg)
    schmidt = decompose()
    gamma = build_covariance_exact(schmidt, gain, process)
    m_total = len(cfg["modes"])
    grids = [d.grid for d in gamma.dofs] + [gamma.dofs[0].grid] * (m_total - gamma.n_dofs)
    sizes = tuple(g.n for g in grids)
    built = []
    for step in cfg["pipeline"]:
        if step["type"] == "phase":
            built.append(phase_shift(step["phi0_rad"], step["tau_s"], step["beta_l_s2"],
                                     grids[step["dof"]], step["dof"], m_total, sizes=sizes))
        elif step["type"] == "fourier":
            t, grids[step["dof"]] = fourier(grids[step["dof"]], step["dof"], m_total, sizes=sizes)
            built.append(t)
        elif step["type"] == "beam_splitter":
            t_coef = step["transmittance"]
            built.append(beam_splitter(t_coef, math.sqrt(1.0 - t_coef**2), tuple(step["dofs"]),
                                       m_total, sizes=sizes))
        else:
            entries = [1.0] * m_total
            for key, val in step["eta"].items():
                entries[int(key)] = val
            built.append(SymplecticTransform(BlockMatrix.diagonal(entries * 2, sizes * 2),
                                             m_total, m_total))
    s = compress(compose_all(built), gamma.n_dofs)
    windows = [DetectionWindow.unbounded() if w is None else DetectionWindow(*w, "time")
               for w in cfg["detection"]["windows"]]
    return s, gamma, output_dofs(s, gamma.dofs, names=cfg["modes"]), \
        DetectionProjection(windows)


class TestFactorPath:
    """`run` pushes the Schmidt factor through each step; the block
    constructors, composed and compressed, are the reference."""

    @pytest.mark.parametrize("process", ["type2", "type0i"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_block_reference(self, process, seed):
        from biphoton_sim import (
            SqueezingSpectrum,
            compressed_determinant_operand,
            covariance_eigenvalues,
            det_truncation_bound_eigen,
        )
        from biphoton_sim.scenario import _build_source
        from biphoton_sim.covariance import covariance_factor
        from biphoton_sim.oracle import dense_log_det
        from biphoton_sim.transforms import detected_gram

        rng = np.random.default_rng(seed)
        modes = (["signal", "idler"] if process == "type2" else ["mode"]) + ["anc"]
        pipeline, in_time = random_pipeline(rng, len(modes), process)
        # asymmetric time windows, which see the sign of every phase and kernel
        windows = [[-rng.uniform(0.5, 2.0), rng.uniform(0.2, 3.0)] if k in in_time else None
                   for k in range(len(modes))]
        detection = {"domain": "time", "windows": windows}
        cfg = base_config(detection={"method": "exact", **detection}, modes=modes,
                          pipeline=pipeline)
        cfg["grid"]["points_per_width"] = 2.0
        cfg["source"]["process"] = process
        s, gamma, out_dofs, proj = block_reference(cfg)

        p_vac = first_row(run_scenario(cfg))["p_vac"]
        operand = compressed_determinant_operand(s, proj, gamma, out_dofs).to_dense()
        p_ref = math.exp(-0.5 * dense_log_det(operand))
        assert float(p_vac) == pytest.approx(p_ref, rel=1e-12, abs=0)

        # the loss factor lambda_max(V^dag s^dag P s V), read through the
        # det_trunc_eigen column of a log-series run
        order = 3
        cfg["detection"] = {"method": "log_series", "series_order": order, **detection}
        row = first_row(run_scenario(cfg))
        decompose, gain, _, proc = _build_source(cfg)
        schmidt = decompose()
        v = covariance_factor(schmidt, proc)
        gram = detected_gram(s, proj, out_dofs).to_dense()
        eta2 = float(np.linalg.eigvalsh(v.conj().T @ gram @ v)[-1])
        sq = SqueezingSpectrum.from_schmidt(schmidt, gain, proc)
        expected = det_truncation_bound_eigen(covariance_eigenvalues(sq), eta2, order).value
        assert float(row["det_trunc_eigen"]) == pytest.approx(expected, rel=1e-12, abs=0)


class TestNoBlockAlgebra:
    """`run` builds no BlockMatrix, whatever the method."""

    @pytest.mark.parametrize(
        "method, pipeline, detection",
        [
            ("exact", "full", {"pnd_cutoffs": [2, 2], "domain": "time",
                               "windows": [[-2.0, 2.0], None, "empty"]}),
            ("log_series", "full", {"series_order": 6, "pnd_cutoffs": [2, 2]}),
            ("poisson", "loss", {"pnd_cutoffs": [2, 2], "domain": "time",
                                 "windows": [[-1.0, 1.0], None]}),
            ("hermite", "loss", {"pnd_cutoffs": [2]}),
            ("linear", "loss", {}),
            ("quadratic", "uniform", {}),
        ],
    )
    def test_run_succeeds_without_blocks(self, monkeypatch, method, pipeline, detection):
        from biphoton_sim._blocks import BlockMatrix

        def forbidden(self):
            raise AssertionError("run built a BlockMatrix")

        monkeypatch.setattr(BlockMatrix, "__post_init__", forbidden)
        cfg = base_config(detection={"method": method, **detection})
        cfg["sweep"] = {"parameter": "source.mu", "values": [0.05, 0.1]}
        cfg["source"].pop("gain")
        cfg["source"]["mu"] = 0.05
        if pipeline == "full":
            cfg["modes"] = ["signal", "idler", "anc"]
            cfg["pipeline"] = [
                {"type": "beam_splitter", "dofs": [0, 2], "transmittance": 0.9},
                {"type": "phase", "dof": 0, "tau_s": 1.2},
                {"type": "fourier", "dof": 0},
                {"type": "loss", "eta": {"1": 0.85}},
            ]
        else:
            eta = {"0": 0.9, "1": 0.9} if pipeline == "uniform" else {"1": 0.85}
            cfg["pipeline"] = [{"type": "loss", "eta": eta}]
        assert len(run_scenario(cfg)["rows"]) == 2


class TestPipelineDomains:
    """A mode takes one Fourier step on a uniform grid, and window errors
    name their `detection.windows` entry."""

    def _run(self, tmp_path, capsys, cfg):
        cfg_path = tmp_path / "domains.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["run", str(cfg_path)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("method", ["exact", "log_series"])
    def test_second_fourier_exit_code(self, tmp_path, capsys, method):
        # the kernel applied twice returns the mode to frequency, mirrored,
        # so the second step used to leave a mode labelled 'time' that was not
        cfg = base_config(detection={"method": method, "domain": "time",
                                     "windows": [[-1, 1], None]})
        cfg["pipeline"] = [{"type": "fourier", "dof": 0}, {"type": "fourier", "dof": 0}]
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 2
        assert "pipeline[1].dof" in err

    @pytest.mark.parametrize("method", ["exact", "log_series"])
    @pytest.mark.parametrize(
        "domain, windows, message",
        [
            ("time", [None, [-1.0, 1.0]], "detection.windows[1]: window domain 'time'"),
            ("frequency", [[500.0, 600.0], None],
             "detection.windows[0]: detection window lies outside the grid"),
        ],
    )
    def test_window_error_names_field(self, tmp_path, capsys, method, domain, windows, message):
        cfg = base_config(detection={"method": method, "domain": domain, "windows": windows})
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 3
        assert message in err

    @pytest.mark.parametrize("method", ["poisson", "linear"])
    @pytest.mark.parametrize("windows, k", [([[500.0, 600.0], None], 0),
                                            ([None, [500.0, 600.0]], 1)])
    def test_source_level_window_error_names_field(self, tmp_path, capsys, method, windows, k):
        cfg = base_config(detection={"method": method, "windows": windows})
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 3
        assert f"detection.windows[{k}]: detection window lies outside the grid" in err

    @staticmethod
    def _uneven_csv(tmp_path):
        from biphoton_sim import DiscretizedJsa, FrequencyGrid
        from biphoton_sim.spectral import _trapezoid_weights, save_jsa_csv

        pts = np.array([-9.0, -6.0, -3.5, -1.5, 0.0, 1.0, 3.0, 5.5, 9.0])
        w = _trapezoid_weights(pts)
        vals = np.exp(-np.add.outer(pts**2, (pts - 0.5) ** 2) / 4.0)
        vals /= math.sqrt(np.einsum("m,n,mn->", w, w, vals**2))
        grid = FrequencyGrid(pts, w)
        path = tmp_path / "uneven.csv"
        save_jsa_csv(DiscretizedJsa(grid, grid, vals), path)
        return str(path)

    def test_fourier_on_non_uniform_grid_names_step(self, tmp_path, capsys):
        cfg = {"source": {"process": "type2", "gain": 0.3,
                          "jsa": {"csv": self._uneven_csv(tmp_path)}},
               "pipeline": [{"type": "loss", "eta": {"1": 0.9}}, {"type": "fourier", "dof": 0}],
               "detection": {"method": "exact"}}
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 3
        assert "pipeline[1]: mode 0 ('signal'): grid is not uniform" in err

    @pytest.mark.parametrize("method", ["poisson", "linear"])
    def test_source_level_time_window_on_non_uniform_grid_names_field(self, tmp_path, capsys,
                                                                      method):
        # the implicit Fourier kernel of a bounded time window
        cfg = {"source": {"process": "type2", "gain": 0.3,
                          "jsa": {"csv": self._uneven_csv(tmp_path)}},
               "detection": {"method": method, "domain": "time",
                             "windows": [None, [-1.0, 1.0]]}}
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 3
        assert "detection.windows[1]: mode 1 ('idler'): grid is not uniform" in err

    @pytest.mark.parametrize("modes", [None, ["s", "i"]])
    def test_messages_name_modes_as_the_config_does(self, tmp_path, capsys, modes):
        # a source mode takes its name from `modes`; without it, 'signal' and
        # 'idler' as before
        signal, idler = modes or ("signal", "idler")
        source = {"process": "type2", "gain": 0.3, "jsa": {"csv": self._uneven_csv(tmp_path)}}
        cases = [
            (base_config(detection={"method": "exact", "domain": "time",
                                    "windows": [[-1.0, 1.0], None]}),
             f"detection.windows[0]: window domain 'time' does not match state domain "
             f"'frequency' on '{signal}'"),
            ({"source": source, "pipeline": [{"type": "fourier", "dof": 0}],
              "detection": {"method": "exact"}},
             f"pipeline[0]: mode 0 ('{signal}'): grid is not uniform"),
            ({"source": source, "detection": {"method": "poisson", "domain": "time",
                                              "windows": [None, [-1.0, 1.0]]}},
             f"detection.windows[1]: mode 1 ('{idler}'): grid is not uniform"),
        ]
        for cfg, message in cases:
            if modes is not None:
                cfg["modes"] = modes
            assert self._run(tmp_path, capsys, cfg) == (3, f"numeric domain error: {message}\n")


class TestRealJsa:
    """A real JSA runs on real Schmidt modes; its complex twin (the same
    samples stored complex) gives the same vacuum probabilities."""

    @staticmethod
    def _complex_twins(monkeypatch):
        from biphoton_sim import DiscretizedJsa, spectral

        for name in ("build_gaussian_jsa", "load_jsa_csv"):
            def twin(*args, _make=getattr(spectral, name)):
                jsa = _make(*args)
                assert jsa.values.dtype == np.float64
                return DiscretizedJsa(jsa.grid_signal, jsa.grid_idler, jsa.values.astype(complex))

            monkeypatch.setattr(spectral, name, twin)

    @pytest.mark.parametrize("method", ["exact", "log_series"])
    @pytest.mark.parametrize("source", ["readme", "csv"])
    def test_p_vac_matches_complex_twin(self, tmp_path, monkeypatch, method, source):
        if source == "readme":
            cfg = _readme_config(method)
            del cfg["detection"]["pnd_cutoffs"]
        else:
            cfg = {"source": {"process": "type2", "mu": 0.3,
                              "jsa": {"csv": str(_rectangular_csv(tmp_path))}},
                   "pipeline": [{"type": "loss", "eta": {"1": 0.7}}],
                   "detection": {"method": method}}
        cfg["detection"]["series_order"] = 12
        real = run_scenario(cfg)["raw"]
        self._complex_twins(monkeypatch)
        twin = run_scenario(cfg)["raw"]
        assert len(real) == len(twin)
        for a, b in zip(real, twin):
            assert a["p_vac"] == pytest.approx(b["p_vac"], rel=1e-14, abs=0)

    @pytest.mark.parametrize("method", ["exact", "log_series"])
    @pytest.mark.parametrize("steps, dtype", [([0, 3], np.float64), ([0, 1, 3], np.complex128)])
    def test_factor_real_until_phase(self, monkeypatch, method, steps, dtype):
        # a beam splitter and a loss keep a real factor real, so the grams,
        # eigvalsh and slogdet are real; a phase makes it complex
        from biphoton_sim import plan as plan_module

        cfg = _readme_config(method)
        cfg["pipeline"] = [cfg["pipeline"][k] for k in steps]
        cfg["detection"].update(domain="frequency", series_order=12)
        dtypes = []

        def recorded(*args, _push=plan_module._push_pipeline):
            out = _push(*args)
            dtypes.append(out[0].dtype)
            return out

        monkeypatch.setattr(plan_module, "_push_pipeline", recorded)
        real = run_scenario(cfg)
        assert dtypes == [dtype]
        self._complex_twins(monkeypatch)
        twin = run_scenario(cfg)
        assert dtypes[1] == np.complex128
        for a, b in zip(real["raw"], twin["raw"]):
            assert a["p_vac"] == pytest.approx(b["p_vac"], rel=1e-14, abs=0)
            for name in ("det_trunc_eigen", "det_trunc_hs"):  # log_series only
                if name in b["bounds"]:
                    assert a["bounds"][name] == pytest.approx(b["bounds"][name], rel=1e-13, abs=0)
        assert np.allclose(real["pnd"].probabilities, twin["pnd"].probabilities,
                           rtol=1e-13, atol=1e-18)


class TestSourceVacuumEntry:
    """A source-level run writes one vacuum value: P[0, ..., 0] of its table
    is its p_vac, bit for bit."""

    @pytest.mark.parametrize("method", ["poisson", "hermite"])
    @pytest.mark.parametrize("detection", [{"pnd_cutoffs": [3, 2]},
                                           {"pnd_cutoffs": [3], "detectors": [0, 0]}])
    @pytest.mark.parametrize("gain", [0.2, 0.54, 0.86])  # 0.54, 0.86 used to differ
    def test_vacuum_entry_is_p_vac(self, tmp_path, method, detection, gain):
        cfg = base_config(detection={"method": method, **detection})
        cfg["source"]["gain"] = gain
        cfg["pipeline"] = [{"type": "loss", "eta": {"0": 0.83}}]
        cfg["output"] = {"csv_path": str(tmp_path / "out.csv"),
                         "pnd_csv_path": str(tmp_path / "pnd.csv")}
        cfg_path = tmp_path / "vacuum.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", str(cfg_path)]) == 0
        header, rows = read_csv(tmp_path / "out.csv")
        _, table = read_csv(tmp_path / "pnd.csv")
        assert all(n == "0" for n in table[0][:-1])
        assert table[0][-1] == rows[0][header.index("p_vac")]


class TestSinglePairFactor:
    """`poisson` and `linear` take the single-pair probabilities from the
    pushed, masked Schmidt factor, as `exact` and `log_series` take their
    grams; the dense integrals over the JSA of
    `oracle.poisson_params_reference` are the reference.  The factor drops
    the Schmidt modes below `lambda_floor`, which moves p_si by up to about
    1e-11 relative when a bounded window cuts the JSA."""

    WINDOWS = {"unbounded": [None, None], "bounded": [[-1.0, 2.0], [-3.0, 0.5]],
               "empty": ["empty", [-3.0, 0.5]]}

    @pytest.mark.parametrize("process, detectors", [("type2", [0, 1]), ("type2", [0, 0]),
                                                    ("type0i", [0])])
    @pytest.mark.parametrize("domain", ["frequency", "time"])
    @pytest.mark.parametrize("windows", ["unbounded", "bounded", "empty"])
    def test_matches_dense_reference(self, process, detectors, domain, windows):
        from biphoton_sim import (
            DetectionProjection,
            DetectionWindow,
            GaussianJsaModel,
            ProcessType,
            build_gaussian_jsa,
            default_grids,
            pnd,
            vacuum_probability,
        )
        from biphoton_sim.scenario import _shared_detector
        from biphoton_sim.oracle import poisson_params_reference

        model = GaussianJsaModel(1.0, 3.0)
        jsa = build_gaussian_jsa(
            model, *default_grids(model, extent_sigmas=5.2, points_per_width=3.0)
        )
        n_modes = len(detectors)
        etas = (0.9, 0.7)[:n_modes]
        window_cfg = self.WINDOWS[windows][:n_modes]
        reference_windows = DetectionProjection(tuple(
            None if w == "empty" else DetectionWindow(*(w or (-math.inf, math.inf)), domain)
            for w in window_cfg
        ))
        gain = 0.6
        reference = poisson_params_reference(jsa, etas, reference_windows, gain,
                                             ProcessType(process))
        for method in ("poisson", "linear"):
            detection = {"method": method, "domain": domain, "windows": window_cfg,
                         "detectors": detectors}
            if method == "poisson":
                detection["pnd_cutoffs"] = [3]
            cfg = base_config(detection=detection, pipeline=[
                {"type": "loss", "eta": {str(k): eta for k, eta in enumerate(etas)}}
            ])
            cfg["source"].update(process=process, gain=gain)
            result = run_scenario(cfg)
            expected = (vacuum_probability(reference) if method == "poisson"
                        else 1.0 - reference.mu * reference.p_union)
            assert result["raw"][0]["p_vac"] == pytest.approx(expected, rel=1e-10, abs=0)
            if method == "poisson":
                table = pnd(reference, [3, 3])
                if detectors == [0] * n_modes:
                    table = _shared_detector(table)
                p, p_ref = result["pnd"].probabilities, table.probabilities
                assert np.max(np.abs(p - p_ref)) <= 1e-10 * np.max(p_ref)

    def test_time_windowed_poisson_reads_the_jsa_once(self, monkeypatch):
        # the Schmidt SVD is the only reader of the sampled JSA
        from biphoton_sim.spectral import DiscretizedJsa

        calls = []
        symmetrized = DiscretizedJsa.symmetrized

        def counted(self):
            calls.append(self)
            return symmetrized(self)

        monkeypatch.setattr(DiscretizedJsa, "symmetrized", counted)
        cfg = base_config(detection={"method": "poisson", "domain": "time",
                                     "windows": [[-1.0, 1.0], None], "pnd_cutoffs": [2, 2]})
        run_scenario(cfg)
        assert len(calls) == 1


class TestPoissonClaimAsWritten:
    """The paper's claim at the expansion's own order 1, on the p_vac that
    `run` writes: lossless and unwindowed, `poisson` writes exp(-x) and
    `linear` 1 - x with x = mu p_union, mu = gain^2 / 4 (type-0/I: / 2), and
    ln cosh y <= y^2 / 2 puts the exact value at or above exp(-x), while
    exp(-x) >= 1 - x.  So linear <= poisson <= exact, and Poisson is the
    closer of the two."""

    @pytest.mark.filterwarnings("ignore:single-pair vacuum probability is negative")
    @settings(max_examples=40, deadline=None)
    @given(process=st.sampled_from(["type2", "type0i"]),
           aspect=st.floats(1.0, 12.0),
           fraction=st.floats(0.01, 0.95))
    def test_linear_poisson_exact_ordering(self, process, aspect, fraction):
        from biphoton_sim import SqueezingSpectrum, mean_pairs
        from biphoton_sim.scenario import _build_source

        cfg = base_config(detection={"method": "exact"})
        cfg["source"]["jsa"]["gaussian"]["delta_minus_rad_s"] = aspect
        cfg["source"]["process"] = process
        cfg["grid"] = {"extent_sigmas": 6.0, "points_per_width": 2.0}
        # mu below the edge of det_trunc_eigen_n2, where the largest
        # covariance eigenvalue (e^sigma_1 - 1)/2 reaches 1 and `poisson`
        # exits 3: sigma_1 = ln 3, and sigma_1 is linear in the gain
        decompose, _, _, kind = _build_source(cfg)
        schmidt = decompose()
        sigma_1 = SqueezingSpectrum.from_schmidt(schmidt, 1.0, kind).sigmas[0]
        edge = mean_pairs(SqueezingSpectrum.from_schmidt(schmidt, math.log(3.0) / sigma_1, kind))
        del cfg["source"]["gain"]
        cfg["source"]["mu"] = fraction * edge
        p_vac = {}
        for method in ("exact", "poisson", "linear"):
            cfg["detection"] = {"method": method}
            p_vac[method] = first_row(run_scenario(cfg))["p_vac"]
        exact, poisson, linear = (float(p_vac[m]) for m in ("exact", "poisson", "linear"))
        assert linear <= poisson <= exact
        assert abs(exact - poisson) <= abs(exact - linear)


class TestCheckedBeforeTheRun:
    """`detection.series_order` is checked for every method, and `output` is
    checked before the source is built, so a bad path or a PND table with no
    path to go to exits 2 without an SVD."""

    @staticmethod
    def _run(tmp_path, capsys, monkeypatch, cfg):
        from biphoton_sim import spectral

        decomposed = []

        def recorded(*args, _svd=spectral.schmidt_decompose, **kwargs):
            decomposed.append(True)
            return _svd(*args, **kwargs)

        monkeypatch.setattr(spectral, "schmidt_decompose", recorded)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code = main(["run", "cfg.json"])
        return code, capsys.readouterr().err, bool(decomposed)

    @pytest.mark.parametrize("method, order", [
        ("exact", "abc"), ("exact", -3), ("exact", None), ("poisson", [1]),
        ("linear", 0), ("hermite", 2.5), ("quadratic", True), ("log_series", 1.5),
    ])
    def test_malformed_series_order_exits_2(self, tmp_path, capsys, monkeypatch, method, order):
        cfg = base_config(detection={"method": method, "series_order": order})
        code, err, _ = self._run(tmp_path, capsys, monkeypatch, cfg)
        assert code == 2
        assert "detection.series_order" in err
        assert not (tmp_path / "scenario.csv").exists()

    @pytest.mark.parametrize("method", ["exact", "poisson", "hermite"])
    def test_valid_series_order_is_accepted_and_unused(self, tmp_path, capsys, monkeypatch,
                                                        method):
        cfg = base_config(detection={"method": method})
        assert self._run(tmp_path, capsys, monkeypatch, cfg)[0] == 0
        plain = (tmp_path / "scenario.csv").read_text()
        cfg["detection"]["series_order"] = 3
        assert self._run(tmp_path, capsys, monkeypatch, cfg)[0] == 0
        assert (tmp_path / "scenario.csv").read_text() == plain

    @pytest.mark.parametrize("method", ["exact", "log_series", "poisson", "hermite"])
    def test_pnd_cutoffs_need_a_pnd_csv_path(self, tmp_path, capsys, monkeypatch, method):
        cfg = base_config(detection={"method": method, "pnd_cutoffs": [2, 2]},
                          output={"csv_path": "out.csv"})
        code, err, decomposed = self._run(tmp_path, capsys, monkeypatch, cfg)
        assert code == 2
        assert err.startswith("configuration error: output.pnd_csv_path")
        assert not decomposed
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]
        # the library still returns the table
        assert run_scenario(cfg)["pnd"].probabilities.shape == (3, 3)

    @pytest.mark.parametrize("detection, message", [
        ({"method": "linear", "pnd_cutoffs": [2, 2]},
         "detection.pnd_cutoffs: method 'linear' gives no photon-number distribution"),
        ({"method": "quadratic", "pnd_cutoffs": [2]},
         "detection.pnd_cutoffs: method 'quadratic' gives no photon-number distribution"),
        ({"method": "exact", "pnd_cutoffs": [2, 2, 2]},
         "detection.pnd_cutoffs: expected one cutoff per detector (2)"),
        ({"method": "poisson", "detectors": [1, 0], "pnd_cutoffs": [2, 2]},
         "detection.detectors: source-level methods take one detector per source mode"),
    ])
    def test_a_table_that_cannot_be_made_is_named_before_the_path(
            self, tmp_path, capsys, monkeypatch, detection, message):
        # with no pnd_csv_path, the fault in the request itself is reported
        cfg = base_config(detection=detection, output={"csv_path": "out.csv"})
        code, err, decomposed = self._run(tmp_path, capsys, monkeypatch, cfg)
        assert code == 2
        assert err.startswith(f"configuration error: {message}")
        assert not decomposed

    def test_empty_cutoffs_ask_for_no_table(self, tmp_path, capsys, monkeypatch):
        cfg = base_config(detection={"pnd_cutoffs": []}, output={"csv_path": "out.csv"})
        code, _, decomposed = self._run(tmp_path, capsys, monkeypatch, cfg)
        assert code == 0 and decomposed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out.csv"]

    @pytest.mark.parametrize("output, field", [
        ({"csv_path": 5}, "output.csv_path"),
        ({"csv_path": ""}, "output.csv_path"),
        ({"pnd_csv_path": []}, "output.pnd_csv_path"),
        ("out.csv", "output"),
    ])
    def test_bad_output_exits_2_before_the_svd(self, tmp_path, capsys, monkeypatch, output,
                                               field):
        cfg = base_config(output=output)
        code, err, decomposed = self._run(tmp_path, capsys, monkeypatch, cfg)
        assert code == 2
        assert err.startswith(f"configuration error: {field}:")
        assert not decomposed

    def test_pnd_csv_path_without_cutoffs_writes_no_table(self, tmp_path, capsys, monkeypatch):
        cfg = base_config(output={"csv_path": "out.csv", "pnd_csv_path": "pnd.csv"})
        code, _, decomposed = self._run(tmp_path, capsys, monkeypatch, cfg)
        assert code == 0 and decomposed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out.csv"]

    @pytest.mark.parametrize("pipeline, detection, code, message", [
        ([{"type": "mirror"}], {}, 2, "pipeline[0].type: unknown transform 'mirror'"),
        ([{"type": "loss", "eta": {"0": 0.9}, "etta": 0.9}], {}, 2,
         "pipeline[0].etta: unknown field"),
        ([{"type": "phase", "dof": 2}], {}, 2, "pipeline[0].dof: mode index 2 out of range"),
        ([{"type": "beam_splitter", "dofs": [0, 1], "transmittance": 0.9, "reflectance": 0.9}],
         {}, 2, "pipeline[0]: transmittance and reflectance must satisfy T^2 + R^2 = 1"),
        ([{"type": "beam_splitter", "dofs": [1, 1], "transmittance": 0.9}], {}, 2,
         "pipeline[0].dofs: expected two distinct modes of one grid size, got modes 1 and 1"),
        ([{"type": "fourier", "dof": 0}, {"type": "fourier", "dof": 0}],
         {"domain": "time", "windows": [[-1.0, 1.0], None]}, 2,
         "pipeline[1].dof: mode 0 is already in the time domain; "
         "a mode takes at most one 'fourier' step"),
        ([{"type": "loss", "eta": {"1": 1.5}}], {}, 2,
         "pipeline[0].eta: expected a number >= 0 and <= 1"),
        ([], {"domain": "time", "windows": [[-1.0, 1.0], None]}, 3,
         "detection.windows[0]: window domain 'time' does not match state domain "
         "'frequency' on 'signal'"),
        ([{"type": "fourier", "dof": 1}], {"windows": [None, [-1.0, 1.0]]}, 3,
         "detection.windows[1]: window domain 'frequency' does not match state domain "
         "'time' on 'idler'"),
        ([{"type": "loss", "eta": {"0": 0.9}}], {"method": "quadratic"}, 2,
         "pipeline: the quadratic method needs a uniform loss"),
    ], ids=["unknown-type", "unknown-field", "dof-range", "mixing", "same-mode-splitter",
            "second-fourier", "loss-above-1", "time-window-on-frequency",
            "frequency-window-on-time", "quadratic-non-uniform-loss"])
    def test_pipeline_and_window_errors_exit_before_the_svd(
            self, tmp_path, capsys, monkeypatch, pipeline, detection, code, message):
        # the pipeline is parsed once, before the source is built; only the
        # checks that need a grid wait for it
        cfg = base_config(pipeline=pipeline, detection={"method": "exact", **detection})
        got, err, decomposed = self._run(tmp_path, capsys, monkeypatch, cfg)
        assert got == code
        kind = "configuration error" if code == 2 else "numeric domain error"
        assert err.startswith(f"{kind}: {message}")
        assert not decomposed

    def test_ancilla_window_domain_names_the_ancilla(self, tmp_path, capsys, monkeypatch):
        cfg = base_config(modes=["signal", "idler", "anc"],
                          pipeline=[{"type": "beam_splitter", "dofs": [0, 2], "transmittance": 0.9}],
                          detection={"method": "exact", "domain": "time",
                                     "windows": [None, None, [-1.0, 1.0]]})
        code, err, decomposed = self._run(tmp_path, capsys, monkeypatch, cfg)
        assert code == 3
        assert err.startswith("numeric domain error: detection.windows[2]: window domain 'time' "
                              "does not match state domain 'frequency' on 'anc'")
        assert not decomposed


def _with(cfg, path, value):
    """`cfg` with the field at the dotted `path` (list indices as digits) set."""
    cfg = json.loads(json.dumps(cfg))
    *outer, last = [int(k) if k.isdigit() else k for k in path.split(".")]
    node = cfg
    for key in outer:
        node = node[key]
    node[last] = value
    return cfg


class TestNumbersOnly:
    """A numeric field takes a JSON number: a numeric string, which int() or
    float() would convert, exits 2 and names the field."""

    _PIPELINE = [
        {"type": "beam_splitter", "dofs": [0, 2], "transmittance": 0.9},
        {"type": "phase", "dof": 0, "phi0_rad": 0.0, "tau_s": 1.2, "beta_l_s2": 0.0},
        {"type": "fourier", "dof": 0},
        {"type": "loss", "eta": {"1": 0.85}},
    ]

    def _config(self):
        return base_config(
            modes=["signal", "idler", "anc"], pipeline=self._PIPELINE,
            detection={"method": "log_series", "series_order": 4, "domain": "time",
                       "windows": [[-3.0, 3.0], None, "empty"], "pnd_cutoffs": [2, 2],
                       "detectors": [0, 1, None]},
            output={"csv_path": "out.csv", "pnd_csv_path": "pnd.csv"})

    @pytest.mark.parametrize("path, value, field", [
        ("detection.series_order", "8", "detection.series_order"),
        ("source.gain", "0.4", "source.gain"),
        ("grid.points_per_width", "2", "grid.points_per_width"),
        ("grid.extent_sigmas", "5.2", "grid.extent_sigmas"),
        ("source.jsa.gaussian.delta_plus_rad_s", "1.0", "source.jsa.gaussian.delta_plus_rad_s"),
        ("source.jsa.gaussian.delta_minus_rad_s", "3", "source.jsa.gaussian.delta_minus_rad_s"),
        ("source.jsa.gaussian.center_idler_rad_s", "0", "source.jsa.gaussian.center_idler_rad_s"),
        ("pipeline.0.transmittance", "0.9", "pipeline[0].transmittance"),
        ("pipeline.0.dofs", ["0", 2], "pipeline[0].dofs"),
        ("pipeline.1.dof", "0", "pipeline[1].dof"),
        ("pipeline.1.tau_s", "1.2", "pipeline[1].tau_s"),
        ("pipeline.3.eta", {"1": "0.85"}, "pipeline[3].eta"),
        ("detection.windows.0", ["-3", 3.0], "detection.windows[0]"),
        ("detection.pnd_cutoffs", ["2", 2], "detection.pnd_cutoffs"),
    ])
    def test_numeric_string_exits_2(self, tmp_path, capsys, monkeypatch, path, value, field):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(_with(self._config(), path, value)))
        assert main(["run", "cfg.json"]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {field}: expected")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("source, field", [
        ({"mu": "0.1"}, "source.mu"),
        ({"sweep": ["0.1"]}, "sweep.values[0]"),
    ])
    def test_numeric_string_mu_exits_2(self, tmp_path, capsys, monkeypatch, source, field):
        cfg = self._config()
        del cfg["source"]["gain"]
        if "mu" in source:
            cfg["source"]["mu"] = source["mu"]
        else:
            cfg["sweep"] = {"parameter": "source.mu", "values": source["sweep"]}
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["run", "cfg.json"]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {field}: expected")

    def test_numbers_and_decimal_mode_keys_still_run(self, tmp_path, monkeypatch):
        # a loss names its modes by JSON object keys, which are strings
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(self._config()))
        assert main(["run", "cfg.json"]) == 0

    @pytest.mark.parametrize("name, overrides, field", [
        ("fig3", {"mu_max": "2.0"}, "--overrides.mu_max"),
        ("fig1", {"order": "2"}, "--overrides.order"),
        ("fig1", {"mus": ["0.01"]}, "--overrides.mus[0]"),
        ("fig4", {"eta": "1"}, "--overrides.eta"),
    ])
    def test_numeric_string_override_exits_2(self, tmp_path, capsys, name, overrides, field):
        argv = ["figure", name, "--out", str(tmp_path), "--overrides", json.dumps(overrides)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {field}: expected")
        assert not (tmp_path / f"{name}.csv").exists()
