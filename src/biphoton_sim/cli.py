"""Scenario runner and figure-data emitter.

`biphoton-sim run <config.json>` executes a source -> transforms -> detection
pipeline described by a JSON document and writes CSV results, attaching the
applicable error-bound columns so every approximate number ships with its
certificate.  `biphoton-sim figure <name>` regenerates the four reference
datasets (determinant-truncation bound, covariance-truncation bound, vacuum
probability closed forms, approximation errors).  `biphoton-sim schmidt`
prints the Schmidt spectrum of a JSA stored as CSV.

CSV output is RFC 4180 with '.' decimals and 17 significant digits; figure
metadata goes to a JSON sidecar.  Exit codes: 0 success, 2 configuration
error, 3 numeric domain error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from . import detection as det
from . import spectral, transforms
from ._blocks import BlockMatrix
from .covariance import (
    Dof,
    ProcessType,
    SqueezingSpectrum,
    build_covariance_exact,
    covariance_eigenvalues,
    gain_for_mean_pairs,
    mean_pairs,
    norms,
)
from .spectral import GaussianJsaModel

__all__ = ["ConfigError", "run_scenario", "figure_data", "write_figure", "main"]

FIGURES = ("fig1", "fig2", "fig3", "fig4")


class ConfigError(ValueError):
    """Invalid scenario configuration; the message carries the field path."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _require(cfg: dict, path: str, typ=None):
    node = cfg
    walked = []
    for key in path.split("."):
        walked.append(key)
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"{'.'.join(walked)}: missing required field")
        node = node[key]
    if typ is not None and not isinstance(node, typ):
        raise ConfigError(f"{path}: expected {typ.__name__}")
    return node


def _process(tag: str, path: str) -> ProcessType:
    try:
        return ProcessType(tag)
    except ValueError:
        raise ConfigError(f"{path}: must be 'type0i' or 'type2'") from None


def _build_source(cfg: dict):
    """Source construction: JSA, Schmidt spectrum, gain and exact covariance."""
    source = _require(cfg, "source", dict)
    process = _process(_require(cfg, "source.process", str), "source.process")
    jsa_cfg = _require(cfg, "source.jsa", dict)
    grid_cfg = cfg.get("grid", {})
    if "gaussian" in jsa_cfg:
        g = jsa_cfg["gaussian"]
        try:
            model = GaussianJsaModel(
                delta_plus=float(g["delta_plus_rad_s"]),
                delta_minus=float(g["delta_minus_rad_s"]),
                center_signal=float(g.get("center_signal_rad_s", 0.0)),
                center_idler=float(g.get("center_idler_rad_s", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"source.jsa.gaussian: {exc}") from None
        grid_s, grid_i = spectral.default_grids(
            model,
            extent_sigmas=float(grid_cfg.get("extent_sigmas", 6.0)),
            points_per_width=float(grid_cfg.get("points_per_width", 8.0)),
        )
        jsa = spectral.build_gaussian_jsa(model, grid_s, grid_i)
    elif "csv" in jsa_cfg:
        jsa = spectral.load_jsa_csv(jsa_cfg["csv"])
    else:
        raise ConfigError("source.jsa: provide either 'gaussian' or 'csv'")
    schmidt = spectral.schmidt_decompose(jsa)
    if "gain" in source and "mu" in source:
        raise ConfigError("source: give either 'gain' or 'mu', not both")
    if "gain" in source:
        gain = float(source["gain"])
        if gain < 0:
            raise ConfigError("source.gain: must be non-negative")
    elif "mu" in source:
        gain = gain_for_mean_pairs(schmidt, float(source["mu"]), process)
    else:
        raise ConfigError("source: missing 'gain' or 'mu'")
    return jsa, schmidt, gain, process


_SOURCE_METHODS = ("poisson", "hermite", "linear", "quadratic")
_METHODS = ("exact", "log_series") + _SOURCE_METHODS


def _source_dofs(schmidt, process: ProcessType) -> tuple:
    """The source modes, named and ordered as in its covariance."""
    if process is ProcessType.TYPE_0I:
        return (Dof("mode", schmidt.grid_signal),)
    return (Dof("signal", schmidt.grid_signal), Dof("idler", schmidt.grid_idler))


def _pipeline_transform(cfg, m_total: int, grid) -> transforms.SymplecticTransform:
    """Compose the pipeline entries, first applied first, into one transform
    over all modes; the identity when the pipeline is empty."""
    n = grid.n
    sizes = (n,) * m_total
    built = []
    current_grids = {i: grid for i in range(m_total)}
    for k, entry in enumerate(cfg.get("pipeline", [])):
        path = f"pipeline[{k}]"
        if not isinstance(entry, dict) or "type" not in entry:
            raise ConfigError(f"{path}: each entry needs a 'type'")
        kind = entry["type"]
        if kind == "phase":
            dof = int(entry.get("dof", 0))
            if not 0 <= dof < m_total:
                raise ConfigError(f"{path}.dof: out of range")
            built.append(
                transforms.phase_shift(
                    float(entry.get("phi0_rad", 0.0)),
                    float(entry.get("tau_s", 0.0)),
                    float(entry.get("beta_l_s2", 0.0)),
                    current_grids[dof],
                    dof,
                    m_total,
                    sizes=sizes,
                )
            )
        elif kind == "fourier":
            dof = int(entry.get("dof", 0))
            if not 0 <= dof < m_total:
                raise ConfigError(f"{path}.dof: out of range")
            t, current_grids[dof] = transforms.fourier(
                current_grids[dof], dof, m_total, sizes=sizes
            )
            built.append(t)
        elif kind == "beam_splitter":
            dofs = entry.get("dofs")
            if not isinstance(dofs, (list, tuple)) or len(dofs) != 2:
                raise ConfigError(f"{path}.dofs: expected a pair of mode indices")
            t_coef = entry.get("transmittance")
            if t_coef is None:
                raise ConfigError(f"{path}.transmittance: missing")
            t_coef = float(t_coef)
            r_coef = float(entry.get("reflectance", math.sqrt(max(0.0, 1.0 - t_coef**2))))
            try:
                built.append(
                    transforms.beam_splitter(
                        t_coef, r_coef, (int(dofs[0]), int(dofs[1])), m_total, n=n
                    )
                )
            except ValueError as exc:
                raise ConfigError(f"{path}: {exc}") from None
        elif kind == "loss":
            entries = [1.0] * (2 * m_total)
            for key, val in entry.get("eta", {}).items():
                idx = int(key)
                if not 0 <= idx < m_total:
                    raise ConfigError(f"{path}.eta: mode index {idx} out of range")
                val = float(val)
                if not 0 <= val <= 1:
                    raise ConfigError(f"{path}.eta: transmittivity outside [0, 1]")
                entries[idx] = entries[m_total + idx] = val
            mat = BlockMatrix.diagonal(entries, sizes * 2)
            built.append(transforms.SymplecticTransform(mat, m_total, m_total))
        else:
            raise ConfigError(f"{path}.type: unknown transform '{kind}'")
    if not built:
        identity = BlockMatrix.identity(sizes * 2)
        return transforms.SymplecticTransform(identity, m_total, m_total)
    return transforms.compose_all(built)


def _sweep_mus(config) -> list:
    """The swept mean pair numbers, or [None] for a single run."""
    sweep = config.get("sweep")
    if sweep is None:
        return [None]
    values = sweep.get("values")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep.values: expected a non-empty list")
    if sweep.get("parameter") != "source.mu":
        raise ConfigError("sweep.parameter: only 'source.mu' sweeps are supported")
    return [float(v) for v in values]


def run_scenario(config: dict) -> dict:
    """Execute one scenario; returns columns, rows and optional PND tables.

    The source, pipeline and detection are planned once; each sweep point
    then does only the gain-dependent work.  The PND table belongs to the
    first sweep point.
    """
    if not isinstance(config, dict):
        raise ConfigError("config: expected a JSON object")
    jsa, schmidt, gain, process = _build_source(config)
    detection_cfg = _require(config, "detection", dict)
    method = detection_cfg.get("method", "log_series")
    if method not in _METHODS:
        raise ConfigError(f"detection.method: unknown method '{method}'")
    mus = _sweep_mus(config)
    cutoffs = [int(c) for c in detection_cfg.get("pnd_cutoffs") or ()]
    if method == "exact":
        step = _exact_step(config, schmidt, cutoffs)
    elif method == "log_series":
        step = _log_series_step(config, jsa, schmidt, process, detection_cfg, cutoffs)
    else:
        step = _source_step(config, jsa, schmidt, process, method, detection_cfg, cutoffs)

    results = []
    for k, mu in enumerate(mus):
        point_gain = gain if mu is None else gain_for_mean_pairs(schmidt, mu, process)
        sq = SqueezingSpectrum.from_schmidt(schmidt, point_gain, process)
        p_vac, bounds, pnd = step(point_gain, sq, with_pnd=k == 0)
        point_mu = mean_pairs(sq)
        upper, lower = bounds_mod.vacuum_range(point_mu, process)
        bounds.update(vacuum_range_upper=upper, vacuum_range_lower=lower)
        results.append(
            {"mu": point_mu, "gain": point_gain, "p_vac": p_vac, "bounds": bounds, "pnd": pnd}
        )

    bound_names = sorted(results[0]["bounds"])
    rows = [
        [_fmt(res["mu"] if mu is None else mu), _fmt(res["gain"]), method, _fmt(res["p_vac"])]
        + [_fmt(res["bounds"][name]) for name in bound_names]
        for mu, res in zip(mus, results)
    ]
    return {
        "columns": ["mu", "gain", "method", "p_vac"] + bound_names,
        "rows": rows,
        "pnd": results[0]["pnd"],
        "raw": results,
    }


def _detection_windows(detection_cfg, n_dofs, path="detection.windows"):
    windows_cfg = detection_cfg.get("windows")
    if windows_cfg is None:
        return transforms.DetectionProjection.full(n_dofs)
    if not isinstance(windows_cfg, list) or len(windows_cfg) != n_dofs:
        raise ConfigError(f"{path}: expected one entry per detected mode ({n_dofs})")
    domain = detection_cfg.get("domain", "frequency")
    out = []
    for k, w in enumerate(windows_cfg):
        if w is None:
            out.append(transforms.DetectionWindow.unbounded(domain))
        elif w == "empty":
            out.append(None)
        elif isinstance(w, list) and len(w) == 2:
            lo = -math.inf if w[0] is None else float(w[0])
            hi = math.inf if w[1] is None else float(w[1])
            try:
                out.append(transforms.DetectionWindow(lo, hi, domain))
            except ValueError as exc:
                raise ConfigError(f"{path}[{k}]: {exc}") from None
        else:
            raise ConfigError(f"{path}[{k}]: expected null, 'empty' or [lo, hi]")
    return transforms.DetectionProjection(tuple(out))


# Each *_step function plans one detection method and returns
# step(gain, sq, with_pnd), which evaluates one sweep point as
# (p_vac, bounds, pnd or None).


def _exact_step(config, schmidt, cutoffs):
    if config.get("pipeline"):
        raise ConfigError("pipeline: 'exact' supports pipeline-free scenarios")

    def step(gain, sq, with_pnd):
        pnd = det.pnd(det.ExactProductGf(sq), cutoffs) if with_pnd and cutoffs else None
        bounds = {"truncation_tail": schmidt.truncation_tail}
        return det.vacuum_probability(sq, "exact"), bounds, pnd

    return step


def _source_step(config, jsa, schmidt, process, method, detection_cfg, cutoffs):
    """Source-level methods: per-mode transmittivities of a loss-only pipeline."""
    if any(not isinstance(e, dict) or e.get("type") != "loss" for e in config.get("pipeline", [])):
        raise ConfigError("pipeline: source-level methods support loss-only pipelines")
    n_dofs = len(_source_dofs(schmidt, process))
    diagonal = _pipeline_transform(config, n_dofs, jsa.grid_signal).mat.blocks
    etas = [float(diagonal[i][i]) for i in range(n_dofs)]
    if method == "quadratic" and len(set(etas)) > 1:
        raise ConfigError("pipeline: the quadratic method needs a uniform loss")
    windows = _detection_windows(detection_cfg, n_dofs)
    loss = transforms.LossProfile(tuple(etas))
    eta_best2 = max(e * e for e in etas)
    k_number = spectral.schmidt_number(schmidt)

    def step(gain, sq, with_pnd):
        params = det.poisson_params(jsa, loss, windows, gain, process)
        bounds = {}
        gf = None
        if method == "poisson":
            p_vac = det.vacuum_probability(params, "poisson")
            bounds["poisson_vs_n2"] = bounds_mod.poisson_vs_n2_bound(
                gain, k_number, etas if n_dofs == 2 else etas[0], process
            ).value
            bounds["det_trunc_eigen_n2"] = bounds_mod.det_truncation_bound_eigen(
                covariance_eigenvalues(sq), eta_best2, 2
            ).value
            gf = params
        elif method == "linear":
            p_vac = det.vacuum_probability(params, "linear")
        elif method == "hermite":
            hp = det.hermite_params(gain, k_number, process)
            p_vac = det.vacuum_probability(hp, "hermite")
            bounds["det_trunc_eigen_n4"] = bounds_mod.det_truncation_bound_eigen(
                covariance_eigenvalues(sq), eta_best2, 4
            ).value
            gf = det.hermite_params(gain, k_number, process, etas[0] ** 2, etas[-1] ** 2)
        else:
            qp = det.QuadraticParams(schmidt, gain, etas[0], process)
            p_vac = det.vacuum_probability(qp, "quadratic")
        pnd = det.pnd(gf, cutoffs) if with_pnd and cutoffs and gf is not None else None
        return p_vac, bounds, pnd

    return step


def _log_series_step(config, jsa, schmidt, process, detection_cfg, cutoffs):
    """Log-series detection over an arbitrary pipeline.

    The pipeline is composed and compressed once, and so is the detected
    gram s^dag P s; each point multiplies the gram by its covariance.  The
    gram's largest eigenvalue is the loss factor of both determinant
    bounds: by Ostrowski's congruence theorem every eigenvalue of
    s^dag P s Gamma is theta_k lambda_k(Gamma) with
    0 <= theta_k <= lambda_max(s^dag P s), however the pipeline mixes modes.
    """
    source_dofs = _source_dofs(schmidt, process)
    n_source = len(source_dofs)
    mode_names = config.get("modes")
    if mode_names is None:
        mode_names = [d.name for d in source_dofs]
    if len(mode_names) < n_source:
        raise ConfigError("modes: must include at least the source modes")
    m_total = len(mode_names)
    reduced = transforms.compress(
        _pipeline_transform(config, m_total, jsa.grid_signal), n_source
    )
    out_dofs = transforms.output_dofs(reduced, source_dofs, names=mode_names)
    windows = _detection_windows(detection_cfg, m_total)
    gram = transforms.detected_gram(reduced, windows, out_dofs)
    eta2 = float(np.linalg.eigvalsh(gram.to_dense())[-1])
    order = int(detection_cfg.get("series_order", 8))
    detectors_cfg = detection_cfg.get("detectors")
    if detectors_cfg is None:
        detectors = list(range(min(2, m_total))) + [None] * max(0, m_total - 2)
    else:
        detectors = [None if d is None else int(d) for d in detectors_cfg]

    def step(gain, sq, with_pnd):
        gamma = build_covariance_exact(schmidt, gain, process)
        p_vac = det.vacuum_probability(gram @ gamma.mat, "log_series", order=order)
        nrm = norms(sq)
        bounds = {
            "det_trunc_eigen": bounds_mod.det_truncation_bound_eigen(
                covariance_eigenvalues(sq), eta2, order
            ).value,
            "det_trunc_hs": bounds_mod.det_truncation_bound_hs(
                nrm.largest_abs_eigenvalue, nrm.hs_norm**2, eta2, order
            ).value,
        }
        pnd = None
        if with_pnd and cutoffs:
            parts = det.detector_parts_compressed(reduced, windows, gamma, detectors, out_dofs)
            pnd = det.pnd(det.log_series_gf(parts, order), cutoffs)
        return p_vac, bounds, pnd

    return step


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


def _fig_mu_to_sigma(mu: float, process: ProcessType) -> float:
    if process is ProcessType.TYPE_0I:
        return 2.0 * math.asinh(math.sqrt(2.0 * mu))
    return 2.0 * math.asinh(math.sqrt(mu))


def _gaussian_sq(aspect: float, mu: float, j_max_floor: float = 1e-16):
    """Analytic squeezing spectrum of a type-II Gaussian source at mean mu."""
    zeta = (aspect - 1.0) / (aspect + 1.0)
    z = zeta * zeta
    if z == 0:
        j_max = 1
    else:
        j_max = max(1, int(math.ceil(math.log(j_max_floor) / math.log(z))) + 1)
    schmidt = spectral.analytic_gaussian_schmidt(aspect, j_max)
    gain = gain_for_mean_pairs(schmidt, mu, ProcessType.TYPE_II)
    return SqueezingSpectrum.from_schmidt(schmidt, gain, ProcessType.TYPE_II), schmidt, gain


def figure_data(name: str, points: int | None = None, overrides: dict | None = None):
    """Rows of one reference figure; returns (columns, rows, metadata)."""
    overrides = dict(overrides or {})
    if name == "fig3":
        n = points or 301
        mus = np.linspace(0.0, float(overrides.get("mu_max", 3.0)), n)
        columns = ["mu", "poisson", "single_mode_type0i", "single_mode_type2", "linear"]
        rows = []
        for mu in mus:
            params = det.PoissonParams(mu, 1.0, 1.0, 1.0)
            poisson = det.vacuum_probability(params, "poisson")
            if mu > 0:
                sq0 = SqueezingSpectrum(
                    np.array([_fig_mu_to_sigma(mu, ProcessType.TYPE_0I)]),
                    ProcessType.TYPE_0I,
                    gain=1.0,
                )
                sq2 = SqueezingSpectrum(
                    np.array([_fig_mu_to_sigma(mu, ProcessType.TYPE_II)]),
                    ProcessType.TYPE_II,
                    gain=1.0,
                )
                exact_0i = det.vacuum_probability(sq0, "exact")
                exact_2 = det.vacuum_probability(sq2, "exact")
            else:
                exact_0i = exact_2 = 1.0
            with np.errstate(all="ignore"):
                linear = 1.0 - mu
            rows.append([mu, poisson, exact_0i, exact_2, linear])
        meta = {"x": "mu", "windows": "unbounded", "eta": 1.0}
        return columns, rows, meta

    if name == "fig1":
        n = points or 121
        aspects = np.geomspace(1.0, float(overrides.get("aspect_max", 1e3)), n)
        eta2s = overrides.get("eta2s", [0.1, 1.0])
        mus = overrides.get("mus", [0.01, 0.1])
        order = int(overrides.get("order", 2))
        columns = ["aspect_ratio"] + [
            f"bound_eta2_{eta2:g}_mu_{mu:g}" for eta2 in eta2s for mu in mus
        ]
        rows = []
        for aspect in aspects:
            row = [aspect]
            nrms = [norms(_gaussian_sq(aspect, mu)[0]) for mu in mus]
            for eta2 in eta2s:
                for nrm in nrms:
                    row.append(
                        bounds_mod.det_truncation_bound_hs(
                            nrm.largest_abs_eigenvalue, nrm.hs_norm**2, eta2, order
                        ).value
                    )
            rows.append(row)
        meta = {
            "x": "aspect_ratio",
            "order": order,
            "eta2s": eta2s,
            "mus": mus,
            "process": "type2",
            "mu_inversion": "exact sum of sinh^2(sigma_j/2)",
        }
        return columns, rows, meta

    if name == "fig2":
        n = points or 121
        aspects = np.geomspace(1.0, float(overrides.get("aspect_max", 1e3)), n)
        orders = overrides.get("orders", [1, 2, 3, 4])
        mus = overrides.get("mus", [0.01, 0.1, 1.0])
        columns = ["aspect_ratio"] + [
            f"bound_n_{order}_mu_{mu:g}" for order in orders for mu in mus
        ]
        rows = []
        for aspect in aspects:
            row = [aspect]
            sigma1s = [float(_gaussian_sq(aspect, mu)[0].sigmas[0]) for mu in mus]
            for order in orders:
                for sigma1 in sigma1s:
                    row.append(
                        bounds_mod.covariance_truncation_bound([sigma1], order).value
                    )
            rows.append(row)
        meta = {
            "x": "aspect_ratio",
            "orders": orders,
            "mus": mus,
            "process": "type2",
            "m_largest": 1,
            "mu_inversion": "exact sum of sinh^2(sigma_j/2)",
        }
        return columns, rows, meta

    if name == "fig4":
        n = points or 61
        mus = np.geomspace(
            float(overrides.get("mu_min", 0.01)), float(overrides.get("mu_max", 1.0)), n
        )
        aspect = float(overrides.get("aspect_ratio", 3.0))
        eta = float(overrides.get("eta", 1.0))
        columns = ["mu", "rel_err_poisson", "rel_err_hermite", "rel_err_quadratic"]
        rows = []
        for mu in mus:
            sq, schmidt, gain = _gaussian_sq(aspect, mu)
            k_number = spectral.schmidt_number(schmidt)
            eta2 = eta * eta
            exact = det.vacuum_probability(
                det.ExactProductGf(sq, eta2, eta2), "exact"
            )
            pois = det.PoissonParams(gain * gain / 4.0, eta2, eta2, eta2 * eta2)
            p_poisson = det.vacuum_probability(pois, "poisson")
            hp = det.hermite_params(gain, k_number, ProcessType.TYPE_II, eta2, eta2)
            p_hermite = det.vacuum_probability(hp, "hermite")
            p_quad = det.quadratic_vacuum(schmidt, gain, eta, ProcessType.TYPE_II)
            rows.append(
                [
                    mu,
                    abs(p_poisson - exact) / exact,
                    abs(p_hermite - exact) / exact,
                    abs(p_quad - exact) / exact,
                ]
            )
        meta = {
            "x": "mu",
            "aspect_ratio": aspect,
            "eta": eta,
            "windows": "unbounded",
            "process": "type2",
            "mu_axis": "exact mean pairs of the reference process",
        }
        return columns, rows, meta

    raise ValueError(f"unknown figure '{name}'")


def _write_csv(path, columns, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])


def _write_svg(path, columns, rows):
    """Minimal deterministic polyline plot of every column against the first."""
    data = np.array([[float(v) for v in row] for row in rows], dtype=float)
    x = data[:, 0]
    ys = data[:, 1:]
    width, height, pad = 640, 420, 50

    def log_ok(v):
        return np.all(v > 0) and v.max() / max(v.min(), 1e-300) > 50

    x_log = log_ok(x)
    finite = ys[np.isfinite(ys)]
    positive = finite[finite > 0]
    y_log = positive.size == finite.size and positive.size > 0 and log_ok(positive)
    xs = np.log10(x) if x_log else x
    yv = np.where(np.isfinite(ys), ys, np.nan)
    yv = np.log10(np.clip(yv, 1e-300, None)) if y_log else yv
    x0, x1 = float(np.nanmin(xs)), float(np.nanmax(xs))
    y0, y1 = float(np.nanmin(yv)), float(np.nanmax(yv))
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for j in range(ys.shape[1]):
        pts = []
        for i in range(xs.size):
            if not np.isfinite(yv[i, j]):
                continue
            px = pad + (xs[i] - x0) / (x1 - x0) * (width - 2 * pad)
            py = height - pad - (yv[i, j] - y0) / (y1 - y0) * (height - 2 * pad)
            pts.append(f"{px:.2f},{py:.2f}")
        color = colors[j % len(colors)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{" ".join(pts)}"/>'
        )
        parts.append(
            f'<text x="{pad}" y="{20 + 14 * j}" fill="{color}" '
            f'font-size="12">{columns[j + 1]}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def write_figure(name, out_dir=".", points=None, overrides=None, svg=False):
    columns, rows, meta = figure_data(name, points=points, overrides=overrides)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    _write_csv(csv_path, columns, rows)
    with open(os.path.join(out_dir, f"{name}.meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    if svg:
        _write_svg(os.path.join(out_dir, f"{name}.svg"), columns, rows)
    return csv_path


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        config = json.load(fh)
    result = run_scenario(config)
    out_cfg = config.get("output", {})
    csv_path = out_cfg.get("csv_path", "scenario.csv")
    _write_csv(csv_path, result["columns"], result["rows"])
    if result.get("pnd") is not None and out_cfg.get("pnd_csv_path"):
        det.save_pnd_csv(result["pnd"], out_cfg["pnd_csv_path"])
    print(csv_path)
    return 0


def _cmd_figure(args) -> int:
    overrides = json.loads(args.overrides) if args.overrides else None
    path = write_figure(
        args.name, out_dir=args.out, points=args.points, overrides=overrides, svg=args.svg
    )
    print(path)
    return 0


def _cmd_schmidt(args) -> int:
    jsa = spectral.load_jsa_csv(args.jsa_csv)
    spectrum = spectral.schmidt_decompose(jsa, rank=args.rank)
    print("j,coefficient,lambda")
    for j, c in enumerate(spectrum.coefficients, start=1):
        print(f"{j},{_fmt(float(c))},{_fmt(float(c) ** 2)}")
    print(f"# schmidt_number,{_fmt(spectral.schmidt_number(spectrum))}")
    print(f"# truncation_tail,{_fmt(spectrum.truncation_tail)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="biphoton-sim",
        description="Frequency-resolved biphoton detection statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config", help="path to a JSON scenario configuration")
    p_run.set_defaults(func=_cmd_run)

    p_fig = sub.add_parser("figure", help="emit a reference figure dataset")
    p_fig.add_argument("name", choices=FIGURES)
    p_fig.add_argument("--out", default=".", help="output directory")
    p_fig.add_argument("--points", type=int, default=None)
    p_fig.add_argument("--svg", action="store_true", help="also write an SVG plot")
    p_fig.add_argument("--overrides", default=None, help="JSON object of overrides")
    p_fig.set_defaults(func=_cmd_figure)

    p_sch = sub.add_parser("schmidt", help="Schmidt spectrum of a JSA CSV")
    p_sch.add_argument("jsa_csv")
    p_sch.add_argument("--rank", type=int, default=None)
    p_sch.set_defaults(func=_cmd_schmidt)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError) as exc:
        # OutOfDomainError, InvalidDistributionError, DomainMismatchError,
        # GridCoverageError and window/shape violations are all ValueErrors
        print(f"numeric domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
