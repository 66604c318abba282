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
or file error, 3 numeric domain error.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from . import detection as det
from . import spectral, transforms
from .covariance import (
    Dof,
    ProcessType,
    SqueezingSpectrum,
    covariance_core,
    covariance_eigenvalues,
    covariance_factor,
    gain_for_mean_pairs,
    mean_pairs,
    norms,
    source_dofs,
)
from .spectral import GaussianJsaModel

__all__ = ["ConfigError", "run_scenario", "figure_data", "write_figure", "main"]


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


def _object(node: dict, key: str, path: str | None = None) -> dict:
    """The optional object `node[key]`; {} when it is absent or null."""
    value = node.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path or key}: expected an object")
    return value


def _limits_text(at_least=None, above=None, at_most=None) -> str:
    """The limits of `_number` as text, e.g. '>= 0 and <= 1'."""
    pairs = ((">=", at_least), (">", above), ("<=", at_most))
    return " and ".join(f"{op} {v}" for op, v in pairs if v is not None)


def _number(value, path: str, kind=float, at_least=None, above=None, at_most=None):
    """`value` as a finite float, or as an int when `kind` is int, that is
    at least `at_least`, above `above` and at most `at_most`; otherwise a
    ConfigError naming `path`."""
    try:
        x = kind(value)
        ok = not isinstance(value, bool) and math.isfinite(x) and x == float(value)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not (ok and (at_least is None or x >= at_least) and (above is None or x > above)
            and (at_most is None or x <= at_most)):
        what = "an integer" if kind is int else "a number"
        limits = _limits_text(at_least, above, at_most)
        raise ConfigError(f"{path}: expected {what} {limits}".rstrip())
    return x


def _path(value, path: str) -> str:
    """`value` as a file path: a non-empty string, else a ConfigError naming `path`."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: expected a non-empty string")
    return value


# `_number` limits
_POSITIVE = {"above": 0}
_NON_NEGATIVE = {"at_least": 0}
_UNIT = {"at_least": 0, "at_most": 1}


# the fields `run` reads: per object of the config, keyed by the prefix of
# its field paths, and per pipeline step type
_FIELDS = {
    "": ("source", "grid", "modes", "pipeline", "detection", "sweep", "output"),
    "source.": ("process", "gain", "mu", "jsa"),
    "source.jsa.": ("gaussian", "csv"),
    "source.jsa.gaussian.": ("delta_plus_rad_s", "delta_minus_rad_s", "center_signal_rad_s",
                             "center_idler_rad_s"),
    "grid.": ("extent_sigmas", "points_per_width"),
    "detection.": ("method", "series_order", "domain", "windows", "pnd_cutoffs", "detectors"),
    "sweep.": ("parameter", "values"),
    "output.": ("csv_path", "pnd_csv_path"),
}
_STEP_FIELDS = {"phase": ("type", "dof", "phi0_rad", "tau_s", "beta_l_s2"),
                "fourier": ("type", "dof"), "loss": ("type", "eta"),
                "beam_splitter": ("type", "dofs", "transmittance", "reflectance")}


def _unknown_fields(node, prefix: str, fields):
    """A ConfigError naming the first key of the object `node` not in `fields`;
    anything but an object is left to its own checks."""
    for key in node if isinstance(node, dict) else ():
        if key not in fields:
            raise ConfigError(f"{prefix}{key}: unknown field")


def _mode_index(value, path: str, m_total: int) -> int:
    idx = _number(value, path, int)
    if not 0 <= idx < m_total:
        raise ConfigError(f"{path}: mode index {idx} out of range")
    return idx


def _process(tag: str, path: str) -> ProcessType:
    try:
        return ProcessType(tag)
    except ValueError:
        raise ConfigError(f"{path}: must be 'type0i' or 'type2'") from None


def _build_source(cfg: dict):
    """Source construction: the Schmidt spectrum of the JSA, the gain or the
    mean pair number (neither under a sweep, which sets the mean pair
    numbers) and the process."""
    source = _require(cfg, "source", dict)
    process = _process(_require(cfg, "source.process", str), "source.process")
    jsa_cfg = _require(cfg, "source.jsa", dict)
    grid_cfg = _object(cfg, "grid")
    if "gaussian" in jsa_cfg and "csv" in jsa_cfg:
        raise ConfigError("source.jsa: give either 'gaussian' or 'csv', not both")
    if "gaussian" in jsa_cfg:
        g = _object(jsa_cfg, "gaussian", "source.jsa.gaussian")

        def field(key, default=None, **limits):
            return _number(g.get(key, default), f"source.jsa.gaussian.{key}", **limits)

        model = GaussianJsaModel(
            field("delta_plus_rad_s", **_POSITIVE),
            field("delta_minus_rad_s", **_POSITIVE),
            field("center_signal_rad_s", 0.0),
            field("center_idler_rad_s", 0.0),
        )
        grid_s, grid_i = spectral.default_grids(
            model,
            extent_sigmas=_number(
                grid_cfg.get("extent_sigmas", 6.0), "grid.extent_sigmas", above=0
            ),
            points_per_width=_number(
                grid_cfg.get("points_per_width", 8.0), "grid.points_per_width", above=0
            ),
        )
        schmidt = spectral.schmidt_decompose(spectral.build_gaussian_jsa(model, grid_s, grid_i))
    elif "csv" in jsa_cfg:
        csv_path = _path(jsa_cfg["csv"], "source.jsa.csv")
        if "grid" in cfg:
            raise ConfigError("grid: a CSV JSA brings its own grid; only the Gaussian model takes one")
        # no name holds the JSA, so its values are freed before the SVD
        schmidt = spectral.schmidt_decompose(spectral.load_jsa_csv(csv_path))
    else:
        raise ConfigError("source.jsa: provide either 'gaussian' or 'csv'")
    if "gain" in source and "mu" in source:
        raise ConfigError("source: give either 'gain' or 'mu', not both")
    if "gain" in source:
        gain, mu = _number(source["gain"], "source.gain", at_least=0), None
    elif "mu" in source:
        gain, mu = None, _number(source["mu"], "source.mu", at_least=0)
    elif cfg.get("sweep") is None:
        raise ConfigError("source: missing 'gain' or 'mu'")
    else:  # a source.mu sweep sets every point's mu
        gain = mu = None
    return schmidt, gain, mu, process


_SOURCE_METHODS = ("poisson", "hermite", "linear", "quadratic")
_METHODS = ("exact", "log_series") + _SOURCE_METHODS


def _pipeline(config) -> list:
    """The pipeline steps; [] when `pipeline` is absent or null."""
    steps = config.get("pipeline")
    if steps is None:
        return []
    if not isinstance(steps, list):
        raise ConfigError("pipeline: expected a list of steps")
    return steps


def _apply_pipeline(steps, in_dofs, names=(), factor=None, time_modes=()):
    """Push `factor` (rows over the source modes `in_dofs`, annihilation rows
    first) through the pipeline `steps`, first applied first.

    Vacuum ancillas, up to the length of `names`, take the first source
    mode's grid and start as zero row blocks, which is the column
    compression of the vacuum modes.  Each step updates row blocks in place:
    a phase multiplies a mode's rows, a Fourier step applies its kernel and
    moves the mode to the time domain, a beam splitter mixes two modes' rows
    and a loss scales them.  Each mode k of `time_modes` then takes one more
    Fourier step, whose errors name `detection.windows[k]`.  Returns the
    rows over all modes (complex if a step is a phase or Fourier step, else
    of the dtype of `factor`), the output modes and the per-mode product of
    the loss transmittivities.
    """
    dofs = list(in_dofs) + [Dof(name, in_dofs[0].grid) for name in names[len(in_dofs):]]
    m_total = len(dofs)
    sizes = [d.grid.n for d in dofs]
    n_source = sum(sizes[: len(in_dofs)])
    factor = np.zeros((2 * n_source, 0)) if factor is None else factor
    labelled = [(f"pipeline[{k}]", entry) for k, entry in enumerate(steps)]
    labelled += [(f"detection.windows[{k}]", {"type": "fourier", "dof": k}) for k in time_modes]
    phased = any(isinstance(e, dict) and e.get("type") in ("phase", "fourier") for _, e in labelled)
    out = np.zeros((2 * sum(sizes), factor.shape[1]), dtype=complex if phased else factor.dtype)
    out[:n_source] = factor[:n_source]
    out[sum(sizes):sum(sizes) + n_source] = factor[n_source:]
    rows = np.split(out, np.cumsum(sizes * 2)[:-1])  # views: a_0, a_1, ..., c_0, c_1, ...
    etas = [1.0] * m_total
    for path, entry in labelled:
        if not isinstance(entry, dict) or "type" not in entry:
            raise ConfigError(f"{path}: each entry needs a 'type'")
        kind = entry["type"]
        if not isinstance(kind, str) or kind not in _STEP_FIELDS:
            raise ConfigError(f"{path}.type: unknown transform '{kind}'")
        _unknown_fields(entry, f"{path}.", _STEP_FIELDS[kind])
        if kind in ("phase", "fourier"):
            dof = _mode_index(entry.get("dof", 0), f"{path}.dof", m_total)
            a, c = rows[dof], rows[m_total + dof]
            if kind == "phase":
                phase = transforms.phase_factor(
                    *(_number(entry.get(key, 0.0), f"{path}.{key}")
                      for key in ("phi0_rad", "tau_s", "beta_l_s2")),
                    dofs[dof].grid,
                )
                a *= phase[:, None]
                c *= phase.conj()[:, None]
            elif dofs[dof].domain == "time":
                raise ConfigError(f"{path}.dof: mode {dof} is already in the time domain; "
                                  f"a mode takes at most one 'fourier' step")
            else:
                try:
                    kernel, time_grid = transforms.fourier_kernel(dofs[dof].grid)
                except ValueError as exc:
                    raise ValueError(f"{path}: mode {dof} ('{dofs[dof].name}'): {exc}") from None
                a[...], c[...] = kernel @ a, kernel.conj() @ c
                dofs[dof] = Dof(dofs[dof].name, time_grid, "time")
        elif kind == "beam_splitter":
            pair = entry.get("dofs")
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigError(f"{path}.dofs: expected a pair of mode indices")
            d1, d2 = (_mode_index(d, f"{path}.dofs", m_total) for d in pair)
            if d1 == d2 or sizes[d1] != sizes[d2]:
                raise ConfigError(f"{path}.dofs: expected two distinct modes of one grid size, "
                                  f"got modes {d1} and {d2} of sizes {sizes[d1]} and {sizes[d2]}")
            t_coef = _number(entry.get("transmittance"), f"{path}.transmittance")
            r_coef = _number(entry.get("reflectance", math.sqrt(max(0.0, 1.0 - t_coef**2))),
                             f"{path}.reflectance")
            try:
                transforms.check_mixing(t_coef, r_coef)
            except ValueError as exc:
                raise ConfigError(f"{path}: {exc}") from None
            for first, second in ((rows[d1], rows[d2]), (rows[m_total + d1], rows[m_total + d2])):
                kept = first.copy()
                first *= t_coef
                first += r_coef * second
                second *= t_coef
                second -= r_coef * kept
        else:  # loss
            scale = {  # one factor per mode, the last given
                _mode_index(key, f"{path}.eta", m_total): _number(val, f"{path}.eta", **_UNIT)
                for key, val in _object(entry, "eta", f"{path}.eta").items()
            }
            for idx, val in scale.items():
                etas[idx] = val * etas[idx]
                rows[idx] *= val
                rows[m_total + idx] *= val
    return out, tuple(dofs), etas


def _sweep_mus(config) -> list:
    """The swept mean pair numbers, or [None] for a single run."""
    if config.get("sweep") is None:
        return [None]
    sweep = _object(config, "sweep")
    values = sweep.get("values")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep.values: expected a non-empty list")
    if sweep.get("parameter") != "source.mu":
        raise ConfigError("sweep.parameter: only 'source.mu' sweeps are supported")
    return [_number(v, f"sweep.values[{k}]", at_least=0) for k, v in enumerate(values)]


def _mode_names(config, in_dofs) -> list:
    """The names of all modes, source modes first: `modes`, or the source modes'."""
    names = config.get("modes")
    if names is None:
        return [d.name for d in in_dofs]
    ok = isinstance(names, list) and all(isinstance(n, str) for n in names)
    if not ok or len(names) < len(in_dofs):
        raise ConfigError(
            f"modes: expected a list of mode names, at least the {len(in_dofs)} source modes"
        )
    return names


def run_scenario(config: dict) -> dict:
    """Execute one scenario; returns columns, rows and optional PND tables.

    The source, pipeline and detection are planned once and the gains come
    from one Newton inversion; each sweep point then does only the
    gain-dependent work.  The PND table belongs to the first sweep point.
    """
    if not isinstance(config, dict):
        raise ConfigError("config: expected a JSON object")
    for prefix, fields in _FIELDS.items():  # outer objects first
        node = config
        for key in prefix.split(".")[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        _unknown_fields(node, prefix, fields)
    schmidt, gain, source_mu, process = _build_source(config)
    steps = _pipeline(config)
    detection_cfg = _require(config, "detection", dict)
    method = detection_cfg.get("method", "log_series")
    if method not in _METHODS:
        raise ConfigError(f"detection.method: unknown method '{method}'")
    mus = _sweep_mus(config)
    if gain is not None and mus != [None]:
        raise ConfigError("source.gain: a source.mu sweep sets every point's gain; give source.mu")
    mode_names = _mode_names(config, source_dofs(schmidt, process))
    if method in _SOURCE_METHODS:
        step = _source_step(steps, schmidt, process, method, detection_cfg, mode_names)
    else:
        order = detection_cfg.get("series_order", 8) if method == "log_series" else None
        if order is not None:
            order = _number(order, "detection.series_order", int, at_least=1)
        step = _schmidt_step(steps, schmidt, process, detection_cfg, order, mode_names)

    targets = [source_mu] if mus == [None] else mus
    gains = [gain] if targets == [None] else gain_for_mean_pairs(schmidt, targets, process).tolist()
    results = []
    for k, point_gain in enumerate(gains):
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
    domain = detection_cfg.get("domain", "frequency")
    if domain not in ("frequency", "time"):
        raise ConfigError("detection.domain: must be 'frequency' or 'time'")
    windows_cfg = detection_cfg.get("windows")
    if windows_cfg is None:
        return transforms.DetectionProjection.full(n_dofs)
    if not isinstance(windows_cfg, list) or len(windows_cfg) != n_dofs:
        raise ConfigError(f"{path}: expected one entry per detected mode ({n_dofs})")
    out = []
    for k, w in enumerate(windows_cfg):
        if w is None:
            out.append(transforms.DetectionWindow.unbounded(domain))
        elif w == "empty":
            out.append(None)
        elif isinstance(w, list) and len(w) == 2:
            lo, hi = (
                bound if edge is None else _number(edge, f"{path}[{k}]")
                for edge, bound in zip(w, (-math.inf, math.inf))
            )
            try:
                out.append(transforms.DetectionWindow(lo, hi, domain))
            except ValueError as exc:
                raise ConfigError(f"{path}[{k}]: {exc}") from None
        else:
            raise ConfigError(f"{path}[{k}]: expected null, 'empty' or [lo, hi]")
    return transforms.DetectionProjection(tuple(out))


def _detectors(detection_cfg, m_total: int):
    """Each mode's detector index or None (default: the first two modes on
    detectors 0 and 1), and the PND cutoffs, one per detector or [] for none."""
    detectors = detection_cfg.get("detectors")
    if detectors is None:
        detectors = list(range(min(2, m_total))) + [None] * max(0, m_total - 2)
    one_per_mode = isinstance(detectors, list) and len(detectors) == m_total
    indices = [d for d in detectors if d is not None] if one_per_mode else []
    if not indices or not all(type(d) is int and d >= 0 for d in indices):
        raise ConfigError(
            f"detection.detectors: expected one detector index or null per "
            f"output mode ({m_total}), with at least one detector"
        )
    count = max(indices) + 1
    cutoffs = detection_cfg.get("pnd_cutoffs")
    cutoffs = [] if cutoffs is None else cutoffs
    if not isinstance(cutoffs, list) or len(cutoffs) not in (0, 1, count):
        raise ConfigError(
            f"detection.pnd_cutoffs: expected one cutoff per detector ({count}) "
            f"or a single one for all"
        )
    cutoffs = [_number(c, "detection.pnd_cutoffs", int, at_least=0) for c in cutoffs]
    return detectors, cutoffs * count if len(cutoffs) == 1 else cutoffs


# Each *_step function plans one detection method and returns
# step(gain, sq, with_pnd), which evaluates one sweep point as
# (p_vac, bounds, pnd or None).


def _shared_detector(stats):
    """One detector seeing both arms: the two-arm table on the diagonal
    x_s = x_i, where n photons are the anti-diagonal n_s + n_i = n of the
    (c, c) table."""
    flipped = stats.probabilities[::-1]
    c = len(flipped) - 1
    p = np.array([np.trace(flipped, offset=n - c) for n in range(c + 1)])
    return det.PhotonStatistics(p, 1.0 - float(np.sum(p)))


def _detected_factor(steps, windows, schmidt, process, names=(), time_modes=()):
    """The Schmidt factor s V pushed through the pipeline `steps` and the
    Fourier steps of `time_modes` (`_apply_pipeline`), with each output
    mode's mask of `windows`."""
    sv, out_dofs, _ = _apply_pipeline(
        steps, source_dofs(schmidt, process), names, covariance_factor(schmidt, process), time_modes
    )
    masks = []
    for k, window in enumerate(windows):
        try:
            masks += transforms.projection_masks(
                transforms.DetectionProjection((window,)), out_dofs[k:k + 1]
            )
        except ValueError as exc:
            raise type(exc)(f"detection.windows[{k}]: {exc}") from None
    return sv, masks


def _single_pair(steps, windows, schmidt, process) -> det.PoissonParams:
    """Bivariate-Poisson parameters at unit gain: the single-pair click
    probabilities of the Schmidt factor pushed through the loss-only
    pipeline `steps` and detected in `windows`, a mode whose window is
    bounded in the time domain taking its Fourier kernel before masking.

    The pair sum_j c_j u_j v_j^T sits in the first 2K columns of the factor,
    the u group (signal, or type-0/I annihilation, rows) and then the v group
    (idler creation rows); for type-II they are the first conjugate sector.
    With H_uu and H_vv the grams of their detected rows, p_s = sum_j c_j^2
    (H_uu)_jj, p_i = sum_j c_j^2 (H_vv)_jj and p_si = c^T (H_uu o conj H_vv) c.
    Type-0/I has one mode, window and loss, so p_i is p_s.
    """
    time_modes = [
        k for k, w in enumerate(windows)
        if w is not None and w.domain == "time" and (w.lo, w.hi) != (-math.inf, math.inf)
    ]
    sv, masks = _detected_factor(steps, windows, schmidt, process, time_modes=time_modes)
    c = schmidt.coefficients
    k = c.size
    detected = sv[np.concatenate(masks * 2) > 0, :2 * k]
    h_uu, h_vv = (a.conj().T @ a for a in (detected[:, :k], detected[:, k:]))
    p_s, p_i = (float(np.real(np.diag(h)) @ (c * c)) for h in (h_uu, h_vv))
    p_si = float(np.real(c @ (h_uu * h_vv.conj()) @ c))
    # mu = gain^2 / 2 (type-0/I) or gain^2 / 4 (type-II)
    if process is ProcessType.TYPE_0I:
        return det.PoissonParams(0.5, p_s, p_s, p_si)
    return det.PoissonParams(0.25, p_s, p_i, p_si)


def _source_step(steps, schmidt, process, method, detection_cfg, mode_names):
    """Source-level methods: per-mode transmittivities of a loss-only pipeline
    (which reaches no ancilla, so `mode_names` may name the source modes
    only), one detector per source mode or every mode on detector 0, and
    detection windows for `poisson` and `linear` only, a bounded time window
    taking its mode's Fourier kernel."""
    if any(not isinstance(e, dict) or e.get("type") != "loss" for e in steps):
        raise ConfigError("pipeline: source-level methods support loss-only pipelines")
    _, out_dofs, etas = _apply_pipeline(steps, source_dofs(schmidt, process))
    n_dofs = len(out_dofs)
    if len(mode_names) > n_dofs:
        raise ConfigError(
            f"modes: source-level methods take no ancilla modes; list the {n_dofs} "
            f"source modes only"
        )
    if method == "quadratic" and len(set(etas)) > 1:
        raise ConfigError("pipeline: the quadratic method needs a uniform loss")
    windows = _detection_windows(detection_cfg, n_dofs).windows
    bounded = any(w is None or (w.lo, w.hi) != (-math.inf, math.inf) for w in windows)
    if method in ("hermite", "quadratic") and bounded:
        raise ConfigError(f"detection.windows: method '{method}' applies no windows; use 'poisson'")
    if method in ("poisson", "linear"):
        unit = _single_pair(steps, windows, schmidt, process)
    detectors, cutoffs = _detectors(detection_cfg, n_dofs)
    shared = all(d == 0 for d in detectors)
    if not shared and detectors != list(range(n_dofs)):
        raise ConfigError(
            f"detection.detectors: source-level methods take one detector per source "
            f"mode {list(range(n_dofs))} or every mode on detector 0"
        )
    if cutoffs and method in ("linear", "quadratic"):
        raise ConfigError(
            f"detection.pnd_cutoffs: method '{method}' gives no photon-number distribution"
        )
    eta_best2 = max(e * e for e in etas)
    k_number = spectral.schmidt_number(schmidt)

    def step(gain, sq, with_pnd):
        if method in ("poisson", "linear"):
            # only mu depends on the gain: the unit-gain mu (1/2 or 1/4) times
            # gain * gain rounds exactly as gain * gain / 2 or / 4 does
            params = dataclasses.replace(unit, mu=unit.mu * gain * gain)
        bounds = {}
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
            gf = det.hermite_params(gain, k_number, process, etas[0] ** 2, etas[-1] ** 2)
            p_vac = det.vacuum_probability(gf, "hermite")
            bounds["det_trunc_eigen_n4"] = bounds_mod.det_truncation_bound_eigen(
                covariance_eigenvalues(sq), eta_best2, 4
            ).value
        else:
            p_vac = det.quadratic_vacuum(schmidt, gain, etas[0], process)
        pnd = None
        if with_pnd and cutoffs:
            pnd = _shared_detector(det.pnd(gf, cutoffs * 2)) if shared else det.pnd(gf, cutoffs)
        return p_vac, bounds, pnd

    return step


def _schmidt_step(steps, schmidt, process, detection_cfg, order, mode_names):
    """Detection over an arbitrary pipeline, on the Schmidt basis.

    The covariance factors as V M V^dag (V fixed, the r x r core M
    gain-dependent).  The pipeline steps act once, one by one, on the row
    blocks of V (`_apply_pipeline`), vacuum ancillas starting as zero
    blocks, which gives s V for the whole pipeline s; masking its rows to
    the detection windows gives the r x r detected gram
    H = (P s V)^dag (P s V), and Tr[(s^dag P s Gamma)^n] = Tr[(M H)^n], so
    no operator over the grid is ever formed.  With `order`
    the vacuum is the log series of that order, with None the exact r x r
    log-determinant.  The loss factor of both determinant bounds is
    lambda_max(H): the nonzero eigenvalues of s^dag P s Gamma are those of
    H^1/2 M H^1/2, which by Ostrowski's theorem are theta_k lambda_k(M) with
    0 <= theta_k <= lambda_max(H), however the pipeline mixes modes.

    A type-II run works on one conjugate sector when it can.  The factor's
    columns [0, 2K) are u and v (rows a_s and a_i^dag), [2K, 4K) conj v and
    conj u (rows a_i and a_s^dag), and M = diag(M_1, M_1) with
    M_1 = [[C, S], [S, C]].  Every pipeline step is passive, T (+) conj(T),
    and the masks are real and equal on annihilation and creation rows, so
    the second column half of P s V is the conjugate of the first with its
    row halves and its u/v column groups (Pi) swapped.  If no detected row
    is nonzero in both halves, the cross gram is exactly zero: H and every
    H_d are diag(H_1, Pi conj(H_1) Pi), and M H = diag(M_1 H_1,
    Pi conj(M_1 H_1) Pi).  Then log det(1 + M H) = 2 log det(1 + M_1 H_1),
    each real trace moment is twice the half's, and lambda_max(H) =
    lambda_max(H_1), so the run uses the r/2 columns of the first sector
    with multiplicity 2.  Otherwise (a beam splitter joining signal and
    idler, or type-0/I, whose M couples the halves) it uses all r columns
    with multiplicity 1.
    """
    m_total = len(mode_names)
    windows = _detection_windows(detection_cfg, m_total).windows
    sv, masks = _detected_factor(steps, windows, schmidt, process, mode_names)
    # one conjugate sector when no detected row couples the column halves
    half = sv.shape[1] // 2
    nonzero = sv[np.concatenate(masks * 2) > 0] != 0
    if process is ProcessType.TYPE_II and not np.any(
        nonzero[:, :half].any(axis=1) & nonzero[:, half:].any(axis=1)
    ):
        sector, multiplicity = slice(0, half), 2
    else:
        sector, multiplicity = slice(None), 1
    sv = sv[:, sector]

    def gram(keep):
        """H over the detected rows of the output modes k with keep(k)."""
        rows = np.concatenate([m if keep(k) else 0 * m for k, m in enumerate(masks)] * 2)
        a = sv[rows > 0]
        return a.conj().T @ a

    def vacuum(h):
        """sq -> -1/2 multiplicity log det(1 + M h): exact, or the series of
        `order` from the eigenvalues of the Hermitian B diag(lam) B^dag with
        B = h^1/2 P, since every core is M = P diag(lam) P^T, P the fixed
        rotation of each (C, S) column pair and lam = (e^+-sigma - 1)/2."""
        if order is None:

            def exact(sq):
                k = covariance_core(sq)[sector, sector] @ h
                sign, logdet = np.linalg.slogdet(np.eye(k.shape[0]) + k)
                if sign == 0:
                    raise np.linalg.LinAlgError("1 + K is singular")
                return -0.5 * multiplicity * logdet

            return exact
        modes = schmidt.coefficients.size
        pairs = h.shape[0] // (2 * modes)
        vals, vecs = np.linalg.eigh(h)
        rotation = np.kron(np.eye(pairs), np.kron([[1, 1], [1, -1]], np.eye(modes)))
        root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T @ rotation / math.sqrt(2)

        def series(sq):
            lam = np.tile(np.concatenate([np.expm1(sq.sigmas), np.expm1(-sq.sigmas)]) / 2, pairs)
            mu = np.linalg.eigvalsh((root * lam) @ root.conj().T)
            return -0.5 * multiplicity * det.log_series_power_sum(mu, order)

        return series

    h_total = gram(lambda k: True)
    eta2 = float(np.linalg.eigvalsh(h_total)[-1])
    log_vacuum = vacuum(h_total)
    detectors, cutoffs = _detectors(detection_cfg, m_total)
    if cutoffs:
        h_parts = [gram(lambda k: detectors[k] == d) for d in range(len(cutoffs))]
        degree = sum(cutoffs)
        # the PND vacuum is that of the detected modes; it is p_vac's unless
        # a windowed mode has no detector
        undetected = [m for m, d in zip(masks, detectors) if d is None]
        pnd_vacuum = vacuum(sum(h_parts)) if any(m.any() for m in undetected) else log_vacuum

    def step(gain, sq, with_pnd):
        log_vac = log_vacuum(sq)
        if order is None:
            bounds = {"truncation_tail": schmidt.truncation_tail}
        else:
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
            log_pnd = log_vac if pnd_vacuum is log_vacuum else pnd_vacuum(sq)
            core = covariance_core(sq)[sector, sector]
            gf = det.vacuum_point_gf([core @ h for h in h_parts], log_pnd, degree, multiplicity)
            try:
                pnd = det.pnd(gf, cutoffs)
            except det.InvalidDistributionError as exc:
                if order is None:
                    raise
                raise det.InvalidDistributionError(
                    f"{exc} at detection.series_order {order}: the series error of "
                    f"p_vac, which scales every entry, exceeds the probability beyond "
                    f"the cutoffs; raise detection.series_order or use method 'exact'"
                ) from None
        # np.exp, as in `pnd`, so that P[0, ..., 0] is p_vac to the bit
        return float(np.exp(log_vac)), bounds, pnd

    return step


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


# relative weight z^j at which the figures' analytic Schmidt spectrum stops
_J_MAX_FLOOR = 1e-16


def _gaussian_spectra(aspect: float, mus):
    """Analytic Schmidt spectrum of a type-II Gaussian source, and its gains
    and squeezing spectra at the mean pair numbers `mus`."""
    zeta = (aspect - 1.0) / (aspect + 1.0)
    z = zeta * zeta
    j_max = 1 if z == 0 else max(1, int(math.ceil(math.log(_J_MAX_FLOOR) / math.log(z))) + 1)
    schmidt = spectral.analytic_gaussian_schmidt(aspect, j_max)
    gains = gain_for_mean_pairs(schmidt, mus, ProcessType.TYPE_II).tolist()
    return schmidt, gains, [
        SqueezingSpectrum.from_schmidt(schmidt, g, ProcessType.TYPE_II) for g in gains
    ]


def _aspect_sweep(points, aspect_max, mus, summary, curves, bound):
    """Rows over the aspect ratios geomspace(1, aspect_max, points): the ratio,
    then bound(c, s) for each curve parameter c and each s = summary(sq) of
    the type-II Gaussian source's spectrum sq at a mean pair number of `mus`."""
    rows = []
    for aspect in np.geomspace(1.0, aspect_max, points):
        per_mu = [summary(sq) for sq in _gaussian_spectra(aspect, mus)[2]]
        rows.append([aspect] + [bound(c, s) for c in curves for s in per_mu])
    return rows


def _fig1(points, aspect_max, eta2s, mus, order):
    columns = ["aspect_ratio"] + [f"bound_eta2_{e:g}_mu_{mu:g}" for e in eta2s for mu in mus]
    return columns, _aspect_sweep(
        points, aspect_max, mus, norms, eta2s,
        lambda eta2, nrm: bounds_mod.det_truncation_bound_hs(
            nrm.largest_abs_eigenvalue, nrm.hs_norm**2, eta2, order
        ).value,
    )


def _fig2(points, aspect_max, orders, mus):
    columns = ["aspect_ratio"] + [f"bound_n_{n}_mu_{mu:g}" for n in orders for mu in mus]
    return columns, _aspect_sweep(
        points, aspect_max, mus, lambda sq: float(sq.sigmas[0]), orders,
        lambda order, sigma1: bounds_mod.covariance_truncation_bound([sigma1], order).value,
    )


def _fig3(points, mu_max):
    columns = ["mu", "poisson", "single_mode_type0i", "single_mode_type2", "linear"]
    rows = []
    for mu in np.linspace(0.0, mu_max, points):
        poisson = det.vacuum_probability(det.PoissonParams(mu, 1.0, 1.0, 1.0), "poisson")
        # one mode's sigma at mean pairs mu = sinh^2(sigma / 2), halved for type-0/I
        exact = [
            det.vacuum_probability(
                SqueezingSpectrum(np.array([2.0 * math.asinh(math.sqrt(x))]), p, gain=1.0),
                "exact",
            )
            if mu > 0
            else 1.0
            for p, x in ((ProcessType.TYPE_0I, 2.0 * mu), (ProcessType.TYPE_II, mu))
        ]
        rows.append([mu, poisson, *exact, 1.0 - mu])
    return columns, rows


def _fig4(points, mu_min, mu_max, aspect_ratio, eta):
    columns = ["mu", "rel_err_poisson", "rel_err_hermite", "rel_err_quadratic"]
    eta2 = eta * eta
    mus = np.geomspace(mu_min, mu_max, points)
    schmidt, gains, sqs = _gaussian_spectra(aspect_ratio, mus)
    k_number = spectral.schmidt_number(schmidt)
    rows = []
    for mu, gain, sq in zip(mus, gains, sqs):
        exact = det.vacuum_probability(det.ExactProductGf(sq, eta2, eta2), "exact")
        pois = det.PoissonParams(gain * gain / 4.0, eta2, eta2, eta2 * eta2)
        hp = det.hermite_params(gain, k_number, ProcessType.TYPE_II, eta2, eta2)
        approx = (
            det.vacuum_probability(pois, "poisson"),
            det.vacuum_probability(hp, "hermite"),
            det.quadratic_vacuum(schmidt, gain, eta, ProcessType.TYPE_II),
        )
        rows.append([mu] + [abs(p - exact) / exact for p in approx])
    return columns, rows


_MU_INVERSION = "exact sum of sinh^2(sigma_j/2)"

# name -> (rows function, default point count, overridable parameters with
# their defaults and the `_number` limits of each value, fixed metadata).
# The type of a default is the kind an override must have: a number, an
# integer, or a non-empty list of either.
FIGURES = {
    "fig1": (_fig1, 121, {"aspect_max": (1e3, _POSITIVE), "eta2s": ([0.1, 1.0], _NON_NEGATIVE),
                          "mus": ([0.01, 0.1], _NON_NEGATIVE), "order": (2, _NON_NEGATIVE)},
             {"x": "aspect_ratio", "process": "type2", "mu_inversion": _MU_INVERSION}),
    "fig2": (_fig2, 121, {"aspect_max": (1e3, _POSITIVE), "orders": ([1, 2, 3, 4], _NON_NEGATIVE),
                          "mus": ([0.01, 0.1, 1.0], _POSITIVE)},
             {"x": "aspect_ratio", "process": "type2", "m_largest": 1,
              "mu_inversion": _MU_INVERSION}),
    "fig3": (_fig3, 301, {"mu_max": (3.0, _NON_NEGATIVE)},
             {"x": "mu", "windows": "unbounded", "eta": 1.0}),
    "fig4": (_fig4, 61, {"mu_min": (0.01, _POSITIVE), "mu_max": (1.0, _POSITIVE),
                         "aspect_ratio": (3.0, _POSITIVE), "eta": (1.0, _UNIT)},
             {"x": "mu", "windows": "unbounded", "process": "type2",
              "mu_axis": "exact mean pairs of the reference process"}),
}


def _parameter(value, default, limits, path: str):
    """`value` as the kind of `default` within `limits`: a number, an
    integer, or a non-empty list of the kind of its first entry."""
    if not isinstance(default, list):
        return _number(value, path, type(default), **limits)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    return [_number(v, f"{path}[{k}]", type(default[0]), **limits) for k, v in enumerate(value)]


def figure_data(name: str, points: int | None = None, overrides: dict | None = None):
    """Rows of one reference figure: (columns, rows, metadata), the metadata
    holding the fixed entries and every parameter's value, overridden or not."""
    if name not in FIGURES:
        raise ValueError(f"unknown figure '{name}'")
    rows_of, default_points, parameters, fixed = FIGURES[name]
    points = _number(default_points if points is None else points, "--points", int, at_least=1)
    overrides = {} if overrides is None else overrides
    if not isinstance(overrides, dict):
        raise ConfigError("--overrides: expected a JSON object")
    for key in overrides:
        if key not in parameters:
            raise ConfigError(f"--overrides.{key}: unknown; {name} takes {', '.join(parameters)}")
    params = {
        key: _parameter(overrides.get(key, default), default, limits, f"--overrides.{key}")
        for key, (default, limits) in parameters.items()
    }
    columns, rows = rows_of(points, **params)
    return columns, rows, {**fixed, **params}


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
    with open(args.config, encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config}: not UTF-8 text ({exc})") from None
    result = run_scenario(config)
    out_cfg = _object(config, "output")
    csv_path = _path(out_cfg.get("csv_path", "scenario.csv"), "output.csv_path")
    pnd_path = out_cfg.get("pnd_csv_path")
    pnd_path = None if pnd_path is None else _path(pnd_path, "output.pnd_csv_path")
    _write_csv(csv_path, result["columns"], result["rows"])
    if result.get("pnd") is not None and pnd_path is not None:
        det.save_pnd_csv(result["pnd"], pnd_path)
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
    rank = None if args.rank is None else _number(args.rank, "--rank", int, at_least=1)
    # no name holds the JSA, so its values are freed before the SVD
    spectrum = spectral.schmidt_decompose(
        spectral.load_jsa_csv(args.jsa_csv), rank=rank, want_modes=False
    )
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
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        # an OSError (a missing file, a directory, a file where a directory
        # belongs) names its path
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError) as exc:
        # OutOfDomainError, InvalidDistributionError, DomainMismatchError,
        # GridCoverageError and window/shape violations are all ValueErrors
        print(f"numeric domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
