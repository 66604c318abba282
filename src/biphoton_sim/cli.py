"""Scenario runner and figure-data emitter.

`biphoton-sim run <config.json>` executes a source -> transforms -> detection
pipeline described by a JSON document and writes CSV results, attaching the
applicable error-bound columns so every approximate number ships with its
certificate.  This module parses and checks the config, pipeline included,
before the SVD, and builds one `DetectionPlan` from the parsed steps, which
pushes the Schmidt factor through them and does the detection numerics of
every method.  `biphoton-sim figure <name>` regenerates the four reference
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
    ProcessType,
    SqueezingSpectrum,
    covariance_eigenvalues,
    gain_for_mean_pairs,
    mean_pairs,
    norms,
    source_dofs,
)
from .plan import DetectionPlan
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
    """`value`, a JSON number (never a string or bool), as a finite float, or
    as an int when `kind` is int, that is at least `at_least`, above `above`
    and at most `at_most`; otherwise a ConfigError naming `path`."""
    try:
        x = kind(value) if isinstance(value, (int, float)) else math.nan  # JSON numbers only
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
    """Source construction: a function that builds the JSA and returns its
    Schmidt spectrum (the SVD), the gain or the mean pair number (neither
    under a sweep, which sets the mean pair numbers) and the process."""
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

        def decompose():
            return spectral.schmidt_decompose(spectral.build_gaussian_jsa(model, grid_s, grid_i))
    elif "csv" in jsa_cfg:
        csv_path = _path(jsa_cfg["csv"], "source.jsa.csv")
        if "grid" in cfg:
            raise ConfigError("grid: a CSV JSA brings its own grid; only the Gaussian model takes one")

        def decompose():  # no name holds the JSA, so its values are freed before the SVD
            return spectral.schmidt_decompose(spectral.load_jsa_csv(csv_path))
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
    return decompose, gain, mu, process


# ln of the largest float: a larger squeezing parameter overflows e^sigma,
# so the core, the eigenvalues and the mean pair number of its point
_SIGMA_MAX = math.log(sys.float_info.max)

_SOURCE_METHODS = ("poisson", "hermite", "linear", "quadratic")
_METHODS = ("exact", "log_series") + _SOURCE_METHODS


def _parse_pipeline(config, names, windows, source_level) -> list:
    """`pipeline` as checked `DetectionPlan` steps (path, kind, mode or mode
    pair, numbers) over the output modes `names`, first applied first, one
    loss step per mode.  A source-level method takes no fourier step: each
    window bounded in time adds its mode's.  Every bounded window must match
    its mode's domain."""
    entries = config.get("pipeline")
    if entries is not None and not isinstance(entries, list):
        raise ConfigError("pipeline: expected a list of steps")
    m_total, steps = len(names), []
    for k, entry in enumerate(entries or ()):
        path = f"pipeline[{k}]"
        if not isinstance(entry, dict) or "type" not in entry:
            raise ConfigError(f"{path}: each entry needs a 'type'")
        kind = entry["type"]
        if not isinstance(kind, str) or kind not in _STEP_FIELDS:
            raise ConfigError(f"{path}.type: unknown transform '{kind}'")
        _unknown_fields(entry, f"{path}.", _STEP_FIELDS[kind])
        if kind in ("phase", "fourier"):  # the numbers: the fields after "type" and "dof"
            dof = _mode_index(entry.get("dof", 0), f"{path}.dof", m_total)
            if kind == "fourier" and (kind, dof) in [step[1:3] for step in steps]:
                raise ConfigError(f"{path}.dof: mode {dof} is already in the time domain; "
                                  f"a mode takes at most one 'fourier' step")
            steps.append((path, kind, dof, tuple(_number(entry.get(key, 0.0), f"{path}.{key}")
                                                 for key in _STEP_FIELDS[kind][2:])))
        elif kind == "beam_splitter":
            pair = entry.get("dofs")
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigError(f"{path}.dofs: expected a pair of mode indices")
            d1, d2 = (_mode_index(d, f"{path}.dofs", m_total) for d in pair)
            if d1 == d2:
                raise ConfigError(f"{path}.dofs: expected two distinct modes of one grid size, "
                                  f"got modes {d1} and {d2}")
            t_coef = _number(entry.get("transmittance"), f"{path}.transmittance")
            r_coef = _number(entry.get("reflectance", math.sqrt(max(0.0, 1.0 - t_coef**2))),
                             f"{path}.reflectance")
            try:
                transforms.check_mixing(t_coef, r_coef)
            except ValueError as exc:
                raise ConfigError(f"{path}: {exc}") from None
            steps.append((path, kind, (d1, d2), (t_coef, r_coef)))
        else:  # loss: one factor per mode, the last given; a JSON key is a string
            steps += [(path, kind, idx, eta) for idx, eta in {
                _mode_index(int(key) if str(key).isdecimal() else key, f"{path}.eta", m_total):
                _number(val, f"{path}.eta", **_UNIT)
                for key, val in _object(entry, "eta", f"{path}.eta").items()
            }.items()]
    if source_level and any(step[1] != "loss" for step in steps):
        raise ConfigError("pipeline: source-level methods support loss-only pipelines")
    for k, w in enumerate(windows):
        if w is None or (w.lo, w.hi) == (-math.inf, math.inf):
            continue
        if source_level and w.domain == "time":
            steps.append((f"detection.windows[{k}]", "fourier", k, ()))
        domain = "time" if ("fourier", k) in [step[1:3] for step in steps] else "frequency"
        if w.domain != domain:
            raise transforms.DomainMismatchError(
                f"detection.windows[{k}]: window domain '{w.domain}' does not match state "
                f"domain '{domain}' on '{names[k]}'")
    return steps


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


def _mode_names(config, sources) -> list:
    """The names of all modes, source modes first: `modes`, or `sources`."""
    names = config.get("modes", sources)
    ok = isinstance(names, list) and all(isinstance(n, str) for n in names)
    if not ok or len(names) < len(sources):
        raise ConfigError(
            f"modes: expected a list of mode names, at least the {len(sources)} source modes"
        )
    return names


def run_scenario(config: dict) -> dict:
    """Execute one scenario; returns columns, rows and optional PND tables.

    The source, pipeline and detection are planned once and the gains come
    from one Newton inversion; each sweep point then does only the
    gain-dependent work.  The PND table belongs to the first sweep point.
    """
    return _checked_scenario(config)[1]()


def _checked_scenario(config):
    """Check every part of `config` that needs neither a grid nor the Schmidt
    spectrum, parsing the pipeline once; returns the PND cutoffs ([] for none)
    and a function that builds the source, the SVD, and runs the scenario."""
    if not isinstance(config, dict):
        raise ConfigError("config: expected a JSON object")
    for prefix, fields in _FIELDS.items():  # outer objects first
        node = config
        for key in prefix.split(".")[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        _unknown_fields(node, prefix, fields)
    decompose, gain, source_mu, process = _build_source(config)
    detection_cfg = _require(config, "detection", dict)
    method = detection_cfg.get("method", "log_series")
    if method not in _METHODS:
        raise ConfigError(f"detection.method: unknown method '{method}'")
    mus = _sweep_mus(config)
    if gain is not None and mus != [None]:
        raise ConfigError("source.gain: a source.mu sweep sets every point's gain; give source.mu")
    # every method checks the series order; only log_series reads it
    order = _number(detection_cfg.get("series_order", 8), "detection.series_order", int,
                    at_least=1)
    # the source modes, as `source_dofs` names them
    sources = ["mode"] if process is ProcessType.TYPE_0I else ["signal", "idler"]
    mode_names = _mode_names(config, sources)
    source_level = method in _SOURCE_METHODS
    if source_level and len(mode_names) > len(sources):
        raise ConfigError(f"modes: source-level methods take no ancilla modes; list the "
                          f"{len(sources)} source modes only")
    windows = _detection_windows(detection_cfg, len(mode_names))
    if method in ("hermite", "quadratic") and any(
            w is None or (w.lo, w.hi) != (-math.inf, math.inf) for w in windows):
        raise ConfigError(f"detection.windows: method '{method}' applies no windows; use 'poisson'")
    detectors, cutoffs = _detectors(detection_cfg, len(mode_names))
    if source_level and detectors != list(range(len(sources))) and any(d != 0 for d in detectors):
        raise ConfigError(
            f"detection.detectors: source-level methods take one detector per source "
            f"mode {list(range(len(sources)))} or every mode on detector 0"
        )
    if cutoffs and method in ("linear", "quadratic"):
        raise ConfigError(
            f"detection.pnd_cutoffs: method '{method}' gives no photon-number distribution"
        )
    steps = _parse_pipeline(config, mode_names, windows, source_level)
    etas = [math.prod([step[3] for step in steps if step[1:3] == ("loss", k)], start=1.0)
            for k in range(len(mode_names))]  # each mode's loss product
    if method == "quadratic" and len(set(etas)) > 1:
        raise ConfigError("pipeline: the quadratic method needs a uniform loss")

    def run():
        schmidt = decompose()
        sizes = [d.grid.n for d in source_dofs(schmidt, process)]
        sizes += sizes[:1] * (len(mode_names) - len(sizes))  # an ancilla takes the first grid
        for path, _, (d1, d2), _ in [step for step in steps if step[1] == "beam_splitter"]:
            if sizes[d1] != sizes[d2]:
                raise ConfigError(f"{path}.dofs: expected two distinct modes of one grid size, "
                                  f"got modes {d1} and {d2} of sizes {sizes[d1]} and {sizes[d2]}")
        plan = DetectionPlan(schmidt, process, steps, windows, detectors, mode_names)
        if source_level:
            step = _source_step(plan, etas, method, cutoffs)
        else:
            step = _schmidt_step(plan, order if method == "log_series" else None, cutoffs)
        targets = [source_mu] if mus == [None] else mus
        gains = ([gain] if targets == [None]
                 else gain_for_mean_pairs(schmidt, targets, process).tolist())
        results = []
        for k, point_gain in enumerate(gains):
            sq = SqueezingSpectrum.from_schmidt(schmidt, point_gain, process)
            if not sq.sigmas[0] <= _SIGMA_MAX:
                field, value = (("source.gain", gain) if gain is not None
                                else ("source.mu", source_mu) if mus == [None]
                                else (f"sweep.values[{k}]", mus[k]))
                raise ValueError(f"{field} = {float(value)!r}: the largest squeezing parameter "
                                 f"{float(sq.sigmas[0])!r} exceeds {_SIGMA_MAX!r}, past which "
                                 f"the covariance eigenvalue (e^sigma - 1)/2 is not a finite float")
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

    return cutoffs, run


def _detection_windows(detection_cfg, n_dofs) -> tuple:
    """Each mode's `DetectionWindow`, or None for an 'empty' one."""
    domain = detection_cfg.get("domain", "frequency")
    if domain not in ("frequency", "time"):
        raise ConfigError("detection.domain: must be 'frequency' or 'time'")
    windows_cfg = detection_cfg.get("windows")
    if windows_cfg is None:
        return (transforms.DetectionWindow.unbounded(),) * n_dofs
    if not isinstance(windows_cfg, list) or len(windows_cfg) != n_dofs:
        raise ConfigError(f"detection.windows: expected one entry per detected mode ({n_dofs})")
    out = []
    for k, w in enumerate(windows_cfg):
        if w is None:
            out.append(transforms.DetectionWindow.unbounded(domain))
        elif w == "empty":
            out.append(None)
        elif isinstance(w, list) and len(w) == 2:
            lo, hi = (
                bound if edge is None else _number(edge, f"detection.windows[{k}]")
                for edge, bound in zip(w, (-math.inf, math.inf))
            )
            try:
                out.append(transforms.DetectionWindow(lo, hi, domain))
            except ValueError as exc:
                raise ConfigError(f"detection.windows[{k}]: {exc}") from None
        else:
            raise ConfigError(f"detection.windows[{k}]: expected null, 'empty' or [lo, hi]")
    return tuple(out)


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


# Each *_step function takes the run's plan and returns
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


def _source_step(plan, etas, method, cutoffs):
    """Source-level methods: per-mode transmittivities `etas` of a loss-only
    pipeline, one detector per source mode or every mode on detector 0, and
    detection windows for `poisson` and `linear` only, which read the
    single-pair probabilities off the plan."""
    schmidt, process, n_dofs = plan.schmidt, plan.process, len(plan.detectors)
    shared = all(d == 0 for d in plan.detectors)
    if method in ("poisson", "linear"):
        unit = plan.single_pair
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


def _schmidt_step(plan, order, cutoffs):
    """Detection over an arbitrary pipeline, on the Schmidt basis: with
    `order` the vacuum is the log series of that order and the rows carry
    both determinant bounds, whose loss factor is lambda_max(H); with None it
    is the exact r x r log-determinant."""

    def step(gain, sq, with_pnd):
        log_vac = plan.log_vacuum(sq, order)
        if order is None:
            bounds = {"truncation_tail": plan.schmidt.truncation_tail}
        else:
            nrm = norms(sq)
            bounds = {
                "det_trunc_eigen": bounds_mod.det_truncation_bound_eigen(
                    covariance_eigenvalues(sq), plan.loss_factor, order
                ).value,
                "det_trunc_hs": bounds_mod.det_truncation_bound_hs(
                    nrm.largest_abs_eigenvalue, nrm.hs_norm**2, plan.loss_factor, order
                ).value,
            }
        pnd = None
        if with_pnd and cutoffs:
            try:
                pnd = plan.pnd(sq, cutoffs, order)
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


# relative weight z^j at which fig4's analytic Schmidt spectrum stops
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


def _even_terms(x, count: int, scale=1.0) -> np.ndarray:
    """scale x^2k / (2k)! for k = 1..count along a last axis, x a 1-D array."""
    k = np.arange(1, count + 1)
    ratios = (x * x)[:, None] / ((2 * k - 1) * (2 * k))
    ratios[:, 0] *= scale
    return np.multiply.accumulate(ratios, axis=1)


def _gaussian_sweep(points, aspect_max, mus):
    """The ratios geomspace(1, aspect_max, points) and, at each (rows) and
    each mean pair number of `mus` (columns), the largest squeezing parameter
    sigma_1 = g c_1 of the type-II Gaussian source and the squared HS norm of
    its covariance, over the untruncated spectrum.

    A sum over the modes of an even function of g c_j is a series in the
    power sums S_k = a_k lambda_1^k (`spectral.gaussian_relative_power_sums`):
    mu = sum_k sigma_1^2k a_k / (2 (2k)!) and
    ||Gamma||_HS^2 = sum_k (4^k - 2) sigma_1^2k a_k / (2k)!.  The terms are
    scaled by 1/a_1 and, past sigma_1 = 600, by e^(600 - sigma_1), to stay in
    range, and run until they fall below e^-60 of their peak at 2 sigma_1 (a
    Poisson tail; a_k only decreases).  mu(sigma_1) is increasing and convex,
    so Newton's method from the right falls onto the root, from the smaller
    of the single-mode root, as in `gain_for_mean_pairs`, and the first
    term's; a point stops when its iterate no longer falls (mu = 0 gives 0)."""
    aspects = np.geomspace(1.0, aspect_max, points)
    mus = np.asarray(mus, dtype=float)
    single = 2.0 * np.arcsinh(np.sqrt(mus))  # more modes only add pairs
    top = 2.0 * float(single.max())
    k = np.arange(1, int(top / 2 + 6 * math.sqrt(top)) + 42)
    a = spectral.gaussian_relative_power_sums(aspects[:, None], k)
    coef = np.repeat(a / a[:, :1], mus.size, axis=0)  # a row per (aspect, mu) point
    target = (mus / a[:, :1]).ravel()  # mu lambda_1
    sigma = np.minimum(np.tile(single, points), 2.0 * np.sqrt(target))
    active = np.flatnonzero(target > 0)
    while active.size:
        x = sigma[active]
        scale = np.exp(-np.maximum(x - 600.0, 0.0))
        terms = _even_terms(x, k.size, scale) * coef[active]
        step = x - x * (0.5 * np.sum(terms, axis=1) - scale * target[active]) / (terms @ k)
        falls = step < x
        sigma[active[falls]] = step[falls]
        active = active[falls]
    # (4^k - 2) sigma^2k = (1 - 2^(1 - 2k)) (2 sigma)^2k; past sigma_1 ~ 355
    # the norm leaves the float range
    with np.errstate(over="ignore"):
        hs2 = (_even_terms(2.0 * sigma, k.size) * coef) @ (1.0 - 2.0 ** (1 - 2 * k))
        hs2 *= np.repeat(a[:, 0], mus.size)
    return aspects, sigma.reshape(points, -1), hs2.reshape(points, -1)


def _aspect_rows(aspects, columns, values):
    """Rows of the ratio and the columns' values, every value a certified
    bound: finite and non-negative."""
    values = values.reshape(aspects.size, -1)
    bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0)))
    if bad.size:
        row, col = divmod(int(bad[0]), values.shape[1])
        raise ValueError(f"{columns[col + 1]}: bound value {float(values[row, col])!r} is not "
                         f"finite and non-negative at aspect_ratio {float(aspects[row])!r}")
    return np.column_stack([aspects, values]).tolist()


def _fig1(points, aspect_max, eta2s, mus, order):
    """`det_truncation_bound_hs` at Lambda_1 = (e^sigma_1 - 1)/2, the
    covariance's largest eigenvalue, and its squared HS norm, from
    `_gaussian_sweep`, for each eta2 of `eta2s` and mu of `mus`."""
    columns = ["aspect_ratio"] + [f"bound_eta2_{e:g}_mu_{mu:g}" for e in eta2s for mu in mus]
    aspects, sigma1, hs2 = _gaussian_sweep(points, aspect_max, mus)
    lam1 = np.expm1(sigma1) / 2.0
    try:
        values = bounds_mod._hs_bound_values(lam1[:, None, :], hs2[:, None, :],
                                             np.asarray(eta2s, dtype=float)[:, None], order)
    except bounds_mod.OutOfDomainError as exc:
        row, col = divmod(exc.index, len(columns) - 1)
        raise bounds_mod.OutOfDomainError(
            f"{columns[col + 1]}: {exc} at aspect_ratio {float(aspects[row])!r}") from None
    return columns, _aspect_rows(aspects, columns, values)


def _fig2(points, aspect_max, orders, mus):
    """`covariance_truncation_bound([sigma_1], n)` for each order n of
    `orders` and sigma_1 of `_gaussian_sweep` at each mu of `mus`: the
    log-sum-exp of one value is that value."""
    columns = ["aspect_ratio"] + [f"bound_n_{n}_mu_{mu:g}" for n in orders for mu in mus]
    aspects, sigma1, _ = _gaussian_sweep(points, aspect_max, mus)
    log_sinh = bounds_mod._log_sinh(sigma1)
    values = np.stack([np.exp(bounds_mod._log_exp_tail(sigma1, n) - log_sinh) for n in orders],
                      axis=1)
    return columns, _aspect_rows(aspects, columns, values)


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
    cutoffs, run = _checked_scenario(config)
    # checked before the source is built; a photon-number table needs a path
    out_cfg = _object(config, "output")
    csv_path = _path(out_cfg.get("csv_path", "scenario.csv"), "output.csv_path")
    pnd_path = out_cfg.get("pnd_csv_path")
    if pnd_path is None and cutoffs:
        raise ConfigError("output.pnd_csv_path: missing; detection.pnd_cutoffs asks for a "
                          "photon-number table")
    pnd_path = None if pnd_path is None else _path(pnd_path, "output.pnd_csv_path")
    result = run()
    _write_csv(csv_path, result["columns"], result["rows"])
    if result["pnd"] is not None:
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
