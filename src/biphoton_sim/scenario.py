"""One checked `run` scenario, between the JSON config and the plan.

`Scenario.from_config(config)` parses the config and runs every check that
needs no Schmidt spectrum, the pipeline's included, before any SVD.  The
scenario then builds the source (`decompose`, the SVD), its `DetectionPlan`
(`plan`), the gains of its sweep points (`gains`) and evaluates one point at
a time (`point`); `run` does all of that in order, as `run_scenario` and the
command line do.  Every config fault is a `ConfigError` naming its field.
"""
from __future__ import annotations

import dataclasses
import math
import sys
import warnings
from typing import Callable

import numpy as np

from . import bounds as bounds_mod
from . import detection as det
from . import spectral, transforms
from .covariance import (ProcessType, SqueezingSpectrum, covariance_eigenvalues,
                         gain_for_mean_pairs, mean_pairs, norms)
from .plan import ConfigError, DetectionPlan
from .spectral import GaussianJsaModel

__all__ = ["ConfigError", "Scenario", "run_scenario"]


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


def _build_source(cfg: dict):
    """Source construction: a function that builds the JSA and returns its
    Schmidt spectrum (the SVD), the gain or the mean pair number (neither
    under a sweep, which sets the mean pair numbers) and the process."""
    source = _require(cfg, "source", dict)
    try:
        process = ProcessType(_require(cfg, "source.process", str))
    except ValueError:
        raise ConfigError("source.process: must be 'type0i' or 'type2'") from None
    jsa_cfg = _require(cfg, "source.jsa", dict)
    grid_cfg = _object(cfg, "grid")
    if "gaussian" in jsa_cfg and "csv" in jsa_cfg:
        raise ConfigError("source.jsa: give either 'gaussian' or 'csv', not both")
    if "gaussian" in jsa_cfg:
        g = _object(jsa_cfg, "gaussian", "source.jsa.gaussian")

        def field(key, default=None, **limits):
            return _number(g.get(key, default), f"source.jsa.gaussian.{key}", **limits)

        model = GaussianJsaModel(field("delta_plus_rad_s", **_POSITIVE),
                                 field("delta_minus_rad_s", **_POSITIVE),
                                 field("center_signal_rad_s", 0.0),
                                 field("center_idler_rad_s", 0.0))
        grid_s, grid_i = spectral.default_grids(model, *(  # extent_sigmas, points_per_width
            _number(grid_cfg.get(key, default), f"grid.{key}", above=0)
            for key, default in (("extent_sigmas", 6.0), ("points_per_width", 8.0))))

        def decompose():
            return spectral.schmidt_decompose(spectral.build_gaussian_jsa(model, grid_s, grid_i))
    elif "csv" in jsa_cfg:
        csv_path = _path(jsa_cfg["csv"], "source.jsa.csv")
        if "grid" in cfg:
            raise ConfigError("grid: a CSV JSA brings its own grid; only the Gaussian model "
                              "takes one")

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


def _sweep_points(config) -> list:
    """The swept mean pair numbers as (field, value) points, or [] for none."""
    if config.get("sweep") is None:
        return []
    sweep = _object(config, "sweep")
    values = sweep.get("values")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep.values: expected a non-empty list")
    if sweep.get("parameter") != "source.mu":
        raise ConfigError("sweep.parameter: only 'source.mu' sweeps are supported")
    fields = [f"sweep.values[{k}]" for k in range(len(values))]
    return [(field, _number(v, field, at_least=0)) for field, v in zip(fields, values)]


def _mode_names(config, sources) -> list:
    """The names of all modes, source modes first: `modes`, or `sources`."""
    names = config.get("modes", sources)
    ok = isinstance(names, list) and all(isinstance(n, str) for n in names)
    if not ok or len(names) < len(sources):
        raise ConfigError(f"modes: expected a list of mode names, at least the "
                          f"{len(sources)} source modes")
    return names


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
        raise ConfigError(f"detection.detectors: expected one detector index or null per "
                          f"output mode ({m_total}), with at least one detector")
    count = max(indices) + 1
    cutoffs = detection_cfg.get("pnd_cutoffs")
    cutoffs = [] if cutoffs is None else cutoffs
    if not isinstance(cutoffs, list) or len(cutoffs) not in (0, 1, count):
        raise ConfigError(f"detection.pnd_cutoffs: expected one cutoff per detector ({count}) "
                          f"or a single one for all")
    cutoffs = [_number(c, "detection.pnd_cutoffs", int, at_least=0) for c in cutoffs]
    return detectors, cutoffs * count if len(cutoffs) == 1 else cutoffs


def _shared_detector(stats):
    """One detector seeing both arms: the two-arm table on the diagonal
    x_s = x_i, where n photons are the anti-diagonal n_s + n_i = n of the
    (c, c) table."""
    flipped = stats.probabilities[::-1]
    c = len(flipped) - 1
    p = np.array([np.trace(flipped, offset=n - c) for n in range(c + 1)])
    return det.PhotonStatistics(p, 1.0 - float(np.sum(p)))


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A `run` config, checked as far as it can be without a spectrum.

    `decompose()` builds the JSA and returns its Schmidt spectrum (the SVD).
    `steps` are the parsed pipeline as `DetectionPlan` takes it, `windows`,
    `detectors` and `names` one per output mode, the source modes first, and
    `etas` each mode's loss product.  `points` holds each sweep point's
    source field and value: one `source.gain` or `source.mu`, or the mean
    pair numbers `sweep.values[k]`.  `order` is the `log_series` order (every
    method checks it) and `cutoffs` the PND cutoffs, one per detector or []
    for none.
    """

    decompose: Callable
    process: ProcessType
    steps: list
    windows: tuple
    detectors: list
    names: list
    etas: list
    method: str
    order: int
    points: list
    cutoffs: list

    @classmethod
    def from_config(cls, config) -> "Scenario":
        """Check every part of `config` that needs neither a grid nor the
        Schmidt spectrum, parsing the pipeline once; the `output` paths are
        the caller's to check."""
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
        points = _sweep_points(config)
        if gain is not None and points:
            raise ConfigError("source.gain: a source.mu sweep sets every point's gain; "
                              "give source.mu")
        points = points or [("source.gain", gain) if gain is not None else ("source.mu", source_mu)]
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
            raise ConfigError(f"detection.windows: method '{method}' applies no windows; "
                              f"use 'poisson'")
        detectors, cutoffs = _detectors(detection_cfg, len(mode_names))
        per_source = list(range(len(sources)))
        if source_level and detectors != per_source and any(d != 0 for d in detectors):
            raise ConfigError(f"detection.detectors: source-level methods take one detector per "
                              f"source mode {per_source} or every mode on detector 0")
        if cutoffs and method in ("linear", "quadratic"):
            raise ConfigError(f"detection.pnd_cutoffs: method '{method}' gives no "
                              f"photon-number distribution")
        steps = _parse_pipeline(config, mode_names, windows, source_level)
        etas = [math.prod([step[3] for step in steps if step[1:3] == ("loss", k)], start=1.0)
                for k in range(len(mode_names))]  # each mode's loss product
        if method == "quadratic" and len(set(etas)) > 1:
            raise ConfigError("pipeline: the quadratic method needs a uniform loss")
        return cls(decompose, process, steps, windows, detectors, mode_names, etas, method,
                   order, points, cutoffs)

    def plan(self, schmidt) -> DetectionPlan:
        """The `DetectionPlan` of the Schmidt spectrum `schmidt`, which checks
        the grid sizes of each beam splitter's modes (a `ConfigError`)."""
        return DetectionPlan(schmidt, self.process, self.steps, self.windows, self.detectors,
                             self.names)

    def gains(self, schmidt) -> list:
        """Each sweep point's gain: the given one, or by one Newton inversion."""
        fields, values = zip(*self.points)
        if fields == ("source.gain",):
            return list(values)
        return gain_for_mean_pairs(schmidt, list(values), self.process).tolist()

    def point(self, plan: DetectionPlan, k: int, gain: float) -> dict:
        """Sweep point k at `gain` on `plan`: its mean pair number, gain,
        p_vac, bound columns and, at the first point, the PND table or None.
        An overflowing squeezing parameter, a bound out of its domain or an
        invalid distribution raises an error naming the point's field."""
        field = f"{self.points[k][0]} = {float(self.points[k][1])!r}"
        sq = SqueezingSpectrum.from_schmidt(plan.schmidt, gain, self.process)
        if not sq.sigmas[0] <= _SIGMA_MAX:
            raise ValueError(f"{field}: the largest squeezing parameter "
                             f"{float(sq.sigmas[0])!r} exceeds {_SIGMA_MAX!r}, past which "
                             f"the covariance eigenvalue (e^sigma - 1)/2 is not a finite float")
        evaluate = self._source_point if self.method in _SOURCE_METHODS else self._schmidt_point
        try:
            p_vac, bounds, pnd = evaluate(plan, gain, sq, with_pnd=k == 0 and bool(self.cutoffs))
        except bounds_mod.OutOfDomainError as exc:
            raise bounds_mod.OutOfDomainError(f"{field}: {exc}") from None
        except det.InvalidDistributionError as exc:
            raise det.InvalidDistributionError(f"{field}: method '{self.method}': {exc}") from None
        if p_vac < 0:  # only `linear`, the single-pair truncation, falls below 0
            warnings.warn(f"{field}: single-pair vacuum probability {p_vac!r} < 0", stacklevel=2)
        point_mu = mean_pairs(sq)
        upper, lower = bounds_mod.vacuum_range(point_mu, self.process)
        bounds.update(vacuum_range_upper=upper, vacuum_range_lower=lower)
        return {"mu": point_mu, "gain": gain, "p_vac": p_vac, "bounds": bounds, "pnd": pnd}

    def _source_point(self, plan, gain, sq, with_pnd):
        """Source-level methods: the loss products `etas` of a loss-only
        pipeline, one detector per source mode or every mode on detector 0,
        and detection windows for `poisson` and `linear` only, which read the
        single-pair probabilities off the plan."""
        method, etas = self.method, self.etas
        k_number = spectral.schmidt_number(plan.schmidt)
        if method in ("poisson", "linear"):
            # only mu depends on the gain: the unit-gain mu (1/2 or 1/4) times
            # gain * gain rounds exactly as gain * gain / 2 or / 4 does
            unit = plan.single_pair
            gf = dataclasses.replace(unit, mu=unit.mu * gain * gain)
        elif method == "hermite":
            gf = det.hermite_params(gain, k_number, self.process, etas[0] ** 2, etas[-1] ** 2)
        if method == "linear":
            p_vac = 1.0 - gf.mu * gf.p_union  # single-pair truncation: no generating function
        elif method == "quadratic":
            p_vac = det.quadratic_vacuum(sq, etas[0])
        else:
            p_vac = det.vacuum_probability(gf)
        eta_best2 = max(e * e for e in etas)
        bounds = {}
        if method == "poisson":
            bounds["poisson_vs_n2"] = bounds_mod.poisson_vs_n2_bound(
                gain, k_number, etas if len(etas) == 2 else etas[0], self.process).value
            bounds["det_trunc_eigen_n2"] = bounds_mod.det_truncation_bound_eigen(
                covariance_eigenvalues(sq), eta_best2, 2).value
        elif method == "hermite":
            bounds["det_trunc_eigen_n4"] = bounds_mod.det_truncation_bound_eigen(
                covariance_eigenvalues(sq), eta_best2, 4).value
        pnd = None
        if with_pnd:
            cutoffs = self.cutoffs
            shared = all(d == 0 for d in self.detectors)
            pnd = _shared_detector(det.pnd(gf, cutoffs * 2)) if shared else det.pnd(gf, cutoffs)
        return p_vac, bounds, pnd

    def _schmidt_point(self, plan, gain, sq, with_pnd):
        """Detection over an arbitrary pipeline, on the Schmidt basis: for
        `log_series` the vacuum is the log series of `order` and the rows
        carry both determinant bounds, whose loss factor is lambda_max(H);
        for `exact` it is the exact r x r log-determinant."""
        order = self.order if self.method == "log_series" else None
        if order is None:
            bounds = {"truncation_tail": plan.schmidt.truncation_tail}
        else:  # det_trunc_eigen first: it checks the domain of the series and the norms
            eigen = bounds_mod.det_truncation_bound_eigen(covariance_eigenvalues(sq),
                                                          plan.loss_factor, order).value
            nrm = norms(sq)
            bounds = {"det_trunc_eigen": eigen, "det_trunc_hs": bounds_mod.det_truncation_bound_hs(
                nrm.largest_abs_eigenvalue, nrm.hs_norm**2, plan.loss_factor, order).value}
        log_vac = plan.log_vacuum(sq, order)
        pnd = None
        if with_pnd:
            try:
                pnd = plan.pnd(sq, self.cutoffs, order)
            except det.InvalidDistributionError as exc:
                if order is None:
                    raise
                raise det.InvalidDistributionError(
                    f"{exc} at detection.series_order {order}: the series error of "
                    f"p_vac, which scales every entry, exceeds the probability beyond "
                    f"the cutoffs; raise detection.series_order or use method 'exact'") from None
        # np.exp, as in `pnd`, so that P[0, ..., 0] is p_vac to the bit
        return float(np.exp(log_vac)), bounds, pnd

    def run(self) -> dict:
        """Build the source and the plan, invert the gains and evaluate every
        sweep point; returns the columns, the rows, the first point's PND
        table (or None) and each point's raw values."""
        schmidt = self.decompose()
        plan = self.plan(schmidt)
        results = [self.point(plan, k, gain) for k, gain in enumerate(self.gains(schmidt))]
        bound_names = sorted(results[0]["bounds"])
        rows = [
            [_fmt(value if field.startswith("sweep") else res["mu"]), _fmt(res["gain"]),
             self.method, _fmt(res["p_vac"])] + [_fmt(res["bounds"][name]) for name in bound_names]
            for (field, value), res in zip(self.points, results)
        ]
        return {"columns": ["mu", "gain", "method", "p_vac"] + bound_names, "rows": rows,
                "pnd": results[0]["pnd"], "raw": results}


def run_scenario(config: dict) -> dict:
    """Check and run one scenario (`Scenario.run`): its columns, rows, PND
    table and raw values; writes nothing."""
    return Scenario.from_config(config).run()
