"""Command line: argparse, file I/O, figure data and exit codes.

`biphoton-sim run <config.json>` checks the JSON scenario as a `Scenario`
(every check that needs no Schmidt spectrum, the pipeline's included), then
its `output` paths, and only then builds the source and runs it, writing
CSV results whose error-bound columns certify every approximate number.
`biphoton-sim figure <name>` regenerates the four reference datasets
(determinant-truncation bound, covariance-truncation bound, vacuum
probability closed forms, approximation errors).  `biphoton-sim schmidt`
prints the Schmidt spectrum of a JSA stored as CSV.

CSV output is RFC 4180 with '.' decimals and 17 significant digits; figure
metadata goes to a JSON sidecar.  Exit codes: 0 success, 2 configuration
or file error, 3 numeric domain error.
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
from . import spectral
from .covariance import ProcessType, _gaussian_spectra, _gaussian_sweep
from .scenario import (_NON_NEGATIVE, _POSITIVE, _UNIT, ConfigError, Scenario, _fmt, _number,
                       _object, _path, run_scenario)

__all__ = ["ConfigError", "run_scenario", "figure_data", "write_figure", "main"]


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


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
    """`bounds.vacuum_range` of each process: its lower value exp(-mu) is the
    Poisson vacuum and its upper value a single mode's; the linear vacuum is
    1 - mu."""
    columns = ["mu", "poisson", "single_mode_type0i", "single_mode_type2", "linear"]
    rows = []
    for mu in np.linspace(0.0, mu_max, points):
        (type0i, poisson), (type2, _) = (bounds_mod.vacuum_range(mu, p)
                                         for p in (ProcessType.TYPE_0I, ProcessType.TYPE_II))
        rows.append([mu, poisson, type0i, type2, 1.0 - mu])
    return columns, rows


def _fig4(points, mu_min, mu_max, aspect_ratio, eta):
    """|p / p_exact - 1| of the Poisson, Hermite and quadratic vacuum
    probabilities, as |expm1(ln p - ln p_exact)| of their log vacua, which
    keeps the digits that p - p_exact loses to cancellation."""
    columns = ["mu", "rel_err_poisson", "rel_err_hermite", "rel_err_quadratic"]
    eta2 = eta * eta
    mus = np.geomspace(mu_min, mu_max, points)
    schmidt, gains, sqs = _gaussian_spectra(aspect_ratio, mus)
    k_number = spectral.schmidt_number(schmidt)
    rows = []
    for mu, gain, sq in zip(mus, gains, sqs):
        exact = det._vacuum_exponent(det.ExactProductGf(sq, eta2, eta2))
        pois = det.PoissonParams(gain * gain / 4.0, eta2, eta2, eta2 * eta2)
        hp = det.hermite_params(gain, k_number, ProcessType.TYPE_II, eta2, eta2)
        miss, one, two = det._pair_sums(sq, eta)
        approx = (det._vacuum_exponent(pois), det._vacuum_exponent(hp),
                  math.log1p(miss * one + miss * miss * two) - math.log1p(one + two))
        rows.append([mu] + [abs(math.expm1(p - exact)) for p in approx])
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
    params = {key: _parameter(overrides.get(key, default), default, limits, f"--overrides.{key}")
              for key, (default, limits) in parameters.items()}
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
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{" ".join(pts)}"/>')
        parts.append(f'<text x="{pad}" y="{20 + 14 * j}" fill="{color}" '
                     f'font-size="12">{columns[j + 1]}</text>')
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
    scenario = Scenario.from_config(config)
    # checked before the source is built; a photon-number table needs a path
    out_cfg = _object(config, "output")
    csv_path = _path(out_cfg.get("csv_path", "scenario.csv"), "output.csv_path")
    pnd_path = out_cfg.get("pnd_csv_path")
    if pnd_path is None and scenario.cutoffs:
        raise ConfigError("output.pnd_csv_path: missing; detection.pnd_cutoffs asks for a "
                          "photon-number table")
    pnd_path = None if pnd_path is None else _path(pnd_path, "output.pnd_csv_path")
    result = scenario.run()
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
