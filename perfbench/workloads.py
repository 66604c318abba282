"""Workload inputs, generated from a seed.

A workload is a sequence of parts; each part is one or more CLI calls.  A
seed changes only physical parameters (mean pair numbers inside each part's
stated range, beam-splitter transmittance, delay, window edges, aspect
ratio).  It never changes a size: grid points, series order, cutoffs, sweep
length and figure points are fixed per part, so the work per pass is set by
the workload alone.

`make` writes the inputs into a work directory and returns a JSON-ready spec:
the CLI calls of one pass, in order, each with its part and the check its
output must pass.
"""
from __future__ import annotations

import json
import math
import os
import random

# workload -> its parts, run in this order in every pass.  The small_* parts
# (under 2 % of a pass) run the other workload's paths at a small size, so
# that every layer and every traced function is measured on both workloads.
WORKLOADS = {
    "pipeline": ("pipeline_pnd", "mu_sweep", "small_schmidt"),
    "figures_schmidt": ("figures", "jsa_schmidt", "small_pnd"),
}

JSA_HEADER = "omega_s,omega_i,re_psi,im_psi\n"


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list:
    """One uniform draw in each of `count` equal slices of [lo, hi]."""
    width = (hi - lo) / count
    return [lo + (k + rng.random()) * width for k in range(count)]


def _scenario(rng, *, points_per_width, mus, pnd_cutoffs, stem, order=20):
    """The README scenario: type-II source with delta_minus/delta_plus = 4,
    beam splitter 0<->2 into a vacuum ancilla, phase and delay, Fourier,
    loss on the idler, log series (order 20 unless given), time-domain
    windows."""
    transmittance = rng.uniform(0.8, 0.95)
    detection = {
        "method": "log_series",
        "series_order": order,
        "domain": "time",
        "windows": [[-rng.uniform(2.5, 3.5), rng.uniform(2.5, 3.5)], None, "empty"],
        "detectors": [0, 1, None],
    }
    if pnd_cutoffs:
        detection["pnd_cutoffs"] = pnd_cutoffs
    return {
        "source": {
            "process": "type2",
            "mu": mus[0],
            "jsa": {"gaussian": {"delta_plus_rad_s": 1.0, "delta_minus_rad_s": 4.0}},
        },
        "grid": {"extent_sigmas": 6.0, "points_per_width": points_per_width},
        "modes": ["signal", "idler", "anc"],
        "pipeline": [
            {"type": "beam_splitter", "dofs": [0, 2], "transmittance": transmittance},
            {"type": "phase", "dof": 0, "phi0_rad": 0.0,
             "tau_s": rng.uniform(0.8, 1.6), "beta_l_s2": 0.0},
            {"type": "fourier", "dof": 0},
            {"type": "loss", "eta": {"1": 0.85}},
        ],
        "detection": detection,
        "sweep": {"parameter": "source.mu", "values": mus},
        "output": {"csv_path": f"{stem}.csv", "pnd_csv_path": f"{stem}_pnd.csv"},
    }


def _run_call(work_dir, config, stem):
    path = os.path.join(work_dir, f"{stem}.json")
    with open(path, "w") as fh:
        json.dump(config, fh, indent=1)
    outputs = [config["output"]["csv_path"]]
    if "pnd_cutoffs" in config["detection"]:
        outputs.append(config["output"]["pnd_csv_path"])
    return {
        "argv": ["run", f"{stem}.json"],
        "outputs": outputs,
        "check": {"kind": "scenario", "config": f"{stem}.json"},
    }


def _figure_call(name, overrides):
    argv = ["figure", name, "--out", "figs"]
    if overrides:
        argv += ["--overrides", json.dumps(overrides)]
    return {
        "argv": argv,
        "outputs": [f"figs/{name}.csv", f"figs/{name}.meta.json"],
        "check": {"kind": "figure", "name": name},
    }


def _write_gaussian_jsa_csv(path, aspect_ratio, n):
    """Gaussian JSA with delta_plus = 1 and delta_minus = aspect_ratio on a
    uniform n x n grid covering 6 widths along both rotated axes, normalized
    under the trapezoid weights that the CSV reader infers."""
    import numpy as np

    half = 6.0 * (1.0 + aspect_ratio) / math.sqrt(2.0)
    pts = np.linspace(-half, half, n)
    w = np.full(n, pts[1] - pts[0])
    w[0] = w[-1] = w[0] / 2.0
    wp = (pts[:, None] + pts[None, :]) / math.sqrt(2.0)
    wm = (pts[:, None] - pts[None, :]) / math.sqrt(2.0)
    vals = np.exp(-(wp**2) / 4.0 - wm**2 / (4.0 * aspect_ratio**2))
    vals /= math.sqrt(float(np.einsum("m,n,mn->", w, w, vals**2)))
    row = "%.17g,%.17g,%.17g,0\n" * n
    block = np.empty((n, 3))
    block[:, 1] = pts
    with open(path, "w") as fh:
        fh.write(JSA_HEADER)
        for m in range(n):
            block[:, 0] = pts[m]
            block[:, 2] = vals[m]
            fh.write(row % tuple(block.ravel()))


def _pipeline_pnd(rng, work_dir):
    cfg = _scenario(rng, points_per_width=2.0, mus=_stratified(rng, 0.05, 0.2, 3),
                    pnd_cutoffs=[3, 3], stem="pipeline_pnd")
    return [_run_call(work_dir, cfg, "pipeline_pnd")]


def _mu_sweep(rng, work_dir):
    cfg = _scenario(rng, points_per_width=4.0, mus=_stratified(rng, 0.02, 0.5, 16),
                    pnd_cutoffs=None, stem="mu_sweep")
    return [_run_call(work_dir, cfg, "mu_sweep")]


def _figures(rng, work_dir):
    return [
        _figure_call("fig1", {"mus": [0.01 * rng.uniform(0.8, 1.25),
                                      0.1 * rng.uniform(0.8, 1.25)]}),
        _figure_call("fig2", {"mus": [0.01 * rng.uniform(0.8, 1.25),
                                      0.1 * rng.uniform(0.8, 1.25),
                                      1.0 * rng.uniform(0.8, 1.0)]}),
        _figure_call("fig3", {"mu_max": rng.uniform(2.5, 3.5)}),
        _figure_call("fig4", {"aspect_ratio": rng.uniform(2.0, 4.0)}),
    ]


def _schmidt_call(work_dir, name, aspect, n):
    _write_gaussian_jsa_csv(os.path.join(work_dir, name), aspect, n)
    return {
        "argv": ["schmidt", name],
        "outputs": [],
        "check": {"kind": "schmidt", "aspect_ratio": aspect},
    }


def _jsa_schmidt(rng, work_dir):
    return [_schmidt_call(work_dir, "jsa.csv", rng.uniform(25.0, 35.0), 1001)]


def _small_schmidt(rng, work_dir):
    return [_schmidt_call(work_dir, "small_jsa.csv", rng.uniform(2.5, 3.5), 201)]


def _small_pnd(rng, work_dir):
    cfg = _scenario(rng, points_per_width=1.0, mus=_stratified(rng, 0.02, 0.05, 2),
                    pnd_cutoffs=[2, 2], stem="small_pnd", order=4)
    return [_run_call(work_dir, cfg, "small_pnd")]


PARTS = {
    "pipeline_pnd": _pipeline_pnd,
    "mu_sweep": _mu_sweep,
    "figures": _figures,
    "jsa_schmidt": _jsa_schmidt,
    "small_schmidt": _small_schmidt,
    "small_pnd": _small_pnd,
}


def make(workload: str, seed: int, work_dir: str) -> dict:
    """Write the inputs of one workload run and return its spec."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    calls = []
    for part in WORKLOADS[workload]:
        rng = random.Random(f"{part}:{seed}")
        calls += [dict(call, part=part) for call in PARTS[part](rng, work_dir)]
    return {"workload": workload, "seed": seed, "calls": calls}
