"""Output checks against `biphoton_sim.oracle` or a closed form.

Each check takes one call of a workload spec (see workloads.py), reads the
outputs that call left in the working directory (or its captured standard
output) and returns a list of problems; an empty list means the output is
correct.  Checks run outside every timed region.
"""
from __future__ import annotations

import csv
import json
import math

# Rounding allowance added to every certificate.  The series at order 20 can
# sit below double-precision roundoff: for pipeline_pnd at mu = 0.05 the code
# writes det_trunc_eigen = 3.5e-16 next to a roundoff error of 1.2e-15.  The
# allowance stays far below the 0.25 error of a broken certificate.
ROUNDING = 1e-12
SCHMIDT_SUM_TOL = 1e-8
SCHMIDT_NUMBER_TOL = 1e-6
CERTIFICATES = ("det_trunc_eigen", "det_trunc_hs")


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ROUNDING * max(1.0, abs(b))


def _small_side_operand(config, schmidt, gamma):
    """Dense operand K = s^dag P s Gamma of the scenario's pipeline, built
    with the package's public transform API from the scenario file."""
    from biphoton_sim import transforms
    from biphoton_sim._blocks import BlockMatrix

    modes = config["modes"]
    m = len(modes)
    grid = schmidt.grid_signal
    n = grid.n
    sizes = [n] * m
    grids = {i: grid for i in range(m)}
    steps = []
    for entry in config["pipeline"]:
        kind = entry["type"]
        if kind == "beam_splitter":
            t = float(entry["transmittance"])
            steps.append(transforms.beam_splitter(
                t, math.sqrt(max(0.0, 1.0 - t * t)), tuple(entry["dofs"]), m, n=n))
        elif kind == "phase":
            dof = entry["dof"]
            steps.append(transforms.phase_shift(
                entry["phi0_rad"], entry["tau_s"], entry["beta_l_s2"], grids[dof], dof, m,
                sizes=sizes))
        elif kind == "fourier":
            dof = entry["dof"]
            step, grids[dof] = transforms.fourier(grids[dof], dof, m, sizes=sizes)
            steps.append(step)
        elif kind == "loss":
            diag = [1.0] * (2 * m)
            for key, eta in entry["eta"].items():
                diag[int(key)] = diag[m + int(key)] = float(eta)
            steps.append(transforms.SymplecticTransform(
                BlockMatrix.diagonal(diag, tuple(sizes) * 2), m, m))
        else:
            raise ValueError(f"no reference for pipeline step {kind!r}")
    reduced = transforms.compress(transforms.compose_all(steps), gamma.n_dofs)
    dofs = transforms.output_dofs(reduced, gamma.dofs, names=modes)
    domain = config["detection"]["domain"]
    windows = []
    for w in config["detection"]["windows"]:
        if w == "empty":
            windows.append(None)
        elif w is None:
            windows.append(transforms.DetectionWindow.unbounded(domain))
        else:
            windows.append(transforms.DetectionWindow(float(w[0]), float(w[1]), domain))
    projection = transforms.DetectionProjection(tuple(windows))
    return transforms.compressed_determinant_operand(reduced, projection, gamma, dofs).to_dense()


def check_scenario(call) -> list:
    """Each row's p_vac against exp(-1/2 log det(1 + K)) from the dense oracle,
    within every certificate column written plus the rounding allowance; the
    PND table for non-negativity, total at most 1 and P[0,0] = first p_vac."""
    from biphoton_sim import oracle, spectral
    from biphoton_sim.covariance import ProcessType, build_covariance_exact

    with open(call["check"]["config"]) as fh:
        config = json.load(fh)
    problems = []
    columns, rows = _read_csv(config["output"]["csv_path"])
    records = [dict(zip(columns, r)) for r in rows]
    mus = config["sweep"]["values"]
    if [float(r["mu"]) for r in records] != [float(mu) for mu in mus]:
        problems.append(f"mu column {[r['mu'] for r in records]} != sweep {mus}")
    g = config["source"]["jsa"]["gaussian"]
    model = spectral.GaussianJsaModel(
        delta_plus=float(g["delta_plus_rad_s"]), delta_minus=float(g["delta_minus_rad_s"]))
    grid_s, grid_i = spectral.default_grids(
        model, extent_sigmas=float(config["grid"]["extent_sigmas"]),
        points_per_width=float(config["grid"]["points_per_width"]))
    schmidt = spectral.schmidt_decompose(spectral.build_gaussian_jsa(model, grid_s, grid_i))
    process = ProcessType(config["source"]["process"])
    for i, rec in enumerate(records):
        gamma = build_covariance_exact(schmidt, float(rec["gain"]), process)
        k = _small_side_operand(config, schmidt, gamma)
        exact = math.exp(-0.5 * oracle.dense_log_det(k))
        p_vac = float(rec["p_vac"])
        rel = abs(p_vac - exact) / exact
        written = [c for c in CERTIFICATES if c in rec]
        if not written:
            problems.append(f"row {i}: no certificate column written")
        for col in written:
            if not rel <= float(rec[col]) + ROUNDING:
                problems.append(
                    f"row {i} (mu={rec['mu']}): |p_vac - exact| / exact = {rel:.3e} "
                    f"exceeds {col} = {rec[col]} + {ROUNDING:g}")
    if "pnd_cutoffs" in config["detection"]:
        _, pnd_rows = _read_csv(config["output"]["pnd_csv_path"])
        probs = {(int(a), int(b)): float(p) for a, b, p in pnd_rows}
        cut = config["detection"]["pnd_cutoffs"]
        if len(probs) != (cut[0] + 1) * (cut[1] + 1):
            problems.append(f"PND table has {len(probs)} entries for cutoffs {cut}")
        negative = {k: p for k, p in probs.items() if not p >= 0.0}
        if negative:
            problems.append(f"negative or NaN PND entries: {negative}")
        total = math.fsum(probs.values())
        if not total <= 1.0:
            problems.append(f"PND total {total!r} exceeds 1")
        if records and not _close(probs.get((0, 0), math.nan), float(records[0]["p_vac"])):
            problems.append(f"P[0,0] = {probs.get((0, 0))} != p_vac = {records[0]['p_vac']}")
    return problems


def check_figure(call) -> list:
    """fig3 against its closed forms; every entry of fig1, fig2 and fig4
    finite and non-negative; every .meta.json sidecar present and valid."""
    name = call["check"]["name"]
    problems = []
    csv_path, meta_path = call["outputs"]
    try:
        with open(meta_path) as fh:
            json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"{meta_path}: {exc}")
    columns, rows = _read_csv(csv_path)
    values = [[float(v) for v in r] for r in rows]
    if not values:
        problems.append(f"{csv_path}: no rows")
    if name == "fig3":
        forms = {
            "poisson": lambda mu: math.exp(-mu),
            "single_mode_type0i": lambda mu: 1.0 / math.sqrt(1.0 + 2.0 * mu),
            "single_mode_type2": lambda mu: 1.0 / (1.0 + mu),
            "linear": lambda mu: 1.0 - mu,
        }
        for col, form in forms.items():
            if col not in columns:
                problems.append(f"fig3: column {col} missing")
                continue
            j = columns.index(col)
            bad = [r[0] for r in values if not _close(r[j], form(r[0]))]
            if bad:
                problems.append(f"fig3 {col}: {len(bad)} rows off the closed form, "
                                f"first at mu={bad[0]!r}")
    else:
        bad = [(i, j) for i, r in enumerate(values) for j, v in enumerate(r)
               if not (math.isfinite(v) and v >= 0.0)]
        if bad:
            i, j = bad[0]
            problems.append(f"{name}: {len(bad)} entries not finite and non-negative, "
                            f"first {columns[j]} in row {i}: {values[i][j]!r}")
    return problems


def check_schmidt(call, stdout: str) -> list:
    """Schmidt weights plus tail sum to 1; the Schmidt number matches the
    Gaussian closed form (r + 1/r) / 2 for aspect ratio r."""
    lines = stdout.splitlines()
    if not lines or lines[0] != "j,coefficient,lambda":
        return [f"unexpected schmidt output header {lines[:1]}"]
    lambdas, tags = [], {}
    for line in lines[1:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition(",")
            tags[key] = float(value)
        else:
            lambdas.append(float(line.split(",")[2]))
    problems = []
    if "schmidt_number" not in tags or "truncation_tail" not in tags:
        return [f"schmidt output lacks a summary line: {sorted(tags)}"]
    total = math.fsum(lambdas) + tags["truncation_tail"]
    if not abs(total - 1.0) <= SCHMIDT_SUM_TOL:
        problems.append(f"sum(lambda) + tail = {total!r}, not 1 within {SCHMIDT_SUM_TOL:g}")
    r = call["check"]["aspect_ratio"]
    expected = (r + 1.0 / r) / 2.0
    got = tags["schmidt_number"]
    if not abs(got - expected) <= SCHMIDT_NUMBER_TOL:
        problems.append(f"Schmidt number {got!r} != closed form {expected!r} "
                        f"within {SCHMIDT_NUMBER_TOL:g}")
    return problems


def check(call, stdout: str) -> list:
    kind = call["check"]["kind"]
    if kind == "scenario":
        return check_scenario(call)
    if kind == "figure":
        return check_figure(call)
    if kind == "schmidt":
        return check_schmidt(call, stdout)
    raise ValueError(f"unknown check kind {kind!r}")
