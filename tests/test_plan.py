"""The Schmidt-side detection plan against dense references over the grid."""
import math
from pathlib import Path

import numpy as np
import pytest

from biphoton_sim import (
    DetectionPlan,
    DetectionWindow,
    GaussianJsaModel,
    ProcessType,
    SqueezingSpectrum,
    build_gaussian_jsa,
    covariance_eigenvalues,
    default_grids,
    det_truncation_bound_eigen,
    gain_for_mean_pairs,
    pnd,
    schmidt_decompose,
    vacuum_point_gf,
)
from biphoton_sim.covariance import covariance_core, covariance_factor
from biphoton_sim.oracle import (
    dense_log_det,
    detector_parts_from_covariance,
    log_det_series,
)

README = Path(__file__).parents[1] / "README.md"


# name -> (process, pipeline steps, their field transmittance T from the
# annihilation rows of the source modes to those of the output modes, as a
# function of the grid size n, frequency window of each output mode (None:
# unbounded), detector of each output mode, expected multiplicity)
_CASES = {
    # loss and a window: no detected row sees both type-II sectors
    "type2_one_sector": (
        ProcessType.TYPE_II,
        [("loss", "loss", 0, 0.9), ("loss", "loss", 1, 0.8)],
        lambda n: np.kron(np.diag([0.9, 0.8]), np.eye(n)),
        [(-1.0, 2.5), None], [0, 1], 2,
    ),
    # a beam splitter joining signal and idler: both sectors
    "type2_two_sectors": (
        ProcessType.TYPE_II,
        [("bs", "beam_splitter", (0, 1), (0.8, 0.6)),
         ("loss", "loss", 0, 0.95), ("loss", "loss", 1, 0.85)],
        lambda n: np.kron(np.diag([0.95, 0.85]) @ np.array([[0.8, 0.6], [-0.6, 0.8]]), np.eye(n)),
        [(-1.5, 1.5), None], [0, 1], 1,
    ),
    # a beam splitter into a vacuum ancilla whose window has no detector
    "type2_undetected": (
        ProcessType.TYPE_II,
        [("bs", "beam_splitter", (0, 2), (0.8, 0.6)), ("loss", "loss", 1, 0.9)],
        lambda n: np.kron(np.array([[0.8, 0.0], [0.0, 0.9], [-0.6, 0.0]]), np.eye(n)),
        [(-1.0, 2.5), None, (-2.0, 2.0)], [0, 1, None], 2,
    ),
    # one mode, whose core couples the two column halves
    "type0i": (
        ProcessType.TYPE_0I,
        [("loss", "loss", 0, 0.9)],
        lambda n: 0.9 * np.eye(n),
        [(-2.0, 1.0)], [0], 1,
    ),
}


def _case(name, mu):
    """The plan of one case, its squeezing spectrum at mean pair number `mu`,
    and the dense masked operand D s Gamma s^dag D over the grid, with
    Gamma = V M V^dag formed densely and s = T (+) conj(T)."""
    process, steps, transmittance, windows, detectors, multiplicity = _CASES[name]
    model = GaussianJsaModel(1.0, 3.0)
    jsa = build_gaussian_jsa(model, *default_grids(model, extent_sigmas=5.2, points_per_width=2.0))
    schmidt = schmidt_decompose(jsa)
    names = ["signal", "idler", "anc"] if process is ProcessType.TYPE_II else ["mode"]
    windows = [DetectionWindow.unbounded() if w is None else DetectionWindow(*w) for w in windows]
    plan = DetectionPlan(schmidt, process, steps, windows, detectors, names[:len(windows)])
    assert plan.multiplicity == multiplicity
    t = transmittance(jsa.grid_signal.n)  # an ancilla takes the signal grid
    s = np.block([[t, np.zeros_like(t)], [np.zeros_like(t), t.conj()]])
    gain = gain_for_mean_pairs(schmidt, mu, process)
    sq = SqueezingSpectrum.from_schmidt(schmidt, gain, process)
    v = covariance_factor(schmidt, process)
    gamma = v @ covariance_core(sq) @ v.conj().T
    rows = np.concatenate(plan.masks * 2)
    operand = rows[:, None] * (s @ gamma @ s.conj().T) * rows[None, :]
    return plan, sq, operand


@pytest.mark.parametrize("name", list(_CASES))
@pytest.mark.parametrize("mu", [0.05, 0.2])
class TestPlanAgainstDenseOperand:
    def test_exact_vacuum(self, name, mu):
        plan, sq, operand = _case(name, mu)
        p_dense = math.exp(-0.5 * dense_log_det(operand))
        assert math.exp(plan.log_vacuum(sq)) == pytest.approx(p_dense, rel=1e-12, abs=0)

    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_series_vacuum_within_its_certificate(self, name, mu, order):
        plan, sq, operand = _case(name, mu)
        p_dense = math.exp(-0.5 * dense_log_det(operand))
        p_series = math.exp(plan.log_vacuum(sq, order))
        bound = det_truncation_bound_eigen(covariance_eigenvalues(sq), plan.loss_factor, order)
        assert abs(p_series - p_dense) / p_dense <= bound.value + 1e-12
        # and the series is the series of the same r x r determinant
        p_r = math.exp(-0.5 * plan.multiplicity * log_det_series(
            covariance_core(sq)[plan.sector, plan.sector] @ plan.gram, order))
        assert p_series == pytest.approx(p_r, rel=1e-13, abs=0)

    def test_exact_pnd(self, name, mu):
        plan, sq, operand = _case(name, mu)
        sizes = [m.size for m in plan.masks]
        parts = detector_parts_from_covariance(operand, sizes, plan.detectors)
        cutoffs = [2] * len(parts)
        log_vac = -0.5 * dense_log_det(sum(parts))
        ref = pnd(vacuum_point_gf(parts, log_vac, cutoffs), cutoffs)
        got = plan.pnd(sq, cutoffs)
        assert np.allclose(got.probabilities, ref.probabilities, rtol=1e-11, atol=1e-15)
        # the table's vacuum entry is the vacuum of the modes with a detector:
        # p_vac to the bit (np.exp, as `pnd` takes it) unless a windowed mode
        # has none
        undetected = None in plan.detectors
        assert (got.probabilities.flat[0] == np.exp(plan.log_vacuum(sq))) != undetected
        assert got.probabilities.flat[0] == pytest.approx(ref.probabilities.flat[0], rel=1e-12)


def test_single_pair_needs_signal_and_idler_apart():
    plan = _case("type2_two_sectors", 0.05)[0]
    with pytest.raises(ValueError, match="joins signal and idler"):
        plan.single_pair
    assert _case("type2_one_sector", 0.05)[0].single_pair.p_s > 0


# (window count, detectors, name count): a short or long list would drop
# or shift a mode's mask
@pytest.mark.parametrize("windows, detectors, names", [
    (2, [None, None], 2), (2, [0], 2), (2, [0, 1, None], 2),
    (1, [0, 1], 2), (3, [0, 1], 2), (2, [0, 1], 3), (3, [0, 1, None], 2), (1, [0], 1),
])
def test_one_detector_per_mask_and_at_least_one(windows, detectors, names):
    model = GaussianJsaModel(1.0, 3.0)
    jsa = build_gaussian_jsa(model, *default_grids(model, extent_sigmas=5.2, points_per_width=2.0))
    schmidt = schmidt_decompose(jsa)
    with pytest.raises(ValueError, match="a name per output mode, .* one detector at least"):
        DetectionPlan(schmidt, ProcessType.TYPE_II, [], [DetectionWindow.unbounded()] * windows,
                      detectors, ["signal", "idler", "anc"][:names])


def test_beam_splitter_across_grid_sizes_names_the_step(tmp_path, monkeypatch):
    # a 21 x 17 CSV source: signal and idler have different grid sizes, so a
    # beam splitter joining them fails before any row of the factor is touched
    from biphoton_sim import FrequencyGrid, load_jsa_csv, save_jsa_csv
    from biphoton_sim import plan as plan_mod

    model = GaussianJsaModel(1.0, 3.0)
    grids = FrequencyGrid.uniform(-15.0, 15.0, 21), FrequencyGrid.uniform(-15.0, 15.0, 17)
    save_jsa_csv(build_gaussian_jsa(model, *grids), tmp_path / "jsa.csv")
    schmidt = schmidt_decompose(load_jsa_csv(tmp_path / "jsa.csv"))
    monkeypatch.setattr(plan_mod.np, "split", lambda *a, **k: pytest.fail("rows were touched"))
    with pytest.raises(ValueError) as err:
        DetectionPlan(schmidt, ProcessType.TYPE_II, [("bs", "beam_splitter", (0, 1), (0.8, 0.6))],
                      [DetectionWindow.unbounded()] * 2, [0, 1], ["signal", "idler"])
    assert str(err.value) == ("bs: a beam splitter joins modes of one grid size; mode 0 "
                              "('signal') has 21 points and mode 1 ('idler') 17")


def test_series_pnd_warns_once(tmp_path):
    # the table recomputes the vacuum it shares with p_vac, at spectral
    # radius 0.972 here: the warning of a log-series run still prints once
    import json
    import os
    import subprocess
    import sys

    config = {
        "source": {"process": "type2", "mu": 0.42,
                   "jsa": {"gaussian": {"delta_plus_rad_s": 1.0, "delta_minus_rad_s": 3.0}}},
        "grid": {"extent_sigmas": 5.2, "points_per_width": 2.0},
        "detection": {"method": "log_series", "series_order": 300, "pnd_cutoffs": [2, 2]},
        "output": {"csv_path": "out.csv", "pnd_csv_path": "pnd.csv"},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "biphoton_sim.cli", "run", "cfg.json"],
                          cwd=tmp_path, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "pnd.csv").exists()
    assert done.stderr.count("SpectralRadiusWarning") == 1, done.stderr


def test_readme_sketch_plan_matches_hand_built_core():
    # the README builds a plan where it once hand-built K = 0.49 M: with a
    # uniform intensity transmission 0.49 and every row detected, H = 0.49
    section = README.read_text().split("## Library sketch")[1]
    namespace = {}
    exec(compile(section.split("```python\n")[1].split("```")[0], "README.md", "exec"), namespace)
    k = 0.49 * covariance_core(namespace["spectrum"])
    log_vacuum = -0.5 * log_det_series(k, 20)
    assert namespace["log_vacuum"] == pytest.approx(log_vacuum, rel=1e-14, abs=0)
    old = pnd(vacuum_point_gf([k], log_vacuum, 6), n_max=6).probabilities
    new = namespace["series_stats"].probabilities
    assert np.allclose(new, old, rtol=1e-14, atol=1e-14 * old.max())


_METHOD_CONFIGS = {
    "exact": {}, "log_series": {"series_order": 6}, "poisson": {"pnd_cutoffs": [2, 2]},
    "linear": {}, "hermite": {"pnd_cutoffs": [2, 2]}, "quadratic": {},
}


@pytest.mark.parametrize("method", list(_METHOD_CONFIGS))
def test_one_push_per_run(monkeypatch, method):
    # every method reads one pushed factor: the pipeline runs once per run
    from biphoton_sim import cli
    from biphoton_sim import plan as plan_module

    calls = []

    def counted(*args, _push=plan_module._push_pipeline):
        calls.append(method)
        return _push(*args)

    monkeypatch.setattr(plan_module, "_push_pipeline", counted)
    config = {
        "source": {"process": "type2", "mu": 0.1,
                   "jsa": {"gaussian": {"delta_plus_rad_s": 1.0, "delta_minus_rad_s": 3.0}}},
        "grid": {"extent_sigmas": 5.2, "points_per_width": 2.0},
        "pipeline": [{"type": "loss", "eta": {"0": 0.9, "1": 0.9}}],
        "detection": {"method": method, **_METHOD_CONFIGS[method]},
        "sweep": {"parameter": "source.mu", "values": [0.05, 0.1]},
    }
    result = cli.run_scenario(config)
    assert len(result["rows"]) == 2
    assert calls == [method]


# The sector path of `run`: s V_1 pushed alone, s V_2 only when a detected row
# couples the sectors.  name -> (process, modes, pipeline, windows, detectors,
# PND cutoffs).
_SECTOR_SCENARIOS = {
    # the benchmark's scenario: a beam splitter into an ancilla, then phase,
    # fourier, per-arm loss and time windows
    "uncoupled": ("type2", ["signal", "idler", "anc"], [
        {"type": "beam_splitter", "dofs": [0, 2], "transmittance": 0.9},
        {"type": "phase", "dof": 0, "phi0_rad": 0.0, "tau_s": 1.2, "beta_l_s2": 0.0},
        {"type": "fourier", "dof": 0},
        {"type": "loss", "eta": {"0": 0.95, "1": 0.85}},
    ], [[-3.0, 3.0], None, "empty"], [0, 1, None], [3, 3]),
    # a signal-idler beam splitter joins the sectors
    "coupled": ("type2", ["signal", "idler", "anc"], [
        {"type": "beam_splitter", "dofs": [0, 1], "transmittance": 0.8},
        {"type": "beam_splitter", "dofs": [0, 2], "transmittance": 0.9},
        {"type": "phase", "dof": 0, "phi0_rad": 0.3, "tau_s": 1.2, "beta_l_s2": 0.0},
        {"type": "fourier", "dof": 0},
        {"type": "fourier", "dof": 1},
        {"type": "loss", "eta": {"1": 0.85}},
    ], [[-3.0, 3.0], [-2.0, 2.5], "empty"], [0, 1, None], [3, 3]),
    "type0i": ("type0i", ["mode", "anc"], [
        {"type": "beam_splitter", "dofs": [0, 1], "transmittance": 0.8},
        {"type": "phase", "dof": 0, "phi0_rad": 0.3, "tau_s": 0.7, "beta_l_s2": 0.1},
        {"type": "fourier", "dof": 0},
    ], [[-2.5, 3.0], "empty"], [0, None], [4]),
}


def _sector_config(name, method, delta_minus=5.0):
    process, modes, pipeline, windows, detectors, cutoffs = _SECTOR_SCENARIOS[name]
    detection = {"method": method, "domain": "time", "windows": windows,
                 "detectors": detectors, "pnd_cutoffs": cutoffs}
    if method == "log_series":
        detection["series_order"] = 12
    return {
        "source": {"process": process, "jsa": {"gaussian": {
            "delta_plus_rad_s": 1.0, "delta_minus_rad_s": delta_minus}}},
        "grid": {"extent_sigmas": 5.2, "points_per_width": 2.0},
        "modes": modes,
        "pipeline": pipeline,
        "detection": detection,
        "sweep": {"parameter": "source.mu", "values": [0.05, 0.2]},
    }


def _run_both(monkeypatch, config):
    """`run`'s rows and PND table through the sector path, then with the
    type-II sectors the plan pushes and mirrors cut from the full factor
    `covariance_factor` = [V_1, V_2], pushed at once."""
    from biphoton_sim import cli
    from biphoton_sim import plan as plan_module
    from biphoton_sim.covariance import _mirror

    sector = cli.run_scenario(config)
    seconds = []

    def whole(steps, in_dofs, factor, _push=plan_module._push_pipeline):
        if config["source"]["process"] == "type0i":  # V_1 is all of V
            return _push(steps, in_dofs, factor)
        out, dofs = _push(steps, in_dofs, np.hstack([factor, _mirror(factor)]))
        half = factor.shape[1]
        seconds.append(out[:, half:])
        return out[:, :half], dofs

    with monkeypatch.context() as patch:
        patch.setattr(plan_module, "_push_pipeline", whole)
        patch.setattr(plan_module, "_mirror", lambda first: seconds.pop())
        full = cli.run_scenario(config)
    return sector, full


@pytest.mark.parametrize("name", list(_SECTOR_SCENARIOS))
@pytest.mark.parametrize("method", ["exact", "log_series"])
def test_sector_path_matches_full_factor_to_the_bit(monkeypatch, name, method):
    # 40 Schmidt modes: each sector's 2K = 80 columns pass the same BLAS
    # kernels in a push of their own as in the 4K push of both (see the
    # odd count below)
    sector, full = _run_both(monkeypatch, _sector_config(name, method))
    assert sector["columns"] == full["columns"]
    # 17 significant digits: the same strings are the same doubles
    assert sector["rows"] == full["rows"]
    assert sector["pnd"].probabilities.tobytes() == full["pnd"].probabilities.tobytes()


@pytest.mark.parametrize("method", ["exact", "log_series"])
def test_coupled_sector_path_with_an_odd_mode_count(monkeypatch, method):
    # 33 Schmidt modes: a sector's 2K = 66 columns can end in a column block
    # that the BLAS multiplies apart from the others in the Fourier step's
    # complex product, while 4K = 132 columns do not; that block may move
    # by an ulp, so the rows agree within a few ulp, not to the bit.  A
    # log-series bound goes as lambda_max(H)^order, so it moves order times
    # as much (measured up to 1.7e-14 at order 20)
    from biphoton_sim import scenario

    config = _sector_config("coupled", method, delta_minus=4.0)
    assert scenario._build_source(config)[0]().coefficients.size == 33
    sector, full = _run_both(monkeypatch, config)
    for got, want in zip(sector["rows"], full["rows"]):
        assert got[2] == want[2]
        assert [float(x) for x in got[3:]] == pytest.approx(
            [float(x) for x in want[3:]], rel=1e-13, abs=0)
    assert np.allclose(sector["pnd"].probabilities, full["pnd"].probabilities,
                       rtol=1e-14, atol=0)


@pytest.mark.parametrize("name", ["uncoupled", "coupled", "type0i"])
def test_run_pushes_sectors_of_2k_columns(monkeypatch, name):
    # every run pushes one sector once; a coupled type-II run mirrors it
    from biphoton_sim import cli, scenario
    from biphoton_sim import plan as plan_module

    widths = []

    def spied(steps, in_dofs, factor, _push=plan_module._push_pipeline):
        widths.append(factor.shape[1])
        return _push(steps, in_dofs, factor)

    monkeypatch.setattr(plan_module, "_push_pipeline", spied)
    config = _sector_config(name, "exact")
    cli.run_scenario(config)
    modes = scenario._build_source(config)[0]().coefficients.size
    assert widths == [2 * modes]


@pytest.mark.parametrize("name", [n for n, case in _CASES.items()
                                  if case[0] is ProcessType.TYPE_II])
def test_row_test_reads_the_first_sector_only(name):
    # a detected row of s V is nonzero in both column halves exactly when
    # the first half is nonzero at it and at its annihilation/creation partner
    from biphoton_sim.plan import _couples

    plan = _case(name, 0.05)[0]
    process, _, transmittance, *_ = _CASES[name]
    schmidt = plan.schmidt
    t = transmittance(schmidt.grid_signal.n)
    s = np.block([[t, np.zeros_like(t)], [np.zeros_like(t), t.conj()]])
    factor = s @ covariance_factor(schmidt, process)
    rows = np.concatenate(plan.masks * 2) > 0
    half = factor.shape[1] // 2
    nonzero = factor[rows] != 0
    both = np.any(nonzero[:, :half].any(axis=1) & nonzero[:, half:].any(axis=1))
    assert _couples(factor[:, :half], plan.masks) == both == (plan.multiplicity == 1)
