"""`Scenario`: the checked config, its plan and its sweep points, step by step."""
import copy
import json
import warnings

import numpy as np
import pytest

from biphoton_sim import spectral
from biphoton_sim.cli import ConfigError, main, run_scenario
from biphoton_sim.scenario import Scenario
from test_detection import _readme_config


@pytest.mark.parametrize("method", ["exact", "log_series"])
def test_readme_scenario_step_by_step_matches_run_scenario(method):
    config = _readme_config(method)
    config["detection"]["series_order"] = 20
    result = run_scenario(copy.deepcopy(config))
    scenario = Scenario.from_config(config)
    schmidt = scenario.decompose()
    plan = scenario.plan(schmidt)
    points = [scenario.point(plan, k, gain) for k, gain in enumerate(scenario.gains(schmidt))]
    assert len(points) == len(result["rows"]) == 3
    for point, raw, row in zip(points, result["raw"], result["rows"]):
        assert [point[key] for key in ("mu", "gain", "p_vac")] == [raw[key] for key in
                                                                   ("mu", "gain", "p_vac")]
        assert point["bounds"] == raw["bounds"]
        values = dict(zip(result["columns"], row))
        assert values["gain"] == f"{point['gain']:.17g}"
        assert values["p_vac"] == f"{point['p_vac']:.17g}"
        assert all(values[name] == f"{value:.17g}" for name, value in point["bounds"].items())
    assert np.array_equal(points[0]["pnd"].probabilities, result["pnd"].probabilities)
    assert points[0]["pnd"].normalization_deficit == result["pnd"].normalization_deficit
    assert all(point["pnd"] is None for point in points[1:])


def _faulty(change):
    config = _readme_config("log_series")
    change(config)
    return config


_FAULTS = {
    "unknown field": (lambda c: c["detection"].update(pnd_cutofs=[3]),
                      "detection.pnd_cutofs: unknown field"),
    "method": (lambda c: c["detection"].update(method="magic"),
               "detection.method: unknown method 'magic'"),
    "series order": (lambda c: c["detection"].update(series_order=0),
                     "detection.series_order: expected an integer >= 1"),
    "step type": (lambda c: c["pipeline"].append({"type": "mirror"}),
                  "pipeline[4].type: unknown transform 'mirror'"),
    "mode index": (lambda c: c["pipeline"][3].update(eta={"5": 0.5}),
                   "pipeline[3].eta: mode index 5 out of range"),
    "sweep value": (lambda c: c["sweep"].update(values=[0.1, -1.0]),
                    "sweep.values[1]: expected a number >= 0"),
    "cutoffs": (lambda c: c["detection"].update(pnd_cutoffs=[1, 2, 3]),
                "detection.pnd_cutoffs: expected one cutoff per detector (2) "
                "or a single one for all"),
}


@pytest.mark.parametrize("name", _FAULTS)
def test_config_faults_raise_before_any_svd(monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("the SVD ran")

    monkeypatch.setattr(spectral, "schmidt_decompose", refuse)
    change, message = _FAULTS[name]
    with pytest.raises(ConfigError) as err:
        Scenario.from_config(_faulty(change))
    assert str(err.value) == message
    Scenario.from_config(_readme_config("log_series"))  # a sound config: no SVD either


def _source_level_config(method, values, pipeline=()):
    """The README Gaussian source at `points_per_width` 2 under a
    source-level method, swept over the mean pair numbers `values`."""
    return {
        "source": {"process": "type2",
                   "jsa": {"gaussian": {"delta_plus_rad_s": 1.0, "delta_minus_rad_s": 4.0}}},
        "grid": {"extent_sigmas": 6.0, "points_per_width": 2.0},
        "pipeline": list(pipeline),
        "detection": {"method": method},
        "sweep": {"parameter": "source.mu", "values": values},
    }


def test_invalid_distribution_names_its_point_and_method(tmp_path, capsys):
    # at the second point the lossy Hermite model has mu 5.39 < eps2 5.72
    config = _source_level_config("hermite", [3.0, 6.0],
                                  [{"type": "loss", "eta": {"0": 0.1, "1": 0.1}}])
    config["output"] = {"csv_path": str(tmp_path / "out.csv")}
    (tmp_path / "hermite.json").write_text(json.dumps(config))
    assert main(["run", str(tmp_path / "hermite.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric domain error: sweep.values[1] = 6.0: method 'hermite': "
                          "invalid distribution: mu = ")


def test_negative_linear_point_warns_once_per_point_naming_it():
    # Python's default filter shows a warning once per text and location, so
    # each negative point needs its own text to be seen
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        rows = run_scenario(_source_level_config("linear", [0.1, 1.5, 3.0]))["rows"]
    p_vacs = [float(row[3]) for row in rows]
    assert p_vacs[0] > 0 > p_vacs[1] > p_vacs[2]
    assert [str(w.message) for w in caught] == [
        f"sweep.values[{k}] = {mu!r}: single-pair vacuum probability {p!r} < 0"
        for k, mu, p in ((1, 1.5, p_vacs[1]), (2, 3.0, p_vacs[2]))
    ]
    assert all(w.category is UserWarning for w in caught)
