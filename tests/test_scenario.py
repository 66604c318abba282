"""`Scenario`: the checked config, its plan and its sweep points, step by step."""
import copy

import numpy as np
import pytest

from biphoton_sim import spectral
from biphoton_sim.cli import ConfigError, run_scenario
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
