"""The benchmark's scenario check accepts what `run` writes.

`perfbench/checks.py` rebuilds each `run` output from a dense reference made
of the transform constructors, the exact covariance and `oracle`.  Running
that check here means that deleting or changing a name it calls fails the
suite, and not only a benchmark run.
"""
import json
from pathlib import Path

from biphoton_sim.cli import main
from test_detection import _readme_config

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def test_check_scenario_accepts_readme_scenario(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    config = _readme_config("log_series")
    config["detection"]["series_order"] = 20
    config["source"]["mu"] = 0.05
    config["sweep"]["values"] = [0.05, 0.2]
    config["output"] = {"csv_path": str(tmp_path / "readme.csv"),
                        "pnd_csv_path": str(tmp_path / "readme_pnd.csv")}
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    assert checks.check_scenario({"check": {"kind": "scenario", "config": str(path)}}) == []
