"""The benchmark's checks accept what `run`, `figure` and `schmidt` write.

`perfbench/checks.py` rebuilds each `run` output from a dense reference made
of the transform constructors, the exact covariance and `oracle`, holds
fig3 to its closed forms and a Schmidt summary to the Gaussian model's.
Running those checks here means that deleting or changing a name they call,
or breaking what they check, fails the suite, and not only a benchmark run.
"""
import json
import random
from pathlib import Path

import pytest

from biphoton_sim import cli
from biphoton_sim import plan as plan_module
from test_detection import _readme_config

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _check(tmp_path, monkeypatch, capsys, config):
    """The problems `check_scenario` finds in what `run` writes for the README
    scenario's source and detection behind `config`'s pipeline, and the
    column count of each push of the Schmidt factor."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    widths = []

    def counted(steps, in_dofs, factor, _push=plan_module._push_pipeline):
        widths.append(factor.shape[1])
        return _push(steps, in_dofs, factor)

    monkeypatch.setattr(plan_module, "_push_pipeline", counted)
    config["detection"]["series_order"] = 20
    config["source"]["mu"] = 0.05
    config["sweep"]["values"] = [0.05, 0.2]
    config["output"] = {"csv_path": str(tmp_path / "readme.csv"),
                        "pnd_csv_path": str(tmp_path / "readme_pnd.csv")}
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path)]) == 0
    capsys.readouterr()
    return checks.check_scenario({"check": {"kind": "scenario", "config": str(path)}}), widths


def test_check_scenario_accepts_readme_scenario(tmp_path, monkeypatch, capsys):
    problems, widths = _check(tmp_path, monkeypatch, capsys, _readme_config("log_series"))
    assert problems == []
    assert len(widths) == 1


def test_check_scenario_accepts_coupled_scenario(tmp_path, monkeypatch, capsys):
    # a signal-idler beam splitter first couples the type-II sectors, so the
    # run pushes the first, mirrors it into the second, and the dense
    # reference checks both
    config = _readme_config("log_series")
    config["pipeline"].insert(0, {"type": "beam_splitter", "dofs": [0, 1], "transmittance": 0.8})
    problems, widths = _check(tmp_path, monkeypatch, capsys, config)
    assert problems == []
    assert len(widths) == 1


def _part_calls(tmp_path, monkeypatch, part):
    """The calls of the benchmark's `part` at seed 1, with their inputs written
    to `tmp_path`, which becomes the working directory, and `checks`."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import workloads

    monkeypatch.chdir(tmp_path)
    return workloads.PARTS[part](random.Random(f"{part}:1"), str(tmp_path)), checks


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_check_figure_accepts_figures_part(tmp_path, monkeypatch, capsys, name):
    calls, checks = _part_calls(tmp_path, monkeypatch, "figures")
    (call,) = [c for c in calls if c["check"]["name"] == name]
    assert cli.main(call["argv"]) == 0
    capsys.readouterr()
    assert checks.check_figure(call) == []


def test_check_schmidt_accepts_small_schmidt(tmp_path, monkeypatch, capsys):
    (call,), checks = _part_calls(tmp_path, monkeypatch, "small_schmidt")
    assert cli.main(call["argv"]) == 0
    out, _ = capsys.readouterr()
    assert checks.check_schmidt(call, out) == []


def test_traced_run_matches_untraced(tmp_path, monkeypatch, capsys):
    """The benchmark's traced run (`perfbench/spans.py`) of its small PND call
    writes what an untraced run writes and records a span of the table
    builder, so that an API change that breaks a span hook fails the suite."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    results = {}
    for traced in (False, True):
        work = tmp_path / str(traced)
        work.mkdir()
        (call,) = workloads.PARTS["small_pnd"](random.Random("small_pnd:1"), str(work))
        monkeypatch.chdir(work)
        tracer = spans.Tracer()
        if traced:
            tracer.install()
        try:
            code = cli.main(call["argv"])
        finally:
            tracer.uninstall()
        out, err = capsys.readouterr()
        results[traced] = code, out, err, [(work / p).read_bytes() for p in call["outputs"]]
    assert results[True] == results[False] and results[False][0] == 0
    assert "detection.vacuum_point_gf" in {name for name, *_ in tracer.spans}
