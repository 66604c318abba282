"""The package runs on numpy alone: scipy is a test dependency only."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"


def test_no_scipy_import_in_source():
    pattern = re.compile(r"^\s*(?:import|from)\s+scipy\b", re.MULTILINE)
    found = [
        f"{path.name}: {match.group(0).strip()}"
        for path in sorted((SRC / "biphoton_sim").glob("*.py"))
        for match in pattern.finditer(path.read_text())
    ]
    assert found == []


def _readme_scenario(tmp_path):
    """The README scenario on a coarse grid and one sweep point, with its
    PND, written to tmp_path/scenario.json."""
    config = {
        "source": {
            "process": "type2",
            "mu": 0.1,
            "jsa": {"gaussian": {"delta_plus_rad_s": 1.0, "delta_minus_rad_s": 4.0}},
        },
        "grid": {"extent_sigmas": 6.0, "points_per_width": 2.0},
        "modes": ["signal", "idler", "anc"],
        "pipeline": [
            {"type": "beam_splitter", "dofs": [0, 2], "transmittance": 0.9},
            {"type": "phase", "dof": 0, "phi0_rad": 0.0, "tau_s": 1.2, "beta_l_s2": 0.0},
            {"type": "fourier", "dof": 0},
            {"type": "loss", "eta": {"1": 0.85}},
        ],
        "detection": {
            "method": "log_series",
            "series_order": 20,
            "domain": "time",
            "windows": [[-3.0, 3.0], None, "empty"],
            "pnd_cutoffs": [3, 3],
            "detectors": [0, 1, None],
        },
        "output": {"csv_path": "demo.csv", "pnd_csv_path": "demo_pnd.csv"},
    }
    (tmp_path / "scenario.json").write_text(json.dumps(config))


def _run_script(tmp_path, script):
    """Run `script` in a fresh interpreter in tmp_path; its last stdout line."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


def test_cli_run_with_pnd_and_figure_leave_scipy_unloaded(tmp_path):
    _readme_scenario(tmp_path)
    script = (
        "import json, sys\n"
        "import biphoton_sim.cli as cli\n"
        "assert cli.main(['run', 'scenario.json']) == 0\n"
        "assert cli.main(['figure', 'fig2', '--out', 'figs']) == 0\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
        "                  'biphoton_sim.oracle' in sys.modules]))\n"
    )
    scipy_modules, oracle_loaded = json.loads(_run_script(tmp_path, script))
    assert (tmp_path / "demo_pnd.csv").exists()
    assert scipy_modules == []
    # the dense references are for tests only: no production path imports them
    assert not oracle_loaded


def test_log_series_run_takes_no_random_power_iteration(tmp_path):
    # every radius check is exact, from the eigenvalues of the operand: no
    # power iteration from a random start, so numpy.random is never imported
    _readme_scenario(tmp_path)
    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "import biphoton_sim.cli as cli\n"
        "from biphoton_sim import detection\n"
        "assert cli.main(['run', 'scenario.json']) == 0\n"
        "k = np.array([[0.2, 0.5], [0.0, -0.3]])\n"
        "assert abs(detection.log_det_series(k, 40) - np.log(1.2 * 0.7)) < 1e-12\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('numpy.random'))))\n"
    )
    loaded = _run_script(tmp_path, script)
    assert (tmp_path / "demo_pnd.csv").exists()
    assert json.loads(loaded) == []
