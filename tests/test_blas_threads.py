"""`run` output across BLAS thread counts.

numpy offers no way to pin the BLAS thread count after import, and the
Schmidt SVD rounds differently with 1 and 2 OpenBLAS threads, so the README
scenario's files are bit-identical only at a fixed thread count.  Across
thread counts every written number agrees within 1e-12 relative (measured:
p_vac moves in its 16th-17th digit, the bound columns by about 4e-16 and
the PND entries by about 3e-15 relative).
"""
import csv
import io
import json
from pathlib import Path

import pytest

from test_numpy_only import _run_script

README = Path(__file__).parents[1] / "README.md"


def _run_at(tmp_path, threads: int):
    """The README scenario's CSV and PND CSV text, from a fresh interpreter
    that sets OPENBLAS_NUM_THREADS before numpy loads."""
    section = README.read_text().split("### Scenario configuration")[1]
    (tmp_path / "scenario.json").write_text(section.split("```json\n")[1].split("```")[0])
    script = (
        "import os\n"
        f"os.environ['OPENBLAS_NUM_THREADS'] = '{threads}'\n"
        "import json\n"
        "import biphoton_sim.cli as cli\n"
        "assert cli.main(['run', 'scenario.json']) == 0\n"
        "print(json.dumps([open(name).read() for name in ('demo.csv', 'demo_pnd.csv')]))\n"
    )
    return tuple(json.loads(_run_script(tmp_path, script)))


def _numbers(text):
    """Every numeric field of a CSV text, in order (the method name skipped)."""
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return [float(v) for row in rows for v in row if v not in ("log_series",)]


def test_readme_scenario_across_blas_threads(tmp_path):
    runs = {threads: [_run_at(tmp_path, threads) for _ in range(2)] for threads in (1, 2)}
    for first, second in runs.values():
        assert first == second  # bit-identical at a fixed thread count
    for one, two in zip(runs[1][0], runs[2][0]):
        a, b = _numbers(one), _numbers(two)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x == pytest.approx(y, rel=1e-12, abs=0)
