"""The README's code examples run against the current API."""
from pathlib import Path

import numpy as np

README = Path(__file__).parents[1] / "README.md"


def test_library_sketch_runs():
    section = README.read_text().split("## Library sketch")[1]
    code = section.split("```python\n")[1].split("```")[0]
    namespace = {}
    exec(compile(code, "README.md: Library sketch", "exec"), namespace)
    # both arms on one detector: the log-series table sums the exact table's
    # anti-diagonals
    p = namespace["stats"].probabilities
    by_total = [sum(p[i, n - i] for i in range(n + 1)) for n in range(p.shape[0])]
    assert np.allclose(namespace["series_stats"].probabilities, by_total, rtol=1e-10, atol=0)
    # the scenario route builds the same source, plan and point
    point = namespace["point"]
    assert np.array_equal(point["pnd"].probabilities, namespace["series_stats"].probabilities)
    assert point["p_vac"] == np.exp(namespace["log_vacuum"])
