"""One measuring process: import the package, run workload passes, check.

    python3 worker.py SPEC.json RESULT.json UNTRACED_S TRACED_S SPANS.json

Run with the checkout's `src` on PYTHONPATH and the work directory as the
current directory.  A pass runs the spec's CLI calls in order through
`biphoton_sim.cli.main(argv)`; its wall time is the sum of the calls' times.
Given an UNTRACED_S budget, the first pass warms caches and lazy set-up and
is not counted; untraced passes then repeat until UNTRACED_S has elapsed
since the warm-up started, and traced passes until TRACED_S has.  A phase
with a positive budget runs at least one counted pass.
Peak RSS is read after the untraced passes.  Outputs of every call must match the
first pass byte for byte, and the final outputs go through checks.py; both
run outside the timed region.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time


def _digest(call, stdout: str) -> tuple:
    h = hashlib.sha256(stdout.encode())
    csv_bytes = 0 if call["outputs"] else len(stdout.encode())
    for path in call["outputs"]:
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(data)
        if path.endswith(".csv"):
            csv_bytes += len(data)
    return h.hexdigest(), csv_bytes


class Runner:
    def __init__(self, cli, calls):
        self.cli = cli
        self.calls = calls
        self.reference = [None] * len(calls)  # (digest, stdout) of the first pass
        self.executions = [0] * len(calls)
        self.failures = [[] for _ in calls]

    def run_pass(self) -> tuple:
        """Run every call once; return (wall seconds of each call, CSV bytes
        written)."""
        walls = []
        csv_bytes = 0
        for i, call in enumerate(self.calls):
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = self.cli.main(list(call["argv"]))
            except SystemExit as exc:
                rc = f"SystemExit({exc.code})"
            except Exception as exc:  # recorded as a failed operation
                rc = f"{type(exc).__name__}: {exc}"
            walls.append(time.perf_counter() - start)
            self.executions[i] += 1
            if rc != 0:
                self.failures[i].append(f"{' '.join(call['argv'][:2])}: exit {rc}")
                continue
            try:
                digest, nbytes = _digest(call, buf.getvalue())
            except OSError as exc:
                self.failures[i].append(f"{' '.join(call['argv'][:2])}: {exc}")
                continue
            csv_bytes += nbytes
            if self.reference[i] is None:
                self.reference[i] = (digest, buf.getvalue())
            elif digest != self.reference[i][0]:
                self.failures[i].append(
                    f"{' '.join(call['argv'][:2])}: output differs from the first pass")
        return walls, csv_bytes

    def check(self) -> tuple:
        """Check the outputs against the oracle; return (attempted, failed, problems).

        A call whose output fails a check failed on every execution, since
        every execution had to reproduce the first one byte for byte."""
        import checks

        attempted = sum(self.executions)
        failed = 0
        problems = []
        for i, call in enumerate(self.calls):
            problems += self.failures[i]
            if self.reference[i] is None:
                failed += self.executions[i]
                continue
            try:
                wrong = checks.check(call, self.reference[i][1])
            except Exception as exc:  # a check that cannot run is a failed check
                wrong = [f"check raised {type(exc).__name__}: {exc}"]
            problems += [f"{' '.join(call['argv'][:2])}: {p}" for p in wrong]
            failed += self.executions[i] if wrong else len(self.failures[i])
        return attempted, failed, problems


def _loop(runner, seconds, on_pass=None) -> list:
    """Passes until `seconds` have elapsed, at least one; returns each
    pass's per-call wall times."""
    walls = []
    start = time.perf_counter()
    while seconds > 0 and (not walls or time.perf_counter() - start < seconds):
        call_walls, nbytes = runner.run_pass()
        walls.append(call_walls)
        if on_pass is not None:
            on_pass(nbytes)
    return walls


def _warm_loop(runner, seconds) -> tuple:
    """A warm-up pass, then passes until `seconds` have elapsed since it
    started; at least one pass after the warm-up.  Returns (warm-up wall,
    walls); with no budget, runs nothing."""
    if seconds <= 0:
        return None, []
    start = time.perf_counter()
    warmup, _ = runner.run_pass()
    return warmup, _loop(runner, max(seconds - (time.perf_counter() - start), 1e-9))


def _blas_build() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def main(argv) -> int:
    spec_path, result_path, untraced_s, traced_s, spans_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    start = time.perf_counter()
    import biphoton_sim.cli as cli

    import_s = time.perf_counter() - start
    runner = Runner(cli, spec["calls"])
    warmup, untraced = _warm_loop(runner, float(untraced_s))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced, summaries, passes = [], [], []
    if float(traced_s) > 0:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

        labels = [call["part"] for call in spec["calls"]]

        def keep(nbytes):
            summary = tracer.summary(labels)
            summary["cli.csv_bytes"] = nbytes
            summaries.append(summary)
            passes.append(tracer.spans)
            tracer.reset()

        try:
            traced = _loop(runner, float(traced_s), keep)
        finally:
            tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "passes": passes}, fh,
                      separators=(",", ":"))

    attempted, failed, problems = runner.check()
    import numpy
    import scipy

    result = {
        "import_s": import_s,
        "warmup_call_walls": warmup,
        "untraced_call_walls": untraced,
        "traced_call_walls": traced,
        "peak_rss_mb": rss_mb,
        "summaries": summaries,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_build(),
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
