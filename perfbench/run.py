"""Benchmark of the biphoton_sim CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
Workloads (workloads.py, README.md): pipeline, figures_schmidt.

--trace 0 measures the end-to-end metrics with tracing off:
  wall_s       median wall time of one workload pass (its CLI calls in order)
               in a process that has already imported the package and run
               one warm-up pass;
  setup_s      median time to `import biphoton_sim.cli` in a fresh process
               (5 samples: 3 before the workload process, 2 after);
  peak_rss_mb  peak resident set of the workload process.
--trace 1 gives the per-layer metrics instead: half the time runs untraced
passes, half runs passes with every layer's public functions wrapped in
spans (spans.py); then one traced pass runs in a second process with
OPENBLAS_NUM_THREADS=1 as the single-thread baseline.

Every output is checked (checks.py) outside the timed regions.  Every metric
is printed by name with its unit; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A full
record (samples, per-part times, environment, failed checks) goes to
.perfbench_work/records/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

# fresh-process imports timed before and after the workload process, so
# that the samples meet more than one phase of the machine's speed drift
SETUP_SAMPLES = (3, 2)
TIME_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_NAMES = ("spectral", "covariance", "blocks", "transforms", "detection", "bounds", "cli")
# per-layer metric -> (unit, where its value comes from in a traced-pass summary)
PER_LAYER = {
    "spectral.self_s": ("s", ("layers", "spectral", "self_s")),
    "spectral.load_jsa_csv.self_s": ("s", ("functions", "spectral.load_jsa_csv", "self_s")),
    "spectral.schmidt_decompose.self_s":
        ("s", ("functions", "spectral.schmidt_decompose", "self_s")),
    "covariance.self_s": ("s", ("layers", "covariance", "self_s")),
    "covariance.gain_for_mean_pairs.self_s":
        ("s", ("functions", "covariance.gain_for_mean_pairs", "self_s")),
    "covariance.gain_for_mean_pairs.calls":
        ("count", ("functions", "covariance.gain_for_mean_pairs", "calls")),
    "covariance.spectra_built": ("count", ("computed", "covariance.spectra_built")),
    "covariance.build_covariance_exact.self_s":
        ("s", ("functions", "covariance.build_covariance_exact", "self_s")),
    "blocks.self_s": ("s", ("layers", "blocks", "self_s")),
    "blocks.matmul.calls": ("count", ("functions", "blocks.matmul", "calls")),
    "blocks.dense_products": ("count", ("computed", "blocks.dense_products")),
    "blocks.dense_flops": ("flop", ("computed", "blocks.dense_flops")),
    "blocks.hermiticity_defect.self_s":
        ("s", ("functions", "blocks.hermiticity_defect", "self_s")),
    "transforms.self_s": ("s", ("layers", "transforms", "self_s")),
    "transforms.operand_dim": ("count", ("computed", "transforms.operand_dim")),
    "detection.self_s": ("s", ("layers", "detection", "self_s")),
    "detection.log_series_gf.self_s":
        ("s", ("functions", "detection.log_series_gf", "self_s")),
    "detection.moment_flops": ("flop", ("computed", "detection.moment_flops")),
    "detection.moment_bytes": ("B", ("computed", "detection.moment_bytes")),
    "detection.log_det_series.self_s":
        ("s", ("functions", "detection.log_det_series", "self_s")),
    "detection.pnd.self_s": ("s", ("functions", "detection.pnd", "self_s")),
    "bounds.self_s": ("s", ("layers", "bounds", "self_s")),
    "bounds.calls": ("count", ("layers", "bounds", "calls")),
    "cli.self_s": ("s", ("layers", "cli", "self_s")),
    "cli.csv_bytes": ("B", ("cli.csv_bytes",)),
}
# filled from the runs themselves rather than from one summary
DERIVED = {"traced_wall_s": "s", "trace_overhead_s": "s", "threads1.wall_s": "s"}
DERIVED.update({f"threads1.{layer}.self_s": "s" for layer in LAYER_NAMES})


def _lookup(summary, path):
    node = summary
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return 0
        node = node[key]
    return node


def _tail(samples):
    """Highest percentile with at least 10 samples beyond it, or the maximum
    when there are fewer than 11 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 11:
        k = n - 11
        return {"value": ordered[k], "percentile": 100.0 * (k + 1) / n, "samples": n,
                "beyond": n - k - 1}
    return {"value": ordered[-1], "percentile": 100.0, "samples": n, "beyond": 0,
            "note": "fewer than 11 samples: no percentile has 10 beyond it; this is the maximum"}


def _child_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("BIPHOTON_SIM_THREADS", None)  # the default serial sweep is measured
    env.update(extra)
    return env


class Budget:
    def __init__(self, seconds):
        self.deadline = time.monotonic() + seconds

    def left(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark ran out of its time limit")
        return left


def _measure_setup(budget, work, count):
    """Times of `count` imports, each in a fresh process."""
    code = ("import time; t = time.perf_counter(); import biphoton_sim.cli; "
            "print(repr(time.perf_counter() - t))")
    samples = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=work,
                             stdout=subprocess.PIPE, check=True, text=True,
                             timeout=budget.left())
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def _run_worker(budget, work, tag, untraced_s, traced_s, **env):
    result = os.path.join(work, f"result-{tag}.json")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), os.path.join(work, "spec.json"),
         result, repr(untraced_s), repr(traced_s), os.path.join(work, f"spans-{tag}.json")],
        env=_child_env(**env), cwd=work, stdout=subprocess.DEVNULL, check=True,
        timeout=budget.left())
    with open(result) as fh:
        return json.load(fh)


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _pass_walls(run, key, part=None):
    """Wall time of each pass (or of one part of it) from per-call times."""
    return [sum(w for w, part_of in zip(calls, run["parts"]) if part in (None, part_of))
            for calls in run[key]]


def _per_layer(main, single):
    metrics = {}
    for name, (unit, path) in PER_LAYER.items():
        metrics[name] = (statistics.median(_lookup(s, path) for s in main["summaries"]), unit)
    traced = statistics.median(_pass_walls(main, "traced_call_walls"))
    metrics["traced_wall_s"] = (traced, "s")
    metrics["trace_overhead_s"] = (
        traced - statistics.median(_pass_walls(main, "untraced_call_walls")), "s")
    metrics["threads1.wall_s"] = (_pass_walls(single, "traced_call_walls")[0], "s")
    for layer in LAYER_NAMES:
        metrics[f"threads1.{layer}.self_s"] = (
            _lookup(single["summaries"][0], ("layers", layer, "self_s")), "s")
    return metrics


def _function_table(run):
    """Median self time, total time and calls of every traced function."""
    names = sorted({n for s in run["summaries"] for n in s["functions"]})
    return {n: {k: statistics.median(_lookup(s, ("functions", n, k)) for s in run["summaries"])
                for k in ("self_s", "total_s", "calls")}
            for n in names}


def _largest_layers(run):
    """Per part: the layer with the largest median self time in traced passes."""
    out = {}
    for part in dict.fromkeys(run["parts"]):
        layers = {layer: statistics.median(_lookup(s, ("parts", part, layer, "self_s"))
                                           for s in run["summaries"])
                  for layer in LAYER_NAMES}
        top = max(layers, key=layers.get)
        out[part] = {"layer": top, "self_s": layers[top], "all": layers}
    return out


def _check_declared(names, key):
    """The metric names emitted must be the ones BENCHMARK.json declares."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as fh:
        declared = [m["name"] for m in json.load(fh)[key]]
    if sorted(declared) != sorted(names):
        raise SystemExit(f"perfbench: BENCHMARK.json {key} {sorted(declared)} "
                         f"!= emitted {sorted(names)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "biphoton_sim", "cli.py")):
        print(f"perfbench: no biphoton_sim sources under {SRC}", file=sys.stderr)
        return 2
    _check_declared(END_TO_END if not args.trace else [*PER_LAYER, *DERIVED],
                    "end_to_end" if not args.trace else "per_layer")

    budget = Budget(TIME_LIMIT_S)
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    t0 = time.perf_counter()
    spec = workloads.make(args.workload, args.seed, work)
    with open(os.path.join(work, "spec.json"), "w") as fh:
        json.dump(spec, fh, indent=1)
    input_s = time.perf_counter() - t0

    runs = {}
    if not args.trace:
        setup = _measure_setup(budget, work, SETUP_SAMPLES[0])
        runs["main"] = _run_worker(budget, work, "main", args.seconds, 0.0)
        setup += _measure_setup(budget, work, SETUP_SAMPLES[1])
    else:
        setup = []
        runs["main"] = _run_worker(budget, work, "main", args.seconds / 2, args.seconds / 2)
        runs["threads1"] = _run_worker(budget, work, "threads1", 0.0, 1e-9,
                                       OPENBLAS_NUM_THREADS="1")
    parts = [call["part"] for call in spec["calls"]]
    for run in runs.values():
        run["parts"] = parts
    main_run = runs["main"]
    walls = _pass_walls(main_run, "untraced_call_walls")
    if not args.trace:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (main_run["peak_rss_mb"], "MB"),
        }
    else:
        metrics = _per_layer(main_run, runs["threads1"])
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    problems = [p for r in runs.values() for p in r["problems"]]
    part_walls = {part: statistics.median(_pass_walls(main_run, "untraced_call_walls", part))
                  for part in dict.fromkeys(parts)}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "wall_s_samples": walls,
        "wall_s_tail": _tail(walls),
        "part_wall_s": part_walls,
        "largest_self_time_layer": _largest_layers(main_run) if args.trace else None,
        "functions": _function_table(main_run) if args.trace else None,
        "setup_s_samples": setup,
        "fail_ratio": failed / attempted,
        "problems": problems,
        "input_generation_s": input_s,
        "computed_counts": [k for k, (_, path) in PER_LAYER.items() if path[0] == "computed"],
        "runs": {k: {key: v for key, v in r.items() if key != "summaries"}
                 for k, r in runs.items()},
        "environment": {
            "cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "openblas_build": main_run["blas"],
            "BIPHOTON_SIM_THREADS": "unset for every run (caller had "
                                    f"{os.environ.get('BIPHOTON_SIM_THREADS', 'none')})",
            "numpy": main_run["numpy"],
            "scipy": main_run["scipy"],
            "python": platform.python_version(),
            "git_commit": _git_commit(),
            "seed": args.seed,
        },
    }
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    record_path = os.path.join(
        WORK, "records", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)
    for name in ("jsa.csv", "small_jsa.csv"):
        if os.path.exists(os.path.join(work, name)):
            os.remove(os.path.join(work, name))

    env = record["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commit {env['git_commit']}")
    print(f"environment: {env['cores']} cores ({env['cores_usable']} usable), "
          f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}, "
          f"{(env['openblas_build'] or {}).get('openblas configuration')}, "
          f"BIPHOTON_SIM_THREADS unset, numpy {env['numpy']}, scipy {env['scipy']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    tail = record["wall_s_tail"]
    print(f"wall_s_tail = {tail['value']!r} s (p{tail['percentile']:.3g} of "
          f"{tail['samples']} samples{'; ' + tail['note'] if 'note' in tail else ''})")
    print(f"fail_ratio = {record['fail_ratio']!r} 1 ({failed} of {attempted} operations)")
    for part, value in part_walls.items():
        print(f"part {part}: wall_s = {value!r} s (median over untraced passes)")
    for part, top in (record["largest_self_time_layer"] or {}).items():
        print(f"part {part}: largest self time in layer {top['layer']} ({top['self_s']:.3f} s)")
    for p in problems:
        print(f"failed check: {p}")
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, TimeoutError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
