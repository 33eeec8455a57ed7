"""mia-audit benchmark: four audit workloads, end-to-end metrics, a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload audit_default --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

One workload per call prints its metrics as a table and, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. `--workload all`
runs every workload untraced and traced, prints every table, and writes
BENCHMARK.json from the definitions below.

Each run starts fresh worker processes (perfbench/worker.py) with BLAS pinned
to one thread: SETUP_SAMPLES - 1 that only set up, then one that also runs the
operations. A fresh process per run and a fresh master seed per operation mean
no in-process cache can carry over between runs or between operations.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

RUN_SECONDS = 24
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170.0
WORK_DIR = ".perfbench_work"
SPANS_DIR = ".perfbench_out"

WORKLOADS = {
    "audit_default": "README default config, all 5 attacks; fresh process per run and seed per op, so no "
                     "model repeats and a cache is bypassed; nn.train is ~80%, so nn and signals kernels show",
    "sweep_ablation": "per seed, sweeps num_reference_models 1,2,4 (calibration) and num_queries 1,4,8 "
                      "(rapid): 31 nn.train calls with 9 distinct inputs, so a stage or model cache hits",
    "dp_audit": "default config, DP-SGD (clip 10, noise 1.0) on target and references, fresh seed per op: "
                "the only workload through per-example gradients, so DP clipping changes show here alone",
}

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_s.p50", "s", "lower", 0.24),
    ("ops_per_min", "1/min", "higher", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("auc.mean", "ratio", "higher", 0.2),
)

# (name, unit, better)
PER_LAYER = (
    ("nn.train.s.target", "s", "lower"),
    ("nn.train.s.shadow", "s", "lower"),
    ("nn.train.s.reference", "s", "lower"),
    ("nn.train.s.scoring", "s", "lower"),
    ("nn.train.calls", "count", "lower"),
    ("nn.train.distinct_ratio", "ratio", "higher"),
    ("nn.steps", "count", "lower"),
    ("nn.step_us.16-256-2", "us", "lower"),
    ("nn.step_us.2-64-64-64-1", "us", "lower"),
    ("nn.model_builds", "count", "lower"),
    ("nn.dp_step_us", "us", "lower"),
    ("nn.per_example_bytes", "bytes", "lower"),
    ("signals.perturbed_queries.s", "s", "lower"),
    ("signals.rng_streams", "count", "lower"),
    ("signals.averaged_signal_batch.s", "s", "lower"),
    ("attacks.self_s", "s", "lower"),
    ("evaluation.compute_metrics.s", "s", "lower"),
    ("evaluation.roc.calls", "count", "lower"),
    ("evaluation.roc.distinct_ratio", "ratio", "higher"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.write_artifacts.s", "s", "lower"),
    ("pipeline.artifact_files", "count", "lower"),
    ("pipeline.artifact_bytes", "bytes", "lower"),
    ("dataset.s", "s", "lower"),
    ("config.load_config.s", "s", "lower"),
    ("cli.render_report.s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class BenchError(Exception):
    pass


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def _spawn(argv: list, env: dict, deadline: float) -> dict:
    """Run one worker to completion and return its RESULT payload."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    argv = argv + ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, env=env, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise BenchError("worker printed no RESULT line")
    return json.loads(lines[-1][len("RESULT "):])


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Set up SETUP_SAMPLES times, run the workload once; the worker's raw payload."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.abspath("src"))
    workdir = os.path.join(WORK_DIR, f"{name}-{seed}-{'trace' if trace else 'plain'}-{os.getpid()}")
    argv = [sys.executable, os.path.join("perfbench", "worker.py"), "--workload", name,
            "--seed", str(seed), "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
            "--workdir", workdir]
    if trace:
        argv += ["--spans", os.path.join(SPANS_DIR, f"spans-{name}-seed{seed}.csv")]
    try:
        setups = [_spawn(argv + ["--setup-only"], env, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        payload = _spawn(argv, env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)
    payload["setup_samples"] = setups + [payload["setup_s"]]
    return payload


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def summarize(payload: dict, trace: bool) -> tuple[dict, list, list]:
    """The run's result object, its table rows (name, value, unit, samples) and failed checks.

    The table also shows metrics that are not published in the result object:
    failed_ratio (0 when the run is correct; the result carries `failed`),
    tpr_at_1pct_fpr.mean (too seed-dependent to bound, see README.md) and a
    tail percentile once enough operations ran.
    """
    ops = payload["ops"]
    failed = [op for op in ops if op["error"] is not None]
    passed = [op for op in ops if op["error"] is None]
    problems = [f"op {i}: {op['error']}" for i, op in enumerate(ops) if op["error"] is not None]
    rows = []
    if trace:
        untraced = [op["seconds"] for op in passed if not op["traced"]]
        traced = [op["seconds"] for op in passed if op["traced"]]
        layer = dict(payload.get("per_layer", {}))
        problems += payload.get("count_problems", [])
        if not layer:
            problems.append("no traced operation passed its checks")
        if untraced and traced:
            layer["trace.overhead_ratio"] = _median(traced) / _median(untraced) - 1.0
        samples = payload.get("traced_ops", 0)
        for name, unit, _ in PER_LAYER:
            rows.append((name, float(layer.get(name, 0.0)), unit, samples))
    else:
        quality = ops[:payload["min_ops"]]
        if any(op["error"] is not None for op in quality):
            problems.append("an operation that feeds auc.mean failed")
        aucs = [a for op in quality for a in op["aucs"]]
        tprs = [t for op in quality for t in op["tprs"]]
        times = [op["seconds"] for op in passed]
        busy = sum(op["seconds"] for op in ops if op["seconds"] is not None)
        values = {
            "setup_s": (_median(payload["setup_samples"]), len(payload["setup_samples"])),
            "op_s.p50": (_median(times), len(times)),
            "ops_per_min": (len(passed) / busy * 60.0 if busy else 0.0, len(ops)),
            "peak_rss_mb": (payload["peak_rss_mb"], 1),
            "auc.mean": (statistics.fmean(aucs) if aucs else 0.0, len(aucs)),
        }
        for name, unit, _, _ in END_TO_END:
            value, samples = values[name]
            rows.append((name, float(value), unit, samples))
        rows.append(("tpr_at_1pct_fpr.mean", statistics.fmean(tprs) if tprs else 0.0, "ratio",
                      len(tprs)))
        if len(times) >= 100:
            tail = 99 if len(times) >= 1000 else 90
            cut = statistics.quantiles(times, n=100)[tail - 1]
            rows.append((f"op_s.p{tail}", cut, "s", len(times)))
        rows.append(("failed_ratio", len(failed) / len(ops) if ops else 1.0, "ratio", len(ops)))
    if not ops:
        problems.append("no operation ran")
    published = {n for n, *_ in (PER_LAYER if trace else END_TO_END)}
    result = {
        "correct": not problems,
        "attempted": max(len(ops), 1),
        "failed": len(failed) if ops else 1,
        "metrics": {n: {"value": v, "unit": u} for n, v, u, _ in rows if n in published},
    }
    return result, rows, problems


def print_table(title: str, payload: dict, rows: list, problems: list) -> None:
    env = payload.get("environment", {})
    print(f"# {title}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for target in payload.get("missing_targets", []):
        print(f"# not traced (missing in this version): {target}")
    for name, value, unit, samples in rows:
        print(f"{name:34s} {value:>16.6g} {unit:6s} n={samples}")
    for problem in problems:
        print(f"# FAILED CHECK: {problem}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM raises SystemExit inside subprocess.run, which then kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join("src", "mia_audit", "__init__.py")):
        print("error: run from the root of a mia-audit checkout (src/mia_audit not found)",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, trace in runs:
        try:
            payload = run_workload(name, args.seed, args.seconds, trace,
                                   time.monotonic() + RUN_TIMEOUT_S)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        result, rows, problems = summarize(payload, trace)
        print_table(f"{name} seed={args.seed} trace={int(trace)}", payload, rows, problems)
        if len(runs) == 1:
            print(json.dumps(result))
            return 0
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    with open("BENCHMARK.json", "w", encoding="utf-8") as fh:
        json.dump(benchmark_spec(), fh, indent=2)
        fh.write("\n")
    print("# wrote BENCHMARK.json")
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
