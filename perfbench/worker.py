"""One benchmark process: set up a workload, then run its operations.

Started by run.py with the checkout as working directory, BLAS pinned to one
thread and `--spawned-at` set to the parent's `time.monotonic()` just before
the spawn (CLOCK_MONOTONIC is system-wide on Linux), so set-up time covers
interpreter start, `import mia_audit` with numpy/scipy and writing the
workload's INI files. Prints one line `RESULT <json>` on stdout at the end.

With --trace 1, operations alternate untraced, traced, traced, untraced, ...
so the traced run measures its own overhead; per-layer values come from the
traced operations only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="CSV file for the traced run's spans")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import mia_audit
    if not os.path.abspath(mia_audit.__file__).startswith(src + os.sep):
        print(f"error: imported mia_audit from {mia_audit.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, OpResult, op_seed, write_checked_ini

    workload = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    for i, cfg in enumerate(workload.configs(op_seed(workload.name, args.seed, 0))):
        write_checked_ini(cfg, os.path.join(args.workdir, f"setup{i}.ini"))
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print("RESULT " + json.dumps({"setup_s": setup_s}), flush=True)
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    ops = []
    traced_metrics = []
    started = time.perf_counter()
    index = 0
    # a traced run needs an untraced op and two traced ops to compare
    min_ops = 3 if tracer else workload.min_ops
    while index < min_ops or time.perf_counter() - started < args.seconds:
        seed = op_seed(workload.name, args.seed, index)
        traced = tracer is not None and index % 3 != 0
        op_dir = os.path.join(args.workdir, f"op{index}")
        os.makedirs(op_dir)
        if traced:
            tracer.begin_op(index, [cfg.master_seed for cfg in workload.configs(seed)])
            tracer.install()
        try:
            result = workload.operation(op_dir, seed)
        except Exception as exc:  # one broken operation must not end the run
            traceback.print_exc()
            result = OpResult(seconds=None, error=f"{type(exc).__name__}: {exc}")
        finally:
            if traced:
                tracer.uninstall()
        ops.append({"seconds": result.seconds, "error": result.error, "traced": traced,
                    "aucs": result.aucs, "tprs": result.tprs})
        if traced and result.error is None:
            traced_metrics.append(tracer.op_metrics())
        shutil.rmtree(op_dir)
        index += 1

    payload = {
        "setup_s": setup_s,
        "ops": ops,
        "min_ops": workload.min_ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer is not None:
        from tracing import summarize
        payload["missing_targets"] = tracer.missing
        if traced_metrics:
            payload["per_layer"], payload["count_problems"] = summarize(traced_metrics)
            payload["traced_ops"] = len(traced_metrics)
        if args.spans:
            tracer.write_spans(args.spans)
    print("RESULT " + json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
