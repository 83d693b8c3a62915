"""One benchmark process: set up a workload, then run its task list.

Started by ``run.py`` in a fresh interpreter from the root of a checkout.
It prints ``ready`` once set-up is done (the parent times set-up up to that
line), then, unless ``--setup-only`` is given, runs closed-loop passes over
the task list for about ``--seconds`` seconds and prints one JSON line with
the pass times, the task counts and failures, the peak resident memory, the
environment and, with ``--trace 1``, the per-layer metrics.

Each run makes at least ``MIN_PASSES`` passes, and stops early only at
``MAX_MEASURE_S``.  With ``--trace 1`` untraced and traced passes alternate,
at least ``MIN_PASSES`` of each, so the tracing overhead is measured on the
same inputs; per-layer values are medians over the traced passes, and their
counts must repeat exactly from pass to pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

MIN_PASSES = 5
MAX_MEASURE_S = 120.0


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "INEQ_LAB_THREADS": os.environ.get("INEQ_LAB_THREADS", "unset"),
    }


def run_pass(tasks, reference, tracer=None, label="") -> tuple[float, list]:
    """One closed-loop pass; returns (wall seconds, [(task key, problem)])."""
    import workloads

    failures = []
    t0 = time.perf_counter()
    for task in tasks:
        if tracer is not None:
            tracer.task = f"{label}{task.key}"
        try:
            problem = workloads.mismatch(task.run(), reference.get(task.key))
        except Exception as exc:  # a raising task is a failed task
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append((task.key, problem))
    return time.perf_counter() - t0, failures


def measure(tasks, reference, seconds, traced) -> dict:
    from layertrace import Tracer

    tracer = Tracer() if traced else None
    plain, with_trace, per_layer, failures = [], [], [], []
    spans = None
    attempted = 0
    start = time.perf_counter()
    while True:
        wall, bad = run_pass(tasks, reference)
        plain.append(wall)
        failures += bad
        attempted += len(tasks)
        if traced:
            tracer.reset()
            tracer.install()
            try:
                wall, bad = run_pass(tasks, reference, tracer, f"pass{len(with_trace)}:")
            finally:
                tracer.uninstall()
            with_trace.append(wall)
            failures += bad
            attempted += len(tasks)
            per_layer.append(tracer.per_layer_metrics())
            if spans is None:
                spans = tracer.span_rows()
        elapsed = time.perf_counter() - start
        loop = statistics.median(plain) + (statistics.median(with_trace) if traced else 0.0)
        enough = len(plain) >= MIN_PASSES
        if (enough and elapsed + loop > seconds) or elapsed > MAX_MEASURE_S:
            break
    out = {"pass_s": plain, "attempted": attempted, "failures": failures}
    if traced:
        out["traced_pass_s"] = with_trace
        out["per_layer"] = _median_metrics(per_layer)
        out["spans"] = spans
    return out


def _median_metrics(rows: list[dict]) -> dict:
    """Per-metric median over traced passes; counts must repeat exactly."""
    out = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        if isinstance(values[0], int):
            if len(set(values)) > 1:
                raise RuntimeError(f"count {key} differs between passes: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import ineqlab  # noqa: F401  (set-up includes the package import)
    import workloads

    try:
        tasks = workloads.build(args.workload, args.seed, args.workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        reference = workloads.load_reference().get(args.workload, {})
        result = measure(tasks, reference, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
