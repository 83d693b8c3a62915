"""ineqlab benchmark: one command prints every metric of one workload run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 30 --trace 0

Each run starts fresh interpreters (``worker.py``) with the BLAS thread
count pinned to 1 and ``INEQ_LAB_THREADS`` unset (the serial default):

* one untimed set-up-only process writes the run's bytecode into a
  directory of its own (``PYTHONPYCACHEPREFIX``), which is removed at the
  end of the run;
* ``SETUP_SAMPLES`` timed set-up-only processes, plus the measuring
  process, give ``setup_s``: the median time from process start until the
  first task can start;
* the measuring process runs closed-loop passes over the workload's task
  list for about ``--seconds`` seconds (at least five passes) and reports
  ``wall_s`` (median pass time) and ``peak_rss_mb``.

Every task's outcome is checked against ``reference.json``; a task that
raises, returns another exit code or verdict, or moves its constant by more
than 1e-9 (relative) is failed.  With ``--trace 1`` the metrics are the
per-layer ones instead, from traced passes alternating with untraced ones,
and the spans of the first traced pass are written to
``.perfbench_out/trace-<workload>-seed<seed>.json``.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when a
result was printed; a run that cannot run the package prints no result and
exits with 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 8
RUN_DEADLINE_S = 170.0
BLAS_THREADS = "1"
OUT_DIR = ".perfbench_out"


def child_env(pycache: str) -> dict:
    env = dict(os.environ)
    env.pop("INEQ_LAB_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    # bytecode lives in a directory of this run, so every timed set-up loads
    # the same fresh bytecode whatever the checkout's __pycache__ holds
    env["PYTHONPYCACHEPREFIX"] = pycache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Worker:
    """One worker process, killed if it outlives its deadline."""

    def __init__(self, args, workdir, pycache, timeout, setup_only):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
        if setup_only:
            cmd.append("--setup-only")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=child_env(pycache), stdout=subprocess.PIPE,
                                     text=True)
        self.timer = threading.Timer(max(timeout, 1.0), self.proc.kill)
        self.timer.start()

    def wait_ready(self) -> float:
        """Seconds from process start to its ``ready`` line."""
        line = self.proc.stdout.readline()
        ready = time.perf_counter() - self.started
        if line.strip() != "ready":
            self.finish()
            raise RuntimeError("worker failed during set-up")
        return ready

    def finish(self) -> str:
        try:
            out = self.proc.stdout.read()
            code = self.proc.wait()
        finally:
            self.timer.cancel()
            self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"worker exited with {code}")
        return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run(args) -> dict:
    start = time.perf_counter()
    out_dir = os.path.join(os.getcwd(), OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    pycache = os.path.join(out_dir, f"pycache-{tag}")

    def remaining():
        return RUN_DEADLINE_S - (time.perf_counter() - start)

    def setup_only(i):
        w = Worker(args, os.path.join(out_dir, f"setup-{tag}-{i}"), pycache,
                   min(60.0, remaining()), setup_only=True)
        ready = w.wait_ready()
        w.finish()
        return ready

    try:
        setup_only("warm-up")  # untimed: writes this run's bytecode
        setup = [setup_only(i) for i in range(SETUP_SAMPLES)]
        w = Worker(args, os.path.join(out_dir, f"run-{tag}"), pycache,
                   remaining(), setup_only=False)
        setup.append(w.wait_ready())
        result = json.loads(w.finish().strip().splitlines()[-1])
    finally:
        shutil.rmtree(pycache, ignore_errors=True)
    result["setup_s"] = setup
    result["out_dir"] = out_dir
    return result


def report(args, result) -> dict:
    passes = result["pass_s"]
    failures = result["failures"]
    attempted = result["attempted"]
    wall = statistics.median(passes)
    q1, q3 = quartiles(passes)
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    print(f"{args.workload} seed {args.seed}: wall_s median {wall:.4f} "
          f"q1 {q1:.4f} q3 {q3:.4f} over {len(passes)} passes; "
          f"setup_s samples {', '.join(f'{s:.4f}' for s in result['setup_s'])}; "
          f"failed_frac {len(failures) / attempted:g} ({len(failures)}/{attempted})")
    for key, problem in failures:
        print(f"FAILED {key}: {problem}", file=sys.stderr)
    if args.trace:
        values = dict(result["per_layer"])
        traced = statistics.median(result["traced_pass_s"])
        values["trace.overhead_frac"] = (traced - wall) / wall
        values["failed_frac"] = len(failures) / attempted
    else:
        values = {"wall_s": wall, "setup_s": statistics.median(result["setup_s"]),
                  "peak_rss_mb": result["peak_rss_mb"]}
    units = declared_units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    if args.trace:
        path = os.path.join(result["out_dir"],
                            f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"environment": result["environment"],
                       "metrics": metrics, "untraced_pass_s": passes,
                       "traced_pass_s": result["traced_pass_s"],
                       "span_fields": ["name", "start", "end", "parent", "task"],
                       "spans": result["spans"]}, fh)
        print(f"trace: {path}")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def declared_units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ineqlab benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "ineqlab", "__init__.py")):
        print("perfbench: run from the root of an ineqlab checkout "
              "(src/ineqlab not found)", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(args, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
