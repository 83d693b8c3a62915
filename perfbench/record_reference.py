"""Record the reference outcome of every benchmark task.

Run from the root of a checkout, on the commit whose results are the
reference:

    python3 perfbench/record_reference.py

For each workload and each input seed 0..POOL-1 it runs the task list once
(untraced, with the same thread pins as the benchmark) and stores each
task's exit code, verdict and constant under the task key in
``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("INEQ_LAB_THREADS", None)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402


def record(workload: str, workdir: str) -> dict:
    out = {}
    for seed in range(workloads.POOL):
        t0 = time.perf_counter()
        for task in workloads.build(workload, seed, workdir):
            if task.key in out:
                continue  # an input shared by every seed is recorded once
            out[task.key] = task.run()
        print(f"{workload} input seed {seed}: {time.perf_counter() - t0:.1f} s",
              flush=True)
    return out


def main() -> int:
    workdir = os.path.join(os.getcwd(), ".perfbench_out", "record")
    try:
        ref = {name: record(name, workdir) for name in workloads.WORKLOADS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
