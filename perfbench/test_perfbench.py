"""Tests of the benchmark itself, on reduced inputs.

Run from the root of a checkout:

    python3 -m pytest perfbench -q

The layer counts that later changes may cite (LP solves, transport calls,
ascent evaluations, shell rows, candidates) must repeat exactly at a fixed
seed; the metric names the benchmark prints must be the ones declared in
BENCHMARK.json; and every task input has a recorded reference outcome.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("transport.linprog.calls", "transport.optimal_cost.calls",
          "search.multistart_maximize.evals", "search.pair_swap_shell.rows",
          "inequalities.candidates")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def _traced_pass(workload, seed, workdir):
    tasks = workloads.build(workload, seed, str(workdir), reduced=True)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        outcomes = [task.run() for task in tasks]
    finally:
        tracer.uninstall()
    return outcomes, tracer.per_layer_metrics()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(workload, tmp_path):
    out1, first = _traced_pass(workload, 5, tmp_path / "a")
    out2, second = _traced_pass(workload, 5, tmp_path / "b")
    assert out1 == out2
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["transport.optimal_cost.calls"] > 0
    assert first["inequalities.candidates"] > 0
    if workload == "slope-grid":
        assert first["search.multistart_maximize.evals"] > 0
    if workload != "cli-small":
        assert first["search.pair_swap_shell.rows"] > 0


def test_uninstall_restores_package(tmp_path):
    from ineqlab import cli, inequalities, transport

    before = (cli.optimal_cost, inequalities.optimal_cost, transport.linprog,
              transport.BasisScanner.costs, cli.main)
    tracer = layertrace.Tracer()
    tracer.install()
    assert inequalities.optimal_cost is not before[1]
    assert cli.optimal_cost is inequalities.optimal_cost
    tracer.uninstall()
    after = (cli.optimal_cost, inequalities.optimal_cost, transport.linprog,
             transport.BasisScanner.costs, cli.main)
    assert all(a is b for a, b in zip(before, after))


def test_self_time_excludes_children():
    tracer = layertrace.Tracer()
    outer = tracer._wrap("outer", lambda: inner())
    inner = tracer._wrap("inner", lambda: sum(range(20000)))
    outer()
    stats = tracer.layer_stats()
    assert stats["outer"]["calls"] == stats["inner"]["calls"] == 1
    assert stats["outer"]["self_s"] == pytest.approx(
        stats["outer"]["busy_s"] - stats["inner"]["busy_s"], abs=1e-12)


def test_printed_metrics_match_declaration():
    end_to_end, per_layer = _declared()
    args = type("Args", (), {"workload": "lp-grid", "seed": 0, "trace": 0})
    result = {"pass_s": [1.0, 1.1], "failures": [], "attempted": 4,
              "setup_s": [0.5, 0.6], "peak_rss_mb": 100.0, "environment": {}}
    metrics = run.report(args, result)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == end_to_end

    layer = layertrace.Tracer().per_layer_metrics()
    assert set(layer) | {"trace.overhead_frac", "failed_frac"} == set(per_layer)


def test_child_env(monkeypatch):
    monkeypatch.setenv("INEQ_LAB_THREADS", "2")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = run.child_env(os.path.join("out", "pycache-run"))
    assert "INEQ_LAB_THREADS" not in env
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONPYCACHEPREFIX"] == os.path.join("out", "pycache-run")
    assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == "1"


def test_mismatch_tolerance():
    ref = workloads.outcome(0, "PASS", 2.0)
    assert workloads.mismatch(workloads.outcome(0, "PASS", 2.0 * (1 + 1e-10)), ref) is None
    assert workloads.mismatch(workloads.outcome(0, "PASS", 2.0 * (1 + 1e-8)), ref)
    assert workloads.mismatch(workloads.outcome(3, "PASS", 2.0), ref)
    assert workloads.mismatch(workloads.outcome(0, "FAIL", 2.0), ref)
    inf = workloads.outcome(0, "PASS", float("inf"))
    assert workloads.mismatch(inf, inf) is None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_covers_every_input(workload, tmp_path):
    ref = workloads.load_reference()[workload]
    for seed in range(workloads.POOL):
        keys = [t.key for t in workloads.build(workload, seed, str(tmp_path / str(seed)))]
        assert all(k in ref for k in keys), seed
