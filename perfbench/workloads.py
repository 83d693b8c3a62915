"""Workload inputs and task lists for the ineqlab benchmark.

Each workload is a fixed, ordered list of tasks run as a closed loop: one
caller, and each task starts when the previous one returns.  Inputs are
generated from an *input seed*, ``seed % POOL``, so that every input the
benchmark can run has a recorded reference outcome in ``reference.json``
(verdict, exit code and constant, recorded at the commit that introduced
the benchmark).

Every task returns an outcome dict (see :func:`outcome`), and
:func:`mismatch` compares it with the reference.  The functions of the
package are looked up through their modules at call time (``cli.main``,
``inequalities.verify_chain``), so the wrappers installed by
:mod:`layertrace` see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

POOL = 16
WORKLOADS = ("cli-small", "lp-grid", "slope-grid")
REL_TOL = 1e-9

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


@dataclass(frozen=True)
class Task:
    """One closed-loop task; ``key`` names its inputs in the reference."""

    key: str
    run: Callable[[], dict]


def outcome(exit_code=None, verdict=None, constant=None) -> dict:
    """Comparable task outcome, encoded the way reference.json stores it."""
    return json.loads(json.dumps({"exit": exit_code, "verdict": verdict,
                                  "constant": _encode(constant)}))


def _encode(value):
    if value is None:
        return None
    value = float(value)
    if math.isfinite(value):
        return value
    return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")


def _decode(value):
    return float(value) if isinstance(value, str) else value


def mismatch(got: dict, ref: dict | None) -> str | None:
    """Why ``got`` differs from the reference outcome, or None."""
    if ref is None:
        return "no reference outcome recorded"
    if got["exit"] != ref["exit"]:
        return f"exit code {got['exit']} != reference {ref['exit']}"
    if got["verdict"] != ref["verdict"]:
        return f"verdict {got['verdict']!r} != reference {ref['verdict']!r}"
    c, r = _decode(got["constant"]), _decode(ref["constant"])
    if (c is None) != (r is None):
        return f"constant {c!r} != reference {r!r}"
    if c is None or c == r or (math.isnan(c) and math.isnan(r)):
        return None
    if abs(c - r) > REL_TOL * abs(r):
        return f"constant {c!r} moved from reference {r!r}"
    return None


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# input generators


def _random_dist(rng, n, scale=2.0, min_sep=0.25) -> np.ndarray:
    """Euclidean distances of random planar points (always a metric)."""
    while True:
        pts = rng.uniform(0.0, scale, (n, 2))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        if d[~np.eye(n, dtype=bool)].min() >= min_sep:
            return d


def _space_doc(rng, n) -> dict:
    return {"labels": [f"x{i}" for i in range(n)],
            "dist": _random_dist(rng, n).tolist(),
            "measure": {"weights": _weights(rng.dirichlet(np.full(n, 4.0)))}}


def _weights(w) -> list:
    # explicit weights must sum to 1 within 1e-12 after the JSON round trip
    w = np.asarray(w, dtype=float)
    w[-1] = 1.0 - w[:-1].sum()
    return w.tolist()


def _write(path, doc) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


# ---------------------------------------------------------------------------
# cli-small


# The 4-point estimate-T ascent is the largest task of the workload and its
# cost depends on the input; its input is therefore the same fixed document
# for every seed, so wall time does not swing by seed.
FIXED_4PT_SEED = 4


def _report(workdir, stem) -> dict:
    with open(os.path.join(workdir, stem + ".json")) as fh:
        return json.load(fh)["result"]


def _cli_task(workdir, key, argv, stem, extract) -> Task:
    """A task that calls ``ineqlab.cli.main`` and reads its report back."""
    from ineqlab import cli

    path = os.path.join(workdir, stem + ".json")

    def run():
        if os.path.exists(path):
            os.unlink(path)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--output-dir", workdir])
        if not os.path.exists(path):
            return outcome(code)
        verdict, constant = extract(_report(workdir, stem))
        return outcome(code, verdict, constant)

    return Task(key, run)


def _chain(result):
    return result["verdict"], result["premise_constant"]


def _estimate(result):
    # the method label is internal; a faster path may return the same value
    # under another label, so only the constant is compared
    return None, result["value"]


def _dual(result):
    return result["violation"], result["max_log_gap"]


def _cli_small(input_seed, workdir, reduced) -> list[Task]:
    rng = np.random.default_rng([7001, input_seed])
    d, m = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.25, 0.75))
    s2 = _write(os.path.join(workdir, "space2.json"), {
        "labels": ["a", "b"], "dist": [[0.0, d], [d, 0.0]],
        "measure": {"weights": _weights([m, 1.0 - m])}})
    s3 = _write(os.path.join(workdir, "space3.json"), _space_doc(rng, 3))
    s4 = _write(os.path.join(workdir, "space4.json"),
                _space_doc(np.random.default_rng([7001, FIXED_4PT_SEED]), 4))
    phi = _write(os.path.join(workdir, "perturbation.json"),
                 {"phi": rng.uniform(-1.0, 1.0, 2).tolist()})
    source = _write(os.path.join(workdir, "source.json"),
                    {"source": {"weights": _weights(rng.dirichlet(np.ones(4)))}})
    a_premise = repr(float(rng.uniform(0.5, 2.0)))
    lam = repr(float(rng.uniform(0.2, 0.8)))

    s = str(input_seed)
    cost = ["--alpha", "power:2,2", "--seed", s]

    def task(key, argv, stem, extract):
        return _cli_task(workdir, f"{key}/seed{s}", argv, stem, extract)

    def verify(key, chain, space, *extra, extract=_chain):
        return task(key, ["verify", chain, *cost, "--space-file", space, *extra],
                    f"verify-{chain}", extract)

    def tau_to_t_half():
        # lambda = 0.5 / C, with C read back from the 2-point estimate-T report
        lam_c = repr(0.5 / _report(workdir, "estimate-T")["value"])
        return verify("tauLSI-to-T-half-2pt", "tauLSI-to-T", s2,
                      "--lambda", lam_c).run()

    tasks = [
        verify("T-to-tauLSI-2pt", "T-to-tauLSI", s2),
        task("estimate-T-2pt", ["estimate", "T", *cost, "--space-file", s2],
             "estimate-T", _estimate),
        verify("tauLSI-to-T-unit-2pt", "tauLSI-to-T", s2, "--lambda", "1.0"),
        Task(f"tauLSI-to-T-half-2pt/seed{s}", tau_to_t_half),
        verify("holley-stroock-2pt", "holley-stroock", s2, "--config", phi,
               extract=lambda r: (r["verdict"], r["perturbed_constant_bound"])),
        verify("dual-2pt", "dual", s2, "--level", "0.001", extract=_dual),
        verify("tensor-dual-2pt", "tensor-dual", s2, "--tau", "0.01", "--b",
               "0.01", "--c", "0.9", "--order", "2", extract=_dual),
        verify("lsi-to-T-2pt", "lsi-to-T", s2),
        task("estimate-mLSI-2pt", ["estimate", "mLSI", *cost, "--space-file", s2],
             "estimate-mLSI", _estimate),
        verify("concentration-3pt", "concentration", s3, "--C", "300", "--p", "2",
               extract=lambda r: (r["holds"], r["worst_tail_ratio"])),
        task("estimate-tauLSI-3pt", ["estimate", "tauLSI", *cost, "--space-file", s3],
             "estimate-tauLSI", _estimate),
    ]
    for order in (1, 2, 3):
        tasks.append(task(
            f"lemma-bounds-{order}-3pt",
            ["lemma-bounds", "--alpha", "power:3,2", "--seed", s, "--order",
             str(order), "--t", "0.4", "--space-file", s3],
            "lemma-bounds",
            lambda r: ([r[k]["holds"] for k in sorted(r)],
                       r["tensor_defect"]["worst_margin"])))
    tasks += [
        task("transport-4pt", ["transport", *cost, "--space-file", s4,
                               "--config", source],
             "transport", lambda r: (None, r["cost"])),
        task("constants", ["constants", "--alpha", "power:2,2", "--A", a_premise,
                           "--lambda", lam],
             "constants", lambda r: (None, r["c_from_threshold"])),
    ]
    if reduced:
        return tasks
    return tasks + [
        verify("dual-3pt", "dual", s3, "--level", "0.001", extract=_dual),
        _cli_task(workdir, "xi-table-200",
                  ["xi-table", "--alpha", "power:3,2", "--grid", "0.01:10:200"],
                  "xi-table", lambda r: (r["agree_1e-5"], None)),
        _fixed_4pt_estimate(s4),
    ]


def _fixed_4pt_estimate(path) -> Task:
    """``estimate T`` on the fixed 4-point space: multistart scanner ascent.

    Through the CLI (50 starts, 500 iterations, floor 4e-6) this ascent takes
    10-18 s, too long for several passes in one run, and the CLI takes no
    budget.  It calls the function the CLI calls, with a coarser floor and a
    smaller budget: about 2 s over 53 starts.
    """
    from ineqlab import spaces
    from ineqlab.search import SearchBudget
    from ineqlab.young import PowerYoung

    with open(path) as fh:
        doc = json.load(fh)
    space = spaces.space_from_dict(doc)
    mu = spaces.measure_from_dict(doc["measure"], space)
    return _estimate_task("estimate-T-4pt-fixed", PowerYoung(2, 2), space, mu,
                          seed=FIXED_4PT_SEED, entropy_floor=0.05,
                          budget=SearchBudget(starts=8, iterations=60))


def _cli_small_setup(workdir):
    """First BasisScanner per space size used: fills the spanning-tree caches."""
    from ineqlab import spaces, transport
    from ineqlab.young import PowerYoung

    scanner = getattr(transport, "BasisScanner", None)
    if scanner is None:
        return  # a package without the scanner has no cache to fill
    for stem in ("space2", "space3", "space4"):
        with open(os.path.join(workdir, stem + ".json")) as fh:
            doc = json.load(fh)
        space = spaces.space_from_dict(doc)
        mu = spaces.measure_from_dict(doc["measure"], space)
        scanner(PowerYoung(2, 2), space, mu)


# ---------------------------------------------------------------------------
# lp-grid


def _estimate_task(key, alpha, space, mu, **kwargs) -> Task:
    from ineqlab import inequalities

    def run():
        est = inequalities.transport_constant_estimate(alpha, space, mu, **kwargs)
        return outcome(None, None, est.value)

    return Task(key, run)


def _lp_grid(input_seed, workdir, reduced) -> list[Task]:
    from ineqlab import spaces
    from ineqlab.search import SearchBudget
    from ineqlab.young import PowerYoung

    # criterion-10 input at half resolution: the window [-5, 5] with
    # spacing 0.1 (101 points) instead of 0.05 (201 points)
    count, cycle_count = (21, 11) if reduced else (101, 31)
    h = 10.0 / (count - 1)
    grid = spaces.space_from_dict(
        {"generator": {"kind": "grid1d", "count": count, "spacing": h,
                       "start": -5.0}})
    gauss = spaces.measure_from_dict({"density": "exp(-x**2/2)"}, grid)
    rng = np.random.default_rng([7002, input_seed])
    amp, phase = rng.uniform(0.3, 0.8), rng.uniform(0.0, 2.0 * np.pi)
    cycle = spaces.space_from_dict(
        {"generator": {"kind": "cycle", "count": cycle_count, "spacing": 0.25}})
    smooth = np.exp(amp * np.cos(2.0 * np.pi * np.arange(cycle_count) / cycle_count
                                 + phase))
    cyc_mu = spaces.measure_from_dict({"weights": _weights(smooth / smooth.sum())},
                                      cycle)
    alpha = PowerYoung(2, 2)
    budget = SearchBudget(starts=6)
    s = f"seed{input_seed}"
    return [
        _estimate_task(f"gauss-grid-{count}/{s}", alpha, grid, gauss,
                       seed=input_seed, entropy_floor=h * h / 2.0, budget=budget),
        _estimate_task(f"cycle-{cycle_count}/{s}", alpha, cycle, cyc_mu,
                       seed=input_seed, budget=budget),
    ]


# ---------------------------------------------------------------------------
# slope-grid


def _slope_grid(input_seed, workdir, reduced) -> list[Task]:
    from ineqlab import inequalities, spaces
    from ineqlab.search import SearchBudget
    from ineqlab.young import PowerYoung

    # criterion-14 input at a fifth of the resolution: 21 points on [0, 1]
    count = 11 if reduced else 21
    budget = (SearchBudget(starts=2, iterations=10) if reduced
              else SearchBudget(starts=8, iterations=120))
    grid = spaces.space_from_dict(
        {"generator": {"kind": "grid1d", "count": count,
                       "spacing": 1.0 / (count - 1)}})
    mu = spaces.measure_from_dict({"uniform": True}, grid)
    adjacency = spaces.grid_adjacency(count)
    alpha = PowerYoung(2, 2)

    def chain(sign):
        def run():
            rep = inequalities.verify_chain(
                alpha, grid, mu, "lsi-to-transport", seed=input_seed, sign=sign,
                adjacency=adjacency, surrogate_slack=0.05, budget=budget)
            return outcome(None, rep.verdict, rep.premise_constant)
        return Task(f"lsi-to-T-{count}{sign}/seed{input_seed}", run)

    return [chain("+"), chain("-")]


_TASK_LISTS = {"cli-small": _cli_small, "lp-grid": _lp_grid, "slope-grid": _slope_grid}


def build(workload: str, seed: int, workdir: str, reduced: bool = False) -> list[Task]:
    """Set up a workload: write its input files and return its task list.

    This is everything the benchmark counts as set-up: the seeded spaces,
    measures and space files, and (on cli-small) the first BasisScanner of
    each space size.  ``reduced`` gives the small inputs the count tests use.
    """
    if workload not in _TASK_LISTS:
        raise ValueError(f"unknown workload {workload!r} (one of {', '.join(WORKLOADS)})")
    os.makedirs(workdir, exist_ok=True)
    tasks = _TASK_LISTS[workload](seed % POOL, workdir, reduced)
    if workload == "cli-small":
        _cli_small_setup(workdir)
    return tasks
