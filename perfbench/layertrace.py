"""Span tracing of ineqlab's layers from outside the package.

:class:`Tracer` wraps the public functions the benchmark reaches, records a
span per call (name, start, end, parent span, task id) in memory, and adds
counters read from arguments and results.  Modules that bind a wrapped
function by name at import (``from .transport import optimal_cost``) are
patched as well, by replacing every attribute of an ``ineqlab`` module that
*is* the original function.  :meth:`Tracer.uninstall` restores everything,
so untraced passes run the package unmodified.

A span's self time is its duration minus the time its direct child spans
cover; busy time and call counts only take the outermost span of a name,
so a layer that calls itself is not counted twice.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

# span record layout
_NAME, _START, _END, _PARENT, _TASK, _OUTER, _CHILD = range(7)

ENTRIES = ("transport_constant_estimate", "tau_lsi_constant_estimate",
           "mlsi_constant_estimate", "dual_check", "largest_passing_dual_level",
           "tensor_dual_check", "concentration_check", "verify_chain",
           "holley_stroock")


def _scanner_counts(args, kwargs, result):
    n = args[0].n
    rows = int(np.shape(args[1])[0]) if np.ndim(args[1]) == 2 else 1
    trees = n ** (2 * n - 2)  # spanning trees of K_{n,n}
    return {"scanner.rows": rows, "scanner.bytes": trees * rows * (2 * n - 1) * 8}


def _shell_counts(args, kwargs, result):
    return {"shell.rows": int(np.shape(result)[0])}


def _multistart_counts(args, kwargs, result):
    starts = args[1] if len(args) > 1 else kwargs.get("starts", ())
    return {"multistart.starts": len(starts) if hasattr(starts, "__len__") else 0,
            "multistart.evals": int(result[2])}


def _estimate_counts(args, kwargs, result):
    if isinstance(result, dict):
        return {"candidates": int(result.get("n_candidates", 0))}
    return {"candidates": int(result.n_candidates), "excluded": int(result.n_excluded)}


def _file_bytes(key):
    def count(args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        return {key: os.path.getsize(path)}
    return count


class Tracer:
    """Install span wrappers into ineqlab; collect spans and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.task: str | None = None
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            outer = tracer._depth[name] == 0
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                   tracer.task, outer, 0.0]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            tracer._depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = time.perf_counter()
                tracer._depth[name] -= 1
                stack.pop()
                if rec[_PARENT] >= 0:
                    tracer.spans[rec[_PARENT]][_CHILD] += rec[_END] - rec[_START]
            if count is not None:
                for key, val in count(args, kwargs, result).items():
                    tracer.counters[key] += val
            return result

        return wrapper

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    # -- installation ------------------------------------------------------

    def _patch_function(self, module, attr, name, count=None):
        original = getattr(module, attr, None)
        if original is None:
            return  # layer removed from the package: its metrics read 0
        wrapper = self._wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ineqlab" or mod_name.startswith("ineqlab.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr, name, count=None):
        original = cls.__dict__.get(attr)
        if original is None:
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, count))

    def install(self) -> None:
        from ineqlab import (cli, constants, inequalities, infconv, reports,
                             search, spaces, transport, young)

        f = self._patch_function
        f(transport, "optimal_cost", "transport.optimal_cost")
        f(transport, "linprog", "transport.linprog")
        scanner = getattr(transport, "BasisScanner", None)
        if scanner is not None:
            self._patch_method(scanner, "__init__", "transport.scanner.init")
            self._patch_method(scanner, "costs", "transport.scanner.costs",
                               _scanner_counts)
        f(search, "pair_swap_shell", "search.pair_swap_shell", _shell_counts)
        f(search, "multistart_maximize", "search.multistart_maximize",
          _multistart_counts)
        f(young, "conjugate", "young.conjugate")
        for obj in list(vars(young).values()):
            if isinstance(obj, type) and issubclass(obj, young.YoungFunction):
                self._patch_method(obj, "conjugate", "young.conjugate")
        f(young, "xi_numeric", "young.xi_numeric")
        for entry in ENTRIES:
            counted = entry.endswith("_estimate") or entry in ("dual_check",
                                                                "tensor_dual_check")
            f(inequalities, entry, f"inequalities.{entry}",
              _estimate_counts if counted else None)
        for entry in ("p_conv", "lipschitz_seminorm", "lemma_bounds"):
            f(infconv, entry, f"infconv.{entry}")
        f(constants, "implication_constants", "constants.implication_constants")
        f(spaces, "space_from_dict", "spaces.space_from_dict")
        f(spaces, "measure_from_dict", "spaces.measure_from_dict")
        self._patch_method(spaces.FiniteMetricSpace, "validate", "spaces.validate")
        f(reports, "write_json", "reports.write_json", _file_bytes("write_json.bytes"))
        f(reports, "write_csv", "reports.write_csv", _file_bytes("write_csv.bytes"))
        f(cli, "main", "cli.main")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: outermost calls, busy seconds and self seconds."""
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for rec in self.spans:
            dur = rec[_END] - rec[_START]
            st = stats[rec[_NAME]]
            st["self_s"] += dur - rec[_CHILD]
            if rec[_OUTER]:
                st["calls"] += 1
                st["busy_s"] += dur
        return stats

    def per_layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json (trace.overhead_frac and
        failed_frac are added by the caller)."""
        stats = self.layer_stats()
        c = self.counters

        def get(name, field):
            return stats[name][field] if name in stats else 0

        oc_calls = get("transport.optimal_cost", "calls")
        retries = get("transport.linprog", "calls") - oc_calls
        m = {
            "transport.optimal_cost.calls": oc_calls,
            "transport.optimal_cost.busy_s": get("transport.optimal_cost", "busy_s"),
            "transport.linprog.calls": get("transport.linprog", "calls"),
            "transport.presolve_retries": retries,
            "transport.lp_first_try_frac":
                (oc_calls - retries) / oc_calls if oc_calls else 1.0,
            "transport.scanner.init_s": get("transport.scanner.init", "busy_s"),
            "transport.scanner.calls": get("transport.scanner.costs", "calls"),
            "transport.scanner.rows": c["scanner.rows"],
            "transport.scanner.busy_s": get("transport.scanner.costs", "busy_s"),
            "transport.scanner.bytes_computed": c["scanner.bytes"],
            "search.pair_swap_shell.calls": get("search.pair_swap_shell", "calls"),
            "search.pair_swap_shell.rows": c["shell.rows"],
            "search.pair_swap_shell.busy_s": get("search.pair_swap_shell", "busy_s"),
        }
        ms = "search.multistart_maximize"
        m.update({
            f"{ms}.calls": get(ms, "calls"),
            f"{ms}.starts": c["multistart.starts"],
            f"{ms}.evals": c["multistart.evals"],
            f"{ms}.busy_s": get(ms, "busy_s"),
            f"{ms}.self_s": get(ms, "self_s"),
        })
        for name in ("young.conjugate", "young.xi_numeric"):
            m[f"{name}.calls"] = get(name, "calls")
            m[f"{name}.busy_s"] = get(name, "busy_s")
        for entry in ENTRIES:
            name = f"inequalities.{entry}"
            for field in ("calls", "busy_s", "self_s"):
                m[f"{name}.{field}"] = get(name, field)
        m["inequalities.candidates"] = c["candidates"]
        m["inequalities.excluded"] = c["excluded"]
        for name in ("infconv.p_conv", "infconv.lipschitz_seminorm",
                     "infconv.lemma_bounds", "constants.implication_constants",
                     "spaces.space_from_dict", "spaces.measure_from_dict",
                     "spaces.validate"):
            m[f"{name}.busy_s"] = get(name, "busy_s")
        for name in ("write_json", "write_csv"):
            m[f"reports.{name}.calls"] = get(f"reports.{name}", "calls")
            m[f"reports.{name}.busy_s"] = get(f"reports.{name}", "busy_s")
            m[f"reports.{name}.bytes"] = c[f"{name}.bytes"]
        m["cli.main.self_s"] = get("cli.main", "self_s")
        return m

    def span_rows(self) -> list[list]:
        """Spans as [name, start, end, parent, task] rows for the trace file."""
        t0 = self.spans[0][_START] if self.spans else 0.0
        return [[r[_NAME], round(r[_START] - t0, 9), round(r[_END] - t0, 9),
                 r[_PARENT], r[_TASK]] for r in self.spans]
