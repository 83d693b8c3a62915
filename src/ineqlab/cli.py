"""Configuration-driven command line front end.

One subcommand per verification task; parameters come from flags or a JSON
config file (flags override the file).  Every run requires an explicit
seed (reports must be reproducible, so there is no wall-clock default) and
writes a versioned JSON report, plus CSV where tabular output makes sense.

Exit codes: 0 PASS / success, 1 configuration error, 2 FAIL,
3 INCONCLUSIVE, 4 numerical error (unbounded conjugate, Delta_2 violation,
zero threshold), 5 internal solver failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import inequalities, reports
from .constants import ThresholdZeroError, implication_constants
from .infconv import _check_seminorm_points, lemma_bounds
from .spaces import (
    FiniteMetricSpace,
    ProbMeasure,
    grid_adjacency,
    measure_from_dict,
    space_from_dict,
)
from .transport import SolverFailure, cost_matrix, optimal_cost
from .young import (
    Delta2ViolationError,
    PowerYoung,
    UnboundedConjugateError,
    load_table,
    xi_numeric,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3
EXIT_NUMERICAL = 4
EXIT_SOLVER = 5


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config assembly


def _parse_alpha(spec: str):
    """power:p1,p2 or table:path."""
    kind, _, rest = spec.partition(":")
    if kind == "power":
        try:
            p1, p2 = (float(v) for v in rest.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad power spec {rest!r}: need p1,p2") from exc
        return PowerYoung(p1, p2)
    if kind == "table":
        if not os.path.exists(rest):
            raise ConfigError(f"cost table {rest!r} does not exist")
        return load_table(rest)
    raise ConfigError(f"unknown cost spec {spec!r} (power:p1,p2 or table:path)")


def _read_json(path, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{what} {path!r}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc


def _load_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        cfg = _read_json(args.config, "config file")
    for key, val in vars(args).items():
        if key in ("command", "config", "func") or val is None:
            continue
        cfg[key.replace("_", "-")] = val
    return cfg


def _require_seed(cfg) -> int:
    if "seed" not in cfg:
        raise ConfigError("a seed is mandatory (reports must be reproducible)")
    return int(cfg["seed"])


def _build_space(cfg) -> tuple[FiniteMetricSpace, dict | None]:
    """The space, and the measure spec of its space file if it has one."""
    if "space-file" in cfg:
        doc = _read_json(cfg["space-file"], "space file")
        return space_from_dict(doc), doc.get("measure")
    if "space" in cfg:
        return space_from_dict(cfg["space"]), None
    raise ConfigError("no space given (use --space-file or a config 'space' entry)")


def _build_space_and_measure(cfg) -> tuple[FiniteMetricSpace, ProbMeasure]:
    """The space, and the config's measure, else the one of the space file."""
    space, file_measure = _build_space(cfg)
    spec = cfg.get("measure", file_measure)
    if spec is None:
        raise ConfigError("no measure given")
    try:
        return space, measure_from_dict(spec, space)
    except ValueError as exc:
        raise ConfigError(f"invalid measure: {exc}") from exc


def _adjacency(cfg, space):
    """Grid neighbours under ``--slope-mode neighbors``; None (the global
    slope) otherwise."""
    if cfg.get("slope-mode", "global") == "neighbors":
        return grid_adjacency(space.size)
    return None


def _out_paths(cfg, stem):
    outdir = cfg.get("output-dir", ".")
    os.makedirs(outdir, exist_ok=True)
    return (os.path.join(outdir, stem + ".json"),
            os.path.join(outdir, stem + ".csv"))


def _finish(cfg, command, payload, seed, csv_rows=None, verdict=None) -> int:
    report = reports.build_report(command, cfg, payload, seed)
    json_path, csv_path = _out_paths(cfg, command.replace(" ", "-"))
    reports.write_json(report, json_path)
    if csv_rows is not None:
        reports.write_csv(csv_rows, csv_path)
    print(reports.render_text(report))
    print(f"report: {json_path}")
    if verdict == "FAIL":
        return EXIT_FAIL
    if verdict == "INCONCLUSIVE":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate_space(cfg) -> int:
    space, _ = _build_space(cfg)
    problems = space.validate()
    payload = {"size": space.size, "violations": problems, "valid": not problems}
    code = _finish(cfg, "validate-space", payload, cfg.get("seed"))
    return EXIT_FAIL if problems else code


def _cmd_xi_table(cfg) -> int:
    alpha = _parse_alpha(cfg["alpha"])
    lo, hi, count = (float(v) for v in str(cfg.get("grid", "0.01:10:100")).split(":"))
    xs = np.geomspace(lo, hi, int(count))
    rows = []
    worst = 0.0
    for x, closed, numeric in zip(xs.tolist(), alpha.xi(xs).tolist(),
                                  xi_numeric(alpha, xs).tolist()):
        if np.isfinite(closed) and np.isfinite(numeric):
            err = abs(closed - numeric) / max(abs(closed), 1e-300)
            worst = max(worst, err)
        else:
            err = 0.0 if closed == numeric else float("inf")
            worst = max(worst, err)
        rows.append({"x": x, "closed_form": closed, "numeric": numeric,
                     "rel_err": err})
    payload = {"points": len(rows), "max_rel_err": worst,
               "agree_1e-5": bool(worst <= 1e-5)}
    return _finish(cfg, "xi-table", payload, cfg.get("seed"), csv_rows=rows,
                   verdict=None if worst <= 1e-5 else "FAIL")


def _cmd_constants(cfg) -> int:
    alpha = _parse_alpha(cfg["alpha"])
    bundle = implication_constants(alpha, float(cfg["A"]), float(cfg["lambda"]))
    return _finish(cfg, "constants", bundle.as_dict(), cfg.get("seed"))


def _cmd_transport(cfg) -> int:
    seed = _require_seed(cfg)
    alpha = _parse_alpha(cfg["alpha"])
    space, mu = _build_space_and_measure(cfg)
    if "source" not in cfg:
        raise ConfigError("transport needs a 'source' measure spec")
    nu = measure_from_dict(cfg["source"], space)
    cost, plan = optimal_cost(alpha, space, nu, mu)
    json_path, csv_path = _out_paths(cfg, "transport-plan")
    costs = cost_matrix(alpha, space)
    reports.write_csv([{"i": int(i), "j": int(j), "mass": float(plan.matrix[i, j]),
                        "cost_contrib": float(plan.matrix[i, j] * costs[i, j])}
                       for i, j in np.argwhere(plan.matrix > 0)], csv_path)
    payload = {"cost": cost, "dual_gap": plan.dual_gap,
               "row_residual": plan.row_residual,
               "col_residual": plan.col_residual, "plan_csv": csv_path}
    return _finish(cfg, "transport", payload, seed)


def _cmd_estimate(cfg) -> int:
    seed = _require_seed(cfg)
    alpha = _parse_alpha(cfg["alpha"])
    space, mu = _build_space_and_measure(cfg)
    which = cfg["target"]
    if which == "T":
        est = inequalities.transport_constant_estimate(alpha, space, mu, seed=seed)
    elif which == "tauLSI":
        est = inequalities.tau_lsi_constant_estimate(
            alpha, float(cfg.get("lambda", 1.0)), space, mu, seed=seed)
    elif which == "mLSI":
        est = inequalities.mlsi_constant_estimate(
            alpha, space, mu, cfg.get("sign", "+"), _adjacency(cfg, space),
            seed=seed)
    else:
        raise ConfigError(f"unknown estimate target {which!r}")
    payload = {"target": which, "value": est.value, "method": est.method,
               "candidates": est.n_candidates, "excluded": est.n_excluded,
               "premise_degenerate": est.premise_degenerate,
               "degenerate_witnesses": est.degenerate_witnesses,
               "degenerate_entropy": est.degenerate_entropy,
               "notes": list(est.notes)}
    return _finish(cfg, f"estimate-{which}", payload, seed)


_CHAIN_NAMES = {
    "T-to-tauLSI": "transport-to-tau-lsi",
    "tauLSI-to-T": "tau-lsi-to-transport",
    "lsi-to-T": "lsi-to-transport",
}


def _cmd_verify(cfg) -> int:
    seed = _require_seed(cfg)
    which = cfg["chain"]
    # every check but concentration reads the cost
    alpha = None if which == "concentration" else _parse_alpha(cfg["alpha"])
    space, mu = _build_space_and_measure(cfg)
    if which in _CHAIN_NAMES:
        report = inequalities.verify_chain(
            alpha, space, mu, _CHAIN_NAMES[which], seed=seed,
            lam=float(cfg.get("lambda", 1.0)), sign=cfg.get("sign", "+"),
            adjacency=_adjacency(cfg, space))
        return _finish(cfg, f"verify-{which}", report.as_dict(), seed,
                       verdict=report.verdict)
    if which == "holley-stroock":
        phi = np.asarray(cfg["phi"], dtype=float)
        base = inequalities.transport_constant_estimate(alpha, space, mu, seed=seed)
        _, c_tilde, report = inequalities.holley_stroock(
            alpha, space, mu, phi, base.value, seed=seed)
        payload = report.as_dict()
        payload["base_constant"] = base.value
        payload["perturbed_constant_bound"] = c_tilde
        return _finish(cfg, "verify-holley-stroock", payload, seed,
                       verdict=report.verdict)
    if which == "dual":
        out = inequalities.dual_check(alpha, space, mu, float(cfg["level"]))
        out["worst_potential"] = out["worst_potential"].tolist()
        return _finish(cfg, "verify-dual", out, seed,
                       verdict="FAIL" if out["violation"] else None)
    if which == "tensor-dual":
        out = inequalities.tensor_dual_check(
            alpha, space, mu, tau=float(cfg["tau"]), a=float(cfg.get("a", 1.0)),
            b=float(cfg["b"]), c_norm=float(cfg["c"]),
            n=int(cfg.get("order", 2)), seed=seed)
        return _finish(cfg, "verify-tensor-dual", out, seed,
                       verdict="FAIL" if out["violation"] else None)
    if which == "concentration":
        out = inequalities.concentration_check(
            space, mu, float(cfg.get("p", 2.0)), float(cfg["C"]),
            int(cfg.get("order", 1)), seed=seed)
        return _finish(cfg, "verify-concentration", out, seed,
                       verdict=None if out["holds"] else "FAIL")
    raise ConfigError(f"unknown chain {which!r}")


def _cmd_lemma_bounds(cfg) -> int:
    seed = _require_seed(cfg)
    alpha = _parse_alpha(cfg["alpha"])
    space, _ = _build_space(cfg)
    rng = np.random.default_rng(seed)
    n = int(cfg.get("order", 1))
    t = float(cfg.get("t", 0.5))
    omega = float(cfg.get("omega", 1.0))
    _check_seminorm_points(space.size ** n)  # before f of size^n is drawn
    f = rng.normal(scale=float(cfg.get("f-scale", 1.0)), size=(space.size,) * n)
    out = lemma_bounds(alpha, f, t, space, n, omega)
    payload = {
        name: {"holds": rep.holds, "worst_margin": rep.worst_margin,
               "note": rep.note}
        for name, rep in out.items()
    }
    hard = [name for name in ("tensor_defect", "argmax_ball")
            if not out[name].holds]
    return _finish(cfg, "lemma-bounds", payload, seed,
                   verdict="FAIL" if hard else None)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """A new parser with every subcommand and its flags."""
    parser = argparse.ArgumentParser(
        prog="ineqlab",
        description="transport-entropy / log-Sobolev constant verification "
                    "on finite metric spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--seed", type=int, help="RNG seed (mandatory for runs)")
        p.add_argument("--output-dir", dest="output_dir", help="report directory")
        p.add_argument("--space-file", dest="space_file", help="JSON space document")
        p.add_argument("--alpha", help="cost: power:p1,p2 or table:path")

    p = sub.add_parser("validate-space", help="metric axioms diagnostics")
    common(p)
    p.set_defaults(func=_cmd_validate_space)

    p = sub.add_parser("xi-table", help="closed-form vs numeric ratio table")
    common(p)
    p.add_argument("--grid", help="lo:hi:count (geometric)")
    p.set_defaults(func=_cmd_xi_table)

    p = sub.add_parser("constants", help="constant bundle for (alpha, A, lambda)")
    common(p)
    p.add_argument("--A", help="premise constant")
    p.add_argument("--lambda", help="inf-convolution scale")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("transport", help="one optimal transport solve")
    common(p)
    p.set_defaults(func=_cmd_transport)

    p = sub.add_parser("estimate", help="constant estimators")
    common(p)
    p.add_argument("target", choices=["T", "tauLSI", "mLSI"])
    p.add_argument("--lambda", help="inf-convolution scale")
    p.add_argument("--sign", choices=["+", "-"])
    p.add_argument("--slope-mode", dest="slope_mode", choices=["global", "neighbors"])
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("verify", help="implication chains and checks")
    common(p)
    p.add_argument("chain", choices=["T-to-tauLSI", "tauLSI-to-T", "lsi-to-T",
                                     "holley-stroock", "dual", "tensor-dual",
                                     "concentration"])
    p.add_argument("--lambda", help="inf-convolution scale")
    p.add_argument("--sign", choices=["+", "-"])
    p.add_argument("--slope-mode", dest="slope_mode", choices=["global", "neighbors"])
    p.add_argument("--level", help="dual exponential-moment level c")
    p.add_argument("--tau", help="tensor dual: moment scale")
    p.add_argument("--b", help="tensor dual: mean coefficient")
    p.add_argument("--c", help="tensor dual: sup-norm coefficient in [0,1)")
    p.add_argument("--C", help="concentration: transport constant")
    p.add_argument("--p", help="concentration: cost exponent")
    p.add_argument("--order", help="product order n")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lemma-bounds", help="pointwise bound reports")
    common(p)
    p.add_argument("--order", help="product order n")
    p.add_argument("--t", help="scale in (0,1)")
    p.add_argument("--omega", help="ball constant (1 general, p geodesic)")
    p.set_defaults(func=_cmd_lemma_bounds)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand and return its exit code (see the module docstring).

    The parser is built once per process and reused: parsing does not
    change it, and in-process callers (tests, notebooks, the benchmark)
    otherwise rebuild its seven subcommands on every call.  Argument errors
    exit through argparse with status 2.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(_load_config(args))
    except (UnboundedConjugateError, Delta2ViolationError, ThresholdZeroError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SolverFailure as exc:
        print(f"internal solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except KeyError as exc:  # a required config entry is absent
        print(f"config error: missing {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
