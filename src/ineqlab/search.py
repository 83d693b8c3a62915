"""Search engines behind the constant estimators.

Two regimes, both returning certified *lower* bounds (a supremum is only
ever approached from below by evaluation):

* dense scans over explicit candidate grids, effectively exhaustive on
  two- and three-point spaces, plus a batched shell of entropy-pinned swaps;
* seeded multistart projected ascent with finite-difference (or supplied)
  gradients, step halving, and a simplex-interior clamp; all starts run
  in lock-step, one batched objective call per round.

Degeneracy handling: on a finite space the entropy of a small perturbation
of mu is quadratic in its size while the transport cost is linear, so the
cost/entropy ratio diverges along shrinking perturbations and the true
supremum is infinite.  Scans therefore restrict to candidates with
relative entropy at least ``ENTROPY_FLOOR`` and report the exclusion; the
floor is matched to the dual-check gap tolerance (floor = 4 * gap), which
makes the primal scan and the dual bisection agree to leading order on
two-point spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DUAL_GAP_TOL",
    "ENTROPY_FLOOR",
    "DENOM_FLOOR",
    "SearchBudget",
    "simplex_grid",
    "two_point_sources",
    "pair_swap_shell",
    "dirichlet_starts",
    "multistart_maximize",
]

DUAL_GAP_TOL = 1e-6
# Matched cutoffs: the largest dual level passing at gap tolerance tau and
# the primal scan constant at entropy floor h coincide (to leading order in
# the local quadratic expansions) exactly when h = 4 * tau.
ENTROPY_FLOOR = 4.0 * DUAL_GAP_TOL
DENOM_FLOOR = 1e-14
# rows per objective call: an objective's (rows, n) float64 arrays stay
# near 4 MB however many starts a lock-step round holds
_CALL_BLOCK_BYTES = 1 << 22


@dataclass(frozen=True)
class SearchBudget:
    """Reproducible optimizer budget (embedded in reports)."""

    starts: int = 50
    iterations: int = 500
    fd_step: float = 1e-6
    clamp: float = 1e-9
    initial_step: float = 0.05


def simplex_grid(k: int, step: float, clamp: float = 1e-9) -> np.ndarray:
    """Uniform grid over the interior of the probability simplex (k <= 3)."""
    if k == 2:
        s = np.arange(step, 1.0, step)
        return np.column_stack([s, 1.0 - s])
    if k == 3:
        a = np.arange(step, 1.0, step)
        w0, w1 = np.meshgrid(a, a, indexing="ij")
        mask = w0 + w1 < 1.0 - clamp
        w0, w1 = w0[mask], w1[mask]
        return np.column_stack([w0, w1, 1.0 - w0 - w1])
    raise ValueError("simplex grids provided for 2 or 3 points only")


def two_point_sources(mu: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Signed-perturbation family (mu0 + s, mu1 - s) on a two-point space."""
    smax = min(mu[0], mu[1])
    s = np.arange(step, smax, step)
    s = np.concatenate([s, -s])
    out = np.column_stack([mu[0] + s, mu[1] - s])
    return out[(out > 0).all(axis=1)]


def pair_swap_shell(mu: np.ndarray, floor: float,
                    levels=(1.0000001, 2.0, 10.0)) -> np.ndarray:
    """Sources mu + s (e_i - e_j) placed just outside the entropy floor.

    These are the directions along which the cost/entropy ratio diverges;
    pinning candidates to prescribed entropy levels makes the floored scan
    supremum grid-independent.  The entropy along e_i - e_j is
    H(s) = (mu_i+s) log((mu_i+s)/mu_i) + (mu_j-s) log((mu_j-s)/mu_j), rising
    in s; one batched bisection solves every H(s) = floor * level, skipping
    pairs off the support and unreachable levels (rows by i, j, then level).
    """
    pos = mu > 0
    i, j = np.nonzero(pos[:, None] & pos[None, :] & ~np.eye(mu.size, dtype=bool))
    targets = floor * np.asarray(levels, dtype=float)

    def h(s, mi, mj):
        a, b = mi + s, mj - s
        return a * np.log(a / mi) + b * np.log(b / mj)

    hmax = h(mu[j] * (1.0 - 1e-9), mu[i], mu[j])[:, None]
    p, lev = np.nonzero((hmax > floor) & (hmax > targets))
    i, j, target = i[p], j[p], targets[lev]
    mi, mj = mu[i], mu[j]
    lo, hi = np.full(p.size, 1e-15), mj * (1.0 - 1e-9)
    for _ in range(64):  # an interval of width <= 1 shrinks below 1e-19
        mid = 0.5 * (lo + hi)
        above = h(mid, mi, mj) > target
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    s = 0.5 * (lo + hi)
    out = np.tile(mu, (p.size, 1))
    out[np.arange(p.size), i] += s
    out[np.arange(p.size), j] -= s
    return out


def dirichlet_starts(rng: np.random.Generator, n: int, count: int,
                     clamp: float = 1e-9) -> np.ndarray:
    """Random interior simplex points (symmetric Dirichlet, clamped)."""
    w = rng.dirichlet(np.ones(n), size=count)
    w = np.clip(w, clamp, None)
    return w / w.sum(axis=1, keepdims=True)


def project_simplex_interior(x: np.ndarray, clamp: float = 1e-9) -> np.ndarray:
    w = np.clip(x, clamp, None)
    return w / w.sum()


def _ascent(start, project, budget: SearchBudget, gradient):
    """Projected ascent from one start, as a coroutine.

    Yields each batch of rows it needs evaluated and receives their
    objective values; returns (best value, point, evals).
    """
    x = project(np.asarray(start, dtype=float))
    fx = float((yield x[None, :])[0])
    n_evals = 1
    if not np.isfinite(fx):
        return -np.inf, None, n_evals
    best_val, best_x = fx, x.copy()
    step = budget.initial_step
    for _ in range(budget.iterations):
        if gradient is None:
            probes = x[None, :] + budget.fd_step * np.eye(x.size)
            vals = yield probes
            n_evals += x.size
            grad = (vals - fx) / budget.fd_step
            grad[~np.isfinite(grad)] = 0.0
        else:
            grad = gradient(x)
            n_evals += 1
        grad = grad - grad.mean()  # tangent to the mass constraint
        norm = float(np.linalg.norm(grad))
        if norm < 1e-14:
            break
        moved = False
        while step > 1e-12:
            cand = project(x + step * grad / norm)
            fc = float((yield cand[None, :])[0])
            n_evals += 1
            if np.isfinite(fc) and fc > fx + 1e-15:
                x, fx = cand, fc
                step *= 1.3
                moved = True
                break
            step *= 0.5
        if not moved:
            break
        if fx > best_val:
            best_val, best_x = fx, x.copy()
    return best_val, best_x, n_evals


def multistart_maximize(objective, starts, project, budget: SearchBudget,
                        gradient=None):
    """Projected ascent from each start; returns (best value, best point, evals).

    ``objective`` maps a batch (rows) to values, with -inf marking excluded
    candidates; ``gradient``, when given, replaces the forward-difference
    estimate (used where a single evaluation is expensive but its gradient
    is analytically available).  All starts advance in lock-step: each
    round makes one objective call holding the rows every live start needs
    next (its forward-difference probes or its next line-search
    candidate), split into calls of at most ``_CALL_BLOCK_BYTES`` of rows
    when many starts run on a large space.  Rows are evaluated
    independently, so each start follows exactly the path it would follow
    alone, and the reduction over starts is in start order.
    """
    runs = [_ascent(s, project, budget, gradient) for s in starts]
    pending = {i: run.send(None) for i, run in enumerate(runs)}
    results = [None] * len(runs)
    while pending:
        rows = np.concatenate(list(pending.values()))
        block = max(1, _CALL_BLOCK_BYTES // (rows.shape[1] * 8))
        vals = np.concatenate([objective(rows[lo:lo + block])
                               for lo in range(0, rows.shape[0], block)])
        lo = 0
        for i, rows in list(pending.items()):
            hi = lo + rows.shape[0]
            try:
                pending[i] = runs[i].send(vals[lo:hi])
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
            lo = hi
    best_val, best_x = -np.inf, None
    n_evals = 0
    for val, x, evals in results:
        n_evals += evals
        if x is not None and val > best_val:
            best_val, best_x = val, x
    return best_val, best_x, n_evals
