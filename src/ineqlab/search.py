"""Search engines behind the constant estimators.

Two regimes, both returning certified *lower* bounds (a supremum is only
ever approached from below by evaluation):

* dense scans: a batched shell of entropy-pinned two-atom swaps, which is
  exhaustive for the floored transport supremum on two-point spaces, plus
  an explicit simplex grid on three-point spaces;
* seeded multistart projected ascent with finite-difference (or supplied)
  gradients, step halving, and a row-wise projection such as the
  simplex-interior clamp; all starts form one array state advanced in
  lock-step, with one batched objective call per round.

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
    """Uniform grid over the interior of the probability simplex (k = 3);
    two points need none, :func:`pair_swap_shell` rows being exhaustive."""
    if k != 3:
        raise ValueError("simplex grids provided for 3 points only")
    a = np.arange(step, 1.0, step)
    w0, w1 = np.meshgrid(a, a, indexing="ij")
    mask = w0 + w1 < 1.0 - clamp
    w0, w1 = w0[mask], w1[mask]
    return np.column_stack([w0, w1, 1.0 - w0 - w1])


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
    """Clamp each row of ``x`` (rows, n) below at ``clamp`` and rescale it to
    unit mass; a 1-D ``x`` is one row."""
    w = np.clip(x, clamp, None)
    return w / w.sum(axis=-1, keepdims=True)


def _evaluate(objective, rows):
    """Objective values of ``rows``, in calls of at most ``_CALL_BLOCK_BYTES``."""
    block = max(1, _CALL_BLOCK_BYTES // (rows.shape[1] * 8))
    return np.concatenate([objective(rows[lo:lo + block])
                           for lo in range(0, rows.shape[0], block)])


def multistart_maximize(objective, starts, project, budget: SearchBudget,
                        gradient=None):
    """Projected ascent from each start; returns (best value, best point, evals).

    ``objective`` maps a batch (rows, n) to values, with -inf marking
    excluded candidates, and ``project`` maps a batch (rows, n) row by row
    onto the feasible set.  ``gradient``, when given, maps one point (n,)
    to the ascent direction in place of the forward-difference estimate
    (used where a single evaluation is expensive but its gradient is
    analytically available).

    A start evaluates its projected start point, then iterates: a gradient
    (n forward-difference probes at ``fd_step`` with non-finite entries
    zeroed, or one ``gradient`` call), centred to stay tangent to the mass
    constraint, then a line search along the normalized gradient that
    accepts the first candidate beating the current value by 1e-15.  The
    step grows by 1.3 on acceptance and halves on each rejection.  A start
    stops at a non-finite first value, a gradient norm below 1e-14, a step
    at or below 1e-12, or after ``budget.iterations`` iterations.  Accepted
    moves strictly raise the value, so a start's last point is its best.

    All starts form one array state advanced in lock-step: each round makes
    one objective call holding, in start order, the rows every live start
    needs next (its probes or its next candidate), split into calls of at
    most ``_CALL_BLOCK_BYTES`` of rows when many starts run on a large
    space.  Rows are evaluated independently and every update is row-wise,
    so each start follows exactly the path it would follow alone, and the
    reduction over starts is in start order.
    """
    starts = [np.asarray(s, dtype=float) for s in starts]
    if not starts:
        return -np.inf, None, 0
    x = project(np.array(starts))
    count, n = x.shape
    fx = _evaluate(objective, x)
    found = np.isfinite(fx)
    n_evals = count  # every evaluated row and every gradient call
    step = np.full(count, budget.initial_step)
    iters = np.zeros(count, dtype=np.int64)
    grad, norm = np.zeros((count, n)), np.ones(count)
    probing = np.zeros(count, dtype=bool)    # awaiting probe values
    searching = np.zeros(count, dtype=bool)  # awaiting a line-search value
    begin = found.copy()                     # starting an iteration
    fresh = np.zeros(count, dtype=bool)      # holding an uncentred gradient
    probe_step = budget.fd_step * np.eye(n)
    offsets = np.arange(n)
    while True:
        begin &= iters < budget.iterations
        iters[begin] += 1
        if gradient is None:
            probing |= begin
        elif begin.any():
            b = np.flatnonzero(begin)
            grad[b] = [gradient(x[i].copy()) for i in b]
            n_evals += b.size
            fresh |= begin
        f = np.flatnonzero(fresh)
        g = grad[f]
        g = g - g.mean(axis=1, keepdims=True)  # tangent to the mass constraint
        # the stacked matmul is the same ddot as np.linalg.norm of one row
        grad[f], norm[f] = g, np.sqrt(np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0])
        searching[f[~(norm[f] < 1e-14) & (step[f] > 1e-12)]] = True
        live = np.flatnonzero(probing | searching)
        if not live.size:
            break
        on_probe = probing[live]
        p, s = live[on_probe], live[~on_probe]
        sizes = np.where(on_probe, n, 1)
        first = np.cumsum(sizes) - sizes
        probe_rows = (first[on_probe, None] + offsets).ravel()
        rows = np.empty((probe_rows.size + s.size, n))
        rows[probe_rows] = (x[p][:, None, :] + probe_step).reshape(-1, n)
        cand = project(x[s] + step[s, None] * grad[s] / norm[s, None])
        rows[first[~on_probe]] = cand
        vals = _evaluate(objective, rows)
        n_evals += rows.shape[0]

        g = (vals[probe_rows].reshape(-1, n) - fx[p, None]) / budget.fd_step
        g[~np.isfinite(g)] = 0.0
        grad[p] = g
        probing[p] = False
        fresh = np.zeros(count, dtype=bool)
        fresh[p] = True

        fc = vals[first[~on_probe]]
        up = np.isfinite(fc) & (fc > fx[s] + 1e-15)
        acc, rej = s[up], s[~up]
        x[acc], fx[acc] = cand[up], fc[up]
        step[acc] *= 1.3
        step[rej] *= 0.5
        searching[acc] = False
        searching[rej[step[rej] <= 1e-12]] = False
        begin = np.zeros(count, dtype=bool)
        begin[acc] = True
    if not found.any():
        return -np.inf, None, n_evals
    k = int(np.argmax(np.where(found, fx, -np.inf)))
    return float(fx[k]), x[k].copy(), n_evals
