from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from ineqlab import search
from ineqlab.search import SearchBudget, pair_swap_shell, project_simplex_interior
from ineqlab.spaces import _entropy_vec

LEVELS = (1.0000001, 2.0, 10.0)


def _scalar_shell(mu, floor, levels=LEVELS):
    """Per-pair ``brentq`` shell on the full entropy: the oracle for the
    batched closed-form bisection.  Returns the rows and their target
    entropies."""
    def entropy(nu):
        return float(_entropy_vec(nu[None, :], mu)[0])

    rows, targets = [], []
    n = mu.size
    for i in range(n):
        for j in range(n):
            # pairs off the support have infinite entropy at every s > 0
            if i == j or mu[j] <= 0 or mu[i] <= 0:
                continue
            direction = np.zeros(n)
            direction[i], direction[j] = 1.0, -1.0
            smax = mu[j] * (1.0 - 1e-9)

            def h_of(s):
                return entropy(mu + s * direction)

            if h_of(smax) <= floor:
                continue
            for level in levels:
                target = floor * level
                if h_of(smax) <= target:
                    continue
                s = brentq(lambda v: h_of(v) - target, 1e-15, smax, xtol=1e-15)
                rows.append(mu + s * direction)
                targets.append(target)
    return (np.array(rows) if rows else np.empty((0, n))), np.array(targets)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       zero=st.booleans(), floor=st.floats(4e-6, 5e-3))
def test_shell_matches_scalar_oracle(n, seed, zero, floor):
    rng = np.random.default_rng(seed)
    mu = rng.dirichlet(np.full(n, 2.0))
    if zero:
        mu[rng.integers(n)] = 0.0
        mu /= mu.sum()
    got = pair_swap_shell(mu, floor)
    ref, targets = _scalar_shell(mu, floor)
    assert got.shape == ref.shape
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13)
    for row in got:
        # mu + s (e_i - e_j), s > 0: one atom gains what another loses
        (i,), (j,) = np.flatnonzero(row > mu), np.flatnonzero(row < mu)
        assert np.count_nonzero(row != mu) == 2
        assert row[i] - mu[i] > 0
        assert row[i] - mu[i] == pytest.approx(mu[j] - row[j], rel=0.0, abs=1e-15)
    if got.size:
        np.testing.assert_allclose(_entropy_vec(got, mu), targets, rtol=1e-9)
    # no two-atom swap reaches entropy log(1 / min weight)
    high = 1.0 - np.log(mu[mu > 0].min())
    assert pair_swap_shell(mu, high).shape == (0, n)


def _ascent(start, project, budget, gradient):
    """Projected ascent from one start, as a coroutine: the per-start
    reference for the array ascent of ``multistart_maximize``.

    Yields each batch of rows it needs evaluated and receives their
    objective values; returns (best value, point, evals).  ``project`` is
    applied to one-row batches.
    """
    x = project(np.asarray(start, dtype=float)[None, :])[0]
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
            cand = project((x + step * grad / norm)[None, :])[0]
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


def _coroutine_maximize(objective, starts, project, budget, gradient=None,
                        rounds=None):
    """Lock-step loop over one ``_ascent`` coroutine per start; appends each
    round's per-start row counts to ``rounds`` when given."""
    runs = [_ascent(s, project, budget, gradient) for s in starts]
    pending = {i: run.send(None) for i, run in enumerate(runs)}
    results = [None] * len(runs)
    while pending:
        if rounds is not None:
            rounds.append([r.shape[0] for r in pending.values()])
        rows = np.concatenate(list(pending.values()))
        block = max(1, search._CALL_BLOCK_BYTES // (rows.shape[1] * 8))
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


def _shift_project(f):
    return np.clip(f - f.max(axis=-1, keepdims=True), -4.0, 0.0)


def _ascent_case(n, count, seed, kind, simplex, use_gradient, fd_step):
    """Objective, starts, projection and gradient of one oracle case.

    The walls put start 0 beyond them (a non-finite first value) and start 1
    half a probe step inside them (a non-finite probe value)."""
    rng = np.random.default_rng(seed)
    if simplex:
        project = project_simplex_interior
        starts = rng.dirichlet(np.ones(n), count)
        target = rng.dirichlet(np.ones(n))
    else:
        project = _shift_project
        starts = rng.uniform(-3.0, 0.0, (count, n))
        target = rng.uniform(-2.0, 0.0, n)
    wall = np.inf
    if kind in ("wall_inf", "wall_nan") and count >= 2:
        starts[0, 0] = 1e3
        wall = project(starts[1:2])[0, 0] + 0.5 * fd_step
    blocked = -np.inf if kind == "wall_inf" else np.nan

    def objective(rows):
        if kind == "flat":
            return np.zeros(rows.shape[0])
        if kind == "wavy":
            return np.sin(5.0 * rows).sum(axis=1) - (rows ** 2).sum(axis=1)
        vals = -((rows - target) ** 2).sum(axis=1)
        if kind == "terraced":  # tiny steps gain nothing
            return np.round(vals, 6)
        return np.where(rows[:, 0] > wall, blocked, vals)

    def gradient(x):
        if kind == "flat":
            return np.zeros(n)
        if kind == "wavy":
            return 5.0 * np.cos(5.0 * x) - 2.0 * x
        if kind == "wall_nan" and x[0] > wall - fd_step:  # a NaN norm
            return np.full(n, np.nan)
        return -2.0 * (x - target)

    return objective, list(starts), project, gradient if use_gradient else None


def _both_ascents(case, budget, call_rows=None, rounds=None):
    """(array result, its calls), (oracle result, its calls) on one case;
    ``call_rows`` caps the rows of one objective call."""
    objective, starts, project, gradient = case
    size = call_rows * starts[0].size * 8 if call_rows else search._CALL_BLOCK_BYTES
    out = []
    for maximize in (search.multistart_maximize,
                     partial(_coroutine_maximize, rounds=rounds)):
        calls = []

        def recorded(rows):
            calls.append(rows.copy())
            return objective(rows)

        with mock.patch.object(search, "_CALL_BLOCK_BYTES", size):
            out.append((maximize(recorded, starts, project, budget, gradient), calls))
    return out


def _assert_same_ascent(got, ref):
    (best, x, evals), calls = got
    (ref_best, ref_x, ref_evals), ref_calls = ref
    assert best == ref_best
    assert evals == ref_evals
    assert (x is None) == (ref_x is None)
    assert x is None or np.array_equal(x, ref_x)
    # the same objective calls, row for row
    assert len(calls) == len(ref_calls)
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(calls, ref_calls))


KINDS = ["bowl", "wavy", "flat", "terraced", "wall_inf", "wall_nan"]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), count=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(KINDS), simplex=st.booleans(),
       use_gradient=st.booleans(), iterations=st.sampled_from([0, 1, 6, 40]),
       initial_step=st.sampled_from([0.05, 0.6, 2e-12, 1e-12, 4e-13]),
       fd_step=st.sampled_from([1e-6, 1e-3]),
       call_rows=st.sampled_from([None, 1, 3]))
@example(n=4, count=5, seed=1, kind="wall_inf", simplex=True, use_gradient=False,
         iterations=40, initial_step=0.05, fd_step=1e-6, call_rows=None)
@example(n=5, count=4, seed=2, kind="wall_nan", simplex=False, use_gradient=False,
         iterations=40, initial_step=0.05, fd_step=1e-3, call_rows=None)
@example(n=3, count=3, seed=3, kind="flat", simplex=True, use_gradient=False,
         iterations=40, initial_step=0.05, fd_step=1e-6, call_rows=None)
@example(n=4, count=3, seed=4, kind="bowl", simplex=True, use_gradient=False,
         iterations=0, initial_step=0.05, fd_step=1e-6, call_rows=None)
@example(n=4, count=3, seed=5, kind="bowl", simplex=False, use_gradient=False,
         iterations=40, initial_step=1e-12, fd_step=1e-6, call_rows=None)
@example(n=6, count=4, seed=6, kind="wavy", simplex=True, use_gradient=True,
         iterations=40, initial_step=0.05, fd_step=1e-6, call_rows=None)
@example(n=5, count=6, seed=7, kind="wavy", simplex=False, use_gradient=False,
         iterations=40, initial_step=0.6, fd_step=1e-6, call_rows=3)
@example(n=5, count=4, seed=2, kind="wall_nan", simplex=False, use_gradient=True,
         iterations=40, initial_step=0.05, fd_step=1e-3, call_rows=None)
@example(n=3, count=3, seed=8, kind="terraced", simplex=True, use_gradient=False,
         iterations=40, initial_step=2e-12, fd_step=1e-3, call_rows=None)
def test_array_ascent_matches_coroutine_oracle(n, count, seed, kind, simplex,
                                               use_gradient, iterations,
                                               initial_step, fd_step, call_rows):
    # every start follows the coroutine's path bit for bit: same value,
    # point, evaluation count and objective calls
    case = _ascent_case(n, count, seed, kind, simplex, use_gradient, fd_step)
    budget = SearchBudget(starts=count, iterations=iterations, fd_step=fd_step,
                          initial_step=initial_step)
    _assert_same_ascent(*_both_ascents(case, budget, call_rows))


def test_array_ascent_oracle_cases_reach_every_branch():
    # the pinned cases really hit the branches they are meant to
    budget = SearchBudget(iterations=40)
    rounds = []
    got, ref = _both_ascents(_ascent_case(5, 6, 7, "wavy", False, False, 1e-6),
                             budget, rounds=rounds)
    _assert_same_ascent(got, ref)
    # a round holding probe rows (n) beside line-search candidates (1)
    assert any(5 in r and 1 in r for r in rounds)
    # a non-finite first value, and a non-finite probe that is zeroed
    objective, starts, project, _ = _ascent_case(4, 5, 1, "wall_inf", True, False,
                                                 1e-6)
    first = objective(project(np.array(starts)))
    assert first[0] == -np.inf and np.isfinite(first[1])
    x1 = project(starts[1][None, :])
    assert objective(x1 + 1e-6 * np.eye(4))[0] == -np.inf
    objective, starts, project, _ = _ascent_case(5, 4, 2, "wall_nan", False, False,
                                                 1e-3)
    assert np.isnan(objective(project(starts[1][None, :]) + 1e-3 * np.eye(5))[0])
    # a flat objective stops every start at its first gradient
    flat = _ascent_case(3, 3, 3, "flat", True, False, 1e-6)
    (best, _, evals), _ = _both_ascents(flat, budget)[0]
    assert best == 0.0 and evals == 3 * (1 + 3)
