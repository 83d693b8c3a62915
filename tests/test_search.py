import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from ineqlab.inequalities import _entropy_vec
from ineqlab.search import pair_swap_shell

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
