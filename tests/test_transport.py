import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_measure, random_metric_space
from ineqlab.spaces import (
    FiniteMetricSpace,
    ProbMeasure,
    grid1d_space,
    measure_from_dict,
    path_space,
    two_point_space,
)
from ineqlab import inequalities, transport
from ineqlab.transport import (
    BasisScanner,
    SolverFailure,
    brute_force_cost,
    cost_matrix,
    northwest_corner_cost,
    optimal_cost,
)
from ineqlab.young import PowerYoung, ScaledYoung

COSTS = [PowerYoung(2, 2), PowerYoung(2, 1), PowerYoung(3, 2)]


class TestExamples:
    def test_identical_measures(self):
        space = two_point_space(1.0)
        mu = ProbMeasure.uniform(2)
        cost, plan = optimal_cost(PowerYoung(2, 2), space, mu, mu)
        assert cost == pytest.approx(0.0, abs=1e-12)
        assert brute_force_cost(PowerYoung(2, 2), space, mu, mu) == pytest.approx(
            0.0, abs=1e-12)

    def test_point_to_point(self):
        space = two_point_space(3.0)
        cost, _ = optimal_cost(PowerYoung(2, 2), space,
                               ProbMeasure.dirac(2, 0), ProbMeasure.dirac(2, 1))
        assert cost == pytest.approx(9.0, rel=1e-12)

    def test_two_point_closed_form(self, rng):
        # only |nu0 - mu0| units of mass can avoid the diagonal
        for _ in range(20):
            d = rng.uniform(0.3, 3.0)
            space = two_point_space(d)
            nu = random_measure(rng, 2)
            mu = random_measure(rng, 2)
            a = COSTS[int(rng.integers(0, 3))]
            expected = float(a(d)) * abs(nu.weights[0] - mu.weights[0])
            assert brute_force_cost(a, space, nu, mu) == pytest.approx(
                expected, abs=1e-12)


class TestCrossOracles:
    def test_lp_equals_enumeration(self, rng):
        for trial in range(60):
            n = int(rng.integers(2, 5))
            space = random_metric_space(rng, n)
            nu, mu = random_measure(rng, n), random_measure(rng, n)
            a = COSTS[trial % 3]
            cost, plan = optimal_cost(a, space, nu, mu)
            reference = brute_force_cost(a, space, nu, mu)
            assert cost == pytest.approx(reference, abs=1e-9)
            assert abs(plan.dual_gap) <= 1e-9
            # the plan itself: marginals, stored cost and dual feasibility
            c = cost_matrix(a, space)
            assert max(plan.row_residual, plan.col_residual) <= 1e-9
            assert float(np.sum(plan.matrix * c)) == pytest.approx(
                plan.cost, abs=1e-9 * max(1.0, abs(plan.cost)))
            assert float((plan.potential_source[:, None]
                          + plan.potential_target[None, :] - c).max()) <= 1e-9

    def test_scanner_matches_lp(self, rng):
        # random spaces, then tied-cost spaces (all distances 1), whose
        # dual vertices are each shared by several spanning trees
        spaces = [random_metric_space(rng, int(rng.integers(2, 5)))
                  for _ in range(10)]
        spaces += [FiniteMetricSpace([str(i) for i in range(n)],
                                     1.0 - np.eye(n)) for n in (2, 3, 4)]
        for space in spaces:
            n = space.size
            mu = random_measure(rng, n)
            a = PowerYoung(3, 2)
            scanner = BasisScanner(a, space, mu)
            partial = random_measure(rng, n).weights.copy()
            partial[0] = 0.0
            degenerate = [ProbMeasure.dirac(n, n - 1).weights, mu.weights,
                          partial / partial.sum()]
            nus = np.array([random_measure(rng, n).weights for _ in range(7)]
                           + degenerate)
            batch = scanner.costs(nus)
            assert batch[-2] == pytest.approx(0.0, abs=1e-12)  # nu == mu
            for row, got in zip(nus, batch):
                expect, _ = optimal_cost(a, space, ProbMeasure(row), mu)
                assert got == pytest.approx(expect, abs=1e-9)
                assert got == pytest.approx(
                    brute_force_cost(a, space, ProbMeasure(row), mu), abs=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small=st.integers(2, 4), large=st.integers(5, 12), cost=st.integers(0, 2),
       grid=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_northwest_corner_bound(small, large, cost, grid, seed):
    # brute force stops at 4 points here: its 5-point tree tables take
    # seconds and hundreds of MB to build; larger sizes use the LP
    rng = np.random.default_rng(seed)
    a = COSTS[cost]

    def nwc_and_pair(space):
        nu, mu = random_measure(rng, space.size), random_measure(rng, space.size)
        return northwest_corner_cost(a, space, nu, mu), nu, mu

    # a feasible coupling costs at least the optimum on any space
    space = random_metric_space(rng, small)
    bound, nu, mu = nwc_and_pair(space)
    assert bound >= brute_force_cost(a, space, nu, mu) - 1e-12
    space = random_metric_space(rng, large)
    bound, nu, mu = nwc_and_pair(space)
    assert bound >= optimal_cost(a, space, nu, mu)[0] - 2e-9
    # on a sorted line with a cost convex in the distance it is the
    # monotone coupling, which is optimal
    line = grid1d_space if grid else path_space
    spacing = float(rng.uniform(0.2, 1.5))
    space = line(small, spacing)
    bound, nu, mu = nwc_and_pair(space)
    assert bound == pytest.approx(brute_force_cost(a, space, nu, mu), rel=0.0, abs=1e-12)
    space = line(large, spacing)
    bound, nu, mu = nwc_and_pair(space)
    assert bound == pytest.approx(optimal_cost(a, space, nu, mu)[0], rel=0.0, abs=2e-9)


class TestInvariants:
    def test_nonnegative_and_zero_iff_equal(self, rng):
        space = random_metric_space(rng, 3)
        mu = random_measure(rng, 3)
        nu = random_measure(rng, 3)
        cost, _ = optimal_cost(PowerYoung(2, 2), space, nu, mu)
        assert cost >= -1e-15
        same, _ = optimal_cost(PowerYoung(2, 2), space, mu, mu)
        assert same == pytest.approx(0.0, abs=1e-12)
        if not np.allclose(nu.weights, mu.weights):
            assert cost > 0.0

    def test_symmetry(self, rng):
        for _ in range(10):
            space = random_metric_space(rng, 4)
            nu, mu = random_measure(rng, 4), random_measure(rng, 4)
            f, _ = optimal_cost(PowerYoung(3, 2), space, nu, mu)
            b, _ = optimal_cost(PowerYoung(3, 2), space, mu, nu)
            assert f == pytest.approx(b, abs=1e-9)

    def test_monotone_in_cost(self, rng):
        # alpha <= beta pointwise on the occurring distances forces
        # cost(alpha) <= cost(beta)
        lo, hi = PowerYoung(2, 1.5), PowerYoung(2, 3)
        xs = np.linspace(0, 10, 2001)
        assert np.all(np.asarray(lo(xs)) <= np.asarray(hi(xs)) + 1e-12)
        for _ in range(10):
            space = random_metric_space(rng, 4)
            nu, mu = random_measure(rng, 4), random_measure(rng, 4)
            assert optimal_cost(lo, space, nu, mu)[0] <= \
                optimal_cost(hi, space, nu, mu)[0] + 1e-9

    def test_scaled_cost_scales_value(self, rng):
        # the transport functional is linear in the cost: T_{c alpha} = c T_alpha
        space = random_metric_space(rng, 4)
        nu, mu = random_measure(rng, 4), random_measure(rng, 4)
        base, _ = optimal_cost(PowerYoung(3, 2), space, nu, mu)
        for lam in (0.25, 2.0, 7.0):
            scaled, _ = optimal_cost(ScaledYoung(PowerYoung(3, 2), lam),
                                     space, nu, mu)
            assert scaled == pytest.approx(lam * base, rel=1e-9)

    def test_dual_certificate(self, rng):
        space = random_metric_space(rng, 4)
        nu, mu = random_measure(rng, 4), random_measure(rng, 4)
        a = PowerYoung(2, 2)
        cost, plan = optimal_cost(a, space, nu, mu)
        costs = np.asarray(a(space.dist))
        np.fill_diagonal(costs, 0.0)
        feas = plan.potential_source[:, None] + plan.potential_target[None, :]
        assert float((feas - costs).max()) <= 1e-9
        dual_value = plan.potential_source @ nu.weights + \
            plan.potential_target @ mu.weights
        assert dual_value == pytest.approx(cost, abs=1e-9)

    def test_infeasible_duals_raise(self, rng, monkeypatch):
        # a zero-mass source leaves its potential out of the duality gap, so
        # only the feasibility check can catch an infeasible value there
        space = random_metric_space(rng, 4)
        a = PowerYoung(2, 2)
        costs = cost_matrix(a, space)
        nu = ProbMeasure(np.array([0.0, 0.3, 0.3, 0.4]))
        mu = random_measure(rng, 4)
        real = transport.linprog

        def infeasible(*args, **kwargs):
            res = real(*args, **kwargs)
            y = np.asarray(res.eqlin.marginals, dtype=float)
            sign = 1.0 if (y[:4, None] + y[None, 4:] - costs).max() <= 1e-7 else -1.0
            phi, psi = sign * y[:4], sign * y[4:]
            phi[0] += 5e-8 - (phi[0] + psi - costs[0]).max()
            res.eqlin.marginals = sign * np.concatenate([phi, psi])
            return res

        monkeypatch.setattr(transport, "linprog", infeasible)
        with pytest.raises(SolverFailure, match="dual potentials"):
            optimal_cost(a, space, nu, mu)


def test_brute_force_size_guard(rng):
    space = random_metric_space(rng, 6, scale=5.0)
    with pytest.raises(ValueError):
        brute_force_cost(PowerYoung(2, 2), space,
                         random_measure(rng, 6), random_measure(rng, 6))


def test_tree_edge_gather_matches_per_tree_lists(rng):
    # brute force and the scanner gather tree edge costs from one cached
    # index array; the values equal the per-tree list, bit for bit
    for n in (2, 3, 4):
        costs = cost_matrix(PowerYoung(3, 2), random_metric_space(rng, n))
        want = np.array([[costs[i, j] for (i, j) in t]
                         for t in transport._spanning_trees(n, n)])
        assert np.array_equal(costs[transport._tree_edges(n)], want)


def _sub_tolerance_measure(rng, n):
    """Weights mixing exact zeros, masses below HiGHS's 1e-7 feasibility
    tolerance and at least one ordinary mass.  Half the small masses lie in
    [1e-12, 1e-8], half in [1e-8, 1e-7], where presolve misreads the LP
    most often (a few percent of these 2-5-point LPs)."""
    kind = rng.choice(3, n, p=(0.2, 0.6, 0.2))
    kind[rng.integers(0, n)] = 2
    exponent = np.where(rng.uniform(size=n) < 0.5, rng.uniform(-12.0, -8.0, n),
                        rng.uniform(-8.0, -7.0, n))
    w = np.where(kind == 1, 10.0 ** exponent, 0.0)
    bulk = np.where(kind == 2, rng.uniform(0.1, 1.0, n), 0.0)
    return ProbMeasure(w + bulk / bulk.sum() * (1.0 - w.sum()))


def _solve_once(a, space, nu, mu):
    """optimal_cost under a spy on its solver: one linprog call, and
    potentials feasible within 1e-9."""
    calls = []
    real = transport.linprog

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(transport, "linprog", spy)
        cost, plan = optimal_cost(a, space, nu, mu)
    assert len(calls) == 1
    costs = cost_matrix(a, space)
    feas = plan.potential_source[:, None] + plan.potential_target[None, :] - costs
    assert float(feas.max()) <= 1e-9
    return cost, plan


def _assert_near_exact(a, space, nu, mu, cost, plan, exact, tol):
    """The certified value is the exact cost within ``tol``, up to what the
    plan's own infeasibility allows.

    HiGHS accepts plans within its 1e-7 feasibility tolerance: entries a
    little below zero and marginals a little off.  Clipping the plan at 0
    gives a coupling P+ of perturbed marginals (nu', mu'); with optimal
    potentials of oscillation at most max c the optimum moves by at most
    max c * (|nu - nu'|_1 + |mu - mu'|_1), and dropping the negative part
    lowers the cost by at most max c * |P-|_1, so the value may fall short
    of the exact cost by that much.  It cannot exceed it by more than
    ``tol``: the certified potentials bound it from above by weak duality.
    """
    p = plan.matrix
    assert float(p.min()) >= -1e-7
    assert max(plan.row_residual, plan.col_residual) <= 1e-7
    pos = np.maximum(p, 0.0)
    moved = (np.abs(pos.sum(axis=1) - nu.weights).sum()
             + np.abs(pos.sum(axis=0) - mu.weights).sum() + (pos - p).sum())
    slack = cost_matrix(a, space).max() * moved
    assert exact - tol - slack <= cost <= exact + tol


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 5), cost=st.integers(0, 2),
       layout=st.sampled_from(["planar", "path", "grid1d"]),
       seed=st.integers(0, 2**32 - 1))
def test_sub_tolerance_marginals_solve_once(n, cost, layout, seed):
    # HiGHS presolve reads some LPs with masses below its feasibility
    # tolerance as infeasible; each solve must succeed, certified, on the
    # first call.  Four pairs per space, so the misread ones come up.
    # Brute force stops at 4 points: its 5-point tree tables take seconds
    # and hundreds of MB to build
    rng = np.random.default_rng(seed)
    a = COSTS[cost]
    if layout == "planar":
        space = random_metric_space(rng, n)
    else:
        line = grid1d_space if layout == "grid1d" else path_space
        space = line(n, float(rng.uniform(0.2, 1.5)))
    for _ in range(4):
        nu, mu = _sub_tolerance_measure(rng, n), _sub_tolerance_measure(rng, n)
        cost, plan = _solve_once(a, space, nu, mu)
        if n <= 4:
            exact = brute_force_cost(a, space, nu, mu)
            _assert_near_exact(a, space, nu, mu, cost, plan, exact, 1e-9)
        if layout != "planar":
            exact = northwest_corner_cost(a, space, nu, mu)
            _assert_near_exact(a, space, nu, mu, cost, plan, exact, 2e-9)


def test_gaussian_grid_tail_masses_solve_once():
    # the lp-grid target: a 101-point Gaussian on [-5, 5] whose tail masses
    # (down to 1.5e-7) presolve misreads; the steepest tilt of it along the
    # coordinates is one of the sources it used to reject
    space = grid1d_space(101, 0.1, start=-5.0)
    mu = measure_from_dict({"density": "exp(-x**2/2)"}, space)
    nu = ProbMeasure(next(inequalities._tilt_starts(space, mu.weights)))
    a = PowerYoung(2, 2)
    cost, plan = _solve_once(a, space, nu, mu)
    exact = northwest_corner_cost(a, space, nu, mu)
    _assert_near_exact(a, space, nu, mu, cost, plan, exact, 2e-9)


def _northwest_corner_reference(alpha, space, src, dst):
    """The one-source loop, with the cost matrix listed per call."""
    costs = cost_matrix(alpha, space).tolist()
    src, dst = list(src), list(dst)
    n = len(dst)
    i = j = 0
    a, b = src[0], dst[0]
    total = 0.0
    while True:
        m = min(a, b)
        total += m * costs[i][j]
        a -= m
        b -= m
        if a <= b:
            i += 1
            if i == n:
                return total
            a = src[i]
        else:
            j += 1
            if j == n:
                return total
            b = dst[j]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), cost=st.integers(0, 2),
       layout=st.sampled_from(["planar", "path", "shuffled-line"]),
       seed=st.integers(0, 2**32 - 1))
def test_northwest_corner_batch_equals_rows(n, cost, layout, seed):
    rng = np.random.default_rng(seed)
    a = COSTS[cost]
    if layout == "planar":
        space = random_metric_space(rng, n, scale=2.0 * n, min_sep=0.0)
    else:
        xs = np.sort(rng.uniform(-3.0, 3.0, n))
        if layout == "shuffled-line":
            xs = rng.permutation(xs)
        space = FiniteMetricSpace([str(i) for i in range(n)],
                                  np.abs(xs[:, None] - xs[None, :]), coords=xs)
    mu = random_measure(rng, n)
    rows = rng.dirichlet(np.full(n, 0.7), 9)
    rows[rng.uniform(size=rows.shape) < 0.3] = 0.0  # zero masses
    rows[0] = 0.0
    rows[0, -1] = 1.0
    rows[1:4] *= rng.uniform(0.2, 1.8, (3, 1))  # unequal totals, both ways
    batch = northwest_corner_cost(a, space, rows, mu)
    assert batch.shape == (len(rows),)
    for row, got in zip(rows, batch):
        assert got == northwest_corner_cost(a, space, row[None, :], mu)[0]
        assert got == _northwest_corner_reference(a, space, row, mu.weights)
    rows[4:] = rng.dirichlet(np.full(n, 0.7), len(rows) - 4)
    for row, got in zip(rows[4:], northwest_corner_cost(a, space, rows[4:], mu)):
        assert got == northwest_corner_cost(a, space, ProbMeasure(row), mu)
