import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_measure, random_metric_space
from ineqlab.spaces import (
    FiniteMetricSpace,
    ProbMeasure,
    grid1d_space,
    path_space,
    two_point_space,
)
from ineqlab import transport
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
            assert plan.check(nu, mu, np.asarray(a(space.dist))) == []

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
