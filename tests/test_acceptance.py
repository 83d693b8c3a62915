"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Budgets are asserted against the stated wall-clock
limits; every tolerance is pinned here, none deferred.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_measure, random_metric_space
from ineqlab.constants import kappa, kappa_tilde, lipschitz_tail_coefficient
from ineqlab.inequalities import (
    holley_stroock,
    largest_passing_dual_level,
    tensor_dual_check,
    transport_constant_estimate,
    tau_lsi_constant_estimate,
    verify_chain,
)
from ineqlab.infconv import (
    argmax_ball_report,
    lipschitz_seminorm,
    p_conv,
    q_conv,
    tensor_defect_report,
)
from ineqlab.search import ENTROPY_FLOOR, SearchBudget
from ineqlab.spaces import (
    ProbMeasure,
    grid1d_space,
    grid_adjacency,
    two_point_space,
)
from ineqlab.transport import brute_force_cost, optimal_cost
from ineqlab.young import (
    PowerYoung,
    ScaledYoung,
    conjugate_numeric,
    xi_numeric,
    xi_upper_bound,
)

PAIRS = [(2.0, 2.0), (2.0, 1.5), (3.0, 2.0), (2.0, 3.0)]
THREE_COSTS = [PowerYoung(2, 2), PowerYoung(2, 1), PowerYoung(3, 2)]


def _report(num, name, elapsed, budget, detail=""):
    print(f"criterion {num:2d} PASS  {name:<34s} {elapsed:7.2f}s "
          f"(budget {budget:g}s) {detail}")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def _normalized_pair_reference(q1, q2, ys):
    """Independent evaluation of the normalized two-regime cost at (q1, q2)."""
    inner = np.abs(ys) ** q1 / q1
    if math.isinf(q2):
        outer = np.full_like(ys, np.inf)
    else:
        outer = np.abs(ys) ** q2 / q2 + 1.0 / q1 - 1.0 / q2
    return np.where(np.abs(ys) <= 1.0, inner, outer)


def test_criterion_01_conjugate_identity():
    t0 = time.time()
    ys = np.linspace(0.0, 10.0, 1000)
    for p1, p2 in PAIRS:
        bar = ScaledYoung(PowerYoung(p1, p2), 1.0 / p1)
        q1, q2 = p1 / (p1 - 1.0), p2 / (p2 - 1.0)
        reference = _normalized_pair_reference(q1, q2, ys)
        closed = np.asarray(bar.conjugate(ys))
        err = np.abs(closed - reference) / np.maximum(np.abs(reference), 1e-30)
        err[ys == 0.0] = np.abs(closed[ys == 0.0] - reference[ys == 0.0])
        assert float(np.nanmax(err)) <= 1e-6
        # numeric fallback against the closed form
        for y in ys[5::37]:
            numeric = conjugate_numeric(bar, float(y))
            assert numeric == pytest.approx(float(bar.conjugate(float(y))),
                                            rel=1e-6, abs=1e-9)
    _report(1, "conjugate identity", time.time() - t0, 5.0)


def test_criterion_02_exponents():
    t0 = time.time()
    for p1, p2 in PAIRS:
        pair = PowerYoung(p1, p2).exponents()
        assert pair.r_exp == pytest.approx(min(p1, p2), abs=1e-9)
        assert pair.p_exp == pytest.approx(max(p1, p2), abs=1e-9)
    # doubling constant of the pure power cost via the numeric supremum
    from ineqlab.young import _exponents_numeric

    for p in (2.0, 2.5, 3.0):
        numeric = _exponents_numeric(PowerYoung(p, p))
        assert numeric.delta2 == pytest.approx(2.0**p, rel=1e-6)
    _report(2, "growth exponents", time.time() - t0, 5.0)


def test_criterion_03_xi_closed_vs_numeric():
    t0 = time.time()
    xs = np.geomspace(0.01, 10.0, 1000)
    for p1, p2 in PAIRS + [(2.0, 1.0)]:
        a = PowerYoung(p1, p2)
        pair = a.exponents()
        check_xs = xs[::5] if (p1, p2) != (2.0, 1.0) else xs[::25]
        for x, numeric in zip(check_xs, xi_numeric(a, check_xs)):
            closed = a.xi(float(x))
            if math.isinf(closed):
                assert math.isinf(numeric)
            else:
                assert numeric == pytest.approx(closed, rel=1e-5)
        for x in xs:  # slope-ratio bound with the x**oo convention
            bound = xi_upper_bound(pair, float(x))
            val = a.xi(float(x))
            assert val <= bound * (1 + 1e-12) or math.isinf(bound)
    _report(3, "conjugate-slope ratio", time.time() - t0, 30.0)


def test_criterion_04_transport_exactness():
    t0 = time.time()
    rng = np.random.default_rng(404)
    worst_gap = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 5))
        space = random_metric_space(rng, n)
        nu, mu = random_measure(rng, n), random_measure(rng, n)
        a = THREE_COSTS[trial % 3]
        cost, plan = optimal_cost(a, space, nu, mu)
        reference = brute_force_cost(a, space, nu, mu)
        assert cost == pytest.approx(reference, abs=1e-9)
        worst_gap = max(worst_gap, abs(plan.dual_gap))
    assert worst_gap <= 1e-9
    _report(4, "transport exactness (200 runs)", time.time() - t0, 30.0,
            f"worst dual gap {worst_gap:.2e}")


def test_criterion_05_infconv_algebra():
    t0 = time.time()
    rng = np.random.default_rng(505)
    for trial in range(1000):
        n = 1 + trial % 2
        space = random_metric_space(rng, int(rng.integers(2, 5)))
        a = THREE_COSTS[trial % 3]
        g = rng.normal(scale=2.0, size=(space.size,) * n)
        qg, _ = q_conv(a, 1.0, g, space, n)
        pq, _ = p_conv(a, qg, space, n)
        assert np.all(pq <= g + 1e-12)
        pg, _ = p_conv(a, g, space, n)
        qp, _ = q_conv(a, 1.0, pg, space, n)
        assert np.all(qp >= g - 1e-12)
        assert np.array_equal(pg, -q_conv(a, 1.0, -g, space, n)[0])
    _report(5, "inf-convolution algebra (1000)", time.time() - t0, 20.0)


def test_criterion_06_tensor_defect_bound():
    t0 = time.time()
    rng = np.random.default_rng(606)
    worst = -math.inf
    for trial in range(500):
        n = 1 + trial % 2
        space = random_metric_space(rng, int(rng.integers(2, 5)))
        a = THREE_COSTS[trial % 3]
        f = rng.normal(scale=2.0, size=(space.size,) * n)
        t = float(rng.choice([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]))
        rep = tensor_defect_report(a, f, t, space, n, tol=1e-9)
        assert rep.holds, (trial, rep.worst_margin)
        worst = max(worst, rep.worst_margin)
    _report(6, "partial-defect bound (500)", time.time() - t0, 60.0,
            f"worst margin {worst:.2e}")


def test_criterion_07_argmax_ball():
    t0 = time.time()
    rng = np.random.default_rng(707)
    for trial in range(200):
        n = 1 + trial % 2
        space = random_metric_space(rng, int(rng.integers(2, 5)))
        p = 2.0 if trial % 2 == 0 else 3.0
        f = rng.normal(scale=1.5, size=(space.size,) * n)
        rep = argmax_ball_report(p, f, space, n, omega=1.0, tol=1e-9)
        assert rep.holds, (trial, rep.worst_margin)
    # geodesic surrogate on grid discretizations of the unit interval
    grid = grid1d_space(201, 1.0 / 200.0)
    for slope_value in (0.25, 0.5, 1.0):
        f = slope_value * grid.coords
        assert lipschitz_seminorm(f, grid, 2.0) == pytest.approx(slope_value)
        rep = argmax_ball_report(2.0, f, grid, 1, omega=2.0, rel_slack=0.05)
        assert rep.holds, rep.worst_margin
    smooth = 0.4 * np.sin(1.5 * np.pi * grid.coords) / (1.5 * np.pi)
    rep = argmax_ball_report(2.0, 0.5 * grid.coords + smooth, grid, 1,
                             omega=2.0, rel_slack=0.05)
    assert rep.holds
    _report(7, "argmax displacement ball", time.time() - t0, 60.0)


def _chain_spaces():
    rng = np.random.default_rng(808)
    out = []
    for _ in range(10):
        d = float(rng.uniform(0.5, 2.0))
        m = float(rng.uniform(0.25, 0.75))
        out.append((two_point_space(d), ProbMeasure(np.array([m, 1.0 - m]))))
    for _ in range(5):
        space = random_metric_space(rng, 3, min_sep=0.3)
        out.append((space, random_measure(rng, 3)))
    return out


def test_criterion_08_transport_to_tau_lsi_chain():
    t0 = time.time()
    for k, (space, mu) in enumerate(_chain_spaces()):
        for a in (PowerYoung(2, 2), PowerYoung(3, 2)):
            rep = verify_chain(a, space, mu, "transport-to-tau-lsi", seed=k,
                               rel_tol=1e-6, abs_tol=1e-6,
                               fractions=(0.25, 0.5, 0.75))
            assert rep.verdict == "PASS", rep.as_dict()
    _report(8, "transport => tau-LSI (15 spaces)", time.time() - t0, 300.0)


def test_criterion_09_tau_lsi_to_transport_chain():
    t0 = time.time()
    assert kappa(2.0) == 4.0
    assert kappa_tilde(2.0) == 16.0
    for k, (space, mu) in enumerate(_chain_spaces()):
        for a in (PowerYoung(2, 2), PowerYoung(3, 2)):
            # at unit scale the premise is degenerate on finite spaces
            # (zero-defect potentials with positive entropy); the verifier
            # must detect it and report the vacuous guarantee rather than
            # a spurious finite chain
            rep = verify_chain(a, space, mu, "tau-lsi-to-transport", seed=k,
                               lam=1.0, rel_tol=1e-6)
            assert rep.verdict == "PASS", rep.as_dict()
            assert rep.premise_degenerate
            assert math.isinf(rep.guaranteed_constant)
            # the same chain carries content at a scale tied to the scanned
            # transport constant: premise non-degenerate and the guarantee
            # dominates the scan
            est = transport_constant_estimate(a, space, mu, seed=k)
            rep2 = verify_chain(a, space, mu, "tau-lsi-to-transport", seed=k,
                                lam=0.5 / est.value, rel_tol=1e-6)
            assert rep2.verdict == "PASS", rep2.as_dict()
            assert not rep2.premise_degenerate
            assert rep2.guaranteed_constant >= est.value
    _report(9, "tau-LSI => transport (15 spaces)", time.time() - t0, 300.0)


def test_criterion_10_gaussian_grid():
    t0 = time.time()
    space = grid1d_space(201, 0.05, start=-5.0)
    mu = ProbMeasure.normalized(np.exp(-space.coords**2 / 2.0))
    # resolution floor: the entropy of a one-spacing shift (h^2/2); below
    # it the grid quantizes transport and the cost/entropy ratio diverges
    floor = 0.05**2 / 2.0
    est = transport_constant_estimate(PowerYoung(2, 2), space, mu, seed=10,
                                      entropy_floor=floor,
                                      budget=SearchBudget(starts=6))
    assert 1.6 <= est.value <= 2.02, est.value
    _report(10, "discretized Gaussian window", time.time() - t0, 600.0,
            f"estimate {est.value:.5f}")


def test_criterion_11_holley_stroock():
    t0 = time.time()
    rng = np.random.default_rng(111)
    a = PowerYoung(2, 2)
    for trial in range(50):
        d = float(rng.uniform(0.5, 2.0))
        m = float(rng.uniform(0.25, 0.75))
        space = two_point_space(d)
        mu = ProbMeasure(np.array([m, 1.0 - m]))
        base = transport_constant_estimate(a, space, mu, seed=trial)
        phi = rng.uniform(-1.0, 1.0, size=2)  # oscillation at most 2
        mu_t, c_tilde, rep = holley_stroock(a, space, mu, phi, base.value,
                                            seed=trial)
        assert rep.verdict == "PASS", rep.as_dict()
        # the sharper intermediate route must also dominate the scan
        intermediate = rep.searched["intermediate_constant"]
        scan_value = rep.best_violation_ratio * min(c_tilde, intermediate) * (1 + 1e-6)
        assert scan_value <= intermediate * (1 + 1e-6)
        assert intermediate == pytest.approx(c_tilde, rel=1e-9)
    _report(11, "bounded perturbation (50 runs)", time.time() - t0, 180.0)


def test_criterion_12_dual_threshold():
    t0 = time.time()
    rng = np.random.default_rng(121)
    a = PowerYoung(2, 2)
    for _ in range(10):
        d = float(rng.uniform(0.5, 2.0))
        m = float(rng.uniform(0.2, 0.8))
        space = two_point_space(d)
        mu = ProbMeasure(np.array([m, 1.0 - m]))
        c_star = largest_passing_dual_level(a, space, mu)
        est = transport_constant_estimate(a, space, mu)
        assert c_star * est.value == pytest.approx(1.0, abs=0.02)
    # tensorized moment premise implies a transport constant at order 2
    space = random_metric_space(rng, 3, min_sep=0.3)
    mu = random_measure(rng, 3)
    scan = transport_constant_estimate(a, space, mu)
    tau = 5.0 / scan.value
    out = tensor_dual_check(a, space, mu, tau=tau, a=1.0, b=tau, c_norm=0.9,
                            n=2, count=64, seed=12)
    assert not out["violation"], out
    assert out["implied_transport_constant"] >= scan.value
    _report(12, "dual threshold + tensor premise", time.time() - t0, 180.0)


def test_criterion_13_tail_coefficient():
    t0 = time.time()
    assert lipschitz_tail_coefficient(2.0, 1.0) == pytest.approx(7.5, abs=0.1)
    assert lipschitz_tail_coefficient(2.0, 2.0) == pytest.approx(3.14, abs=0.1)
    _report(13, "Lipschitz tail coefficient", time.time() - t0, 1.0)


def test_criterion_14_slope_surrogate_chain():
    t0 = time.time()
    space = grid1d_space(101, 0.01)
    mu = ProbMeasure.uniform(101)
    adjacency = grid_adjacency(101)
    budget = SearchBudget(starts=8, iterations=120)
    for sign in ("+", "-"):
        rep = verify_chain(PowerYoung(2, 2), space, mu, "lsi-to-transport",
                           seed=14, sign=sign, adjacency=adjacency,
                           surrogate_slack=0.05, budget=budget)
        assert rep.verdict in ("PASS", "INCONCLUSIVE"), rep.as_dict()
    _report(14, "slope-surrogate chain (grid)", time.time() - t0, 600.0)
