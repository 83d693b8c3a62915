import itertools
import math
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_measure, random_metric_space
from ineqlab.inequalities import (
    _tau_pieces,
    concentration_check,
    dual_check,
    holley_stroock,
    largest_passing_dual_level,
    mlsi_constant_estimate,
    tau_lsi_constant_estimate,
    tensor_dual_check,
    transport_constant_estimate,
    verify_chain,
)
from ineqlab import inequalities, infconv, search, transport
from ineqlab.search import ENTROPY_FLOOR, SearchBudget
from ineqlab.spaces import (
    ProbMeasure,
    _entropy_vec,
    _gauge_entropy,
    cycle_space,
    exp_entropy,
    grid1d_space,
    grid_adjacency,
    relative_entropy,
    two_point_space,
)
from ineqlab.transport import optimal_cost
from ineqlab.young import PowerYoung


class TestTransportEstimate:
    def test_dirac_degenerates(self):
        est = transport_constant_estimate(PowerYoung(2, 2), two_point_space(1.0),
                                          ProbMeasure.dirac(2, 0))
        assert est.value == 0.0

    def test_two_point_floored_shell_value(self):
        # at the entropy floor h the best swap gives alpha(d) sqrt(2 m0 m1 / h)
        d, m = 1.0, 0.5
        est = transport_constant_estimate(PowerYoung(2, 2), two_point_space(d),
                                          ProbMeasure(np.array([m, 1 - m])))
        predicted = math.sqrt(2 * m * (1 - m) / ENTROPY_FLOOR)
        assert est.value == pytest.approx(predicted, rel=1e-3)
        assert "floor" in " ".join(est.notes)

    def test_witness_reproduces_value(self, rng):
        # checks the dual-vertex pricing of every scan end to end by the LP
        for n, a in itertools.product(
                (2, 3, 4), (PowerYoung(3, 2), PowerYoung(2, 2), PowerYoung(2, 1.5))):
            space = random_metric_space(rng, n)
            mu = random_measure(rng, n)
            est = transport_constant_estimate(
                a, space, mu, budget=SearchBudget(starts=4, iterations=40))
            cost, _ = optimal_cost(a, space, ProbMeasure(est.witness), mu)
            h = relative_entropy(ProbMeasure(est.witness), mu)
            assert cost / h == pytest.approx(est.value, rel=1e-10)

    def test_support_restriction(self):
        space = random_metric_space(np.random.default_rng(5), 3)
        mu = ProbMeasure(np.array([0.5, 0.5, 0.0]))
        est = transport_constant_estimate(PowerYoung(2, 2), space, mu)
        assert est.value > 0.0  # runs on the two-point support


def _two_point_sources(mu, step=1e-4):
    """The signed-perturbation family (mu0 + s, mu1 - s) the two-point
    transport scan once priced beside the shell; kept as the oracle."""
    smax = min(mu[0], mu[1])
    s = np.arange(step, smax, step)
    s = np.concatenate([s, -s])
    out = np.column_stack([mu[0] + s, mu[1] - s])
    return out[(out > 0).all(axis=1)]


@settings(max_examples=40)
@given(d=st.floats(0.2, 3.0), m=st.floats(0.02, 0.98),
       pair=st.sampled_from([(2.0, 2.0), (3.0, 2.0), (2.0, 1.5)]),
       floor=st.sampled_from([4e-6, 1e-3, 0.05]))
def test_two_point_shell_is_enough(d, m, pair, floor):
    # on two points the cost alpha(d) |nu_0 - mu_0| is linear in the
    # perturbation and the entropy convex with a zero at mu, so no floored
    # perturbation beats the shell's first level (1.0000001 * floor) by more
    # than that level's 1e-7
    alpha = PowerYoung(*pair)
    mu = ProbMeasure(np.array([m, 1.0 - m]))
    est = transport_constant_estimate(alpha, two_point_space(d), mu,
                                      entropy_floor=floor)
    assert est.n_candidates == search.pair_swap_shell(mu.weights, floor).shape[0]
    assert est.n_excluded == 0
    rows = _two_point_sources(mu.weights)
    ents = _entropy_vec(rows, mu.weights)
    above = ents >= floor
    ratios = float(alpha(d)) * np.abs(rows[above, 0] - m) / ents[above]
    assert ratios.max(initial=0.0) <= est.value * (1.0 + 1e-7) * (1.0 + 1e-12)


def test_two_point_floor_beyond_every_swap():
    # no two-atom swap of the uniform measure reaches entropy log 2: nothing
    # is scanned and the estimate is empty
    est = transport_constant_estimate(PowerYoung(2, 2), two_point_space(1.0),
                                      ProbMeasure.uniform(2), entropy_floor=1.0)
    assert (est.value, est.witness, est.n_candidates, est.n_excluded) == (0.0, None, 0, 0)
    assert est.notes == ("no candidate above the entropy floor",)


def _rank_all_lp_scan(alpha, space, mu, floor, starts, objective):
    """The exhaustive scan the pruned one replaces: one LP per start, then a
    stable descending sort, so ties go to the earliest start."""
    ranked = [(float(objective(np.asarray(s)[None, :])[0]), k)
              for k, s in enumerate(starts)]
    ranked.sort(key=lambda kv: kv[0], reverse=True)
    return ranked[0]


LP_COSTS = (PowerYoung(2, 2), PowerYoung(2, 1), PowerYoung(3, 2))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(6, 15), kind=st.sampled_from(["planar", "cycle", "grid1d"]),
       cost=st.integers(0, 2), seed=st.integers(0, 2**32 - 1), extras=st.booleans())
def test_pruned_lp_scan_matches_rank_all(n, kind, cost, seed, extras):
    rng = np.random.default_rng(seed)
    if kind == "planar":
        space = random_metric_space(rng, n)
    else:
        spacing = float(rng.uniform(0.2, 1.5))
        space = cycle_space(n, spacing) if kind == "cycle" else grid1d_space(n, spacing)
    mu = random_measure(rng, n)
    alpha = LP_COSTS[cost]
    extra_sources = None
    if extras:
        # near-copies of the tilts put near-ties at the top of the ranking
        tilts = np.array(list(inequalities._tilt_starts(space, mu.weights)))
        noisy = tilts * (1.0 + rng.uniform(-1e-14, 1e-14, tilts.shape))
        extra_sources = list(noisy / noisy.sum(axis=1, keepdims=True))
        extra_sources += list(rng.dirichlet(np.full(n, 0.5), 3))

    def run():
        return transport_constant_estimate(alpha, space, mu, seed=seed,
                                           budget=SearchBudget(starts=6),
                                           extra_sources=extra_sources)

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return optimal_cost(*args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(inequalities, "optimal_cost", counting)
        got = run()
        pruned_calls = len(calls)
        m.setattr(inequalities, "_pruned_lp_scan", _rank_all_lp_scan)
        ref = run()
    # the rank-all scan solves every distinct start above the floor once
    rank_all_calls = len(calls) - pruned_calls
    assert got.value == ref.value
    assert np.array_equal(got.witness, ref.witness)
    assert got.n_candidates == ref.n_candidates
    assert got.method == ref.method == "structured-scan-lp"
    assert got.notes == ref.notes
    if kind == "grid1d":
        # the bound is exact on a sorted line, so most starts are skipped
        assert pruned_calls < rank_all_calls


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.integers(6, 15), cost=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_pruned_lp_scan_margin_covers_lp_tolerance(n, cost, seed):
    # on a sorted line the north-west-corner cost is the optimum, and a
    # certified LP value may exceed it by up to two dual tolerances; model
    # such an LP and tie the tilts with near-copies a few 1e-12 apart, far
    # closer than that excess, so only the margin keeps the winner unpruned
    rng = np.random.default_rng(seed)
    space = grid1d_space(n, float(rng.uniform(0.2, 1.5)))
    mu = random_measure(rng, n)
    alpha = LP_COSTS[cost]
    tilts = np.array(list(inequalities._tilt_starts(space, mu.weights)))
    noisy = tilts * (1.0 + rng.uniform(-1e-12, 1e-12, tilts.shape))
    extra_sources = list(noisy / noisy.sum(axis=1, keepdims=True))

    def loose_lp(alpha, space, nu, mu):
        excess = zlib.crc32(nu.weights.tobytes()) / 2**32 * 1.9e-9
        return transport.northwest_corner_cost(alpha, space, nu, mu) + excess, None

    def run():
        return transport_constant_estimate(alpha, space, mu, seed=seed,
                                           budget=SearchBudget(starts=2),
                                           extra_sources=extra_sources)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(inequalities, "optimal_cost", loose_lp)
        got = run()
        m.setattr(inequalities, "_pruned_lp_scan", _rank_all_lp_scan)
        ref = run()
    assert got.value == ref.value
    assert np.array_equal(got.witness, ref.witness)


def test_pruned_lp_scan_ties_go_to_earliest_start(rng):
    # an LP whose cost is the entropy times 2**-20 gives every start the same
    # ratio bit for bit; the scan visits them best bound first, yet the
    # earliest start must win, as in the stable rank-all sort
    space = random_metric_space(rng, 8)
    mu = random_measure(rng, 8)

    def flat_lp(alpha, space, nu, mu):
        return float(_entropy_vec(nu.weights[None, :], mu.weights)[0]) * 2.0**-20, None

    results = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(inequalities, "optimal_cost", flat_lp)
        for scan in (inequalities._pruned_lp_scan, _rank_all_lp_scan):
            m.setattr(inequalities, "_pruned_lp_scan", scan)
            results.append(transport_constant_estimate(PowerYoung(2, 2), space, mu))
    got, ref = results
    assert got.value == ref.value == 2.0**-20
    assert np.array_equal(got.witness, ref.witness)


class TestTauLsiEstimate:
    def test_gauge_invariance(self, rng):
        space = random_metric_space(rng, 4)
        mu = random_measure(rng, 4)
        costs = np.asarray(PowerYoung(2, 2)(space.dist))
        np.fill_diagonal(costs, 0.0)
        for _ in range(100):
            f = rng.normal(scale=2.0, size=4)
            c = float(rng.normal(scale=3.0))
            e1, d1 = _tau_pieces(mu.weights, costs, f[None, :])
            e2, d2 = _tau_pieces(mu.weights, costs, (f + c)[None, :])
            if d1[0] > 1e-12:
                assert e1[0] / d1[0] == pytest.approx(e2[0] / d2[0], rel=1e-10)

    def test_ratio_matches_direct_computation(self, rng):
        # the scan kernel must agree with an independent scalar evaluation
        space = two_point_space(1.3)
        mu = ProbMeasure(np.array([0.4, 0.6]))
        lam = 0.02
        est = tau_lsi_constant_estimate(PowerYoung(2, 2), lam, space, mu)
        f = est.witness
        from ineqlab.infconv import q_conv

        qf, _ = q_conv(PowerYoung(2, 2), lam, f, space)
        num = exp_entropy(mu, f)
        den = float(np.sum(mu.weights * np.exp(f) * (f - qf)))
        assert num / den == pytest.approx(est.value, rel=1e-10)

    def test_degeneracy_witnesses_at_unit_scale(self):
        # potentials oscillating below lambda*alpha(d) have positive entropy
        # and zero inf-convolution defect
        space = two_point_space(1.0)
        est = tau_lsi_constant_estimate(PowerYoung(2, 2), 1.0, space,
                                        ProbMeasure.uniform(2))
        assert est.premise_degenerate
        assert est.degenerate_entropy > 1e-6

    def test_small_scale_not_degenerate(self):
        space = two_point_space(1.0)
        est = tau_lsi_constant_estimate(PowerYoung(2, 2), 1e-4, space,
                                        ProbMeasure.uniform(2))
        assert est.degenerate_entropy < 1e-6
        assert 0.0 < est.value < 1.0


class TestMlsiEstimate:
    def test_grid_refinement_self_consistency(self):
        # neighbor-mode values on refinements of the unit interval are
        # reported for comparison; no continuum limit is asserted, the
        # slope modulus being a surrogate (only gross breakage is caught)
        values = {}
        for count in (51, 101, 201):
            space = grid1d_space(count, 1.0 / (count - 1))
            est = mlsi_constant_estimate(
                PowerYoung(2, 2), space, ProbMeasure.uniform(count), "+",
                grid_adjacency(count), seed=1,
                budget=SearchBudget(starts=2, iterations=10))
            values[count] = est.value
        print(f"neighbor-slope constants across grids: {values}")
        assert all(0.01 < v < 100.0 for v in values.values())

    def test_two_point_scan_matches_direct(self, rng):
        space = two_point_space(2.0)
        mu = ProbMeasure(np.array([0.3, 0.7]))
        est = mlsi_constant_estimate(PowerYoung(2, 2), space, mu, "+")
        f = est.witness
        from ineqlab.spaces import slope_vector

        slopes = slope_vector(space, f, "+")
        den = float(np.sum(mu.weights * np.asarray(
            PowerYoung(2, 2).conjugate(slopes)) * np.exp(f)))
        assert exp_entropy(mu, f) / den == pytest.approx(est.value, rel=1e-10)
        assert "surrogate" in " ".join(est.notes)


class TestDual:
    def test_constant_potential_is_tight(self):
        space = two_point_space(1.0)
        mu = ProbMeasure.uniform(2)
        out = dual_check(PowerYoung(2, 2), space, mu, 0.001)
        # equality at constant potentials, no violation beyond tolerance at
        # levels below the passing threshold
        assert out["max_log_gap"] <= out["gap_tol"]

    def test_threshold_matches_primal(self, rng):
        # largest passing level and the reciprocal floored scan constant
        # agree: the cutoffs are matched by construction (floor = 4 gap tol)
        for _ in range(4):
            d = float(rng.uniform(0.5, 2.0))
            m = float(rng.uniform(0.2, 0.8))
            space = two_point_space(d)
            mu = ProbMeasure(np.array([m, 1 - m]))
            c_star = largest_passing_dual_level(PowerYoung(2, 2), space, mu)
            est = transport_constant_estimate(PowerYoung(2, 2), space, mu)
            assert c_star * est.value == pytest.approx(1.0, abs=0.02)

    def test_violation_found_above_threshold(self, rng):
        space = two_point_space(1.0)
        mu = ProbMeasure.uniform(2)
        c_star = largest_passing_dual_level(PowerYoung(2, 2), space, mu)
        out = dual_check(PowerYoung(2, 2), space, mu, c_star * 1.1)
        assert out["violation"]

    def test_tensor_premise_from_transport(self, rng):
        # a verified one-dimensional dual level tensorizes: the product
        # moment bound holds with a = 1, b = c and no sup-norm term
        space = random_metric_space(rng, 3)
        mu = random_measure(rng, 3)
        a = PowerYoung(2, 2)
        c_star = largest_passing_dual_level(a, space, mu) if space.size == 2 else None
        level = 0.001
        out = tensor_dual_check(a, space, mu, tau=level, a=1.0, b=level,
                                c_norm=0.0, n=2, count=32, seed=3)
        assert out["max_log_gap"] <= out["gap_tol"] * 50  # diagnostic scale
        assert out["implied_transport_constant"] == pytest.approx(1.0 / level)


class TestConcentration:
    def test_holds_at_scan_constant(self, rng):
        space = two_point_space(1.0)
        mu = ProbMeasure.uniform(2)
        est = transport_constant_estimate(PowerYoung(2, 2), space, mu)
        for n in (1, 2):
            out = concentration_check(space, mu, 2.0, est.value, n, count=40,
                                      seed=11)
            assert out["holds"], out

    def test_fails_at_tiny_constant(self):
        space = two_point_space(1.0)
        mu = ProbMeasure.uniform(2)
        out = concentration_check(space, mu, 2.0, 1e-4, 1, count=10, seed=2)
        assert not out["holds"]


class TestChains:
    def test_transport_to_tau_two_point(self, rng):
        for k in range(3):
            d = float(rng.uniform(0.5, 2.0))
            m = float(rng.uniform(0.25, 0.75))
            space = two_point_space(d)
            mu = ProbMeasure(np.array([m, 1 - m]))
            rep = verify_chain(PowerYoung(2, 2), space, mu,
                               "transport-to-tau-lsi", seed=k)
            assert rep.verdict == "PASS"
            assert rep.best_violation_ratio <= 1.0

    def test_tau_to_transport_unit_scale_degenerate(self):
        space = two_point_space(1.0)
        rep = verify_chain(PowerYoung(2, 2), space, ProbMeasure.uniform(2),
                           "tau-lsi-to-transport", seed=0, lam=1.0)
        assert rep.verdict == "PASS"
        assert rep.premise_degenerate
        assert math.isinf(rep.guaranteed_constant)

    def test_tau_to_transport_scaled(self):
        space = two_point_space(1.0)
        mu = ProbMeasure.uniform(2)
        est = transport_constant_estimate(PowerYoung(2, 2), space, mu)
        rep = verify_chain(PowerYoung(2, 2), space, mu, "tau-lsi-to-transport",
                           seed=0, lam=0.5 / est.value)
        assert rep.verdict == "PASS"
        assert not rep.premise_degenerate
        assert rep.guaranteed_constant >= est.value

    def test_lsi_chain_never_fails(self):
        space = grid1d_space(21, 0.05)
        mu = ProbMeasure.uniform(21)
        rep = verify_chain(PowerYoung(2, 2), space, mu, "lsi-to-transport",
                           seed=0, sign="+", adjacency=grid_adjacency(21),
                           budget=SearchBudget(starts=4, iterations=40))
        assert rep.verdict in ("PASS", "INCONCLUSIVE")


class TestHolleyStroock:
    def test_constant_perturbation_keeps_measure(self):
        space = two_point_space(1.0)
        mu = ProbMeasure.uniform(2)
        base = transport_constant_estimate(PowerYoung(2, 2), space, mu)
        mu_t, c_tilde, rep = holley_stroock(PowerYoung(2, 2), space, mu,
                                            np.zeros(2), base.value, seed=0)
        np.testing.assert_allclose(mu_t.weights, mu.weights)
        assert c_tilde == pytest.approx(16.0 * base.value)
        assert rep.verdict == "PASS"

    def test_two_point_example(self):
        space = two_point_space(1.0)
        mu = ProbMeasure.uniform(2)
        base = transport_constant_estimate(PowerYoung(2, 2), space, mu)
        mu_t, c_tilde, rep = holley_stroock(PowerYoung(2, 2), space, mu,
                                            np.array([0.0, 1.0]), base.value,
                                            seed=0)
        e = math.e
        np.testing.assert_allclose(mu_t.weights, [1 / (1 + e), e / (1 + e)],
                                   rtol=1e-12)
        assert c_tilde == pytest.approx(16.0 * base.value * e)
        assert rep.verdict == "PASS"


def test_entropy_kernel_matches_reference(rng):
    mu = random_measure(rng, 5)
    nus = np.array([random_measure(rng, 5).weights for _ in range(20)])
    nus[:3, 1] = 0.0  # rows with a zero weight, where the kernel masks the term
    nus[:3] /= nus[:3].sum(axis=1, keepdims=True)
    batch = _entropy_vec(nus, mu.weights)
    for row, got in zip(nus, batch):
        # the oracle: sum nu log(nu/mu) over nu > 0, one scalar term at a time
        want = math.fsum(a * math.log(a / b) for a, b in zip(row, mu.weights) if a > 0)
        assert got == pytest.approx(want, rel=1e-12)
        assert relative_entropy(ProbMeasure(row), mu) == got


@settings(max_examples=30)
@given(seed=st.integers(0, 2**16), n=st.integers(2, 9),
       lam=st.sampled_from([1e-3, 0.3, 1.0, 5.0]),
       pair=st.sampled_from([(2.0, 2.0), (3.0, 2.0), (2.0, 1.5)]))
def test_zero_defect_entropy_matches_per_dip_loop(seed, n, lam, pair):
    # the batched probe against one dip at a time: a dip -c at point i is a
    # witness when the inf-convolution leaves it unchanged, and the probe is
    # the largest witness entropy
    rng = np.random.default_rng(seed)
    space, mu = random_metric_space(rng, n, min_sep=0.1), random_measure(rng, n)
    alpha = PowerYoung(*pair)
    c = lam * float(alpha(space.min_distance())) * (1.0 - 1e-12)
    costs = transport.cost_matrix(alpha, space, lam)
    want = 0.0
    for i in range(n):
        f = np.zeros(n)
        f[i] = -c
        if np.array_equal(np.min(f[None, :] + costs, axis=1), f):
            want = max(want, exp_entropy(mu, f))
    got = inequalities._zero_defect_entropy(alpha, lam, space, mu)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestLargerSpaces:
    def test_four_point_estimate_witness(self, rng):
        space = random_metric_space(rng, 4)
        mu = random_measure(rng, 4)
        a = PowerYoung(2, 2)
        est = transport_constant_estimate(
            a, space, mu, seed=1, budget=SearchBudget(starts=8, iterations=60))
        assert est.value > 0.0
        cost, _ = optimal_cost(a, space, ProbMeasure(est.witness), mu)
        h = relative_entropy(ProbMeasure(est.witness), mu)
        assert cost / h == pytest.approx(est.value, rel=1e-10)

    def test_tau_ascent_path(self, rng):
        space = random_metric_space(rng, 5)
        mu = random_measure(rng, 5)
        est = tau_lsi_constant_estimate(
            PowerYoung(2, 2), 0.01, space, mu, seed=2,
            budget=SearchBudget(starts=6, iterations=80))
        assert est.value > 0.0
        from ineqlab.infconv import q_conv

        qf, _ = q_conv(PowerYoung(2, 2), 0.01, est.witness, space)
        num = exp_entropy(mu, est.witness)
        den = float(np.sum(mu.weights * np.exp(est.witness) * (est.witness - qf)))
        assert num / den == pytest.approx(est.value, rel=1e-10)

    def test_chain_degeneracy_probe_beyond_scan_sizes(self, rng):
        # on spaces too big for dense scans the single-point-dip probe must
        # still detect the vacuous premise at unit scale
        space = random_metric_space(rng, 5, min_sep=0.4)
        mu = random_measure(rng, 5)
        rep = verify_chain(PowerYoung(2, 2), space, mu,
                           "tau-lsi-to-transport", seed=0, lam=1.0,
                           budget=SearchBudget(starts=4, iterations=30))
        assert rep.premise_degenerate
        assert rep.verdict == "PASS"

    def test_three_point_dual_scan(self, rng):
        space = random_metric_space(rng, 3)
        mu = random_measure(rng, 3)
        out = dual_check(PowerYoung(2, 2), space, mu, 1e-4)
        assert out["max_log_gap"] <= out["gap_tol"]

    def test_order_three_concentration(self, rng):
        space = two_point_space(1.0)
        mu = ProbMeasure(np.array([0.35, 0.65]))
        est = transport_constant_estimate(PowerYoung(2, 2), space, mu)
        out = concentration_check(space, mu, 2.0, est.value, 3, count=20,
                                  seed=9)
        assert out["holds"], out


class TestDiracChains:
    def test_all_chains_vacuous_on_dirac(self):
        space = two_point_space(1.0)
        mu = ProbMeasure.dirac(2, 0)
        r1 = verify_chain(PowerYoung(2, 2), space, mu,
                          "transport-to-tau-lsi", seed=0)
        assert r1.verdict == "PASS" and r1.premise_constant == 0.0
        r2 = verify_chain(PowerYoung(2, 2), space, mu,
                          "tau-lsi-to-transport", seed=0, lam=1.0)
        assert r2.verdict == "PASS"


def _search_calls(monkeypatch, run):
    """Arguments of every multistart_maximize call made by ``run()``; the
    searches themselves are skipped (they report no finite value)."""
    calls = []

    def spy(objective, starts, project, budget, gradient=None):
        calls.append((objective, list(starts), project, budget, gradient))
        return -np.inf, None, 0

    with monkeypatch.context() as patch:
        patch.setattr(search, "multistart_maximize", spy)
        run()
    return calls


def _lockstep_scanner(rng, monkeypatch):
    space = random_metric_space(rng, 4)
    mu = random_measure(rng, 4)
    return _search_calls(monkeypatch, lambda: transport_constant_estimate(
        PowerYoung(3, 2), space, mu, seed=3,
        budget=SearchBudget(starts=6, iterations=25)))


def _lockstep_mlsi_adjacency(rng, monkeypatch):
    space = grid1d_space(9, 0.25, start=-1.0)
    mu = random_measure(rng, 9)
    return _search_calls(monkeypatch, lambda: mlsi_constant_estimate(
        PowerYoung(2, 2), space, mu, "-", grid_adjacency(9), seed=4,
        budget=SearchBudget(starts=8, iterations=60)))


def _lockstep_tau(rng, monkeypatch):
    space = random_metric_space(rng, 5)
    mu = random_measure(rng, 5)
    return _search_calls(monkeypatch, lambda: tau_lsi_constant_estimate(
        PowerYoung(2, 2), 0.01, space, mu, seed=2,
        budget=SearchBudget(starts=8, iterations=60)))


def _lockstep_mlsi_global(rng, monkeypatch):
    space = random_metric_space(rng, 9)
    mu = random_measure(rng, 9)
    return _search_calls(monkeypatch, lambda: mlsi_constant_estimate(
        PowerYoung(2, 2), space, mu, "+", seed=4,
        budget=SearchBudget(starts=8, iterations=60)))


def _lockstep_gradient(rng, monkeypatch):
    # the LP polish runs from one start; give its objective and gradient more
    space = random_metric_space(rng, 6)
    mu = random_measure(rng, 6)
    calls = _search_calls(monkeypatch, lambda: transport_constant_estimate(
        PowerYoung(2, 2), space, mu, seed=3,
        budget=SearchBudget(starts=4, iterations=20), polish_iterations=3))
    objective, starts, project, budget, gradient = calls[0]
    assert gradient is not None
    starts += list(search.dirichlet_starts(rng, 6, 3))
    return [(objective, starts, project, budget, gradient)]


@pytest.mark.parametrize("capture", [_lockstep_scanner, _lockstep_mlsi_adjacency,
                                     _lockstep_tau, _lockstep_gradient,
                                     _lockstep_mlsi_global],
                         ids=["scanner", "mlsi_adjacency", "tau", "gradient",
                              "mlsi_global"])
def test_multistart_lockstep_matches_single_starts(capture, rng, monkeypatch):
    # lock-step batching must not change any start's path: the k-start run
    # equals the k one-start runs reduced in start order, bit for bit
    calls = capture(rng, monkeypatch)
    assert calls
    for fn, starts, project, budget, gradient in calls:
        assert len(starts) > 1
        best, x, evals = search.multistart_maximize(fn, starts, project, budget,
                                                    gradient)
        ref_best, ref_x, ref_evals = -np.inf, None, 0
        for start in starts:
            val, wit, ev = search.multistart_maximize(fn, [start], project,
                                                      budget, gradient)
            ref_evals += ev
            if wit is not None and val > ref_best:
                ref_best, ref_x = val, wit
        assert best == ref_best
        assert evals == ref_evals
        assert np.array_equal(x, ref_x)


def _large_pair_estimates(rng):
    # 96 points and 6 starts: one lock-step probe round holds 576 rows, so an
    # unblocked (rows, n, n) temporary would take 42 MB
    space = random_metric_space(rng, 96, min_sep=0.0)
    mu = random_measure(rng, 96)
    budget = SearchBudget(starts=6, iterations=1)
    return [lambda: mlsi_constant_estimate(PowerYoung(2, 2), space, mu, "+",
                                           seed=1, budget=budget),
            lambda: tau_lsi_constant_estimate(PowerYoung(2, 2), 0.01, space, mu,
                                              seed=1, budget=budget)]


def test_pair_kernels_bounded_memory(rng):
    # the global slope is a running maximum over the other points and the
    # inf-convolution a running minimum over the targets, both with (rows, n)
    # temporaries, and objective calls are split by row count, so a whole
    # lock-step round stays far below its unblocked (rows, n, n) size
    for estimate in _large_pair_estimates(rng):
        tracemalloc.start()
        try:
            estimate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20


@pytest.mark.parametrize("kind", ["mlsi_global", "tau"])
def test_pair_kernel_blocking_exact(kind, rng, monkeypatch):
    # three-row objective calls give the same estimate, bit for bit: the
    # global slope and the inf-convolution evaluate every row on its own
    space = random_metric_space(rng, 9)
    mu = random_measure(rng, 9)
    budget = SearchBudget(starts=5, iterations=30)
    sizes = []
    if kind == "tau":
        run = lambda: tau_lsi_constant_estimate(PowerYoung(2, 2), 0.01, space, mu,
                                                seed=2, budget=budget)
        tau_pieces = inequalities._tau_pieces

        def spy(mu_w, costs, fs):
            sizes.append(fs.shape[0])
            return tau_pieces(mu_w, costs, fs)

        name = "_tau_pieces"
    else:
        run = lambda: mlsi_constant_estimate(PowerYoung(2, 2), space, mu, "+",
                                             seed=2, budget=budget)
        slope_vector = inequalities.slope_vector

        def spy(space, fs, sign, adjacency):
            sizes.append(fs.shape[0])
            return slope_vector(space, fs, sign, adjacency)

        name = "slope_vector"
    ref = run()
    monkeypatch.setattr(search, "_CALL_BLOCK_BYTES", 3 * 9 * 8)
    monkeypatch.setattr(inequalities, name, spy)
    got = run()
    assert max(sizes) == 3  # the rows really reach the kernel three at a time
    assert got.value == ref.value
    assert got.n_candidates == ref.n_candidates
    assert np.array_equal(got.witness, ref.witness)


def test_multistart_call_rows_capped(monkeypatch):
    # a lock-step round on a large space is split so no objective call
    # exceeds the row cap, and the split changes nothing
    n, cap_rows = 64, 40
    monkeypatch.setattr(search, "_CALL_BLOCK_BYTES", cap_rows * n * 8)
    target = np.linspace(1.0, 2.0, n)
    target /= target.sum()
    sizes = []

    def objective(rows):
        sizes.append(rows.shape[0])
        return -((rows - target) ** 2).sum(axis=1)

    starts = list(search.dirichlet_starts(np.random.default_rng(5), n, 6))
    budget = SearchBudget(iterations=15)
    got = search.multistart_maximize(objective, starts, search.project_simplex_interior,
                                     budget)
    assert max(sizes) == cap_rows
    monkeypatch.setattr(search, "_CALL_BLOCK_BYTES", 1 << 40)
    ref = search.multistart_maximize(objective, starts, search.project_simplex_interior,
                                     budget)
    assert got[0] == ref[0] and got[2] == ref[2]
    assert np.array_equal(got[1], ref[1])


def _scan_fields(est):
    return (est.value, est.n_candidates, est.n_excluded, est.method,
            est.degenerate_witnesses, est.degenerate_entropy, est.notes)


@settings(max_examples=6)
@given(seed=st.integers(0, 2**16), lam=st.sampled_from([1e-3, 0.05, 1.0, 20.0]),
       pair=st.sampled_from([(2.0, 2.0), (3.0, 2.0), (2.0, 1.0)]))
def test_tau_zoom_merge_equals_concatenated_scan(seed, lam, pair):
    # the zoom scans only its own rows; merged with the coarse scan it must
    # give what one scan over the concatenated rows gave
    rng = np.random.default_rng(seed)
    space, mu = random_metric_space(rng, 3), random_measure(rng, 3)
    alpha = PowerYoung(*pair)
    est = tau_lsi_constant_estimate(alpha, lam, space, mu)
    costs = transport.cost_matrix(alpha, space, lam)
    coarse = inequalities._triple_potentials(0.1, -20.0, 20.0)
    first = inequalities._tau_best(mu.weights, costs, coarse).result("dense-scan-3pt")
    if first.witness is None:
        assert _scan_fields(est) == _scan_fields(first) and est.witness is None
        return
    zoomed = inequalities._triple_potentials(2e-3, center=first.witness[1:], width=0.12)
    want = inequalities._tau_best(mu.weights, costs, np.concatenate([coarse, zoomed]))
    want = want.result("dense-scan-3pt-zoom")
    assert _scan_fields(est) == _scan_fields(want)
    assert np.array_equal(est.witness, want.witness)


def test_tau_scan_merge_ties_keep_the_earlier_row(rng):
    # split points, exact ties between distinct rows and all-skipped halves:
    # the merge must pick the same row and counts as the scan of the whole.
    # Rows on a 1/8 lattice shifted by 2 gauge back to the same row exactly,
    # so their ratios tie bit for bit.
    space, mu = random_metric_space(rng, 3), random_measure(rng, 3)
    costs = transport.cost_matrix(PowerYoung(2, 2), space, 0.5)
    lattice = np.round(rng.uniform(-3.0, 3.0, (40, 2)) * 8) / 8
    rows = np.column_stack([np.zeros(40), lattice])
    flat = np.zeros((5, 3))  # zero defect and zero entropy: always skipped
    for fs in (np.concatenate([rows, rows + 2.0]), np.concatenate([flat, rows, flat])):
        whole = inequalities._tau_best(mu.weights, costs, fs).result("m")
        for cut in (1, 5, 20, 40, fs.shape[0] - 1):
            a = inequalities._tau_best(mu.weights, costs, fs[:cut])
            b = inequalities._tau_best(mu.weights, costs, fs[cut:])
            got = a.merge(b).result("m")
            assert _scan_fields(got) == _scan_fields(whole)
            assert got.witness is whole.witness or np.array_equal(got.witness,
                                                                  whole.witness)
    empty = inequalities._tau_best(mu.weights, costs, flat).result("m")
    assert empty.witness is None and empty.value == 0.0


def test_q_rows_running_minimum_matches_full_minimum(rng):
    alpha = PowerYoung(3, 2)
    for n in (2, 3, 5, 9):
        space = random_metric_space(rng, n)
        costs = transport.cost_matrix(alpha, space, 0.7)
        fs = rng.uniform(-5.0, 1.0, (257, n))
        want = np.min(fs[:, None, :] + costs[None, :, :], axis=2)
        assert np.array_equal(infconv._q_rows(costs, fs), want)
        # partial_q runs the same kernel along one axis of a product
        for order in (2, 3):
            h = rng.uniform(-5.0, 1.0, (n,) * order)
            for coord in range(order):
                moved = np.moveaxis(h, coord, -1)
                full = np.min(moved[..., None, :] + costs, axis=-1)
                assert np.array_equal(infconv.partial_q(alpha, 0.7, h, space, coord, order),
                                      np.moveaxis(full, -1, coord))


# the row-major kernels the point-major layout replaced, kept as the oracle:
# the new kernels must give their bits on every input layout


def _q_rows_row_major(costs, fs):
    out = fs[:, :1] + costs[:, 0]
    for j in range(1, fs.shape[1]):
        np.minimum(out, fs[:, j:j + 1] + costs[:, j], out=out)
    return out


def _tau_pieces_row_major(mu_w, costs, fs):
    fs = fs - fs.max(axis=1, keepdims=True)
    raw = mu_w[None, :] * np.exp(fs)
    mass = raw.sum(axis=1)
    ent = (raw * fs).sum(axis=1) - mass * np.log(mass)
    return ent, (raw * (fs - _q_rows_row_major(costs, fs))).sum(axis=1)


def _logsumexp_rows_row_major(a):
    m = a.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=1, keepdims=True)))[:, 0]


def _assert_kernels_match_row_major(mu_w, costs, fs, level):
    rows = np.ascontiguousarray(fs)
    q = infconv._q_rows(costs, fs)
    assert np.array_equal(q, _q_rows_row_major(costs, rows))
    for got, want in zip(inequalities._tau_pieces(mu_w, costs, fs),
                         _tau_pieces_row_major(mu_w, costs, rows)):
        assert np.array_equal(got, want)
    a = np.log(mu_w) + level * q
    assert np.array_equal(inequalities._logsumexp_rows(a),
                          _logsumexp_rows_row_major(np.ascontiguousarray(a)))


@settings(max_examples=40)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 21), rows=st.integers(1, 300),
       scale=st.sampled_from([0.1, 3.0, 40.0]))
def test_kernels_match_row_major_oracle_on_rows(seed, n, rows, scale):
    # the ascents' (rows, n) C-ordered calls, 8 points and more included,
    # where numpy sums a row pairwise
    rng = np.random.default_rng(seed)
    costs = rng.uniform(0.0, 5.0, (n, n))
    np.fill_diagonal(costs, 0.0)
    mu_w = rng.dirichlet(np.ones(n))
    fs = rng.uniform(-scale, scale, (rows, n))
    _assert_kernels_match_row_major(mu_w, costs, fs, float(rng.uniform(1e-3, 2.0)))


@settings(max_examples=12)
@given(seed=st.integers(0, 2**16), n=st.sampled_from([2, 3]),
       step=st.sampled_from([0.1, 0.25, 0.7]), zoom=st.booleans())
def test_kernels_match_row_major_oracle_on_grids(seed, n, step, zoom):
    rng = np.random.default_rng(seed)
    space, mu = random_metric_space(rng, n), random_measure(rng, n)
    costs = transport.cost_matrix(PowerYoung(3, 2), space, float(rng.uniform(0.01, 3.0)))
    if n == 2:
        fs = inequalities._pair_potentials(inequalities._potential_grid(-20.0, 0.0, step / 10))
    elif zoom:
        fs = inequalities._triple_potentials(step / 50, center=rng.uniform(-5.0, 5.0, 2),
                                             width=0.12)
    else:
        fs = inequalities._triple_potentials(step, -20.0, 20.0)
    _assert_kernels_match_row_major(mu.weights, costs, fs, float(rng.uniform(1e-3, 2.0)))


def test_dense_grids_are_point_major(rng):
    # one contiguous column per point: the grid builders and the kernels'
    # outputs keep that layout, so column passes stay contiguous
    grids = [inequalities._pair_potentials(np.linspace(-3.0, 0.0, 31)),
             inequalities._triple_potentials(0.5, -4.0, 4.0),
             inequalities._triple_potentials(0.01, center=(0.3, -0.2), width=0.12),
             inequalities._dual_scan(PowerYoung(2, 2), random_metric_space(rng, 3),
                                     random_measure(rng, 3))[0]]
    for fs in grids:
        assert fs.flags.f_contiguous and not fs.flags.c_contiguous
        n = fs.shape[1]
        costs = np.ones((n, n)) - np.eye(n)
        assert infconv._q_rows(costs, fs).flags.f_contiguous
        gauged, raw, _ = _gauge_entropy(np.full(n, 1.0 / n), fs)
        assert gauged.flags.f_contiguous and raw.flags.f_contiguous


@pytest.mark.parametrize("n", [2, 3])
def test_dual_check_matches_row_major_scan(n, rng):
    # the whole gap vector of the point-major scan equals the row-major
    # scan's, means from the row-major BLAS product included
    space, mu = random_metric_space(rng, n), random_measure(rng, n)
    alpha, level = PowerYoung(2, 2), 0.03
    fs, qs, means = inequalities._dual_scan(alpha, space, mu)
    rows = np.ascontiguousarray(fs)
    assert np.array_equal(means, rows @ mu.weights)
    want = _logsumexp_rows_row_major(
        np.log(mu.weights)[None, :]
        + level * _q_rows_row_major(transport.cost_matrix(alpha, space), rows))
    want -= level * (rows @ mu.weights)
    got = inequalities._dual_gaps((fs, qs, means), mu, level)
    assert np.array_equal(got, want)
    out = dual_check(alpha, space, mu, level)
    k = int(np.argmax(want))
    assert out["max_log_gap"] == want[k]
    assert np.array_equal(out["worst_potential"], rows[k])


def test_three_point_dual_check_memory(rng):
    # the gaps are taken a block of rows at a time, so the check no longer
    # holds four full (641,601 x 3) grids at once (78 MiB); the grid and its
    # inf-convolution are 14.7 MiB each
    space, mu = random_metric_space(rng, 3), random_measure(rng, 3)
    tracemalloc.start()
    try:
        dual_check(PowerYoung(2, 2), space, mu, 0.03)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 50 * 2**20


def test_dual_level_bisection_matches_dual_check_bisection(rng):
    # the bisection on one level-free scan gives the level that bisecting
    # with a full dual_check per level gave
    def by_dual_check(alpha, space, mu, rel_precision):
        lo, hi = 1e-10, 1.0
        while not dual_check(alpha, space, mu, hi)["violation"]:
            lo, hi = hi, hi * 2.0
            if hi > 1e8:
                return lo
        while hi / lo > 1.0 + rel_precision:
            mid = math.sqrt(lo * hi)
            if dual_check(alpha, space, mu, mid)["violation"]:
                hi = mid
            else:
                lo = mid
        return lo

    for n, alpha, precision in ((2, PowerYoung(2, 2), 1e-4), (2, PowerYoung(3, 2), 1e-4),
                                (3, PowerYoung(2, 2), 1e-2)):
        space, mu = random_metric_space(rng, n), random_measure(rng, n)
        assert (largest_passing_dual_level(alpha, space, mu, rel_precision=precision)
                == by_dual_check(alpha, space, mu, precision))


def test_scan_witnesses_own_their_data(rng):
    # a witness row is a copy: a view would keep its whole scan grid alive
    alpha = PowerYoung(2, 2)
    for n in (2, 3):
        space, mu = random_metric_space(rng, n), random_measure(rng, n)
        assert dual_check(alpha, space, mu, 1e-3)["worst_potential"].base is None
        ests = [tau_lsi_constant_estimate(alpha, 0.3, space, mu),
                transport_constant_estimate(alpha, space, mu)]
        if n == 2:
            ests.append(mlsi_constant_estimate(alpha, space, mu))
        for est in ests:
            assert est.witness is not None and est.witness.base is None
