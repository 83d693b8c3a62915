import itertools
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import README_GRID, random_measure, random_metric_space, traced_peak
from ineqlab.inequalities import (
    EstimateResult,
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
    FiniteMetricSpace,
    ProbMeasure,
    ProductSpace,
    _entropy_vec,
    _gauge_entropy,
    _neighbours,
    cycle_space,
    exp_entropy,
    grid1d_space,
    grid_adjacency,
    measure_from_dict,
    path_space,
    relative_entropy,
    space_from_dict,
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


def _rank_all_lp_scan(alpha, space, mu, floor, starts):
    """The exhaustive scan the pruned one replaces: one LP per start above
    the floor (-inf below it), then a stable descending sort, so ties go to
    the earliest start."""
    ranked = []
    for k, s in enumerate(starts):
        nu = np.asarray(s, dtype=float)
        h = float(_entropy_vec(nu[None, :], mu.weights)[0])
        val = (inequalities.optimal_cost(alpha, space, ProbMeasure(nu), mu)[0] / h
               if h >= floor else -np.inf)
        ranked.append((val, k))
    ranked.sort(key=lambda kv: kv[0], reverse=True)
    return ranked[0]


def _tilts_then(extras):
    """``_tilt_starts`` followed by ``extras``: the extras join the
    structured starts, ahead of the Dirichlet ones."""
    tilts = inequalities._tilt_starts

    def starts(space, mu_w):
        yield from tilts(space, mu_w)
        yield from extras
    return starts


LP_COSTS = (PowerYoung(2, 2), PowerYoung(2, 1), PowerYoung(3, 2))


def _oracle_tilt_starts(space, mu_w):
    """Every exponential tilt of mu along coordinates / distance functions,
    copies included: the start set before copies were dropped, kept as the
    oracle."""
    fields = []
    if space.coords is not None:
        fields.append(space.coords - space.coords.mean())
    fields.append(space.dist[0])
    fields.append(space.dist[space.size // 2])
    for g in fields:
        scale = max(float(np.max(np.abs(g))), 1e-12)
        for t in (-2.0, -1.0, -0.5, -0.2, -0.1, 0.1, 0.2, 0.5, 1.0, 2.0):
            w = mu_w * np.exp(t * g / scale)
            yield w / w.sum()


def _is_copy(earlier, row):
    # within 1e-12 of the earlier tilt's largest weight, in max norm
    return np.max(np.abs(row - earlier)) <= 1e-12 * np.max(earlier)


def _tilt_space(rng, n, kind):
    spacing = float(rng.uniform(0.2, 1.5))
    if kind == "planar":
        return random_metric_space(rng, n)
    if kind == "path":
        return path_space(n, spacing, float(rng.uniform(-3.0, 3.0)))
    if kind == "cycle":
        return cycle_space(2 * (n // 2), spacing)
    return grid1d_space(n, spacing)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(4, 15), kind=st.sampled_from(["planar", "grid1d", "path", "cycle"]),
       seed=st.integers(0, 2**32 - 1))
def test_tilt_starts_drop_only_copies(n, kind, seed):
    # the kept tilts are the oracle's rows, bit for bit and in order, minus
    # each row within the tolerance of an earlier one; what is dropped is a
    # rounding-level copy and what is kept lies far outside the tolerance
    rng = np.random.default_rng(seed)
    space = _tilt_space(rng, n, kind)
    mu_w = random_measure(rng, space.size).weights
    oracle = list(_oracle_tilt_starts(space, mu_w))
    copies = [j for j, row in enumerate(oracle)
              if any(_is_copy(oracle[i], row) for i in range(j))]
    kept = list(inequalities._tilt_starts(space, mu_w))
    want = [row for j, row in enumerate(oracle) if j not in copies]
    assert len(kept) == len(want)
    assert all(np.array_equal(k, w) for k, w in zip(kept, want))
    for i, j in itertools.combinations(range(len(kept)), 2):
        assert np.max(np.abs(kept[i] - kept[j])) > 1e-6 * np.max(kept[i])
    for j in copies:
        assert min(np.max(np.abs(oracle[j] - oracle[i])) for i in range(j)) <= 1e-14
    if kind in ("grid1d", "path"):
        # dist[0] is the centred coordinate plus a constant: its tilts at
        # t = +-2, +-1 and +-0.2 are coordinate tilts at t / 2
        assert (len(oracle), len(kept)) == (30, 24)
    elif kind == "planar":
        assert (len(oracle), len(kept)) == (20, 20)
    else:
        # dist[n / 2] mirrors dist[0] on an even cycle
        assert (len(oracle), len(kept)) == (30, 20)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(n=st.integers(6, 15), kind=st.sampled_from(["grid1d", "path", "cycle"]),
       cost=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_distinct_tilts_keep_the_rank_all_estimate(n, kind, cost, seed):
    # dropping copies changes the LP estimate by what the LP makes of a
    # rounding-level difference at most: on a line it stays within 1e-13 of
    # ranking every start of the oracle's full list, and the pruned scan
    # solves no more LPs than it did over the full list
    rng = np.random.default_rng(seed)
    space = _tilt_space(rng, n, kind)
    mu = random_measure(rng, space.size)
    alpha = LP_COSTS[cost]
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return optimal_cost(*args, **kwargs)

    def run():
        del calls[:]
        est = transport_constant_estimate(alpha, space, mu, seed=seed,
                                          budget=SearchBudget(starts=2))
        return est, len(calls)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(inequalities, "optimal_cost", counting)
        got, got_calls = run()
        m.setattr(inequalities, "_tilt_starts", _oracle_tilt_starts)
        _, full_calls = run()
        m.setattr(inequalities, "_pruned_lp_scan", _rank_all_lp_scan)
        ref, _ = run()
    # every kept row is the oracle's bit for bit, so the full list only adds
    assert got.value <= ref.value
    if kind == "cycle":
        # a cycle's copies are mirror tilts, which HiGHS may price apart by
        # up to its certified tolerance
        h = float(_entropy_vec(ref.witness[None, :], mu.weights)[0])
        assert got.value >= ref.value - 2.0 * transport._DUAL_GAP_TOL / h
    else:
        assert got.value == pytest.approx(ref.value, rel=1e-13, abs=0.0)
    assert got_calls <= full_calls
    assert ref.n_candidates - got.n_candidates == (6 if kind != "cycle" else 10)
    assert np.max(np.abs(got.witness - ref.witness)) <= 1e-14


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
    extra_starts = []
    if extras:
        # near-copies of the tilts put near-ties at the top of the ranking
        tilts = np.array(list(inequalities._tilt_starts(space, mu.weights)))
        noisy = tilts * (1.0 + rng.uniform(-1e-14, 1e-14, tilts.shape))
        extra_starts = list(noisy / noisy.sum(axis=1, keepdims=True))
        extra_starts += list(rng.dirichlet(np.full(n, 0.5), 3))

    def run():
        return transport_constant_estimate(alpha, space, mu, seed=seed,
                                           budget=SearchBudget(starts=6))

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return optimal_cost(*args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(inequalities, "optimal_cost", counting)
        m.setattr(inequalities, "_tilt_starts", _tilts_then(extra_starts))
        got = run()
        pruned_calls = len(calls)
        m.setattr(inequalities, "_pruned_lp_scan", _rank_all_lp_scan)
        ref = run()
    # the rank-all scan solves every start above the floor
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
    extra_starts = list(noisy / noisy.sum(axis=1, keepdims=True))

    def loose_lp(alpha, space, nu, mu):
        excess = zlib.crc32(nu.weights.tobytes()) / 2**32 * 1.9e-9
        return transport.northwest_corner_cost(alpha, space, nu, mu) + excess, None

    def run():
        return transport_constant_estimate(alpha, space, mu, seed=seed,
                                           budget=SearchBudget(starts=2))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(inequalities, "optimal_cost", loose_lp)
        m.setattr(inequalities, "_tilt_starts", _tilts_then(extra_starts))
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


def _lp_starts(space, mu, seed=0):
    """The structured starts (tilts, then seeded Dirichlet points) under the
    default budget."""
    starts = list(inequalities._tilt_starts(space, mu.weights))
    starts.extend(search.dirichlet_starts(np.random.default_rng(seed), space.size,
                                          SearchBudget().starts))
    return starts


def test_lp_scan_without_candidate_above_floor():
    # no structured start of the uniform 6-point measure reaches entropy 5:
    # no witness, and every start is counted as excluded
    space, mu = grid1d_space(6, 0.5), ProbMeasure.uniform(6)
    est = transport_constant_estimate(PowerYoung(2, 2), space, mu, entropy_floor=5.0)
    assert (est.value, est.witness, est.n_candidates, est.n_excluded) == (0.0, None, 74, 74)
    assert est.notes == ("no candidate above the entropy floor", "74 starts")


def test_lp_scan_counts_starts_below_floor():
    # a floor between the starts' entropies: the excluded count is the
    # number of starts below it, and the witness is one of the others
    space, mu = grid1d_space(6, 0.5), ProbMeasure.uniform(6)
    floor = 0.05
    ents = [relative_entropy(ProbMeasure(s), mu) for s in _lp_starts(space, mu)]
    below = sum(h < floor for h in ents)
    assert 0 < below < len(ents)
    est = transport_constant_estimate(PowerYoung(2, 2), space, mu, entropy_floor=floor)
    assert (est.n_candidates, est.n_excluded) == (len(ents), below)
    assert est.value > 0.0
    assert relative_entropy(ProbMeasure(est.witness), mu) >= floor
    assert est.notes == (f"{len(ents)} starts",)


def test_ascent_counts_starts_below_floor():
    # four points take the scanner ascent, not the LP scan, and count the
    # structured starts below the floor the same way
    space, mu = grid1d_space(4, 0.5), ProbMeasure.uniform(4)
    floor = 0.05
    starts = _lp_starts(space, mu)
    below = sum(relative_entropy(ProbMeasure(s), mu) < floor for s in starts)
    assert 0 < below < len(starts)
    est = transport_constant_estimate(PowerYoung(2, 2), space, mu, entropy_floor=floor,
                                      budget=SearchBudget(iterations=5))
    assert est.method == "multistart-ascent-scan"
    assert est.n_excluded == below


@pytest.mark.parametrize("kind", ["grid1d", "planar"])
def test_lp_scan_on_partly_supported_measure(kind, rng):
    # a 9-point mu with two zero-mass points is estimated on its 7-point
    # support: the same value as on the restricted space, its witness on
    # the whole space, and no LP ever sees a 9-point measure
    space = grid1d_space(9, 0.4) if kind == "grid1d" else random_metric_space(rng, 9)
    w = random_measure(rng, 9).weights.copy()
    w[[2, 6]] = 0.0
    mu = ProbMeasure(w / w.sum())
    idx = mu.support()
    assert idx.size == 7
    sub = FiniteMetricSpace(tuple(space.labels[i] for i in idx),
                            space.dist[np.ix_(idx, idx)],
                            None if space.coords is None else space.coords[idx])
    sub_mu = ProbMeasure(mu.weights[idx] / mu.weights[idx].sum())
    sizes = []

    def recording(alpha, space, nu, mu):
        sizes.append((space.size, nu.size, mu.size))
        return optimal_cost(alpha, space, nu, mu)

    budget = SearchBudget(starts=4)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(inequalities, "optimal_cost", recording)
        got = transport_constant_estimate(PowerYoung(2, 2), space, mu, seed=1,
                                          budget=budget)
        ref = transport_constant_estimate(PowerYoung(2, 2), sub, sub_mu, seed=1,
                                          budget=budget)
    assert got.method == ref.method == "structured-scan-lp"
    assert got.value == ref.value > 0.0
    assert got.witness.shape == (9,)
    assert np.array_equal(got.witness[idx], ref.witness)
    assert np.all(got.witness[[2, 6]] == 0.0)
    assert got.n_candidates == ref.n_candidates
    assert sizes and set(sizes) == {(7, 7, 7)}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(3, 5), zeros=st.integers(1, 2),
       pair=st.sampled_from([(2.0, 2.0), (3.0, 2.0), (2.0, 1.5)]),
       seed=st.integers(0, 2**32 - 1))
def test_witness_lives_on_the_whole_space(n, zeros, pair, seed):
    # with zero-mass points the estimate is solved on the support, and its
    # witness is a source on the whole space that the LP prices at value
    rng = np.random.default_rng(seed)
    space = random_metric_space(rng, n)
    w = random_measure(rng, n).weights.copy()
    w[rng.choice(n, zeros, replace=False)] = 0.0
    mu = ProbMeasure(w / w.sum())
    alpha = PowerYoung(*pair)
    est = transport_constant_estimate(alpha, space, mu, seed=seed % 1000,
                                      budget=SearchBudget(starts=4, iterations=30))
    assert est.witness.shape == (n,)
    assert np.all(est.witness[w == 0.0] == 0.0)
    nu = ProbMeasure(est.witness)
    cost, _ = optimal_cost(alpha, space, nu, mu)
    assert cost / relative_entropy(nu, mu) == pytest.approx(est.value, rel=2e-9)


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


def _tensor_dual_loop(alpha, space, mu, *, tau, a, b, c_norm, n=2, count=64,
                      seed=0, gap_tol=inequalities.DUAL_GAP_TOL):
    """The one-potential-at-a-time battery the array pass replaces: one
    ``p_conv`` and one log-sum-exp per drawn potential."""
    rng = np.random.default_rng(seed)
    prod = ProductSpace(space, n)
    weights = prod.product_weights(mu)
    worst, worst_f = -math.inf, None
    for _ in range(count):
        f = rng.uniform(0.0, rng.uniform(0.5, 6.0), prod.shape)
        pf, _ = infconv.p_conv(alpha, f, space, n)
        log_lhs = inequalities._logsumexp_rows(
            (np.log(weights) + tau * pf).reshape(1, -1))[0]
        rhs = (math.log(a) + b * float((weights * pf).sum())
               + tau * c_norm * float(np.abs(f).max()))
        gap = log_lhs - rhs
        if gap > worst:
            worst, worst_f = gap, f
    return {
        "tau": tau, "a": a, "b": b, "c": c_norm, "order": n,
        "max_log_gap": float(worst),
        "violation": bool(worst > gap_tol),
        "implied_transport_constant": 1.0 / (tau * (1.0 - c_norm)),
        "n_candidates": count,
        "gap_tol": gap_tol,
        "worst_potential_max": (float(np.abs(worst_f).max())
                                if worst_f is not None else None),
    }


@settings(max_examples=40)
@given(size=st.integers(2, 3), n=st.integers(1, 3), count=st.sampled_from([0, 1, 64]),
       cost=st.sampled_from([(2.0, 2.0), (3.0, 2.0), (2.0, 1.5)]),
       tau=st.floats(1e-3, 5.0), b=st.floats(0.0, 2.0), c_norm=st.floats(0.0, 0.95),
       seed=st.integers(0, 2**32 - 1))
def test_tensor_dual_matches_per_potential_loop(size, n, count, cost, tau, b, c_norm,
                                                seed):
    rng = np.random.default_rng(seed)
    space, mu = random_metric_space(rng, size), random_measure(rng, size)
    kwargs = dict(tau=tau, a=float(rng.uniform(0.5, 2.0)), b=b, c_norm=c_norm,
                  n=n, count=count, seed=seed % 1000)
    got = tensor_dual_check(PowerYoung(*cost), space, mu, **kwargs)
    assert got == _tensor_dual_loop(PowerYoung(*cost), space, mu, **kwargs)
    if count == 0:
        assert (got["max_log_gap"], got["worst_potential_max"]) == (-math.inf, None)


@pytest.mark.parametrize("weights", [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5, 0.0),
                                     (0.0, 0.3, 0.7), (0.0, 0.0, 1.0)],
                         ids=["dirac-2pt", "dirac-2pt-last", "partial-3pt",
                              "partial-3pt-first", "dirac-3pt"])
def test_dual_checks_on_zero_mass_points(weights, rng):
    # a zero-mass point adds e^-inf = 0 to the moment integral, with no
    # divide-by-zero warning (warnings are errors here), while Q still
    # takes its minimum over the whole space
    n = len(weights)
    space, mu = random_metric_space(rng, n), ProbMeasure(np.array(weights))
    alpha, level = PowerYoung(2, 2), 0.7
    out = dual_check(alpha, space, mu, level)
    f = out["worst_potential"]
    qf = infconv._q_rows(transport.cost_matrix(alpha, space), f[None, :])[0]
    on = mu.weights > 0
    want = (np.logaddexp.reduce(np.log(mu.weights[on]) + level * qf[on])
            - level * float(f[on] @ mu.weights[on]))
    assert out["max_log_gap"] == pytest.approx(want, rel=1e-12, abs=1e-15)
    # a Dirac mu passes at every level, since Qf <= f at its atom
    found = largest_passing_dual_level(alpha, space, mu, rel_precision=1e-2)
    assert found == math.inf if mu.is_dirac() else 0.0 < found < math.inf
    kwargs = dict(tau=level, a=1.0, b=level, c_norm=0.0, count=8, seed=1)
    with np.errstate(divide="ignore"):
        want = _tensor_dual_loop(alpha, space, mu, **kwargs)
    assert tensor_dual_check(alpha, space, mu, **kwargs) == want


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

    def test_oversized_product_rejected_before_allocation(self, no_large_zeros):
        # order 2 on the README grid: 40401 product points, whose pair
        # matrix would take 13.1 GB
        space = space_from_dict(README_GRID)
        mu = measure_from_dict(README_GRID["measure"], space)
        with pytest.raises(ValueError, match="40401 product points"):
            concentration_check(space, mu, 2.0, 300.0, 2)


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

    def spy(objective, starts, project, budget):
        calls.append((objective, list(starts), project, budget))
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


@pytest.mark.parametrize("capture", [_lockstep_scanner, _lockstep_mlsi_adjacency,
                                     _lockstep_tau, _lockstep_mlsi_global],
                         ids=["scanner", "mlsi_adjacency", "tau", "mlsi_global"])
def test_multistart_lockstep_matches_single_starts(capture, rng, monkeypatch):
    # lock-step batching must not change any start's path: the k-start run
    # equals the k one-start runs reduced in start order, bit for bit
    calls = capture(rng, monkeypatch)
    assert calls
    for fn, starts, project, budget in calls:
        assert len(starts) > 1
        best, x, evals = search.multistart_maximize(fn, starts, project, budget)
        ref_best, ref_x, ref_evals = -np.inf, None, 0
        for start in starts:
            val, wit, ev = search.multistart_maximize(fn, [start], project, budget)
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
        assert traced_peak(estimate) < 12 * 2 ** 20


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


# the full-grid builders and scans the streamed scans replaced, kept as the
# oracle: every streamed scan must give their values, witnesses and counts
# bit for bit


def _pair_potentials(ys):
    """Rows (0, y) for every y, then (y, 0), as one point-major grid."""
    z = np.zeros_like(ys)
    return np.stack([np.concatenate([z, ys]), np.concatenate([ys, z])]).T


def _triple_rows(a, b):
    """Rows (0, a, b) over a, then b, as one point-major grid."""
    aa, bb = np.meshgrid(a, b, indexing="ij")
    return np.stack([np.zeros(aa.size), aa.ravel(), bb.ravel()]).T


def _triple_potentials(step, lo=-20.0, hi=20.0, center=None, width=None):
    if center is None:
        a = b = np.arange(lo, hi + 0.5 * step, step)
    else:
        a = np.arange(center[0] - width, center[0] + width + 0.5 * step, step)
        b = np.arange(center[1] - width, center[1] + width + 0.5 * step, step)
    return _triple_rows(a, b)


def _full_dual_scan(alpha, space, mu):
    costs = transport.cost_matrix(alpha, space)
    if space.size == 2:
        ys = inequalities._potential_grid(-20.0, 20.0, 1e-3)
        kinks = costs[0, 1] * np.array([-1.0 - 1e-9, -1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-9])
        fs = _pair_potentials(np.concatenate([ys, kinks]))
    else:
        fs = _triple_potentials(0.05)
    block = 1 << 12
    qs, means = np.empty_like(fs), np.empty(fs.shape[0])
    for lo in range(0, fs.shape[0], block):
        means[lo:lo + block] = np.ascontiguousarray(fs[lo:lo + block]) @ mu.weights
        qs[lo:lo + block] = infconv._q_rows(costs, fs[lo:lo + block])
    return fs, qs, means


def _full_dual_gaps(scan, mu, level):
    _, qs, means = scan
    with np.errstate(divide="ignore"):
        log_mu = np.log(mu.weights)
    gaps, block = np.empty(qs.shape[0]), 1 << 12
    for lo in range(0, qs.shape[0], block):
        a = level * qs[lo:lo + block]
        a += log_mu
        gaps[lo:lo + block] = (inequalities._logsumexp_rows(a)
                               - level * means[lo:lo + block])
    return gaps


def _full_dual_check(alpha, space, mu, level):
    """(largest gap, its row, rows scanned) of the full-grid dual scan."""
    scan = _full_dual_scan(alpha, space, mu)
    gaps = _full_dual_gaps(scan, mu, level)
    k = int(np.argmax(gaps))
    return float(gaps[k]), scan[0][k], scan[0].shape[0]


def _full_dual_level(alpha, space, mu, rel_precision):
    scan = _full_dual_scan(alpha, space, mu)
    violates = lambda level: _full_dual_gaps(scan, mu, level).max() > search.DUAL_GAP_TOL
    lo, hi = 1e-10, 1.0
    while not violates(hi):
        lo, hi = hi, hi * 2.0
        if hi > 1e8:
            return lo
    while hi / lo > 1.0 + rel_precision:
        mid = math.sqrt(lo * hi)
        lo, hi = (lo, mid) if violates(mid) else (mid, hi)
    return lo


def _full_tau(alpha, lam, space, mu):
    costs = transport.cost_matrix(alpha, space, lam)
    if space.size == 2:
        fs = _pair_potentials(inequalities._potential_grid(-20.0, 0.0, 1e-3))
        return inequalities._tau_best(mu.weights, costs, fs).result("dense-scan-2pt")
    coarse = inequalities._tau_best(mu.weights, costs, _triple_potentials(0.1))
    if coarse.ratio == -np.inf:
        return coarse.result("dense-scan-3pt")
    zoomed = _triple_potentials(2e-3, center=coarse.row[1:], width=0.12)
    return coarse.merge(inequalities._tau_best(mu.weights, costs, zoomed)).result(
        "dense-scan-3pt-zoom")


def _full_mlsi(alpha, space, mu):
    fs = _pair_potentials(inequalities._potential_grid(-20.0, 0.0, 1e-3))
    gauged, raw, ent = _gauge_entropy(mu.weights, fs)
    conj = np.asarray(alpha.conjugate(inequalities.slope_vector(space, gauged, "+", None)),
                      dtype=float)
    with np.errstate(invalid="ignore"):
        terms = raw * conj
    den = np.where((raw > 0) & ~np.isfinite(conj), np.inf,
                   np.where(raw == 0, 0.0, terms)).sum(axis=1)
    scan = inequalities._best_ratio(ent, den, (den >= search.DENOM_FLOOR)
                                    & np.isfinite(den), fs)
    return scan.result("dense-scan-2pt-surrogate",
                       () if scan.ratio == -np.inf else ("slope surrogate",))


def _simplex_grid(step):
    a = np.arange(step, 1.0, step)
    w0, w1 = np.meshgrid(a, a, indexing="ij")
    mask = w0 + w1 < 1.0 - 1e-9
    w0, w1 = w0[mask], w1[mask]
    return np.column_stack([w0, w1, 1.0 - w0 - w1])


def _full_transport(alpha, space, mu, floor=ENTROPY_FLOOR):
    shell = search.pair_swap_shell(mu.weights, floor)
    cands = shell if space.size == 2 else np.concatenate([_simplex_grid(2e-3), shell])
    costs = transport.BasisScanner(alpha, space, mu).costs(cands)
    ents = _entropy_vec(cands, mu.weights)
    scan = inequalities._best_ratio(costs, ents, ents >= floor, cands)
    if scan.ratio == -np.inf:
        notes = ("no candidate above the entropy floor",)
    elif scan.den <= floor * 16.0:
        notes = ("supremum attained near the entropy floor: the unfloored "
                 "supremum diverges",)
    else:
        notes = ()
    return scan.result(f"dense-scan-{space.size}pt", notes)


def _full_violation_ratio_tau(alpha, space, mu, scales, abs_tol):
    if space.size == 2:
        fs = _pair_potentials(inequalities._potential_grid(-20.0, 0.0, 1e-3))
    else:
        fs = _triple_potentials(0.05)
    gauged, raw, ent = _gauge_entropy(mu.weights, fs)
    found = []
    for lam, amax in scales:
        defect = inequalities._defect(transport.cost_matrix(alpha, space, lam), gauged, raw)
        ratios = ent / (amax * defect + abs_tol)
        k = int(np.argmax(ratios))
        found.append((float(ratios[k]), fs[k]))
    return found, fs.shape[0]


def _same_witness(a, b):
    return a is None and b is None or np.array_equal(a, b)


_ORACLE_CASES = pytest.mark.parametrize(
    "n,tied", [(2, False), (2, True), (3, False), (3, True)],
    ids=["2pt", "2pt-tied", "3pt", "3pt-tied"])


def _oracle_space(n, tied, seed):
    """A random space and measure, or the tied one: all distances 1 and
    uniform mu, where many rows have equal value and the first must win."""
    if tied:
        return (FiniteMetricSpace(tuple("abc"[:n]), np.ones((n, n)) - np.eye(n)),
                ProbMeasure.uniform(n))
    rng = np.random.default_rng(seed)
    return random_metric_space(rng, n), random_measure(rng, n)


@_ORACLE_CASES
@settings(max_examples=3)
@given(seed=st.integers(0, 2**16),
       pair=st.sampled_from([(2.0, 2.0), (3.0, 2.0), (2.0, 1.5)]),
       level=st.floats(1e-3, 5.0), lam=st.floats(1e-3, 20.0),
       frac=st.floats(0.05, 0.95))
def test_streamed_scans_match_full_grid_oracle(n, tied, seed, pair, level, lam, frac):
    # every dense scan, folded a block at a time, gives the full-grid scan's
    # values, witnesses and counts bit for bit
    space, mu = _oracle_space(n, tied, seed)
    alpha = PowerYoung(*pair)
    out = dual_check(alpha, space, mu, level)
    gap, row, rows = _full_dual_check(alpha, space, mu, level)
    assert (out["max_log_gap"], out["n_candidates"]) == (gap, rows)
    assert np.array_equal(out["worst_potential"], row)
    pairs = [(tau_lsi_constant_estimate(alpha, lam, space, mu),
              _full_tau(alpha, lam, space, mu)),
             (transport_constant_estimate(alpha, space, mu),
              _full_transport(alpha, space, mu))]
    if n == 2:
        pairs.append((mlsi_constant_estimate(alpha, space, mu), _full_mlsi(alpha, space, mu)))
    for got, want in pairs:
        assert _scan_fields(got) == _scan_fields(want)
        assert _same_witness(got.witness, want.witness)
    # the transport-to-tau chain's scales, from the scan constant and at lam
    cstar = pairs[1][1].value
    scales = [(lam, 1.0 / (1.0 - frac)), (frac / cstar, (1.0 + 1e-6) / (1.0 - frac))]
    got, got_rows = inequalities._violation_ratio_tau(alpha, space, mu, scales, 1e-6)
    want, want_rows = _full_violation_ratio_tau(alpha, space, mu, scales, 1e-6)
    assert got_rows == want_rows
    assert [r for r, _ in got] == [r for r, _ in want]
    assert all(np.array_equal(g, w) for (_, g), (_, w) in zip(got, want))


@_ORACLE_CASES
def test_streamed_dual_level_matches_full_grid_oracle(n, tied):
    # the bisection runs a scan per level, so one space and cost per case
    space, mu = _oracle_space(n, tied, seed=20241019)
    precision = 1e-4 if n == 2 else 1e-2
    for alpha in [PowerYoung(3.0, 2.0)] if n == 3 else [PowerYoung(2.0, 2.0),
                                                        PowerYoung(2.0, 1.5)]:
        assert (largest_passing_dual_level(alpha, space, mu, rel_precision=precision)
                == _full_dual_level(alpha, space, mu, precision))


# the ascents each estimator built for itself before one floored ratio and
# one ascent served them all, kept as the oracle: the shared ascent and the
# LP scan's result must give their values, witnesses and counts bit for bit


def _transport_ascent(alpha, space, mu, floor, starts, budget):
    """Multistart ascent of cost / entropy, pricing only the rows above the
    floor."""
    mu_w = mu.weights
    scanner = transport.BasisScanner(alpha, space, mu)

    def objective(nus):
        ents = _entropy_vec(nus, mu_w)
        vals = np.full(nus.shape[0], -np.inf)
        ok = ents >= floor
        if np.any(ok):
            vals[ok] = scanner.costs(nus[ok]) / ents[ok]
        return vals

    return search.multistart_maximize(objective, starts,
                                      search.project_simplex_interior, budget)


def _oracle_transport(alpha, space, mu, floor, budget, seed):
    """The four-point and above paths of ``transport_constant_estimate``."""
    n, mu_w = space.size, mu.weights
    starts = list(inequalities._tilt_starts(space, mu_w))
    starts.extend(search.dirichlet_starts(np.random.default_rng(seed), n,
                                          budget.starts))
    below = int(np.count_nonzero(_entropy_vec(np.stack(starts), mu_w) < floor))
    if n > 5:
        best, k = inequalities._pruned_lp_scan(alpha, space, mu, floor, starts)
        witness, notes = np.asarray(starts[k]), (f"{len(starts)} starts",)
        if best == -np.inf:
            witness, notes = None, ("no candidate above the entropy floor", *notes)
        return EstimateResult(max(best, 0.0), witness, len(starts), below,
                              "structured-scan-lp", notes=notes)
    starts.extend(search.pair_swap_shell(mu_w, floor))
    best, witness, evals = _transport_ascent(alpha, space, mu, floor, starts, budget)
    return EstimateResult(max(best, 0.0), witness, evals, below,
                          "multistart-ascent-scan", notes=(f"{len(starts)} starts",))


def _tau_ascent(mu_w, costs, n, budget, seed):
    rng = np.random.default_rng(seed)

    def objective(fs):
        ent, defect = _tau_pieces(mu_w, costs, fs)
        return np.where(defect >= search.DENOM_FLOOR,
                        ent / np.maximum(defect, search.DENOM_FLOOR), -np.inf)

    starts = [rng.uniform(-3.0, 0.0, n) for _ in range(budget.starts)]
    best, witness, evals = search.multistart_maximize(objective, starts,
                                                      inequalities._gauge_clip, budget)
    return EstimateResult(max(best, 0.0), witness, evals, 0, "multistart-ascent")


def _mlsi_ascent(alpha, space, mu, sign, adjacency, budget, seed):
    """The ascent path (three points and above) of ``mlsi_constant_estimate``."""
    mu_w = mu.weights
    adjacency = _neighbours(space, adjacency)

    def pieces(fs):
        fs, raw, ent = _gauge_entropy(mu_w, fs)
        conj = np.asarray(alpha.conjugate(inequalities.slope_vector(
            space, fs, sign, adjacency)), dtype=float)
        with np.errstate(invalid="ignore"):
            terms = raw * conj
        terms = np.where((raw > 0) & ~np.isfinite(conj), np.inf,
                         np.where(raw == 0, 0.0, terms))
        return ent, terms.sum(axis=1)

    def objective(fs):
        ent, den = pieces(fs)
        good = (den >= search.DENOM_FLOOR) & np.isfinite(den)
        return np.where(good, ent / np.maximum(den, search.DENOM_FLOOR), -np.inf)

    rng = np.random.default_rng(seed)
    starts = [rng.uniform(-2.0, 0.0, space.size) for _ in range(budget.starts)]
    starts.extend(inequalities._smooth_starts(space))
    best, witness, evals = search.multistart_maximize(objective, starts,
                                                      inequalities._gauge_clip, budget)
    return EstimateResult(max(best, 0.0), witness, evals, 0,
                          "multistart-ascent-surrogate", notes=("slope surrogate",))


def _ascent_space(rng, n, kind):
    if kind == "tied":
        return (FiniteMetricSpace(tuple("abcdefghi"[:n]), np.ones((n, n)) - np.eye(n)),
                ProbMeasure.uniform(n))
    if kind == "grid1d":
        return grid1d_space(n, float(rng.uniform(0.2, 1.5))), random_measure(rng, n)
    return random_metric_space(rng, n), random_measure(rng, n)


@pytest.mark.parametrize("case", ["T", "T-tied", "tau", "mlsi", "lp"])
@settings(max_examples=8)
@given(seed=st.integers(0, 2**16), data=st.data(),
       pair=st.sampled_from([(2.0, 2.0), (3.0, 2.0), (2.0, 1.5)]),
       budget=st.sampled_from([SearchBudget(starts=4, iterations=40),
                               SearchBudget(starts=6, iterations=15)]))
def test_shared_ascent_matches_per_estimator_oracle(case, seed, data, pair, budget):
    # one floored ratio and one ascent give each estimator's own ascent, and
    # the LP scan's result, field for field
    rng = np.random.default_rng(seed)
    alpha = PowerYoung(*pair)
    if case in ("T", "T-tied", "lp"):
        # a five-point table takes seconds to build, so the ascent runs on four
        n = 4 if case != "lp" else data.draw(st.integers(6, 7))
        space, mu = _ascent_space(rng, n, "tied" if case == "T-tied" else
                                  data.draw(st.sampled_from(["planar", "grid1d"])))
        floor = data.draw(st.sampled_from([4e-6, 0.05]))
        got = transport_constant_estimate(alpha, space, mu, entropy_floor=floor,
                                          budget=budget, seed=seed)
        want = _oracle_transport(alpha, space, mu, floor, budget, seed)
    elif case == "tau":
        space, mu = _ascent_space(rng, data.draw(st.integers(4, 6)), "planar")
        lam = data.draw(st.sampled_from([0.01, 0.3, 2.0]))
        got = tau_lsi_constant_estimate(alpha, lam, space, mu, budget=budget, seed=seed)
        want = _tau_ascent(mu.weights, transport.cost_matrix(alpha, space, lam),
                           space.size, budget, seed)
    else:
        n = data.draw(st.integers(3, 9))
        space, mu = _ascent_space(rng, n, data.draw(st.sampled_from(["planar",
                                                                      "grid1d"])))
        sign = data.draw(st.sampled_from(["+", "-"]))
        adjacency = grid_adjacency(n) if data.draw(st.booleans()) else None
        got = mlsi_constant_estimate(alpha, space, mu, sign, adjacency,
                                     budget=budget, seed=seed)
        want = _mlsi_ascent(alpha, space, mu, sign, adjacency, budget, seed)
    assert _scan_fields(got) == _scan_fields(want)
    assert _same_witness(got.witness, want.witness)


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
    coarse = _triple_potentials(0.1, -20.0, 20.0)
    first = inequalities._tau_best(mu.weights, costs, coarse).result("dense-scan-3pt")
    if first.witness is None:
        assert _scan_fields(est) == _scan_fields(first) and est.witness is None
        return
    zoomed = _triple_potentials(2e-3, center=first.witness[1:], width=0.12)
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
        fs = _pair_potentials(inequalities._potential_grid(-20.0, 0.0, step / 10))
    elif zoom:
        fs = _triple_potentials(step / 50, center=rng.uniform(-5.0, 5.0, 2), width=0.12)
    else:
        fs = _triple_potentials(step, -20.0, 20.0)
    _assert_kernels_match_row_major(mu.weights, costs, fs, float(rng.uniform(1e-3, 2.0)))


def test_dense_grids_are_point_major(rng):
    # one contiguous column per point: the streamed blocks and the kernels'
    # outputs keep that layout, so column passes stay contiguous
    grids = [next(inequalities._potential_blocks(np.linspace(-3.0, 0.0, 31))),
             next(inequalities._potential_blocks(np.linspace(-4.0, 4.0, 17),
                                                 np.linspace(-1.0, 1.0, 9))),
             next(inequalities._dual_scan(PowerYoung(2, 2), random_metric_space(rng, 3),
                                          random_measure(rng, 3)))[0]]
    for fs in grids:
        assert fs.flags.f_contiguous and not fs.flags.c_contiguous
        n = fs.shape[1]
        costs = np.ones((n, n)) - np.eye(n)
        assert infconv._q_rows(costs, fs).flags.f_contiguous
        gauged, raw, _ = _gauge_entropy(np.full(n, 1.0 / n), fs)
        assert gauged.flags.f_contiguous and raw.flags.f_contiguous


@pytest.mark.parametrize("axes", [(np.linspace(-3.0, 0.0, 31),),
                                  (inequalities._potential_grid(-20.0, 20.0, 1e-3),),
                                  (np.linspace(-4.0, 4.0, 17), np.linspace(-1.0, 1.0, 9)),
                                  (inequalities._potential_grid(-20.0, 20.0, 0.05),) * 2],
                         ids=["pair", "pair-dual", "triple", "triple-dual"])
def test_potential_blocks_are_the_full_grid(axes):
    # the blocks hold the builders' rows in order, bit for bit, and start at
    # multiples of the block size, where the blocked BLAS means start
    blocks = list(inequalities._potential_blocks(*axes))
    want = (_pair_potentials(*axes) if len(axes) == 1
            else _triple_rows(*axes))
    assert np.array_equal(np.concatenate(blocks), want)
    sizes = [fs.shape[0] for fs in blocks]
    assert all(size == inequalities._MEAN_BLOCK_ROWS for size in sizes[:-1])
    assert 0 < sizes[-1] <= inequalities._MEAN_BLOCK_ROWS


@pytest.mark.parametrize("n", [2, 3])
def test_dual_check_matches_row_major_scan(n, rng):
    # the whole gap vector of the streamed point-major scan equals the
    # row-major scan's, means from the row-major BLAS product included
    space, mu = random_metric_space(rng, n), random_measure(rng, n)
    alpha, level = PowerYoung(2, 2), 0.03
    log_mu = np.log(mu.weights)
    blocks = list(inequalities._dual_scan(alpha, space, mu))
    rows = np.ascontiguousarray(np.concatenate([fs for fs, _, _ in blocks]))
    assert np.array_equal(np.concatenate([m for _, _, m in blocks]), rows @ mu.weights)
    want = _logsumexp_rows_row_major(
        log_mu[None, :]
        + level * _q_rows_row_major(transport.cost_matrix(alpha, space), rows))
    want -= level * (rows @ mu.weights)
    got = np.concatenate([inequalities._dual_gaps(qs, means, log_mu, level)
                          for _, qs, means in blocks])
    assert np.array_equal(got, want)
    out = dual_check(alpha, space, mu, level)
    k = int(np.argmax(want))
    assert out["max_log_gap"] == want[k]
    assert np.array_equal(out["worst_potential"], rows[k])


def test_three_point_dual_check_memory(rng):
    # the grid is streamed a block of rows at a time and folded into the
    # running largest gap, so no full (641,601 x 3) grid, inf-convolution
    # or gap vector is ever held: the full-grid scan peaked at 39.4 MiB
    space, mu = random_metric_space(rng, 3), random_measure(rng, 3)
    assert traced_peak(lambda: dual_check(PowerYoung(2, 2), space, mu, 0.03)) <= 4 * 2**20


@pytest.mark.parametrize("scan", ["tau", "chain", "transport"])
def test_three_point_scan_memory(scan, rng):
    # the tau scan, the transport-to-tau chain's violation scan and the
    # transport scan's simplex grid are streamed too; their full grids
    # peaked at 19.6, 88.1 and 14.3 MiB
    space, mu = random_metric_space(rng, 3), random_measure(rng, 3)
    alpha = PowerYoung(2, 2)
    run = {"tau": lambda: tau_lsi_constant_estimate(alpha, 0.3, space, mu),
           "chain": lambda: verify_chain(alpha, space, mu, "transport-to-tau-lsi"),
           "transport": lambda: transport_constant_estimate(alpha, space, mu)}[scan]
    assert traced_peak(run) <= 4 * 2**20


def test_dual_level_memory(rng):
    # the bisection keeps the level-free inf-convolutions and means of the
    # 641,601 rows (14.7 and 4.9 MiB), not the potentials (full grid: 39.4 MiB)
    space, mu = random_metric_space(rng, 3), random_measure(rng, 3)
    peak = traced_peak(lambda: largest_passing_dual_level(PowerYoung(2, 2), space, mu,
                                                          rel_precision=1e-2))
    assert peak <= 22 * 2**20


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
