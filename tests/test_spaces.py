import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqlab.spaces import (
    FiniteMetricSpace,
    ProbMeasure,
    ProductSpace,
    cycle_space,
    exp_entropy,
    grid1d_space,
    grid_adjacency,
    measure_from_dict,
    path_space,
    relative_entropy,
    slope,
    slope_vector,
    space_from_dict,
    two_point_space,
)


class TestValidation:
    def test_valid_two_point(self):
        assert two_point_space(1.0).validate() == []

    def test_triangle_violation(self):
        d = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
        space = FiniteMetricSpace(["a", "b", "c"], d)
        assert any("triangle" in p for p in space.validate())

    def test_asymmetry(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        assert any("asymmetric" in p for p in FiniteMetricSpace(["a", "b"], d).validate())

    def test_duplicate_points(self):
        d = np.zeros((2, 2))
        assert any("duplicate" in p for p in FiniteMetricSpace(["a", "b"], d).validate())

    def test_generators(self):
        assert path_space(5, 0.5).validate() == []
        assert cycle_space(7, 1.0).validate() == []
        g = grid1d_space(11, 0.1, start=-0.5)
        assert g.validate() == []
        assert g.coords[0] == pytest.approx(-0.5)

    def test_from_dict(self):
        space = space_from_dict({"generator": {"kind": "grid1d", "count": 5,
                                               "spacing": 0.25}})
        assert space.size == 5
        mu = measure_from_dict({"density": "exp(-x**2/2)"}, space)
        assert mu.weights.sum() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            measure_from_dict({"weights": [0.5, 0.2, 0.1, 0.05, 0.05]}, space)

    def test_density_grammar(self):
        space = grid1d_space(7, 0.5, start=-1.5)
        x = space.coords
        mu = measure_from_dict({"density": "np.exp(-abs(x)**1.5) + 0.1*cos(pi*x)"},
                               space)
        raw = np.exp(-np.abs(x) ** 1.5) + 0.1 * np.cos(np.pi * x)
        assert np.array_equal(mu.weights, raw / raw.sum())
        for text in ("1+0*x+0*(().__class__.__base__.__subclasses__().__len__())",
                     "__import__('os')", "np.linalg.norm(x)", "exp(x, x)",
                     "x[0]", "'x'", "exp(-x", "9**9**9**9", "1+x*9**9**9",
                     "2.0**5000", "1/0+x"):
            with pytest.raises(ValueError):
                measure_from_dict({"density": text}, space)


class TestMeasures:
    def test_normalization_guard(self):
        with pytest.raises(ValueError):
            ProbMeasure(np.array([0.5, 0.4]))

    def test_dirac_detection(self):
        assert ProbMeasure.dirac(3, 1).is_dirac()
        assert not ProbMeasure.uniform(3).is_dirac()


class TestRelativeEntropy:
    def test_identical(self):
        mu = ProbMeasure.uniform(4)
        assert relative_entropy(mu, mu) == 0.0

    def test_dirac_against_uniform(self):
        assert relative_entropy(ProbMeasure.dirac(2, 0), ProbMeasure.uniform(2)) == \
            pytest.approx(math.log(2))

    def test_mutually_singular(self):
        assert relative_entropy(ProbMeasure.dirac(2, 0),
                                ProbMeasure.dirac(2, 1)) == math.inf

    def test_different_spaces(self):
        with pytest.raises(ValueError):
            relative_entropy(ProbMeasure.uniform(2), ProbMeasure.uniform(3))

    def test_nonnegative_random(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            nu = ProbMeasure(rng.dirichlet(np.ones(n)))
            mu = ProbMeasure(rng.dirichlet(np.ones(n)))
            h = relative_entropy(nu, mu)
            assert h >= 0.0
            if np.allclose(nu.weights, mu.weights):
                assert h == pytest.approx(0.0, abs=1e-12)

    def test_zero_iff_equal(self, rng):
        mu = ProbMeasure(rng.dirichlet(np.ones(4)))
        nu = ProbMeasure(rng.dirichlet(np.ones(4)))
        if not np.allclose(nu.weights, mu.weights):
            assert relative_entropy(nu, mu) > 0.0


class TestExpEntropy:
    def test_constant_potential(self):
        mu = ProbMeasure.uniform(3)
        assert exp_entropy(mu, np.full(3, 2.5)) == pytest.approx(0.0, abs=1e-14)

    def test_two_point_example(self):
        mu = ProbMeasure.uniform(2)
        f = np.array([math.log(2.0), 0.0])
        # e^f = (2, 1), mean 3/2: direct scalar computation
        expected = 0.5 * (2 * math.log(2 / 1.5) + math.log(1 / 1.5))
        assert exp_entropy(mu, f) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.08495, abs=5e-6)

    @settings(max_examples=50, deadline=None)
    @given(c=st.floats(-5, 5), seed=st.integers(0, 10**6))
    def test_shift_homogeneity(self, c, seed):
        r = np.random.default_rng(seed)
        mu = ProbMeasure(r.dirichlet(np.ones(4)))
        f = r.normal(size=4)
        assert exp_entropy(mu, f + c) == pytest.approx(
            math.exp(c) * exp_entropy(mu, f), rel=1e-9, abs=1e-12)

    def test_product_weights(self, rng):
        # a weight array and a potential of the same shape, as on products
        w = np.multiply.outer(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(4)))
        f = rng.normal(size=(3, 4))
        assert exp_entropy(w, f) == pytest.approx(
            exp_entropy(ProbMeasure(w.ravel()), f.ravel()), rel=1e-12)
        with pytest.raises(ValueError):
            exp_entropy(w, f.T)

    def test_jensen_nonnegative(self, rng):
        for _ in range(200):
            mu = ProbMeasure(rng.dirichlet(np.ones(5)))
            f = rng.normal(scale=3.0, size=5)
            assert exp_entropy(mu, f) >= -1e-12


class TestSlope:
    def test_constant_is_flat(self):
        space = path_space(4)
        assert slope(space, np.zeros(4), 2, "+") == 0.0

    def test_two_point_example(self):
        space = two_point_space(2.0)
        f = np.array([0.0, 3.0])
        assert slope(space, f, 0, "+") == pytest.approx(1.5)
        assert slope(space, f, 0, "-") == 0.0
        assert slope(space, f, 1, "-") == pytest.approx(1.5)

    def test_signs_swap_under_negation(self, rng):
        space = path_space(6, 0.7)
        for _ in range(25):
            f = rng.normal(size=6)
            np.testing.assert_allclose(slope_vector(space, -f, "+"),
                                       slope_vector(space, f, "-"))

    def test_homogeneous_and_shift_invariant(self, rng):
        space = cycle_space(5)
        f = rng.normal(size=5)
        np.testing.assert_allclose(slope_vector(space, 3.0 * f, "+"),
                                   3.0 * slope_vector(space, f, "+"))
        np.testing.assert_allclose(slope_vector(space, f + 11.0, "+"),
                                   slope_vector(space, f, "+"))

    def test_neighbor_mode(self):
        space = path_space(5, 1.0)
        adj = grid_adjacency(5)
        f = np.array([0.0, 1.0, 0.0, 2.0, 0.0])
        assert slope(space, f, 0, "+", adj) == pytest.approx(1.0)
        # global mode compares every difference quotient, not just neighbors
        assert slope(space, f, 0, "+") == pytest.approx(
            max(1.0 / 1.0, 0.0, 2.0 / 3.0, 0.0))

    def test_isolated_point_flagged_as_zero(self):
        space = path_space(3)
        adj = [np.array([], dtype=int)] * 3
        assert slope(space, np.array([1.0, 5.0, -2.0]), 1, "+", adj) == 0.0


class TestProduct:
    def test_counts(self):
        space = two_point_space(1.0)
        assert ProductSpace(space, 2).size == 4

    def test_weights_example(self):
        space = two_point_space(1.0)
        mu = ProbMeasure(np.array([0.3, 0.7]))
        w = ProductSpace(space, 2).product_weights(mu)
        np.testing.assert_allclose(w, [[0.09, 0.21], [0.21, 0.49]])

    def test_marginals_recover_base(self, rng):
        space = path_space(3)
        mu = ProbMeasure(rng.dirichlet(np.ones(3)))
        w = ProductSpace(space, 3).product_weights(mu)
        np.testing.assert_allclose(w.sum(axis=(1, 2)), mu.weights)
        np.testing.assert_allclose(w.sum(axis=(0, 2)), mu.weights)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            ProductSpace(path_space(101), 3)


def _slope_loop(space, f, sign, adjacency):
    """Oracle: one difference quotient and maximum per point."""
    fs = np.asarray(f, dtype=float).reshape(-1, space.size)
    out = np.zeros(fs.shape)
    for i, js in enumerate(adjacency):
        if len(js):
            diff = fs[:, js] - fs[:, i:i + 1]
            rect = np.maximum(diff, 0.0) if sign == "+" else np.maximum(-diff, 0.0)
            out[:, i] = (rect / space.dist[i, js]).max(axis=1)
    return out.reshape(np.shape(f))


def _slope_pairwise(space, f, sign):
    """Oracle for the global slope: the (rows, at, toward) quotient tensor
    with an infinite diagonal, maximized over the targets."""
    fs = np.asarray(f, dtype=float).reshape(-1, space.size)
    d = space.dist.copy()
    np.fill_diagonal(d, np.inf)
    diff = fs[:, None, :] - fs[:, :, None]
    rect = np.maximum(diff, 0.0) if sign == "+" else np.maximum(-diff, 0.0)
    return (rect / d).max(axis=2).reshape(np.shape(f))


def _plane_space(rng, n):
    pts = rng.uniform(0.0, 3.0, (n, 2))
    return FiniteMetricSpace([str(i) for i in range(n)],
                             np.linalg.norm(pts[:, None] - pts[None, :], axis=2))


@settings(max_examples=30)
@given(seed=st.integers(0, 2**16), n=st.integers(2, 9), m=st.integers(1, 12),
       sign=st.sampled_from("+-"))
def test_adjacency_slope_gather_matches_loop(seed, n, m, sign):
    rng = np.random.default_rng(seed)
    space = _plane_space(rng, n)
    # ragged lists, some empty, some with repeats
    adjacency = [rng.choice([j for j in range(n) if j != i],
                            size=int(rng.integers(0, n)), replace=True)
                 for i in range(n)]
    for f in (rng.normal(size=n), rng.normal(size=(7, n)), rng.normal(size=(2, 3, n))):
        got = slope_vector(space, f, sign, adjacency)
        assert np.array_equal(got, _slope_loop(space, f, sign, adjacency))
    grid = grid1d_space(21, 0.05)
    f = rng.normal(size=(5, 21))
    assert np.array_equal(slope_vector(grid, f, sign, grid_adjacency(21)),
                          _slope_loop(grid, f, sign, grid_adjacency(21)))
    # global slope: every other point is a neighbour
    space = _plane_space(rng, m)
    for f in (rng.normal(size=m), rng.normal(size=(7, m)), rng.normal(size=(2, 3, m))):
        assert np.array_equal(slope_vector(space, f, sign), _slope_pairwise(space, f, sign))
