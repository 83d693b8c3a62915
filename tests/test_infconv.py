import numpy as np
import pytest

from conftest import random_metric_space
from ineqlab import cli, infconv
from ineqlab.infconv import (
    argmax_ball_report,
    gradient_diagnostic,
    lemma_bounds,
    lipschitz_seminorm,
    p_conv,
    partial_q,
    q_conv,
    tensor_defect_report,
)
from ineqlab.spaces import grid1d_space, two_point_space
from ineqlab.transport import cost_matrix
from ineqlab.young import PowerYoung

COSTS = [PowerYoung(2, 2), PowerYoung(2, 1), PowerYoung(3, 2)]


class TestBasics:
    def test_zero_scale_floors_everything(self, rng):
        space = random_metric_space(rng, 4)
        f = rng.normal(size=4)
        vals, _ = q_conv(PowerYoung(2, 2), 0.0, f, space)
        np.testing.assert_allclose(vals, f.min())

    def test_zero_potential_fixed(self, rng):
        space = random_metric_space(rng, 4)
        vals, wit = q_conv(PowerYoung(2, 2), 1.0, np.zeros(4), space)
        np.testing.assert_allclose(vals, 0.0)
        assert wit.max_deviation(vals) == 0.0

    def test_two_point_enumeration(self):
        space = two_point_space(1.0)
        f = np.array([0.0, 5.0])
        vals, _ = q_conv(PowerYoung(2, 2), 1.0, f, space)
        np.testing.assert_allclose(vals, [0.0, 1.0])
        pv, _ = p_conv(PowerYoung(2, 2), f, space)
        np.testing.assert_allclose(pv, [4.0, 5.0])

    def test_duality_identity_exact(self, rng):
        space = random_metric_space(rng, 5)
        for a in COSTS:
            f = rng.normal(scale=2.0, size=5)
            pv, _ = p_conv(a, f, space)
            qv, _ = q_conv(a, 1.0, -f, space)
            assert np.array_equal(pv, -qv)

    def test_witness_achieves_value(self, rng):
        for n in (1, 2, 3):
            space = random_metric_space(rng, 3)
            f = rng.normal(size=(3,) * n)
            for a in COSTS:
                vals, wit = q_conv(a, 0.8, f, space, n)
                assert wit.max_deviation(vals) <= 1e-12


class TestAlgebra:
    def test_contraction_and_expansion(self, rng):
        space = random_metric_space(rng, 4)
        for _ in range(50):
            f = rng.normal(scale=3.0, size=4)
            q, _ = q_conv(PowerYoung(3, 2), 1.3, f, space)
            p, _ = p_conv(PowerYoung(3, 2), f, space)
            assert np.all(q <= f + 1e-15)
            assert np.all(p >= f - 1e-15)

    def test_galois_bounds(self, rng):
        for n in (1, 2):
            space = random_metric_space(rng, 3)
            a = PowerYoung(2, 2)
            for _ in range(100):
                g = rng.normal(scale=2.0, size=(3,) * n)
                qg, _ = q_conv(a, 1.0, g, space, n)
                pq, _ = p_conv(a, qg, space, n)
                assert np.all(pq <= g + 1e-12)
                pg, _ = p_conv(a, g, space, n)
                qp, _ = q_conv(a, 1.0, pg, space, n)
                assert np.all(qp >= g - 1e-12)

    def test_monotonicity(self, rng):
        space = random_metric_space(rng, 4)
        f = rng.normal(size=4)
        g = f + rng.uniform(0.0, 2.0, size=4)
        qf, _ = q_conv(PowerYoung(2, 2), 1.0, f, space)
        qg, _ = q_conv(PowerYoung(2, 2), 1.0, g, space)
        assert np.all(qf <= qg + 1e-15)
        pf, _ = p_conv(PowerYoung(2, 2), f, space)
        pg, _ = p_conv(PowerYoung(2, 2), g, space)
        assert np.all(pf <= pg + 1e-15)

    def test_constant_shift(self, rng):
        space = random_metric_space(rng, 4)
        f = rng.normal(size=4)
        base, _ = q_conv(PowerYoung(3, 2), 1.0, f, space)
        shifted, _ = q_conv(PowerYoung(3, 2), 1.0, f + 5.5, space)
        np.testing.assert_allclose(shifted, base + 5.5, atol=1e-12)

    def test_scale_monotonicity(self, rng):
        space = random_metric_space(rng, 4)
        f = rng.normal(size=4)
        q1, _ = q_conv(PowerYoung(2, 2), 0.5, f, space)
        q2, _ = q_conv(PowerYoung(2, 2), 1.5, f, space)
        assert np.all(q1 <= q2 + 1e-15)

    def test_composed_partials_bound_joint(self, rng):
        # iterated one-coordinate operators never exceed the joint one
        # (they agree exactly here; only <= is asserted)
        space = random_metric_space(rng, 3)
        a = PowerYoung(3, 2)
        for _ in range(20):
            h = rng.normal(size=(3, 3))
            joint, _ = q_conv(a, 0.9, h, space, 2)
            composed = partial_q(a, 0.9, partial_q(a, 0.9, h, space, 1, 2),
                                 space, 0, 2)
            assert np.all(composed <= joint + 1e-12)

    def test_partial_reduces_to_full_at_order_one(self, rng):
        space = random_metric_space(rng, 4)
        f = rng.normal(size=4)
        full, _ = q_conv(PowerYoung(2, 2), 1.0, f, space, 1)
        part = partial_q(PowerYoung(2, 2), 1.0, f, space, 0, 1)
        np.testing.assert_allclose(part, full)

    def test_partial_ignores_inactive_coordinate(self, rng):
        space = random_metric_space(rng, 3)
        row = rng.normal(size=3)
        h = np.broadcast_to(row[:, None], (3, 3)).copy()  # independent of axis 1
        out = partial_q(PowerYoung(2, 2), 1.0, h, space, 1, 2)
        np.testing.assert_allclose(out, h)


def _broadcast_q_conv(alpha, lam, f, space, n):
    """Oracle: each axis minimized over the whole (..., x_k, y_k) broadcast,
    size**(n+1) sums, with np.argmin's first minimizer."""
    cost = cost_matrix(alpha, space, lam)
    g = f
    argmins = [None] * n
    for axis in reversed(range(n)):
        moved = np.moveaxis(g, axis, -1)
        total = moved[..., None, :] + cost
        idx = np.argmin(total, axis=-1)
        val = np.take_along_axis(total, idx[..., None], axis=-1)[..., 0]
        g = np.moveaxis(val, -1, axis)
        argmins[axis] = np.moveaxis(idx, -1, axis)
    grid = list(np.indices(g.shape))
    ys = []
    for k in range(n):
        ys.append(argmins[k][tuple(ys[:k] + grid[k:])])
    achieved = f[tuple(ys)].astype(float)
    for k in range(n):
        achieved = achieved + cost[grid[k], ys[k]]
    return g, np.stack(ys, axis=-1), achieved


def test_row_kernel_matches_broadcast_oracle(rng):
    # integer potentials on unit-spaced paths, and lambda = 0, make ties
    # common: the witness must still be the first minimizer
    for case in range(300):
        size, n = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        space = (grid1d_space(size, 1.0) if case % 2
                 else random_metric_space(rng, size))
        alpha = COSTS[case % len(COSTS)]
        lam = 0.0 if case % 5 == 0 else float(rng.uniform(0.1, 2.0))
        f = (rng.integers(-3, 4, (size,) * n).astype(float) if case % 3
             else rng.normal(size=(size,) * n))
        vals, wit = q_conv(alpha, lam, f, space, n)
        want, idx, achieved = _broadcast_q_conv(alpha, lam, f, space, n)
        assert np.array_equal(vals, want)
        assert np.array_equal(wit.indices, idx)
        assert np.array_equal(wit.achieved, achieved)


class TestPointwiseBounds:
    def test_constant_potential_trivial(self, rng):
        space = random_metric_space(rng, 3)
        rep = tensor_defect_report(PowerYoung(2, 2), np.zeros((3, 3)), 0.5,
                                   space, 2)
        assert rep.holds
        np.testing.assert_allclose(rep.lhs, 0.0, atol=1e-15)

    def test_defect_bound_random(self, rng):
        for trial in range(60):
            n = 1 + trial % 2
            space = random_metric_space(rng, int(rng.integers(2, 5)))
            f = rng.normal(scale=2.0, size=(space.size,) * n)
            t = float(rng.choice([0.25, 0.5, 0.75]))
            a = COSTS[trial % 3]
            rep = tensor_defect_report(a, f, t, space, n)
            assert rep.holds, (trial, rep.worst_margin)

    def test_ball_bound_random(self, rng):
        for trial in range(30):
            n = 1 + trial % 2
            space = random_metric_space(rng, int(rng.integers(2, 5)))
            f = rng.normal(scale=1.5, size=(space.size,) * n)
            rep = argmax_ball_report(2.0 + (trial % 2), f, space, n, omega=1.0)
            assert rep.holds, (trial, rep.worst_margin)

    def test_ball_bound_grid_geodesic(self):
        space = grid1d_space(101, 0.01)
        f = 0.5 * space.coords  # exactly (0.5, p)-Lipschitz on the line
        rep = argmax_ball_report(2.0, f, space, 1, omega=2.0, rel_slack=0.05)
        assert rep.holds
        assert lipschitz_seminorm(f, space, 2.0) == pytest.approx(0.5)

    def test_gradient_diagnostic_reports(self, rng):
        space = random_metric_space(rng, 3)
        f = rng.normal(size=3)
        rep = gradient_diagnostic(PowerYoung(2, 2), f, 0.5, space, 1)
        assert "diagnostic" in rep.name
        assert rep.lhs.shape == (3,)

    def test_bundle(self, rng):
        space = random_metric_space(rng, 3)
        f = rng.normal(size=(3, 3))
        out = lemma_bounds(PowerYoung(2, 2), f, 0.4, space, 2)
        assert list(out) == ["tensor_defect", "argmax_ball", "slope_diagnostic"]
        assert out["tensor_defect"].holds
        assert out["argmax_ball"].holds


def test_oversized_product_refused_before_any_convolution(tmp_path, monkeypatch,
                                                          capsys):
    # the seminorm guard runs before the sup-convolution and the partial
    # inf-convolutions, and the command line checks the size before it
    # draws f of size^n
    calls = []

    def spy(name):
        real = getattr(infconv, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    for name in ("p_conv", "partial_q"):
        monkeypatch.setattr(infconv, name, spy(name))
    space = grid1d_space(17, 0.1)
    with pytest.raises(ValueError, match="4913 product points"):
        lemma_bounds(PowerYoung(2, 2), np.zeros((17,) * 3), 0.4, space, 3)
    assert calls == []

    def never(*args, **kwargs):
        raise AssertionError("lemma_bounds ran on an oversized product")

    monkeypatch.setattr(cli, "lemma_bounds", never)
    path = tmp_path / "path.json"
    path.write_text('{"generator": {"kind": "path", "count": 9}}')
    assert cli.main(["lemma-bounds", "--alpha", "power:2,2", "--seed", "1",
                     "--order", "4", "--space-file", str(path),
                     "--output-dir", str(tmp_path)]) == 1
    assert "6561 product points" in capsys.readouterr().err
    assert calls == []
