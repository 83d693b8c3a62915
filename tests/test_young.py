import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqlab.constants import _herbst_integral, minus_route_constant, t_threshold
from ineqlab.infconv import gradient_diagnostic
from ineqlab.spaces import FiniteMetricSpace, two_point_space
from ineqlab.young import (
    Delta2ViolationError,
    PowerYoung,
    ScaledYoung,
    TabulatedYoung,
    UnboundedConjugateError,
    change_metric,
    conjugate_numeric,
    epsilon_value,
    power_extended,
    validate_young,
    xi_numeric,
    xi_upper_bound,
)

PAIRS = [(2.0, 2.0), (2.0, 1.5), (3.0, 2.0), (2.0, 3.0)]


class TestEvaluation:
    def test_zero(self):
        assert PowerYoung(2, 2)(0.0) == 0.0

    def test_outer_branch(self):
        # (p1/p2)|x|^{p2} + 1 - p1/p2 at p1=2, p2=1, x=2
        assert PowerYoung(2, 1)(2.0) == pytest.approx(3.0, abs=0)

    def test_inner_branch(self):
        assert PowerYoung(3, 2)(0.5) == pytest.approx(0.125, abs=0)

    def test_even_and_continuous_at_one(self):
        for p1, p2 in PAIRS:
            a = PowerYoung(p1, p2)
            xs = np.linspace(-3, 3, 301)
            np.testing.assert_allclose(a(xs), a(-xs))
            assert a(1.0 - 1e-12) == pytest.approx(a(1.0 + 1e-12), abs=1e-10)
            # matching slopes at the regime boundary
            assert a.left_derivative(1.0) == pytest.approx(a.right_derivative(1.0))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            PowerYoung(1.5, 2.0)
        with pytest.raises(ValueError):
            PowerYoung(2.0, 0.5)

    def test_young_axioms_sampled(self):
        for p1, p2 in PAIRS + [(2.0, 1.0)]:
            assert validate_young(PowerYoung(p1, p2)) == []


class TestConjugate:
    def test_quadratic(self):
        assert PowerYoung(2, 2).conjugate(2.0) == pytest.approx(1.0, rel=1e-12)

    def test_self_conjugate_scaled_quadratic(self):
        half = ScaledYoung(PowerYoung(2, 2), 0.5)  # x^2/2
        assert half.conjugate(3.0) == pytest.approx(4.5, rel=1e-12)

    def test_grid_supremum_oracle(self):
        # dense grid over x in [0, 10], step 1e-5, is the independent oracle
        a = PowerYoung(3, 2)
        y = 0.7
        xs = np.arange(0.0, 10.0, 1e-5)
        oracle = float(np.max(xs * y - a(xs)))
        assert a.conjugate(y) == pytest.approx(oracle, rel=1e-6)
        assert conjugate_numeric(a, y) == pytest.approx(oracle, rel=1e-6)

    def test_numeric_matches_closed_form(self):
        for p1, p2 in PAIRS:
            a = PowerYoung(p1, p2)
            for y in (0.1, 0.7, 1.0, 2.5, 7.0):
                assert conjugate_numeric(a, y) == pytest.approx(
                    a.conjugate(y), rel=1e-8)

    def test_bounded_slope_conjugate_is_infinite(self):
        a = PowerYoung(2, 1)  # slope bounded by 2
        assert a.conjugate(1.9) == pytest.approx(1.9**2 / 4)
        assert a.conjugate(2.5) == math.inf

    def test_numeric_unbounded_signal(self):
        table = TabulatedYoung([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])  # slope <= 2
        with pytest.raises(UnboundedConjugateError):
            conjugate_numeric(table, 5.0)

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(0.0, 8.0), y=st.floats(0.0, 8.0),
           pair=st.sampled_from(PAIRS))
    def test_young_inequality(self, x, y, pair):
        a = PowerYoung(*pair)
        assert x * y <= a(x) + a.conjugate(y) + 1e-9

    def test_young_equality_at_derivative(self):
        for p1, p2 in PAIRS:
            a = PowerYoung(p1, p2)
            for x in (0.3, 1.0, 2.7):
                y = a.right_derivative(x)
                assert x * y == pytest.approx(a(x) + a.conjugate(y), abs=1e-8)

    def test_biconjugation(self):
        for p1, p2 in PAIRS:
            a = PowerYoung(p1, p2)

            def second_conjugate(x):
                ys = np.arange(0.0, 60.0, 1e-3)
                vals = x * ys - np.asarray(a.conjugate(ys))
                return float(np.max(vals))

            for x in (0.2, 0.9, 1.7, 4.0):
                assert second_conjugate(x) == pytest.approx(a(x), rel=1e-6)


class TestExponents:
    @pytest.mark.parametrize("p1,p2,r,p", [(2, 2, 2, 2), (2, 1, 1, 2),
                                           (3, 2, 2, 3), (2, 3, 2, 3),
                                           (2, 1.5, 1.5, 2)])
    def test_power_closed_form(self, p1, p2, r, p):
        pair = PowerYoung(p1, p2).exponents()
        assert pair.r_exp == pytest.approx(r, abs=1e-9)
        assert pair.p_exp == pytest.approx(p, abs=1e-9)

    def test_doubling_constant_pure_power(self):
        for p in (2.0, 2.5, 3.0):
            assert PowerYoung(p, p).exponents().delta2 == pytest.approx(2.0**p)

    def test_tabulated_quadratic(self):
        # geometric abscissae resolve the origin, where chord slopes of a
        # uniformly-spaced table would understate the growth ratio
        xs = np.concatenate([[0.0], np.geomspace(1e-4, 50, 8000)])
        pair = TabulatedYoung(xs, xs**2).exponents()
        assert pair.r_exp == pytest.approx(2.0, abs=5e-3)
        assert pair.p_exp == pytest.approx(2.0, abs=5e-3)
        assert pair.delta2 == pytest.approx(4.0, rel=5e-3)

    def test_doubling_violation_detected(self):
        class Exploding(PowerYoung):
            # alpha(2x)/alpha(x) grows without bound
            def __init__(self):
                pass

            def __call__(self, x):
                ax = np.abs(np.asarray(x, dtype=float))
                out = np.expm1(np.minimum(ax, 500.0) ** 2)
                return out if out.ndim else float(out)

            def right_derivative(self, x):
                ax = np.abs(np.asarray(x, dtype=float))
                out = 2 * ax * np.exp(np.minimum(ax, 500.0) ** 2)
                return out if out.ndim else float(out)

            left_derivative = right_derivative

            def exponents(self):
                from ineqlab.young import _exponents_numeric
                return _exponents_numeric(self)

        with pytest.raises(Delta2ViolationError):
            Exploding().exponents()


class TestXi:
    def test_quadratic_identity(self):
        assert PowerYoung(2, 2).xi(0.25) == pytest.approx(0.25)

    def test_value_at_one(self):
        assert PowerYoung(3, 2).xi(1.0) == pytest.approx(2.0)

    def test_flat_then_steep_branch(self):
        assert PowerYoung(2, 3).xi(4.0) == pytest.approx(4.0)

    def test_numeric_agreement(self):
        xs = np.geomspace(0.01, 10.0, 40)
        for p1, p2 in PAIRS:
            a = PowerYoung(p1, p2)
            for x in xs:
                closed = a.xi(float(x))
                numeric = xi_numeric(a, float(x))
                assert numeric == pytest.approx(closed, rel=1e-5)

    def test_bounded_slope_blows_up_past_one(self):
        a = PowerYoung(2, 1)
        assert a.xi(0.5) == pytest.approx(0.5)
        assert a.xi(1.0) == pytest.approx(1.0)
        assert math.isinf(a.xi(1.0001))
        assert math.isinf(xi_numeric(a, 2.0))

    def test_numeric_handles_bounded_slope_table(self):
        # quadratic-then-linear table: conjugates diverge past the top slope
        xs = np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 300),
                             np.linspace(1.01, 6.0, 200)])
        vals = np.where(xs <= 1.0, xs**2, 2.0 * xs - 1.0)
        t = TabulatedYoung(xs, vals)
        assert math.isinf(xi_numeric(t, 3.0))
        # agreement is limited by the table's chord resolution (~2%)
        assert xi_numeric(t, 0.5) == pytest.approx(0.5, rel=5e-2)

    def test_upper_bound_with_convention(self):
        xs = np.geomspace(0.01, 10.0, 1000)
        for p1, p2 in PAIRS + [(2.0, 1.0)]:
            a = PowerYoung(p1, p2)
            pair = a.exponents()
            for x in xs:
                bound = xi_upper_bound(pair, float(x))
                val = a.xi(float(x))
                if math.isinf(bound):
                    continue
                assert val <= bound * (1 + 1e-12)

    @settings(max_examples=20)
    @given(p1=st.floats(2.0, 5.0), a_premise=st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
           c=st.floats(0.1, 10.0))
    def test_bounded_slope_minus_route_is_herbst_to_cutoff(self, p1, a_premise, c):
        # p2 = 1: xi is +oo past the cutoff 1 and the tail reads 0, so the
        # minus-route limit is the Herbst value at 1, unscaled as well as
        # scaled
        for a in (PowerYoung(p1, 1), ScaledYoung(PowerYoung(p1, 1), c)):
            assert math.isinf(a.xi(math.nextafter(1.0, 2.0)))
            assert minus_route_constant(a, a_premise) == math.exp(
                _herbst_integral(a, a_premise, 1.0, +1.0, p1))

    def test_override_reaches_every_caller(self):
        # halving xi at premise A prices like the plain cost at A/2, and
        # halves the slope diagnostic's right-hand side
        class Halved(PowerYoung):
            def xi(self, x):
                return 0.5 * super().xi(x)

        space, f = two_point_space(1.3), np.array([0.0, 5.0])
        for p1, p2 in PAIRS:
            plain, halved = PowerYoung(p1, p2), Halved(p1, p2)
            assert t_threshold(halved, 0.5) == t_threshold(plain, 0.25)
            assert t_threshold(halved, 0.5) != t_threshold(plain, 0.5)
            assert minus_route_constant(halved, 0.5) == pytest.approx(
                minus_route_constant(plain, 0.25), rel=1e-12)
            want = gradient_diagnostic(plain, f, 0.4, space).rhs
            assert want.max() > 0.0  # point 1 moves to point 0
            assert np.array_equal(gradient_diagnostic(halved, f, 0.4, space).rhs,
                                  0.5 * want)

    def test_scaling_invariance(self):
        a = PowerYoung(3, 2)
        assert ScaledYoung(a, 3.7).xi(0.4) == pytest.approx(a.xi(0.4))


class TestEpsilon:
    def test_quadratic_simplification(self):
        # reduces to t/(1-t) at p = 2
        assert epsilon_value(2.0, 0.5) == pytest.approx(1.0)

    def test_zero(self):
        for p in (2.0, 2.5, 3.0):
            assert epsilon_value(p, 0.0) == 0.0

    def test_direct_formula(self):
        # independent evaluation of 1/(1 - t^{1/(p-1)})^{p-1} - 1
        t, p = 0.125, 3.0
        expected = 1.0 / (1.0 - math.sqrt(t)) ** 2 - 1.0
        assert epsilon_value(p, t) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.3929558, abs=1e-6)

    def test_monotone_and_divergent(self):
        ts = np.linspace(0.0, 0.999, 500)
        vals = [epsilon_value(2.5, float(t)) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert epsilon_value(2.5, 1 - 1e-12) > 1e8

    def test_domain(self):
        with pytest.raises(ValueError):
            epsilon_value(2.0, 1.0)


class TestChangeMetric:
    def test_quadratic_two_point(self):
        out = change_metric(PowerYoung(2, 2), two_point_space(3.0))
        assert out.dist[0, 1] == pytest.approx(3.0)

    def test_path_triangle(self):
        space = FiniteMetricSpace(
            ["a", "b", "c"],
            np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]))
        out = change_metric(PowerYoung(2, 1), space)
        assert out.dist[0, 2] == pytest.approx(math.sqrt(3.0))
        assert out.dist[0, 2] <= out.dist[0, 1] + out.dist[1, 2]
        assert out.validate() == []

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(1e-3, 30.0), y=st.floats(1e-3, 30.0),
           pair=st.sampled_from(PAIRS + [(2.0, 1.0)]))
    def test_root_subadditivity(self, x, y, pair):
        a = PowerYoung(*pair)
        p = a.exponents().p_exp
        lhs = a(x + y) ** (1 / p)
        rhs = a(x) ** (1 / p) + a(y) ** (1 / p)
        assert lhs <= rhs * (1 + 1e-12)


def test_power_extended_convention():
    assert power_extended(0.5, math.inf) == 0.0
    assert power_extended(1.0, math.inf) == 0.0
    assert power_extended(1.5, math.inf) == math.inf
    assert power_extended(2.0, 3.0) == 8.0


def test_tabulated_roundtrip(tmp_path):
    xs = np.linspace(0, 10, 2001)
    path = tmp_path / "quad.txt"
    np.savetxt(path, np.column_stack([xs, xs**2]))
    from ineqlab.young import load_table

    t = load_table(path)
    assert t(2.0) == pytest.approx(4.0, rel=1e-4)
    assert conjugate_numeric(t, 2.0) == pytest.approx(1.0, rel=1e-3)


def test_tabulated_one_sided_slopes_at_knots():
    t = TabulatedYoung([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])  # slopes 1 then 3
    assert t.right_derivative(0.5) == pytest.approx(1.0)
    assert t.left_derivative(0.5) == pytest.approx(1.0)
    assert t.left_derivative(1.0) == pytest.approx(1.0)
    assert t.right_derivative(1.0) == pytest.approx(3.0)
    assert t.right_derivative(1.5) == pytest.approx(3.0)
    assert t.left_derivative(0.0) == 0.0
    # beyond the table the last slope extends
    assert t.right_derivative(5.0) == pytest.approx(3.0)
    # at the last knot and at +-inf both sides read the last slope
    edge = np.array([2.0, 5.0, np.inf, -np.inf, -5.0])
    assert np.array_equal(t.right_derivative(edge), np.full(5, 3.0))
    assert np.array_equal(t.left_derivative(edge), np.full(5, 3.0))


def test_load_table_prepends_origin(tmp_path):
    xs = np.geomspace(0.01, 5.0, 400)
    path = tmp_path / "cubic.txt"
    np.savetxt(path, np.column_stack([xs, xs**3]))
    from ineqlab.young import load_table

    t = load_table(path)
    assert t(0.0) == 0.0
    assert t(1.0) == pytest.approx(1.0, rel=1e-3)


# ---------------------------------------------------------------------------
# batched conjugate-slope ratio and the exact table conjugate


def _xi_numeric_scalar(alpha, x):
    """Oracle: the per-x grid supremum and 80-step ternary refinement."""
    from ineqlab.young import _U_GRID

    u = _U_GRID
    au = alpha(u)
    ok = au > 0
    u, au = u[ok], au[ok]
    try:
        conj = np.asarray(alpha.conjugate(x * alpha.right_derivative(u)), dtype=float)
    except UnboundedConjugateError:
        return math.inf
    ratios = conj / (x * au)
    if not np.all(np.isfinite(ratios)):
        return math.inf
    best = float(np.max(ratios))
    k = int(np.argmax(ratios))
    llo = math.log(u[max(k - 1, 0)])
    lhi = math.log(u[min(k + 1, u.size - 1)])

    def f(v):
        return alpha.conjugate(float(x * alpha.right_derivative(v))) / (x * alpha(v))

    try:
        for _ in range(80):
            m1 = llo + (lhi - llo) / 3.0
            m2 = lhi - (lhi - llo) / 3.0
            if f(math.exp(m1)) < f(math.exp(m2)):
                llo = m1
            else:
                lhi = m2
        best = max(best, f(math.exp(0.5 * (llo + lhi))))
    except UnboundedConjugateError:
        return math.inf
    return best


def _bounded_slope_table():
    # 201 knots: quadratic up to 1, then linear with slope 2 (cutoff x = 1)
    xs = np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 120),
                         np.linspace(1.05, 6.0, 80)])
    return TabulatedYoung(xs, np.where(xs <= 1.0, xs**2, 2.0 * xs - 1.0))


_XI_COSTS = {
    "power32": PowerYoung(3, 2),
    "power21": PowerYoung(2, 1),
    "scaled23": ScaledYoung(PowerYoung(2, 3), 2.5),
    "table": _bounded_slope_table(),
    "scaled-table": ScaledYoung(_bounded_slope_table(), 0.4),
}


def _assert_matches_oracle(alpha, xs):
    got = xi_numeric(alpha, xs)
    want = np.array([_xi_numeric_scalar(alpha, float(x)) for x in xs])
    assert got.shape == xs.shape
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    assert np.all(np.abs(got[fin] - want[fin]) <= 1e-14 * np.abs(want[fin]))
    return got


@settings(max_examples=12)
@given(name=st.sampled_from(sorted(_XI_COSTS)),
       xs=st.lists(st.floats(0.02, 8.0), min_size=1, max_size=10))
def test_batched_xi_matches_scalar_oracle(name, xs):
    # every set straddles x = 1, the cutoff of both bounded-slope costs
    edge = [math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 0.999, 1.001]
    got = _assert_matches_oracle(_XI_COSTS[name], np.array(xs + edge))
    if name in ("power21", "table", "scaled-table"):
        assert np.isfinite(got[-4]) and np.all(np.isinf(got[-3::2]))


def test_batched_xi_scalar_in_scalar_out():
    a = PowerYoung(3, 2)
    assert isinstance(xi_numeric(a, 0.5), float)
    assert isinstance(a.xi(0.5), float)
    xs = np.geomspace(0.1, 4.0, 6).reshape(2, 3)
    got = xi_numeric(a, xs)
    assert got.shape == (2, 3)
    assert got[1, 2] == xi_numeric(a, float(xs[1, 2]))
    assert np.array_equal(a.xi(xs),
                          [[a.xi(float(x)) for x in row] for row in xs])
    with pytest.raises(ValueError):
        xi_numeric(a, np.array([0.5, 0.0]))


def test_batched_xi_unbounded_refinement_is_per_x():
    # a conjugate that diverges only on a tiny slope window around the first
    # refinement probe of x0, which no grid point reaches: x0 becomes +oo
    # and the other x keep their values
    from ineqlab.young import _U_GRID

    base = PowerYoung(3, 2)
    x0, others = 2.0, np.array([0.05, 0.5])
    ratios = base.conjugate(x0 * base.right_derivative(_U_GRID)) / (x0 * base(_U_GRID))
    k = int(np.argmax(ratios))
    llo, lhi = math.log(_U_GRID[k - 1]), math.log(_U_GRID[k + 1])
    probe = x0 * base.right_derivative(math.exp(llo + (lhi - llo) / 3.0))
    window = probe * (1.0 + np.array([-1e-9, 1e-9]))
    for x in np.concatenate([[x0], others]):
        args = x * base.right_derivative(_U_GRID)
        assert not np.any((args > window[0]) & (args < window[1]))

    class Holed(PowerYoung):
        def conjugate(self, y):
            ay = np.abs(np.asarray(y, dtype=float))
            if np.any((ay > window[0]) & (ay < window[1])):
                raise UnboundedConjugateError("hole")
            return super().conjugate(y)

    got = _assert_matches_oracle(Holed(3, 2), np.concatenate([[x0], others]))
    assert math.isinf(got[0])
    assert np.array_equal(got[1:], xi_numeric(base, others))


@st.composite
def _convex_tables(draw):
    count = draw(st.integers(2, 12))
    dx = np.array(draw(st.lists(st.floats(0.05, 2.0), min_size=count - 1,
                                max_size=count - 1)))
    ds = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=count - 1,
                                max_size=count - 1)))
    xs = np.concatenate([[0.0], np.cumsum(dx)])
    values = np.concatenate([[0.0], np.cumsum(np.cumsum(ds) * dx)])
    return TabulatedYoung(xs, values)


@settings(max_examples=60)
@given(table=_convex_tables(),
       ts=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=8))
def test_table_conjugate_is_the_knot_maximum(table, ts):
    top = table._slopes[-1]
    # ties: every knot slope, the last one included, and the origin
    ys = np.concatenate([np.array(ts) * top, table._slopes, -table._slopes, [0.0]])
    for y in ys:
        try:
            want_numeric = conjugate_numeric(table, float(y))
        except UnboundedConjugateError:
            want_numeric = None
        if abs(y) > top:
            # x|y| - alpha(x) grows like (|y| - top) x past the last knot.
            # The bracketed search agrees unless rounding left an earlier
            # slope above the last one (a dip the table accepts up to
            # 1e-12); it then stops at that slope and reports a finite value.
            assert want_numeric is None or abs(y) <= table._slopes.max()
            with pytest.raises(UnboundedConjugateError):
                table.conjugate(float(y))
            continue
        assert want_numeric is not None
        got = table.conjugate(float(y))
        oracle = float(np.max(table.xs * abs(y) - table.values))
        scale = max(1.0, abs(oracle))
        # on a run of equal slopes every knot maximizes; their terms
        # x_k|y| - v_k then differ only by rounding of order eps * x_k|y|,
        # and the oracle takes the largest
        rounding = max(scale, float(table.xs[-1]) * abs(y))
        assert abs(got - oracle) <= 1e-15 * rounding
        assert got >= want_numeric - 1e-12 * scale
    finite = ys[np.abs(ys) <= top]
    assert np.array_equal(table.conjugate(finite),
                          [table.conjugate(float(y)) for y in finite])
    if np.any(np.abs(ys) > top):
        with pytest.raises(UnboundedConjugateError):
            table.conjugate(ys)
