import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from ineqlab.constants import (
    ThresholdZeroError,
    _herbst_integral,
    growth_factor,
    holley_factor_numeric,
    implication_constants,
    kappa,
    kappa_tilde,
    lipschitz_tail_coefficient,
    minus_route_constant,
    t_threshold,
    tau_lsi_transport_constant,
)
from ineqlab.young import PowerYoung, epsilon_value


class TestConversionFactors:
    def test_quadratic_values(self):
        assert kappa(2.0) == 4.0
        assert kappa_tilde(2.0) == 16.0

    def test_cubic(self):
        assert kappa(3.0) == pytest.approx(3**6 / 2**4)
        assert kappa_tilde(3.0) == pytest.approx(3**9 / 2**6)

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
    def test_infimum_route_reproduces_tilde(self, p):
        # kappa * inf 1/(s(1-s)^{p-1}) collapses to kappa_tilde
        assert holley_factor_numeric(p) == pytest.approx(kappa_tilde(p), rel=1e-9)


class TestTailCoefficient:
    def test_general_quadratic(self):
        assert lipschitz_tail_coefficient(2.0, 1.0) == pytest.approx(7.5, abs=0.1)

    def test_geodesic_quadratic(self):
        assert lipschitz_tail_coefficient(2.0, 2.0) == pytest.approx(3.14, abs=0.1)

    def test_quadratic_log_form(self):
        # at p = 2 the objective reduces to (1 - (2/w)^2 log(1-t))/t
        for w in (1.0, 2.0):
            ts = np.linspace(1e-4, 1 - 1e-9, 20000)
            vals = (1.0 - (2.0 / w) ** 2 * np.log1p(-ts)) / ts
            assert lipschitz_tail_coefficient(2.0, w) == pytest.approx(
                float(vals.min()), rel=1e-6)


class TestThreshold:
    def test_quadratic_inverse(self):
        # conjugate-slope ratio is the identity for x^2: threshold = 1/A
        for a in (0.25, 1.0, 4.0):
            assert t_threshold(PowerYoung(2, 2), a) == pytest.approx(1 / a, rel=1e-9)

    def test_capped_at_cutoff(self):
        # bounded-slope cost: ratio infinite past 1, so threshold <= 1
        assert t_threshold(PowerYoung(2, 1), 0.5) == pytest.approx(1.0, rel=1e-9)

    def test_zero_signalled(self):
        class AlwaysBig(PowerYoung):
            pass

        alpha = PowerYoung(2, 2)
        with pytest.raises(ThresholdZeroError):
            t_threshold(alpha, 1e14)


class TestGrowthFactor:
    def test_quadratic_closed_form(self):
        # integrand A/(1-Au): growth factor 1/(1-At)
        a = PowerYoung(2, 2)
        for t in (0.1, 0.4, 0.7):
            assert growth_factor(a, 1.0, t) == pytest.approx(1 / (1 - t), rel=1e-8)

    def test_monotone_scaled_threshold(self):
        a = PowerYoung(3, 2)
        with pytest.raises(ValueError):
            growth_factor(a, 2.0, t_threshold(a, 2.0) * 1.01)


class TestMinusRoute:
    def test_quadratic_collapses_to_premise(self):
        assert minus_route_constant(PowerYoung(2, 2), 1.0) == pytest.approx(
            1.0, rel=1e-12)

    def test_bounded_slope_value_at_cutoff(self):
        # ratio(u) = u below the cutoff 1: exp(int_0^1 A/(1+Au) du) = 1+A
        for a in (0.5, 1.0, 2.0):
            assert minus_route_constant(PowerYoung(2, 1), a) == pytest.approx(
                1.0 + a, rel=1e-8)

    def test_dominated_by_closed_form(self, rng):
        for _ in range(10):
            p1 = rng.uniform(2.0, 3.5)
            p2 = rng.uniform(1.2, 3.5)
            a_premise = rng.uniform(0.2, 4.0)
            bundle = implication_constants(PowerYoung(p1, p2), a_premise, 1.0)
            assert bundle.b_minus <= bundle.c_minus * (1 + 1e-6)


def _herbst_values(alpha, a_premise, ks):
    """(1/t) exp int_0^t A xi/(u (1 + A xi)) du at t = 4^k for each k.

    The oracle of the limit: the head int_0^1 as in the package, the rest in
    w = log u over pieces at most 1/4 wide (finer towards w = 0), where an
    outer exponent near 1 puts the whole rise of A xi / (1 + A xi).
    """
    p = alpha.exponents().p_exp
    head = _herbst_integral(alpha, a_premise, 1.0, +1.0, p)

    def g(w):
        x = a_premise * alpha.xi(math.exp(w))
        return 1.0 if math.isinf(x) else x / (1.0 + x)

    top = max(ks) * math.log(4.0)
    edges = np.unique(np.concatenate([
        [0.0], np.geomspace(1e-14, 0.25, 50), np.arange(0.25, top, 0.25),
        np.log(4.0) * np.asarray(ks, dtype=float)]))
    pieces = [quad(g, lo, hi, epsabs=1e-13, epsrel=1e-12)[0]
              for lo, hi in zip(edges[:-1], edges[1:])]
    cum = np.concatenate([[0.0], np.cumsum(pieces)])
    return [math.exp(head + cum[np.searchsorted(edges, k * math.log(4.0))]) / 4.0**k
            for k in ks]


# p2 - 1 and A are drawn log-uniformly, so outer exponents near 1, whose
# tail is a sliver above u = 1, come up as often as the rest
@settings(max_examples=60)
@given(p1=st.floats(2.0, 3.5),
       p2=st.floats(-12.0, math.log10(2.5)).map(lambda e: 1.0 + 10.0**e),
       a_premise=st.floats(-2.0, 4.0).map(lambda e: 10.0**e))
def test_minus_route_limit_brackets_the_herbst_map(p1, p2, a_premise):
    # t -> (1/t) exp int_0^t is non-increasing, so the limit lies below its
    # value at every t; and above the value at T = 4^20 less the rest of the
    # tail, int_T^oo du/(u A xi) <= 1/(A T^{1/(p2-1)}), since
    # xi(u) >= (p2-1) u^{1/(p2-1)} for u > 1
    alpha = PowerYoung(p1, p2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        limit = minus_route_constant(alpha, a_premise)
    ks = list(range(13)) + [20]
    values = _herbst_values(alpha, a_premise, ks)
    assert all(limit <= v * (1 + 1e-9) for v in values)
    with np.errstate(over="ignore"):
        rest = 1.0 / (a_premise * np.float64(4.0) ** (20.0 / (p2 - 1.0)))
    assert limit >= values[-1] * math.exp(-rest) * (1 - 1e-7)


class TestBundle:
    def test_quadratic_identity_case(self):
        b = implication_constants(PowerYoung(2, 2), 1.0, 0.5)
        assert b.c_plus == 1.0
        assert b.c_minus == 1.0
        assert b.c_from_threshold == pytest.approx(1.0, rel=1e-9)
        assert b.b_minus == pytest.approx(1.0, rel=1e-12)
        assert b.kappa == 4.0
        assert b.kappa_tilde == 16.0
        assert b.c_from_tau_lsi == pytest.approx(8.0)

    def test_ordering_plus_minus(self, rng):
        # c_plus <= c_minus <= 2^{p-r} c_plus over random costs and premises
        for _ in range(100):
            p1 = rng.uniform(2.0, 4.0)
            p2 = rng.uniform(1.0, 4.0)
            a_premise = rng.uniform(0.05, 20.0)
            b = implication_constants(PowerYoung(p1, p2), a_premise, 1.0)
            r, p = b.exps.r_exp, b.exps.p_exp
            assert b.c_plus <= b.c_minus * (1 + 1e-12)
            assert b.c_minus <= 2 ** (p - r) * b.c_plus * (1 + 1e-12)

    def test_epsilon_hook(self):
        b = implication_constants(PowerYoung(2, 2), 1.0, 1.0)
        assert b.epsilon(0.5) == pytest.approx(epsilon_value(2.0, 0.5))

    def test_shifted_scale_monotone(self):
        # t -> t * exp(-int...) is non-decreasing: equivalently the
        # reciprocal of the minus-route value at t is non-decreasing in t
        a = PowerYoung(3, 2)
        p = a.exponents().p_exp
        ts = np.linspace(0.05, 8.0, 60)
        vals = [t * math.exp(-_herbst_integral(a, 1.3, t, +1.0, p)) for t in ts]
        assert all(b2 >= a2 * (1 - 1e-10) for a2, b2 in zip(vals, vals[1:]))

    def test_tau_conversion_scaling(self):
        assert tau_lsi_transport_constant(2.0, 0.5, 0.25) == pytest.approx(16.0)
        assert tau_lsi_transport_constant(2.0, 3.0, 1.0) == pytest.approx(12.0)

    def test_as_dict_roundtrip(self):
        b = implication_constants(PowerYoung(3, 2), 0.7, 0.9)
        d = b.as_dict()
        assert d["p_exp"] == 3.0 and d["r_exp"] == 2.0
        assert d["kappa"] == pytest.approx(kappa(3.0))
