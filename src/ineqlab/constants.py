"""Closed-form and quadrature constants linking the inequalities.

Everything here is a deterministic function of the cost alpha and the
premise constants (A, lambda): the plus/minus route transport constants,
the sharp threshold t with xi(t) < 1/A, the Herbst growth factor, the
integral-limit constant of the minus route, the conversion factor kappa
and its perturbation analogue, and the Lipschitz-tail coefficient a_p.

xi is the cost's own method ``alpha.xi``, so an override reaches every
constant here.  The overhead and Herbst integrals share one quadrature in
v = u^{1/(p-1)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from .young import (
    ExponentPair,
    YoungFunction,
    epsilon_value,
)

__all__ = [
    "ConstantBundle",
    "ThresholdZeroError",
    "kappa",
    "kappa_tilde",
    "holley_factor_numeric",
    "lipschitz_tail_coefficient",
    "t_threshold",
    "growth_factor",
    "minus_route_constant",
    "tau_lsi_transport_constant",
    "implication_constants",
]


class ThresholdZeroError(ValueError):
    """xi(t) >= 1/A already at the smallest sampled t."""


def kappa(p: float) -> float:
    """p^{p(p-1)} / (p-1)^{(p-1)^2}; equals 4 at p = 2."""
    return p ** (p * (p - 1.0)) / (p - 1.0) ** ((p - 1.0) ** 2)


def kappa_tilde(p: float) -> float:
    """p^{p^2} / (p-1)^{p(p-1)}; equals 16 at p = 2."""
    return p ** (p * p) / (p - 1.0) ** (p * (p - 1.0))


def holley_factor_numeric(p: float) -> float:
    """kappa(p) * inf_{s in (0,1)} 1/(s (1-s)^{p-1}).

    The infimum is attained at s = 1/p and the product collapses to
    kappa_tilde(p); computing it numerically cross-checks both formulas.
    """
    res = minimize_scalar(lambda s: 1.0 / (s * (1.0 - s) ** (p - 1.0)),
                          bounds=(1e-9, 1.0 - 1e-9), method="bounded",
                          options={"xatol": 1e-13})
    return kappa(p) * float(res.fun)


def _substituted_quad(g, p: float, t: float, c: float, tol: float) -> float:
    """int_0^t g(u) du with the substitution u = v^(p-1).

    g(u) behaves like c (p-1) u^{1/(p-1) - 1} near 0, an integrable
    endpoint singularity for p > 2; in the v variable the integrand is
    bounded, with limit c (p-1)^2 at v = 0.
    """
    if t == 0.0:
        return 0.0
    pm1 = p - 1.0

    def f(v):
        u = v**pm1
        return g(u) * pm1 * v ** (pm1 - 1.0) if u > 0 else c * pm1 * pm1

    val, _ = quad(f, 0.0, t ** (1.0 / pm1), epsabs=tol, epsrel=tol, limit=400)
    return val


def _overhead_integral(p: float, t: float) -> float:
    """int_0^t eps(u)/u du; eps(u) ~ (p-1) u^{1/(p-1)} near 0."""
    return _substituted_quad(lambda u: epsilon_value(p, u) / u, p, t, 1.0, 1e-12)


def lipschitz_tail_coefficient(p: float, omega: float) -> float:
    """inf_{t in (0,1)} t^{-(q-1)} (1 + (p/omega)^q/(p-1) int_0^t eps(u)/u du).

    omega = 1 holds in any metric space, omega = p on geodesic spaces.
    At p = 2 the values are about 7.53 (omega 1) and 3.15 (omega 2).
    """
    if omega < 1.0:
        raise ValueError("omega must be >= 1")
    q = p / (p - 1.0)
    coef = (p / omega) ** q / (p - 1.0)

    def obj(t):
        return (1.0 + coef * _overhead_integral(p, t)) / t ** (q - 1.0)

    res = minimize_scalar(obj, bounds=(1e-6, 1.0 - 1e-9), method="bounded",
                          options={"xatol": 1e-10})
    return float(res.fun)


def t_threshold(alpha: YoungFunction, a_premise: float) -> float:
    """sup { t : xi(t) < 1/A }, by bisection on the non-decreasing xi."""
    if a_premise <= 0:
        raise ValueError("premise constant must be positive")
    target = 1.0 / a_premise
    lo = 1e-12
    if alpha.xi(lo) >= target:
        raise ThresholdZeroError("xi already exceeds 1/A near 0")
    hi = 1.0
    while alpha.xi(hi) < target:
        lo = hi
        hi *= 2.0
        if hi > 1e12:
            return math.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if alpha.xi(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, lo):
            break
    return lo


def _herbst_integral(alpha: YoungFunction, a_premise: float, t: float,
                     sign: float, p: float) -> float:
    """int_0^t A xi(u) / (u (1 + sign * A xi(u))) du; xi(u) = (p-1) u^{1/(p-1)}
    for small u."""

    def g(u):
        x = alpha.xi(u)
        return a_premise * x / (u * (1.0 + sign * a_premise * x))

    return _substituted_quad(g, p, t, a_premise, 1e-10)


def growth_factor(alpha: YoungFunction, a_premise: float, t: float) -> float:
    """exp int_0^t A xi/(u (1 - A xi)) du, finite for t below the threshold."""
    p = alpha.exponents().p_exp
    if t >= t_threshold(alpha, a_premise):
        raise ValueError("t must stay below the threshold sup{xi < 1/A}")
    return math.exp(_herbst_integral(alpha, a_premise, t, -1.0, p))


def minus_route_constant(alpha: YoungFunction, a_premise: float) -> float:
    """lim_{t -> cutoff} (1/t) exp int_0^t A xi/(u (1 + A xi)) du.

    The map t -> (1/t) exp(...) is non-increasing, and the cutoff is
    sup { t : xi(t) < oo }.  The Herbst integrand g = A xi/(u (1 + A xi))
    equals 1/u - 1/(u (1 + A xi)), so the log t cancels and the limit is
    head plus tail for every cost:

        log lim = int_0^1 g du - int_1^oo du / (u (1 + A xi(u))).

    The tail converges because xi grows at least like u^{1/(p-1)}.  For
    the power family it grows like u^{1/(r-1)}, r the lower exponent, so
    the tail is one quadrature in y with u = y^(r-1), du/u = (r-1) dy/y,
    where xi is about linear in y.  (In the head's variable v, an outer
    exponent near 1 squeezes the whole tail into a sliver just above
    v = 1 that quad can miss.)  At r = 1 the slope is bounded, xi is +oo
    beyond 1, the cutoff is 1 and the tail factor r - 1 reads 0.
    """
    exps = alpha.exponents()
    p = exps.p_exp
    rm1 = exps.r_exp - 1.0

    def tail(y):
        try:
            x = alpha.xi(y**rm1)
        except OverflowError:  # xi beyond the float range: the term is 0
            return 0.0
        return rm1 / (y * (1.0 + a_premise * x))

    rest, _ = quad(tail, 1.0, math.inf, epsabs=1e-10, epsrel=1e-10, limit=400)
    return math.exp(_herbst_integral(alpha, a_premise, 1.0, +1.0, p) - rest)


def tau_lsi_transport_constant(p: float, a_premise: float, lam: float) -> float:
    """kappa(p) max(A, 1)^{p-1} / lambda: the transport constant guaranteed
    by an inf-convolution log-Sobolev premise (lambda, A)."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return kappa(p) * max(a_premise, 1.0) ** (p - 1.0) / lam


@dataclass(frozen=True)
class ConstantBundle:
    """Every constant derivable from (alpha, A, lambda).

    c_plus / c_minus are the plus/minus route transport constants; the
    sharp variants come from the threshold t and the integral limit.
    a_general / a_geodesic are the Lipschitz-tail coefficients at omega = 1
    and omega = p.  holley_factor is the perturbation conversion factor,
    numerically identical to kappa_tilde.
    """

    alpha: YoungFunction = field(repr=False)
    a_premise: float
    lam: float
    exps: ExponentPair
    c_plus: float
    c_minus: float
    t_threshold: float
    c_from_threshold: float
    b_minus: float
    kappa: float
    kappa_tilde: float
    holley_factor: float
    c_from_tau_lsi: float
    a_general: float
    a_geodesic: float

    def epsilon(self, t: float) -> float:
        return epsilon_value(self.exps.p_exp, t)

    def as_dict(self) -> dict:
        return {
            "a_premise": self.a_premise,
            "lambda": self.lam,
            "r_exp": self.exps.r_exp,
            "p_exp": self.exps.p_exp,
            "delta2": self.exps.delta2,
            "c_plus": self.c_plus,
            "c_minus": self.c_minus,
            "t_threshold": self.t_threshold,
            "c_from_threshold": self.c_from_threshold,
            "b_minus": self.b_minus,
            "kappa": self.kappa,
            "kappa_tilde": self.kappa_tilde,
            "holley_factor": self.holley_factor,
            "c_from_tau_lsi": self.c_from_tau_lsi,
            "a_general": self.a_general,
            "a_geodesic": self.a_geodesic,
        }


def implication_constants(alpha: YoungFunction, a_premise: float,
                          lam: float) -> ConstantBundle:
    """Compute the full constant bundle for a cost and premise (A, lambda).

    c_plus  = max(((p-1)A)^{r-1}, ((p-1)A)^{p-1})
    c_minus = (1 + (p-1)A)^{p-r} ((p-1)A)^{r-1}   (>= b_minus)
    and the sharp threshold / integral-limit variants alongside the
    conversion factors.  For the quadratic cost all four transport
    constants collapse to A.
    """
    if a_premise <= 0 or lam <= 0:
        raise ValueError("premise constants must be positive")
    exps = alpha.exponents()
    r, p = exps.r_exp, exps.p_exp
    base = (p - 1.0) * a_premise
    c_plus = max(base ** (r - 1.0), base ** (p - 1.0))
    c_minus = (1.0 + base) ** (p - r) * base ** (r - 1.0)
    t_a = t_threshold(alpha, a_premise)
    return ConstantBundle(
        alpha=alpha,
        a_premise=a_premise,
        lam=lam,
        exps=exps,
        c_plus=c_plus,
        c_minus=c_minus,
        t_threshold=t_a,
        c_from_threshold=1.0 / t_a,
        b_minus=minus_route_constant(alpha, a_premise),
        kappa=kappa(p),
        kappa_tilde=kappa_tilde(p),
        holley_factor=holley_factor_numeric(p),
        c_from_tau_lsi=tau_lsi_transport_constant(p, a_premise, lam),
        a_general=lipschitz_tail_coefficient(p, 1.0),
        a_geodesic=lipschitz_tail_coefficient(p, p),
    )
