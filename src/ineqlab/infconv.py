"""Inf- and sup-convolution operators on finite products, with witnesses.

The inf-convolution of f at x is min_y { f(y) + lam * sum_i alpha(d(x_i, y_i)) }
(discrete Hopf-Lax operator; the printed definition elsewhere carries a
minus sign, but every identity used downstream -- Qf <= f, the nonnegative
defect f - Qf, the duality with the sup-convolution -- requires the plus
sign, which is what is implemented).  The sup-convolution drops lam and
flips signs: Pf = -Q(-f) exactly.

Products are handled by iterated per-coordinate minimization, which equals
the joint minimum because the cost is a sum over coordinates; witnesses
are reconstructed by chaining the per-axis argmins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spaces import FiniteMetricSpace, _neighbours, slope_vector
from .transport import cost_matrix
from .young import YoungFunction, epsilon_value, exponents, xi_value

__all__ = [
    "ArgminWitness",
    "q_conv",
    "p_conv",
    "partial_q",
    "tensor_defect_report",
    "argmax_ball_report",
    "gradient_diagnostic",
    "lemma_bounds",
    "lipschitz_seminorm",
]


@dataclass(frozen=True)
class ArgminWitness:
    """Per-point minimizer tuples and the values they achieve."""

    indices: np.ndarray = field(repr=False)  # (*shape, n)
    achieved: np.ndarray = field(repr=False)  # (*shape,)

    def max_deviation(self, values: np.ndarray) -> float:
        return float(np.max(np.abs(self.achieved - values)))


def _check_shape(f: np.ndarray, size: int, n: int) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (size,) * n:
        raise ValueError(f"potential must have shape {(size,)*n}, got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("potential values must be finite")
    return f


def q_conv(alpha: YoungFunction, lam: float, f, space: FiniteMetricSpace,
           n: int = 1) -> tuple[np.ndarray, ArgminWitness]:
    """Inf-convolution over the n-fold product, with argmin witnesses.

    Coordinates are minimized one at a time (exact; the separable cost
    makes the iterated minimum the joint one).  Ties break toward the
    smallest index.
    """
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    f = _check_shape(f, space.size, n)
    cost = cost_matrix(alpha, space, lam)
    g = f
    argmins: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    # axis k holds y_k before its pass and x_k afterwards; later axes are
    # already in x-role when axis k is processed
    for axis in reversed(range(n)):
        moved = np.moveaxis(g, axis, -1)  # (..., y_k)
        total = moved[..., None, :] + cost  # (..., x_k, y_k)
        idx = np.argmin(total, axis=-1)
        val = np.take_along_axis(total, idx[..., None], axis=-1)[..., 0]
        g = np.moveaxis(val, -1, axis)
        argmins[axis] = np.moveaxis(idx, -1, axis)
    grid = list(np.indices(g.shape))
    ys: list[np.ndarray] = []
    for k in range(n):
        sel = tuple(ys[:k] + grid[k:])
        ys.append(argmins[k][sel])
    achieved = f[tuple(ys)].astype(float)
    for k in range(n):
        achieved = achieved + cost[grid[k], ys[k]]
    witness = ArgminWitness(indices=np.stack(ys, axis=-1), achieved=achieved)
    return g, witness


def p_conv(alpha: YoungFunction, f, space: FiniteMetricSpace,
           n: int = 1) -> tuple[np.ndarray, ArgminWitness]:
    """Sup-convolution max_y { f(y) - sum_i alpha(d(x_i, y_i)) }.

    Implemented as -Q(-f) at unit scale, so the duality identity holds
    bit-for-bit; the witness achieves the maximum.
    """
    f = _check_shape(f, space.size, n)
    vals, wit = q_conv(alpha, 1.0, -f, space, n)
    return -vals, ArgminWitness(indices=wit.indices, achieved=-wit.achieved)


def _q_rows(costs: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """Inf-convolution values for each row of potentials (order 1).

    Q[b, i] = min_j (f[b, j] + c[i, j]) as a running minimum over the
    target columns j.  The output and the one temporary have the shape and
    the memory layout of ``fs``: point-major grids (one contiguous column
    per point) stay point-major, so every pass runs down whole columns.
    """
    out, term = np.empty_like(fs), np.empty_like(fs)
    np.add(fs[:, :1], costs[:, 0], out=out)
    for j in range(1, fs.shape[1]):
        np.minimum(out, np.add(fs[:, j:j + 1], costs[:, j], out=term), out=out)
    return out


def partial_q(alpha: YoungFunction, lam: float, h, space: FiniteMetricSpace,
              coord: int, n: int) -> np.ndarray:
    """Inf-convolution in one coordinate only:
    min_y { h(x with x_coord replaced by y) + lam * alpha(d(x_coord, y)) }."""
    h = _check_shape(h, space.size, n)
    if not 0 <= coord < n:
        raise ValueError("coordinate out of range")
    cost = cost_matrix(alpha, space, lam)
    moved = np.moveaxis(h, coord, -1)
    val = _q_rows(cost, moved.reshape(-1, space.size)).reshape(moved.shape)
    return np.moveaxis(val, -1, coord)


def lipschitz_seminorm(f: np.ndarray, space: FiniteMetricSpace, p: float,
                       n: int = 1) -> float:
    """sup over pairs of |f(x) - f(y)| / (sum_i d(x_i,y_i)^p)^(1/p)."""
    f = _check_shape(f, space.size, n)
    dp = space.dist**p
    flat = f.ravel()
    size = space.size
    idx = np.indices((size,) * n).reshape(n, -1)
    cost = np.zeros((flat.size, flat.size))
    for k in range(n):
        cost += dp[np.ix_(idx[k], idx[k])]
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = np.abs(flat[:, None] - flat[None, :]) / cost ** (1.0 / p)
    quot[~np.isfinite(quot)] = 0.0
    return float(quot.max())


# ---------------------------------------------------------------------------
# pointwise lemma reports


@dataclass(frozen=True)
class BoundReport:
    """One checkable pointwise bound: worst margin = max(lhs - rhs)."""

    name: str
    lhs: np.ndarray = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    worst_margin: float
    holds: bool
    note: str = ""

    @staticmethod
    def build(name: str, lhs: np.ndarray, rhs: np.ndarray, tol: float,
              note: str = "") -> "BoundReport":
        margin = float(np.max(lhs - rhs))
        return BoundReport(name=name, lhs=lhs, rhs=rhs, worst_margin=margin,
                           holds=bool(margin <= tol), note=note)


def tensor_defect_report(alpha: YoungFunction, f, t: float,
                         space: FiniteMetricSpace, n: int = 1,
                         tol: float = 1e-9) -> BoundReport:
    """Partial-defect bound for the scaled sup-convolution.

    For every x, sum_i [ t Pf(x) - Q^{(i)}(t Pf)(x) ] is at most
    t eps(t) sum_i alpha(d(x_i, y_i)) where y is any argmax witness of Pf
    at x and eps is the overhead factor at the upper growth exponent.
    Exact on finite spaces (no slope surrogate involved).
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in (0, 1)")
    f = _check_shape(f, space.size, n)
    p = exponents(alpha).p_exp
    pf, wit = p_conv(alpha, f, space, n)
    tp = t * pf
    lhs = np.zeros_like(tp)
    for i in range(n):
        lhs += tp - partial_q(alpha, 1.0, tp, space, i, n)
    grid = np.indices(tp.shape)
    move_cost = np.zeros_like(tp)
    for i in range(n):
        move_cost += np.asarray(alpha(space.dist[grid[i], wit.indices[..., i]]))
    rhs = t * epsilon_value(p, t) * move_cost
    return BoundReport.build("tensor-defect", lhs, rhs, tol)


def argmax_ball_report(p: float, f, space: FiniteMetricSpace, n: int = 1,
                       omega: float = 1.0, tol: float = 1e-9,
                       rel_slack: float = 0.0) -> BoundReport:
    """Displacement bound for sup-convolution argmaxes under a power cost.

    With L the (p)-Lipschitz seminorm of f, any maximizer of
    y -> f(y) - sum_i d(x_i, y_i)^p lies in the ball
    sum_i d(x_i, y_i)^p <= (L/omega)^q, q = p/(p-1).  omega = 1 always;
    omega = p is the geodesic-space improvement (apply with a relative
    slack on discretized geodesics).
    """
    from .young import PowerYoung

    if p < 2.0:
        raise ValueError("displacement bound implemented for p >= 2")
    f = _check_shape(f, space.size, n)
    power = PowerYoung(p, p)  # pure power cost |x|^p
    _, wit = p_conv(power, f, space, n)
    grid = np.indices((space.size,) * n)
    disp = np.zeros(grid[0].shape)
    for i in range(n):
        disp += space.dist[grid[i], wit.indices[..., i]] ** p
    lvalue = lipschitz_seminorm(f, space, p, n)
    q = p / (p - 1.0)
    bound = (lvalue / omega) ** q * (1.0 + rel_slack)
    rhs = np.full_like(disp, bound)
    return BoundReport.build("argmax-ball", disp, rhs, tol,
                             note=f"L={lvalue:.6g} omega={omega:g}")


def gradient_diagnostic(alpha: YoungFunction, f, t: float,
                        space: FiniteMetricSpace, n: int = 1) -> BoundReport:
    """Surrogate check of the slope bound on the inf-convolution.

    Compares sum_i alpha*(t * slope_i^+(Qf)) against t xi(t) (Qf - f(y)).
    The true statement controls the limsup slope through the right
    derivative of alpha along the witness; under the discrete global-slope
    surrogate it may fail, so this is reported, never asserted.
    """
    f = _check_shape(f, space.size, n)
    qf, wit = q_conv(alpha, 1.0, f, space, n)
    lhs = np.zeros_like(qf)
    neighbours = _neighbours(space, None)
    for i in range(n):
        moved = np.moveaxis(qf, i, -1)
        slopes = slope_vector(space, moved, "+", neighbours)
        lhs += np.moveaxis(np.asarray(alpha.conjugate(t * slopes)), -1, i)
    xi_t = xi_value(alpha, t)
    rhs = t * xi_t * (qf - f[tuple(np.moveaxis(wit.indices, -1, 0))])
    margin = float(np.max(lhs - rhs)) if math.isfinite(xi_t) else -math.inf
    return BoundReport(name="slope-bound (surrogate, diagnostic)",
                       lhs=lhs, rhs=rhs, worst_margin=margin,
                       holds=bool(margin <= 1e-9),
                       note="informational only: discrete slope surrogate")


def lemma_bounds(alpha: YoungFunction, f, t: float, space: FiniteMetricSpace,
                 n: int = 1, omega: float = 1.0,
                 geodesic_slack: float = 0.0) -> dict:
    """Bundle of the three pointwise-bound reports for one (f, t, n)."""
    p = exponents(alpha).p_exp
    return {
        "tensor_defect": tensor_defect_report(alpha, f, t, space, n),
        "argmax_ball": argmax_ball_report(p, f, space, n, omega,
                                          rel_slack=geodesic_slack),
        "slope_diagnostic": gradient_diagnostic(alpha, f, t, space, n),
    }
