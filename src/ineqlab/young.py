"""Young-function calculus.

A Young function is an even, convex cost function, increasing on [0, oo),
with alpha(0) = 0 and vanishing one-sided derivative at 0.  This module
provides the two-regime power family, tabulated (piecewise-linear) costs,
Fenchel-Legendre conjugation, the doubling constant and the lower/upper
growth exponents, the conjugate-slope ratio driving Herbst-type arguments,
and the metric change d -> alpha(d)^(1/p).

Conjugates are exact for the power family (closed form) and for tabulated
costs: a piecewise-linear cost attains sup_x {x|y| - alpha(x)} at a knot
on the lower convex hull of the table, located by one binary search over
the hull slopes.  Other costs fall back to a golden-section search per
element, which may land up to its relative tolerance below the supremum.

Conjugation, the exponents and the conjugate-slope ratio xi are methods of
the cost, so a subclass overrides each in one place.  ``xi`` is in closed
form for the power family (a scaling leaves it unchanged); every other
cost takes the numeric ratio, which evaluates an array of x in one
lock-step pass: a blocked grid stage, then one ternary refinement whose
steps advance all x together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "YoungFunction",
    "PowerYoung",
    "ScaledYoung",
    "TabulatedYoung",
    "ExponentPair",
    "UnboundedConjugateError",
    "Delta2ViolationError",
    "conjugate_numeric",
    "xi_numeric",
    "xi_upper_bound",
    "epsilon_value",
    "power_extended",
    "change_metric",
    "validate_young",
    "load_table",
]


class UnboundedConjugateError(ValueError):
    """The supremum x*y - alpha(x) diverges on the search bracket."""


class Delta2ViolationError(ValueError):
    """The doubling ratio alpha(2x)/alpha(x) grows without bound."""


# Log grid used for every numeric sup/inf over u > 0.  The ratios involved
# are smooth in log u and the closed forms of the power family calibrate
# the resolution; 2049 points over twelve decades plus local refinement
# resolves them to far better than the 1e-5 acceptance tolerance.
_U_GRID = np.logspace(-6.0, 6.0, 2049)


def power_extended(base, exponent: float):
    """base**exponent with the convention base**inf = 0 if base <= 1 else inf.

    Used wherever an exponent 1/(r-1) degenerates at r = 1.
    """
    base = np.asarray(base, dtype=float)
    if math.isinf(exponent):
        out = np.where(base <= 1.0, 0.0, np.inf)
        return out if out.ndim else float(out)
    out = base**exponent
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ExponentPair:
    """Lower/upper growth exponents and the doubling constant of a cost.

    r_exp = inf_{x>0} x*alpha'_-(x)/alpha(x)  (>= 1),
    p_exp = sup_{x>0} x*alpha'_+(x)/alpha(x)  (in (1, oo) under doubling),
    delta2 = sup_{x>0} alpha(2x)/alpha(x)     (>= 2).
    """

    r_exp: float
    p_exp: float
    delta2: float

    def __post_init__(self):
        if not (1.0 <= self.r_exp <= self.p_exp):
            raise ValueError(f"need 1 <= r <= p, got r={self.r_exp}, p={self.p_exp}")
        if not (self.p_exp > 1.0):
            raise ValueError("upper exponent must exceed 1")


class YoungFunction:
    """Base class: an even convex cost, queried only on [0, oo)."""

    kind: str = "custom"

    def __call__(self, x):
        raise NotImplementedError

    def right_derivative(self, x):
        raise NotImplementedError

    def left_derivative(self, x):
        raise NotImplementedError

    def conjugate(self, y):
        """Fenchel-Legendre transform sup_x {x|y| - alpha(x)}."""
        y = np.asarray(y, dtype=float)
        if y.ndim == 0:
            return conjugate_numeric(self, float(y))
        return np.array([conjugate_numeric(self, v) for v in y.ravel()]).reshape(y.shape)

    def scale(self, c: float) -> "YoungFunction":
        """The cost c*alpha (still a Young function for c > 0)."""
        return ScaledYoung(self, c)

    def exponents(self) -> ExponentPair:
        return _exponents_numeric(self)

    def xi(self, x):
        """Conjugate-slope ratio sup_{u>0} alpha*(x alpha'_+(u)) / (x alpha(u)).

        Non-decreasing in x > 0, possibly +oo.  ``x`` may be an array; a
        scalar gives a float.  Here the numeric grid supremum.
        """
        return xi_numeric(self, x)


class PowerYoung(YoungFunction):
    """Two-regime power cost: |x|^p1 inside [0,1], matched p2-power outside.

    alpha(x) = |x|^p1 for |x| <= 1 and (p1/p2)|x|^p2 + 1 - p1/p2 for |x| > 1,
    which is C^1 at |x| = 1 with slope p1 on both sides.  Requires p1 >= 2
    (quadratic or flatter near 0) and p2 >= 1; p2 = 1 gives the
    quadratic-then-linear cost whose conjugate is finite only on [-p1, p1].
    """

    kind = "power"

    def __init__(self, p1: float, p2: float):
        if p1 < 2.0:
            raise ValueError(f"inner exponent must be >= 2, got {p1}")
        if p2 < 1.0:
            raise ValueError(f"outer exponent must be >= 1, got {p2}")
        self.p1 = float(p1)
        self.p2 = float(p2)

    def __repr__(self):
        return f"PowerYoung({self.p1:g}, {self.p2:g})"

    def __call__(self, x):
        ax = np.abs(np.asarray(x, dtype=float))
        inner = ax**self.p1
        outer = (self.p1 / self.p2) * ax**self.p2 + 1.0 - self.p1 / self.p2
        out = np.where(ax <= 1.0, inner, outer)
        return out if out.ndim else float(out)

    def right_derivative(self, x):
        ax = np.abs(np.asarray(x, dtype=float))
        out = np.where(ax <= 1.0, self.p1 * ax ** (self.p1 - 1.0),
                       self.p1 * ax ** (self.p2 - 1.0))
        return out if out.ndim else float(out)

    # C^1 matching at |x| = 1: left and right slopes agree everywhere.
    left_derivative = right_derivative

    def conjugate(self, y):
        """Closed form via the normalized-pair identity.

        With bar(x) = alpha(x)/p1, the conjugate of bar is the same
        two-regime function with the conjugate exponents q1, q2, so
        alpha*(y) = p1 * bar_{q1,q2}(y/p1).  q2 = oo when p2 = 1, in which
        case the conjugate is +oo beyond slope p1.
        """
        p1, p2 = self.p1, self.p2
        q1 = p1 / (p1 - 1.0)
        z = np.abs(np.asarray(y, dtype=float)) / p1
        # a power beyond the float range reads +oo
        with np.errstate(over="ignore"):
            inner = p1 * z**q1 / q1
            if p2 == 1.0:
                out = np.where(z <= 1.0, inner, np.inf)
            else:
                q2 = p2 / (p2 - 1.0)
                outer = p1 * (z**q2 / q2 + 1.0 / q1 - 1.0 / q2)
                out = np.where(z <= 1.0, inner, outer)
        return out if out.ndim else float(out)

    def exponents(self) -> ExponentPair:
        p = max(self.p1, self.p2)
        return ExponentPair(r_exp=min(self.p1, self.p2), p_exp=p, delta2=2.0**p)

    def xi(self, x):
        """Closed form, element by element for an array."""
        if isinstance(x, np.ndarray):
            return np.array([self.xi(v) for v in x.ravel().tolist()]).reshape(x.shape)
        # scalars take the plain-float path: quadrature and bisection call
        # it tens of thousands of times per constant
        if x <= 0:
            raise ValueError("x must be positive")
        p1, p2 = self.p1, self.p2
        p = max(p1, p2)
        if x <= 1.0:
            return (p - 1.0) * x ** (1.0 / (p - 1.0))
        if p2 == 1.0:
            # bounded slope: the conjugate is infinite beyond slope p1, and
            # for x > 1 the argument x*alpha'(u) exceeds p1 at large u
            return math.inf
        q1 = p1 / (p1 - 1.0)
        q2 = p2 / (p2 - 1.0)
        try:
            if p1 >= p2:
                return p1 * (x ** (1.0 / (p2 - 1.0)) / q2 + (1.0 / q1 - 1.0 / q2) / x)
            return max((p1 - 1.0) * x ** (1.0 / (p1 - 1.0)),
                       (p2 - 1.0) * x ** (1.0 / (p2 - 1.0)))
        except OverflowError:
            # a power x ** (1/(p-1)) beyond the float range; every term is
            # positive, so xi is +oo in floats
            return math.inf


class ScaledYoung(YoungFunction):
    """c * alpha for c > 0.  (c*alpha)*(y) = c * alpha*(y/c)."""

    kind = "scaled"

    def __init__(self, base: YoungFunction, c: float):
        if not c > 0:
            raise ValueError("scale factor must be positive")
        self.base = base
        self.c = float(c)

    def __repr__(self):
        return f"ScaledYoung({self.base!r}, {self.c:g})"

    def __call__(self, x):
        return self.c * self.base(x)

    def right_derivative(self, x):
        return self.c * self.base.right_derivative(x)

    def left_derivative(self, x):
        return self.c * self.base.left_derivative(x)

    def conjugate(self, y):
        y = np.asarray(y, dtype=float)
        out = self.c * np.asarray(self.base.conjugate(y / self.c))
        return out if out.ndim else float(out)

    def exponents(self) -> ExponentPair:
        return self.base.exponents()  # ratios are scale invariant

    def xi(self, x):
        return self.base.xi(x)  # invariant under scaling


class TabulatedYoung(YoungFunction):
    """Piecewise-linear interpolant of a sampled cost table.

    The table must start at (0, 0) with strictly increasing x and
    non-decreasing convex values.  One-sided derivatives are the exact
    segment slopes of the interpolant; beyond the last knot the final slope
    is extended, so the conjugate is finite only below that slope.
    """

    kind = "table"

    def __init__(self, xs, values):
        xs = np.asarray(xs, dtype=float)
        values = np.asarray(values, dtype=float)
        if xs.ndim != 1 or xs.shape != values.shape or xs.size < 2:
            raise ValueError("need matching 1-d arrays with at least two rows")
        if not (xs[0] == 0.0 and values[0] == 0.0):
            raise ValueError("table must start at (0, 0)")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("table abscissae must be strictly increasing")
        slopes = np.diff(values) / np.diff(xs)
        if np.any(slopes < -1e-15) or np.any(np.diff(slopes) < -1e-12):
            raise ValueError("table values must be non-decreasing and convex")
        self.xs = xs
        self.values = values
        self._slopes = np.maximum(slopes, 0.0)
        self._hull, self._hull_slopes = _lower_hull(xs, values)

    def __call__(self, x):
        ax = np.abs(np.asarray(x, dtype=float))
        inside = np.interp(ax, self.xs, self.values)
        beyond = self.values[-1] + self._slopes[-1] * (ax - self.xs[-1])
        out = np.where(ax <= self.xs[-1], inside, beyond)
        return out if out.ndim else float(out)

    def _slope_at(self, ax, side: str):
        # slope of the segment containing ax + 0 (side right) or ax - 0
        # (side left); the two differ only at knots.  The clipped index
        # reads the final slope at and beyond the last knot, +oo included
        idx = np.searchsorted(self.xs, ax, side="right" if side == "right" else "left")
        idx = np.clip(idx - 1, 0, self._slopes.size - 1)
        return self._slopes[idx]

    def right_derivative(self, x):
        out = self._slope_at(np.abs(np.asarray(x, dtype=float)), "right")
        return out if out.ndim else float(out)

    def left_derivative(self, x):
        ax = np.abs(np.asarray(x, dtype=float))
        out = np.where(ax == 0.0, 0.0, self._slope_at(ax, "left"))
        return out if out.ndim else float(out)

    def conjugate(self, y):
        """Exact knot maximum max_k (x_k|y| - v_k) (Rockafellar, §12).

        x|y| - alpha(x) is piecewise linear, so its supremum is attained
        at a knot, and at a vertex of the knots' lower convex hull: the
        first vertex whose outgoing hull slope reaches |y| (one binary
        search).  Beyond the last segment slope the linear extension makes
        it diverge, and :class:`UnboundedConjugateError` is raised as the
        bracketed search does.
        """
        ay = np.abs(np.asarray(y, dtype=float))
        if np.any(ay > self._slopes[-1]):
            raise UnboundedConjugateError(
                f"slope never reaches {float(ay.max()):g}; conjugate diverges")
        k = self._hull[np.searchsorted(self._hull_slopes, ay)]
        out = np.maximum(self.xs[k] * ay - self.values[k], 0.0)
        return out if out.ndim else float(out)

    def exponents(self) -> ExponentPair:
        # probe only where the table describes the cost: the first chord
        # (from the origin) and the linear extension beyond the last knot
        # carry growth ratio 1 by construction and would drag the lower
        # exponent there
        lo = self.xs[2] if self.xs.size > 3 else self.xs[1]
        grid = np.geomspace(lo, self.xs[-1] / 2.0, 2049)
        return _exponents_numeric(self, grid)


def _lower_hull(xs: np.ndarray, values: np.ndarray):
    """Lower convex hull of the knots: vertex indices and edge slopes.

    Knots on or above a chord are dropped, so a rounding dip that leaves a
    segment slope below its predecessor cannot hide a higher knot.  The
    slopes pass through a running maximum so the search key stays sorted
    however the chord tests round.
    """
    hull = [0]
    for k in range(1, xs.size):
        while len(hull) > 1:
            a, b = hull[-2], hull[-1]
            if ((values[b] - values[a]) * (xs[k] - xs[a])
                    < (values[k] - values[a]) * (xs[b] - xs[a])):
                break
            hull.pop()
        hull.append(k)
    hull = np.array(hull)
    slopes = np.diff(values[hull]) / np.diff(xs[hull])
    return hull, np.maximum.accumulate(slopes)


def load_table(path) -> TabulatedYoung:
    """Read a two-column text table (x, alpha(x)) into a tabulated cost.

    The origin row (0, 0) is implied by the Young axioms and prepended when
    the table starts at a positive abscissa.
    """
    data = np.loadtxt(path, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns (x, alpha(x))")
    xs, values = data[:, 0], data[:, 1]
    if xs[0] > 0.0:
        xs = np.concatenate([[0.0], xs])
        values = np.concatenate([[0.0], values])
    return TabulatedYoung(xs, values)


# ---------------------------------------------------------------------------
# conjugation


def conjugate_numeric(alpha: YoungFunction, y: float) -> float:
    """Golden-section maximization of the concave map x -> x|y| - alpha(x).

    The bracket [0, x_hi] is grown until the right slope of alpha exceeds
    |y|; if the slope stays below |y| up to 1e12 the supremum is +oo
    (possible only for costs of bounded slope) and
    :class:`UnboundedConjugateError` is raised.  The search stops at a
    bracket below 1e-10 max(1, upper end).
    """
    ay = abs(float(y))
    if ay == 0.0:
        return 0.0
    x_hi = 1.0
    while alpha.right_derivative(x_hi) < ay:
        x_hi *= 2.0
        if x_hi > 1e12:
            raise UnboundedConjugateError(
                f"slope never reaches {ay:g}; conjugate diverges")
    lo, hi = 0.0, x_hi
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc = c * ay - alpha(c)
    fd = d * ay - alpha(d)
    while hi - lo > 1e-10 * max(1.0, hi):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = c * ay - alpha(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = d * ay - alpha(d)
    x = 0.5 * (lo + hi)
    return max(x * ay - alpha(x), 0.0)


# ---------------------------------------------------------------------------
# growth exponents


def _exponents_numeric(alpha: YoungFunction, grid=None) -> ExponentPair:
    u = _U_GRID if grid is None else np.asarray(grid, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        au = np.asarray(alpha(u), dtype=float)
        ok = (au > 0) & np.isfinite(au)
        u, au = u[ok], au[ok]
        ratios_lo = u * alpha.left_derivative(u) / au
        ratios_hi = u * alpha.right_derivative(u) / au
        doubling = alpha(2.0 * u) / au
    if not (np.all(np.isfinite(ratios_hi)) and np.all(np.isfinite(doubling))):
        raise Delta2ViolationError("growth overflows the probe grid")
    r = float(np.min(ratios_lo))
    p = float(np.max(ratios_hi))
    k = float(np.max(doubling))
    # doubling must saturate inside the grid; a ratio still climbing at the
    # top decade (or beyond any sane constant) signals a non-doubling cost
    tail = doubling[u > 1e4]
    if k > 1e6 or (tail.size > 8 and np.all(np.diff(tail) > 1e-9) and tail[-1] > 64.0):
        raise Delta2ViolationError(f"doubling ratio reaches {k:.3g} and keeps growing")
    return ExponentPair(r_exp=min(r, p), p_exp=p, delta2=max(k, 2.0))


# ---------------------------------------------------------------------------
# conjugate-slope ratio

# float64 bytes per (x, u) temporary of the grid stage of xi_numeric
_XI_BLOCK_BYTES = 1 << 20


def xi_numeric(alpha: YoungFunction, x):
    """Grid supremum of alpha*(x alpha'_+(u))/(x alpha(u)) with refinement.

    ``x`` may be an array; every x is evaluated in one lock-step pass and
    a scalar gives a float.  An x returns +oo as soon as one of its
    sampled conjugate values is infinite or unbounded; the other x are
    unaffected.
    """
    xv = np.asarray(x, dtype=float)
    if np.any(xv <= 0):
        raise ValueError("x must be positive")
    xs = xv.ravel()
    u = _U_GRID
    au = alpha(u)
    ok = au > 0
    u, au = u[ok], au[ok]
    du = alpha.right_derivative(u)

    # grid stage, in row blocks whose (rows, u) temporaries stay near 1 MB
    best = np.empty(xs.size)
    k = np.empty(xs.size, dtype=np.intp)
    block = max(1, _XI_BLOCK_BYTES // (8 * u.size))
    for lo in range(0, xs.size, block):
        xb = xs[lo:lo + block, None]
        unbounded = np.zeros(xb.shape[0], dtype=bool)
        ratios = _conjugate_rows(alpha, xb * du, unbounded) / (xb * au)
        finite = np.all(np.isfinite(ratios), axis=1)
        ratios[~finite] = 0.0
        best[lo:lo + block] = np.where(finite, ratios.max(axis=1), np.inf)
        k[lo:lo + block] = ratios.argmax(axis=1)
    live = np.isfinite(best)

    # ternary refinement in log u around each grid argmax, all x in step
    xl = xs[live]
    llo = np.log(u[np.maximum(k[live] - 1, 0)])
    lhi = np.log(u[np.minimum(k[live] + 1, u.size - 1)])
    dead = np.zeros(xl.size, dtype=bool)

    def f(logv):
        v = np.exp(logv)
        conj = _conjugate_rows(alpha, xl * alpha.right_derivative(v), dead)
        return conj / (xl * alpha(v))

    for _ in range(80):
        m1 = llo + (lhi - llo) / 3.0
        m2 = lhi - (lhi - llo) / 3.0
        up = f(m1) < f(m2)
        llo = np.where(up, m1, llo)
        lhi = np.where(up, lhi, m2)
    mid = f(0.5 * (llo + lhi))
    bl = best[live]
    # max(best, mid) as on floats: a nan probe leaves best
    best[live] = np.where(dead, np.inf, np.where(mid > bl, mid, bl))
    out = best.reshape(xv.shape)
    return out if out.ndim else float(out)


def _conjugate_rows(alpha: YoungFunction, args: np.ndarray,
                    dead: np.ndarray) -> np.ndarray:
    """alpha.conjugate over the rows of ``args`` not marked ``dead``.

    One batched call; if it raises :class:`UnboundedConjugateError` the call
    is redone row by row and the rows that raise are marked.  Dead rows
    read +oo.
    """
    try:
        if not dead.any():
            return np.asarray(alpha.conjugate(args), dtype=float)
        out = np.full(args.shape, np.inf)
        out[~dead] = alpha.conjugate(args[~dead])
    except UnboundedConjugateError:
        out = np.full(args.shape, np.inf)
        for i in np.flatnonzero(~dead):
            try:
                out[i] = alpha.conjugate(args[i])
            except UnboundedConjugateError:
                dead[i] = True
    return out


def xi_upper_bound(exp_pair: ExponentPair, x: float) -> float:
    """(p-1) max(x^{1/(p-1)}, x^{1/(r-1)}) with the x**oo convention."""
    r, p = exp_pair.r_exp, exp_pair.p_exp
    a = x ** (1.0 / (p - 1.0))
    b = power_extended(x, math.inf if r == 1.0 else 1.0 / (r - 1.0))
    return (p - 1.0) * max(a, b)


def epsilon_value(p: float, t: float) -> float:
    """Overhead factor (1 - t^{1/(p-1)})^{-(p-1)} - 1 on [0, 1).

    Non-decreasing, 0 at t = 0, diverging as t -> 1.  At p = 2 it reduces
    to t/(1-t).
    """
    if not p > 1.0:
        raise ValueError("exponent must exceed 1")
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must lie in [0, 1), got {t}")
    if t == 0.0:
        return 0.0
    return 1.0 / (1.0 - t ** (1.0 / (p - 1.0))) ** (p - 1.0) - 1.0


# ---------------------------------------------------------------------------
# metric change and validation


def change_metric(alpha: YoungFunction, space):
    """Replace distances by alpha(d)^(1/p); subadditivity of alpha^(1/p)
    makes the result a metric again, which is re-validated here."""
    from . import spaces  # local import; spaces does not import young

    p = alpha.exponents().p_exp
    d = alpha(space.dist) ** (1.0 / p)
    np.fill_diagonal(d, 0.0)
    out = spaces.FiniteMetricSpace(labels=space.labels, dist=d, coords=space.coords)
    problems = out.validate()
    if problems:
        raise ValueError(f"changed metric failed validation: {problems}")
    return out


def validate_young(alpha: YoungFunction) -> list[str]:
    """Sampled diagnostics of the Young axioms on (0, 10]; empty list means valid."""
    xs = np.linspace(0.0, 10.0, 501)[1:]
    problems = []
    if abs(float(alpha(0.0))) > 1e-12:
        problems.append("alpha(0) != 0")
    if float(alpha.right_derivative(0.0)) > 1e-6:
        problems.append("right derivative at 0 is not 0")
    if np.max(np.abs(alpha(xs) - alpha(-xs))) > 1e-12:
        problems.append("not even")
    dp = alpha.right_derivative(xs)
    dm = alpha.left_derivative(xs)
    if np.any(dp <= 0.0):
        problems.append("right derivative not positive on x > 0")
    if np.any(dm - dp > 1e-12):
        problems.append("left derivative exceeds right derivative")
    if np.any(np.diff(dp) < -1e-9 * np.maximum(1.0, dp[:-1])):
        problems.append("right derivative not non-decreasing (convexity fails)")
    return problems
