"""Finite metric spaces, probability measures, entropies, discrete slopes.

The ground space is a labelled symmetric distance matrix.  Probability
measures and potentials are plain weight/value vectors over the points.
Products are handled as shaped arrays (one axis per factor) rather than
materialized tuple lists.

The one-sided slope moduli used here are discrete surrogates: the
continuum definition is a limsup as y -> x, which vanishes at isolated
points and hence everywhere on a finite space.  The global variant takes
the extremal difference quotient over all other points; the neighbor
variant restricts to a supplied adjacency (the natural choice on grid
discretizations of intervals and circles, where it converges to the
continuum modulus).  Both are one kernel: the global slope is the
neighbor slope of the adjacency in which every other point is a
neighbor.  Results built on slopes are labelled as surrogate quantities
by the calling layers.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "FiniteMetricSpace",
    "ProbMeasure",
    "ProductSpace",
    "two_point_space",
    "path_space",
    "cycle_space",
    "grid1d_space",
    "space_from_dict",
    "measure_from_dict",
    "relative_entropy",
    "exp_entropy",
    "slope",
    "slope_vector",
    "grid_adjacency",
]


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Labelled finite metric space given by its distance matrix."""

    labels: tuple
    dist: np.ndarray = field(repr=False)
    coords: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        d = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "dist", d)
        if self.coords is not None:
            object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        if len(self.labels) != d.shape[0]:
            raise ValueError("label count must match matrix size")

    @property
    def size(self) -> int:
        return self.dist.shape[0]

    def validate(self, tol: float = 1e-9) -> list[str]:
        """List of violated metric axioms (empty means valid)."""
        d = self.dist
        problems = []
        if np.any(np.abs(np.diag(d)) > tol):
            problems.append("nonzero diagonal")
        if np.any(np.abs(d - d.T) > tol):
            problems.append("asymmetric")
        off = d[~np.eye(self.size, dtype=bool)]
        if off.size and np.min(off) <= 0.0:
            problems.append("non-positive off-diagonal distance (duplicate points)")
        if np.any(d < 0):
            problems.append("negative distance")
        # d(i,k) <= min_j d(i,j) + d(j,k), checked in chunks to bound memory
        for i0 in range(0, self.size, 64):
            block = d[i0:i0 + 64, :, None] + d[None, :, :]
            if np.any(block.min(axis=1) < d[i0:i0 + 64] - tol):
                problems.append("triangle inequality violated")
                break
        return problems

    def min_distance(self) -> float:
        off = self.dist[~np.eye(self.size, dtype=bool)]
        return float(off.min()) if off.size else 0.0


@dataclass(frozen=True)
class ProbMeasure:
    """Probability weights over the points of a space."""

    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1:
            raise ValueError("weights must be a vector")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {w.sum():.15g}, not 1")

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0.0)

    def is_dirac(self) -> bool:
        return int(np.count_nonzero(self.weights)) == 1

    @staticmethod
    def uniform(n: int) -> "ProbMeasure":
        return ProbMeasure(np.full(n, 1.0 / n))

    @staticmethod
    def dirac(n: int, i: int) -> "ProbMeasure":
        w = np.zeros(n)
        w[i] = 1.0
        return ProbMeasure(w)

    @staticmethod
    def normalized(raw) -> "ProbMeasure":
        w = np.asarray(raw, dtype=float)
        s = w.sum()
        if not (s > 0 and np.all(np.isfinite(w))):
            raise ValueError("cannot normalize: non-positive or non-finite mass")
        return ProbMeasure(w / s)


# ---------------------------------------------------------------------------
# constructors


def two_point_space(d: float, labels=("a", "b")) -> FiniteMetricSpace:
    if d <= 0:
        raise ValueError("distance must be positive")
    return FiniteMetricSpace(labels, np.array([[0.0, d], [d, 0.0]]))


def path_space(count: int, spacing: float = 1.0, start: float = 0.0) -> FiniteMetricSpace:
    """Points on a line, consecutive spacing ``spacing``; line metric."""
    xs = start + spacing * np.arange(count, dtype=float)
    d = np.abs(xs[:, None] - xs[None, :])
    return FiniteMetricSpace(tuple(f"p{i}" for i in range(count)), d, coords=xs)


def grid1d_space(count: int, spacing: float, start: float = 0.0) -> FiniteMetricSpace:
    """Uniform 1-d grid; same metric as a path, named for config files."""
    return path_space(count, spacing, start)


def cycle_space(count: int, spacing: float = 1.0) -> FiniteMetricSpace:
    """Points on a circle with arc-length (hop-count) metric."""
    idx = np.arange(count)
    hops = np.abs(idx[:, None] - idx[None, :])
    hops = np.minimum(hops, count - hops)
    return FiniteMetricSpace(tuple(f"c{i}" for i in range(count)),
                             spacing * hops.astype(float),
                             coords=idx.astype(float) * spacing)


def grid_adjacency(count: int, wrap: bool = False) -> list[np.ndarray]:
    """Nearest-neighbor adjacency of a path (or cycle when ``wrap``)."""
    out = []
    for i in range(count):
        nbrs = [j for j in (i - 1, i + 1) if 0 <= j < count]
        if wrap:
            nbrs = [(i - 1) % count, (i + 1) % count]
        out.append(np.array(sorted(set(nbrs)), dtype=int))
    return out


_GENERATORS = {"path": path_space, "cycle": cycle_space, "grid1d": grid1d_space}


def space_from_dict(spec: dict) -> FiniteMetricSpace:
    """Build a space from a config mapping.

    Either explicit ``labels`` + ``dist`` or a ``generator`` entry
    {kind: path|cycle|grid1d, count, spacing[, start]}.
    """
    if "generator" in spec:
        g = dict(spec["generator"])
        kind = g.pop("kind")
        if kind not in _GENERATORS:
            raise ValueError(f"unknown generator kind {kind!r}")
        return _GENERATORS[kind](**g)
    if "dist" in spec:
        dist = np.asarray(spec["dist"], dtype=float)
        labels = spec.get("labels") or [str(i) for i in range(dist.shape[0])]
        coords = spec.get("coords")
        space = FiniteMetricSpace(labels, dist,
                                  coords=None if coords is None else np.asarray(coords))
        problems = space.validate()
        if problems:
            raise ValueError(f"invalid space: {', '.join(problems)}")
        return space
    raise ValueError("space spec needs 'dist' or 'generator'")


def measure_from_dict(spec: dict, space: FiniteMetricSpace) -> ProbMeasure:
    """Build a measure from explicit weights or a density expression.

    Explicit weights must already sum to 1 (tolerance 1e-12); a ``density``
    expression in the grid coordinate x is evaluated with numpy semantics
    over a whitelisted grammar and normalized on load.
    """
    if "weights" in spec:
        return ProbMeasure(np.asarray(spec["weights"], dtype=float))
    if "density" in spec:
        if space.coords is None:
            raise ValueError("density expressions need a space with coordinates")
        raw = _eval_density(spec["density"], space.coords)
        return ProbMeasure.normalized(np.broadcast_to(raw, (space.size,)).astype(float))
    if spec.get("uniform"):
        return ProbMeasure.uniform(space.size)
    raise ValueError("measure spec needs 'weights', 'density' or 'uniform'")


_DENSITY_FUNCS = {"exp": np.exp, "abs": np.abs, "cos": np.cos, "sin": np.sin,
                  "sqrt": np.sqrt}
_DENSITY_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
                   ast.Mult: operator.mul, ast.Div: operator.truediv,
                   ast.Pow: operator.pow}
_DENSITY_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _eval_density(text: str, x: np.ndarray):
    """Evaluate a density formula in the coordinate ``x``.

    Config text is data, so it is never passed to ``eval``: the formula is
    parsed and walked over a whitelist of numbers, ``x``, ``pi``,
    ``+ - * / **``, unary signs and one-argument calls to exp, abs, cos,
    sin and sqrt (bare or ``np.``-prefixed).  Numbers are taken as floats.
    Anything else, and arithmetic that overflows or divides by zero on
    constants, raises ValueError.
    """
    try:
        tree = ast.parse(str(text), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"density {text!r} is not an expression: {exc.msg}") from exc

    def func_name(node):
        if isinstance(node, ast.Name):
            return node.id
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "np"):
            return node.attr
        return None

    names = {"x": x, "pi": np.pi}

    def walk(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            # floats, so a constant power overflows at once instead of
            # building an unbounded integer
            return float(node.value)
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in _DENSITY_BINOPS:
            return _DENSITY_BINOPS[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _DENSITY_UNARY:
            return _DENSITY_UNARY[type(node.op)](walk(node.operand))
        if (isinstance(node, ast.Call) and len(node.args) == 1 and not node.keywords
                and func_name(node.func) in _DENSITY_FUNCS):
            return _DENSITY_FUNCS[func_name(node.func)](walk(node.args[0]))
        raise ValueError(f"density {text!r}: {ast.unparse(node)!r} is not allowed "
                         "(numbers, x, pi, + - * / **, exp/abs/cos/sin/sqrt)")

    try:
        return walk(tree.body)
    except ArithmeticError as exc:
        raise ValueError(f"density {text!r} cannot be evaluated: {exc}") from exc


# ---------------------------------------------------------------------------
# entropies


def _entropy_vec(nus: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Relative entropies of the rows of nus against mu: sum nu log(nu/mu)
    over nu > 0, +oo where some nu > 0 sits on mu = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(nus > 0, nus * np.log(nus / mu), 0.0)
    return terms.sum(axis=1)


def _gauge_entropy(mu: np.ndarray, fs: np.ndarray):
    """Rows gauge-shifted to max 0, their weights mu e^f and Ent(e^f).

    Every temporary follows the layout of ``fs``.  Row sums follow it too:
    point-major grids (2-3 points) sum each row in point order, which is
    the order numpy takes along a row shorter than 8 entries.
    """
    fs = fs - fs.max(axis=1, keepdims=True)
    raw = mu[None, :] * np.exp(fs)
    mass = raw.sum(axis=1)
    return fs, raw, (raw * fs).sum(axis=1) - mass * np.log(mass)


def relative_entropy(nu: ProbMeasure, mu: ProbMeasure) -> float:
    """KL divergence sum nu log(nu/mu); +oo off absolute continuity."""
    n, m = nu.weights, mu.weights
    if n.shape != m.shape:
        raise ValueError("measures live on different spaces")
    return float(_entropy_vec(n[None, :], m)[0])


def exp_entropy(mu, f) -> float:
    """Ent(e^f) = int e^f (f - log int e^f dmu) dmu, shift-stabilized.

    ``mu`` may be a ProbMeasure or a weight array of the same shape as
    ``f`` (used for product measures).  Homogeneity Ent(e^{f+c}) =
    e^c Ent(e^f) is applied with c = max f so the exponentials stay tame.
    """
    w = mu.weights if isinstance(mu, ProbMeasure) else np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    if w.shape != f.shape:
        raise ValueError("weights and potential have different shapes")
    _, _, ent = _gauge_entropy(w.ravel(), f.reshape(1, -1))
    return math.exp(float(f.max())) * float(ent[0])


# ---------------------------------------------------------------------------
# slopes


def _rectify(diff: np.ndarray, sign: str) -> np.ndarray:
    if sign == "+":
        return np.maximum(diff, 0.0)
    if sign == "-":
        return np.maximum(-diff, 0.0)
    raise ValueError("sign must be '+' or '-'")


def slope(space: FiniteMetricSpace, f, i: int, sign: str = "+",
          adjacency: list[np.ndarray] | None = None) -> float:
    """One-sided difference-quotient modulus at point i.

    Global mode (no adjacency) maximizes over all other points; neighbor
    mode restricts to adjacency[i].  Empty neighborhoods give 0 (isolated
    point).
    """
    return float(slope_vector(space, f, sign, adjacency)[i])


class _Neighbours(NamedTuple):
    """Neighbour lists padded to k slots: point i's s-th neighbour is
    ``idx[s, i]`` at distance ``dist[s, i]``.

    Short lists repeat their own neighbours, so maxima are unchanged; a
    point with no neighbours points at itself at infinite distance, so its
    quotients are 0/inf = 0.  No adjacency means every other point: slot s
    of point i is point (i + s + 1) mod n.
    """

    idx: np.ndarray
    dist: np.ndarray


def _neighbours(space: FiniteMetricSpace, adjacency) -> _Neighbours:
    if isinstance(adjacency, _Neighbours):
        return adjacency
    points = np.arange(space.size)
    if adjacency is None:
        adjacency = [(i + np.arange(1, space.size)) % space.size for i in points]
    k = max([1] + [len(js) for js in adjacency])
    idx = np.repeat(points[None, :], k, axis=0)
    lone = np.ones(space.size, dtype=bool)
    for i, js in enumerate(adjacency):
        if len(js):
            idx[:, i] = np.resize(np.asarray(js, dtype=np.intp), k)
            lone[i] = False
    dist = space.dist[points, idx]
    dist[:, lone] = np.inf
    return _Neighbours(idx, dist)


def slope_vector(space: FiniteMetricSpace, f, sign: str = "+",
                 adjacency: list[np.ndarray] | None = None) -> np.ndarray:
    """Slope modulus at every point, for f of shape (n,) or (..., n).

    A running maximum over the padded neighbour slots (every other point
    when ``adjacency`` is None), one (rows, n) gather each, so every
    temporary has the shape of ``f``.  A caller that evaluates many f on
    one adjacency may pass ``_neighbours(space, adjacency)`` to pad it once.
    """
    f = np.asarray(f, dtype=float)
    fs = f.reshape(-1, space.size)
    nb = _neighbours(space, adjacency)
    out = _rectify(fs[:, nb.idx[0]] - fs, sign) / nb.dist[0]
    for idx, dist in zip(nb.idx[1:], nb.dist[1:]):
        np.maximum(out, _rectify(fs[:, idx] - fs, sign) / dist, out=out)
    return out.reshape(f.shape)


# ---------------------------------------------------------------------------
# products


@dataclass(frozen=True)
class ProductSpace:
    """n-fold product of a base space; points are index tuples.

    Functions on the product are ndarrays of shape (size,)*n.  The cost
    between tuples is supplied by the operations that use it (a sum of
    per-coordinate costs), so nothing quadratic in the tuple count is
    stored here.
    """

    base: FiniteMetricSpace
    n: int

    def __post_init__(self):
        if not 1 <= self.n <= 3:
            raise ValueError("product order limited to 1..3")
        if self.base.size ** self.n > 10**6:
            raise ValueError("product space too large to enumerate")

    @property
    def shape(self) -> tuple:
        return (self.base.size,) * self.n

    @property
    def size(self) -> int:
        return self.base.size ** self.n

    def product_weights(self, mu: ProbMeasure) -> np.ndarray:
        """Tensor-power weights of mu, shaped (size,)*n."""
        w = mu.weights
        out = w
        for _ in range(self.n - 1):
            out = np.multiply.outer(out, w)
        return out
