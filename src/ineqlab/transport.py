"""Exact discrete optimal transport with Young-function costs.

Three routes to the same number, kept deliberately independent, and one
feasible upper bound:

* :func:`optimal_cost` solves the transport linear program once (HiGHS,
  presolve off) and certifies optimality with feasible Kantorovich
  potentials and a duality gap below 1e-9;
* :func:`brute_force_cost` enumerates the basic feasible solutions of the
  transport polytope through spanning-tree bases of the complete bipartite
  graph (exact primal reference for tiny instances);
* :class:`BasisScanner` works on the dual side: the cost is the maximum of
  phi.nu + psi.mu over the dual-feasible spanning-tree potentials, a small
  table that depends on the target but not on the source, so a batch of
  sources is priced by one contraction and a row maximum (the engine
  behind dense constant scans);
* :func:`northwest_corner_cost` prices the north-west-corner coupling in
  index order.  It is feasible, so it bounds the optimum from above on any
  space, and on a line with sorted points and a cost convex in the distance
  it is the monotone coupling and attains it (the LP scan above five points
  uses it to skip sources that cannot win).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix, eye, kron, vstack

from .spaces import FiniteMetricSpace, ProbMeasure
from .young import YoungFunction

__all__ = [
    "TransportPlan",
    "SolverFailure",
    "optimal_cost",
    "brute_force_cost",
    "northwest_corner_cost",
    "BasisScanner",
    "cost_matrix",
]

_DUAL_GAP_TOL = 1e-9
# largest reduced-cost violation a tree's potentials may have and still
# count as a dual vertex (the excess is subtracted, so values stay bounds)
_DUAL_FEAS_TOL = 1e-10


class SolverFailure(RuntimeError):
    """The LP backend failed on a feasible instance (internal error)."""


@dataclass(frozen=True)
class TransportPlan:
    """An optimal coupling with its certificate."""

    matrix: np.ndarray = field(repr=False)
    cost: float
    row_residual: float
    col_residual: float
    potential_source: np.ndarray = field(repr=False)
    potential_target: np.ndarray = field(repr=False)
    dual_gap: float


def cost_matrix(alpha: YoungFunction, space: FiniteMetricSpace,
                lam: float = 1.0) -> np.ndarray:
    """The cost lam * alpha(d(i, j)) with an exactly zero diagonal."""
    m = lam * np.asarray(alpha(space.dist), dtype=float)
    np.fill_diagonal(m, 0.0)
    return m


@functools.lru_cache(maxsize=None)
def _marginal_constraints(n: int) -> csr_matrix:
    """Row-sum then column-sum constraints on a row-major n x n plan."""
    ones = csr_matrix(np.ones((1, n)))
    ident = eye(n, format="csr")
    return vstack([kron(ident, ones), kron(ones, ident)]).tocsr()


def optimal_cost(alpha: YoungFunction, space: FiniteMetricSpace,
                 nu: ProbMeasure, mu: ProbMeasure) -> tuple[float, TransportPlan]:
    """Minimal coupling cost of (nu, mu) under the cost alpha(d).

    Row marginals are nu, column marginals mu.  Optimality is certified by
    the returned potentials: phi(i) + psi(j) <= cost(i, j) everywhere and
    phi.nu + psi.mu matches the primal value, both within 1e-9, or
    :class:`SolverFailure` is raised.

    HiGHS runs once, without presolve.  Presolve can misread marginals
    near or below its feasibility tolerance (about 1e-7, as in the tails of
    a discretized Gaussian) as an infeasible LP, although the transport
    polytope is never empty for equal total masses; and these LPs also
    solve faster without it.
    """
    n = space.size
    if nu.size != n or mu.size != n:
        raise ValueError("measures must live on the space")
    costs = cost_matrix(alpha, space)
    a_eq = _marginal_constraints(n)
    b_eq = np.concatenate([nu.weights, mu.weights])
    # one solve, presolve off: presolve can misread sub-tolerance marginals
    # as infeasible (see the docstring)
    res = linprog(costs.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs", options={"presolve": False})
    if res.status != 0:
        raise SolverFailure(f"linprog status {res.status}: {res.message}")
    plan = res.x.reshape(n, n)
    y = np.asarray(res.eqlin.marginals, dtype=float)
    phi, psi = y[:n], y[n:]
    if float((phi[:, None] + psi[None, :] - costs).max()) > 1e-7:
        phi, psi = -phi, -psi  # backend-dependent sign of equality duals
    violation = float((phi[:, None] + psi[None, :] - costs).max())
    if violation > _DUAL_GAP_TOL:
        raise SolverFailure(f"dual potentials violate the cost by {violation:.3g}")
    cost = float(res.fun)
    gap = cost - float(phi @ nu.weights + psi @ mu.weights)
    out = TransportPlan(
        matrix=plan,
        cost=cost,
        row_residual=float(np.abs(plan.sum(axis=1) - nu.weights).max()),
        col_residual=float(np.abs(plan.sum(axis=0) - mu.weights).max()),
        potential_source=phi,
        potential_target=psi,
        dual_gap=gap,
    )
    if abs(gap) > _DUAL_GAP_TOL:
        raise SolverFailure(f"duality gap {gap:.3g} exceeds {_DUAL_GAP_TOL:g}")
    return cost, out


# ---------------------------------------------------------------------------
# spanning-tree bases

_TREE_CACHE: dict[tuple[int, int], list[tuple[tuple[int, int], ...]]] = {}


def _spanning_trees(m: int, n: int) -> list[tuple[tuple[int, int], ...]]:
    """All spanning trees of the complete bipartite graph K_{m,n}.

    Enumerated by filtering edge subsets of size m+n-1 with a union-find
    acyclicity check; cached per size (m^{n-1} n^{m-1} trees).
    """
    key = (m, n)
    if key in _TREE_CACHE:
        return _TREE_CACHE[key]
    edges = [(i, j) for i in range(m) for j in range(n)]
    k = m + n - 1
    trees = []
    for subset in itertools.combinations(edges, k):
        parent = list(range(m + n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        acyclic = True
        for (i, j) in subset:
            ra, rb = find(i), find(m + j)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if acyclic:
            trees.append(subset)
    _TREE_CACHE[key] = trees
    return trees


def _tree_solver(tree, m: int, n: int) -> np.ndarray:
    """Inverse basis matrix mapping reduced marginals to edge flows.

    Conservation at every vertex gives m+n equations in m+n-1 tree flows
    with one redundancy (equal total mass); dropping the last column
    equation leaves an invertible system.
    """
    k = m + n - 1
    a = np.zeros((m + n, k))
    for e, (i, j) in enumerate(tree):
        a[i, e] = 1.0
        a[m + j, e] = 1.0
    return np.linalg.inv(a[:k, :])


_SOLVER_CACHE: dict[int, np.ndarray] = {}


def _tree_solvers(n: int) -> np.ndarray:
    """Stacked solvers for all spanning trees of K_{n,n} (cached)."""
    if n not in _SOLVER_CACHE:
        _SOLVER_CACHE[n] = np.stack([_tree_solver(t, n, n)
                                     for t in _spanning_trees(n, n)])
    return _SOLVER_CACHE[n]


_EDGE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _tree_edges(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(T, 2n-1) source and target indices of every spanning tree's edges,
    so ``costs[rows, cols]`` gathers all tree edge costs at once (cached)."""
    if n not in _EDGE_CACHE:
        edges = np.array(_spanning_trees(n, n), dtype=np.intp)  # (T, E, 2)
        _EDGE_CACHE[n] = (edges[:, :, 0], edges[:, :, 1])
    return _EDGE_CACHE[n]


def brute_force_cost(alpha: YoungFunction, space: FiniteMetricSpace,
                     nu: ProbMeasure, mu: ProbMeasure,
                     feas_tol: float = 1e-10) -> float:
    """Exact optimum as the minimum over basic feasible solutions.

    Every vertex of the transport polytope is the flow of some spanning
    tree of K_{n,n}; a linear program attains its optimum at a vertex, so
    the minimum over feasible tree flows is the exact cost.  Restricted to
    spaces with at most 5 points.
    """
    n = space.size
    if n > 5:
        raise ValueError("brute force restricted to at most 5 points")
    costs = cost_matrix(alpha, space)
    b = np.concatenate([nu.weights, mu.weights])[: 2 * n - 1]
    flows = _tree_solvers(n) @ b  # (T, E)
    edge_costs = costs[_tree_edges(n)]
    feasible = np.all(flows >= -feas_tol, axis=1)
    if not np.any(feasible):
        raise SolverFailure("no feasible basic solution (invalid marginals?)")
    vals = (flows * edge_costs).sum(axis=1)
    return max(float(vals[feasible].min()), 0.0)


def northwest_corner_cost(alpha: YoungFunction, space: FiniteMetricSpace,
                          nu: ProbMeasure | np.ndarray,
                          mu: ProbMeasure) -> float | np.ndarray:
    """Cost of the north-west-corner coupling of (nu, mu) in index order.

    The plan is filled greedily from (0, 0): each step ships the smaller of
    the remaining source and target masses, then moves down past an
    exhausted source or right past a filled target, so it takes at most
    2n - 1 steps.  The coupling is feasible, hence an upper bound on
    :func:`optimal_cost` on any space; on a line with sorted points and a
    cost convex in the distance it is the monotone coupling and exact.
    Mass beyond the smaller total is left unshipped.

    ``nu`` is one measure, or a (B, n) array of source masses for one cost
    per row; a row costs the same float as alone.
    """
    n = space.size
    batch = not isinstance(nu, ProbMeasure)
    srcs = np.asarray(nu, dtype=float) if batch else nu.weights[None, :]
    if srcs.ndim != 2 or srcs.shape[1] != n or mu.size != n:
        raise ValueError("measures must live on the space")
    out = _northwest_corner(cost_matrix(alpha, space), srcs, mu.weights)
    return out if batch else float(out[0])


def _northwest_corner(costs: np.ndarray, srcs: np.ndarray,
                      dst: np.ndarray) -> np.ndarray:
    """North-west-corner cost of each row of ``srcs`` against ``dst``: the
    cost matrix is listed once, and each row runs the same Python float
    loop."""
    c = costs.tolist()
    dst = dst.tolist()
    n = len(dst)
    out = []
    for src in srcs.tolist():
        i = j = 0
        a, b = src[0], dst[0]
        total = 0.0
        while True:
            m = min(a, b)
            total += m * c[i][j]
            a -= m
            b -= m
            if a <= b:  # source i is exhausted
                i += 1
                if i == n:
                    break
                a = src[i]
            else:
                j += 1
                if j == n:
                    break
                b = dst[j]
        out.append(total)
    return np.array(out, dtype=float)


class BasisScanner:
    """Vectorized exact transport costs for many sources, one target.

    By LP duality the cost is the maximum of phi.nu + psi.mu over the
    vertices of {phi_i + psi_j <= c_ij, psi_last = 0}.  Each vertex is the
    potential pair of a spanning-tree basis of K_{n,n} (tight on the tree
    edges), and which trees are dual feasible does not depend on nu; the
    feasible ones are tabulated once, so pricing a batch is one contraction
    and a row maximum.  Every term is a weak-duality lower bound.
    """

    def __init__(self, alpha: YoungFunction, space: FiniteMetricSpace,
                 mu: ProbMeasure):
        n = space.size
        if n > 5:
            raise ValueError("basis scanning restricted to at most 5 points")
        self.n = n
        costs = cost_matrix(alpha, space)
        edge_costs = costs[_tree_edges(n)]
        y = np.einsum("tev,te->tv", _tree_solvers(n), edge_costs)
        phi = y[:, :n]
        psi = np.concatenate([y[:, n:], np.zeros((y.shape[0], 1))], axis=1)
        viol = (phi[:, :, None] + psi[:, None, :] - costs).max(axis=(1, 2))
        keep = viol <= _DUAL_FEAS_TOL
        self._phi = phi[keep]  # (V, n)
        self._offset = psi[keep] @ mu.weights - np.maximum(viol[keep], 0.0)

    def costs(self, nus: np.ndarray) -> np.ndarray:
        """Exact transport cost to the fixed target for each row of ``nus``."""
        nus = np.atleast_2d(np.asarray(nus, dtype=float))
        # einsum, not a BLAS matmul, so a row's value is independent of its batch
        vals = np.einsum("bk,vk->bv", nus, self._phi) + self._offset
        return np.maximum(vals.max(axis=1), 0.0)
