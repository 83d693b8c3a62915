"""Exact discrete optimal transport with Young-function costs.

Three routes to the same number, kept deliberately independent:

* :func:`optimal_cost` solves the transport linear program (HiGHS) and
  certifies optimality with feasible Kantorovich potentials and a duality
  gap below 1e-9;
* :func:`brute_force_cost` enumerates the basic feasible solutions of the
  transport polytope through spanning-tree bases of the complete bipartite
  graph (exact reference for tiny instances);
* :class:`BasisScanner` reuses the spanning-tree bases as precomputed
  linear maps, evaluating exact costs for large batches of source measures
  against a fixed target (the engine behind dense constant scans).
"""

from __future__ import annotations

import csv
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
    "BasisScanner",
    "plan_to_csv",
]

_DUAL_GAP_TOL = 1e-9


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

    def check(self, nu: ProbMeasure, mu: ProbMeasure, costs: np.ndarray,
              tol: float = 1e-9) -> list[str]:
        problems = []
        if self.row_residual > tol or self.col_residual > tol:
            problems.append("marginal residuals exceed tolerance")
        if abs(float(np.sum(self.matrix * costs)) - self.cost) > tol * max(1.0, abs(self.cost)):
            problems.append("stored cost disagrees with the plan")
        feas = self.potential_source[:, None] + self.potential_target[None, :] - costs
        if float(feas.max()) > tol:
            problems.append("dual potentials infeasible")
        if abs(self.dual_gap) > tol:
            problems.append("duality gap exceeds tolerance")
        return problems


def _cost_matrix(alpha: YoungFunction, space: FiniteMetricSpace) -> np.ndarray:
    m = np.asarray(alpha(space.dist), dtype=float)
    np.fill_diagonal(m, 0.0)
    return m


def optimal_cost(alpha: YoungFunction, space: FiniteMetricSpace,
                 nu: ProbMeasure, mu: ProbMeasure) -> tuple[float, TransportPlan]:
    """Minimal coupling cost of (nu, mu) under the cost alpha(d).

    Row marginals are nu, column marginals mu.  Optimality is certified by
    the returned potentials: phi(i) + psi(j) <= cost(i, j) everywhere and
    phi.nu + psi.mu matches the primal value within 1e-9.
    """
    n = space.size
    if nu.size != n or mu.size != n:
        raise ValueError("measures must live on the space")
    costs = _cost_matrix(alpha, space)
    ones = csr_matrix(np.ones((1, n)))
    ident = eye(n, format="csr")
    a_eq = vstack([kron(ident, ones), kron(ones, ident)]).tocsr()
    b_eq = np.concatenate([nu.weights, mu.weights])
    res = linprog(costs.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if res.status == 2:
        # presolve misreads marginals below its feasibility tolerance
        # (~1e-7) as infeasible; the polytope is never empty for matching
        # total masses, so retry without it
        res = linprog(costs.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                      method="highs", options={"presolve": False})
    if res.status != 0:
        raise SolverFailure(f"linprog status {res.status}: {res.message}")
    plan = res.x.reshape(n, n)
    y = np.asarray(res.eqlin.marginals, dtype=float)
    phi, psi = y[:n], y[n:]
    if float((phi[:, None] + psi[None, :] - costs).max()) > 1e-7:
        phi, psi = -phi, -psi  # backend-dependent sign of equality duals
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
_FLOW_BLOCK_BYTES = 1 << 20


def _tree_solvers(n: int) -> np.ndarray:
    """Stacked solvers for all spanning trees of K_{n,n} (cached)."""
    if n not in _SOLVER_CACHE:
        _SOLVER_CACHE[n] = np.stack([_tree_solver(t, n, n)
                                     for t in _spanning_trees(n, n)])
    return _SOLVER_CACHE[n]


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
    costs = _cost_matrix(alpha, space)
    b = np.concatenate([nu.weights, mu.weights])[: 2 * n - 1]
    trees = _spanning_trees(n, n)
    flows = _tree_solvers(n) @ b  # (T, E)
    edge_costs = np.array([[costs[i, j] for (i, j) in t] for t in trees])
    feasible = np.all(flows >= -feas_tol, axis=1)
    if not np.any(feasible):
        raise SolverFailure("no feasible basic solution (invalid marginals?)")
    vals = (flows * edge_costs).sum(axis=1)
    return max(float(vals[feasible].min()), 0.0)


class BasisScanner:
    """Vectorized exact transport costs for many sources, one target.

    For a fixed spanning tree the basic flow is linear in the marginals;
    stacking the precomputed solvers lets a whole batch of source measures
    be priced with one tensor contraction.  Exact for the same reason the
    brute force is: the minimum runs over all polytope vertices.
    """

    def __init__(self, alpha: YoungFunction, space: FiniteMetricSpace,
                 mu: ProbMeasure):
        n = space.size
        if n > 5:
            raise ValueError("basis scanning restricted to at most 5 points")
        self.n = n
        self.mu = mu
        costs = _cost_matrix(alpha, space)
        trees = _spanning_trees(n, n)
        self._solvers = _tree_solvers(n)  # (T, E, V)
        self._edge_costs = np.array([[costs[i, j] for (i, j) in t] for t in trees])

    def costs(self, nus: np.ndarray, feas_tol: float = 1e-10) -> np.ndarray:
        """Exact transport cost to the fixed target for each row of ``nus``."""
        nus = np.asarray(nus, dtype=float)
        if nus.ndim == 1:
            nus = nus[None, :]
        out = np.empty(nus.shape[0])
        mu_part = self.mu.weights[: self.n - 1]
        # rows per block, keeping the (B, T, 2n-1) flow tensor near 1 MB
        trees, edges, _ = self._solvers.shape
        block = max(1, _FLOW_BLOCK_BYTES // (trees * edges * 8))
        for lo in range(0, nus.shape[0], block):
            batch = nus[lo:lo + block]
            b = np.concatenate([batch, np.broadcast_to(mu_part, (batch.shape[0], self.n - 1))],
                               axis=1)  # (B, 2n-1)
            flows = np.einsum("tev,bv->bte", self._solvers, b)
            feasible = np.all(flows >= -feas_tol, axis=2)  # (B,T)
            vals = np.einsum("bte,te->bt", flows, self._edge_costs)
            vals = np.where(feasible, vals, np.inf)
            out[lo:lo + block] = vals.min(axis=1)
        return np.maximum(out, 0.0)


def plan_to_csv(plan: TransportPlan, costs: np.ndarray, path) -> None:
    """Write the support of the plan as rows (i, j, mass, cost_contrib)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "mass", "cost_contrib"])
        nz = np.argwhere(plan.matrix > 0)
        for i, j in nz:
            mass = plan.matrix[i, j]
            writer.writerow([int(i), int(j), f"{mass:.17g}",
                             f"{mass * costs[i, j]:.17g}"])
