"""Exact discrete optimal transport with Young-function costs.

Three routes to the same number, kept deliberately independent, and one
feasible upper bound:

* :func:`optimal_cost` solves the transport linear program straight
  through SciPy's bundled HiGHS bindings (:func:`linprog`: dual simplex,
  presolve off, by column generation from a shortlist of cheap cells,
  priced against the duals over all n^2 cells), checks the plan against
  its marginals and certifies optimality with feasible Kantorovich
  potentials and a duality gap below 1e-9; HiGHS returns the row duals
  with the sign of phi_i + psi_j <= c_ij, so they are used as they come;
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

The brute-force oracle and the scanner read one cached table per size: the
edges and inverse bases of every spanning tree of K_{n,n}
(:func:`_tree_bases`).  Each LP solve builds its own HiGHS model on its
columns (:func:`_transport_lp`), so solves share no state.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize._highspy._core as _highs

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
# largest negative entry and marginal residual a solved plan may have: the
# 10 * sqrt(1e-9) that SciPy's linprog applies in its own result check
_PRIMAL_TOL = 10 * np.sqrt(1e-9)
# largest reduced-cost violation a tree's potentials may have and still
# count as a dual vertex (the excess is subtracted, so values stay bounds),
# and that a cell outside linprog's columns may have and stay out
_DUAL_FEAS_TOL = 1e-10
# cheapest cells of each row and of each column in linprog's first columns:
# a smaller k solves a Gaussian line faster but needs more re-solves on
# planar and cycle spaces, where k <= 4 is slower than the dense LP
_SHORTLIST_K = 8
# most negative flow a spanning tree's basic solution may carry and still
# count as feasible in brute_force_cost
_TREE_FEAS_TOL = 1e-10


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


def _transport_lp(costs: np.ndarray, b_eq: np.ndarray,
                  cols: np.ndarray) -> tuple:
    """The arguments of HiGHS's array ``passModel`` for the transport LP of
    an n x n plan restricted to the cells ``cols`` (ascending row-major
    indices): the sizes, minimisation, their costs, the bounds
    0 <= x < inf, every row equal to its entry of ``b_eq``, the column-wise
    (CSC) row-sum then column-sum constraints, where the column of cell
    i*n + j has a one in row i and one in row n + j, and every column
    continuous.  Arrays go to HiGHS as they are; setting the fields of a
    ``HighsLp`` instead converts them element by element."""
    n = b_eq.size // 2
    m = cols.size
    i, j = np.divmod(cols, n)
    return (m, 2 * n, 2 * m, int(_highs.MatrixFormat.kColwise),
            int(_highs.ObjSense.kMinimize), 0.0,
            costs[cols], np.zeros(m), np.full(m, _highs.kHighsInf), b_eq, b_eq,
            np.arange(0, 2 * m + 1, 2, dtype=np.int32),
            np.column_stack([i, n + j]).ravel().astype(np.int32), np.ones(2 * m),
            np.zeros(m, dtype=np.int32))


@functools.cache
def _highs_options() -> _highs.HighsOptions:
    """The options SciPy's linprog(method="highs") passes to HiGHS with
    presolve off: dual simplex, no output."""
    opts = _highs.HighsOptions()
    opts.presolve = "off"
    strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.simplex_strategy = int(strategy)
    opts.output_flag = False
    opts.log_to_console = False
    return opts


def _highs_run(costs: np.ndarray, b_eq: np.ndarray,
               cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """One HiGHS solve of the transport LP on the plan cells ``cols``
    (:func:`_transport_lp`).  Returns the row-major plan x, zero outside
    ``cols``, the row duals and the objective; over all n^2 cells these are
    bit for bit what SciPy's ``linprog(..., method="highs",
    options={"presolve": False})`` returns as x, eqlin.marginals and fun.
    A model status other than optimal raises :class:`SolverFailure`."""
    highs = _highs._Highs()
    highs.passOptions(_highs_options())
    highs.passModel(*_transport_lp(costs, b_eq, cols))
    highs.run()
    status = highs.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        raise SolverFailure(f"HiGHS model status {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x = np.zeros(costs.size)
    x[cols] = solution.col_value
    return x, np.array(solution.row_dual), highs.getInfo().objective_function_value


def _shortlist(costs: np.ndarray, b_eq: np.ndarray) -> np.ndarray:
    """The first cells of :func:`linprog`, as an n x n mask: the
    ``_SHORTLIST_K`` cheapest cells of each row and of each column, and the
    support of the north-west-corner plan of the marginals, which is
    feasible whenever the full LP is.  Every cell when n <= _SHORTLIST_K."""
    n = costs.shape[0]
    if n <= _SHORTLIST_K:
        return np.ones((n, n), dtype=bool)
    keep = np.zeros((n, n), dtype=bool)
    rows = np.argpartition(costs, _SHORTLIST_K - 1, axis=1)[:, :_SHORTLIST_K]
    keep[np.arange(n)[:, None], rows] = True
    cols = np.argpartition(costs, _SHORTLIST_K - 1, axis=0)[:_SHORTLIST_K]
    keep[cols, np.arange(n)[None, :]] = True
    for i, j, _ in _northwest_walk(b_eq[:n].tolist(), b_eq[n:].tolist()):
        keep[i, j] = True
    return keep


def linprog(costs: np.ndarray,
            b_eq: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Min costs.x subject to the marginal constraints of an n x n plan
    equal to ``b_eq`` (row sums then column sums) and x >= 0, by column
    generation (the shortlist method of Gottschlich & Schuhmacher, PLoS ONE
    9, 2014).  HiGHS solves the LP on the cells of :func:`_shortlist`
    (:func:`_highs_run`); every cell outside them whose reduced cost
    c_ij - phi_i - psi_j under the returned row duals is below
    -_DUAL_FEAS_TOL joins them, and the LP is solved again, until no cell
    is left to add.  The cells only grow, so this ends, at the latest on
    the full LP.  Returns the row-major plan x, the row duals and the
    objective of the last solve; for n <= _SHORTLIST_K that is the one
    dense solve.  A model status other than optimal raises
    :class:`SolverFailure`."""
    n = b_eq.size // 2
    c = costs.reshape(n, n)
    keep = _shortlist(c, b_eq)
    while True:
        x, y, fun = _highs_run(costs, b_eq, np.flatnonzero(keep))
        add = (y[:n, None] + y[None, n:] - c > _DUAL_FEAS_TOL) & ~keep
        if not add.any():
            return x, y, fun
        keep |= add


def optimal_cost(alpha: YoungFunction, space: FiniteMetricSpace,
                 nu: ProbMeasure, mu: ProbMeasure) -> tuple[float, TransportPlan]:
    """Minimal coupling cost of (nu, mu) under the cost alpha(d).

    Row marginals are nu, column marginals mu.  The plan must be
    nonnegative and meet both marginals within 10 * sqrt(1e-9), the
    tolerance of SciPy's linprog result check; optimality is certified by the
    returned potentials: phi(i) + psi(j) <= cost(i, j) everywhere and
    phi.nu + psi.mu matches the primal value, both within 1e-9.  Otherwise
    :class:`SolverFailure` is raised.

    :func:`linprog` is called once; it runs HiGHS without presolve on a
    growing set of columns until no other cell prices below zero.  Presolve
    can misread marginals near or below its feasibility tolerance (about
    1e-7, as in the tails of a discretized Gaussian) as an infeasible LP,
    although the transport polytope is never empty for equal total masses;
    and these LPs also solve faster without it.  The certificate is checked
    here on the full cost matrix, whatever columns the last solve used.
    """
    n = space.size
    if nu.size != n or mu.size != n:
        raise ValueError("measures must live on the space")
    costs = cost_matrix(alpha, space)
    x, y, cost = linprog(costs.ravel(), np.concatenate([nu.weights, mu.weights]))
    plan = x.reshape(n, n)
    row_residual = float(np.abs(plan.sum(axis=1) - nu.weights).max())
    col_residual = float(np.abs(plan.sum(axis=0) - mu.weights).max())
    # np.max keeps a NaN, which then fails the comparison
    residual = float(np.max([row_residual, col_residual, -plan.min()]))
    if not residual <= _PRIMAL_TOL or np.isnan(cost):
        raise SolverFailure(f"primal residual {residual:.3g} exceeds {_PRIMAL_TOL:.3g}")
    phi, psi = y[:n], y[n:]
    violation = float((phi[:, None] + psi[None, :] - costs).max())
    if violation > _DUAL_GAP_TOL:
        raise SolverFailure(f"dual potentials violate the cost by {violation:.3g}")
    gap = cost - float(phi @ nu.weights + psi @ mu.weights)
    out = TransportPlan(
        matrix=plan,
        cost=cost,
        row_residual=row_residual,
        col_residual=col_residual,
        potential_source=phi,
        potential_target=psi,
        dual_gap=gap,
    )
    if abs(gap) > _DUAL_GAP_TOL:
        raise SolverFailure(f"duality gap {gap:.3g} exceeds {_DUAL_GAP_TOL:g}")
    return cost, out


# ---------------------------------------------------------------------------
# spanning-tree bases

# edge subsets tested per batched determinant in _tree_bases
_TREE_BLOCK = 1 << 12


@functools.cache
def _tree_bases(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every spanning tree of K_{n,n}: the (T, 2n-1) source and target
    indices of its edges, so ``costs[rows, cols]`` gathers all tree edge
    costs at once, and its (T, 2n-1, 2n-1) inverse basis, which maps the
    reduced marginals ``concat(nu, mu)[:2n-1]`` to the tree's edge flows.

    Conservation at every vertex gives 2n equations in 2n-1 tree flows with
    one redundancy (equal total mass), so the basis is the vertex-by-edge
    incidence matrix without the last target's row.  The (2n-1)-edge
    subsets are taken in ``itertools.combinations`` order, a block at a
    time; a subset is a spanning tree exactly when its basis is invertible,
    and the incidence matrix is totally unimodular, so the determinant is 0
    or +-1.  There are n^(2n-2) trees; cached per size.
    """
    k = 2 * n - 1
    total = n ** (2 * n - 2)
    rows = np.empty((total, k), dtype=np.intp)
    cols = np.empty((total, k), dtype=np.intp)
    solvers = np.empty((total, k, k))
    # edge e of K_{n,n} joins source e // n and target e % n
    subsets = itertools.chain.from_iterable(itertools.combinations(range(n * n), k))
    edge = np.arange(k)
    t = 0
    while (flat := np.fromiter(itertools.islice(subsets, _TREE_BLOCK * k),
                               dtype=np.intp)).size:
        src, dst = np.divmod(flat.reshape(-1, k), n)
        incidence = np.zeros((src.shape[0], 2 * n, k))
        b = np.arange(src.shape[0])[:, None]
        incidence[b, src, edge] = 1.0
        incidence[b, n + dst, edge] = 1.0
        basis = incidence[:, :k]
        keep = np.abs(np.linalg.det(basis)) > 0.5
        found = int(keep.sum())
        rows[t:t + found] = src[keep]
        cols[t:t + found] = dst[keep]
        solvers[t:t + found] = np.linalg.inv(basis[keep])
        t += found
    return rows, cols, solvers


def brute_force_cost(alpha: YoungFunction, space: FiniteMetricSpace,
                     nu: ProbMeasure, mu: ProbMeasure) -> float:
    """Exact optimum as the minimum over basic feasible solutions.

    Every vertex of the transport polytope is the flow of some spanning
    tree of K_{n,n}; a linear program attains its optimum at a vertex, so
    the minimum over feasible tree flows is the exact cost.  The flows are
    one product with the cached inverse bases of :func:`_tree_bases`.
    Restricted to spaces with at most 5 points.
    """
    n = space.size
    if n > 5:
        raise ValueError("brute force restricted to at most 5 points")
    costs = cost_matrix(alpha, space)
    b = np.concatenate([nu.weights, mu.weights])[: 2 * n - 1]
    rows, cols, solvers = _tree_bases(n)
    flows = solvers @ b  # (T, E)
    edge_costs = costs[rows, cols]
    feasible = np.all(flows >= -_TREE_FEAS_TOL, axis=1)
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


def _northwest_walk(src: list[float], dst: list[float]):
    """The steps (i, j, m) of the north-west-corner coupling of the masses
    ``src`` and ``dst``: m, the smaller of the remaining masses of source i
    and target j, is shipped from i to j, then the walk moves down past an
    exhausted source or right past a filled target, until it leaves the
    plan."""
    n = len(dst)
    i = j = 0
    a, b = src[0], dst[0]
    while True:
        m = min(a, b)
        yield i, j, m
        a -= m
        b -= m
        if a <= b:  # source i is exhausted
            i += 1
            if i == n:
                return
            a = src[i]
        else:
            j += 1
            if j == n:
                return
            b = dst[j]


def _northwest_corner(costs: np.ndarray, srcs: np.ndarray,
                      dst: np.ndarray) -> np.ndarray:
    """North-west-corner cost of each row of ``srcs`` against ``dst``: the
    cost matrix is listed once, and each row sums its walk in the same
    Python float loop."""
    c = costs.tolist()
    dst = dst.tolist()
    out = []
    for src in srcs.tolist():
        total = 0.0
        for i, j, m in _northwest_walk(src, dst):
            total += m * c[i][j]
        out.append(total)
    return np.array(out, dtype=float)


class BasisScanner:
    """Vectorized exact transport costs for many sources, one target.

    By LP duality the cost is the maximum of phi.nu + psi.mu over the
    vertices of {phi_i + psi_j <= c_ij, psi_last = 0}.  Each vertex is the
    potential pair of a spanning-tree basis of K_{n,n} (tight on the tree
    edges), and which trees are dual feasible does not depend on nu.  The
    potentials of every tree come from the cached :func:`_tree_bases` table
    and only the feasible ones are kept, so pricing a batch is one
    contraction and a row maximum.  Every term is a weak-duality lower
    bound.
    """

    def __init__(self, alpha: YoungFunction, space: FiniteMetricSpace,
                 mu: ProbMeasure):
        n = space.size
        if n > 5:
            raise ValueError("basis scanning restricted to at most 5 points")
        self.n = n
        costs = cost_matrix(alpha, space)
        rows, cols, solvers = _tree_bases(n)
        y = np.einsum("tev,te->tv", solvers, costs[rows, cols])
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
