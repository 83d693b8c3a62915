"""Constant estimators and implication verifiers for the inequality chains.

Estimates are suprema over explicit candidate sets and are therefore
certified lower bounds on the true best constants.  Implication checks are
falsification protocols: establish the premise constant near-exhaustively
(tiny spaces) or by bounded search, compute the guaranteed conclusion
constant, then attack the conclusion.  A PASS means no violation was found
at the declared tolerances; it is evidence, not proof, except on the tiny
spaces where scans are effectively exhaustive over the floored candidate
sets.

Degeneracy: on finite spaces both the transport-entropy and the
inf-convolution log-Sobolev inequalities fail for every finite constant
(shrinking perturbations give linear cost against quadratic entropy, and
potentials oscillating below lambda * alpha(min distance) have positive
entropy with zero inf-convolution defect).  Scans therefore carry an
entropy floor (see :mod:`ineqlab.search`), zero-defect witnesses are
collected as evidence that the premise constant is infinite, and chain
verdicts on a degenerate premise are vacuous passes flagged as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import search
from .constants import (
    holley_factor_numeric,
    implication_constants,
    kappa_tilde,
    tau_lsi_transport_constant,
)
from .infconv import _q_rows, lipschitz_seminorm, p_conv
from .spaces import (
    FiniteMetricSpace,
    ProbMeasure,
    ProductSpace,
    _neighbours,
    exp_entropy,
    slope_vector,
)
from .search import (
    DENOM_FLOOR,
    DUAL_GAP_TOL,
    ENTROPY_FLOOR,
    SearchBudget,
)
from .transport import (
    _DUAL_GAP_TOL as _LP_GAP_TOL,
    BasisScanner,
    _northwest_corner,
    cost_matrix,
    optimal_cost,
)
from .young import YoungFunction, exponents

__all__ = [
    "EstimateResult",
    "VerificationReport",
    "transport_constant_estimate",
    "tau_lsi_constant_estimate",
    "mlsi_constant_estimate",
    "dual_check",
    "largest_passing_dual_level",
    "tensor_dual_check",
    "concentration_check",
    "verify_chain",
    "holley_stroock",
]


@dataclass(frozen=True)
class EstimateResult:
    """A certified lower bound on a best constant, with its witness."""

    value: float
    witness: np.ndarray | None = field(repr=False)
    n_candidates: int
    n_excluded: int
    method: str
    degenerate_witnesses: int = 0
    degenerate_entropy: float = 0.0
    notes: tuple[str, ...] = ()

    @property
    def premise_degenerate(self) -> bool:
        """Zero-defect candidates with positive entropy were found: the
        true best constant is +oo and the value is only a floored scan."""
        return self.degenerate_witnesses > 0


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one implication check.

    ``best_violation_ratio`` normalizes the worst finding so that <= 1
    means no violation at the declared tolerances; PASS enforces that.
    """

    check: str
    premise_constant: float
    guaranteed_constant: float
    verdict: str
    best_violation_ratio: float
    tolerances: dict
    searched: dict
    seed: int | None = None
    premise_degenerate: bool = False
    witness: dict | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.verdict not in ("PASS", "FAIL", "INCONCLUSIVE"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict == "PASS" and self.best_violation_ratio > 1.0 + 1e-12:
            raise ValueError("PASS requires violation ratio <= 1")

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "premise_constant": self.premise_constant,
            "guaranteed_constant": self.guaranteed_constant,
            "verdict": self.verdict,
            "best_violation_ratio": self.best_violation_ratio,
            "tolerances": self.tolerances,
            "searched": self.searched,
            "seed": self.seed,
            "premise_degenerate": self.premise_degenerate,
            "witness": self.witness,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# shared kernels


def _entropy_vec(nus: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Relative entropies of the rows of nus against mu (full support)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(nus > 0, nus * np.log(nus / mu), 0.0)
    return terms.sum(axis=1)


def _gauge_entropy(mu: np.ndarray, fs: np.ndarray):
    """Rows gauge-shifted to max 0, their weights mu e^f and Ent(e^f)."""
    fs = fs - fs.max(axis=1, keepdims=True)
    raw = mu[None, :] * np.exp(fs)
    mass = raw.sum(axis=1)
    return fs, raw, (raw * fs).sum(axis=1) - mass * np.log(mass)


def _tau_pieces(mu: np.ndarray, costs: np.ndarray, fs: np.ndarray):
    """(entropy of e^f, defect integral) for each gauge-shifted row."""
    fs, raw, ent = _gauge_entropy(mu, fs)
    return ent, (raw * (fs - _q_rows(costs, fs))).sum(axis=1)


def _gauge_clip(f_bound: float):
    """Row-wise projection of potentials onto max f = 0, min f >= -f_bound."""
    return lambda f: np.clip(f - f.max(axis=-1, keepdims=True), -f_bound, 0.0)


class _Scan(NamedTuple):
    """Best row of a dense ratio scan: its ratio (-inf when no row
    qualifies), the row and its denominator, and the scan's counts."""

    ratio: float
    row: np.ndarray
    den: float
    rows: int
    skipped: int
    degenerate: int = 0
    degenerate_entropy: float = 0.0

    def merge(self, later: "_Scan") -> "_Scan":
        """The scan of self's rows followed by later's: the larger ratio
        wins, a tie keeps self's row, and the counts add up."""
        best = later if later.ratio > self.ratio else self
        return _Scan(best.ratio, best.row, best.den, self.rows + later.rows,
                     self.skipped + later.skipped,
                     self.degenerate + later.degenerate,
                     max(self.degenerate_entropy, later.degenerate_entropy))

    def result(self, method: str, notes: tuple[str, ...] = ()) -> EstimateResult:
        return EstimateResult(float(max(self.ratio, 0.0)),
                              None if self.ratio == -np.inf else self.row,
                              self.rows, self.skipped, method,
                              degenerate_witnesses=self.degenerate,
                              degenerate_entropy=self.degenerate_entropy,
                              notes=notes)


def _best_ratio(num, den, ok, rows, degenerate=None) -> _Scan:
    """The row of ``rows`` with the largest num/den among the ``ok`` ones
    (the first on ties); the others count as skipped.  ``degenerate`` marks
    skipped rows that witness an infinite constant; their largest num is
    kept."""
    ratios = np.where(ok, num / np.where(ok, den, 1.0), -np.inf)
    k = int(np.argmax(ratios))
    skipped = int(np.size(ok) - np.count_nonzero(ok))
    if degenerate is None:
        return _Scan(ratios[k], rows[k], den[k], rows.shape[0], skipped)
    return _Scan(ratios[k], rows[k], den[k], rows.shape[0], skipped,
                 int(degenerate.sum()), float(num[degenerate].max(initial=0.0)))


def _verdict(ratio: float, rel_tol: float) -> str:
    """PASS at a violation ratio <= 1, INCONCLUSIVE within the relative
    tolerance above it, FAIL beyond."""
    if ratio <= 1.0:
        return "PASS"
    return "INCONCLUSIVE" if ratio <= 1.0 + rel_tol else "FAIL"


def _potential_grid(lo: float, hi: float, step: float) -> np.ndarray:
    return np.arange(lo, hi + 0.5 * step, step)


def _pair_potentials(ys: np.ndarray) -> np.ndarray:
    """Both gauge arrangements (0, y) and (y, 0) on a two-point space."""
    z = np.zeros_like(ys)
    return np.concatenate([np.column_stack([z, ys]), np.column_stack([ys, z])])


def _triple_potentials(step: float, lo: float = -20.0, hi: float = 20.0,
                       center=None, width=None) -> np.ndarray:
    """Gauge family (0, a, b) on a three-point space (optionally zoomed)."""
    if center is None:
        a = np.arange(lo, hi + 0.5 * step, step)
        b = a
    else:
        a = np.arange(center[0] - width, center[0] + width + 0.5 * step, step)
        b = np.arange(center[1] - width, center[1] + width + 0.5 * step, step)
    aa, bb = np.meshgrid(a, b, indexing="ij")
    out = np.column_stack([np.zeros(aa.size), aa.ravel(), bb.ravel()])
    return out


# ---------------------------------------------------------------------------
# transport constant


def transport_constant_estimate(alpha: YoungFunction, space: FiniteMetricSpace,
                                mu: ProbMeasure, *,
                                entropy_floor: float = ENTROPY_FLOOR,
                                scan_step: float = 1e-4,
                                budget: SearchBudget | None = None,
                                seed: int = 0,
                                extra_sources=None,
                                polish_iterations: int = 0) -> EstimateResult:
    """Lower bound on the best constant in cost <= C * entropy.

    Dense scan (plus entropy-shell candidates) on two- and three-point
    spaces; on larger spaces, a seeded scan of structured sources
    (exponential tilts of mu, callers' extras, random interior points),
    optionally followed by gradient ascent.  Sources below the entropy
    floor are excluded and counted.

    The supremum over shrinking perturbations is infinite, and even at a
    fixed floor h it behaves like max_pairs alpha(d) sqrt(harmonic-mass /
    (2h)) along two-atom swaps, which dwarfs the smooth-family values on
    fine grids.  Tiny spaces scan those swaps explicitly (entropy-shell
    candidates), so their constants are floor-capped by construction; on
    larger spaces ``polish_iterations`` ascent steps would drift toward
    the same divergent family, so polish is off by default and the
    estimate then characterizes the structured candidate set.

    The entropy shell (closed form, one batched bisection; see
    :func:`ineqlab.search.pair_swap_shell`) is built once per estimate.
    Above five points every evaluation is a certified LP, so the structured
    starts are visited best north-west-corner bound first and the LP runs
    only for those whose bound can still beat the best certified ratio;
    the value and witness are those of solving every start.
    """
    if mu.is_dirac():
        return EstimateResult(0.0, None, 0, 0, "degenerate-dirac",
                              notes=("reference measure is a Dirac mass",))
    support = mu.support()
    if support.size < mu.size:
        space, mu = _restrict(space, mu, support)
    n = space.size
    mu_w = mu.weights
    shell = search.pair_swap_shell(mu_w, entropy_floor)
    if n <= 3:
        grid = (search.two_point_sources(mu_w, scan_step) if n == 2
                else search.simplex_grid(3, max(scan_step, 2e-3)))
        cands = np.concatenate([grid, shell])
        costs = BasisScanner(alpha, space, mu).costs(cands)
        ents = _entropy_vec(cands, mu_w)
        scan = _best_ratio(costs, ents, ents >= entropy_floor, cands)
        if scan.ratio == -np.inf:
            notes = ("no candidate above the entropy floor",)
        elif scan.den <= entropy_floor * 16.0:
            notes = ("supremum attained near the entropy floor: the unfloored "
                     "supremum diverges",)
        else:
            notes = ()
        return scan.result(f"dense-scan-{n}pt", notes)
    return _transport_ascent(alpha, space, mu, entropy_floor, shell,
                             budget or SearchBudget(), seed, extra_sources,
                             polish_iterations)


def _restrict(space, mu, idx):
    sub = FiniteMetricSpace(tuple(space.labels[i] for i in idx),
                            space.dist[np.ix_(idx, idx)],
                            None if space.coords is None else space.coords[idx])
    return sub, ProbMeasure(mu.weights[idx] / mu.weights[idx].sum())


def _transport_ascent(alpha, space, mu, floor, shell, budget, seed,
                      extra_sources, polish_iterations=0):
    n = space.size
    mu_w = mu.weights
    rng = np.random.default_rng(seed)
    use_lp = n > 5
    scanner = None if use_lp else BasisScanner(alpha, space, mu)

    cost_cache: dict = {}

    def solve(nu):
        key = nu.tobytes()
        if key not in cost_cache:
            cost_cache[key] = optimal_cost(alpha, space, ProbMeasure(nu), mu)
        return cost_cache[key]

    def transport_cost_rows(nus):
        if scanner is not None:
            return scanner.costs(nus)
        return np.array([solve(row)[0] for row in nus])

    def objective(nus):
        ents = _entropy_vec(nus, mu_w)
        vals = np.full(nus.shape[0], -np.inf)
        ok = ents >= floor
        if np.any(ok):
            vals[ok] = transport_cost_rows(nus[ok]) / ents[ok]
        return vals

    def gradient(nu):
        # envelope theorem: the source-side potential is the cost gradient
        cost, plan = solve(nu)
        h = float(_entropy_vec(nu[None, :], mu_w)[0])
        dh = np.log(nu / mu_w) + 1.0
        return (plan.potential_source * h - cost * dh) / h**2

    starts = list(_tilt_starts(space, mu_w))
    if extra_sources is not None:
        starts.extend(np.asarray(s, dtype=float) for s in extra_sources)
    starts.extend(search.dirichlet_starts(rng, n, budget.starts))
    project = lambda x: search.project_simplex_interior(x, budget.clamp)
    if not use_lp:
        starts.extend(shell)
        best, witness, evals = search.multistart_maximize(
            objective, starts, project, budget)
        return EstimateResult(max(best, 0.0), witness, evals, 0,
                              "multistart-ascent-scan",
                              notes=(f"{len(starts)} starts",))
    # each evaluation is a full linear program: solve only the starts whose
    # north-west-corner bound can still win, then (opt-in) polish the best
    # with the analytic dual-potential gradient
    best, k = _pruned_lp_scan(alpha, space, mu, floor, starts, objective)
    witness = np.asarray(starts[k])
    evals = len(starts)
    method = "structured-scan-lp"
    if polish_iterations > 0:
        polish = SearchBudget(starts=1, iterations=polish_iterations,
                              fd_step=budget.fd_step, clamp=budget.clamp,
                              initial_step=budget.initial_step)
        val, wit, ev = search.multistart_maximize(objective, [witness], project,
                                                  polish, gradient=gradient)
        evals += ev
        method = "structured-scan-lp+dual-gradient-polish"
        if val > best:
            best, witness = val, wit
    return EstimateResult(max(best, 0.0), witness, evals, 0, method,
                          notes=(f"{len(starts)} starts",))


def _pruned_lp_scan(alpha, space, mu, floor, starts, objective):
    """Best start by certified LP ratio, with the LP skipped where it cannot win.

    Starts are visited in descending north-west-corner bound ratio.  A start
    is solved only if its bound plus a margin reaches the best certified
    ratio so far; the margin covers what :func:`optimal_cost` may add above
    the true optimum (dual violation and gap, each within ``_LP_GAP_TOL``
    per unit mass), the mass left unshipped when totals differ, and
    rounding.  Pruned starts therefore cannot beat or tie the best, and the
    result (value and index) is that of ranking every start, ties going to
    the earliest start.  Starts below the entropy floor score -inf.
    """
    nus = np.stack([np.asarray(s, dtype=float) for s in starts])
    ents = _entropy_vec(nus, mu.weights)
    above = np.flatnonzero(ents >= floor)
    h = ents[above]
    costs = cost_matrix(alpha, space)
    ub = _northwest_corner(costs, nus[above], mu.weights)
    margin = (2.0 * _LP_GAP_TOL + 1e-12 * ub
              + np.abs(nus[above].sum(axis=1) - mu.weights.sum()) * costs.max())
    reach = (ub + margin) / h
    best, best_k = -np.inf, 0
    for i in np.argsort(-(ub / h), kind="stable"):
        if reach[i] < best:
            continue
        k = int(above[i])
        val = float(objective(nus[k][None, :])[0])
        if val > best or (val == best and k < best_k):
            best, best_k = val, k
    return best, best_k


def _tilt_starts(space, mu_w):
    """Exponential tilts of mu along coordinates / distance functions."""
    fields = []
    if space.coords is not None:
        fields.append(space.coords - space.coords.mean())
    fields.append(space.dist[0])
    fields.append(space.dist[space.size // 2])
    for g in fields:
        scale = max(float(np.max(np.abs(g))), 1e-12)
        for t in (-2.0, -1.0, -0.5, -0.2, -0.1, 0.1, 0.2, 0.5, 1.0, 2.0):
            w = mu_w * np.exp(t * g / scale)
            yield w / w.sum()


# ---------------------------------------------------------------------------
# inf-convolution log-Sobolev constant


def tau_lsi_constant_estimate(alpha: YoungFunction, lam: float,
                              space: FiniteMetricSpace, mu: ProbMeasure, *,
                              scan_step: float = 1e-3,
                              budget: SearchBudget | None = None,
                              seed: int = 0,
                              f_bound: float = 20.0) -> EstimateResult:
    """Lower bound on the best constant A in Ent(e^f) <= A * defect(f).

    The defect is the integral of (f - Q f) e^f against mu with the
    inf-convolution at scale lambda.  The ratio is invariant under
    f -> f + c, so candidates are gauge-fixed to max f = 0.  Candidates
    with defect below 1e-14 are skipped; those among them with positive
    entropy are *degeneracy witnesses*: the inequality fails for every
    finite A (the true constant is infinite) and the returned value only
    ranks the scanned, positively-damped candidates.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if mu.is_dirac():
        return EstimateResult(0.0, None, 0, 0, "degenerate-dirac")
    costs = cost_matrix(alpha, space, lam)
    n = space.size
    if n == 2:
        fs = _pair_potentials(_potential_grid(-f_bound, 0.0, scan_step))
        return _tau_best(mu.weights, costs, fs).result("dense-scan-2pt")
    if n == 3:
        coarse = _tau_best(mu.weights, costs,
                           _triple_potentials(0.1, -f_bound, f_bound))
        if coarse.ratio == -np.inf:
            return coarse.result("dense-scan-3pt")
        zoomed = _triple_potentials(2e-3, center=coarse.row[1:], width=0.12)
        return coarse.merge(_tau_best(mu.weights, costs, zoomed)).result(
            "dense-scan-3pt-zoom")
    return _tau_ascent(mu.weights, costs, n, budget or SearchBudget(), seed,
                       f_bound)


def _tau_best(mu_w, costs, fs) -> _Scan:
    """Dense tau scan: rows with defect below the floor are skipped, and
    those among them with positive entropy are degeneracy witnesses."""
    ent, defect = _tau_pieces(mu_w, costs, fs)
    skip = defect < DENOM_FLOOR
    return _best_ratio(ent, defect, ~skip, fs, skip & (ent > 1e-12))


def _tau_ascent(mu_w, costs, n, budget, seed, f_bound) -> EstimateResult:
    rng = np.random.default_rng(seed)

    def objective(fs):
        ent, defect = _tau_pieces(mu_w, costs, fs)
        return np.where(defect >= DENOM_FLOOR,
                        ent / np.maximum(defect, DENOM_FLOOR), -np.inf)

    starts = [rng.uniform(-3.0, 0.0, n) for _ in range(budget.starts)]
    best, witness, evals = search.multistart_maximize(objective, starts,
                                                      _gauge_clip(f_bound), budget)
    return EstimateResult(max(best, 0.0), witness, evals, 0, "multistart-ascent")


# ---------------------------------------------------------------------------
# slope-based (surrogate) log-Sobolev constant


def mlsi_constant_estimate(alpha: YoungFunction, space: FiniteMetricSpace,
                           mu: ProbMeasure, sign: str = "+",
                           adjacency: list | None = None, *,
                           scan_step: float = 1e-3,
                           budget: SearchBudget | None = None,
                           seed: int = 0,
                           f_bound: float = 20.0) -> EstimateResult:
    """Lower bound on the constant in Ent(e^f) <= A int conj(|slope f|) e^f.

    SURROGATE: the slope modulus is the discrete (global or
    adjacency-restricted) difference quotient, not the continuum limsup,
    which vanishes identically on finite spaces.  Downstream verdicts
    based on this estimate are capped at INCONCLUSIVE.
    """
    if mu.is_dirac():
        return EstimateResult(0.0, None, 0, 0, "degenerate-dirac")
    mu_w = mu.weights
    adjacency = _neighbours(space, adjacency)

    def pieces(fs):
        fs, raw, ent = _gauge_entropy(mu_w, fs)
        conj = np.asarray(alpha.conjugate(slope_vector(space, fs, sign, adjacency)),
                          dtype=float)
        with np.errstate(invalid="ignore"):
            terms = raw * conj
        terms = np.where((raw > 0) & ~np.isfinite(conj), np.inf,
                         np.where(raw == 0, 0.0, terms))
        return ent, terms.sum(axis=1)

    if space.size == 2:
        fs = _pair_potentials(_potential_grid(-f_bound, 0.0, scan_step))
        ent, den = pieces(fs)
        scan = _best_ratio(ent, den, (den >= DENOM_FLOOR) & np.isfinite(den), fs)
        return scan.result("dense-scan-2pt-surrogate",
                           () if scan.ratio == -np.inf else ("slope surrogate",))

    budget = budget or SearchBudget()
    rng = np.random.default_rng(seed)

    def objective(fs):
        ent, den = pieces(fs)
        good = (den >= DENOM_FLOOR) & np.isfinite(den)
        return np.where(good, ent / np.maximum(den, DENOM_FLOOR), -np.inf)

    starts = [rng.uniform(-2.0, 0.0, space.size) for _ in range(budget.starts)]
    starts.extend(_smooth_starts(space))
    best, witness, evals = search.multistart_maximize(objective, starts,
                                                      _gauge_clip(f_bound), budget)
    return EstimateResult(max(best, 0.0), witness, evals, 0,
                          "multistart-ascent-surrogate",
                          notes=("slope surrogate",))


def _smooth_starts(space):
    """Sinusoidal / linear profiles for grid-like spaces (good LSI movers)."""
    if space.coords is None:
        return []
    x = space.coords
    span = float(x.max() - x.min())
    if span <= 0:
        return []
    u = (x - x.min()) / span
    out = []
    for amp in (0.5, 1.0, 2.0, 4.0):
        out.append(-amp * u)
        out.append(-amp * (1.0 - np.cos(np.pi * u)) / 2.0)
        out.append(-amp * np.abs(u - 0.5))
    return out


# ---------------------------------------------------------------------------
# dual checks


def dual_check(alpha: YoungFunction, space: FiniteMetricSpace, mu: ProbMeasure,
               level: float, *, scan_step: float = 1e-3,
               f_bound: float = 20.0, gap_tol: float = DUAL_GAP_TOL) -> dict:
    """Exponential-moment dual check at level c:
    log int e^{c Qf} dmu <= c mu(f) for all bounded f (order 1).

    Scans potential families (including the inf-convolution kink offsets
    +-alpha(d)) and reports the largest log-gap; a gap above ``gap_tol``
    is a violation witnessing that the transport inequality at constant
    1/c fails on the scanned set.
    """
    costs = cost_matrix(alpha, space)
    mu_w = mu.weights
    if space.size == 2:
        ys = _potential_grid(-f_bound, f_bound, scan_step)
        kinks = costs[0, 1] * np.array([-1.0 - 1e-9, -1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-9])
        fs = _pair_potentials(np.concatenate([ys, kinks]))
    elif space.size == 3:
        fs = _triple_potentials(0.05, -f_bound, f_bound)
    else:
        raise ValueError("dense dual scan provided for 2- and 3-point spaces")
    qs = _q_rows(costs, fs)
    logmass = _logsumexp_rows(np.log(mu_w)[None, :] + level * qs)
    gaps = logmass - level * (fs @ mu_w)
    k = int(np.argmax(gaps))
    return {
        "level": level,
        "max_log_gap": float(gaps[k]),
        "violation": bool(gaps[k] > gap_tol),
        "worst_potential": fs[k],
        "gap_tol": gap_tol,
        "n_candidates": int(fs.shape[0]),
    }


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    m = a.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=1, keepdims=True)))[:, 0]


def largest_passing_dual_level(alpha: YoungFunction, space: FiniteMetricSpace,
                               mu: ProbMeasure, *,
                               gap_tol: float = DUAL_GAP_TOL,
                               rel_precision: float = 1e-4) -> float:
    """Largest c whose dual check stays within the gap tolerance (bisection)."""
    lo, hi = 1e-10, 1.0
    while not dual_check(alpha, space, mu, hi, gap_tol=gap_tol)["violation"]:
        lo = hi
        hi *= 2.0
        if hi > 1e8:
            return lo
    while hi / lo > 1.0 + rel_precision:
        mid = math.sqrt(lo * hi)
        if dual_check(alpha, space, mu, mid, gap_tol=gap_tol)["violation"]:
            hi = mid
        else:
            lo = mid
    return lo


def tensor_dual_check(alpha: YoungFunction, space: FiniteMetricSpace,
                      mu: ProbMeasure, *, tau: float, a: float, b: float,
                      c_norm: float, n: int = 2, count: int = 64,
                      seed: int = 0, gap_tol: float = DUAL_GAP_TOL) -> dict:
    """Tensorized sup-convolution moment premise on the n-fold product:
    log int e^{tau P f} dmu^n <= log a + b mu^n(Pf) + tau c ||f||_inf
    for non-negative f.  Evaluated over a seeded battery of potentials;
    the implied transport constant is 1 / (tau (1 - c))."""
    if not 0.0 <= c_norm < 1.0:
        raise ValueError("c must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    prod = ProductSpace(space, n)
    weights = prod.product_weights(mu)
    worst = -math.inf
    worst_f = None
    for _ in range(count):
        f = rng.uniform(0.0, rng.uniform(0.5, 6.0), prod.shape)
        pf, _ = p_conv(alpha, f, space, n)
        log_lhs = _logsumexp_rows((np.log(weights) + tau * pf).reshape(1, -1))[0]
        rhs = math.log(a) + b * float((weights * pf).sum()) + tau * c_norm * float(np.abs(f).max())
        gap = log_lhs - rhs
        if gap > worst:
            worst, worst_f = gap, f
    return {
        "tau": tau, "a": a, "b": b, "c": c_norm, "order": n,
        "max_log_gap": float(worst),
        "violation": bool(worst > gap_tol),
        "implied_transport_constant": 1.0 / (tau * (1.0 - c_norm)),
        "n_candidates": count,
        "gap_tol": gap_tol,
        "worst_potential_max": float(np.abs(worst_f).max()) if worst_f is not None else None,
    }


# ---------------------------------------------------------------------------
# concentration


def concentration_check(space: FiniteMetricSpace, mu: ProbMeasure, p: float,
                        constant: float, n: int = 1, *, count: int = 50,
                        seed: int = 0, rel_tol: float = 1e-9) -> dict:
    """Tail check mu^n(f >= mean + u) <= exp(-u^p / (L^p C)) over a battery
    of Lipschitz potentials, exact by atom enumeration (one direction of
    the transport/concentration equivalence)."""
    rng = np.random.default_rng(seed)
    prod = ProductSpace(space, n)
    weights = prod.product_weights(mu).ravel()
    idx = np.indices(prod.shape).reshape(n, -1)
    q = p / (p - 1.0)
    worst = 0.0
    checked = 0
    for k in range(count):
        if k % 2 == 0:
            z = rng.integers(0, space.size, size=n)
            vals = np.zeros(idx.shape[1])
            for i in range(n):
                vals += space.dist[idx[i], z[i]] ** p
            f = vals ** (1.0 / p)
        else:
            coefs = rng.normal(size=(n, space.size))
            f = np.zeros(idx.shape[1])
            for i in range(n):
                f += coefs[i][idx[i]]
        lvalue = lipschitz_seminorm(f.reshape(prod.shape), space, p, n)
        if lvalue <= 0:
            continue
        mean = float(weights @ f)
        for v in np.unique(f):
            u = v - mean
            if u <= 0:
                continue
            tail = float(weights[f >= v - 1e-12].sum())
            log_bound = -u**p / (lvalue**p * constant)
            if tail > 0.0:
                log_ratio = math.log(tail) - log_bound
                worst = max(worst, math.exp(min(log_ratio, 700.0)))
            checked += 1
    return {
        "constant": constant, "order": n, "exponent": p,
        "worst_tail_ratio": worst,
        "holds": bool(worst <= 1.0 + rel_tol),
        "n_tail_points": checked,
        "rel_tol": rel_tol,
    }


# ---------------------------------------------------------------------------
# chain verifiers


def verify_chain(alpha: YoungFunction, space: FiniteMetricSpace,
                 mu: ProbMeasure, direction: str, *, seed: int = 0,
                 rel_tol: float = 1e-6, abs_tol: float = 1e-6,
                 fractions=(0.25, 0.5, 0.75), lam: float = 1.0,
                 sign: str = "+", adjacency: list | None = None,
                 surrogate_slack: float = 0.05,
                 budget: SearchBudget | None = None) -> VerificationReport:
    """Run one implication chain as a falsification protocol.

    transport-to-tau-lsi : scan the transport constant C*, then for each
        fraction s check that no potential violates the inf-convolution
        log-Sobolev inequality at (lambda = s/C*, A = (1+tol)/(1-s)).
    tau-lsi-to-transport : scan the log-Sobolev constant at the given
        lambda, convert through kappa max(A,1)^{p-1}/lambda, and scan for a
        transport violation.  A degenerate premise (zero-defect witnesses)
        makes the guarantee vacuous; this is reported, not failed.
    lsi-to-transport : like the previous one from the slope-surrogate
        constant through the threshold/integral route; verdicts are capped
        at INCONCLUSIVE because the premise is a surrogate.
    """
    if direction == "transport-to-tau-lsi":
        return _chain_transport_to_tau(alpha, space, mu, seed, rel_tol,
                                       abs_tol, fractions)
    if direction == "tau-lsi-to-transport":
        return _chain_tau_to_transport(alpha, space, mu, seed, rel_tol,
                                       abs_tol, lam, budget)
    if direction == "lsi-to-transport":
        return _chain_lsi_to_transport(alpha, space, mu, seed, sign, adjacency,
                                       surrogate_slack, budget)
    raise ValueError(f"unknown chain direction {direction!r}")


def _violation_ratio_tau(alpha, space, mu, lam, amax, abs_tol, scan_step=1e-3):
    """max over scanned f of Ent / (A * defect + abs_tol)."""
    costs = cost_matrix(alpha, space, lam)
    if space.size == 2:
        fs = _pair_potentials(_potential_grid(-20.0, 0.0, scan_step))
    elif space.size == 3:
        fs = _triple_potentials(0.05, -20.0, 20.0)
    else:
        raise ValueError("dense chain checks provided for 2-3 point spaces")
    ent, defect = _tau_pieces(mu.weights, costs, fs)
    ratios = ent / (amax * defect + abs_tol)
    k = int(np.argmax(ratios))
    return float(ratios[k]), fs[k], fs.shape[0]


def _chain_transport_to_tau(alpha, space, mu, seed, rel_tol, abs_tol, fractions):
    est = transport_constant_estimate(alpha, space, mu, seed=seed)
    cstar = est.value
    worst = 0.0
    witness = None
    total = 0
    if cstar <= 0:
        verdict = "PASS"
    else:
        for frac in fractions:
            lam = frac / cstar
            amax = (1.0 + rel_tol) / (1.0 - frac)
            ratio, wf, n_f = _violation_ratio_tau(alpha, space, mu, lam, amax,
                                                  abs_tol)
            total += n_f
            if ratio > worst:
                worst, witness = ratio, {"fraction": frac, "potential": wf.tolist()}
        verdict = _verdict(worst, rel_tol)
    return VerificationReport(
        check="transport-to-tau-lsi",
        premise_constant=cstar,
        guaranteed_constant=max((1.0 + rel_tol) / (1.0 - f) for f in fractions),
        verdict=verdict,
        best_violation_ratio=worst,
        tolerances={"relative": rel_tol, "absolute": abs_tol},
        searched={"transport_scan": est.n_candidates, "potential_scans": total,
                  "method": est.method},
        seed=seed,
        witness=witness,
        notes=tuple(est.notes),
    )


def _zero_defect_entropy(alpha, lam, space, mu):
    """Largest entropy among single-point dips with zero defect.

    A dip f = -c at one point with c below lam * alpha(min distance) is
    left untouched by the inf-convolution (Qf = f exactly), so it carries
    positive entropy against a zero defect on any finite space.  This is
    the universal witness that the inf-convolution log-Sobolev premise
    fails for every finite constant at the given scale.
    """
    c = lam * float(alpha(space.min_distance())) * (1.0 - 1e-12)
    if c <= 0:
        return 0.0
    best = 0.0
    costs = cost_matrix(alpha, space, lam)
    for i in range(space.size):
        f = np.zeros(space.size)
        f[i] = -c
        qf = _q_rows(costs, f[None, :])[0]
        if float(np.max(np.abs(f - qf))) > 0.0:
            continue
        best = max(best, exp_entropy(mu, f))
    return best


def _chain_tau_to_transport(alpha, space, mu, seed, rel_tol, abs_tol, lam,
                            budget):
    est = tau_lsi_constant_estimate(alpha, lam, space, mu, seed=seed)
    p = exponents(alpha).p_exp
    notes = list(est.notes)
    # the premise is falsified at this check's absolute tolerance when some
    # zero-defect potential carries more entropy than the tolerance allows;
    # no finite A then makes the premise true and the guarantee is vacuous.
    # besides scan evidence, probe the universal single-point-dip family
    # (works on any space size)
    probe_entropy = _zero_defect_entropy(alpha, lam, space, mu)
    degenerate = max(est.degenerate_entropy, probe_entropy) > abs_tol
    if degenerate:
        guaranteed = math.inf
        worst = 0.0
        verdict = "PASS"
        notes.append(
            f"premise degenerate: zero-defect potentials with entropy up to "
            f"{max(est.degenerate_entropy, probe_entropy):.3g} "
            f"(tolerance {abs_tol:g}); the guarantee is vacuous at this lambda")
        scan = None
    else:
        guaranteed = tau_lsi_transport_constant(p, est.value, lam)
        scan = transport_constant_estimate(alpha, space, mu, seed=seed,
                                           budget=budget)
        worst = scan.value / (guaranteed * (1.0 + rel_tol))
        verdict = _verdict(worst, rel_tol)
    return VerificationReport(
        check="tau-lsi-to-transport",
        premise_constant=math.inf if degenerate else est.value,
        guaranteed_constant=guaranteed,
        verdict=verdict,
        best_violation_ratio=worst,
        tolerances={"relative": rel_tol, "absolute": abs_tol},
        searched={"tau_scan": est.n_candidates,
                  "tau_excluded": est.n_excluded,
                  "zero_defect_witnesses": est.degenerate_witnesses,
                  "transport_scan": None if scan is None else scan.n_candidates,
                  "lambda": lam, "method": est.method},
        seed=seed,
        premise_degenerate=degenerate,
        witness=None if est.witness is None else {"potential": est.witness.tolist()},
        notes=tuple(notes),
    )


def _chain_lsi_to_transport(alpha, space, mu, seed, sign, adjacency, slack,
                            budget):
    est = mlsi_constant_estimate(alpha, space, mu, sign, adjacency, seed=seed,
                                 budget=budget)
    if est.value <= 0:
        return VerificationReport(
            check="lsi-to-transport", premise_constant=0.0,
            guaranteed_constant=math.inf, verdict="INCONCLUSIVE",
            best_violation_ratio=math.inf,
            tolerances={"surrogate_slack": slack},
            searched={"method": est.method}, seed=seed,
            notes=("surrogate estimate degenerate",))
    bundle = implication_constants(alpha, est.value, 1.0)
    guaranteed = bundle.c_from_threshold if sign == "+" else bundle.b_minus
    fallback = bundle.c_plus if sign == "+" else bundle.c_minus
    scan = transport_constant_estimate(alpha, space, mu, seed=seed, budget=budget)
    worst = scan.value / (guaranteed * (1.0 + slack))
    verdict = "PASS" if worst <= 1.0 else "INCONCLUSIVE"  # surrogate: never FAIL
    return VerificationReport(
        check="lsi-to-transport",
        premise_constant=est.value,
        guaranteed_constant=guaranteed,
        verdict=verdict,
        best_violation_ratio=worst,
        tolerances={"surrogate_slack": slack},
        searched={"slope_method": est.method, "transport_method": scan.method,
                  "closed_form_constant": fallback, "sign": sign},
        seed=seed,
        witness=None if scan.witness is None else {"source": scan.witness.tolist()},
        notes=("SURROGATE: discrete slope modulus; PASS here is evidence, "
               "not a theorem-backed certificate",),
    )


# ---------------------------------------------------------------------------
# bounded perturbation


def holley_stroock(alpha: YoungFunction, space: FiniteMetricSpace,
                   mu: ProbMeasure, phi, transport_constant: float, *,
                   seed: int = 0, rel_tol: float = 1e-6
                   ) -> tuple[ProbMeasure, float, VerificationReport]:
    """Perturb mu by the bounded density e^phi and verify the guaranteed
    transport constant of the perturbed measure.

    New constant: factor * C * exp((p-1) Osc(phi)) with the conversion
    factor kappa_tilde; the sharper route through the infimum over the
    intermediate scale is computed as well (the two agree analytically)
    and both are attacked by the transport scan on the perturbed measure.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (space.size,):
        raise ValueError("perturbation must be a potential on the space")
    p = exponents(alpha).p_exp
    osc = float(phi.max() - phi.min())
    w = mu.weights * np.exp(phi)
    mu_t = ProbMeasure(w / w.sum())
    c_in = transport_constant
    c_tilde = kappa_tilde(p) * c_in * math.exp((p - 1.0) * osc)
    # intermediate route: kappa * inf_s 1/(s (1-s)^{p-1}) * C * e^{(p-1) Osc}
    c_inter = holley_factor_numeric(p) * c_in * math.exp((p - 1.0) * osc)
    scan = transport_constant_estimate(alpha, space, mu_t, seed=seed)
    tightest = min(c_tilde, c_inter)
    worst = scan.value / (tightest * (1.0 + rel_tol))
    verdict = _verdict(worst, rel_tol)
    report = VerificationReport(
        check="holley-stroock",
        premise_constant=c_in,
        guaranteed_constant=c_tilde,
        verdict=verdict,
        best_violation_ratio=worst,
        tolerances={"relative": rel_tol},
        searched={"perturbed_scan": scan.n_candidates, "method": scan.method,
                  "oscillation": osc, "intermediate_constant": c_inter},
        seed=seed,
        witness=None if scan.witness is None else {"source": scan.witness.tolist()},
        notes=(f"perturbed scan constant {scan.value:.6g}",),
    )
    return mu_t, c_tilde, report
