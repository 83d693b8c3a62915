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

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import search
from .constants import (
    holley_factor_numeric,
    implication_constants,
    kappa_tilde,
    tau_lsi_transport_constant,
)
from .infconv import _q_axis, _q_rows, lipschitz_seminorm
from .spaces import (
    FiniteMetricSpace,
    ProbMeasure,
    ProductSpace,
    _entropy_vec,
    _gauge_entropy,
    _neighbours,
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
from .young import YoungFunction

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

# potentials lie in [-bound, bound] ([-bound, 0] once gauged); 2-point grid step
_POTENTIAL_BOUND = 20.0
_PAIR_STEP = 1e-3


def _defect(costs: np.ndarray, fs: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Defect integral of each gauge-shifted row, given its weights mu e^f."""
    return (raw * (fs - _q_rows(costs, fs))).sum(axis=1)


def _tau_pieces(mu: np.ndarray, costs: np.ndarray, fs: np.ndarray):
    """(entropy of e^f, defect integral) for each gauge-shifted row."""
    fs, raw, ent = _gauge_entropy(mu, fs)
    return ent, _defect(costs, fs, raw)


def _gauge_clip(fs: np.ndarray) -> np.ndarray:
    """Row-wise projection of potentials onto max f = 0, min f >= -bound."""
    return np.clip(fs - fs.max(axis=-1, keepdims=True), -_POTENTIAL_BOUND, 0.0)


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


def _ratios(num, den, ok) -> np.ndarray:
    """The floored ratio of every estimate: num/den where ``ok``, -inf
    elsewhere."""
    return np.where(ok, num / np.where(ok, den, 1.0), -np.inf)


def _best_ratio(num, den, ok, rows, degenerate=None) -> _Scan:
    """The row of ``rows`` with the largest of :func:`_ratios` (the first on
    ties); the rows not ``ok`` count as skipped.  ``degenerate`` marks
    skipped rows that witness an infinite constant; their largest num is
    kept.  No rows at all give ratio -inf."""
    if not rows.shape[0]:
        return _Scan(-np.inf, None, np.nan, 0, 0)
    ratios = _ratios(num, den, ok)
    k = int(np.argmax(ratios))
    skipped = int(np.size(ok) - np.count_nonzero(ok))
    row = rows[k].copy()  # a view would keep the whole scan alive
    if degenerate is None:
        return _Scan(ratios[k], row, den[k], rows.shape[0], skipped)
    return _Scan(ratios[k], row, den[k], rows.shape[0], skipped,
                 int(degenerate.sum()), float(num[degenerate].max(initial=0.0)))


def _verdict(ratio: float, rel_tol: float) -> str:
    """PASS at a violation ratio <= 1, INCONCLUSIVE within the relative
    tolerance above it, FAIL beyond."""
    if ratio <= 1.0:
        return "PASS"
    return "INCONCLUSIVE" if ratio <= 1.0 + rel_tol else "FAIL"


def _potential_grid(lo: float, hi: float, step: float) -> np.ndarray:
    return np.arange(lo, hi + 0.5 * step, step)


# rows per block of every dense 2-/3-point scan: the grids are streamed a
# block at a time and never built whole.  A power of two, so the blocks of the
# mean's matrix-vector product give every row the same BLAS kernel path as one
# product over the whole grid
_MEAN_BLOCK_ROWS = 1 << 12


def _potential_blocks(*axes):
    """The gauge family of a dense scan, ``_MEAN_BLOCK_ROWS`` rows at a time.

    One axis ys gives the two-point rows (0, y) for every y, then (y, 0);
    two axes a, b give the three-point rows (0, a[r // nb], b[r % nb]).
    Blocks start at multiples of ``_MEAN_BLOCK_ROWS`` and are point-major:
    the transpose of a C-ordered (n, rows) array, one contiguous column per
    point.
    """
    if len(axes) == 1:
        ys, = axes
        total = 2 * ys.size
    else:
        a, b = axes
        total = a.size * b.size
    for lo in range(0, total, _MEAN_BLOCK_ROWS):
        r = np.arange(lo, min(lo + _MEAN_BLOCK_ROWS, total))
        block = np.zeros((len(axes) + 1, r.size))
        if len(axes) == 1:
            first = r < ys.size
            block[1, first] = ys[r[first]]
            block[0, ~first] = ys[r[~first] - ys.size]
        else:
            block[1], block[2] = a[r // b.size], b[r % b.size]
        yield block.T


def _simplex_rows(step: float):
    """Interior grid of the three-point simplex, ``_MEAN_BLOCK_ROWS`` rows
    at a time: the (0, w0, w1) gauge rows with a positive third weight,
    mapped to (w0, w1, 1 - w0 - w1), w0 first."""
    a = np.arange(step, 1.0, step)
    for block in _potential_blocks(a, a):
        keep = block[:, 1] + block[:, 2] < 1.0 - 1e-9  # third weight > 0
        w0, w1 = block[keep, 1], block[keep, 2]
        yield np.column_stack([w0, w1, 1.0 - w0 - w1])


def _fold(scan_block, blocks) -> _Scan:
    """The scan of every row of ``blocks`` in order, one block at a time."""
    return reduce(_Scan.merge, map(scan_block, blocks))


def _ascend(parts, starts, project, budget, excluded) -> _Scan:
    """Multistart ascent of :func:`_ratios` of ``parts`` from ``starts``:
    every evaluated row counts, ``excluded`` starts are skipped, and the
    row is the best point (none when no start has a finite value)."""
    best, row, evals = search.multistart_maximize(
        lambda rows: _ratios(*parts(rows)), starts, project, budget)
    return _Scan(best, row, np.nan, evals, excluded)


# ---------------------------------------------------------------------------
# transport constant


def transport_constant_estimate(alpha: YoungFunction, space: FiniteMetricSpace,
                                mu: ProbMeasure, *,
                                entropy_floor: float = ENTROPY_FLOOR,
                                budget: SearchBudget | None = None,
                                seed: int = 0) -> EstimateResult:
    """Lower bound on the best constant in cost <= C * entropy.

    Entropy-shell candidates alone on two-point spaces, a dense simplex
    grid plus the shell on three-point spaces.  Larger spaces start from
    structured sources (exponential tilts of mu, then seeded Dirichlet
    points): on four and five points a multistart ascent runs from them and
    from the shell rows, priced by :class:`ineqlab.transport.BasisScanner`;
    above five points the starts themselves are scanned by certified LP.
    Sources below the entropy floor are excluded and counted: every dense
    candidate on two and three points, every structured start above.

    The dense scans and the ascent score a candidate by one rule, cost /
    entropy at or above the floor and -inf below it; the scanner prices
    every candidate either evaluates, each row on its own.

    On two points the shell is exhaustive: the cost alpha(d) |nu_0 - mu_0|
    is linear and the entropy convex along the segment, zero at mu, so the
    floored ratio is largest on the floor, at the shell's first level.

    The supremum over shrinking perturbations is infinite, and even at a
    fixed floor h it behaves like max_pairs alpha(d) sqrt(harmonic-mass /
    (2h)) along two-atom swaps, which dwarfs the smooth-family values on
    fine grids.  Up to five points the shell scans those swaps explicitly,
    so the constants are floor-capped by construction.  Above five points
    every evaluation is a linear program, and an ascent from the starts
    would drift toward the same divergent family at an LP per probe, so
    there is none: the estimate characterizes the structured candidate set.

    The entropy shell (closed form, one batched bisection; see
    :func:`ineqlab.search.pair_swap_shell`) is built once per estimate.
    Above five points the starts are visited best north-west-corner bound
    first and the LP runs only for those whose bound can still beat the
    best certified ratio; the value and witness are those of solving every
    distinct start.

    A mu with zero-mass points is estimated on its support, where every
    source of finite entropy lives; the witness is the best source on the
    whole space, zero off the support.
    """
    if mu.is_dirac():
        return EstimateResult(0.0, None, 0, 0, "degenerate-dirac",
                              notes=("reference measure is a Dirac mass",))
    support = mu.support()
    if support.size == mu.size:
        return _transport_estimate(alpha, space, mu, entropy_floor, budget, seed)
    est = _transport_estimate(alpha, *_restrict(space, mu, support),
                              entropy_floor, budget, seed)
    if est.witness is None:
        return est
    witness = np.zeros(mu.size)
    witness[support] = est.witness
    return dataclasses.replace(est, witness=witness)


def _transport_estimate(alpha, space, mu, entropy_floor, budget, seed):
    """:func:`transport_constant_estimate` for a mu of full support."""
    n = space.size
    mu_w = mu.weights
    shell = search.pair_swap_shell(mu_w, entropy_floor)
    if n <= 5:
        scanner = BasisScanner(alpha, space, mu)

        def parts(nus):
            ents = _entropy_vec(nus, mu_w)
            return scanner.costs(nus), ents, ents >= entropy_floor
    if n <= 3:
        grid = [] if n == 2 else _simplex_rows(2e-3)
        scan = _fold(lambda rows: _best_ratio(*parts(rows), rows),
                     itertools.chain(grid, [shell]))
        if scan.ratio == -np.inf:
            notes = ("no candidate above the entropy floor",)
        elif scan.den <= entropy_floor * 16.0:
            notes = ("supremum attained near the entropy floor: the unfloored "
                     "supremum diverges",)
        else:
            notes = ()
        return scan.result(f"dense-scan-{n}pt", notes)
    budget = budget or SearchBudget()
    starts = list(_tilt_starts(space, mu_w))
    starts.extend(search.dirichlet_starts(np.random.default_rng(seed), n,
                                          budget.starts))
    below = int(np.count_nonzero(_entropy_vec(np.stack(starts), mu_w)
                                 < entropy_floor))
    if n > 5:
        best, k = _pruned_lp_scan(alpha, space, mu, entropy_floor, starts)
        notes = (f"{len(starts)} starts",)
        if best == -np.inf:
            notes = ("no candidate above the entropy floor", *notes)
        return _Scan(best, np.asarray(starts[k]), np.nan, len(starts),
                     below).result("structured-scan-lp", notes)
    starts.extend(shell)
    return _ascend(parts, starts, search.project_simplex_interior, budget,
                   below).result("multistart-ascent-scan", (f"{len(starts)} starts",))


def _restrict(space, mu, idx):
    sub = FiniteMetricSpace(tuple(space.labels[i] for i in idx),
                            space.dist[np.ix_(idx, idx)],
                            None if space.coords is None else space.coords[idx])
    return sub, ProbMeasure(mu.weights[idx] / mu.weights[idx].sum())


def _pruned_lp_scan(alpha, space, mu, floor, starts):
    """Best start by certified LP ratio, with the LP skipped where it cannot win.

    Starts are visited in descending north-west-corner bound ratio.  A start
    is solved only if its bound plus a margin reaches the best certified
    ratio so far; the margin covers what :func:`optimal_cost` may add above
    the true optimum (dual violation and gap, each within ``_LP_GAP_TOL``
    per unit mass), the mass left unshipped when totals differ, and
    rounding.  Pruned starts therefore cannot beat or tie the best, and the
    result (value and index) is that of ranking every distinct start (the
    starts hold each structured source once, see :func:`_tilt_starts`), ties
    going to the earliest start.  Starts below the entropy floor score -inf.
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
        val = float(optimal_cost(alpha, space, ProbMeasure(nus[k]), mu)[0] / h[i])
        if val > best or (val == best and k < best_k):
            best, best_k = val, k
    return best, best_k


_SAME_SOURCE_RTOL = 1e-12


def _tilt_starts(space, mu_w):
    """Exponential tilts of mu along coordinates / distance functions, each
    distinct source once.

    A tilt within ``_SAME_SOURCE_RTOL`` of an earlier tilt's largest weight,
    in max norm, is a copy and is skipped.  Copies are common: on a sorted
    line ``dist[0]`` is the centred coordinate plus a constant, so its tilt
    at t is a coordinate tilt up to rounding, and on an even cycle
    ``dist[n // 2]`` mirrors ``dist[0]``.  Kept rows are computed exactly as
    without the check.
    """
    fields = []
    if space.coords is not None:
        fields.append(space.coords - space.coords.mean())
    fields.append(space.dist[0])
    fields.append(space.dist[space.size // 2])
    rows = []
    for g in fields:
        scale = max(float(np.max(np.abs(g))), 1e-12)
        for t in (-2.0, -1.0, -0.5, -0.2, -0.1, 0.1, 0.2, 0.5, 1.0, 2.0):
            w = mu_w * np.exp(t * g / scale)
            rows.append(w / w.sum())
    tilts = np.stack(rows)
    gaps = np.abs(tilts[:, None, :] - tilts[None, :, :]).max(axis=2)
    near = gaps <= _SAME_SOURCE_RTOL * tilts.max(axis=1)[:, None]
    yield from tilts[~np.triu(near, k=1).any(axis=0)]


# ---------------------------------------------------------------------------
# inf-convolution log-Sobolev constant


def tau_lsi_constant_estimate(alpha: YoungFunction, lam: float,
                              space: FiniteMetricSpace, mu: ProbMeasure, *,
                              budget: SearchBudget | None = None,
                              seed: int = 0) -> EstimateResult:
    """Lower bound on the best constant A in Ent(e^f) <= A * defect(f).

    The defect is the integral of (f - Q f) e^f against mu with the
    inf-convolution at scale lambda.  The ratio is invariant under
    f -> f + c, so candidates are gauge-fixed to max f = 0.  Candidates
    with defect below 1e-14 are skipped; those among them with positive
    entropy are *degeneracy witnesses*: the inequality fails for every
    finite A (the true constant is infinite) and the returned value only
    ranks the scanned, positively-damped candidates.  Potentials range over
    [-20, 0] after the gauge shift, by steps of 1e-3 on two points.  The
    dense scans of two and three points stream their grids a block of rows
    at a time; above three points a multistart ascent runs from seeded
    uniform starts.  Both score a potential by the same rule: entropy /
    defect where the defect reaches 1e-14, -inf below it.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if mu.is_dirac():
        return EstimateResult(0.0, None, 0, 0, "degenerate-dirac")
    costs = cost_matrix(alpha, space, lam)
    n = space.size
    tau = lambda fs: _tau_best(mu.weights, costs, fs)
    if n == 2:
        ys = _potential_grid(-_POTENTIAL_BOUND, 0.0, _PAIR_STEP)
        return _fold(tau, _potential_blocks(ys)).result("dense-scan-2pt")
    if n == 3:
        axis = _potential_grid(-_POTENTIAL_BOUND, _POTENTIAL_BOUND, 0.1)
        coarse = _fold(tau, _potential_blocks(axis, axis))
        if coarse.ratio == -np.inf:
            return coarse.result("dense-scan-3pt")
        zoom = [_potential_grid(c - 0.12, c + 0.12, 2e-3) for c in coarse.row[1:]]
        return coarse.merge(_fold(tau, _potential_blocks(*zoom))).result(
            "dense-scan-3pt-zoom")
    budget = budget or SearchBudget()
    rng = np.random.default_rng(seed)
    starts = [rng.uniform(-3.0, 0.0, n) for _ in range(budget.starts)]
    return _ascend(lambda fs: _tau_parts(mu.weights, costs, fs), starts,
                   _gauge_clip, budget, 0).result("multistart-ascent")


def _tau_parts(mu_w, costs, fs):
    """(entropy, defect, defect above the floor) of each gauge-shifted row."""
    ent, defect = _tau_pieces(mu_w, costs, fs)
    return ent, defect, defect >= DENOM_FLOOR


def _tau_best(mu_w, costs, fs) -> _Scan:
    """Dense tau scan: rows with defect below the floor are skipped, and
    those among them with positive entropy are degeneracy witnesses."""
    ent, defect, ok = _tau_parts(mu_w, costs, fs)
    return _best_ratio(ent, defect, ok, fs, ~ok & (ent > 1e-12))


# ---------------------------------------------------------------------------
# slope-based (surrogate) log-Sobolev constant


def mlsi_constant_estimate(alpha: YoungFunction, space: FiniteMetricSpace,
                           mu: ProbMeasure, sign: str = "+",
                           adjacency: list | None = None, *,
                           budget: SearchBudget | None = None,
                           seed: int = 0) -> EstimateResult:
    """Lower bound on the constant in Ent(e^f) <= A int conj(|slope f|) e^f.

    SURROGATE: the slope modulus is the discrete (global or
    adjacency-restricted) difference quotient, not the continuum limsup,
    which vanishes identically on finite spaces.  Downstream verdicts
    based on this estimate are capped at INCONCLUSIVE.  Potentials range
    over [-20, 0] after the gauge shift, by steps of 1e-3 on two points,
    and larger spaces take the multistart ascent.  Both score a potential
    by entropy / slope integral where that is finite and at least 1e-14,
    -inf elsewhere.
    """
    if mu.is_dirac():
        return EstimateResult(0.0, None, 0, 0, "degenerate-dirac")
    mu_w = mu.weights
    adjacency = _neighbours(space, adjacency)

    def parts(fs):
        fs, raw, ent = _gauge_entropy(mu_w, fs)
        conj = np.asarray(alpha.conjugate(slope_vector(space, fs, sign, adjacency)),
                          dtype=float)
        with np.errstate(invalid="ignore"):
            terms = raw * conj
        terms = np.where((raw > 0) & ~np.isfinite(conj), np.inf,
                         np.where(raw == 0, 0.0, terms))
        den = terms.sum(axis=1)
        return ent, den, (den >= DENOM_FLOOR) & np.isfinite(den)

    if space.size == 2:
        ys = _potential_grid(-_POTENTIAL_BOUND, 0.0, _PAIR_STEP)
        scan = _fold(lambda fs: _best_ratio(*parts(fs), fs), _potential_blocks(ys))
        return scan.result("dense-scan-2pt-surrogate",
                           () if scan.ratio == -np.inf else ("slope surrogate",))
    budget = budget or SearchBudget()
    rng = np.random.default_rng(seed)
    starts = [rng.uniform(-2.0, 0.0, space.size) for _ in range(budget.starts)]
    starts.extend(_smooth_starts(space))
    return _ascend(parts, starts, _gauge_clip, budget, 0).result(
        "multistart-ascent-surrogate", ("slope surrogate",))


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
               level: float) -> dict:
    """Exponential-moment dual check at level c:
    log int e^{c Qf} dmu <= c mu(f) for all bounded f (order 1).

    Scans potential families on [-20, 20] (by steps of 1e-3 on two points,
    plus the inf-convolution kink offsets +-alpha(d); by 0.05 on three) and
    reports the largest log-gap; a gap above ``DUAL_GAP_TOL`` is a violation
    witnessing that the transport inequality at constant 1/c fails on the
    scanned set.  The scan is folded a block of rows at a time, through
    :meth:`_Scan.merge`, into the first largest gap and a copy of its row,
    so no full grid is held.
    Points of zero mass add e^-inf = 0 to the integral; Q still takes its
    minimum over the whole space.
    """
    log_mu = _log_weights(mu.weights)

    def worst_row(block):
        fs, qs, means = block
        gaps = _dual_gaps(qs, means, log_mu, level)
        k = int(np.argmax(gaps))
        # a view would keep its block alive
        return _Scan(gaps[k], fs[k].copy(), np.nan, fs.shape[0], 0)

    worst = _fold(worst_row, _dual_scan(alpha, space, mu))
    return {
        "level": level,
        "max_log_gap": float(worst.ratio),
        "violation": bool(worst.ratio > DUAL_GAP_TOL),
        "worst_potential": worst.row,
        "gap_tol": DUAL_GAP_TOL,
        "n_candidates": worst.rows,
    }


def _dual_scan(alpha, space, mu):
    """The level-free part of the dual scan, one block of rows at a time:
    each point-major block of potentials, its inf-convolutions and its
    mu-means.

    The means are row-major BLAS products of C-ordered copies of the
    blocks, as a (B, n) C grid would give them; a column-major product
    rounds differently in the last bit.
    """
    costs = cost_matrix(alpha, space)
    if space.size == 2:
        ys = _potential_grid(-_POTENTIAL_BOUND, _POTENTIAL_BOUND, _PAIR_STEP)
        kinks = costs[0, 1] * np.array([-1.0 - 1e-9, -1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-9])
        axes = (np.concatenate([ys, kinks]),)
    elif space.size == 3:
        axis = _potential_grid(-_POTENTIAL_BOUND, _POTENTIAL_BOUND, 0.05)
        axes = (axis, axis)
    else:
        raise ValueError("dense dual scan provided for 2- and 3-point spaces")
    for fs in _potential_blocks(*axes):
        yield fs, _q_rows(costs, fs), np.ascontiguousarray(fs) @ mu.weights


def _dual_gaps(qs, means, log_mu, level: float) -> np.ndarray:
    """log int e^{c Qf} dmu - c mu(f) for each row of a dual-scan block."""
    a = level * qs
    a += log_mu
    return _logsumexp_rows(a) - level * means


def _log_weights(w: np.ndarray) -> np.ndarray:
    """log mu, -inf at zero mass: such a point adds exactly e^-inf = 0."""
    with np.errstate(divide="ignore"):
        return np.log(w)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log sum_j e^{a[b, j]} for each row, with temporaries in the layout of a."""
    m = a.max(axis=1)
    e = a - m[:, None]
    return m + np.log(np.exp(e, out=e).sum(axis=1))


def largest_passing_dual_level(alpha: YoungFunction, space: FiniteMetricSpace,
                               mu: ProbMeasure, *,
                               rel_precision: float = 1e-4) -> float:
    """Largest c whose dual check stays within ``DUAL_GAP_TOL`` (bisection).

    The inf-convolutions and means of the potentials are level-free: they
    are kept, block by block, from one streamed scan, and the potentials
    themselves are dropped.  Each level evaluates only the log-sum-exp.

    A Dirac mu passes at every level: Qf <= f, so the gap c (Qf - f) at
    its atom is never positive, and the level is +oo with no scan.
    """
    if mu.is_dirac():
        return math.inf
    log_mu = _log_weights(mu.weights)
    kept = [(qs, means) for _, qs, means in _dual_scan(alpha, space, mu)]
    violates = lambda level: max(_dual_gaps(qs, means, log_mu, level).max()
                                 for qs, means in kept) > DUAL_GAP_TOL
    lo, hi = 1e-10, 1.0
    while not violates(hi):
        lo = hi
        hi *= 2.0
        if hi > 1e8:
            return lo
    while hi / lo > 1.0 + rel_precision:
        mid = math.sqrt(lo * hi)
        if violates(mid):
            hi = mid
        else:
            lo = mid
    return lo


def tensor_dual_check(alpha: YoungFunction, space: FiniteMetricSpace,
                      mu: ProbMeasure, *, tau: float, a: float, b: float,
                      c_norm: float, n: int = 2, count: int = 64,
                      seed: int = 0) -> dict:
    """Tensorized sup-convolution moment premise on the n-fold product:
    log int e^{tau P f} dmu^n <= log a + b mu^n(Pf) + tau c ||f||_inf
    for non-negative f.  Evaluated over a seeded battery of potentials;
    the implied transport constant is 1 / (tau (1 - c)).

    The battery is priced as one array: the potentials are stacked in the
    order they are drawn, the sup-convolution runs once per product axis
    (last axis first, as :func:`ineqlab.infconv.p_conv` does) through the
    min-plus row kernel, and the log-sum-exp, means and sup-norms are taken
    per row.  Every number equals the one-potential-at-a-time evaluation."""
    if not 0.0 <= c_norm < 1.0:
        raise ValueError("c must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    prod = ProductSpace(space, n)
    weights = prod.product_weights(mu).reshape(-1)
    fs = np.empty((count, *prod.shape))
    for k in range(count):
        fs[k] = rng.uniform(0.0, rng.uniform(0.5, 6.0), prod.shape)
    costs = cost_matrix(alpha, space)
    g = -fs
    for axis in range(n, 0, -1):
        g = _q_axis(costs, g, axis)
    pf = -g.reshape(count, prod.size)
    log_lhs = _logsumexp_rows(_log_weights(weights) + tau * pf)
    sup = np.abs(fs.reshape(count, prod.size)).max(axis=1)
    gaps = (log_lhs - (math.log(a) + b * (weights * pf).sum(axis=1)
                       + tau * c_norm * sup))
    worst, worst_sup = -math.inf, None
    if count:
        k = int(np.argmax(gaps))
        worst, worst_sup = gaps[k], float(sup[k])
    return {
        "tau": tau, "a": a, "b": b, "c": c_norm, "order": n,
        "max_log_gap": float(worst),
        "violation": bool(worst > DUAL_GAP_TOL),
        "implied_transport_constant": 1.0 / (tau * (1.0 - c_norm)),
        "n_candidates": count,
        "gap_tol": DUAL_GAP_TOL,
        "worst_potential_max": worst_sup,
    }


# ---------------------------------------------------------------------------
# concentration


def concentration_check(space: FiniteMetricSpace, mu: ProbMeasure, p: float,
                        constant: float, n: int = 1, *, count: int = 50,
                        seed: int = 0) -> dict:
    """Tail check mu^n(f >= mean + u) <= exp(-u^p / (L^p C)) over a battery
    of Lipschitz potentials, exact by atom enumeration (one direction of
    the transport/concentration equivalence).  It holds at a worst tail
    ratio up to 1 + 1e-9."""
    rel_tol = 1e-9
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


def _violation_ratio_tau(alpha, space, mu, scales, abs_tol):
    """max over scanned f of Ent / (A * defect + abs_tol), for each
    (lambda, A) in ``scales``: a list of (ratio, worst potential) pairs,
    and the number of potentials scanned per pair.

    The potentials are streamed a block of rows at a time.  A block's gauge
    shift, weights mu e^f and entropies do not depend on lambda and are
    computed once; each (lambda, A) adds only the inf-convolution and the
    defect, and keeps its first best row as a copy.
    """
    if space.size == 2:
        axes = (_potential_grid(-_POTENTIAL_BOUND, 0.0, _PAIR_STEP),)
    elif space.size == 3:
        axis = _potential_grid(-_POTENTIAL_BOUND, _POTENTIAL_BOUND, 0.05)
        axes = (axis, axis)
    else:
        raise ValueError("dense chain checks provided for 2-3 point spaces")
    costs = [cost_matrix(alpha, space, lam) for lam, _ in scales]

    def scan(fs):
        gauged, raw, ent = _gauge_entropy(mu.weights, fs)
        return [_best_ratio(ent, amax * _defect(c, gauged, raw) + abs_tol, True, fs)
                for c, (_, amax) in zip(costs, scales)]

    found = reduce(lambda a, b: list(map(_Scan.merge, a, b)),
                   map(scan, _potential_blocks(*axes)))
    return [(float(f.ratio), f.row) for f in found], found[0].rows


def _chain_transport_to_tau(alpha, space, mu, seed, rel_tol, abs_tol, fractions):
    est = transport_constant_estimate(alpha, space, mu, seed=seed)
    cstar = est.value
    worst = 0.0
    witness = None
    total = 0
    if cstar <= 0:
        verdict = "PASS"
    else:
        scales = [(frac / cstar, (1.0 + rel_tol) / (1.0 - frac)) for frac in fractions]
        found, n_f = _violation_ratio_tau(alpha, space, mu, scales, abs_tol)
        total = n_f * len(fractions)
        for frac, (ratio, wf) in zip(fractions, found):
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
    dips = np.diag(np.full(space.size, -c))  # row i dips at point i
    untouched = np.all(_q_rows(cost_matrix(alpha, space, lam), dips) == dips, axis=1)
    _, _, ents = _gauge_entropy(mu.weights, dips)
    return float(ents[untouched].max(initial=0.0))


def _chain_tau_to_transport(alpha, space, mu, seed, rel_tol, abs_tol, lam,
                            budget):
    est = tau_lsi_constant_estimate(alpha, lam, space, mu, seed=seed)
    p = alpha.exponents().p_exp
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
                   seed: int = 0) -> tuple[ProbMeasure, float, VerificationReport]:
    """Perturb mu by the bounded density e^phi and verify the guaranteed
    transport constant of the perturbed measure.

    New constant: factor * C * exp((p-1) Osc(phi)) with the conversion
    factor kappa_tilde; the sharper route through the infimum over the
    intermediate scale is computed as well (the two agree analytically)
    and both are attacked by the transport scan on the perturbed measure,
    at a relative tolerance of 1e-6.
    """
    rel_tol = 1e-6
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (space.size,):
        raise ValueError("perturbation must be a potential on the space")
    p = alpha.exponents().p_exp
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
