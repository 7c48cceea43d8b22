"""Monte Carlo estimation of the distance scaling function.

phi_hat(r) is the median chemical distance from the origin over the
annulus {delta * r <= |x| < r} (kernel norm, delta = 0.1 by default),
divided by (log r)**delta_exponent with the natural logarithm.  The median
is robust against the few vertices sitting right next to a long-edge
endpoint; the inner cutoff excises the neighborhood of the origin.

Replicas are independent jobs with seeds seed0, seed0 + 1, ...; every
estimator here is a deterministic function of (params, radii, n_replicas,
seed0), and one runner, ``_run_replicas``, runs every replica.
Confidence intervals are seeded percentile bootstraps with 1000
resamples.

Finite-volume caveat: the graph is sampled on the box of the largest radius
in the call, so shortest paths cannot leave the box and distances near its
boundary carry a small upward bias; this is inherent to any finite window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .model import ModelParams, derived_constants
from .sampler import (
    DEFAULT_MEMORY_CAP,
    Box,
    MemoryCapExceeded,
    _check_coupled_ladder,
    _check_memory,
    sample_graph,  # unused here, but perfbench/tracing.py's PATCH_POINTS wraps it (ROADMAP item 2)
    sample_graph_coupled,
)
from .metric import DistanceField, _bfs
from .metric import distances_from  # unused here, but perfbench/tracing.py's PATCH_POINTS wraps it
from .limits import collapse_radius, psi_limit, tail_envelope

_BOOTSTRAP_TAG = 0xB007
_GAP_TAG = 0x6A7
_COLLAPSE_TAG = 0xC077
_BOOTSTRAP_RESAMPLES = 1000


@dataclass(frozen=True)
class ExperimentRecord:
    """One replica's phi estimate."""

    params: ModelParams
    r: float
    seed: int
    phi_hat: float
    n_points: int
    annulus_fraction: float


@dataclass(frozen=True)
class PhiEstimate:
    """Replica-aggregated phi estimate with a bootstrap confidence interval."""

    params: ModelParams
    r: float
    n_replicas: int
    seed0: int
    phi_hat: float
    ci_low: float
    ci_high: float
    records: tuple


def _annulus_masks(nrm: np.ndarray, radii, delta: float) -> list:
    """Each radius's annulus {delta * r <= |x| < r} as a mask over the norm field ``nrm``."""
    return [(nrm >= delta * r) & (nrm < r) for r in radii]


def _shell_masks(nrm: np.ndarray, radii, halfwidth: float) -> list:
    """Each radius rho's shell {| |x| - rho | <= halfwidth * rho} as a mask over ``nrm``."""
    return [np.abs(nrm - rho) <= halfwidth * rho for rho in radii]


def _replica(params_list, box, shell_masks, radii, width, memory_cap_bytes, last_level, seed) -> list:
    """One coupled ladder sample on ``box`` at ``seed`` and one BFS per rung: each rung's shell histograms.

    The caller owns the shells: ``shell_masks(norm_field, radii, width)``, a
    module-level function so that it pickles, gives one mask per shell, and
    ``hists[j]`` is the histogram of the distances over shell j.  Each
    search stops at the first level that is at least ``last_level`` and at
    which every non-empty shell has more than half its vertices reached,
    and the unreached vertices go into one overflow bin just above the last
    level searched.  So each histogram's median (``_hist_median``), its
    total and its prefix sums up to ``last_level`` equal their values over
    the whole box's distances.  Rungs are searched in ascending order, and
    each rung's sample, with its cached adjacency, and its distances are
    dropped once its histograms are taken, so a search runs beside the
    higher rungs' edges but no other rung's adjacency.  It samples before
    it builds the norm field, under the cap less the masks past the first,
    which the sampler's search stage leaves out; a refusal adds them back
    to its estimate and names the caller's cap.
    """
    extra = (len(radii) - 1) * box.n_vertices
    try:
        # A copy, emptied below as the rungs are searched: perfbench's tracer reads the list
        # that the sampler returned once the op is over.
        samples = list(sample_graph_coupled(params_list, box, seed, memory_cap_bytes=memory_cap_bytes - extra))
    except MemoryCapExceeded as exc:
        raise MemoryCapExceeded(exc.estimated_bytes + extra, memory_cap_bytes, exc.stage) from None
    masks = shell_masks(box.norm_field((0,) * box.d, params_list[0].norm), radii, width)
    needs = [size // 2 + (size > 0) for size in map(np.count_nonzero, masks)]  # more than half; 0 if empty
    origin = box.index_of(np.zeros(box.d, dtype=np.int64))

    def histograms(sample):
        reached = [0] * len(masks)

        def settled(level, frontier):
            for j, mask in enumerate(masks):
                if reached[j] < needs[j]:
                    reached[j] += int(np.count_nonzero(mask[frontier]))
            return level >= last_level and all(got >= need for got, need in zip(reached, needs))

        dist = _bfs(sample, origin, stop=settled)
        dist[dist < 0] = dist.max() + 1
        return [np.bincount(dist[mask]) for mask in masks]

    # pop(0): the copy holds no rung once its search is done, so its adjacency goes with it.
    return [histograms(samples.pop(0)) for _ in range(len(samples))]


def _run_replicas(replica, seed0: int, n_replicas: int, executor=None) -> list:
    """The one replica loop: ``replica(seed0 + i)``, i < n_replicas, in order, by ``executor.map`` if given."""
    return list((map if executor is None else executor.map)(replica, range(seed0, seed0 + n_replicas)))


def _hist_median(hist: np.ndarray) -> float:
    """``np.median`` of the values ``hist`` counts, bit for bit: the mean of the two middle ones."""
    n = int(hist.sum())
    return float(np.searchsorted(np.cumsum(hist), [(n - 1) // 2, n // 2], side="right").sum() / 2)


def _bootstrap_ci(rng: np.random.Generator, stat, *samples) -> tuple:
    """Percentile-bootstrap 95% CI of ``stat`` of the replica means of ``samples``.

    Every sample holds the same replicas on its last axis.  Per sample, in
    order, one (_BOOTSTRAP_RESAMPLES, n) matrix of replica indices is drawn
    from ``rng``; ``stat`` gets each sample's resampled means (its replica
    axis replaced by a bootstrap axis) and the CI is their 2.5 and 97.5
    percentiles.  With one replica both ends are ``stat`` of the plain
    means, and ``rng`` is not touched.
    """
    n = samples[0].shape[-1]
    if n == 1:
        v = float(stat(*(s.mean(axis=-1) for s in samples)))
        return v, v
    means = [s[..., rng.integers(0, n, size=(_BOOTSTRAP_RESAMPLES, n))].mean(axis=-1) for s in samples]
    boot = stat(*means)
    return float(np.percentile(boot, 2.5)), float(np.percentile(boot, 97.5))


def _check_collapse_betas(params_list: list) -> None:
    """Refuse, before any sampling, a collapse ladder whose betas do not strictly increase or
    do not all exceed e (the limit curve's rescaling needs log beta > 1)."""
    betas = [pm.beta for pm in params_list]
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError(f"collapse expects strictly increasing betas, got {betas}")
    for beta in betas:
        if not math.log(beta) > 1.0:
            raise ValueError(f"collapse requires beta > e, got beta={beta}")


def _check_delta(delta: float) -> None:
    """Refuse an inner cutoff that leaves no annulus {delta * r <= |x| < r}, or all of the ball."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def _ball_count(d: int, norm: str, t: int, memo: dict) -> int:
    """Lattice points x in Z^d with h(x) <= t, h = sum |x_i|, max |x_i| or sum x_i**2 for ell1, ellinf,
    ell2; ``memo`` keeps the ell2 counts of fewer dimensions."""
    if t < 0:
        return 0
    if norm == "ellinf":
        return (2 * t + 1) ** d
    if norm == "ell1":
        return sum(2**i * math.comb(d, i) * math.comb(t, i) for i in range(min(d, t) + 1))
    m = math.isqrt(t)
    if d == 1:
        return 2 * m + 1
    if d == 2:
        rest = t - np.arange(-m, m + 1, dtype=np.int64) ** 2
        root = np.sqrt(rest).astype(np.int64)  # rest < 2**53, so off by at most one
        root -= root * root > rest
        root += (root + 1) ** 2 <= rest
        return int((2 * root + 1).sum())
    if (d, t) not in memo:
        memo[d, t] = sum((2 - (x == 0)) * _ball_count(d - 1, norm, t - x * x, memo) for x in range(m + 1))
    return memo[d, t]


def _annulus_size(d: int, norm: str, r: float, delta: float) -> int:
    """The vertices ``_annulus_masks`` counts in {delta * r <= |x| < r}, found with no norm field.

    In d = 1 every norm is |x|, exactly.  Otherwise, in any ``Box`` (at
    most 2**32 vertices), the norm field holds g(h(x)) with h an integer
    that float64 keeps exact (``_ball_count``) and g the identity or, under
    ell2, the correctly rounded square root.  g is monotone, so g(h) >= a
    holds exactly from the least integer h that meets it on, and the
    annulus count is a difference of two ball counts.
    """
    if d == 1:
        return 2 * max(0, math.ceil(r) - math.ceil(delta * r))
    least = _least_root_at_least if norm == "ell2" else math.ceil
    lo, hi, memo = least(delta * r), least(r), {}
    return _ball_count(d, norm, hi - 1, memo) - _ball_count(d, norm, lo - 1, memo)


def _least_root_at_least(a: float) -> int:
    """The least integer h >= 0 with sqrt(h) >= a in float64."""
    h = max(0, math.ceil(a * a))
    while h > 0 and math.sqrt(h - 1) >= a:
        h -= 1
    while math.sqrt(h) < a:
        h += 1
    return h


def _log_scale(params: ModelParams, r: float) -> float:
    """(log r)**Delta, the divisor of phi_hat; ValueError unless it is a positive finite float."""
    delta_exponent = derived_constants(params).delta
    try:
        scale = math.log(r) ** delta_exponent
    except OverflowError:
        scale = math.inf
    if not 0 < scale < math.inf:
        raise ValueError(f"(log r)**Delta = {math.log(r)!r}**{delta_exponent!r} at r={r} is not "
                         f"a positive finite float")
    return scale


def _check_radii(params: ModelParams, radii, delta: float) -> list:
    """Refuse, before any sampling, radii the config alone rules out; their (log r)**Delta otherwise.

    Each radius must be a finite real above 1, the box of radius
    ceil(max r) must be a ``Box`` (at most 2**32 vertices), each annulus
    {delta * r <= |x| < r} must hold 100 lattice points, and each
    (log r)**Delta must be a positive finite float; delta is taken to lie
    in (0, 1) already.
    """
    if any(not 1 < r < math.inf for r in radii):
        raise ValueError(f"r must be a finite real > 1, got {radii}")
    Box(params.d, math.ceil(max(radii)))
    for r in radii:
        # The 2d axis points at distance k from 0, delta * r <= k < r, lie in the annulus under every norm.
        if 2 * params.d * (math.ceil(r) - math.ceil(delta * r)) < 100:
            n_points = _annulus_size(params.d, params.norm, r, delta)
            if n_points < 100:
                raise ValueError(f"annulus {{{delta}*r <= |x| < r}} holds only {n_points} vertices "
                                 f"at r={r}; need at least 100")
    return [_log_scale(params, r) for r in radii]


def _estimate_ladder(params_list: list, radii: list, n_replicas: int, seed0: int, delta: float,
                     executor, memory_cap_bytes: int, bootstrap_keys: list) -> list:
    """PhiEstimates [rung][radius]; rung i's bootstrap is seeded by bootstrap_keys[i] at every radius."""
    _check_delta(delta)
    _check_coupled_ladder(params_list, seed0, n_replicas)
    scales = _check_radii(params_list[0], radii, delta)
    box = Box(params_list[0].d, int(math.ceil(max(radii))))
    per_replica = _run_replicas(partial(_replica, params_list, box, _annulus_masks, radii, delta,
                                        memory_cap_bytes, 0), seed0, n_replicas, executor)

    def record(i, bi, ri):
        hist = per_replica[i][bi][ri]
        return ExperimentRecord(params=params_list[bi], r=float(radii[ri]), seed=int(seed0 + i),
                                phi_hat=_hist_median(hist) / scales[ri], n_points=int(hist.sum()),
                                annulus_fraction=int(hist.sum()) / box.n_vertices)

    def estimate(bi, ri):
        records = tuple(record(i, bi, ri) for i in range(n_replicas))
        phis = np.array([rec.phi_hat for rec in records])
        ci_low, ci_high = _bootstrap_ci(np.random.default_rng(bootstrap_keys[bi]), lambda m: m, phis)
        return PhiEstimate(params=params_list[bi], r=float(radii[ri]), n_replicas=n_replicas,
                           seed0=int(seed0), phi_hat=float(phis.mean()), ci_low=ci_low,
                           ci_high=ci_high, records=records)

    return [[estimate(bi, ri) for ri in range(len(radii))] for bi in range(len(params_list))]


def estimate_phi(params: ModelParams, r: float, n_replicas: int, seed0: int,
                 delta: float = 0.1, executor=None,
                 memory_cap_bytes: int = DEFAULT_MEMORY_CAP) -> PhiEstimate:
    """Estimate phi(r) over independent replicas seeded seed0 + i.

    Each replica samples its own graph on the box of radius ceil(r) and
    takes the median distance over the annulus {delta * r <= |x| < r},
    with delta in (0, 1).  ``executor`` may be a
    concurrent.futures executor; replica order (and hence output) is
    deterministic either way.  This is a ladder of one: its phi_hat and
    records equal those of ``estimate_phi_ladder([params], ...)``.
    """
    return _estimate_ladder([params], [r], n_replicas, seed0, delta, executor, memory_cap_bytes,
                            [[seed0, _BOOTSTRAP_TAG]])[0][0]


def estimate_phi_ladder(params_list, r: float, n_replicas: int, seed0: int,
                        delta: float = 0.1, executor=None,
                        memory_cap_bytes: int = DEFAULT_MEMORY_CAP) -> list:
    """estimate_phi along an ascending beta ladder with monotone coupling.

    Replica i samples the whole ladder once (seed0 + i): the top rung is
    ``sample_graph`` at the largest beta and lower rungs thin it, so
    phi_hat is non-increasing in beta exactly, replica by replica.
    Returns one PhiEstimate per beta.
    """
    params_list = list(params_list)
    keys = [[seed0, _BOOTSTRAP_TAG, bi] for bi in range(len(params_list))]
    return [row[0] for row in _estimate_ladder(params_list, [r], n_replicas, seed0, delta, executor,
                                               memory_cap_bytes, keys)]


def theorem1_fraction(field: DistanceField, r: float, scale: float, epsilon: float) -> float:
    """Fraction of ball vertices whose distance deviates from ``scale``.

    Counts the box vertices x in B(source, r) (kernel norm, weak
    inequality) with |D(source, x)/scale - 1| > epsilon, normalized by the
    number of box vertices in B(source, r).  That is the lattice-point
    count |B(source, r)| only when the ball fits in the box, which an
    off-centre source can break even for r <= the box radius, and it is
    never empty, since r must lie in [0, box radius].  The ball is checked
    against the memory cap before it is built (``_ball_distances``).
    """
    box = field.sample.box
    if not 0 <= r <= box.radius:
        raise ValueError(f"r={r} must lie in [0, {box.radius}] (the box radius)")
    return _deviation_fraction(_ball_distances(field, r), scale, epsilon)


def _ball_distances(field: DistanceField, r: float) -> np.ndarray:
    """The distances of the box vertices x with norm(x - source) <= r (kernel norm), in index order.

    The float64 norm field and the ball mask (9 bytes per vertex) are
    checked against ``DEFAULT_MEMORY_CAP`` before they are built.
    """
    box = field.sample.box
    _check_memory(9.0 * box.n_vertices, DEFAULT_MEMORY_CAP, "ball field and mask")
    return field.dist[box.norm_field(field.source, field.sample.params.norm) <= r]


def _deviation_fraction(ball_dists: np.ndarray, scale: float, epsilon: float) -> float:
    """``theorem1_fraction`` from the distances of the ball's vertices, for a caller that has them."""
    if not scale > 0:
        raise ValueError("scale must be > 0")
    if not epsilon >= 0:
        raise ValueError("epsilon must be >= 0")
    ratios = ball_dists.astype(np.float64) / scale
    return float(np.count_nonzero(np.abs(ratios - 1.0) > epsilon) / ratios.size)


@dataclass(frozen=True)
class PeriodicityDiagnostic:
    """phi_hat at r and at r**(1/gamma), with the relative gap between them.

    A finite-size diagnostic: log-log-periodicity is an asymptotic
    property, so the gap is reported with a CI rather than pass/fail.
    """

    r: float
    r_next: float
    estimate_r: PhiEstimate
    estimate_r_next: PhiEstimate
    relative_gap: float
    gap_ci_low: float
    gap_ci_high: float


def periodicity_diagnostic(params: ModelParams, r: float, n_replicas: int, seed0: int,
                           delta: float = 0.1, executor=None,
                           memory_cap_bytes: int = DEFAULT_MEMORY_CAP) -> PeriodicityDiagnostic:
    """Compare phi_hat at radii one log-log period apart (r and r**(1/gamma)),
    both read from one sample per replica on the box of the outer radius."""
    gamma, _ = derived_constants(params)
    try:
        r_next = r ** (1.0 / gamma)
    except OverflowError:  # past the float range: _check_radii refuses it as it refuses inf
        r_next = math.inf
    est1, est2 = _estimate_ladder([params], [r, r_next], n_replicas, seed0, delta, executor,
                                  memory_cap_bytes, [[seed0, _BOOTSTRAP_TAG]])[0]
    phis1, phis2 = (np.array([rec.phi_hat for rec in est.records]) for est in (est1, est2))
    gap = (est2.phi_hat - est1.phi_hat) / est1.phi_hat
    lo, hi = _bootstrap_ci(np.random.default_rng([seed0, _GAP_TAG]), lambda m1, m2: (m2 - m1) / m1,
                           phis1, phis2)
    return PeriodicityDiagnostic(r=float(r), r_next=float(r_next), estimate_r=est1,
                                 estimate_r_next=est2, relative_gap=float(gap),
                                 gap_ci_low=lo, gap_ci_high=hi)


@dataclass(frozen=True)
class CollapseCell:
    """One (beta, t) cell of a collapse experiment."""

    beta: float
    t: float
    r: float
    phi_hat: float
    ci_low: float
    ci_high: float
    value: float  # (log beta)**delta * phi_hat
    limit: float  # psi_limit(t)
    missing: bool
    reason: str
    replica_phis: tuple


@dataclass(frozen=True)
class CollapseSummary:
    beta: float
    n_cells: int
    n_missing: int
    max_abs_discrepancy: float
    mean_abs_discrepancy: float
    mean_abs_ci_low: float
    mean_abs_ci_high: float
    rank_correlation: float


@dataclass(frozen=True)
class CollapseReport:
    """Scaling-collapse table: empirical (log beta)**delta * psi_hat vs the limit curve."""

    t_grid: tuple
    m_offset: int
    cells: tuple
    summaries: tuple


def collapse_report(params_list, t_grid, n_replicas: int, seed0: int, m_offset: int = 4,
                    delta: float = 0.1, box_radius_cap: int = 10**7, executor=None,
                    memory_cap_bytes: int = DEFAULT_MEMORY_CAP) -> CollapseReport:
    """Tabulate empirical psi against psi_limit over a beta ladder and t grid.

    For each beta and t the probe radius is
    r = exp(gamma**(-t) * u(beta)/(2d-s) * gamma**(-m_offset)); the dyadic
    offset keeps r simulable and is exact to the log-log period.  One coupled
    sample of the ladder per replica (seed0 + i), on the box of the largest
    live radius, serves every cell.  The betas must strictly increase, each
    above e, every t must lie in [0, 1] (``collapse_radius`` refuses any
    other) and delta in (0, 1).  Cells whose box exceeds
    ``box_radius_cap`` (a radius past the float range among them), whose
    radius ``_check_radii`` refuses (a box past the index limits, an
    annulus too thin, a (log r)**Delta past the float range), whose sweep
    the memory cap refuses, or whose beta's (log beta)**Delta overflows a
    float are marked missing with a reason, never fabricated.
    """
    params_list = list(params_list)
    _check_collapse_betas(params_list)
    t_vals = [float(t) for t in t_grid]
    _check_delta(delta)
    _check_coupled_ladder(params_list, seed0, n_replicas)

    plan = [(bi, pm, t, collapse_radius(pm, pm.beta, t, m_offset))
            for bi, pm in enumerate(params_list) for t in t_vals]
    radii = sorted({r for *_, r in plan})
    reasons = {}  # radius -> why its cells are missing
    for r in radii:
        try:
            if r > box_radius_cap:  # an integer cap: the same test as math.ceil(r) > cap
                raise ValueError(f"box radius {math.ceil(r) if r < math.inf else r} over cap {box_radius_cap}")
            _check_radii(params_list[0], [r], delta)
        except ValueError as exc:
            reasons[r] = str(exc)
    radii = [r for r in radii if r not in reasons]
    while radii:  # a memory refusal grows with the radius: drop the largest and sweep the rest
        try:
            ladder = _estimate_ladder(params_list, radii, n_replicas, seed0, delta, executor,
                                      memory_cap_bytes, [[seed0, _BOOTSTRAP_TAG]] * len(params_list))
            break
        except MemoryCapExceeded as exc:
            reasons[radii.pop()] = str(exc)
    estimates = {(bi, r): est for bi, row in enumerate(ladder) for r, est in zip(radii, row)} if radii else {}

    scales, overflows = [], []  # (log beta)**Delta per beta, and why its cells are missing if it overflows
    for pm in params_list:
        try:
            scales.append(math.log(pm.beta) ** derived_constants(pm).delta)
            overflows.append("")
        except OverflowError:
            scales.append(math.inf)
            overflows.append(f"(log beta)**Delta overflows a float at beta={pm.beta}")

    cells = []
    nan_est = PhiEstimate(None, math.nan, n_replicas, seed0, math.nan, math.nan, math.nan, ())
    for bi, pm, t, r in plan:
        reason = reasons.get(r) or overflows[bi]
        est = nan_est if reason else estimates[(bi, r)]  # nan_est stands in for a missing cell
        cells.append(CollapseCell(
            beta=pm.beta, t=t, r=r, phi_hat=est.phi_hat, ci_low=est.ci_low, ci_high=est.ci_high,
            value=scales[bi] * est.phi_hat, limit=float(psi_limit(pm, t)),
            missing=bool(reason), reason=reason,
            replica_phis=tuple(rec.phi_hat for rec in est.records),
        ))

    summaries = []
    rng = np.random.default_rng([seed0, _COLLAPSE_TAG])
    for pm, lb_pow in zip(params_list, scales):
        mine = [c for c in cells if c.beta == pm.beta]
        live = [c for c in mine if not c.missing]
        discrepancies = np.array([abs(c.value - c.limit) for c in live] or [math.nan])
        limits = np.array([c.limit for c in live])
        rank = _spearman([c.value for c in live], limits) if len(live) > 1 else math.nan
        ci_lo, ci_hi = _bootstrap_ci(rng, lambda m: np.abs(m.T * lb_pow - limits).mean(axis=-1),
                                     np.array([c.replica_phis for c in live])) if live else (math.nan,) * 2
        summaries.append(CollapseSummary(
            beta=pm.beta, n_cells=len(mine), n_missing=len(mine) - len(live),
            max_abs_discrepancy=float(discrepancies.max()),
            mean_abs_discrepancy=float(discrepancies.mean()),
            mean_abs_ci_low=ci_lo, mean_abs_ci_high=ci_hi,
            rank_correlation=rank,
        ))
    return CollapseReport(t_grid=tuple(t_vals), m_offset=int(m_offset),
                          cells=tuple(cells), summaries=tuple(summaries))


def _spearman(x, y) -> float:
    """Spearman's rank correlation, ties given their mean rank; nan if an input is constant or holds a nan."""
    if any(np.isnan(np.asarray(v, dtype=np.float64)).any() for v in (x, y)):
        return math.nan  # as scipy.stats.spearmanr propagates a nan
    ranks = []
    for v in (x, y):
        _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
        ranks.append((np.cumsum(counts) - (counts - 1) / 2)[inverse])
    with np.errstate(divide="ignore", invalid="ignore"):  # ranks as columns, as scipy's: rows round otherwise
        return float(np.corrcoef(np.column_stack(ranks), rowvar=False)[1, 0])


@dataclass(frozen=True)
class TailRow:
    radius: float
    n_points: int
    empirical: float
    envelope: float
    envelope_fitted: float


@dataclass(frozen=True)
class TailComparison:
    """Empirical P(D(0, x) <= n) per annulus shell vs the analytic envelope.

    ``c_fitted`` is the smallest constant making the envelope dominate every
    empirical point (a fitted quantity; the theory only asserts existence).
    """

    n: int
    rows: tuple
    c: float
    c_tilde: float
    p: float
    c_fitted: float
    precondition_ok: bool


def tail_comparison(params: ModelParams, n: int, radii_list, n_replicas: int, seed0: int,
                    c: float, c_tilde: float, p: float, shell_halfwidth: float = 0.1,
                    memory_cap_bytes: int = DEFAULT_MEMORY_CAP) -> TailComparison:
    """Compare the shell-averaged frequency of {D(0, x) <= n} with its envelope.

    Each radius rho gets the shell {|norm(x) - rho| <= shell_halfwidth * rho};
    frequencies aggregate over replicas with seeds seed0 + i, each one
    ``_replica`` run on the box of radius ceil(max rho * (1 + shell_halfwidth)).
    """
    radii = [float(rho) for rho in radii_list]
    if not radii or any(not 0 < rho < math.inf for rho in radii):
        raise ValueError("radii must be positive finite reals")
    if not 0 < shell_halfwidth < 1:
        raise ValueError("shell_halfwidth must be in (0, 1)")
    if not max(radii) * (1 + shell_halfwidth) < math.inf:
        raise ValueError("the box radius max(radii) * (1 + shell_halfwidth) overflows a float")
    box = Box(params.d, int(math.ceil(max(radii) * (1 + shell_halfwidth))))
    envs = [tail_envelope(params, n, rho, c, c_tilde, p) for rho in radii]  # validates n, c, p
    _check_coupled_ladder([params], seed0, n_replicas)
    replica = partial(_replica, [params], box, _shell_masks, radii, shell_halfwidth, memory_cap_bytes, n)
    points, hits = np.sum([[[hist.sum() for hist in hists], [hist[:n + 1].sum() for hist in hists]]
                           for [hists] in _run_replicas(replica, seed0, n_replicas)], axis=0)

    empirical = [float(h / pts) if pts else math.nan for h, pts in zip(hits, points)]
    ratios = [emp / (env.value / c) for pts, emp, env in zip(points, empirical, envs)
              if pts > 0 and env.value > 0]
    c_fitted = max(ratios) if ratios else 0.0
    rows = tuple(TailRow(radius=rho, n_points=int(pts), empirical=emp, envelope=env.value,
                         envelope_fitted=c_fitted * (env.value / c))
                 for rho, pts, emp, env in zip(radii, points, empirical, envs))
    return TailComparison(n=int(n), rows=rows, c=float(c), c_tilde=float(c_tilde), p=float(p),
                          c_fitted=float(c_fitted),
                          precondition_ok=all(env.precondition_ok for env in envs))
