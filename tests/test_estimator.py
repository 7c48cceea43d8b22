import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import lrplab.estimator
from hypothesis import given, settings
from hypothesis import strategies as st

from lrplab import (
    Box,
    MemoryCapExceeded,
    ModelParams,
    collapse_radius,
    collapse_report,
    derived_constants,
    distances_from,
    estimate_phi,
    estimate_phi_ladder,
    norm_value,
    periodicity_diagnostic,
    psi_limit,
    sample_graph,
    sample_graph_coupled,
    table_kernel,
    tail_comparison,
    theorem1_fraction,
)

PM = ModelParams(d=1, s=1.5, beta=1.0)

NO_LONG_EDGES = ModelParams(d=1, s=1.5, beta=1.0,
                            kernel=table_kernel({}, tail="zero"))


class TestEstimatePhi:
    def test_deterministic_graph_exact_value(self):
        # Without long edges the chemical distance is the lattice distance,
        # so the estimator reduces to a closed-form median.
        r = 150.0
        est = estimate_phi(NO_LONG_EDGES, r, n_replicas=2, seed0=0)
        _, delta = derived_constants(NO_LONG_EDGES)
        box = Box(d=1, radius=150)
        coords = box.coords_of(np.arange(box.n_vertices))
        nrm = norm_value(coords, "ell2")
        annulus = nrm[(nrm >= 0.1 * r) & (nrm < r)]
        expected = float(np.median(annulus)) / math.log(r) ** delta
        assert est.phi_hat == pytest.approx(expected, rel=1e-12)
        for rec in est.records:
            assert rec.phi_hat == pytest.approx(expected, rel=1e-12)
        assert est.ci_low == pytest.approx(est.ci_high, rel=1e-12)

    def test_regression_value_and_cov(self):
        est = estimate_phi(PM, 2000.0, n_replicas=32, seed0=0)
        phis = np.array([rec.phi_hat for rec in est.records])
        assert np.all(np.isfinite(phis)) and np.all(phis > 0)
        cov = phis.std(ddof=1) / phis.mean()
        assert cov < 0.5
        # Frozen on first execution; deterministic given (params, r, seeds).
        assert est.phi_hat == pytest.approx(0.062241360432731194, rel=1e-12)
        # Bootstrap CI bytes, keyed [seed0, _BOOTSTRAP_TAG].
        assert (est.ci_low, est.ci_high) == (0.06059102133034816, 0.06389169953511421)

    def test_record_bookkeeping(self):
        est = estimate_phi(PM, 300.0, n_replicas=3, seed0=42)
        assert est.n_replicas == 3 and est.seed0 == 42
        assert len(est.records) == 3
        for i, rec in enumerate(est.records):
            assert rec.seed == 42 + i
            assert rec.n_points >= 100
            assert 0 < rec.annulus_fraction < 1
        assert est.ci_low <= est.phi_hat <= est.ci_high

    def test_determinism(self):
        assert estimate_phi(PM, 300.0, n_replicas=4, seed0=7) == estimate_phi(PM, 300.0, n_replicas=4, seed0=7)

    def test_ci_width_shrinks_with_replicas(self):
        # Fixed configuration: replica medians take a few distinct values
        # (integer distances), so the sqrt(2) shrink is approximate but
        # deterministic for this seed.
        narrow = estimate_phi(PM, 2000.0, n_replicas=16, seed0=0)
        wide = estimate_phi(PM, 2000.0, n_replicas=8, seed0=0)
        ratio = (wide.ci_high - wide.ci_low) / (narrow.ci_high - narrow.ci_low)
        assert 1.2 <= ratio <= 1.7

    def test_memory_cap_checked_before_the_annulus_field(self):
        # The box of radius 2000 in d=2 has 16M vertices: its float64 norm
        # field alone is 122 MiB, so the refusal must come before it is built.
        tracemalloc.start()
        try:
            with pytest.raises(MemoryCapExceeded) as info:
                estimate_phi(ModelParams(d=2, s=3, beta=2), 2000.0, 1, 0, memory_cap_bytes=2**20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.stage == "displacement class enumeration"
        assert peak <= 8 * 2**20

    def test_refused_within_the_cap(self):
        # A cap just above the search's per-vertex arrays is refused by the sampler, which
        # holds no more than the cap by then.
        cap = math.ceil(1.02 * lrplab.sampler._vertex_stage_memory(Box(2, 300), 1))
        tracemalloc.start()
        try:
            with pytest.raises(MemoryCapExceeded) as info:
                estimate_phi(ModelParams(d=2, s=3.0, beta=2.0), 300.0, 1, 0, memory_cap_bytes=cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.cap_bytes == cap
        assert peak <= cap

    @pytest.mark.parametrize("d, betas, r, slack", [
        (1, [5.0], 2**16, 1.5),
        (1, [1.0, 2.0, 5.0, 10.0], 16384, 1.5),
        (2, [2.0], 200, 1.5),
        (2, [1.0, 4.0], 120, None),
        (1, [0.5], 2**18, None),
    ], ids=["d1", "d1-ladder", "d2", "d2-ladder", "d1-sparse"])
    def test_memory_estimate_bounds_the_replica_peak(self, monkeypatch, d, betas, r, slack):
        # The sampler's estimate covers the adjacency and BFS of every rung;
        # the replica adds one mask per shell beyond the first.  Where a slack
        # is given, the estimate also stays within that factor of the peak.
        estimates = []
        check = lrplab.sampler._check_memory

        def recorded(estimated_bytes, cap_bytes, stage):
            if stage == "graph sampling":
                estimates.append(estimated_bytes)
            check(estimated_bytes, cap_bytes, stage)

        monkeypatch.setattr(lrplab.sampler, "_check_memory", recorded)
        params_list = [ModelParams(d=d, s=1.5 * d, beta=b) for b in betas]
        box, radii = Box(d, r), [float(r)]
        tracemalloc.start()
        try:
            lrplab.estimator._replica((params_list, box, 7, (lrplab.estimator._annulus_masks, radii, 0.1),
                                       lrplab.sampler.DEFAULT_MEMORY_CAP))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        [estimate] = estimates
        assert estimate + (len(radii) - 1) * box.n_vertices >= peak
        if slack is not None:
            assert estimate <= slack * peak

    def test_annulus_too_small_rejected(self):
        with pytest.raises(ValueError):
            estimate_phi(PM, 20.0, n_replicas=1, seed0=0)

    @pytest.mark.parametrize("norm", ["ell1", "ell2", "ellinf"])
    @pytest.mark.parametrize("d, r, delta", [(1, 60.0, 0.1), (1, 49.5, 0.99), (2, 12.0, 0.1), (2, 30.5, 0.97),
                                             (2, 25.0, 0.96), (3, 9.0, 0.5), (3, 10.3, 0.9)])
    def test_annulus_size_matches_the_norm_field(self, d, r, delta, norm):
        nrm = Box(d, math.ceil(r)).norm_field((0,) * d, norm)
        expected = int(np.count_nonzero((nrm >= delta * r) & (nrm < r)))
        assert lrplab.estimator._annulus_size(d, norm, r, delta) == expected

    @pytest.mark.parametrize("params, r, delta, match", [
        (PM, 2.0, 0.1, "holds only 2 vertices"),
        (PM, 50.0, 0.999, "holds only 0 vertices"),
        (ModelParams(d=2, s=3.0, beta=1.0, norm="ell2"), 1000.3, 0.99999, "holds only 56 vertices"),
        (PM, 1e300, 0.1, "997 vertices, and pair keys"),
        (ModelParams(d=3, s=4.5, beta=1.0), 3000.0, 0.1, "n <= 2\\*\\*32"),
        (ModelParams(d=1, s=1.9999, beta=1.0), 300.0, 0.1, "positive finite"),
    ])
    def test_config_refusals_come_before_sampling(self, monkeypatch, params, r, delta, match):
        def sampled(*args, **kwargs):
            raise AssertionError("sampling reached")

        monkeypatch.setattr(lrplab.estimator, "sample_graph_coupled", sampled)
        with pytest.raises(ValueError, match=match):
            estimate_phi(params, r, n_replicas=1, seed0=0, delta=delta)

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_phi(PM, 300.0, n_replicas=0, seed0=0)
        with pytest.raises(ValueError):
            estimate_phi(PM, 1.0, n_replicas=1, seed0=0)


class TestLadder:
    def test_per_replica_monotonicity(self):
        betas = [1.0, 2.0, 5.0, 10.0]
        params_list = [ModelParams(d=1, s=1.5, beta=b) for b in betas]
        estimates = estimate_phi_ladder(params_list, 500.0, n_replicas=4, seed0=3)
        assert len(estimates) == 4
        per_replica = np.array([[rec.phi_hat for rec in est.records]
                                for est in estimates])
        # Shared-seed coupling makes every replica's column non-increasing.
        assert np.all(np.diff(per_replica, axis=0) <= 0)

    def test_single_beta_ladder_structure(self):
        # A ladder of one is estimate_phi: same phi_hat and the same records;
        # only the bootstrap key differs.
        a = estimate_phi_ladder([PM], 300.0, n_replicas=3, seed0=5)[0]
        b = estimate_phi(PM, 300.0, n_replicas=3, seed0=5)
        assert a.phi_hat == b.phi_hat
        assert a.records == b.records
        assert [r.seed for r in a.records] == [5, 6, 7]
        assert a.phi_hat > 0 and a.ci_low <= a.phi_hat <= a.ci_high

    @pytest.mark.parametrize("ladder, seed0, match", [
        ([PM, ModelParams(d=1, s=1.6, beta=2.0)], 0, "identical"),
        ([PM, ModelParams(d=1, s=1.5, beta=2.0, norm="ell1")], 0, "identical"),
        ([PM, replace(NO_LONG_EDGES, beta=2.0)], 0, "identical"),
        ([PM, ModelParams(d=2, s=3.0, beta=2.0)], 0, "identical"),
        ([replace(PM, beta=5.0), PM], 0, "betas"),
        ([PM, replace(PM, beta=2.0)], 2**64 - 1, "64-bit"),
    ], ids=["s", "norm", "kernel", "d", "unsorted", "seed overflow"])
    def test_mixed_ladder_rejected_before_sampling(self, monkeypatch, ladder, seed0, match):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled a ladder no replica could run")

        monkeypatch.setattr(lrplab.estimator, "sample_graph_coupled", refuse)
        monkeypatch.setattr(Box, "norm_field", refuse)
        with pytest.raises(ValueError, match=match):
            estimate_phi_ladder(ladder, 300.0, n_replicas=2, seed0=seed0)
        # The collapse radii need betas above e; the unsorted ladder stays unsorted.
        betas = [math.e ** 3, math.e ** 4][::1 if ladder[0].beta <= ladder[1].beta else -1]
        with pytest.raises(ValueError, match=match):
            collapse_report([replace(pm, beta=b) for pm, b in zip(ladder, betas)],
                            [0.0], n_replicas=2, seed0=seed0, m_offset=2)


def full_search_hists(params_list, box, seed, masks) -> list:
    """Per rung, the bincount of each mask's distances from a search of the whole box."""
    hists = []
    for sample in sample_graph_coupled(params_list, box, seed):
        dist = distances_from(sample, np.zeros(box.d, dtype=np.int64)).dist
        hists.append([np.bincount(dist[mask]) for mask in masks])
    return hists


def assert_overflow_bin(hist, full):
    """``hist`` is ``full`` with every bin from its last one on merged into that bin."""
    assert hist.size <= full.size
    np.testing.assert_array_equal(hist[:-1], full[:hist.size - 1])
    assert hist[-1] == full[hist.size - 1:].sum()


class TestReplicaStop:
    """A replica's search stops once what its caller reads is fixed, and reads as a full search."""

    @pytest.mark.parametrize("seed", range(12))
    def test_annulus_medians_match_the_full_search(self, seed):
        # d = 1, 2, 3 in turn; ladders of 1, 2 and 3 rungs; one to three radii
        # sharing the box of the largest, as a collapse sweep does.
        rng = np.random.default_rng([seed, 0x5709])
        d = 1 + seed % 3
        radius = {1: 3000, 2: 50, 3: 13}[d]
        s = d * rng.uniform(1.1, 1.9)
        norm = ("ell1", "ell2", "ellinf")[int(rng.integers(3))]
        betas = np.sort(rng.uniform(0.2, 6.0, size=1 + seed // 3 % 3))
        params_list = [ModelParams(d=d, s=s, beta=float(b), norm=norm) for b in betas]
        radii = [*sorted(radius * rng.uniform(0.4, 1.0, size=seed % 3)), float(radius)]
        delta = float(rng.uniform(0.05, 0.5))
        box = Box(d, radius)
        masks = lrplab.estimator._annulus_masks(box.norm_field((0,) * d, norm), radii, delta)
        rungs = lrplab.estimator._replica((params_list, box, seed, (lrplab.estimator._annulus_masks,
                                                                    radii, delta), 2**31))
        for hists, full in zip(rungs, full_search_hists(params_list, box, seed, masks), strict=True):
            for hist, full_hist in zip(hists, full, strict=True):
                assert_overflow_bin(hist, full_hist)
                assert hist.sum() == full_hist.sum()
                assert lrplab.estimator._hist_median(hist) == lrplab.estimator._hist_median(full_hist)

    @pytest.mark.parametrize("seed", range(6))
    def test_tail_counts_match_the_full_search(self, seed):
        rng = np.random.default_rng([seed, 0x7A11])
        d = 1 + seed % 3
        pm = ModelParams(d=d, s=d * rng.uniform(1.1, 1.9), beta=float(rng.uniform(0.5, 4.0)))
        radii = sorted({1: 400, 2: 30, 3: 9}[d] * rng.uniform(0.3, 1.0, size=3))
        box = Box(d, math.ceil(radii[-1] * 1.2))
        n = [1, 3, 1000][seed % 3]  # 1000: past the diameter, so no bin overflows
        masks = lrplab.estimator._shell_masks(box.norm_field((0,) * d, pm.norm), radii, 0.2)
        [hists] = lrplab.estimator._replica(
            ([pm], box, seed, (lrplab.estimator._shell_masks, radii, 0.2), 2**31), last_level=n)
        [full] = full_search_hists([pm], box, seed, masks)
        for hist, full_hist in zip(hists, full, strict=True):
            assert_overflow_bin(hist, full_hist)
            assert hist.sum() == full_hist.sum()
            assert hist[:n + 1].sum() == full_hist[:n + 1].sum()

    @pytest.mark.parametrize("last_level", [None, 2])
    def test_search_stops_before_the_box_is_covered(self, monkeypatch, last_level):
        unreached = []
        bfs = lrplab.estimator._bfs

        def recorded(*args, **kwargs):
            dist = bfs(*args, **kwargs)
            unreached.append(int(np.count_nonzero(dist < 0)))
            return dist

        monkeypatch.setattr(lrplab.estimator, "_bfs", recorded)
        pm = ModelParams(d=1, s=1.5, beta=5.0)
        lrplab.estimator._replica(([pm], Box(1, 2**14), 0, (lrplab.estimator._annulus_masks, [2.0**14], 0.1),
                                   2**31), last_level=last_level)
        [count] = unreached
        assert count > 0


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.integers(0, 400), min_size=1, max_size=60),  # odd and even lengths
    st.lists(st.integers(0, 3), min_size=1, max_size=200),  # heavy ties
    st.builds(lambda v, k: [v] * k, st.integers(0, 10**6), st.integers(1, 9)),  # one value
))
def test_hist_median_is_np_median(values):
    x = np.array(values, dtype=np.int32)
    got = lrplab.estimator._hist_median(np.bincount(x))
    assert type(got) is float and got == float(np.median(x))
    assert np.float64(got).tobytes() == np.float64(np.median(x)).tobytes()


def count_samples(monkeypatch) -> list:
    """Record the box radius of every sample the estimators draw."""
    radii = []

    def counted(params_list, box, seed, memory_cap_bytes):
        radii.append(box.radius)
        return sample_graph_coupled(params_list, box, seed, memory_cap_bytes=memory_cap_bytes)

    monkeypatch.setattr(lrplab.estimator, "sample_graph_coupled", counted)
    return radii


def min_memory_cap(params_list, radius: int) -> int:
    """The smallest memory cap under which the ladder samples on the d=1 box of this radius."""
    cap = 0
    while True:
        try:
            sample_graph_coupled(params_list, Box(1, radius), 0, memory_cap_bytes=cap)
            return cap
        except MemoryCapExceeded as exc:
            cap = math.ceil(exc.estimated_bytes)


@pytest.fixture(scope="module")
def field_r2000():
    g = sample_graph(PM, Box(d=1, radius=2000), seed=0)
    return distances_from(g, np.array([0]))


class TestTheorem1Fraction:
    def test_dominating_epsilon_gives_zero(self, field_r2000):
        ball = field_r2000.dist[np.abs(
            field_r2000.sample.box.coords_of(
                np.arange(field_r2000.sample.box.n_vertices))[:, 0]) <= 2000]
        scale = float(np.median(ball))
        assert theorem1_fraction(field_r2000, 2000.0, scale, 10.0) == 0.0

    def test_epsilon_zero_counts_mismatches(self, field_r2000):
        box = field_r2000.sample.box
        coords = box.coords_of(np.arange(box.n_vertices))
        in_ball = norm_value(coords, "ell2") <= 500.0
        scale = 7.0
        expected = np.mean(field_r2000.dist[in_ball] != scale)
        got = theorem1_fraction(field_r2000, 500.0, scale, 0.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got > 0.5  # generic scale mismatches nearly everywhere

    def test_monotone_in_epsilon(self, field_r2000):
        scale = 10.0
        fractions = [theorem1_fraction(field_r2000, 1500.0, scale, e)
                     for e in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0)]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))

    def test_half_less_than_quarter_at_phi_scale(self, field_r2000):
        _, delta = derived_constants(PM)
        est = estimate_phi(PM, 2000.0, n_replicas=4, seed0=0)
        scale = est.phi_hat * math.log(2000.0) ** delta
        f_half = theorem1_fraction(field_r2000, 2000.0, scale, 0.5)
        f_quarter = theorem1_fraction(field_r2000, 2000.0, scale, 0.25)
        assert f_half < f_quarter

    def test_memory_cap_checked_before_the_ball_field(self, field_r2000, monkeypatch):
        def refuse(*args):
            raise AssertionError("norm field built before the memory check")

        monkeypatch.setattr(lrplab.estimator, "DEFAULT_MEMORY_CAP", 9 * 4001 - 1)
        monkeypatch.setattr(Box, "norm_field", refuse)
        with pytest.raises(MemoryCapExceeded) as info:
            theorem1_fraction(field_r2000, 500.0, 7.0, 0.5)
        assert info.value.stage == "ball field and mask"
        assert info.value.estimated_bytes == 9 * 4001

    def test_validation(self, field_r2000):
        with pytest.raises(ValueError):
            theorem1_fraction(field_r2000, 5000.0, 1.0, 0.5)  # r over box
        with pytest.raises(ValueError):
            theorem1_fraction(field_r2000, 500.0, 0.0, 0.5)  # scale <= 0
        with pytest.raises(ValueError):
            theorem1_fraction(field_r2000, 500.0, 1.0, -0.1)  # epsilon < 0


class TestPeriodicityDiagnostic:
    def test_determinism(self):
        a = periodicity_diagnostic(PM, 200.0, n_replicas=2, seed0=1)
        b = periodicity_diagnostic(PM, 200.0, n_replicas=2, seed0=1)
        assert (a.relative_gap, a.gap_ci_low, a.gap_ci_high) == \
            (b.relative_gap, b.gap_ci_low, b.gap_ci_high)
        assert a.estimate_r.phi_hat == b.estimate_r.phi_hat
        assert a.estimate_r_next.phi_hat == b.estimate_r_next.phi_hat

    def test_radius_ratio(self):
        gamma, _ = derived_constants(PM)
        diag = periodicity_diagnostic(PM, 200.0, n_replicas=2, seed0=1)
        assert diag.r_next == pytest.approx(200.0 ** (1 / gamma), rel=1e-12)

    def test_lattice_graph_reports_large_gap(self):
        # Without long edges the normalized median grows like r/(log r)^Delta,
        # so the diagnostic must flag a strong violation of periodicity.
        diag = periodicity_diagnostic(NO_LONG_EDGES, 100.0, n_replicas=2, seed0=0)
        assert diag.relative_gap > 1.0

    def test_regression_value(self):
        pm = ModelParams(d=1, s=1.5, beta=5.0)
        diag = periodicity_diagnostic(pm, 1e4, n_replicas=2, seed0=0)
        assert diag.relative_gap == pytest.approx(-0.33333333333333326, rel=1e-9)
        assert diag.gap_ci_low <= diag.relative_gap <= diag.gap_ci_high
        # Paired-bootstrap CI bytes, keyed [seed0, _GAP_TAG].
        assert (diag.gap_ci_low, diag.gap_ci_high) == (-0.33333333333333326, -0.33333333333333326)

    def test_one_sample_per_replica(self, monkeypatch):
        radii = count_samples(monkeypatch)
        diag = periodicity_diagnostic(PM, 200.0, n_replicas=3, seed0=1)
        assert radii == [math.ceil(diag.r_next)] * 3

    def test_inner_mask_counts_against_the_memory_cap(self):
        pm = ModelParams(d=1, s=1.5, beta=5.0)
        radius = math.ceil(1e3 ** (1 / derived_constants(pm).gamma))
        cap = min_memory_cap([pm], radius) + 2 * radius + 1  # one byte per box vertex
        periodicity_diagnostic(pm, 1e3, n_replicas=1, seed0=0, memory_cap_bytes=cap)
        with pytest.raises(MemoryCapExceeded):
            periodicity_diagnostic(pm, 1e3, n_replicas=1, seed0=0, memory_cap_bytes=cap - 1)

    def test_outer_radius_is_estimate_phi(self):
        pm = ModelParams(d=1, s=1.5, beta=5.0)
        diag = periodicity_diagnostic(pm, 1e3, n_replicas=3, seed0=4)
        est = estimate_phi(pm, diag.r_next, n_replicas=3, seed0=4)
        got = diag.estimate_r_next
        assert (got.phi_hat, got.ci_low, got.ci_high) == (est.phi_hat, est.ci_low, est.ci_high)
        assert got.records == est.records


@pytest.fixture(scope="module")
def small_report():
    params_list = [ModelParams(d=1, s=1.5, beta=math.e**3),
                   ModelParams(d=1, s=1.5, beta=math.e**4)]
    t_grid = np.linspace(0.0, 1.0, 5)
    return collapse_report(params_list, t_grid, n_replicas=3, seed0=0,
                           m_offset=2)


class TestCollapseReport:

    def test_cells_complete_and_positive(self, small_report):
        assert len(small_report.cells) == 10
        for cell in small_report.cells:
            assert not cell.missing, cell.reason
            assert cell.phi_hat > 0
            assert cell.value > 0
            assert cell.value == pytest.approx(
                math.log(cell.beta) ** derived_constants(PM).delta * cell.phi_hat,
                rel=1e-12)

    def test_limit_column_endpoints(self, small_report):
        _, delta = derived_constants(PM)
        end = 0.5**delta
        for cell in small_report.cells:
            assert cell.limit == pytest.approx(psi_limit(PM, cell.t), rel=1e-12)
            if cell.t in (0.0, 1.0):
                assert cell.limit == pytest.approx(end, rel=1e-12)

    def test_summaries_recomputable(self, small_report):
        for summary in small_report.summaries:
            cells = [c for c in small_report.cells
                     if c.beta == summary.beta and not c.missing]
            discrepancies = [abs(c.value - c.limit) for c in cells]
            assert summary.n_cells == len(cells)
            assert summary.max_abs_discrepancy == pytest.approx(max(discrepancies), rel=1e-12)
            assert summary.mean_abs_discrepancy == pytest.approx(
                float(np.mean(discrepancies)), rel=1e-12)
            assert -1.0 <= summary.rank_correlation <= 1.0
            assert summary.mean_abs_ci_low <= summary.mean_abs_ci_high

    def test_regression_ci(self, small_report):
        # Bootstrap CI bytes of the beta = e**3 summary, keyed [seed0, _COLLAPSE_TAG].
        summary = small_report.summaries[0]
        assert summary.beta == math.e**3
        assert (summary.mean_abs_ci_low, summary.mean_abs_ci_high) == \
            (0.39460757335475327, 0.39460757335475327)

    def test_one_coupled_sample_per_replica(self, monkeypatch):
        radii = count_samples(monkeypatch)
        report = collapse_report([ModelParams(d=1, s=1.5, beta=math.e**3),
                                  ModelParams(d=1, s=1.5, beta=math.e**4)],
                                 np.linspace(0.0, 1.0, 5), n_replicas=3, seed0=0, m_offset=2)
        assert radii == [math.ceil(max(c.r for c in report.cells))] * 3

    def test_shared_radius_medians_non_increasing_in_beta(self, small_report):
        # The rungs are nested, so at a radius both betas probe every
        # replica's integer median is non-increasing in beta.
        _, delta = derived_constants(PM)
        by_radius = {}
        for cell in small_report.cells:
            medians = np.array(cell.replica_phis) * math.log(cell.r) ** delta
            np.testing.assert_allclose(medians, np.round(medians), rtol=1e-12)
            by_radius.setdefault(cell.r, []).append(np.round(medians))
        shared = [m for m in by_radius.values() if len(m) == 2]
        assert len(shared) == 5
        for low_beta, high_beta in shared:
            assert np.all(high_beta <= low_beta)

    def test_thin_annulus_cells_missing(self):
        # m_offset = 1 puts the t <= 0.5 radii (29 to 49) below 100 annulus vertices.
        pm = ModelParams(d=1, s=1.5, beta=math.e**3)
        report = collapse_report([pm], np.linspace(0.0, 1.0, 5), n_replicas=2, seed0=0,
                                 m_offset=1)
        missing = [c for c in report.cells if c.missing]
        assert [c.t for c in missing] == [0.0, 0.25, 0.5]
        for cell in missing:
            with pytest.raises(ValueError) as info:
                estimate_phi(pm, cell.r, n_replicas=1, seed0=0)
            assert cell.reason == str(info.value)
            assert cell.reason.startswith("annulus {0.1*r <= |x| < r} holds only")
        for cell in report.cells[3:]:
            assert not cell.missing and cell.reason == "" and cell.phi_hat > 0
        assert report.summaries[0].n_missing == 3

    def test_refused_cells_build_no_field(self, monkeypatch):
        # m_offset = 1 puts the t <= 0.5 radii (29 to 49) below 100 annulus
        # vertices, and the cap of 60 refuses the rest (66 and 90): the
        # pre-flights decide every cell, with no norm field and no sample.
        radii = count_samples(monkeypatch)
        fields = []
        norm_field = Box.norm_field

        def counted(box, *args, **kwargs):
            fields.append(box.radius)
            return norm_field(box, *args, **kwargs)

        monkeypatch.setattr(Box, "norm_field", counted)
        report = collapse_report([ModelParams(d=1, s=1.5, beta=math.e**3)], np.linspace(0.0, 1.0, 5),
                                 n_replicas=2, seed0=0, m_offset=1, box_radius_cap=60)
        assert [c.reason.split(" ", 1)[0] for c in report.cells] == ["annulus"] * 3 + ["box"] * 2
        assert all(c.missing for c in report.cells)
        assert fields == [] and radii == []

    def test_memory_cap_drops_only_the_largest_box(self):
        params_list = [ModelParams(d=1, s=1.5, beta=math.e**3),
                       ModelParams(d=1, s=1.5, beta=math.e**4)]
        t_grid = np.linspace(0.0, 1.0, 5)
        radii = sorted({collapse_radius(params_list[0], math.e**3, t, 2) for t in t_grid})
        # Enough for a sweep over every radius but the largest, whose four
        # extra annulus masks count against the cap; not enough with it.
        second = math.ceil(radii[-2])
        cap = min_memory_cap(params_list, second) + (len(radii) - 2) * (2 * second + 1)
        top = math.ceil(radii[-1])
        assert cap < min_memory_cap(params_list, top)
        report = collapse_report(params_list, t_grid, n_replicas=2, seed0=0, m_offset=2,
                                 memory_cap_bytes=cap)
        missing = [c for c in report.cells if c.missing]
        assert [(c.beta, c.t) for c in missing] == [(math.e**3, 1.0), (math.e**4, 1.0)]
        for cell in missing:
            assert cell.reason.startswith("graph sampling needs an estimated")
        rest = collapse_report(params_list, t_grid[:-1], n_replicas=2, seed0=0, m_offset=2)
        assert [c for c in report.cells if not c.missing] == list(rest.cells)

    def test_memory_cap_checked_before_the_pre_check_field(self):
        # At m_offset = 6 the d=2 radii are 1226 and 13115, whose norm fields
        # would take 46 MiB and 5.1 GiB: the sweep's memory check refuses
        # each box before its field is built.
        from scipy import stats  # noqa: F401  collapse_report's own import is not the field

        tracemalloc.start()
        try:
            report = collapse_report([ModelParams(d=2, s=3.0, beta=math.e**3)], [0.0, 1.0],
                                     n_replicas=1, seed0=0, m_offset=6, memory_cap_bytes=2**20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
        assert [c.missing for c in report.cells] == [True, True]
        for cell in report.cells:
            assert cell.reason.startswith("displacement class enumeration needs an estimated")

    def test_missing_cells_on_box_cap(self):
        params_list = [ModelParams(d=1, s=1.5, beta=math.e**3)]
        report = collapse_report(params_list, [0.0, 1.0], n_replicas=2, seed0=0,
                                 m_offset=2, box_radius_cap=100)
        missing = [c for c in report.cells if c.missing]
        assert missing
        for cell in missing:
            assert "cap" in cell.reason
            assert math.isnan(cell.phi_hat) and math.isnan(cell.value)
        assert report.summaries[0].n_missing == len(missing)

    def test_radius_past_the_float_range_missing(self, monkeypatch):
        # m_offset = 18 gives r = 9.75e259 at t = 1, over the box cap; at 19
        # that radius passes the float range and is missing on the cap too.
        radii = count_samples(monkeypatch)
        pm = ModelParams(d=1, s=1.5, beta=math.e**3)
        report = collapse_report([pm], [0.5, 1.0], n_replicas=1, seed0=0, m_offset=19)
        assert [math.isinf(c.r) for c in report.cells] == [False, True]
        assert report.cells[0].reason == f"box radius {math.ceil(report.cells[0].r)} over cap 10000000"
        assert report.cells[1].reason == "box radius inf over cap 10000000"
        assert all(c.missing and math.isnan(c.phi_hat) for c in report.cells)
        assert radii == []

    def test_beta_e_refused_before_sampling(self, monkeypatch):
        # log beta = 1 has m(beta) = 0, so the phase alone does not refuse it.
        radii = count_samples(monkeypatch)
        with pytest.raises(ValueError, match="beta > e"):
            collapse_report([ModelParams(d=1, s=1.5, beta=math.e)], [0.0], 1, 0, m_offset=2)
        assert radii == []

    def test_scale_past_the_float_range_missing(self, monkeypatch):
        # At s = 1.993, Delta = 1 / log2(2 / 1.993) is about 198, so
        # (log beta)**Delta overflows a float at log beta = 40, while
        # (log r)**Delta does not at r = 300.  With the probe radius pinned
        # there the cells could be sampled but not rescaled.
        monkeypatch.setattr(lrplab.estimator, "collapse_radius", lambda pm, beta, t, m_offset: 300.0)
        pm = ModelParams(d=1, s=1.993, beta=math.e**40)
        report = collapse_report([pm], [0.0, 1.0], n_replicas=2, seed0=0, m_offset=2)
        for cell in report.cells:
            assert cell.missing
            assert cell.reason == f"(log beta)**Delta overflows a float at beta={pm.beta}"
            assert math.isnan(cell.phi_hat) and math.isnan(cell.value) and cell.replica_phis == ()
        [summary] = report.summaries
        assert summary.n_missing == 2 and math.isnan(summary.mean_abs_discrepancy)

    @pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, math.nan])
    def test_delta_outside_the_unit_interval_refused(self, monkeypatch, delta):
        radii = count_samples(monkeypatch)
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            collapse_report([ModelParams(d=1, s=1.5, beta=math.e**3)], [0.0, 1.0], 1, 0,
                            m_offset=2, delta=delta)
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            estimate_phi(PM, 300.0, 1, 0, delta=delta)
        assert radii == []

    def test_validation(self):
        with pytest.raises(ValueError):
            collapse_report([ModelParams(d=1, s=1.5, beta=2.0)], [0.0],
                            n_replicas=1, seed0=0)  # beta <= e
        with pytest.raises(ValueError):
            collapse_report([ModelParams(d=1, s=1.5, beta=math.e**3),
                             ModelParams(d=1, s=1.5, beta=math.e**2)], [0.0],
                            n_replicas=1, seed0=0)  # not increasing
        with pytest.raises(ValueError):
            collapse_report([ModelParams(d=1, s=1.5, beta=math.e**3)], [1.5],
                            n_replicas=1, seed0=0)  # t outside [0, 1]


TAIL_PINS = [
    # (params, n, radii, n_replicas, seed0, shell_halfwidth), [(n_points, empirical)], c_fitted
    ((ModelParams(d=1, s=1.5, beta=2.0), 4, [20.0, 45.0, 90.0], 3, 7, 0.1),
     [(30, 1.0), (54, 0.9259259259259259), (114, 0.6754385964912281)], 1531709.863912561),
    ((ModelParams(d=2, s=3.0, beta=2.0, norm="ell1"), 3, [6.0, 12.5, 20.0], 2, 11, 0.2),
     [(144, 0.7569444444444444), (600, 0.18666666666666668), (1440, 0.03888888888888889)],
     12529.429883472729),
]


class TestTailComparison:
    @pytest.mark.parametrize("case,rows,c_fitted", TAIL_PINS, ids=["d1-ell2", "d2-ell1"])
    def test_regression_pins(self, case, rows, c_fitted):
        pm, n, radii, n_replicas, seed0, h = case
        comp = tail_comparison(pm, n, radii, n_replicas, seed0, 1.0, 1.0, 9.0, shell_halfwidth=h)
        assert [(row.n_points, row.empirical) for row in comp.rows] == rows
        assert comp.c_fitted == c_fitted

    def test_one_sample_per_replica(self, monkeypatch):
        radii = count_samples(monkeypatch)
        tail_comparison(ModelParams(d=1, s=1.5, beta=2.0), 3, [15.0, 41.0], 3, 0, 1.0, 1.0, 9.0,
                        shell_halfwidth=0.15)
        assert radii == [math.ceil(41.0 * 1.15)] * 3

    def test_envelope_arguments_checked_before_sampling(self, monkeypatch):
        radii = count_samples(monkeypatch)
        with pytest.raises(ValueError, match="n must be >= 1"):
            tail_comparison(ModelParams(d=1, s=1.5, beta=2.0), 0, [15.0], 3, 0, 1.0, 1.0, 9.0)
        with pytest.raises(ValueError, match="n_replicas must be >= 1"):
            tail_comparison(ModelParams(d=1, s=1.5, beta=2.0), 3, [15.0], 0, 0, 1.0, 1.0, 9.0)
        with pytest.raises(ValueError, match="seed must fit"):
            tail_comparison(ModelParams(d=1, s=1.5, beta=2.0), 3, [15.0], 2, 2**64 - 1,
                            1.0, 1.0, 9.0)
        assert radii == []

    def test_diameter_gives_probability_one(self):
        pm = ModelParams(d=1, s=1.5, beta=2.0)
        comp = tail_comparison(pm, n=100, radii_list=[10.0, 20.0], n_replicas=3,
                               seed0=0, c=1.0, c_tilde=1.0, p=9.0)
        for row in comp.rows:
            assert row.empirical == 1.0

    def test_fitted_envelope_dominates(self):
        pm = ModelParams(d=1, s=1.5, beta=2.0)
        comp = tail_comparison(pm, n=3, radii_list=[15.0, 30.0, 60.0],
                               n_replicas=20, seed0=1, c=1.0, c_tilde=1.0, p=9.0)
        assert comp.c_fitted > 0
        for row in comp.rows:
            scaled = row.envelope / comp.c * comp.c_fitted if comp.c else row.envelope
            assert row.empirical <= scaled * (1 + 1e-12)

    def test_monotone_trend_in_radius(self):
        pm = ModelParams(d=1, s=1.5, beta=2.0)
        comp = tail_comparison(pm, n=3, radii_list=[15.0, 30.0, 60.0],
                               n_replicas=30, seed0=2, c=1.0, c_tilde=1.0, p=9.0)
        rows = comp.rows
        for a, b in zip(rows, rows[1:]):
            sigma = math.sqrt(max(a.empirical * (1 - a.empirical), 1e-12) / a.n_points)
            assert b.empirical <= a.empirical + 4 * sigma

    def test_memory_cap_checked_before_the_shell_field(self):
        # The box of radius 1650 in d=2 has 10.9M vertices: its float64 norm
        # field alone is 83 MiB, so the refusal must come before it is built.
        tracemalloc.start()
        try:
            with pytest.raises(MemoryCapExceeded) as info:
                tail_comparison(ModelParams(d=2, s=3, beta=2), 5, [1000.0, 1500.0], 1, 0,
                                1.0, 1.0, 0.5, memory_cap_bytes=2**20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.stage == "displacement class enumeration"
        assert peak <= 8 * 2**20

    def test_memory_cap_refuses_before_the_field_under_a_field_sized_cap(self):
        # A cap of 10 bytes per vertex plus one covers the field and both shell
        # masks, but not the sample: the refusal must still come before the field.
        box = Box(2, math.ceil(1500.0 * 1.1))
        tracemalloc.start()
        try:
            with pytest.raises(MemoryCapExceeded):
                tail_comparison(ModelParams(d=2, s=3, beta=2), 5, [1000.0, 1500.0], 1, 0,
                                1.0, 1.0, 0.5, memory_cap_bytes=10 * box.n_vertices + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_precondition_flag_propagates(self):
        pm = ModelParams(d=1, s=1.5, beta=2.0)
        weak = tail_comparison(pm, n=3, radii_list=[15.0], n_replicas=2, seed0=0,
                               c=1.0, c_tilde=1.0, p=7.0)
        assert not weak.precondition_ok
        strong = tail_comparison(pm, n=3, radii_list=[15.0], n_replicas=2, seed0=0,
                                 c=1.0, c_tilde=1.0, p=8.0)
        assert strong.precondition_ok
