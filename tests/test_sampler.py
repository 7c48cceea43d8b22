import hashlib
import itertools
import math
import os
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from lrplab import (
    Box,
    MemoryCapExceeded,
    ModelParams,
    compute_c0,
    connection_probability,
    graph_from_edges,
    norm_value,
    sample_graph,
    sample_graph_coupled,
    sample_w,
    sample_z,
    table_kernel,
    unit_ball_volume,
)

import lrplab.sampler as sampler
import oracles

PM = ModelParams(d=1, s=1.5, beta=1.0)


class TestBox:
    def test_basic_geometry(self):
        box = Box(d=2, radius=3)
        assert box.side == 7
        assert box.n_vertices == 49
        assert box.contains(np.array([3, -3]))
        assert not box.contains(np.array([4, 0]))

    def test_index_round_trip_exhaustive(self):
        for d, radius in [(1, 5), (2, 3), (3, 2)]:
            box = Box(d=d, radius=radius)
            coords = box.coords_of(np.arange(box.n_vertices))
            assert coords.shape == (box.n_vertices, d)
            back = box.index_of(coords)
            np.testing.assert_array_equal(back, np.arange(box.n_vertices))
            assert len({tuple(c) for c in coords}) == box.n_vertices
            assert np.abs(coords).max() == radius

    @pytest.mark.parametrize("d, radius", [(1, 5), (2, 3), (3, 2)])
    def test_digit_is_coordinate_plus_radius(self, d, radius):
        box = Box(d=d, radius=radius)
        flat = np.arange(box.n_vertices)
        for index in (flat, flat[::-1].reshape(-1, box.side)):
            coords = box.coords_of(index)
            for axis in range(d):
                np.testing.assert_array_equal(box.digit(index, axis), coords[..., axis] + radius)

    def test_coords_of_rejects_out_of_range(self):
        box = Box(d=2, radius=3)
        for bad in ([-1], [0, 49], [[0], [49]]):
            with pytest.raises(ValueError, match="out of range"):
                box.coords_of(np.array(bad))
        assert box.coords_of(np.empty(0, dtype=np.int64)).shape == (0, 2)

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=6),
           st.data())
    @settings(max_examples=60)
    def test_index_round_trip_random(self, d, radius, data):
        box = Box(d=d, radius=radius)
        coord = np.array([data.draw(st.integers(-radius, radius)) for _ in range(d)])
        assert np.array_equal(box.coords_of(np.array([box.index_of(coord)]))[0], coord)

    def test_out_of_box_rejected(self):
        box = Box(d=1, radius=2)
        with pytest.raises(ValueError):
            box.index_of(np.array([3]))

    def test_validation(self):
        with pytest.raises(ValueError):
            Box(d=0, radius=3)
        with pytest.raises(ValueError):
            Box(d=1, radius=0)

    @pytest.mark.parametrize("kind", ["ell1", "ell2", "ellinf"])
    def test_norm_field_equals_norm_of_coordinates(self, kind):
        for d, radius, centers in [(1, 7, [(0,), (5,), (-9,)]),
                                   (2, 4, [(0, 0), (3, -4), (-1, 6)]),
                                   (3, 3, [(0, 0, 0), (2, -3, 1), (-3, 3, 4)])]:
            box = Box(d=d, radius=radius)
            coords = box.coords_of(np.arange(box.n_vertices))
            for center in centers:
                field = box.norm_field(center, kind)
                expected = norm_value(coords - np.array(center), kind)
                assert field.dtype == np.float64 and field.shape == (box.n_vertices,)
                assert np.array_equal(field, expected), (d, center)

    def test_norm_field_validation(self):
        box = Box(d=2, radius=3)
        with pytest.raises(ValueError):
            box.norm_field((0, 0), "ell3")
        with pytest.raises(ValueError):
            box.norm_field((0, 0, 0), "ell2")


def brute_force_pairs(params, box):
    """All unordered non-nearest-neighbor pairs with their probabilities."""
    coords = [box.coords_of(np.arange(box.n_vertices))[i] for i in range(box.n_vertices)]
    out = {}
    for i, j in itertools.combinations(range(box.n_vertices), 2):
        disp = coords[j] - coords[i]
        if np.abs(disp).sum() == 1:
            continue
        out[(i, j)] = connection_probability(params, disp)
    return out


def other_thread_ticks() -> dict:
    """utime + stime clock ticks of every other thread of this process, by thread id."""
    me = threading.get_native_id()
    ticks = {}
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == me:
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread has ended
            continue
        ticks[tid] = int(fields[11]) + int(fields[12])
    return ticks


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="reads per-thread times from Linux /proc")
def test_sampling_leaves_other_threads_idle():
    # A float matrix product on the sampling path wakes BLAS's worker
    # threads, which then spin for about 0.1 s each time.
    pm = ModelParams(d=1, s=1.5, beta=5.0)
    sample_graph(pm, Box(1, 2**10), 0)  # any lazy set-up happens here
    before = other_thread_ticks()
    sample_graph(pm, Box(1, 2**17), 0)
    after = other_thread_ticks()
    assert {tid: t - before.get(tid, 0) for tid, t in after.items() if t != before.get(tid, 0)} == {}


class TestSampleGraph:
    def test_determinism_and_stream_separation(self):
        box = Box(d=1, radius=200)
        a = sample_graph(PM, box, seed=7)
        b = sample_graph(PM, box, seed=7)
        np.testing.assert_array_equal(a.long_edges, b.long_edges)
        c = sample_graph(PM, box, seed=8)
        assert a.long_edges.shape != c.long_edges.shape or not np.array_equal(
            a.long_edges, c.long_edges)

    def test_edges_sorted_and_valid(self):
        box = Box(d=2, radius=12)
        pm = ModelParams(d=2, s=3.0, beta=2.0)
        g = sample_graph(pm, box, seed=3)
        e = g.long_edges
        assert e.ndim == 2 and e.shape[1] == 2
        assert np.all(e[:, 0] < e[:, 1])
        order = np.lexsort((e[:, 1], e[:, 0]))
        np.testing.assert_array_equal(order, np.arange(len(e)))
        heads = box.coords_of(e[:, 0])
        tails = box.coords_of(e[:, 1])
        assert np.abs(heads - tails).sum(axis=1).min() >= 2  # no NN duplicates

    def test_single_class_binomial_mean(self):
        # Displacement k=10 on the radius-1000 line: 1991 ordered slots,
        # each open independently with p = 1 - exp(-10^(-1.5)).
        box = Box(d=1, radius=1000)
        p = connection_probability(PM, np.array([10]))
        n_pairs = 1991
        counts = []
        for seed in range(200):
            g = sample_graph(PM, box, seed=seed)
            coords = box.coords_of(g.long_edges)
            disp = np.abs(coords[:, 1, 0] - coords[:, 0, 0]) if coords.size else np.array([])
            counts.append(int(np.sum(disp == 10)))
        mean = np.mean(counts)
        sigma_mean = math.sqrt(n_pairs * p * (1 - p) / 200)
        assert abs(mean - n_pairs * p) <= 4 * sigma_mean

    def test_total_long_edge_mean(self):
        box = Box(d=1, radius=25)
        expected, var_one = 0.0, 0.0
        for (_, _), p in brute_force_pairs(PM, box).items():
            expected += p
            var_one += p * (1 - p)
        totals = [len(sample_graph(PM, box, seed=s).long_edges) for s in range(400)]
        sigma_mean = math.sqrt(var_one / 400)
        assert abs(np.mean(totals) - expected) <= 4 * sigma_mean

    def test_grouped_matches_naive_distribution(self):
        # Two-sample test: displacement-grouped sampler vs direct per-pair
        # Bernoulli draws, comparing total long-edge counts.
        d, radius, n_seeds = 1, 25, 800
        box = Box(d=d, radius=radius)
        grouped = np.array([len(sample_graph(PM, box, seed=s).long_edges)
                            for s in range(n_seeds)])
        probs = oracles.naive_pair_probabilities(d, radius, PM.s, PM.beta, norm=PM.norm)
        naive = oracles.naive_edge_counts(probs, n_seeds, seed0=10_000)
        res = stats.ks_2samp(grouped, naive)
        assert res.pvalue > 0.001

    def test_within_class_exchangeability(self):
        # Conditional on the count, which pairs open at displacement 7 should
        # be uniform across the 14 available positions.
        box = Box(d=1, radius=10)
        pm = ModelParams(d=1, s=1.5, beta=3.0)
        tally = np.zeros(14, dtype=int)
        for seed in range(500):
            g = sample_graph(pm, box, seed=seed)
            coords = box.coords_of(g.long_edges)[:, :, 0] if len(g.long_edges) else np.empty((0, 2))
            for a, b in coords:
                if b - a == 7:
                    tally[int(a) + 10] += 1
        assert tally.sum() > 100
        res = stats.chisquare(tally)
        assert res.pvalue > 0.001

    def test_linear_volume_scaling(self):
        means = []
        for radius in (200, 400):
            box = Box(d=1, radius=radius)
            counts = [len(sample_graph(PM, box, seed=s).long_edges) for s in range(100)]
            means.append(np.mean(counts))
        assert 1.8 <= means[1] / means[0] <= 2.2

    def test_memory_cap_raised_before_allocation(self):
        box = Box(d=1, radius=5000)
        with pytest.raises(MemoryCapExceeded) as exc:
            sample_graph(PM, box, seed=0, memory_cap_bytes=10_000)
        assert exc.value.estimated_bytes > exc.value.cap_bytes
        assert exc.value.stage

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            sample_graph(PM, Box(d=1, radius=5), seed=-1)


class _CountingWords:
    """A bit generator proxy that counts the raw words it hands out."""

    def __init__(self, bit_generator):
        self.bit_generator = bit_generator
        self.words = 0
        self.rounds = []  # words per call

    def random_raw(self, size):
        self.words += size
        self.rounds.append(size)
        return self.bit_generator.random_raw(size)


def select_sparse_resorting(N, K, bit_generator):
    """The v2 sparse selection as first written: every round re-sorts and re-counts all keys."""
    n = N.astype(np.uint64)
    keys = np.empty(0, dtype=np.int64)
    missing = K.astype(np.int64)
    while (total := int(missing.sum())) > 0:
        rows = np.repeat(np.arange(len(n)), missing)
        values, accepted = sampler._bounded(bit_generator.random_raw(total), n[rows], np.uint64(2**32) % n[rows])
        keys = np.concatenate([keys, (rows[accepted] << 32) | values[accepted]])
        keys.sort()
        keys = keys[np.diff(keys, prepend=-1) != 0]
        missing = K - np.bincount(keys >> 32, minlength=len(n))
    return keys >> 32, keys & 0xFFFFFFFF


class TestGeneratorV2:
    def test_bounded_draws_unbiased(self):
        # n = 3 * 2**30: without rejection, x * n >> 32 = floor(3x / 4) hits
        # multiples of 3 from two of every four x, so residues mod 3 would
        # come out 1/2, 1/4, 1/4 instead of 1/3 each.
        n = 3 * 2**30
        words = np.random.Philox(key=[5, 6]).random_raw(300_000)
        values, accepted = sampler._bounded(words, np.full(words.size, n, dtype=np.uint64), np.uint64(2**32 % n))
        kept = values[accepted]
        assert kept.min() >= 0 and kept.max() < n
        assert abs(accepted.mean() - 0.75) < 0.01  # rejection rate (2**32 mod n) / 2**32 = 1/4
        res = stats.chisquare(np.bincount(kept % 3, minlength=3))
        assert res.pvalue > 0.001
        res = stats.chisquare(np.bincount(kept * 8 // n, minlength=8))
        assert res.pvalue > 0.001

    def test_sparse_selection_distinct_and_uniform(self):
        # k = N/64, the sparse limit: in-class duplicates are frequent and
        # must be redrawn until each class holds k distinct indices.
        k = np.repeat([2, 5, 40], [4000, 1000, 100])
        n = 64 * k
        words = _CountingWords(np.random.Philox(key=[1, 2]))
        rows, sel = sampler._select_sparse(n, k, words)
        assert words.words > k.sum()  # some slots were redrawn
        np.testing.assert_array_equal(np.bincount(rows, minlength=len(k)), k)
        assert np.all((sel >= 0) & (sel < n[rows]))
        key = rows * 2**32 + sel
        assert np.all(np.diff(key) > 0)  # sorted by (row, index) and distinct
        res = stats.chisquare(np.bincount(sel[k[rows] == 2], minlength=128))
        assert res.pvalue > 0.001

    @pytest.mark.parametrize("key, n_rounds", [([1, 2], 2), ([3, 4], 3), ([7, 8], 3), ([11, 12], 3)])
    def test_sparse_merge_draws_the_resorting_stream(self, key, n_rounds):
        # Later rounds merge their new keys into the sorted ones; the words
        # drawn, and which row each word serves, must stay those of the loop
        # that re-sorts every round.
        k = np.repeat([2, 5, 40], [4000, 1000, 100])
        n = 64 * k
        merged = _CountingWords(np.random.Philox(key=key))
        rows, sel = sampler._select_sparse(n, k, merged)
        resorted = _CountingWords(np.random.Philox(key=key))
        ref_rows, ref_sel = select_sparse_resorting(n, k, resorted)
        assert merged.rounds == resorted.rounds and len(merged.rounds) == n_rounds
        np.testing.assert_array_equal(rows, ref_rows)
        np.testing.assert_array_equal(sel, ref_sel)

    def test_sparse_rejection_thresholds_per_class(self):
        # 2**32 mod n is 2**30 for n = 3 * 2**30, so that class's round 0
        # rejects about a quarter of its words, and 55296 for n = 64000; each
        # class must be held to its own threshold, as the per-word reference does.
        k = np.array([20_000, 1000])
        n = np.array([3 * 2**30, 64 * 1000])
        words = _CountingWords(np.random.Philox(key=[9, 10]))
        rows, sel = sampler._select_sparse(n, k, words)
        resorted = _CountingWords(np.random.Philox(key=[9, 10]))
        ref_rows, ref_sel = select_sparse_resorting(n, k, resorted)
        assert words.rounds == resorted.rounds
        assert 4500 < words.rounds[1] < 5600
        np.testing.assert_array_equal(rows, ref_rows)
        np.testing.assert_array_equal(sel, ref_sel)

    def test_mostly_sparse_box_matches_naive(self, monkeypatch):
        # d=2, L=12, beta=2: about 97% of classes are sparse and a graph has
        # about one in-class duplicate draw on average.
        radius, n_seeds = 12, 800
        pm = ModelParams(d=2, s=3.0, beta=2.0)
        box = Box(d=2, radius=radius)
        extra = []
        select = sampler._select_sparse

        def spy(N, K, bit_generator):
            counted = _CountingWords(bit_generator)
            out = select(N, K, counted)
            extra.append(counted.words - int(K.sum()))
            return out

        monkeypatch.setattr(sampler, "_select_sparse", spy)
        totals = []
        for seed in range(n_seeds):
            e = sample_graph(pm, box, seed=seed).long_edges
            assert len(np.unique(e[:, 0] * box.n_vertices + e[:, 1])) == len(e)
            totals.append(len(e))
        assert sum(extra) > n_seeds / 4
        probs = oracles.naive_pair_probabilities(2, radius, pm.s, pm.beta, norm=pm.norm)
        naive = oracles.naive_edge_counts(probs, n_seeds, seed0=90_000)
        res = stats.ks_2samp(totals, naive)
        assert res.pvalue > 0.001

    def test_sparse_classes_share_one_stream(self, monkeypatch):
        # Only dense classes open a keyed stream of their own; every sparse
        # class draws from the one sparse stream.
        opened = []
        philox = np.random.Philox

        class Recorded(philox):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(np.random, "Philox", Recorded)
        box = Box(d=1, radius=2**13)
        g = sample_graph(ModelParams(d=1, s=1.5, beta=5.0), box, seed=3)
        nonzero = len(np.unique(g.long_edges[:, 1] - g.long_edges[:, 0]))
        assert nonzero > 2500
        assert len(opened) <= 2 + 50

    def test_oversized_box_refused_before_class_enumeration(self, monkeypatch):
        def enumerate_classes(*args):
            raise AssertionError("class enumeration reached")

        monkeypatch.setattr(sampler, "_displacement_classes", enumerate_classes)
        box = Box(1, 2**31)  # n = 2**32 + 1 vertices, n**2 >= 2**63
        with pytest.raises(ValueError, match="n\\*\\*2"):
            sample_graph(PM, box, seed=0)
        with pytest.raises(ValueError, match="n\\*\\*2"):
            sample_graph_coupled([PM], box, seed=0)


class TestLongEdgePins:
    """long_edges bytes read before the sampler wrote keys class block by class block.

    Every box mixes dense and sparse classes (dense/sparse non-empty
    classes: d1 47/1000, d2 40/1144, d3 75/1613, ladder 38/741), so the
    shared sparse block and each dense class's block all reach the keys.
    """

    CASES = {
        "d1": (ModelParams(d=1, s=1.5, beta=5.0), 2000, 21, None,
               [(23996, "dc4e4ed8dff80a8a6d6f04fa6b2c7188ac0147a6b57adddcdf69b0d2b4c7fac1")]),
        "d2": (ModelParams(d=2, s=3.0, beta=2.0), 40, 22, None,
               [(26314, "52fed0d725e5f763ef921435e8556d1bfbade09f3fecfcff18a2f118c019c5da")]),
        "d3": (ModelParams(d=3, s=4.5, beta=2.0, norm="ellinf"), 8, 23, None,
               [(62196, "22a79d5500d25dfc5ace4f78a2c7efd6e9e45c53bdfb4b8039583500277fe53b")]),
        "ladder": (ModelParams(d=2, s=3.0, beta=4.0, norm="ell1"), 30, 24, (0.5, 1.5, 4.0),
                   [(2139, "9feaa87e69c60c1efc741c8e03b29fab827d748ca3d925786346e36241c655c5"),
                    (6182, "1406e8cb38cdc0aaeb25d0ea103634e2be38cb0b42d20532b8cf448124d29666"),
                    (15302, "4e5fa81dcc6937d4fe3fab050f42ff6bf219f9e19ff95ecea38413b622dbeae4")]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_long_edge_bytes(self, case):
        pm, radius, seed, betas, pins = self.CASES[case]
        box = Box(d=pm.d, radius=radius)
        if betas is None:
            samples = [sample_graph(pm, box, seed)]
        else:
            samples = sample_graph_coupled([replace(pm, beta=b) for b in betas], box, seed)
        got = [(g.n_long_edges, hashlib.sha256(np.ascontiguousarray(g.long_edges).tobytes()).hexdigest())
               for g in samples]
        assert got == pins


class TestCoupledSampling:
    def test_nested_edge_sets(self):
        box = Box(d=1, radius=300)
        betas = [1.0, 2.0, 5.0]
        for seed in range(20):
            samples = sample_graph_coupled(
                [ModelParams(d=1, s=1.5, beta=b) for b in betas], box, seed=seed)
            sets = [set(map(tuple, g.long_edges)) for g in samples]
            assert sets[0] <= sets[1] <= sets[2]
            assert len(sets[2]) > len(sets[0])

    def test_equal_betas_identical(self):
        box = Box(d=1, radius=200)
        pair = sample_graph_coupled([PM, PM], box, seed=11)
        np.testing.assert_array_equal(pair[0].long_edges, pair[1].long_edges)

    def test_marginal_mean_preserved(self):
        # The coupled draw at a single beta keeps the product-measure mean.
        box = Box(d=1, radius=25)
        expected = sum(brute_force_pairs(PM, box).values())
        totals = [len(sample_graph_coupled([PM], box, seed=s)[0].long_edges)
                  for s in range(300)]
        var_one = sum(p * (1 - p) for p in brute_force_pairs(PM, box).values())
        assert abs(np.mean(totals) - expected) <= 4 * math.sqrt(var_one / 300)

    def test_top_rung_is_sample_graph(self):
        # The top rung is sample_graph at the largest beta, byte for byte.
        cases = [(Box(d=1, radius=400), [ModelParams(d=1, s=1.5, beta=b) for b in (1.0, 2.0, 5.0)], 4),
                 (Box(d=2, radius=15), [ModelParams(d=2, s=3.0, beta=b) for b in (0.5, 2.0)], 9)]
        for box, ladder, seed in cases:
            top = sample_graph_coupled(ladder, box, seed=seed)[-1].long_edges
            alone = sample_graph(ladder[-1], box, seed=seed).long_edges
            assert top.dtype == alone.dtype and top.shape == alone.shape
            assert top.tobytes() == alone.tobytes()

    def test_rung_counts_match_naive_per_pair(self):
        # Every rung of the thinned ladder against per-pair Bernoulli draws
        # at its own beta: two-sample test on total edge counts at 0.001.
        radius, n_seeds, betas = 50, 2000, (1.0, 2.0, 5.0)
        box = Box(d=1, radius=radius)
        ladder = [ModelParams(d=1, s=1.5, beta=b) for b in betas]
        counts = np.array([[g.n_long_edges for g in sample_graph_coupled(ladder, box, seed=s)]
                           for s in range(n_seeds)])
        for i, pm in enumerate(ladder):
            probs = oracles.naive_pair_probabilities(1, radius, pm.s, pm.beta, norm=pm.norm)
            naive = oracles.naive_edge_counts(probs, n_seeds, seed0=70_000 + 10_000 * i)
            res = stats.ks_2samp(counts[:, i], naive)
            assert res.pvalue > 0.001, (pm.beta, res.pvalue)

    def test_lower_rung_counts_per_class(self):
        # The lower rung's total edge count per displacement over many seeds
        # against its Binomial(n_seeds * N_v, p_low(v)) law, so a thinning
        # ratio applied to the wrong class shows.  d=2 mixes 310 classes,
        # about 40 of them dense at the top beta.  Classes expecting fewer
        # than 5 edges are pooled; the normalised squared deviations sum to
        # a chi-square over the cells, tested at 0.001.
        radius, n_seeds, betas = 6, 1500, (0.5, 4.0)
        box = Box(d=2, radius=radius)
        ladder = [ModelParams(d=2, s=3.0, beta=b, norm="ell1") for b in betas]
        span = 4 * radius + 1
        observed = np.zeros(span * span)
        for seed in range(n_seeds):
            edges = sample_graph_coupled(ladder, box, seed=seed)[0].long_edges
            disp = box.coords_of(edges[:, 1]) - box.coords_of(edges[:, 0]) + 2 * radius
            observed += np.bincount(disp[:, 0] * span + disp[:, 1], minlength=span * span)
        laws = oracles.naive_class_laws(2, radius, 3.0, betas[0], norm="ell1")
        assert len(laws) == 310
        cells, pooled = [], np.zeros(3)
        for (v0, v1), (n_pairs, p) in laws.items():
            row = np.array([observed[(v0 + 2 * radius) * span + v1 + 2 * radius],
                            n_seeds * n_pairs * p, n_seeds * n_pairs * p * (1 - p)])
            if row[1] >= 5:
                cells.append(row)
            else:
                pooled += row
        got, mean, var = np.array(cells + [pooled]).T
        assert got.sum() == observed.sum()  # no edge outside a canonical class
        chi2 = float(((got - mean) ** 2 / var).sum())
        assert stats.chi2.sf(chi2, len(got)) > 0.001, (chi2, len(got))

    def test_decreasing_betas_rejected(self):
        box = Box(d=1, radius=10)
        with pytest.raises(ValueError):
            sample_graph_coupled(
                [ModelParams(d=1, s=1.5, beta=2.0), ModelParams(d=1, s=1.5, beta=1.0)],
                box, seed=0)

    def test_mismatched_kernels_rejected(self):
        box = Box(d=1, radius=10)
        with pytest.raises(ValueError):
            sample_graph_coupled(
                [PM, ModelParams(d=1, s=1.6, beta=2.0)], box, seed=0)


class TestDisplacementClasses:
    @pytest.mark.parametrize("d, radius", [(1, 1), (1, 5), (2, 1), (2, 3), (3, 1), (3, 2)])
    def test_equal_brute_force_enumeration(self, d, radius):
        span = range(-2 * radius, 2 * radius + 1)
        canonical = sorted(v for v in itertools.product(span, repeat=d)
                           if sum(map(abs, v)) >= 2 and next(c for c in v if c != 0) > 0)
        got = sampler._displacement_classes(Box(d=d, radius=radius), sampler.DEFAULT_MEMORY_CAP)
        assert got.dtype == np.int64
        assert got.tolist() == [list(v) for v in canonical]

    @pytest.mark.parametrize("d, radius, s, betas, seed", [(1, 300, 1.5, (1.0, 5.0), 3),
                                                           (2, 12, 3.0, (0.5, 2.0), 5),
                                                           (3, 4, 4.2, (1.0, 3.0), 7)])
    def test_edge_class_rows_match_code_search(self, d, radius, s, betas, seed):
        box = Box(d=d, radius=radius)
        top = sample_graph_coupled([ModelParams(d=d, s=s, beta=b) for b in betas], box, seed)[-1].long_edges
        classes = sampler._displacement_classes(box, sampler.DEFAULT_MEMORY_CAP)
        disp = box.coords_of(top[:, 1]) - box.coords_of(top[:, 0])
        expected = np.searchsorted(sampler._class_codes(box, classes), sampler._class_codes(box, disp))
        assert len(top) > 100
        np.testing.assert_array_equal(classes[expected], disp)


class TestGraphFromEdges:
    def test_coordinate_and_index_forms_agree(self):
        box = Box(d=1, radius=20)
        coords = np.array([[[0], [12]], [[12], [5]]])
        g1 = graph_from_edges(PM, box, coords)
        idx = np.array([[box.index_of(np.array([0])), box.index_of(np.array([12]))],
                        [box.index_of(np.array([12])), box.index_of(np.array([5]))]])
        g2 = graph_from_edges(PM, box, idx)
        np.testing.assert_array_equal(g1.long_edges, g2.long_edges)
        assert len(g1.long_edges) == 2

    def test_validation(self):
        box = Box(d=1, radius=20)
        with pytest.raises(ValueError):
            graph_from_edges(PM, box, np.array([[[0], [0]]]))  # self loop
        with pytest.raises(ValueError):
            graph_from_edges(PM, box, np.array([[[0], [1]]]))  # nearest neighbor
        with pytest.raises(ValueError):
            graph_from_edges(PM, box, np.array([[[0], [25]]]))  # outside box
        with pytest.raises(ValueError):
            graph_from_edges(PM, box, np.array([[[0], [5]], [[5], [0]]]))  # duplicate

    def test_input_array_left_unchanged(self):
        box = Box(d=1, radius=20)
        e = np.array([[25, 20], [20, 32]], dtype=np.int64)
        g = graph_from_edges(PM, box, e)
        np.testing.assert_array_equal(e, [[25, 20], [20, 32]])
        np.testing.assert_array_equal(g.long_edges, [[20, 25], [20, 32]])

    def test_empty_edge_list(self):
        g = graph_from_edges(PM, Box(d=1, radius=5), np.empty((0, 2), dtype=int))
        assert len(g.long_edges) == 0


class TestC0:
    def test_quadrature_exact_values(self):
        cases = [
            (1, "ell2", math.pi),
            (1, "ell1", math.pi),
            (2, "ell2", math.pi**3 / 4),
            (2, "ell1", math.pi),
            (2, "ellinf", 4 * math.pi),
        ]
        for d, norm, expected in cases:
            s = 1.5 * d
            pm = ModelParams(d=d, s=s, beta=1.0, norm=norm)
            est = compute_c0(pm, method="quadrature")
            assert est.value == pytest.approx(expected, rel=1e-9)
            assert est.value == pytest.approx(
                math.pi * unit_ball_volume(d, norm) ** 2 / 4, rel=1e-9)

    def test_monte_carlo_agrees_with_quadrature(self):
        for d, norm in [(1, "ell2"), (2, "ell2"), (2, "ellinf"), (3, "ell1")]:
            pm = ModelParams(d=d, s=1.5 * d, beta=1.0, norm=norm)
            quad = compute_c0(pm, method="quadrature").value
            mc = compute_c0(pm, method="monte_carlo", budget=200_000, seed=4)
            assert abs(mc.value - quad) <= 4 * mc.standard_error
            assert mc.standard_error > 0

    def test_monte_carlo_pi_tolerance(self):
        mc = compute_c0(PM, method="monte_carlo", budget=10**6, seed=1)
        assert abs(mc.value - math.pi) / math.pi < 1e-3

    def test_independent_runs_consistent(self):
        a = compute_c0(PM, method="monte_carlo", budget=10**5, seed=21)
        b = compute_c0(PM, method="monte_carlo", budget=10**5, seed=22)
        combined = math.hypot(a.standard_error, b.standard_error)
        assert abs(a.value - b.value) <= 3 * combined

    def test_matches_external_hit_count_oracle(self):
        est, se = oracles.c0_hit_count(1, budget=300_000, seed=9)
        quad = compute_c0(PM, method="quadrature").value
        assert abs(est - quad) <= 4 * se

    def test_ball_volume_scaling(self):
        # vol{w : |w|^(2d) <= R} = c0 * R for the quadratic-exponent sets.
        est, se = oracles.c0_hit_count(1, budget=300_000, seed=10, scale=2.0)
        assert abs(est - 2 * math.pi) <= 4 * se

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            compute_c0(PM, method="monte_carlo", budget=100)
        with pytest.raises(ValueError):
            compute_c0(PM, method="simpson")


class TestSampleZ:
    def test_shapes_and_determinism(self):
        pm = ModelParams(d=2, s=3.0, beta=1.0)
        z1 = sample_z(pm, 1.0, np.random.default_rng(5), size=100)
        z2 = sample_z(pm, 1.0, np.random.default_rng(5), size=100)
        assert z1.shape == (100, 2)
        np.testing.assert_array_equal(z1, z2)
        single = sample_z(pm, 1.0, np.random.default_rng(5))
        assert single.shape == (2,)

    def test_symmetry(self):
        z = sample_z(PM, 1.0, np.random.default_rng(0), size=100_000)
        mean = z.mean(axis=0)
        se = z.std(axis=0) / math.sqrt(len(z))
        assert np.all(np.abs(mean) <= 4 * se)

    @pytest.mark.parametrize("d,eta", [(1, 1.0), (1, 2.5), (2, 1.0)])
    def test_radial_cdf_checkpoints(self, d, eta):
        pm = ModelParams(d=d, s=1.5 * d, beta=1.0)
        c0 = compute_c0(pm, method="quadrature").value
        n = 100_000
        z = sample_z(pm, eta, np.random.default_rng(42), size=n)
        r_norm = norm_value(z, "ell2")
        for r in (0.25, 0.5, 0.75, 1.0, 1.5):
            target = oracles.z_radial_cdf_exact(d, eta, c0, r)
            emp = np.mean(r_norm <= r)
            sigma = math.sqrt(target * (1 - target) / n)
            assert abs(emp - target) <= 4 * sigma, (d, eta, r)

    def test_cdf_oracle_cross_check(self):
        # Closed-form CDF equals direct quadrature of the density.
        for r in (0.3, 0.9, 1.4):
            exact = oracles.z_radial_cdf_exact(1, 1.0, math.pi, r)
            quad = oracles.z_cdf_quadrature_1d(1.0, r)
            assert exact == pytest.approx(quad, rel=1e-10)

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            sample_z(PM, 0.0, np.random.default_rng(0))


class TestSampleW:
    def test_zero_gamma_sequence_is_plain_z(self):
        w = sample_w(PM, 1.0, (0.0, 0.0, 0.0), rng=np.random.default_rng(9))
        z = sample_z(PM, 1.0, np.random.default_rng(9))
        np.testing.assert_array_equal(w.value, z)
        assert w.truncation_level == 0
        assert w.residual_bound == 0.0

    def test_constant_sequence_truncates(self):
        w = sample_w(PM, 1.0, 0.75, tolerance=1e-9, rng=np.random.default_rng(1))
        assert w.truncation_level > 5
        assert w.residual_bound <= 1e-9
        assert w.value.shape == (1,)
        assert np.all(w.value != 0)

    @pytest.mark.slow
    def test_tolerance_insensitivity_of_second_moment(self):
        # Common random numbers per draw: both tolerances consume the same
        # factor stream, so the mean shift isolates the truncation error.
        moments = []
        for tol in (1e-3, 1e-6):
            vals = np.array([
                sample_w(PM, 1.0, 0.75, tolerance=tol,
                         rng=np.random.default_rng([77, i])).value
                for i in range(2000)])
            moments.append(np.mean(vals**2))
        assert abs(moments[0] - moments[1]) / moments[1] < 0.02

    @pytest.mark.slow
    def test_small_ball_probabilities_decay(self):
        rng = np.random.default_rng(3)
        vals = np.abs(np.array([sample_w(PM, 1.0, 0.75, rng=rng).value[0]
                                for _ in range(20_000)]))
        probs = [np.mean(vals <= r) for r in (0.01, 0.05, 0.25)]
        assert probs[0] < probs[1] < probs[2]
        slope = np.polyfit(np.log([0.01, 0.05, 0.25]), np.log(probs), 1)[0]
        assert slope > 0.0

    def test_entry_bound_enforced(self):
        gamma_bound = 2 * 0.75 / (1 + 0.75)
        with pytest.raises(ValueError):
            sample_w(PM, 1.0, gamma_bound + 0.01, rng=np.random.default_rng(0))
