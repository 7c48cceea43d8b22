import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrplab import (
    Box,
    GraphSample,
    ModelParams,
    distance_pair,
    distances_from,
    graph_from_edges,
    intrinsic_ball,
    norm_value,
    restricted_distance,
    restricted_k_distance,
    sample_graph,
    sample_graph_coupled,
    table_kernel,
)
from lrplab import metric
from lrplab.metric import _adjacency

import oracles

PM = ModelParams(d=1, s=1.5, beta=1.0)


def line_graph(radius, extra_edges):
    """1-d box with the given extra long edges (coordinate pairs)."""
    box = Box(d=1, radius=radius)
    edges = np.array([[[a], [b]] for a, b in extra_edges]).reshape(-1, 2, 1)
    if not extra_edges:
        edges = np.empty((0, 2), dtype=int)
    return graph_from_edges(PM, box, edges)


def sample_to_oracle_args(g):
    coords = g.box.coords_of(g.long_edges) if len(g.long_edges) else np.empty((0, 2, g.box.d))
    return [(tuple(int(v) for v in e[0]), tuple(int(v) for v in e[1])) for e in coords]


class TestDistancesFrom:
    def test_shortcut_witnesses(self):
        # Path on 2001 vertices plus one long edge across half the box:
        # the far side is reached through the shortcut.
        g = line_graph(1000, [(-1000, 0)])
        field = distances_from(g, np.array([-1000]))
        assert field.dist[g.box.index_of(np.array([500]))] == 501
        assert field.dist[g.box.index_of(np.array([-1]))] == 2
        assert field.dist[field.source_index] == 0

    def test_no_long_edges_gives_lattice_distance(self):
        g = line_graph(300, [])
        field = distances_from(g, np.array([7]))
        coords = g.box.coords_of(np.arange(g.box.n_vertices))
        np.testing.assert_array_equal(field.dist, np.abs(coords[:, 0] - 7))

    def test_matches_reference_bfs_on_random_graphs(self):
        rng = np.random.default_rng(0)
        checked = 0
        for trial in range(40):
            d = int(rng.integers(1, 4))
            radius = {1: 12, 2: 4, 3: 2}[d]
            s = float(d * rng.uniform(1.1, 1.9))
            beta = float(rng.uniform(0.3, 4.0))
            norm = ["ell1", "ell2", "ellinf"][trial % 3]
            pm = ModelParams(d=d, s=s, beta=beta, norm=norm)
            box = Box(d=d, radius=radius)
            g = sample_graph(pm, box, seed=trial)
            src = box.coords_of(np.array([int(rng.integers(box.n_vertices))]))[0]
            field = distances_from(g, src)
            ref = oracles.reference_distances(d, radius, sample_to_oracle_args(g),
                                              tuple(int(v) for v in src))
            for idx in range(box.n_vertices):
                coord = tuple(int(v) for v in box.coords_of(np.array([idx]))[0])
                assert field.dist[idx] == ref[coord], (trial, coord)
            checked += 1
        assert checked == 40

    def test_lipschitz_across_all_edges(self):
        pm = ModelParams(d=2, s=3.0, beta=2.0)
        box = Box(d=2, radius=15)
        g = sample_graph(pm, box, seed=5)
        field = distances_from(g, np.array([0, 0]))
        dist = field.dist
        coords = box.coords_of(np.arange(box.n_vertices))
        # Nearest-neighbor steps change the distance by at most 1.
        idx = box.index_of(coords)
        for axis in range(2):
            shifted = coords.copy()
            shifted[:, axis] += 1
            ok = np.abs(shifted).max(axis=1) <= box.radius
            a = dist[idx[ok]]
            b = dist[box.index_of(shifted[ok])]
            assert np.max(np.abs(a - b)) <= 1
        # Long edges connect vertices whose distances differ by at most 1.
        if len(g.long_edges):
            du = dist[g.long_edges[:, 0]]
            dv = dist[g.long_edges[:, 1]]
            assert np.max(np.abs(du - dv)) <= 1

    def test_distance_bounded_by_ell1(self):
        g = sample_graph(PM, Box(d=1, radius=400), seed=2)
        field = distances_from(g, np.array([0]))
        coords = g.box.coords_of(np.arange(g.box.n_vertices))
        assert np.all(field.dist <= np.abs(coords[:, 0]))

    def test_source_outside_box_rejected(self):
        g = line_graph(5, [])
        with pytest.raises(ValueError):
            distances_from(g, np.array([6]))

    def test_coupled_distance_monotone_in_beta(self):
        box = Box(d=1, radius=500)
        betas = [1.0, 5.0]
        for seed in range(5):
            g1, g5 = sample_graph_coupled(
                [ModelParams(d=1, s=1.5, beta=b) for b in betas], box, seed=seed)
            d1 = distances_from(g1, np.array([0])).dist
            d5 = distances_from(g5, np.array([0])).dist
            assert np.all(d5 <= d1)

    def test_local_dip_near_long_edge_endpoints(self):
        # A neighborhood of a long-edge endpoint inherits its distance
        # up to the lattice steps needed to walk there.
        pm = ModelParams(d=1, s=1.5, beta=5.0)
        g = sample_graph(pm, Box(d=1, radius=2000), seed=1)
        field = distances_from(g, np.array([0]))
        coords_all = g.box.coords_of(np.arange(g.box.n_vertices))[:, 0]
        for endpoint in np.unique(g.long_edges):
            m = field.dist[endpoint]
            e = coords_all[endpoint]
            nearby = np.abs(coords_all - e) <= 3
            assert np.all(field.dist[nearby] <= m + 3)


@pytest.fixture(scope="module")
def small_field_cache():
    pm = ModelParams(d=2, s=3.0, beta=1.5)
    box = Box(d=2, radius=5)
    g = sample_graph(pm, box, seed=9)
    fields = {i: distances_from(g, box.coords_of(np.array([i]))[0]).dist
              for i in range(box.n_vertices)}
    return g, box, fields


class TestDistancePair:

    def test_symmetry(self, small_field_cache):
        g, box, fields = small_field_cache
        rng = np.random.default_rng(1)
        for _ in range(1000):
            i, j = rng.integers(box.n_vertices, size=2)
            assert fields[i][j] == fields[j][i]

    def test_triangle_inequality(self, small_field_cache):
        g, box, fields = small_field_cache
        rng = np.random.default_rng(2)
        for _ in range(1000):
            i, j, k = rng.integers(box.n_vertices, size=3)
            assert fields[i][k] <= fields[i][j] + fields[j][k]

    def test_matches_field(self, small_field_cache):
        g, box, fields = small_field_cache
        rng = np.random.default_rng(3)
        for _ in range(20):
            i, j = rng.integers(box.n_vertices, size=2)
            x = box.coords_of(np.array([i]))[0]
            y = box.coords_of(np.array([j]))[0]
            assert distance_pair(g, x, y) == fields[i][j]


class TestRestrictedDistance:
    def test_witness_graph(self):
        # Long edges (0,12) and (12,5): unrestricted distance 0 -> 5 is 2,
        # but the intermediate vertex 12 violates the strict constraint
        # |z - 0| < 2*|5 - 0|, forcing the walk back down to 5 hops... the
        # backward direction keeps the shortcut. Endpoints matter.
        g = line_graph(20, [(0, 12), (12, 5)])
        x, y = np.array([0]), np.array([5])
        assert distance_pair(g, x, y) == 2
        forward = restricted_distance(g, x, y)
        backward = restricted_distance(g, y, x)
        assert forward.value == 5
        assert backward.value == 2

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(25):
            d = 1 if trial % 2 == 0 else 2
            radius = 8 if d == 1 else 3
            pm = ModelParams(d=d, s=1.5 * d, beta=1.0 + 0.3 * (trial % 4),
                             norm="ell1" if trial % 3 == 0 else "ell2")
            box = Box(d=d, radius=radius)
            g = sample_graph(pm, box, seed=100 + trial)
            edge_pairs = sample_to_oracle_args(g)
            for _ in range(6):
                i, j = rng.integers(box.n_vertices, size=2)
                if i == j:
                    continue
                x = box.coords_of(np.array([i]))[0]
                y = box.coords_of(np.array([j]))[0]
                got = restricted_distance(g, x, y)
                constraint = 2 * float(np.abs(x - y).sum())
                ref = oracles.reference_restricted(
                    d, radius, edge_pairs, tuple(int(v) for v in x),
                    tuple(int(v) for v in y), constraint, pm.norm, strict=True)
                assert got.value == ref, (trial, x, y)

    def test_at_least_unrestricted(self):
        g = sample_graph(PM, Box(d=1, radius=60), seed=8)
        box = g.box
        rng = np.random.default_rng(5)
        for _ in range(30):
            i, j = rng.integers(box.n_vertices, size=2)
            if i == j:
                continue
            x = box.coords_of(np.array([i]))[0]
            y = box.coords_of(np.array([j]))[0]
            res = restricted_distance(g, x, y)
            assert res.value >= distance_pair(g, x, y)
            assert math.isfinite(res.value)

    def test_truncation_flag(self):
        g = line_graph(10, [])
        # Constraint ball around x=8 with radius 2*|8-9|=2 stays inside;
        # around x=0 toward y=9 the radius-18 ball pokes out of the box.
        assert not restricted_distance(g, np.array([8]), np.array([9])).truncated_by_box
        assert restricted_distance(g, np.array([0]), np.array([9])).truncated_by_box

    def test_identical_points_give_zero(self):
        g = line_graph(5, [])
        res = restricted_distance(g, np.array([1]), np.array([1]))
        assert res.value == 0


class TestRestrictedKDistance:
    def test_monotone_chain(self):
        # D <= D~_{k+1} <= D~_k <= D~_0 <= D~ <= ell1 on 1-d graphs, where
        # the kernel norm and the reference norm coincide.
        pm = ModelParams(d=1, s=1.5, beta=3.0)
        box = Box(d=1, radius=60)
        rng = np.random.default_rng(6)
        for seed in range(4):
            g = sample_graph(pm, box, seed=seed)
            for _ in range(50):
                i, j = rng.integers(box.n_vertices, size=2)
                if i == j:
                    continue
                x = box.coords_of(np.array([i]))[0]
                y = box.coords_of(np.array([j]))[0]
                d0 = distance_pair(g, x, y)
                chain = [restricted_k_distance(g, x, y, k, 0.8).value
                         for k in (5, 3, 1, 0)]
                tilde = restricted_distance(g, x, y).value
                ell1 = float(np.abs(x - y).sum())
                values = [d0, *chain, tilde, ell1]
                assert all(a <= b for a, b in zip(values, values[1:])), values

    def test_monotone_chain_2d_ell1(self):
        pm = ModelParams(d=2, s=3.0, beta=2.0, norm="ell1")
        box = Box(d=2, radius=8)
        rng = np.random.default_rng(7)
        g = sample_graph(pm, box, seed=3)
        for _ in range(60):
            i, j = rng.integers(box.n_vertices, size=2)
            if i == j:
                continue
            x = box.coords_of(np.array([i]))[0]
            y = box.coords_of(np.array([j]))[0]
            d0 = distance_pair(g, x, y)
            chain = [restricted_k_distance(g, x, y, k, 0.8).value for k in (4, 2, 0)]
            tilde = restricted_distance(g, x, y).value
            ell1 = float(np.abs(x - y).sum())
            values = [d0, *chain, tilde, ell1]
            assert all(a <= b for a, b in zip(values, values[1:])), values

    def test_stabilizes_to_unrestricted(self):
        # Constraint radius 2|x-y|^(gamma_bar^-k) explodes with k, so the
        # restriction eventually stops binding inside a finite box.
        pm = ModelParams(d=1, s=1.5, beta=2.0)
        g = sample_graph(pm, Box(d=1, radius=30), seed=11)
        box = g.box
        rng = np.random.default_rng(8)
        for _ in range(25):
            i, j = rng.integers(box.n_vertices, size=2)
            if i == j:
                continue
            x = box.coords_of(np.array([i]))[0]
            y = box.coords_of(np.array([j]))[0]
            base = distance_pair(g, x, y)
            assert restricted_k_distance(g, x, y, 8, 0.8).value == base

    def test_settles_past_the_float_range(self):
        # At gamma_bar = 0.875, the CLI's default here, the radius
        # 2 * 50**(gamma_bar**-k) passes 2**63 at k = 18 and the float range
        # before k = 40; every such member is the chemical distance.
        g = sample_graph(PM, Box(d=1, radius=200), seed=0)
        x, y = np.array([0]), np.array([50])
        for k in (18, 40, 6000):
            got = restricted_k_distance(g, x, y, k, 0.875)
            assert got.value == distance_pair(g, x, y)
            assert got.truncated_by_box
            assert math.isinf(got.constraint_radius) == (k > 18)

    def test_matches_brute_force_oracle(self):
        pm = ModelParams(d=1, s=1.5, beta=2.0)
        g = sample_graph(pm, Box(d=1, radius=10), seed=13)
        box = g.box
        edge_pairs = sample_to_oracle_args(g)
        rng = np.random.default_rng(9)
        for _ in range(20):
            i, j = rng.integers(box.n_vertices, size=2)
            if i == j:
                continue
            x = box.coords_of(np.array([i]))[0]
            y = box.coords_of(np.array([j]))[0]
            for k in (0, 1, 2):
                got = restricted_k_distance(g, x, y, k, 0.8)
                radius = 2 * float(np.abs(x - y).sum()) ** (0.8**-k)
                ref = oracles.reference_restricted(
                    1, 10, edge_pairs, (int(x[0]),), (int(y[0]),),
                    radius, "ell2", strict=False)
                assert got.value == ref
                assert got.constraint_radius == pytest.approx(radius, rel=1e-12)

    def test_gamma_bar_validation(self):
        g = line_graph(5, [])
        with pytest.raises(ValueError):
            restricted_k_distance(g, np.array([0]), np.array([2]), 1, 0.74)
        with pytest.raises(ValueError):
            restricted_k_distance(g, np.array([0]), np.array([2]), 1, 1.0)
        with pytest.raises(ValueError):
            restricted_k_distance(g, np.array([0]), np.array([2]), -1, 0.8)


class TestIntrinsicBall:
    def test_lattice_counts_on_line(self):
        g = line_graph(50, [])
        x = np.array([0])
        assert intrinsic_ball(g, x, 0) == 1
        for k in (1, 3, 10):
            assert intrinsic_ball(g, x, k) == 2 * k + 1

    def test_monotone_and_saturating(self):
        pm = ModelParams(d=1, s=1.5, beta=2.0)
        g = sample_graph(pm, Box(d=1, radius=40), seed=17)
        sizes = [intrinsic_ball(g, np.array([0]), k) for k in range(12)]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[0] == 1
        assert intrinsic_ball(g, np.array([0]), 200) == g.box.n_vertices

    def test_matches_field_count(self):
        pm = ModelParams(d=2, s=3.0, beta=1.0)
        g = sample_graph(pm, Box(d=2, radius=6), seed=19)
        field = distances_from(g, np.array([1, -2]))
        for k in (0, 1, 2, 5):
            assert intrinsic_ball(g, np.array([1, -2]), k) == int(np.sum(field.dist <= k))


class TestRegressionPins:
    """Distance bytes read from the implementation before the CSR and BFS rewrite."""

    CASES = {
        "d1": (ModelParams(d=1, s=1.5, beta=5.0), 4096, 41,
               "51f620c8cbd94cb9a9ec7c62e8c07ed33c877ae68c732013b0f1c2fd54d7ee31"),
        "d2": (ModelParams(d=2, s=3.0, beta=2.0), 60, 42,
               "4e17d0f20882d98ce1fc1d7b3938e463f77926e6a663597a7426e3acea66436d"),
        "d3": (ModelParams(d=3, s=4.5, beta=2.0, norm="ellinf"), 12, 43,
               "75ceefca224c0baa536b6da02df4b29e28a74db30e1032b15141483955954976"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_distance_bytes(self, case):
        pm, radius, seed, digest = self.CASES[case]
        g = sample_graph(pm, Box(d=pm.d, radius=radius), seed)
        dist = distances_from(g, np.zeros(pm.d, dtype=np.int64)).dist
        assert dist.dtype == np.int32
        assert hashlib.sha256(dist.tobytes()).hexdigest() == digest

    def test_large_graph_bfs_bytes(self):
        # The only graphs here whose last levels exceed n/8 by far: phi-d1's
        # input, ladder-d1's beta=10 rung and a d=2 box, from the origin.
        digest = hashlib.sha256()
        for pm, radius in [(ModelParams(d=1, s=1.5, beta=5.0), 2**18),
                           (ModelParams(d=1, s=1.5, beta=10.0), 16384),
                           (ModelParams(d=2, s=3.0, beta=2.0), 200)]:
            for seed in (7, 8, 9):
                g = sample_graph(pm, Box(d=pm.d, radius=radius), seed)
                digest.update(metric._bfs(g, int(g.box.index_of(np.zeros(pm.d, dtype=np.int64)))).tobytes())
        assert digest.hexdigest() == "f5312ee131cff4d52f4df5a9e704132090b6c0641fbb979862ae108d860fdcc4"

    def test_ball_and_restricted_chain_d2(self):
        pm, radius, seed, _ = self.CASES["d2"]
        g = sample_graph(pm, Box(d=2, radius=radius), seed)
        assert [intrinsic_ball(g, np.array([5, -7]), k) for k in (2, 4)] == [109, 2511]
        x, y = np.array([3, -4]), np.array([-25, 31])
        assert distance_pair(g, x, y) == 5
        chain = [restricted_k_distance(g, x, y, k, 0.9) for k in range(4)]
        assert [r.value for r in chain] == [5, 5, 5, 5]
        assert [r.constraint_radius for r in chain] == [
            89.64373932405988, 136.7788189566785, 218.72906668567165, 368.5091990970064]


class TestAdjacency:
    """Two half-row CSRs: row u of the out-half holds the heads of the edges out of u,
    row u of the in-half the tails of the edges into u, both ascending; and every
    vertex's long degree."""

    def test_rows_from_shuffled_and_reversed_input(self):
        pm = ModelParams(d=2, s=3.0, beta=3.0)
        box = Box(d=2, radius=7)
        edges = sample_graph(pm, box, seed=5).long_edges
        assert len(edges) > 100
        rng = np.random.default_rng(0)
        given = edges[rng.permutation(len(edges))]
        flip = rng.random(len(given)) < 0.5
        given[flip] = given[flip, ::-1]
        g = graph_from_edges(pm, box, given)
        np.testing.assert_array_equal(g.long_edges, edges)
        (out_ptr, heads), (in_ptr, tails), degree = _adjacency(g)
        assert tails.dtype == np.uint32 and tails.flags.c_contiguous
        assert np.shares_memory(heads, g.long_edges)
        n = box.n_vertices
        assert degree.dtype == np.int32
        np.testing.assert_array_equal(degree, np.bincount(edges.ravel(), minlength=n))
        for ptr, column in ((out_ptr, 0), (in_ptr, 1)):
            assert ptr[0] == 0
            np.testing.assert_array_equal(np.diff(ptr), np.bincount(edges[:, column], minlength=n))
        out_rows = [[] for _ in range(n)]
        in_rows = [[] for _ in range(n)]
        for a, b in edges.tolist():
            out_rows[a].append(b)
            in_rows[b].append(a)
        for u in range(n):
            # Ascending and equal to the sorted neighbour lists: every edge once per endpoint.
            assert heads[out_ptr[u]:out_ptr[u + 1]].tolist() == sorted(out_rows[u]), u
            assert tails[in_ptr[u]:in_ptr[u + 1]].tolist() == sorted(in_rows[u]), u
        assert _adjacency(g) is g._adjacency

    def test_c_order_sample_matches_its_f_order_twin(self):
        pm = ModelParams(d=2, s=3.0, beta=3.0)
        g = sample_graph(pm, Box(d=2, radius=9), seed=6)
        twin = GraphSample(params=pm, box=g.box, seed=None,
                           long_edges=np.ascontiguousarray(g.long_edges))
        assert twin.long_edges.flags.c_contiguous and not twin.long_edges.flags.f_contiguous
        for src in ([0, 0], [-9, 4], [5, 9]):
            np.testing.assert_array_equal(distances_from(twin, np.array(src)).dist,
                                          distances_from(g, np.array(src)).dist)
        assert np.shares_memory(_adjacency(twin)[0][1], twin.long_edges)

    @pytest.mark.parametrize("pm, radius", [(ModelParams(d=1, s=1.5, beta=5.0), 3000),
                                            (ModelParams(d=2, s=3.0, beta=3.0), 20)])
    def test_int64_sample_matches_the_sampler_uint32_sample(self, pm, radius):
        # The adjacency casts hand-built int64 columns as it casts the sampler's uint32 ones.
        g = sample_graph(pm, Box(d=pm.d, radius=radius), seed=8)
        wide = GraphSample(params=pm, box=g.box, seed=None,
                           long_edges=np.array(g.long_edges, dtype=np.int64, order="C"))
        assert g.long_edges.dtype == np.uint32 and g.n_long_edges > 1000
        assert wide.long_edges.dtype == np.int64 and wide.long_edges.flags.c_contiguous
        (out_ptr, heads), (in_ptr, tails), degree = _adjacency(g)
        (wide_out_ptr, wide_heads), (wide_in_ptr, wide_tails), wide_degree = _adjacency(wide)
        for got, expected in [(wide_out_ptr, out_ptr), (wide_heads, heads), (wide_in_ptr, in_ptr),
                              (wide_tails, tails), (wide_degree, degree)]:
            np.testing.assert_array_equal(got, expected)
        assert wide_tails.dtype == np.uint32 and wide_degree.dtype == np.int32
        for src in (0, g.box.n_vertices // 2, g.box.n_vertices - 1):
            np.testing.assert_array_equal(metric._bfs(wide, src), metric._bfs(g, src))

    def test_samplers_store_edges_column_major(self):
        # Every column read of the adjacency build relies on this layout.
        pm = ModelParams(d=2, s=3.0, beta=3.0)
        box = Box(d=2, radius=7)
        g = sample_graph(pm, box, seed=5)
        rungs = sample_graph_coupled([replace(pm, beta=b) for b in (0.5, 1.0, 3.0)], box, seed=5)
        built = graph_from_edges(pm, box, np.ascontiguousarray(g.long_edges[::-1]))
        for edges in [g.long_edges, built.long_edges] + [r.long_edges for r in rungs]:
            assert len(edges) > 10 and edges.flags.f_contiguous

    def test_empty_edge_set(self):
        g = line_graph(9, [])
        (out_ptr, heads), (in_ptr, tails), degree = _adjacency(g)
        for ptr in (out_ptr, in_ptr):
            np.testing.assert_array_equal(ptr, np.zeros(g.box.n_vertices + 1))
        np.testing.assert_array_equal(degree, np.zeros(g.box.n_vertices))
        assert heads.size == 0
        assert tails.dtype == np.uint32 and tails.size == 0
        assert distances_from(g, np.array([-9])).dist.tolist() == list(range(19))

    @pytest.mark.parametrize("edges", [
        [[12, 5]],                    # i > j
        [[0, 12], [0, 5]],            # unsorted
        [[0, 5], [0, 5]],             # duplicate
        [[3, 10], [2, 15]],           # unsorted tails
        [[0, 21]],                    # head outside the box
    ])
    def test_hand_built_sample_out_of_order_rejected(self, edges):
        g = GraphSample(params=PM, box=Box(d=1, radius=10), seed=None,
                        long_edges=np.array(edges, dtype=np.int64))
        with pytest.raises(ValueError, match="0 <= i < j < n_vertices, sorted by strictly increasing"):
            distances_from(g, np.array([0]))
        assert g._adjacency is None

    def test_sampler_built_samples_skip_the_order_check(self, monkeypatch):
        calls = []
        check = metric._check_long_edges

        def counted(edges, n):
            calls.append(n)
            check(edges, n)

        monkeypatch.setattr(metric, "_check_long_edges", counted)
        pm = ModelParams(d=2, s=3.0, beta=3.0)
        box = Box(d=2, radius=7)
        g = sample_graph(pm, box, seed=5)
        rungs = sample_graph_coupled([replace(pm, beta=b) for b in (0.5, 1.0, 3.0)], box, seed=5)
        built = graph_from_edges(pm, box, g.long_edges[::-1])
        for sample in [g, built, *rungs]:
            distances_from(sample, np.array([0, 0]))
        assert calls == []
        twin = GraphSample(params=pm, box=box, seed=None, long_edges=g.long_edges.copy())
        distances_from(twin, np.array([0, 0]))
        assert calls == [box.n_vertices]

    def test_sampler_edges_out_of_order_rejected_once_hand_built(self):
        # The mark that skips the check belongs to the sample its builder
        # made: neither a new GraphSample nor dataclasses.replace carries it.
        pm = ModelParams(d=2, s=3.0, beta=3.0)
        g = sample_graph(pm, Box(d=2, radius=7), seed=5)
        unsorted = g.long_edges[::-1]
        for sample in [GraphSample(params=pm, box=g.box, seed=g.seed, long_edges=unsorted),
                       replace(g, long_edges=unsorted)]:
            with pytest.raises(ValueError, match="sorted by strictly increasing"):
                distances_from(sample, np.array([0, 0]))
            assert sample._adjacency is None


def key_order_accepts(edges, n):
    """The order check as first written: strictly increasing int64 keys tail * n + head."""
    if not len(edges):
        return True
    tail, head = edges[:, 0], edges[:, 1]
    keys = tail * n + head
    return not (tail.min() < 0 or head.max() >= n or np.any(tail >= head) or np.any(keys[1:] <= keys[:-1]))


@st.composite
def edge_arrays(draw):
    """Small (m, 2) arrays and a box size n: sorted valid edge sets, some with one fault, and raw pairs."""
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    fault = draw(st.sampled_from(["none", "negative", "head n", "repeat", "reverse", "swap", "raw"]))
    if fault == "raw":
        rows = draw(st.lists(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1)), max_size=8))
        return np.array(rows, dtype=np.int64).reshape(-1, 2), n, fault
    rows = sorted(draw(st.sets(st.sampled_from(pairs), max_size=8))) if pairs else []
    edges = np.array(rows, dtype=np.int64).reshape(-1, 2)
    if fault == "none" or not len(edges) or (fault == "swap" and len(edges) < 2):
        return edges, n, "none"
    at = draw(st.integers(0, len(edges) - 1))
    if fault == "negative":
        edges[at, 0] = -draw(st.integers(1, 3))
    elif fault == "head n":
        edges[at, 1] = n
    elif fault == "repeat":
        edges = np.insert(edges, at, edges[at], axis=0)
    elif fault == "reverse":
        edges[at] = edges[at, ::-1]
    else:  # near-sorted: two neighbouring rows swapped
        at = min(at, len(edges) - 2)
        edges[[at, at + 1]] = edges[[at + 1, at]]
    return edges, n, fault


@settings(max_examples=400, deadline=None)
@given(edge_arrays())
def test_order_check_accepts_what_the_key_check_accepts(case):
    edges, n, fault = case
    try:
        metric._check_long_edges(edges, n)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == key_order_accepts(edges, n)
    if fault == "none":
        assert accepted
    elif fault != "raw":
        assert not accepted


def hub_graph(d, radius, hub, seed):
    """One hub joined to about half the box, so BFS levels repeat candidates."""
    pm = ModelParams(d=d, s=1.5 * d, beta=1.0, norm="ell1")
    box = Box(d=d, radius=radius)
    coords = box.coords_of(np.arange(box.n_vertices))
    far = np.flatnonzero(np.abs(coords - np.asarray(hub)).sum(axis=1) >= 2)
    chosen = np.random.default_rng(seed).choice(far, size=box.n_vertices // 2, replace=False)
    h = int(box.index_of(np.asarray(hub)))
    return graph_from_edges(pm, box, np.stack([np.full(chosen.size, h), chosen], axis=1))


HUBS = [(1, 40, (7,), 0), (2, 6, (2, -3), 1), (3, 3, (1, 0, -2), 2)]


@pytest.fixture
def top_down_finishes(monkeypatch):
    """(finish, restricted) of every top-down level _bfs takes while the test runs.

    A level is restricted when its search has blocked vertices.
    """
    finishes = []
    for name in ("_stamp_finish", "_mask_finish"):
        def recorded(box, halves, dist, frontier, finish=getattr(metric, name), name=name):
            finishes.append((name, bool(np.any(dist == metric._BLOCKED))))
            return finish(box, halves, dist, frontier)

        monkeypatch.setattr(metric, name, recorded)
    return finishes


class TestHubGraph:
    @pytest.mark.parametrize("d, radius, hub, seed", HUBS)
    def test_distances_match_oracle(self, d, radius, hub, seed, top_down_finishes):
        g = hub_graph(d, radius, hub, seed)
        box = g.box
        pairs = sample_to_oracle_args(g)
        adj = oracles._adjacency(d, radius, pairs)
        coords = [tuple(int(v) for v in c) for c in box.coords_of(np.arange(box.n_vertices))]
        for src in [(0,) * d, hub, (-radius,) * d, (radius,) + (0,) * (d - 1)]:
            ref = oracles.reference_distances(d, radius, pairs, src)
            top_down_finishes.clear()
            dist = distances_from(g, np.array(src)).dist
            assert [ref[c] for c in coords] == dist.tolist()
            # More parent-to-child moves than children: levels carry duplicate candidates.
            moves = sum(ref[w] == ref[v] + 1 for v in adj for w in adj[v])
            assert moves > box.n_vertices - 1
            # A level of more than n/8 vertices comes from a step of more
            # than n/8 candidates; found top-down, it takes the mask finish.
            assert 8 * max(np.bincount(list(ref.values()))) > box.n_vertices
            assert ("_mask_finish", False) in top_down_finishes

    @pytest.mark.parametrize("d, radius, hub, seed", HUBS)
    def test_stop_hooks_and_allow_match_oracle(self, d, radius, hub, seed, top_down_finishes):
        queries_match_oracle(hub_graph(d, radius, hub, seed), seed)
        assert ("_mask_finish", True) in top_down_finishes


def reaches(target):
    """A ``_bfs`` stop hook that ends the search once ``target``'s level is written."""
    return lambda level, frontier: bool(np.any(frontier == target))


def at_level(k):
    """A ``_bfs`` stop hook that ends the search once level ``k`` is written."""
    return lambda level, frontier: level >= k


def assert_no_scratch_left(dist, expected):
    """A stopped or restricted ``_bfs`` leaves only levels and -1, and its levels are ``expected``'s."""
    assert dist.min() >= -1
    reached = dist >= 0
    assert np.array_equal(dist[reached], expected[reached])


def queries_match_oracle(g, seed, n_queries=8):
    """Early-exit, restricted and max-level searches from random pairs equal the oracles.

    Each runs through the public function and through ``_bfs``, whose distances are checked too.
    """
    box, d, radius = g.box, g.box.d, g.box.radius
    pairs = sample_to_oracle_args(g)
    coords = [tuple(int(v) for v in c) for c in box.coords_of(np.arange(box.n_vertices))]
    rng = np.random.default_rng(seed)
    for _ in range(n_queries):
        i, j = (int(v) for v in rng.integers(box.n_vertices, size=2))
        x = box.coords_of(np.array([i]))[0]
        y = box.coords_of(np.array([j]))[0]
        xt, yt = tuple(int(v) for v in x), tuple(int(v) for v in y)
        ref = oracles.reference_distances(d, radius, pairs, xt)
        full = np.array([ref[c] for c in coords])
        assert distance_pair(g, x, y) == ref[yt]
        assert_no_scratch_left(metric._bfs(g, i, stop=reaches(j)), full)
        for k in range(5):
            assert intrinsic_ball(g, x, k) == sum(v <= k for v in ref.values())
            assert_no_scratch_left(metric._bfs(g, i, stop=at_level(k)), full)
        if i == j:
            continue
        ell1 = float(np.abs(x - y).sum())
        inside = oracles.reference_restricted_distances(d, radius, pairs, xt, 2 * ell1, g.params.norm,
                                                        strict=True)
        assert restricted_distance(g, x, y).value == inside.get(yt, math.inf)
        allow = box.norm_field(x, g.params.norm) < 2 * ell1
        assert_no_scratch_left(metric._bfs(g, i, allow=allow, stop=reaches(j)),
                               np.array([inside.get(c, -1) for c in coords]))
        for k in (0, 1):
            got = restricted_k_distance(g, x, y, k, 0.8)
            assert got.value == oracles.reference_restricted(
                d, radius, pairs, xt, yt, got.constraint_radius, g.params.norm, strict=False)


class TestStampedLevels:
    """The hub graphs' large levels take the mask finish; here every level's work (two
    moves per vertex plus the long edges' ends) stays at most n/8, so every level is stamped."""

    def test_few_long_edges_match_oracle(self, top_down_finishes):
        g = line_graph(300, [(-280, -120), (-150, 90), (-20, 250), (40, 170)])
        n = g.box.n_vertices
        pairs = sample_to_oracle_args(g)
        for src in [(0,), (-300,), (133,)]:
            ref = oracles.reference_distances(1, 300, pairs, src)
            # Candidates of a level: two lattice moves per frontier vertex plus the long edges' ends.
            assert 8 * (2 * max(np.bincount(list(ref.values()))) + 2 * g.n_long_edges) <= n
            assert distances_from(g, np.array(src)).dist.tolist() == [ref[(x,)] for x in range(-300, 301)]
        queries_match_oracle(g, 5, n_queries=12)
        assert {name for name, _ in top_down_finishes} == {"_stamp_finish"}


@pytest.fixture
def bottom_up_levels(monkeypatch):
    """The level of every bottom-up step _bfs takes while the test runs."""
    levels = []
    step = metric._bottom_up

    def recorded(box, halves, dist, level, unvisited):
        levels.append(level)
        return step(box, halves, dist, level, unvisited)

    monkeypatch.setattr(metric, "_bottom_up", recorded)
    return levels


def predicted_bottom_up(d, ref, pairs, allowed):
    """Levels the work rule takes bottom-up, from the oracle's levels and the long degrees.

    The step into level k + 1 reads level k; it is bottom-up when the ratio
    times level k's work exceeds the work of the allowed vertices not yet
    reached.  A vertex's work is its long degree plus 2d.
    """
    degree = {}
    for a, b in pairs:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    level_work = [0] * (max(ref.values()) + 1)
    for v, k in ref.items():
        level_work[k] += degree.get(v, 0) + 2 * d
    unvisited = sum(degree.get(v, 0) + 2 * d for v in allowed)
    levels = []
    for k, work in enumerate(level_work):
        unvisited -= work
        if metric._BOTTOM_UP_RATIO * work > unvisited:
            levels.append(k + 1)
    return levels


SWITCHING = [(d, norm) for d in (1, 2, 3) for norm in ("ell1", "ell2", "ellinf")]


class TestDirectionSwitching:
    """Dense graphs whose last levels hold most of the box, so searches take both step kinds."""

    @staticmethod
    def graph(d, norm):
        pm = ModelParams(d=d, s=1.5 * d, beta=4.0, norm=norm)
        return sample_graph(pm, Box(d=d, radius={1: 60, 2: 7, 3: 3}[d]), seed=10 * d + len(norm))

    @pytest.mark.parametrize("d, norm", SWITCHING)
    def test_both_step_kinds_match_oracle(self, d, norm, bottom_up_levels):
        g = self.graph(d, norm)
        box, radius = g.box, g.box.radius
        pairs = sample_to_oracle_args(g)
        coords = [tuple(int(v) for v in c) for c in box.coords_of(np.arange(box.n_vertices))]
        for src in [(0,) * d, (-radius,) * d, coords[len(coords) // 3]]:
            ref = oracles.reference_distances(d, radius, pairs, src)
            last = max(ref.values())
            expected = predicted_bottom_up(d, ref, pairs, coords)
            # A bottom-up step that finds a level, and a top-down one.
            assert any(k <= last for k in expected)
            assert set(range(1, last + 2)) - set(expected)

            bottom_up_levels.clear()
            assert distances_from(g, np.array(src)).dist.tolist() == [ref[c] for c in coords]
            assert bottom_up_levels == expected

            far = max(ref, key=ref.get)
            bottom_up_levels.clear()
            assert distance_pair(g, np.array(src), np.array(far)) == last
            assert bottom_up_levels == [k for k in expected if k <= last]

            for k in range(last + 1):
                bottom_up_levels.clear()
                assert intrinsic_ball(g, np.array(src), k) == sum(v <= k for v in ref.values())
                assert bottom_up_levels == [j for j in expected if j <= k]

            full = np.array([ref[c] for c in coords])
            src_idx = int(box.index_of(np.array(src)))
            assert_no_scratch_left(metric._bfs(g, src_idx, stop=reaches(int(box.index_of(np.array(far))))), full)
            for k in range(last + 1):
                assert_no_scratch_left(metric._bfs(g, src_idx, stop=at_level(k)), full)

    @pytest.mark.parametrize("d, norm", SWITCHING)
    def test_stop_hook_sees_each_level_once_in_order(self, d, norm, bottom_up_levels):
        g = self.graph(d, norm)
        calls = []
        dist = metric._bfs(g, 0, stop=lambda level, frontier: calls.append((level, sorted(frontier.tolist()))))
        assert bottom_up_levels and set(range(1, int(dist.max()) + 1)) - set(bottom_up_levels)
        assert calls == [(k, np.flatnonzero(dist == k).tolist()) for k in range(int(dist.max()) + 1)]

    @pytest.mark.parametrize("d, norm", SWITCHING)
    def test_restricted_searches_match_oracle(self, d, norm, bottom_up_levels):
        g = self.graph(d, norm)
        box, radius = g.box, g.box.radius
        pairs = sample_to_oracle_args(g)
        coords = [tuple(int(v) for v in c) for c in box.coords_of(np.arange(box.n_vertices))]
        for src, constraint in [((0,) * d, radius), ((-radius,) * d, 1.5 * radius)]:
            ref = oracles.reference_restricted_distances(d, radius, pairs, src, constraint, norm, strict=True)
            assert len(ref) < box.n_vertices
            last = max(ref.values())
            expected = predicted_bottom_up(d, ref, pairs, ref)
            assert any(k <= last for k in expected)
            assert set(range(1, last + 2)) - set(expected)
            # The oracle's vertex set is the constraint ball, which the lattice moves connect.
            allow = np.array([c in ref for c in coords])
            bottom_up_levels.clear()
            dist = metric._bfs(g, int(box.index_of(np.array(src))), allow=allow)
            assert dist.tolist() == [ref.get(c, -1) for c in coords]
            assert bottom_up_levels == expected
        bottom_up_levels.clear()
        queries_match_oracle(g, d, n_queries=6)
        assert bottom_up_levels
