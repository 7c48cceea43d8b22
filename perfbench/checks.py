"""Correctness checks on benchmark outcomes.

Every check returns a list of problems (empty when the outcome is right).
The checks recompute what they need with plain numpy from the box geometry
and the public values they are handed, so they hold for any random-stream
layout: they test properties every correct sample has, never particular
edges.  None of them runs inside a timed region.
"""

from __future__ import annotations

import math

import numpy as np


def delta_exponent(d: int, s: float) -> float:
    """Delta = 1 / log2(2d / s), the exponent of log r in the distance scale."""
    return 1.0 / math.log2(2 * d / s)


def _axis_coords(radius: int) -> np.ndarray:
    return np.arange(-radius, radius + 1, dtype=np.int64)


def _separable_grid(d: int, radius: int, per_axis) -> np.ndarray:
    """Sum over axes of per_axis(axis, coords) on the (side,)*d grid, flattened row-major."""
    side = 2 * radius + 1
    x = _axis_coords(radius)
    total = 0
    for axis in range(d):
        shape = [1] * d
        shape[axis] = side
        total = total + per_axis(axis, x).reshape(shape)
    return np.broadcast_to(total, (side,) * d).reshape(-1)


def ell2_norm_grid(d: int, radius: int, center=None) -> np.ndarray:
    """Euclidean norm of (x - center) for every box vertex, in vertex-index order."""
    c = np.zeros(d, dtype=np.int64) if center is None else np.asarray(center, dtype=np.int64)
    sq = _separable_grid(d, radius, lambda axis, x: ((x - c[axis]) ** 2).astype(np.float64))
    return np.sqrt(sq)


def annulus_count(d: int, radius: int, r: float, delta: float) -> int:
    """Vertices of the box of the given radius with delta * r <= |x|_2 < r."""
    nrm = ell2_norm_grid(d, radius)
    return int(np.count_nonzero((nrm >= delta * r) & (nrm < r)))


def bfs_field_problems(d: int, radius: int, long_edges: np.ndarray, dist: np.ndarray,
                       source) -> list:
    """Invariants of a single-source distance field on a box with all nearest-neighbour bonds.

    dist[source] = 0, every vertex is reached, dist changes by at most 1
    across every nearest-neighbour bond and every long edge, and dist never
    exceeds the ell1 distance to the source.
    """
    side = 2 * radius + 1
    src = np.asarray(source, dtype=np.int64).reshape(d)
    problems = []
    if dist.shape != (side**d,):
        return [f"distance field has shape {dist.shape}, expected ({side**d},)"]
    src_index = int(((src + radius) * side ** np.arange(d - 1, -1, -1)).sum())
    if dist[src_index] != 0:
        problems.append(f"dist[source] = {dist[src_index]}, expected 0")
    if np.any(dist < 0):
        problems.append(f"{int(np.count_nonzero(dist < 0))} vertices unreached")
    grid = dist.astype(np.int64).reshape((side,) * d)
    for axis in range(d):
        jump = int(np.abs(np.diff(grid, axis=axis)).max(initial=0))
        if jump > 1:
            problems.append(f"dist jumps by {jump} across a nearest-neighbour bond on axis {axis}")
    if long_edges.size:
        d64 = dist.astype(np.int64)
        jump = int(np.abs(d64[long_edges[:, 0]] - d64[long_edges[:, 1]]).max())
        if jump > 1:
            problems.append(f"dist jumps by {jump} across a long edge")
    ell1 = _separable_grid(d, radius, lambda axis, x: np.abs(x - src[axis]))
    over = int(np.count_nonzero(dist.astype(np.int64) > ell1))
    if over:
        problems.append(f"{over} vertices farther than their ell1 distance to the source")
    return problems


def canonical_classes(d: int, radius: int) -> np.ndarray:
    """One representative per {v, -v} of every displacement with ell1 >= 2 inside the box."""
    axes = [np.arange(0, 2 * radius + 1, dtype=np.int64)]
    axes += [np.arange(-2 * radius, 2 * radius + 1, dtype=np.int64)] * (d - 1)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    nz = mesh != 0
    lead = mesh[np.arange(len(mesh)), nz.argmax(axis=1)]
    keep = nz.any(axis=1) & (lead > 0) & (np.abs(mesh).sum(axis=1) >= 2)
    return mesh[keep]


def edge_count_problems(params, radius: int, n_edges: int, connection_probabilities) -> list:
    """The long-edge count lies within 6 sigma of sum_v N_v p_v.

    N_v counts the vertex pairs in the box at displacement v and p_v comes
    from the public ``connection_probabilities``; the count is a sum of
    independent Bernoulli variables, so its variance is sum N_v p_v (1 - p_v).
    """
    classes = canonical_classes(params.d, radius)
    pairs = np.prod(2 * radius + 1 - np.abs(classes), axis=1).astype(np.float64)
    p = connection_probabilities(params, classes)
    mean = float((pairs * p).sum())
    sigma = math.sqrt(float((pairs * p * (1.0 - p)).sum()))
    if abs(n_edges - mean) > 6.0 * sigma:
        return [f"{n_edges} long edges, expected {mean:.1f} +- 6 * {sigma:.1f}"]
    return []


def phi_problems(phi_hat: float, n_points: int, d: int, s: float, r: float,
                 expected_points: int) -> list:
    """phi_hat * (log r)^Delta is a median of integers, so a half-integer; n_points is the annulus size."""
    problems = []
    twice = 2.0 * phi_hat * math.log(r) ** delta_exponent(d, s)
    if not math.isfinite(twice) or abs(twice - round(twice)) > 1e-9 * max(1.0, abs(twice)):
        problems.append(f"phi_hat * (log r)^Delta = {twice / 2!r} is not a half-integer")
    if n_points != expected_points:
        problems.append(f"n_points = {n_points}, annulus holds {expected_points}")
    return problems


def ladder_problems(phis) -> list:
    """phi_hat along an ascending beta ladder of one coupled replica never rises."""
    rises = [(i, phis[i], phis[i + 1]) for i in range(len(phis) - 1) if phis[i + 1] > phis[i]]
    return [f"phi_hat rises from {a!r} to {b!r} at rung {i}" for i, a, b in rises]


def query_problems(dist: np.ndarray, target_index: int, pair: int, forward, backward,
                   chain, ball_k: int, ball: int) -> list:
    """distance_pair, the restricted chain and the intrinsic ball agree with the field."""
    problems = []
    D = int(dist[target_index])
    if pair != D:
        problems.append(f"distance_pair = {pair}, field gives {D}")
    for name, value in (("forward", forward), ("backward", backward)):
        if not value >= D:
            problems.append(f"restricted {name} distance {value} < D = {D}")
    if any(not value >= D for value in chain):
        problems.append(f"restricted k-chain {list(chain)} dips below D = {D}")
    if any(b > a for a, b in zip(chain, chain[1:])):
        problems.append(f"restricted k-chain {list(chain)} increases in k")
    expected_ball = int(np.count_nonzero((dist >= 0) & (dist <= ball_k)))
    if ball != expected_ball:
        problems.append(f"intrinsic_ball(k={ball_k}) = {ball}, field gives {expected_ball}")
    return problems


def deviation_fraction(dist: np.ndarray, d: int, radius: int, source, r: int,
                       scale: float, epsilon: float) -> float:
    """Share of vertices in the closed ell2 ball B(source, r) with |dist/scale - 1| > epsilon."""
    ball = ell2_norm_grid(d, radius, source) <= r
    ratios = dist[ball].astype(np.float64) / scale
    return float(np.count_nonzero(np.abs(ratios - 1.0) > epsilon) / np.count_nonzero(ball))


def edges_csv_rows(path) -> int:
    """Data rows of a CSV written by the CLI: lines that are neither '#' comments nor the header."""
    with open(path, encoding="utf-8") as fh:
        body = sum(1 for line in fh if not line.startswith("#"))
    return body - 1


def generator_tag(path) -> str:
    """The generator=... tag of an edges.csv provenance comment."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            for part in line.replace(";", " ").split():
                if part.startswith("generator="):
                    return part.partition("=")[2]
    return "unknown"
