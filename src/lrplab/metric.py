"""Chemical distance, restricted distances, and intrinsic balls.

All edges have unit weight, so single-source distances come from
breadth-first search.  Nearest-neighbor moves are generated arithmetically
from the box indexing (never stored); long edges are kept in a compressed
adjacency built once per sample and cached on it.

Adjacency layout: two half-row CSRs, ``(out_ptr, heads)`` and ``(in_ptr,
tails)``, with row pointers (n + 1 each) that are uint32 below 2**32
edges, 8 bytes per vertex for both, and int64 from there on; a read of
rows out of index order takes its jumps between rows in int64, since a
uint32 difference wraps (``_row_positions``).  Row u of the out-half
holds the heads of the edges out of u and row u of the in-half the tails of
the edges into u, both ascending, so every edge appears once per endpoint.
Since ``long_edges`` is sorted by (tail, head), ``heads`` is its head
column itself, a view, uint32 for every sampled graph; ``tails`` is
uint32, the low words of the sorted pair keys ``head << 32 | tail``
(``sampler`` module docstring).  numpy indexes with intp faster than with
uint32, so a gather of neighbours is cast to intp where it indexes an
array.

The frontier is held as a flat index array, one generation at a time, and
each level is found by one of two steps (Beamer, Asanovic and Patterson,
"Direction-optimizing breadth-first search", SC 2012).  A vertex's work is
its long degree plus 2d: the rows and lattice moves a step reads for it.
``dist`` (int32) is a search's whole state: -1 is unseen, and a restricted
search first writes ``_BLOCKED`` outside ``allow``, so that every step
enters exactly the vertices that read -1.

The top-down step reads the frontier's moves and rows, and finishes in
one of two ways, chosen by the frontier's work, which is its count of
unfiltered candidates plus its moves through the box walls.  Up to n/8
(the stamp finish), the candidates are concatenated, filtered to the
unseen ones, and stamped in ``dist`` itself: candidate i writes the code
-3 - i, and the candidates that read their own code back are one (the
last) occurrence of each vertex, in candidate order; the level's write
then overwrites every code.  Above n/8 (the mask finish), the lattice
moves and the rows' entries are scattered into one n-byte mask, which is
ANDed with ``dist == -1``, and the frontier is read back by one
``flatnonzero``, so that frontier is in index order.  The threshold
keeps early levels, early-exit and restricted searches O(candidates),
while a level holding much of the box costs a few passes over n bytes in
place of a concatenation, a gather, a filter and a compress of its
candidates.

The bottom-up step reads the unvisited vertices' moves and rows: it takes
``flatnonzero(dist == -1)`` and keeps, in index order, those with a
neighbour at the previous level.  numpy cannot stop at a vertex's first
such neighbour, so the step stops early one stage at a time: the
nearest-neighbour moves of every unvisited vertex (arithmetic, inside the
box walls), then the out-half rows of those still unfound, then the
in-half rows of those still unfound.

A level is bottom-up when ``_BOTTOM_UP_RATIO`` times the frontier's work
exceeds the unvisited vertices' work, a running total that starts as the
work of the box less the blocked vertices' and loses each frontier's.
Long-range percolation graphs have polylogarithmic diameter, so a search
from one vertex reaches most of the box in its last two or three levels,
and those are the levels the rule sends bottom-up.  The level sets, and so
the distances, depend on neither the step kind nor the frontier order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import norm_value, derived_constants
from .sampler import Box, GraphSample

# Measured per level on d=1 L=2**18 beta=5, d=2 L=200 beta=2 and d=1 L=16384
# beta=10 graphs, each step timed alone: bottom-up is the faster step where the
# unvisited work is below about twice the frontier's (at 2.03 times, 3.7 against
# 3.9 ms; at 1.66, 10.9 against 12.1 ms; at 1.36, 33 against 53 ms) and the
# slower above it (at 2.81 times, 70 against 39 ms).
_BOTTOM_UP_RATIO = 2

# dist's value for a vertex a restricted search may not enter; stamp codes lie below it.
_BLOCKED = -2


def _check_long_edges(edges: np.ndarray, n: int):
    """Raise ValueError unless ``edges`` is in the ``GraphSample.long_edges`` order.

    With 0 <= tail < head < n, rows must rise strictly in the pair key
    tail << 32 | head: no tail falls, and a row whose tail stays raises its
    head, which neighbour compares on the two columns check without keys.
    """
    if not len(edges):
        return
    tail, head = edges[:, 0], edges[:, 1]
    t0, t1 = tail[:-1], tail[1:]
    if (tail[0] < 0 or head.max() >= n or np.any(tail >= head) or np.any(t1 < t0)
            or not np.all((t1 > t0) | (head[1:] > head[:-1]))):
        raise ValueError("long_edges must be vertex index pairs (i, j) with 0 <= i < j < n_vertices, "
                         "sorted by strictly increasing key i << 32 | j")


def _adjacency(sample: GraphSample):
    """Long-edge adjacency ((out_ptr, heads), (in_ptr, tails), degree), cached on the sample.

    ``degree`` is every vertex's long degree, out plus in, as int32.
    Raises ValueError if ``sample.long_edges`` breaks its documented order;
    that check runs only on hand-built samples, since the samplers and
    ``graph_from_edges`` mark theirs as already in order.
    """
    if sample._adjacency is not None:
        return sample._adjacency
    n = sample.box.n_vertices
    e = sample.long_edges
    if not sample._validated:
        _check_long_edges(e, n)
    tail, head = e[:, 0], e[:, 1]
    # Every pointer is at most m, so uint32 holds them below 2**32 edges.
    out_ptr, in_ptr = np.zeros((2, n + 1), dtype=np.uint32 if len(e) < 2**32 else np.int64)
    out_count = np.bincount(tail, minlength=n)
    np.cumsum(out_count, out=out_ptr[1:])
    in_count = np.bincount(head, minlength=n)
    np.cumsum(in_count, out=in_ptr[1:])
    degree = np.add(out_count, in_count, dtype=np.int32)
    del out_count, in_count
    # Unsafe casts, so that hand-built int64 columns cast too; every index is in [0, 2**32).
    keys = np.left_shift(head, 32, dtype=np.uint64, casting="unsafe")
    np.bitwise_or(keys, tail, out=keys, dtype=np.uint64, casting="unsafe")
    keys.sort()
    tails = keys.astype(np.uint32)
    sample._adjacency = ((out_ptr, head), (in_ptr, tails), degree)
    return sample._adjacency


def _as_index(box: Box, vertex) -> int:
    """Vertex index of a coordinate vector; scalars are promoted to 1-vectors in d=1."""
    arr = np.atleast_1d(np.asarray(vertex, dtype=np.int64))
    if arr.shape != (box.d,):
        raise ValueError(f"vertex must be a {box.d}-vector of coordinates, got {vertex!r}")
    return int(box.index_of(arr))


def _nn_moves(box: Box, frontier: np.ndarray):
    """The nearest-neighbor moves of the frontier, one array per direction, respecting box walls."""
    side = box.side
    for axis, stride in enumerate(box.strides.tolist()):
        digit = box.digit(frontier, axis)
        yield frontier[digit > 0] - stride
        yield frontier[digit < side - 1] + stride


def _row_positions(indptr: np.ndarray, rows: np.ndarray):
    """Positions in one adjacency half of the given rows' entries, row after row.

    Also returns where each non-empty row starts among those positions, and
    the mask of the non-empty rows over ``rows``.
    """
    starts = indptr[rows]
    cnt = indptr[rows + 1] - starts
    nonzero = cnt > 0
    starts, cnt = starts[nonzero], cnt[nonzero]
    if not cnt.size:
        return np.empty(0, dtype=np.int64), cnt, nonzero
    offsets = np.cumsum(cnt, dtype=np.intp)
    idx = np.ones(int(offsets[-1]), dtype=np.int64)
    offsets -= cnt
    # Ragged arange: unit steps within a row, a jump to the next row's start between rows.  The
    # jump is negative where rows come out of order, so it is taken in int64: uint32 would wrap.
    idx[0] = starts[0]
    idx[offsets[1:]] = np.subtract(starts[1:], starts[:-1] + cnt[:-1] - 1, dtype=np.int64)
    np.cumsum(idx, out=idx)
    return idx, offsets, nonzero


def _bottom_up(box: Box, halves, dist: np.ndarray, level: int, unvisited: np.ndarray) -> np.ndarray:
    """The unvisited vertices with a neighbour at ``level - 1``, in index order.

    Nearest-neighbour moves are checked first, then the out-half rows of the
    vertices still unfound, then the in-half rows of those still unfound.
    """
    parent = level - 1
    found = np.zeros(unvisited.size, dtype=bool)
    side = box.side
    for axis, stride in enumerate(box.strides.tolist()):
        digit = box.digit(unvisited, axis)
        found |= (dist.take(unvisited - stride, mode="clip") == parent) & (digit > 0)
        found |= (dist.take(unvisited + stride, mode="clip") == parent) & (digit < side - 1)
    for ptr, nbrs in halves:
        rest = np.flatnonzero(~found)
        if not rest.size:
            break
        idx, offsets, nonzero = _row_positions(ptr, unvisited[rest])
        if offsets.size:
            hit = dist[nbrs[idx].astype(np.intp, copy=False)] == parent
            found[rest[nonzero]] = np.logical_or.reduceat(hit, offsets)
    return unvisited[found]


def _stamp_finish(box: Box, halves, dist: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """The frontier's unseen neighbours, in candidate order, deduped by codes stamped into ``dist``."""
    cand = np.concatenate([*_nn_moves(box, frontier),
                           *(nbrs[_row_positions(ptr, frontier)[0]] for ptr, nbrs in halves)])
    cand = cand[dist[cand] == -1]
    code = np.arange(-3, -3 - cand.size, -1, dtype=np.int32)  # at most n/8 candidates
    dist[cand] = code
    return cand[dist[cand] == code]


def _mask_finish(box: Box, halves, dist: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """The frontier's unseen neighbours, in index order, read from one n-byte mask."""
    hit = np.zeros(dist.size, dtype=bool)
    for moves in _nn_moves(box, frontier):
        hit[moves] = True
    for ptr, nbrs in halves:
        hit[nbrs[_row_positions(ptr, frontier)[0]].astype(np.intp, copy=False)] = True
    hit &= dist == -1
    return np.flatnonzero(hit)


def _bfs(sample: GraphSample, src_idx: int, *, allow=None, stop=None) -> np.ndarray:
    """Level-synchronous BFS from src_idx; returns int32 distances, -1 = unreached.

    Each level takes the top-down or the bottom-up step, by the work rule
    of the module docstring, and a top-down level finishes by the stamp or,
    when its work exceeds n/8, by the mask; every way finds the same level
    set, so only the frontier's order depends on the choice.  ``allow``:
    boolean mask over box vertices; only vertices it admits are entered, by
    either step (used for restricted distances).  ``stop``: the one way to
    end a search early, called as ``stop(level, frontier)`` once each level
    is written, the source's level 0 first; the search ends when it returns
    true, so every vertex at or below that level has its distance and every
    other one reads -1.
    """
    box = sample.box
    *halves, degree = _adjacency(sample)
    n = box.n_vertices
    lattice = 2 * box.d
    dist = np.full(n, -1, dtype=np.int32)
    unvisited_work = 2 * sample.n_long_edges + lattice * n  # the degree sum is twice the edge count
    if allow is not None:
        blocked = ~allow
        dist[blocked] = _BLOCKED
        unvisited_work -= int(degree[blocked].sum()) + lattice * int(np.count_nonzero(blocked))
    dist[src_idx] = 0
    frontier = np.array([src_idx], dtype=np.int64)
    level = 0
    while frontier.size and not (stop is not None and stop(level, frontier)):
        level += 1
        frontier_work = int(degree[frontier].sum()) + lattice * frontier.size
        unvisited_work -= frontier_work
        if _BOTTOM_UP_RATIO * frontier_work > unvisited_work:
            frontier = _bottom_up(box, halves, dist, level, np.flatnonzero(dist == -1))
        elif 8 * frontier_work > n:
            frontier = _mask_finish(box, halves, dist, frontier)
        else:
            frontier = _stamp_finish(box, halves, dist, frontier)
        dist[frontier] = level
    if allow is not None:
        np.maximum(dist, -1, out=dist)
    return dist


@dataclass(frozen=True)
class DistanceField:
    """Distances from one source over all box vertices.

    dist[source] = 0, every edge (explicit or implicit) changes dist by at
    most 1, and dist[x] <= ell1(x - source) since the nearest-neighbor path
    is always available.
    """

    sample: GraphSample
    source: tuple
    dist: np.ndarray

    @property
    def source_index(self) -> int:
        return int(self.sample.box.index_of(np.asarray(self.source, dtype=np.int64)))


def distances_from(sample: GraphSample, source) -> DistanceField:
    """Single-source chemical distances over the whole box (O(V + E))."""
    src = _as_index(sample.box, source)
    dist = _bfs(sample, src)
    coords = tuple(int(c) for c in np.atleast_1d(np.asarray(source, dtype=np.int64)))
    return DistanceField(sample=sample, source=coords, dist=dist)


def distance_pair(sample: GraphSample, x, y) -> int:
    """Chemical distance between two vertices (early-exit BFS)."""
    xi = _as_index(sample.box, x)
    yi = _as_index(sample.box, y)
    if xi == yi:
        return 0
    dist = _bfs(sample, xi, stop=lambda level, frontier: bool(np.any(frontier == yi)))
    return int(dist[yi])


@dataclass(frozen=True)
class RestrictedDistanceResult:
    """Restricted distance value with its constraint radius and a box-honesty flag.

    value is an int, or math.inf if no admissible path exists;
    truncated_by_box is set when the constraint ball pokes out of the box,
    in which case the value only upper-bounds the infinite-volume one.
    """

    value: float
    constraint_radius: float
    truncated_by_box: bool


def _restricted_bfs(sample: GraphSample, x, y, radius: float, strict: bool) -> RestrictedDistanceResult:
    box = sample.box
    xi = _as_index(box, x)
    yi = _as_index(box, y)
    x_arr = np.atleast_1d(np.asarray(x, dtype=np.int64))

    # extreme admissible coordinate deviation along an axis (unit vectors have
    # norm 1 in every supported norm); a float, so an infinite radius passes
    delta_star = np.ceil(radius) - 1 if strict else np.floor(radius)
    truncated = bool(np.any(np.abs(x_arr) + delta_star > box.radius))

    if xi == yi:
        return RestrictedDistanceResult(value=0, constraint_radius=radius, truncated_by_box=truncated)
    admissible = box.norm_field(x_arr, sample.params.norm)
    admissible = admissible < radius if strict else admissible <= radius
    if not admissible[yi]:
        return RestrictedDistanceResult(value=math.inf, constraint_radius=radius, truncated_by_box=truncated)
    dist = _bfs(sample, xi, allow=admissible, stop=lambda level, frontier: bool(np.any(frontier == yi)))
    value = int(dist[yi]) if dist[yi] >= 0 else math.inf
    return RestrictedDistanceResult(value=value, constraint_radius=radius, truncated_by_box=truncated)


def restricted_distance(sample: GraphSample, x, y) -> RestrictedDistanceResult:
    """Shortest path from x to y among paths confined near x.

    Every path vertex z must satisfy norm(z - x) < 2 * ell1(x - y), with
    the kernel norm on the left: the printed convention, strict inequality
    with an ell1 right-hand side.  The definition is asymmetric in (x, y).
    The k-indexed family below uses weak inequality and the kernel norm on
    both sides instead.
    """
    radius = 2.0 * norm_value(np.asarray(y, dtype=np.int64) - np.asarray(x, dtype=np.int64), "ell1")
    return _restricted_bfs(sample, x, y, radius, strict=True)


def restricted_k_distance(sample: GraphSample, x, y, k: int, gamma_bar: float) -> RestrictedDistanceResult:
    """Member k of the interpolating family of restricted distances.

    Confinement radius 2 * norm(x - y)**(gamma_bar**(-k)) with weak
    inequality, kernel norm on both sides; gamma_bar must lie strictly
    between gamma and 1.  Monotone non-increasing in k and stabilizes at
    the chemical distance once the radius swallows the whole box.  A
    radius past the float range is math.inf, with the box truncation flag
    set.
    """
    gamma, _ = derived_constants(sample.params)
    if not gamma < gamma_bar < 1.0:
        raise ValueError(f"gamma_bar must lie in (gamma, 1) = ({gamma}, 1), got {gamma_bar}")
    if k < 0:
        raise ValueError("k must be >= 0")
    x_arr = np.asarray(x, dtype=np.int64)
    y_arr = np.asarray(y, dtype=np.int64)
    base = norm_value(y_arr - x_arr, sample.params.norm)
    try:  # base is 0, 1 or above 1 on the lattice
        radius = 2.0 * base ** (gamma_bar ** (-float(k))) if base > 1 else 2.0 * base
    except OverflowError:
        radius = math.inf
    return _restricted_bfs(sample, x, y, radius, strict=False)


def intrinsic_ball(sample: GraphSample, x, k: int) -> int:
    """Number of box vertices within chemical distance k of x (one BFS)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    xi = _as_index(sample.box, x)
    dist = _bfs(sample, xi, stop=lambda level, frontier: level >= k)
    return int(np.count_nonzero(dist >= 0))
