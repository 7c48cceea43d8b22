"""Graph, Z, and W samplers.

Graph sampling is displacement-grouped: edges are generated per translation
class v (one binomial count for the number of edges at displacement v, then
a uniform without-replacement choice of which pairs), which costs
O(#classes + #edges) instead of O(#pairs).

Randomness layout ``philox4x64-v2`` (counter-based, splittable):

* generator: numpy Philox 4x64, keyed with two 64-bit words
  ``(seed, stream)``.
* stream ``2**63`` (counts) gives the binomial count vector K, drawn once
  over all displacement classes in canonical (lexicographic) order.
* stream ``2**63 + 1`` (sparse) chooses the pairs of every sparse class
  (``K * 64 <= N``, N the class's pair count) in one pass.  Round 0 takes
  K raw words per class, classes in canonical order; each word's upper 32
  bits map to [0, N) by Lemire's multiply-shift with rejection.  Each
  later round takes, classes again in order, one word per slot still
  missing (a rejected word or an in-class duplicate), and appends to the
  same stream until every class holds K distinct pairs.  N < 2**32 holds
  for every class, since boxes need n_vertices**2 < 2**63.
* every dense class v (``K * 64 > N``) gets stream ``class_code(v)`` <
  2**63, a fixed-width packing of its components, and a partial shuffle
  on it through numpy's ``Generator.choice``.
* stream ``2**63 + 2`` (thinning) serves coupled sampling over an
  ascending beta ladder: the top rung (largest beta) is drawn exactly as
  ``sample_graph`` does, so it is ``sample_graph``'s output; then every
  top-rung edge, in sorted order, takes one word read as the uniform
  ``U = (raw_word >> 11) * 2**-53`` and stays at rung i iff
  ``U < p_i(v) / p_top(v)``.  A ladder of one draws no such words.

The binomial and partial-shuffle draws ride numpy Generator methods,
which numpy pins per version; within one environment the output is
bit-stable.  Pair indices within a class enumerate the admissible tail
vertices (the lexicographically smaller endpoints) in row-major order over
the rectangle of tails; edges are finally sorted by the int64 key
``tail * n_vertices + head``, i.e. by (tail, head), so the output is
independent of construction order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .model import (
    NORMS,
    ModelParams,
    connection_probabilities,
    derived_constants,
    norm_value,
    unit_ball_volume,
)

DEFAULT_MEMORY_CAP = 2 * 2**30
Z_REJECTION_CAP = 10**6

GENERATOR_TAG = "philox4x64-v2"

# Reserved Philox stream keys; per-class streams use class codes below 2**63.
_COUNTS_STREAM = np.uint64(1) << np.uint64(63)
_SPARSE_STREAM = _COUNTS_STREAM + np.uint64(1)
_THIN_STREAM = _COUNTS_STREAM + np.uint64(2)

# Norm kind -> (per-axis term, combining ufunc); ell2 takes a square root at the end.
_SEPARABLE_NORMS = {"ell1": (np.abs, np.add), "ell2": (np.square, np.add),
                    "ellinf": (np.abs, np.maximum)}


class MemoryCapExceeded(RuntimeError):
    """Raised before allocation when a sampling plan would exceed the memory cap."""

    def __init__(self, estimated_bytes: float, cap_bytes: int, stage: str):
        self.estimated_bytes = float(estimated_bytes)
        self.cap_bytes = int(cap_bytes)
        self.stage = stage
        super().__init__(
            f"{stage} needs an estimated {estimated_bytes / 2**30:.2f} GiB, "
            f"over the configured cap of {cap_bytes / 2**30:.2f} GiB"
        )


class RejectionCapExceeded(RuntimeError):
    """Raised when Z rejection sampling exhausts its iteration budget."""


@dataclass(frozen=True)
class Box:
    """Centered lattice box {x in Z^d: max_i |x_i| <= radius}.

    Vertices are indexed 0..(2*radius+1)**d - 1 in row-major coordinate
    order: index(x) = sum_i (x_i + radius) * (2*radius+1)**(d-1-i), so the
    index order is the lexicographic order on coordinates.
    """

    d: int
    radius: int

    def __post_init__(self):
        if not isinstance(self.d, (int, np.integer)) or self.d < 1:
            raise ValueError(f"box dimension must be an integer >= 1, got {self.d!r}")
        if not isinstance(self.radius, (int, np.integer)) or self.radius < 1:
            raise ValueError(f"box radius must be an integer >= 1, got {self.radius!r}")
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "radius", int(self.radius))
        if self.side**self.d >= 2**62:
            raise ValueError("box too large: vertex indices must fit in 62 bits")

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def n_vertices(self) -> int:
        return self.side**self.d

    @property
    def strides(self) -> np.ndarray:
        return self.side ** np.arange(self.d - 1, -1, -1, dtype=np.int64)

    def index_of(self, coords):
        """Vertex index of coordinate vector(s); validates containment."""
        arr = np.asarray(coords, dtype=np.int64)
        if arr.shape[-1] != self.d:
            raise ValueError(f"coordinates have {arr.shape[-1]} components, expected {self.d}")
        if np.any(np.abs(arr) > self.radius):
            raise ValueError("coordinates outside the box")
        idx = (arr + self.radius) @ self.strides
        if idx.ndim == 0:
            return int(idx)
        return idx

    def coords_of(self, index):
        """Coordinate vector(s) of vertex index (inverse of index_of)."""
        idx = np.asarray(index, dtype=np.int64)
        if np.any(idx < 0) or np.any(idx >= self.n_vertices):
            raise ValueError("vertex index out of range")
        out = np.empty(idx.shape + (self.d,), dtype=np.int64)
        rem = idx.copy()
        for i in range(self.d - 1, -1, -1):
            out[..., i] = rem % self.side - self.radius
            rem //= self.side
        return out

    def contains(self, coords):
        arr = np.asarray(coords, dtype=np.int64)
        return np.all(np.abs(arr) <= self.radius, axis=-1)

    def norm_field(self, center, kind: str) -> np.ndarray:
        """Norm of x - center for every box vertex x, in index order (float64).

        Equals ``norm_value(coords - center, kind)`` with ``coords`` the
        (n_vertices, d) array of all vertex coordinates, but is built
        separably from one axis of offsets per dimension, so that array is
        never materialised.  ``center`` may lie outside the box.
        """
        if kind not in _SEPARABLE_NORMS:
            raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORMS}")
        c = np.atleast_1d(np.asarray(center, dtype=np.int64))
        if c.shape != (self.d,):
            raise ValueError(f"center must be a {self.d}-vector, got {center!r}")
        term, combine = _SEPARABLE_NORMS[kind]
        axis = np.arange(-self.radius, self.radius + 1, dtype=np.float64)
        field = term(axis - c[0])
        for ci in c[1:]:
            field = combine.outer(field, term(axis - ci))
        field = field.reshape(-1)
        return np.sqrt(field, out=field) if kind == "ell2" else field


@dataclass(eq=False)
class GraphSample:
    """One sampled percolation graph on a box.

    ``long_edges`` holds the explicit non-nearest-neighbor edges as an
    (m, 2) int64 array of vertex index pairs (i, j) with i < j, sorted
    lexicographically; nearest-neighbor edges are implicit and always
    present.  The samplers and ``graph_from_edges`` store it column-major,
    so each endpoint column is contiguous for the adjacency build; a
    hand-built sample with a C-order array works the same, only with
    strided column reads.  Samples are immutable by convention: the
    adjacency a search caches on the sample keeps its out-rows as a view of
    ``long_edges``, so a sample must stay unmodified after a search.
    Regeneration from (params, box, seed) through the op that produced
    them is bit-identical.
    """

    params: ModelParams
    box: Box
    seed: int | None
    long_edges: np.ndarray
    _adjacency: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_long_edges(self) -> int:
        return int(self.long_edges.shape[0])


def _validate_seed(seed) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit word")
    return seed


def _check_memory(estimated_bytes: float, cap_bytes: int, stage: str):
    if estimated_bytes > cap_bytes:
        raise MemoryCapExceeded(estimated_bytes, cap_bytes, stage)


def _displacement_classes(box: Box, memory_cap_bytes: int) -> np.ndarray:
    """All canonical displacement class representatives present in the box.

    Canonical means the first nonzero component is positive (one
    representative per {v, -v} pair); zero and nearest-neighbor
    displacements are excluded.  Rows are sorted lexicographically.
    """
    L = box.radius
    if box.d == 1:
        return np.arange(2, 2 * L + 1, dtype=np.int64).reshape(-1, 1)
    raw_rows = (2 * L + 1) * (4 * L + 1) ** (box.d - 1)
    # the mesh, the kept rows (about half of it) and np.delete's keep mask
    _check_memory(raw_rows * (box.d * 12 + 1), memory_cap_bytes, "displacement class enumeration")
    axes = [np.arange(0, 2 * L + 1, dtype=np.int64)]
    axes += [np.arange(-2 * L, 2 * L + 1, dtype=np.int64)] * (box.d - 1)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(-1, box.d)
    # An "ij" mesh of ascending axes is in lexicographic order, so the canonical
    # rows are exactly those after the zero vector, and the unit vector e_i sits
    # grid_strides[i] rows after it.
    grid_strides = _grid_strides(box)
    zero = int(grid_strides[0] - 1) // 2
    return np.delete(mesh[zero + 1:], grid_strides - 1, axis=0)


def _grid_strides(box: Box) -> np.ndarray:
    """Strides of the displacement mesh, whose axes after the first span 4L + 1 values."""
    return (4 * box.radius + 1) ** np.arange(box.d - 1, -1, -1, dtype=np.int64)


def _class_pair_counts(box: Box, classes: np.ndarray) -> np.ndarray:
    """Number of vertex pairs in the box at each displacement: prod(2L+1-|v_i|)."""
    return np.prod(box.side - np.abs(classes), axis=1, dtype=np.int64)


def _class_codes(box: Box, classes: np.ndarray) -> np.ndarray:
    """Pack each displacement into a < 2**63 stream id (fixed-width components)."""
    bits = 63 // box.d
    span = 4 * box.radius + 1
    if span > (1 << bits):
        raise ValueError(
            f"box radius {box.radius} too large to key displacement streams in "
            f"dimension {box.d} ({bits} bits per component)"
        )
    codes = np.zeros(len(classes), dtype=np.uint64)
    for i in range(box.d):
        offs = (classes[:, i] + 2 * box.radius).astype(np.uint64)
        codes = (codes << np.uint64(bits)) | offs
    return codes


def _stream(seed: int, key) -> np.random.Philox:
    """The Philox 4x64 stream keyed (seed, key)."""
    return np.random.Philox(key=np.array([seed, key], dtype=np.uint64))


def _select_dense(n: int, k: int, gen: np.random.Generator) -> np.ndarray:
    """k distinct uniform indices from range(n) by partial shuffle (dense classes)."""
    if k >= n:
        return np.arange(n, dtype=np.int64)
    return gen.choice(n, size=k, replace=False)


def _bounded(words: np.ndarray, n: np.ndarray, threshold: np.ndarray):
    """Uniform integers in [0, n) from raw 64-bit words, n < 2**32 per word.

    Lemire's multiply-shift on the upper 32 bits x of each word: the value
    is (x * n) >> 32, and a word is rejected when the low half of x * n is
    below ``threshold``, which must be 2**32 mod n, so that every value
    keeps exactly floor(2**32 / n) accepted preimages.  The caller takes
    that modulo once per distinct n and gathers it per word.  Returns
    (values, accepted).
    """
    prod = (words >> np.uint64(32)) * n
    accepted = (prod & np.uint64(0xFFFFFFFF)) >= threshold
    return (prod >> np.uint64(32)).astype(np.int64), accepted


def _select_sparse(N: np.ndarray, K: np.ndarray, bit_generator) -> tuple:
    """Distinct uniform pair indices for many classes at once: K[i] of range(N[i]) for row i.

    Round 0 takes K[i] raw words for row i, rows in order, from
    ``bit_generator``; every later round takes, again in row order, one
    word per slot still missing (a rejected or an in-class duplicate draw).
    Each row's set is thus the first K[i] distinct values of an i.i.d.
    uniform sequence, hence uniform over K[i]-subsets.  Requires N < 2**32.
    Each row's rejection threshold 2**32 mod N[i] is computed once.  Round
    0 sorts its keys; a later round draws words for the short rows only and
    merges its few new distinct keys into the sorted keys, so it costs
    O(words drawn) plus one copy of the keys.
    Returns (row, index) arrays sorted by (row, index).
    """
    n = N.astype(np.uint64)
    threshold = np.uint64(2**32) % n
    keys = np.empty(0, dtype=np.int64)  # row << 32 | index, sorted and distinct
    missing = K.astype(np.int64)
    while (total := int(missing.sum())) > 0:
        short = np.flatnonzero(missing)
        rows = np.repeat(short, missing[short])
        values, accepted = _bounded(bit_generator.random_raw(total), n[rows], threshold[rows])
        new = (rows[accepted] << 32) | values[accepted]
        del rows, values, accepted
        new.sort()
        new = new[np.diff(new, prepend=-1) != 0]
        if keys.size:
            at = np.searchsorted(keys, new)
            fresh = at == np.searchsorted(keys, new, side="right")
            new = new[fresh]
            keys = np.insert(keys, at[fresh], new)
        else:
            keys = new
        missing -= np.bincount(new >> 32, minlength=len(n))
    return keys >> 32, keys & 0xFFFFFFFF


def _pair_keys(box: Box, classes: np.ndarray, cls, sel: np.ndarray, out: np.ndarray):
    """Write the edge keys tail * n + head of pair indices ``sel`` into ``out``.

    ``cls`` holds each index's row of ``classes``, or is one row index that
    all of them share (a dense class's block).  Pair index j enumerates the
    admissible tails of class v row-major over the rectangle of tail
    coordinates x_i in [-L + max(0, -v_i), L - max(0, v_i)], and
    head = tail + v @ strides.  So the key is t @ strides * (n + 1) plus one
    offset per class, (max(0, -v) * (n + 1) + v) @ strides, with t the
    digits of j over that rectangle.  ``sel`` is overwritten.
    """
    strides, n1 = box.strides, box.n_vertices + 1
    out[...] = ((np.maximum(0, -classes) * n1 + classes) @ strides)[cls]
    for i in range(box.d - 1, 0, -1):
        width = (box.side - np.abs(classes[:, i]))[cls]
        out += (sel % width) * (strides[i] * n1)
        sel //= width
    sel *= strides[0] * n1
    out += sel


def _edges_from_keys(keys: np.ndarray, n_vertices: int) -> np.ndarray:
    """Sort edge keys tail * n + head in place; the (m, 2) (tail, head) array in that order.

    The array is column-major, so each endpoint column is one contiguous run.
    """
    keys.sort()
    edges = np.empty((keys.size, 2), dtype=np.int64, order="F")
    np.divmod(keys, n_vertices, out=(edges[:, 0], edges[:, 1]))
    return edges


def _check_edge_keys(box: Box):
    n = box.n_vertices
    if n * n >= 2**63:
        raise ValueError(f"box too large: {n} vertices, and edge keys tail * n + head need n**2 < 2**63")


def _edge_classes(box: Box, edges: np.ndarray) -> np.ndarray:
    """Class row of every edge, from its endpoints' canonical displacement v.

    v @ grid_strides is v's mesh offset past the zero vector (see
    _displacement_classes), and the unit vectors before it are those whose
    offset, grid_strides[i], is smaller.  v_i is the difference of the
    endpoints' i-th index digits, so no coordinate array is built.
    """
    grid_strides = _grid_strides(box)
    offset = np.zeros(len(edges), dtype=np.int64)
    for stride, grid_stride in zip(box.strides.tolist(), grid_strides.tolist()):
        digit = edges[:, 1] // stride % box.side
        digit -= edges[:, 0] // stride % box.side
        digit *= grid_stride
        offset += digit
    rows = offset - 1
    for grid_stride in grid_strides.tolist():
        rows -= offset > grid_stride
    return rows


def _vertex_stage_memory(box: Box, n_rungs: int) -> float:
    """The per-vertex bytes of ``_edge_stage_memory``, which need no class or edge count."""
    return (76.0 + 24.0 * (n_rungs - 1)) * box.n_vertices


def _edge_stage_memory(box: Box, n_classes: int, n_rungs: int, expected_edges: float,
                       max_class_pairs: float) -> float:
    """Peak bytes of sampling plus the adjacency and BFS a consumer runs on each rung.

    Per class: the class rows, pair counts, codes, edge counts and one
    probability per rung.  Per expected top-rung edge, the largest of the
    stages that hold arrays at once: decoding (the key array, the sparse
    draws' class rows and pair indices, and one axis's widths and digits:
    40 bytes), the sorted key beside the edge array (24), a consumer's
    adjacency build (edges 16, the uint64 in-half keys 8 and the uint32
    in-half 4: 28; the out-half is a view of the edges), and a BFS (edges
    and in-half 20, plus one level's long-edge candidates: 24, of which a
    level above n/8 uses 16, one half's gather positions and neighbours,
    for its mask finish; a stamped level holds at most n/8 candidates).
    Each lower rung keeps its edges and cached in-half (20 per edge) and
    two row-pointer arrays, long degrees and distances (24 per vertex)
    alive.  Every vertex also has the
    replica's float64 norm field and annulus mask (9), the out- and in-row
    pointers (16), the int32 long degrees (4), the BFS distances and int64
    stamp buffer (12), and the largest of the build's degree counts, a
    top-down level's frontier with its nearest-neighbour candidates (or
    stamped candidates, or the mask finish's two masks), and a bottom-up
    level's arrays (35).  A bottom-up level holds the unvisited
    vertices' indices (8) and found mask (1), one axis's digits, neighbour
    indices, gathered distances and masks (23), then for the vertices still
    unfound their mask, indices, row pointers and counts; it runs only when
    the unvisited vertices' work is below twice the frontier's.  The dense
    classes' partial shuffle holds a permutation of at most the largest
    class.
    """
    per_vertex = _vertex_stage_memory(box, n_rungs)
    per_class = (8.0 * box.d + 32.0 + 8.0 * n_rungs) * n_classes
    per_edge = 44.0 + 20.0 * (n_rungs - 1)
    return per_vertex + per_class + per_edge * expected_edges + 8.0 * max_class_pairs


def _sample_rungs(params_list: list, box: Box, seed: int, memory_cap_bytes: int) -> list:
    """Long-edge arrays of every rung of an already validated ascending beta ladder.

    The top rung is drawn by displacement class: a binomial count vector
    from the counts stream, then a uniform choice of pairs per class, from
    the sparse stream for every sparse class at once and from the class's
    keyed stream for each dense one.  Lower rungs thin it: each top-rung
    edge, in sorted order, takes one uniform U from the thinning stream and
    stays at rung i iff U < p_i(v) / p_top(v), so every rung is
    Bernoulli(p_i) per pair, independent across pairs, and the rungs are
    nested.
    """
    _check_edge_keys(box)  # n**2 < 2**63 also bounds every class's N below 2**32
    classes = _displacement_classes(box, memory_cap_bytes)
    N = _class_pair_counts(box, classes)
    P = np.stack([connection_probabilities(pm, classes) for pm in params_list], axis=1)
    expected = float((N * P[:, -1]).sum())
    _check_memory(_edge_stage_memory(box, len(classes), len(params_list), expected, float(N.max(initial=0))),
                  memory_cap_bytes, "graph sampling")

    K = np.random.Generator(_stream(seed, _COUNTS_STREAM)).binomial(N, P[:, -1])
    sparse = np.flatnonzero((K > 0) & (K * 64 <= N))
    dense = np.flatnonzero(K * 64 > N)
    keys = np.empty(int(K.sum()), dtype=np.int64)
    cls, sel = _select_sparse(N[sparse], K[sparse], _stream(seed, _SPARSE_STREAM))
    at = sel.size
    _pair_keys(box, classes[sparse], cls, sel, keys[:at])
    del cls, sel
    for c, code in zip(dense, _class_codes(box, classes[dense])):
        sel = _select_dense(int(N[c]), int(K[c]), np.random.Generator(_stream(seed, code)))
        _pair_keys(box, classes[c:c + 1], 0, sel, keys[at:at + sel.size])
        at += sel.size
    top = _edges_from_keys(keys, box.n_vertices)
    del keys
    if len(params_list) == 1:
        return [top]
    u = (_stream(seed, _THIN_STREAM).random_raw(len(top)) >> np.uint64(11)) * 2.0**-53
    edge_class = _edge_classes(box, top)
    rungs = []
    for ratio in P[:, :-1].T / P[:, -1]:
        kept = np.flatnonzero(u < ratio[edge_class])
        rung = np.empty((kept.size, 2), dtype=np.int64, order="F")
        for j in range(2):  # column by column; "clip" lets take write into ``out`` without a copy
            np.take(top[:, j], kept, out=rung[:, j], mode="clip")
        rungs.append(rung)
    return rungs + [top]


def sample_graph(params: ModelParams, box: Box, seed: int,
                 memory_cap_bytes: int = DEFAULT_MEMORY_CAP) -> GraphSample:
    """Sample one percolation graph by displacement-grouped generation.

    Per displacement class v: the number of present edges is Binomial(N_v,
    p_v) with N_v the pair count and p_v the connection probability, and
    the chosen pairs are uniform without replacement.  The binomial count
    vector comes from the reserved counts stream, the sparse classes'
    pairs from one shared stream, and each dense class's pairs from its
    own keyed stream (module docstring).  This is the ladder of one,
    ``sample_graph_coupled([params], ...)``.  Raises ValueError for boxes
    of 2**31.5 vertices or more, and MemoryCapExceeded before any large
    allocation if the plan exceeds ``memory_cap_bytes``.
    """
    return sample_graph_coupled([params], box, seed, memory_cap_bytes)[0]


def sample_graph_coupled(params_list, box: Box, seed: int,
                         memory_cap_bytes: int = DEFAULT_MEMORY_CAP) -> list:
    """Sample monotone-coupled graphs for an ascending beta ladder.

    All parameter sets must share (d, s, norm, kernel) and be sorted by
    beta.  The top rung is ``sample_graph`` at the largest beta (a ladder
    of one), bit for bit; each of its edges, in sorted order, then takes
    one uniform U from the thinning stream and is kept at rung i iff
    U < p_i(v) / p_top(v).
    Every rung is thus an exact sample at its own beta, and edge sets are
    nested along the ladder by construction.

    Cost is O(#classes + #top-rung edges), as for sample_graph.
    """
    params_list = list(params_list)
    if not params_list:
        raise ValueError("params_list must be non-empty")
    seed = _validate_seed(seed)
    head_pm = params_list[0]
    if head_pm.d != box.d:
        raise ValueError(f"params dimension {head_pm.d} does not match box dimension {box.d}")
    for pm in params_list[1:]:
        if (pm.d, pm.s, pm.norm, pm.kernel) != (head_pm.d, head_pm.s, head_pm.norm, head_pm.kernel):
            raise ValueError("coupled sampling requires identical (d, s, norm, kernel) across the ladder")
    betas = [pm.beta for pm in params_list]
    if any(b2 < b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError(f"betas must be sorted ascending, got {betas}")
    rungs = _sample_rungs(params_list, box, seed, memory_cap_bytes)
    return [GraphSample(params=pm, box=box, seed=seed, long_edges=edges)
            for pm, edges in zip(params_list, rungs)]


def graph_from_edges(params: ModelParams, box: Box, edges, seed: int | None = None) -> GraphSample:
    """Build a GraphSample from an explicit long-edge list (for tests and
    hand-constructed graphs).

    ``edges`` is (m, 2) vertex indices or (m, 2, d) coordinate pairs.
    Validates box membership, rejects self-loops, nearest-neighbor pairs
    (implicit edges), and duplicates; normalizes orientation and order.
    """
    _check_edge_keys(box)
    e = np.asarray(edges, dtype=np.int64)
    if e.size == 0:
        e = np.empty((0, 2), dtype=np.int64)
    if e.ndim == 3:
        e = box.index_of(e)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError("edges must be (m, 2) vertex indices or (m, 2, d) coordinates")
    if np.any(e < 0) or np.any(e >= box.n_vertices):
        raise ValueError("edge endpoint outside the box")
    if np.any(e[:, 0] == e[:, 1]):
        raise ValueError("self-loops are not allowed")
    if np.any(np.abs(box.coords_of(e[:, 1]) - box.coords_of(e[:, 0])).sum(axis=1) == 1):
        raise ValueError("nearest-neighbor pairs are implicit and must not be listed")
    keys = e.min(axis=1) * box.n_vertices + e.max(axis=1)
    edges_sorted = _edges_from_keys(keys, box.n_vertices)
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("duplicate edges")
    return GraphSample(params=params, box=box, seed=seed, long_edges=edges_sorted)


@dataclass(frozen=True)
class C0Estimate:
    value: float
    standard_error: float
    method: str
    budget: int


@lru_cache(maxsize=None)
def _c0_quadrature(d: int, norm_kind: str) -> tuple:
    """c0 = v_d^2 * Int_0^1 sqrt(1 - u^2) du by quadrature, with its error bound."""
    from scipy import integrate  # deferred: importing scipy.integrate takes about 0.65 s

    vd = unit_ball_volume(d, norm_kind)
    integral, abserr = integrate.quad(lambda u: math.sqrt(max(0.0, 1.0 - u * u)), 0.0, 1.0)
    return vd * vd * integral, vd * vd * abserr


def compute_c0(params: ModelParams, method: str = "quadrature", budget: int = 10**6,
               seed: int = 0) -> C0Estimate:
    """The volume constant c0 = vol{(z, z') in R^d x R^d : |z|^{2d} + |z'|^{2d} <= 1}.

    quadrature: reduce both d-dimensional integrals radially
    (vol{|z| <= rho} = v_d rho^d for any norm), leaving
    c0 = v_d^2 * Int_0^1 sqrt(1 - u^2) du, evaluated numerically.
    monte_carlo: hit counting over the bounding cube [-1, 1]^{2d}.
    """
    if budget < 10**4:
        raise ValueError("budget must be at least 1e4 evaluations")
    d = params.d
    if method == "quadrature":
        value, abserr = _c0_quadrature(d, params.norm)
        return C0Estimate(value=value, standard_error=abserr, method=method, budget=budget)
    if method == "monte_carlo":
        rng = np.random.default_rng(seed)
        hits = 0
        done = 0
        while done < budget:
            m = min(budget - done, 10**6)
            pts = rng.random((m, 2 * d)) * 2.0 - 1.0
            za = norm_value(pts[:, :d], params.norm) ** (2 * d)
            zb = norm_value(pts[:, d:], params.norm) ** (2 * d)
            hits += int(np.count_nonzero(za + zb <= 1.0))
            done += m
        cube = 2.0 ** (2 * d)
        phat = hits / budget
        return C0Estimate(value=cube * phat,
                          standard_error=cube * math.sqrt(max(phat * (1 - phat), 1e-300) / budget),
                          method=method, budget=budget)
    raise ValueError(f"unknown method {method!r}; expected 'quadrature' or 'monte_carlo'")


def _uniform_in_ball(rng: np.random.Generator, m: int, d: int, kind: str) -> np.ndarray:
    """m points uniform in the unit ball of the given norm in R^d."""
    if kind == "ellinf":
        return rng.uniform(-1.0, 1.0, size=(m, d))
    if kind == "ell2":
        g = rng.standard_normal((m, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radii = rng.random(m) ** (1.0 / d)
        return g * radii[:, None]
    if kind == "ell1":
        # Dirichlet spacings give a uniform point of the probability simplex;
        # its first d coordinates are uniform over {sum |v_i| <= 1, v_i >= 0}
        spac = rng.standard_exponential((m, d + 1))
        mags = spac[:, :d] / spac.sum(axis=1, keepdims=True)
        signs = rng.integers(0, 2, size=(m, d)) * 2 - 1
        return mags * signs
    raise ValueError(f"unknown norm kind {kind!r}")


def sample_z(params: ModelParams, eta: float, rng: np.random.Generator, size: int | None = None):
    """Draw from the density sqrt(eta) * exp(-eta * c0 * |z|^{2d}) on R^d.

    Rejection sampling: the proposal is a * T * V with V uniform in the
    unit norm-ball, T Pareto(2d) on [1, inf), and scale
    a = (3 / (2 eta c0))^{1/(2d)} chosen so the acceptance probability is
    (2/3)^{3/2} sqrt(pi)/2 ~ 0.48, independent of d and eta (in particular
    above 0.1 for every d <= 3 and eta <= 10).  A draw failing to complete
    within 10**6 proposals raises RejectionCapExceeded.
    """
    if not eta > 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    d = params.d
    c0 = _c0_quadrature(d, params.norm)[0]
    alpha = 2 * d
    a = ((d + alpha) / (2 * d * eta * c0)) ** (1.0 / (2 * d))
    target = 1 if size is None else int(size)
    if target < 0:
        raise ValueError("size must be >= 0")

    out = np.empty((target, d))
    got = 0
    proposals = 0
    while got < target:
        m = max(64, int(1.1 * (target - got) / 0.48) + 1)
        t = (1.0 - rng.random(m)) ** (-1.0 / alpha)
        v = _uniform_in_ball(rng, m, d, params.norm)
        z = a * t[:, None] * v
        r = np.atleast_1d(norm_value(z, params.norm))
        accept_p = np.exp(-eta * c0 * r ** (2 * d)) * np.maximum(1.0, (r / a) ** (d + alpha))
        keep = rng.random(m) < accept_p
        take = min(int(keep.sum()), target - got)
        out[got : got + take] = z[keep][:take]
        got += take
        proposals += m
        if proposals > Z_REJECTION_CAP and got < target:
            raise RejectionCapExceeded(
                f"rejection sampling exhausted {proposals} proposals with {got}/{target} "
                f"accepted (rate {got / proposals:.4f}); d={d}, eta={eta}, norm={params.norm}"
            )
    if size is None:
        return out[0]
    return out


@dataclass(frozen=True)
class WSample:
    """One draw of W = Z_0 * prod_{k>=1} |Z_k|^{e_k}, truncated at recorded level."""

    value: np.ndarray
    eta: float
    gamma_sequence: str
    truncation_level: int
    residual_bound: float


def _gamma_entry(gamma_sequence, k: int) -> float:
    if isinstance(gamma_sequence, (int, float)):
        return float(gamma_sequence)
    return float(gamma_sequence[k - 1]) if k - 1 < len(gamma_sequence) else 0.0


def sample_w(params: ModelParams, eta: float, gamma_sequence, tolerance: float = 1e-9,
             rng: np.random.Generator | None = None) -> WSample:
    """Draw W = Z_0 * prod_{k>=1} |Z_k|^{e_k} with e_k = gamma_1 ... gamma_k.

    ``gamma_sequence`` is a constant (float) or a finite sequence (treated
    as zero beyond its end); every entry must lie in [0, 2*gamma/(1+gamma)].
    The product is truncated at the first level n whose residual exponent
    mass bound e_n * g/(1 - g) (g = sup of the sequence) drops to
    ``tolerance`` or below; level and bound are recorded.  A constant
    sequence of 0 returns W = Z_0 exactly, consuming no extra draws.

    For coupling two tolerances, pass generators seeded per sample index:
    the Z prefix is then shared and only the truncation level differs.
    """
    if rng is None:
        raise ValueError("an explicitly seeded numpy Generator is required")
    if not tolerance > 0:
        raise ValueError("tolerance must be > 0")
    gamma, _ = derived_constants(params)
    cap = 2 * gamma / (1 + gamma)
    if isinstance(gamma_sequence, (int, float)):
        entries = [float(gamma_sequence)]
        desc = f"constant {float(gamma_sequence)!r}"
    else:
        entries = [float(g) for g in gamma_sequence]
        desc = f"sequence of length {len(entries)}, sup {max(entries, default=0.0)!r}"
    for g in entries:
        if not 0.0 <= g <= cap + 1e-12:
            raise ValueError(f"gamma sequence entry {g} outside [0, 2*gamma/(1+gamma)] = [0, {cap}]")
    bound = max(entries, default=0.0)

    value = sample_z(params, eta, rng)
    if bound == 0.0:
        return WSample(value=value, eta=eta, gamma_sequence=desc, truncation_level=0, residual_bound=0.0)

    scale = 1.0
    e = 1.0
    level = 0
    while e * bound / (1.0 - bound) > tolerance:
        e_next = e * _gamma_entry(gamma_sequence, level + 1)
        if e_next == 0.0:
            e = 0.0
            break
        level += 1
        e = e_next
        z = sample_z(params, eta, rng)
        scale *= norm_value(z, params.norm) ** e
    return WSample(value=value * scale, eta=eta, gamma_sequence=desc,
                   truncation_level=level, residual_bound=e * bound / (1.0 - bound))
