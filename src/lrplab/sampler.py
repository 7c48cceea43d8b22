"""Graph, Z, and W samplers.

Graph sampling is displacement-grouped: edges are generated per translation
class v (one binomial count for the number of edges at displacement v, then
a uniform without-replacement choice of which pairs), which costs
O(#classes + #edges) instead of O(#pairs).

Randomness layout ``philox4x64-v3`` (counter-based, splittable):

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
  for every class, since a box holds at most 2**32 vertices (below).
* every dense class v (``K * 64 > N``) gets stream ``class_code(v)`` <
  2**63, a fixed-width packing of its components, and a partial shuffle
  on it through numpy's ``Generator.choice``.
* stream ``2**63 + 2`` (thinning) serves coupled sampling over an
  ascending beta ladder: the top rung (largest beta) is drawn exactly as
  ``sample_graph`` does, so it is ``sample_graph``'s output; then every
  top-rung edge takes one word read as the uniform
  ``U = (raw_word >> 11) * 2**-53`` and stays at rung i iff
  ``U < p_i(v) / p_top(v)``.  The words go to the edges in the order
  their keys are built, grouped by class: first the sparse classes in
  canonical order, each class's pairs in ascending pair index, then the
  dense classes in canonical order, each in its ``Generator.choice``
  order.  A ladder of one draws no such words.

The binomial and partial-shuffle draws ride numpy Generator methods,
which numpy pins per version; within one environment the output is
bit-stable.  Pair indices within a class enumerate the admissible tail
vertices (the lexicographically smaller endpoints) in row-major order over
the rectangle of tails.  A vertex pair's key is ``hi << 32 | lo``, sorted
as uint64, so a box holds at most 2**32 vertices (``Box``) and every
vertex index fits uint32.  Each rung's keys ``tail << 32 | head`` are
built in a uint64 scratch array, sorted there (so the output is
independent of construction order) and split into the two uint32 columns
of the (m, 2) column-major edge array that is returned, 8 bytes per edge.
Sparse round 0 maps, sorts and deduplicates its words in blocks of about
2**16 words of whole rows; the block size decides no word's use, so no
output bit depends on it.

A sample checks its memory cap twice, each time before what it counts is
built, against the stage rows of ``_memory_table``: the class tables from
(d, L) alone (``_check_class_memory``), then the other stages from their
expected edges.  ``_sample_rungs`` marks each stage's start with ``_stage``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    NORMS,
    _SEPARABLE_NORMS,
    ModelParams,
    connection_probabilities,
    derived_constants,
    norm_value,
    unit_ball_volume,
)

DEFAULT_MEMORY_CAP = 2 * 2**30
Z_REJECTION_CAP = 10**6

GENERATOR_TAG = "philox4x64-v3"

# Round-0 words of the sparse stream mapped, sorted and deduplicated at a time (_select_sparse).
_BLOCK_WORDS = 2**16

# Bytes the memory estimate adds for numpy's own allocations: the first binomial draw in a
# process holds about 0.7 MiB beside the arrays the estimate counts.
_UNPLANNED_BYTES = 2**20

# Reserved Philox stream keys; per-class streams use class codes below 2**63.
_COUNTS_STREAM = np.uint64(1) << np.uint64(63)
_SPARSE_STREAM = _COUNTS_STREAM + np.uint64(1)
_THIN_STREAM = _COUNTS_STREAM + np.uint64(2)

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

    def __reduce__(self):  # so that a refusal crosses back from a worker process whole
        return type(self), (self.estimated_bytes, self.cap_bytes, self.stage)


class RejectionCapExceeded(RuntimeError):
    """Raised when Z rejection sampling exhausts its iteration budget."""


@dataclass(frozen=True)
class Box:
    """Centered lattice box {x in Z^d: max_i |x_i| <= radius}.

    Vertices are indexed 0..(2*radius+1)**d - 1 in row-major coordinate
    order: index(x) = sum_i (x_i + radius) * (2*radius+1)**(d-1-i), so the
    index order is the lexicographic order on coordinates.  A box holds at
    most 2**32 vertices, the most that pair keys hi << 32 | lo can index,
    so every vertex index fits the uint32 columns of ``long_edges``.
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
        bits = self.d * (self.side.bit_length() - 1)  # n > 2**bits, read without computing n
        if bits >= 32 or self.n_vertices > 2**32:
            count = f"over 2**{bits}" if bits >= 64 else self.n_vertices
            raise ValueError(f"box too large: {count} vertices, and pair keys hi << 32 | lo need n <= 2**32")

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

    def digit(self, index, axis: int):
        """Coordinate ``axis`` of vertex index(es) plus the radius, a digit in [0, side).

        The digit is index // side**(d - 1 - axis) % side; the last axis
        skips the division by its stride of 1, and the first the modulo,
        since index // side**(d - 1) < side already.  So in d = 1 the index
        itself comes back, not a copy.  Indices are not range-checked.
        """
        stride = self.side ** (self.d - 1 - axis)
        quotient = index // stride if stride > 1 else index
        return quotient % self.side if axis > 0 else quotient

    def coords_of(self, index):
        """Coordinate vector(s) of vertex index (inverse of index_of)."""
        idx = np.asarray(index, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_vertices):
            raise ValueError("vertex index out of range")
        out = np.empty(idx.shape + (self.d,), dtype=np.int64)
        for axis in range(self.d):
            np.subtract(self.digit(idx, axis), self.radius, out=out[..., axis])
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
    (m, 2) array of vertex index pairs (i, j) with i < j, sorted
    lexicographically; nearest-neighbor edges are implicit and always
    present.  The samplers and ``graph_from_edges`` store it as uint32
    (8 bytes per edge; ``Box`` caps indices below 2**32), column-major, so
    each endpoint column is contiguous for the adjacency build.  Cast it to
    a signed type before signed arithmetic: uint32 differences wrap.  A
    hand-built sample with an int64 or C-order array works the same, only
    with wider or strided column reads.  Samples are immutable by
    convention: the adjacency a search caches on the sample keeps its
    out-rows as a view of ``long_edges``, so a sample must stay unmodified
    after a search.  Regeneration from (params, box, seed) through the op
    that produced them is bit-identical.
    """

    params: ModelParams
    box: Box
    seed: int | None
    long_edges: np.ndarray
    _adjacency: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # Set by the samplers and graph_from_edges, whose long_edges are in order by construction,
    # so that the first search skips re-checking them.
    _validated: bool = field(default=False, init=False, repr=False, compare=False)

    @property
    def n_long_edges(self) -> int:
        return int(self.long_edges.shape[0])


def _check_coupled_ladder(params_list: list, seed, n_seeds: int = 1) -> None:
    """Raise ValueError unless ``sample_graph_coupled`` can draw the ladder at seeds seed + i, i < n_seeds.

    n_seeds must be at least 1, and the ladder non-empty, with one (d, s,
    norm, kernel) and ascending betas; the seeds must be integers in [0, 2**64).
    """
    if n_seeds < 1:
        raise ValueError("n_replicas must be >= 1")
    if not params_list:
        raise ValueError("params_list must be non-empty")
    shared = {(pm.d, pm.s, pm.norm, pm.kernel) for pm in params_list}
    if len(shared) > 1:
        raise ValueError("coupled sampling requires identical (d, s, norm, kernel) across the ladder")
    betas = [pm.beta for pm in params_list]
    if any(b2 < b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError(f"betas must be sorted ascending, got {betas}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if int(seed) < 0 or int(seed) + n_seeds > 2**64:
        replicas = f", with its replica seeds {int(seed)} + i for i < {n_seeds}" if n_seeds > 1 else ""
        raise ValueError(f"seed must fit in an unsigned 64-bit word{replicas}")


def _check_memory(estimated_bytes: float, cap_bytes: int, stage: str):
    if estimated_bytes > cap_bytes:
        raise MemoryCapExceeded(estimated_bytes, cap_bytes, stage)


def _memory_table(d: int, n_rungs: int) -> dict:
    """Bytes per unit that each stage holds at once, as rows, for an ``n_rungs`` ladder in dimension d.

    The stages are ``_sample_rungs``'s class tables, counts, choose (the
    pairs of every class) and thinning (the lower rungs thinned, and every
    rung's keys sorted and decoded), then the search a consumer runs on
    each rung.  A stage holds the largest of its rows.  Entries multiply, in
    order, the units: a byte (the margin for what numpy allocates beside
    the counted arrays: its cast buffer while the class tables are built,
    ``_UNPLANNED_BYTES`` after), vertices, classes, kept classes (the
    expected classes that hold edges, bounded by the sum of min(1, expected
    edges)), top-rung edges, lower-rung edges (summed over the rungs below
    the top), sparse edges (the top rung's, in classes expected to be
    sparse), block words (sparse round 0's largest block) and the pairs of
    the largest class.  Edge counts are expected counts.  Each sampling row
    keeps one byte per vertex for the replica's annulus mask, which only
    the search holds.  The search row is a measured budget, not a worst
    case: every rung's adjacency and distances, one level's arrays and row
    gathers.
    """
    tables = 8.0 * d + 8.0 + 8.0 * n_rungs + max(18.0, 8.0 * n_rungs)  # rows, pair counts, probabilities
    kept = 8.0 * d + 16.0 + 8.0 * n_rungs  # the tables cut down to the classes that hold edges
    thinned = kept + 8.0 * (n_rungs - 1)  # and the lower rungs' ratios
    wide = 8.0 * (d > 1)  # past d = 1, a digit per sparse edge, dense pair and searched vertex
    margin = _UNPLANNED_BYTES
    # Columns: byte, vertex, class, kept class, top-rung edge, lower-rung edge, sparse edge, block word,
    # largest class's pair.
    return {
        "class tables": {"class tables": (8.0 * np.getbufsize(), 1, tables, 0, 0, 0, 0, 0, 0)},
        "counts": {"counts": (margin, 1, tables, kept + 16, 0, 0, 0, 0, 0)},
        "choose": {"sparse round 0": (margin, 1, 0, kept, 8, 0, 16, 48, 0),
                   "pair arithmetic": (margin, 1, 0, kept, 8, 0, 24 + wide, 0, 0),
                   "dense shuffle": (margin, 1, 0, kept, 8, 0, 0, 0, 16 + wide)},
        "thinning": {"decode": (margin, 1, 0, kept, 16, 0, 0, 0, 0),
                     **({"thinning uniforms": (margin, 1, 0, thinned, 25, 8, 0, 0, 0),
                         "thinning rungs": (margin, 1, 0, thinned, 16, 16, 0, 0, 0)} if n_rungs > 1 else {})},
        "search": {"search": (margin, 25 + 16 * n_rungs + wide, 0, 0, 20, 12, 0, 0, 0)},
    }


def _stage_bytes(d: int, n_rungs: int, units: tuple) -> dict:
    """Each stage's estimate at ``units`` (one value per unit of ``_memory_table``): its largest row."""
    return {stage: max(sum(c * u for c, u in zip(row, units)) for row in rows.values())
            for stage, rows in _memory_table(d, n_rungs).items()}


def _stage(name: str) -> None:
    """Mark the start of ``_sample_rungs``'s stage ``name``, a ``_memory_table`` stage: a no-op to replace."""


def _check_class_memory(box: Box, n_rungs: int, memory_cap_bytes: int) -> None:
    """Raise MemoryCapExceeded unless the class tables of an ``n_rungs`` ladder on ``box`` fit the cap.

    Pure arithmetic on (d, L) and the rung count: the number of classes is
    that of ``_displacement_classes``, which is not called.
    """
    grid = (4 * box.radius + 1) ** (box.d - 1)
    classes = box.side * grid - grid // 2 - 1 - box.d
    estimate = _stage_bytes(box.d, n_rungs, (1, box.n_vertices, classes, 0, 0, 0, 0, 0, 0))["class tables"]
    _check_memory(estimate, memory_cap_bytes, "displacement class enumeration")


def _displacement_classes(box: Box) -> np.ndarray:
    """All canonical displacement class representatives present in the box.

    Canonical means the first nonzero component is positive (one
    representative per {v, -v} pair); zero and nearest-neighbor
    displacements are excluded.  Rows are sorted lexicographically.
    """
    L = box.radius
    if box.d == 1:
        return np.arange(2, 2 * L + 1, dtype=np.int64).reshape(-1, 1)
    shape = (2 * L + 1,) + (4 * L + 1,) * (box.d - 1)
    raw_rows = math.prod(shape)
    # An "ij" mesh of ascending axes is in lexicographic order, so the canonical
    # rows are exactly those after the zero vector, less the unit vector e_i
    # grid_strides[i] rows after it: the rows strictly between two cuts.
    grid_strides = _grid_strides(box)
    zero = int(grid_strides[0] - 1) // 2
    cuts = [zero, *(zero + grid_strides[::-1]).tolist(), raw_rows]
    classes = np.empty((raw_rows - zero - 1 - box.d, box.d), dtype=np.int64, order="F")
    mesh_column = np.empty(shape, dtype=np.int64)
    for i in range(box.d):
        values = np.arange(0 if i == 0 else -2 * L, 2 * L + 1, dtype=np.int64)
        mesh_column[...] = values.reshape([-1 if j == i else 1 for j in range(box.d)])
        flat = mesh_column.reshape(-1)
        np.concatenate([flat[lo + 1:hi] for lo, hi in zip(cuts, cuts[1:])], out=classes[:, i])
    return classes


def _grid_strides(box: Box) -> np.ndarray:
    """Strides of the displacement mesh, whose axes after the first span 4L + 1 values."""
    return (4 * box.radius + 1) ** np.arange(box.d - 1, -1, -1, dtype=np.int64)


def _class_pair_counts(box: Box, classes: np.ndarray) -> np.ndarray:
    """Number of vertex pairs in the box at each displacement: prod(2L+1-|v_i|)."""
    counts = box.side - np.abs(classes[:, 0])
    for i in range(1, box.d):
        counts *= box.side - np.abs(classes[:, i])
    return counts


def _class_codes(box: Box, classes: np.ndarray) -> np.ndarray:
    """Pack each displacement into a < 2**63 stream id (fixed-width components).

    Each component's 4L + 1 values fit its 63 // d bits in every box of at
    most 2**32 vertices (``Box``).
    """
    bits = 63 // box.d
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


def _row_keys(words: np.ndarray, rows: np.ndarray, repeats: np.ndarray, n: np.ndarray,
              threshold: np.ndarray) -> np.ndarray:
    """The sorted distinct keys row << 32 | index that ``words`` give ``rows``, repeats[i] words each."""
    values, accepted = _bounded(words, np.repeat(n[rows], repeats), np.repeat(threshold[rows], repeats))
    keys = np.repeat(rows << 32, repeats)
    keys |= values
    if not accepted.all():
        keys = np.compress(accepted, keys)
    del values, accepted
    keys.sort()
    return keys[np.diff(keys, prepend=-1) != 0]


def _select_sparse(N: np.ndarray, K: np.ndarray, bit_generator) -> tuple:
    """Distinct uniform pair indices for many classes at once: K[i] of range(N[i]) for row i.

    Round 0 takes K[i] raw words for row i, rows in order, from
    ``bit_generator``; every later round takes, again in row order, one
    word per slot still missing (a rejected or an in-class duplicate draw).
    Each row's set is thus the first K[i] distinct values of an i.i.d.
    uniform sequence, hence uniform over K[i]-subsets.  Requires N < 2**32.
    Each row's rejection threshold 2**32 mod N[i] is computed once, and a
    round repeats it and N[i] once per word of the row, not by a gather.
    Round 0 draws all its words in one call, then maps, sorts and
    deduplicates them in blocks of whole rows of about ``_BLOCK_WORDS``
    words (a longer row is a block of its own) into one key array: keys
    lead with the row, so the blocks' keys, laid one after another, are
    sorted, and no temporary outgrows a block.  A later round draws words
    for the short rows only and keeps the new keys that neither round 0
    nor an earlier later round holds; all of them are merged into the
    sorted keys with one ``np.insert`` at the end.
    Returns (row, index) arrays sorted by (row, index).
    """
    n = N.astype(np.uint64)
    threshold = np.uint64(2**32) % n
    counts = K.astype(np.int64)
    ends = np.cumsum(counts)
    keys = np.empty(int(counts.sum()), dtype=np.int64)  # row << 32 | index
    words = bit_generator.random_raw(keys.size) if keys.size else keys
    at = lo = row = 0
    while row < len(counts):
        stop = max(int(np.searchsorted(ends, lo + _BLOCK_WORDS, side="right")), row + 1)
        hi = int(ends[stop - 1])
        block = _row_keys(words[lo:hi], np.arange(row, stop), counts[row:stop], n, threshold)
        keys[at:at + block.size] = block
        at, lo, row = at + block.size, hi, stop
    del words
    keys = keys[:at]
    missing = counts - np.bincount(keys >> 32, minlength=len(n))
    later = np.empty(0, dtype=np.int64)  # the later rounds' keys, sorted and distinct
    while (total := int(missing.sum())) > 0:
        short = np.flatnonzero(missing)
        new = _row_keys(bit_generator.random_raw(total), short, missing[short], n, threshold)
        for held in (keys, later):
            new = new[np.searchsorted(held, new) == np.searchsorted(held, new, side="right")]
        later = np.insert(later, np.searchsorted(later, new), new)
        missing -= np.bincount(new >> 32, minlength=len(n))
    if later.size:
        keys = np.insert(keys, np.searchsorted(keys, later), later)
    rows = keys >> 32
    keys &= 0xFFFFFFFF
    return rows, keys


def _pair_keys(box: Box, classes: np.ndarray, cls, sel: np.ndarray, out: np.ndarray):
    """Write the edge keys tail << 32 | head of pair indices ``sel`` into uint64 ``out``.

    ``cls`` holds each index's row of ``classes``, or is one row index that
    all of them share (a dense class's block).  Pair index j enumerates the
    admissible tails of class v row-major over the rectangle of tail
    coordinates x_i in [-L + max(0, -v_i), L - max(0, v_i)], and head =
    tail + v @ strides, so the key is t @ strides * (2**32 + 1) plus the
    class's first key, with t the digits of j.  ``sel`` is overwritten.
    """
    strides = box.strides
    first = (np.maximum(-classes, 0) @ strides).view(np.uint64) << np.uint64(32)
    out[...] = (first | (np.maximum(classes, 0) @ strides).view(np.uint64))[cls]
    for i in range(box.d - 1, 0, -1):
        width = (box.side - np.abs(classes[:, i]))[cls]
        digit = np.remainder(sel, width).view(np.uint64)
        digit *= np.uint64(int(strides[i]) * (2**32 + 1))
        out += digit
        sel //= width
        del width, digit  # so that the next axis's gather does not sit beside them
    sel = sel.view(np.uint64)
    sel *= np.uint64(int(strides[0]) * (2**32 + 1))
    out += sel


def _sort_and_decode(keys: np.ndarray) -> np.ndarray:
    """Sort the uint64 keys tail << 32 | head in place; return them split into (m, 2) column-major uint32.

    The caller drops its last reference to ``keys`` once this returns.
    """
    keys.sort()
    edges = np.empty((keys.size, 2), dtype=np.uint32, order="F")
    np.right_shift(keys, np.uint64(32), out=edges[:, 0])
    edges[:, 1] = keys  # the low words: an assignment truncates
    return edges


def _sample_rungs(params_list: list, box: Box, seed: int, memory_cap_bytes: int) -> list:
    """Long-edge arrays of every rung of an already validated ascending beta ladder.

    The top rung is drawn by displacement class: a binomial count vector
    from the counts stream, then a uniform choice of pairs per class, from
    the sparse stream for every sparse class at once and from the class's
    keyed stream for each dense one.  Lower rungs thin it: each top-rung
    edge takes one uniform U from the thinning stream and stays at rung i
    iff U < p_i(v) / p_top(v), so every rung is Bernoulli(p_i) per pair,
    independent across pairs, and the rungs are nested.  The uniforms go
    to the keys in the order they are built (sparse classes, then dense
    ones; module docstring).  Once K is drawn the class tables keep only
    the classes with edges, in that order, so key j's class is entry j of
    ``np.repeat(np.arange(len(K)), K)`` and is never recovered from an edge.
    """
    _check_class_memory(box, len(params_list), memory_cap_bytes)
    _stage("class tables")
    classes = _displacement_classes(box)
    N = _class_pair_counts(box, classes)
    P = np.stack([connection_probabilities(pm, classes) for pm in params_list], axis=1)
    p_top = P[:, -1]
    # Elementwise sums, not N @ P: a float matmul would wake BLAS's worker threads.
    expected = N * p_top  # each class's expected top-rung edges
    sparse_edges = float(np.where(p_top * 64 <= 1, expected, 0.0).sum())  # K * 64 <= N in expectation
    kept_classes = float(np.minimum(expected, 1.0).sum())  # P(K > 0) <= min(1, E[K]) per class
    lower = sum(float((N * p).sum()) for p in P.T[:-1])  # the lower rungs' expected edges
    largest = float(N.max(initial=0))
    units = (1, box.n_vertices, len(classes), kept_classes, float(expected.sum()), lower, sparse_edges,
             min(sparse_edges, _BLOCK_WORDS + largest / 64), largest)
    del expected
    estimates = _stage_bytes(box.d, len(params_list), units)  # the class tables were checked above
    _check_memory(max(v for stage, v in estimates.items() if stage != "class tables"), memory_cap_bytes,
                  "graph sampling")

    _stage("counts")
    K = np.random.Generator(_stream(seed, _COUNTS_STREAM)).binomial(N, p_top)
    del p_top  # a view that would keep the full P alive past the cut below
    # From here on only the classes with edges count, sparse ones first and then dense
    # ones: the order their keys are built and thinned in.
    sparse = np.flatnonzero((K > 0) & (K * 64 <= N))
    order = np.concatenate([sparse, np.flatnonzero(K * 64 > N)])
    classes, N, K, P = classes[order], N[order], K[order], P[order]
    n_sparse = sparse.size
    del sparse, order
    _stage("choose")
    keys = np.empty(int(K.sum()), dtype=np.uint64)  # built in class order, sorted and decoded last
    cls, sel = _select_sparse(N[:n_sparse], K[:n_sparse], _stream(seed, _SPARSE_STREAM))
    at = sel.size
    _pair_keys(box, classes[:n_sparse], cls, sel, keys[:at])
    del cls, sel
    for c, code in enumerate(_class_codes(box, classes[n_sparse:]), start=n_sparse):
        sel = _select_dense(int(N[c]), int(K[c]), np.random.Generator(_stream(seed, code)))
        _pair_keys(box, classes[c:c + 1], 0, sel, keys[at:at + sel.size])
        at += sel.size
    _stage("thinning")
    rungs = []
    if len(params_list) > 1:
        u = (_stream(seed, _THIN_STREAM).random_raw(keys.size) >> np.uint64(11)) * 2.0**-53
        for ratio in P[:, :-1].T / P[:, -1]:
            # A take of the kept positions: a boolean index runs 2-4x slower under numpy 2.4.
            rungs.append(_sort_and_decode(np.take(keys, np.flatnonzero(u < np.repeat(ratio, K)))))
        del u
    return rungs + [_sort_and_decode(keys)]


def sample_graph(params: ModelParams, box: Box, seed: int,
                 memory_cap_bytes: int = DEFAULT_MEMORY_CAP) -> GraphSample:
    """Sample one percolation graph by displacement-grouped generation.

    Per displacement class v: the number of present edges is Binomial(N_v,
    p_v) with N_v the pair count and p_v the connection probability, and
    the chosen pairs are uniform without replacement.  The binomial count
    vector comes from the reserved counts stream, the sparse classes'
    pairs from one shared stream, and each dense class's pairs from its
    own keyed stream (module docstring).  This is the ladder of one,
    ``sample_graph_coupled([params], ...)``.  Raises MemoryCapExceeded
    before any large allocation if the plan exceeds ``memory_cap_bytes``;
    ``Box`` already refuses boxes over 2**32 vertices.
    """
    return sample_graph_coupled([params], box, seed, memory_cap_bytes)[0]


def sample_graph_coupled(params_list, box: Box, seed: int,
                         memory_cap_bytes: int = DEFAULT_MEMORY_CAP) -> list:
    """Sample monotone-coupled graphs for an ascending beta ladder.

    All parameter sets must share (d, s, norm, kernel) and be sorted by
    beta.  The top rung is ``sample_graph`` at the largest beta (a ladder
    of one), bit for bit; each of its edges then takes one uniform U from
    the thinning stream, in the class order its key was built in (module
    docstring), and is kept at rung i iff U < p_i(v) / p_top(v).
    Every rung is thus an exact sample at its own beta, and edge sets are
    nested along the ladder by construction.

    Cost is O(#classes + #top-rung edges), as for sample_graph.
    """
    params_list = list(params_list)
    _check_coupled_ladder(params_list, seed)
    seed = int(seed)
    if params_list[0].d != box.d:
        raise ValueError(f"params dimension {params_list[0].d} does not match box dimension {box.d}")
    rungs = _sample_rungs(params_list, box, seed, memory_cap_bytes)
    return [_mark_validated(GraphSample(params=pm, box=box, seed=seed, long_edges=edges))
            for pm, edges in zip(params_list, rungs)]


def _mark_validated(sample: GraphSample) -> GraphSample:
    """Mark a sample whose ``long_edges`` its builder put in the documented order."""
    sample._validated = True
    return sample


def graph_from_edges(params: ModelParams, box: Box, edges, seed: int | None = None) -> GraphSample:
    """Build a GraphSample from an explicit long-edge list (for tests and
    hand-constructed graphs).

    ``edges`` is (m, 2) vertex indices or (m, 2, d) coordinate pairs.
    Validates box membership, rejects self-loops, nearest-neighbor pairs
    (implicit edges), and duplicates; normalizes orientation and order.
    """
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
    keys = np.minimum(e[:, 0], e[:, 1], dtype=np.uint64, casting="unsafe")  # in [0, 2**32): checked above
    keys <<= np.uint64(32)
    np.bitwise_or(keys, np.maximum(e[:, 0], e[:, 1]), out=keys, dtype=np.uint64, casting="unsafe")
    edges_sorted = _sort_and_decode(keys)
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("duplicate edges")
    return _mark_validated(GraphSample(params=params, box=box, seed=seed, long_edges=edges_sorted))


@dataclass(frozen=True)
class C0Estimate:
    value: float
    standard_error: float
    method: str
    budget: int


# Int_0^1 sqrt(1 - u^2) du = pi/4, as the float every Z draw has always used: 2 ulp below math.pi / 4.
_QUARTER_DISK = 0.7853981633974481


def compute_c0(params: ModelParams, method: str = "quadrature", budget: int = 10**6,
               seed: int = 0) -> C0Estimate:
    """The volume constant c0 = vol{(z, z') in R^d x R^d : |z|^{2d} + |z'|^{2d} <= 1}.

    quadrature: reduce both d-dimensional integrals radially
    (vol{|z| <= rho} = v_d rho^d for any norm), leaving
    c0 = v_d^2 * Int_0^1 sqrt(1 - u^2) du = v_d^2 * pi/4, with pi/4 in
    closed form (``_QUARTER_DISK``); the standard error is that constant's
    rounding error, |value - v_d^2 * math.pi / 4|.
    monte_carlo: hit counting over the bounding cube [-1, 1]^{2d}.
    """
    if budget < 10**4:
        raise ValueError("budget must be at least 1e4 evaluations")
    d = params.d
    if method == "quadrature":
        vd = unit_ball_volume(d, params.norm)
        value = vd * vd * _QUARTER_DISK
        return C0Estimate(value=value, standard_error=abs(value - vd * vd * math.pi / 4), method=method, budget=budget)
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
    vd = unit_ball_volume(d, params.norm)
    c0 = vd * vd * _QUARTER_DISK
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
