"""Spans around the calls the benchmark makes into lrplab's layers.

The traced pass replaces the public names each caller looks up (the
estimator's and the CLI's imports, the sampler's import of
``connection_probabilities``, and the benchmark's own direct calls) with
wrappers that record a span: name, start, end, parent span and op id.
Spans stay in memory and are written out when the benchmark ends.  A
span's self time is its duration minus the durations of its children, so
the self times of one op add up to the op's traced wall.

Counters are read from the values the wrapped calls return, after the op
has ended, so they cost no traced time.  The one counter no return value
holds, the random words the coupled sampler draws, is read from the state
of each Philox stream opened inside that sampler: during the traced pass
``numpy.random.Philox`` is a subclass that keeps those streams.
"""

from __future__ import annotations

import importlib
import json
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name) of every public name a caller inside lrplab looks up.
PATCH_POINTS = (
    ("lrplab.estimator", "sample_graph", "sampler.sample_graph"),
    ("lrplab.estimator", "sample_graph_coupled", "sampler.sample_graph_coupled"),
    ("lrplab.estimator", "distances_from", "metric.distances_from"),
    ("lrplab.cli", "sample_graph", "sampler.sample_graph"),
    ("lrplab.cli", "sample_graph_coupled", "sampler.sample_graph_coupled"),
    ("lrplab.cli", "distances_from", "metric.distances_from"),
    ("lrplab.cli", "distance_pair", "metric.distance_pair"),
    ("lrplab.cli", "restricted_distance", "metric.restricted_distance"),
    ("lrplab.cli", "restricted_k_distance", "metric.restricted_k_distance"),
    ("lrplab.cli", "theorem1_fraction", "estimator.theorem1_fraction"),
    ("lrplab.cli", "theta_recursive", "exponents.theta_recursive"),
    ("lrplab.cli", "psi_limit", "limits.psi_limit"),
    ("lrplab.sampler", "connection_probabilities", "model.connection_probabilities"),
)

# Span name -> per-layer metric that collects its self time.
SELF_METRIC = {
    "bench.op": "bench.self_s",
    "estimator.estimate_phi": "estimator.self_s",
    "estimator.estimate_phi_ladder": "estimator.self_s",
    "estimator.theorem1_fraction": "estimator.theorem1_fraction_s",
    "sampler.sample_graph": "sampler.sample_graph_s",
    "sampler.sample_graph_coupled": "sampler.sample_graph_coupled_s",
    "model.connection_probabilities": "model.connection_probabilities_s",
    "metric.first_distances_from": "metric.first_distances_from_s",
    "metric.distances_from": "metric.distances_from_s",
    "metric.distance_pair": "metric.distance_pair_s",
    "metric.restricted_distance": "metric.restricted_s",
    "metric.restricted_k_distance": "metric.restricted_s",
    "metric.intrinsic_ball": "metric.intrinsic_ball_s",
    "exponents.theta_recursive": "exponents.theta_recursive_s",
    "limits.psi_limit": "limits.psi_limit_s",
    "cli.main": "cli.self_s",
}

COUNT_METRICS = (
    "sampler.pairs_drawn", "sampler.classes", "sampler.nonzero_classes", "sampler.long_edges",
    "metric.bfs_levels", "metric.peak_frontier", "metric.visited", "cli.bytes_written",
)

LAYER_UNITS = {
    "sampler.sample_graph_s": "s",
    "sampler.edges_per_s": "edges/s",
    "sampler.sample_graph_coupled_s": "s",
    "sampler.pairs_drawn": "count",
    "sampler.coupled_yield": "ratio",
    "sampler.classes": "count",
    "sampler.nonzero_classes": "count",
    "sampler.long_edges": "count",
    "model.connection_probabilities_s": "s",
    "metric.first_distances_from_s": "s",
    "metric.distances_from_s": "s",
    "metric.distance_pair_s": "s",
    "metric.restricted_s": "s",
    "metric.intrinsic_ball_s": "s",
    "metric.vertices_per_s": "vertices/s",
    "metric.bfs_levels": "count",
    "metric.peak_frontier": "count",
    "metric.visited": "count",
    "estimator.self_s": "s",
    "estimator.theorem1_fraction_s": "s",
    "exponents.theta_recursive_s": "s",
    "limits.psi_limit_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.write_mib_per_s": "MiB/s",
    "bench.self_s": "s",
    "trace.overhead_s": "s",
}


def _words_drawn(bit_generator) -> int:
    """64-bit words a Philox stream has produced: four per counter step, less those still buffered."""
    state = bit_generator.state
    return 4 * int(state["state"]["counter"][0]) - (4 - state["buffer_pos"])


def _nonzero_classes(box, long_edges: np.ndarray) -> int:
    """Distinct displacement classes among the long edges (tail < head, so each class once)."""
    if long_edges.size == 0:
        return 0
    side, span = box.side, 4 * box.radius + 1
    code = np.zeros(len(long_edges), dtype=np.int64)
    for stride in box.strides.tolist():
        v = (long_edges[:, 1] // stride) % side - (long_edges[:, 0] // stride) % side
        code = code * span + (v + 2 * box.radius)
    return int(np.unique(code).size)


class Tracer:
    """Records spans and counters of a traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._patched = []
        self._seen = weakref.WeakSet()
        self._returned = []
        self._coupled_streams = []
        self.counts = defaultdict(int)

    def _begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "op": self._op})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """One benchmark op: a root span; its counters are taken once it has ended."""
        self._op = op_id
        index = self._begin("bench.op")
        try:
            yield
        finally:
            self._end(index)
            self._op = None
            returned, self._returned = self._returned, []
            for name, value in returned:
                self._count(name, value)
            streams, self._coupled_streams = self._coupled_streams, []
            self.counts["sampler.pairs_drawn"] += sum(_words_drawn(bg) for bg in streams)

    def wrap(self, name: str, fn):
        """fn with a span around every call; metric calls on a sample seen for the
        first time in the pass are the ones that build its adjacency."""

        def traced(*args, **kwargs):
            span_name = name
            if name.startswith("metric."):
                sample = args[0]
                if name == "metric.distances_from" and sample not in self._seen:
                    span_name = "metric.first_distances_from"
                self._seen.add(sample)
            index = self._begin(span_name)
            try:
                value = fn(*args, **kwargs)
            finally:
                self._end(index)
            self._returned.append((name, value))
            return value

        return traced

    def install(self) -> None:
        """Route lrplab's internal calls through spans and keep the coupled
        sampler's random streams (undone by ``uninstall``)."""
        for module_name, attr, name in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        tracer, philox = self, np.random.Philox

        class KeptPhilox(philox):
            """A Philox stream, kept for counting when the coupled sampler opens it."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                stack = tracer._stack
                if stack and tracer.spans[stack[-1]]["name"] == "sampler.sample_graph_coupled":
                    tracer._coupled_streams.append(self)

        self._patched.append((np.random, "Philox", philox))
        np.random.Philox = KeptPhilox

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _count(self, name: str, value) -> None:
        c = self.counts
        if name == "model.connection_probabilities":
            c["sampler.classes"] += len(value)  # one probability per class the sampler evaluates
        elif name == "sampler.sample_graph":
            c["sampled_edges"] += value.n_long_edges
            self._count_samples([value])
        elif name == "sampler.sample_graph_coupled":
            c["coupled_top_edges"] += value[-1].n_long_edges
            self._count_samples(value)
        elif name == "metric.distances_from":
            reached = value.dist[value.dist >= 0]
            c["metric.bfs_levels"] += int(reached.max())
            c["metric.visited"] += int(reached.size)
            c["metric.peak_frontier"] = max(c["metric.peak_frontier"],
                                            int(np.bincount(reached).max()))

    def _count_samples(self, samples) -> None:
        """Counts of one sampler call's graphs: classes with an edge at the top rung, all edges."""
        c = self.counts
        c["sampler.nonzero_classes"] += _nonzero_classes(samples[0].box, samples[-1].long_edges)
        c["sampler.long_edges"] += sum(s.n_long_edges for s in samples)

    def self_times(self) -> dict:
        """Self time of every span, keyed by span index."""
        own = {i: s["end"] - s["start"] for i, s in enumerate(self.spans)}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def durations(self, *names) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] in names)

    def layer_metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics of the traced pass: self times, rates and counts."""
        out = {metric: 0.0 for metric in SELF_METRIC.values()}
        for index, own in self.self_times().items():
            out[SELF_METRIC[self.spans[index]["name"]]] += own
        c = self.counts
        for name in COUNT_METRICS:
            out[name] = c[name]
        sample_s = self.durations("sampler.sample_graph")
        out["sampler.edges_per_s"] = c["sampled_edges"] / sample_s if sample_s else 0.0
        out["sampler.coupled_yield"] = (c["coupled_top_edges"] / c["sampler.pairs_drawn"]
                                        if c["sampler.pairs_drawn"] else 0.0)
        bfs_s = self.durations("metric.first_distances_from", "metric.distances_from")
        out["metric.vertices_per_s"] = c["metric.visited"] / bfs_s if bfs_s else 0.0
        cli_s = out["cli.self_s"]
        out["cli.write_mib_per_s"] = c["cli.bytes_written"] / 2**20 / cli_s if cli_s else 0.0
        out["trace.overhead_s"] = traced_wall - untraced_wall
        return out

    def write(self, path) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
