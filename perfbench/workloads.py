"""The benchmark's workloads: the three BENCHMARK.json lists, and queries-d2,
which runs by hand (README.md says why it is not listed).

Each workload draws its op inputs from the run seed, runs one op through
the public lrplab API it is given (plain or traced), and checks the op's
outcome afterwards, outside the timed region.  README.md in this directory
gives the reason for each workload and the layers it stresses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import lrplab
import lrplab.cli

import checks

# Own direct calls into lrplab and the span name each gets in a traced pass.
DIRECT_CALLS = {
    "estimate_phi": (lrplab.estimate_phi, "estimator.estimate_phi"),
    "estimate_phi_ladder": (lrplab.estimate_phi_ladder, "estimator.estimate_phi_ladder"),
    "sample_graph": (lrplab.sample_graph, "sampler.sample_graph"),
    "distances_from": (lrplab.distances_from, "metric.distances_from"),
    "distance_pair": (lrplab.distance_pair, "metric.distance_pair"),
    "restricted_distance": (lrplab.restricted_distance, "metric.restricted_distance"),
    "restricted_k_distance": (lrplab.restricted_k_distance, "metric.restricted_k_distance"),
    "intrinsic_ball": (lrplab.intrinsic_ball, "metric.intrinsic_ball"),
    "theorem1_fraction": (lrplab.theorem1_fraction, "estimator.theorem1_fraction"),
    "cli_main": (lrplab.cli.main, "cli.main"),
}


def plain_api() -> SimpleNamespace:
    return SimpleNamespace(**{key: fn for key, (fn, _) in DIRECT_CALLS.items()})


def traced_api(tracer) -> SimpleNamespace:
    return SimpleNamespace(**{key: tracer.wrap(name, fn) for key, (fn, name) in DIRECT_CALLS.items()})


def _seeds(seed: int, tag: int, n: int) -> list:
    rng = np.random.default_rng([seed, tag])
    return [int(s) for s in rng.integers(0, 2**32, size=n)]


def _replica_problems(est, d: int, s: float, expected_points: int) -> list:
    problems = []
    for rec in est.records:
        problems += checks.phi_problems(rec.phi_hat, rec.n_points, d, s, est.r, expected_points)
    return problems


@dataclass(frozen=True)
class PhiOp:
    seed: int
    rederive: bool


class PhiD1:
    """estimate_phi at d=1, s=1.5, beta=5, r=2^18: the grouped sampler's per-class loop."""

    name = "phi-d1"
    stress = "sampler"

    def __init__(self, tiny: bool):
        self.params = lrplab.ModelParams(d=1, s=1.5, beta=5.0)
        self.r = float(2**10 if tiny else 2**18)
        self.radius = math.ceil(self.r)

    def inputs(self, seed: int, n_ops: int) -> list:
        # Re-deriving a graph and its field costs as much as the op itself,
        # so only op 0's replica is re-derived; every op gets the cheap checks.
        return [PhiOp(s, i == 0) for i, s in enumerate(_seeds(seed, 0xD1, n_ops))]

    def op(self, api, inp, outdir):
        return api.estimate_phi(self.params, self.r, 1, inp.seed, executor=None)

    def check(self, inp, est, outdir) -> list:
        pm, radius = self.params, self.radius
        expected = checks.annulus_count(pm.d, radius, self.r, 0.1)
        problems = _replica_problems(est, pm.d, pm.s, expected)
        if not inp.rederive:
            return problems
        rec = est.records[0]
        sample = lrplab.sample_graph(pm, lrplab.Box(pm.d, radius), rec.seed)
        field = lrplab.distances_from(sample, np.zeros(pm.d, dtype=np.int64))
        problems += checks.bfs_field_problems(pm.d, radius, sample.long_edges, field.dist, (0,))
        problems += checks.edge_count_problems(pm, radius, sample.n_long_edges,
                                               lrplab.connection_probabilities)
        nrm = checks.ell2_norm_grid(pm.d, radius)
        median = float(np.median(field.dist[(nrm >= 0.1 * self.r) & (nrm < self.r)]))
        rederived = median / math.log(self.r) ** checks.delta_exponent(pm.d, pm.s)
        if rederived != rec.phi_hat:
            problems.append(f"re-derived phi_hat {rederived!r} differs from {rec.phi_hat!r}")
        return problems

    def fingerprint(self, est, outdir):
        return tuple(rec.phi_hat for rec in est.records)

    def edges(self, seed: int) -> list:
        return [lrplab.sample_graph(self.params, lrplab.Box(1, self.radius), seed).long_edges]


class LadderD1:
    """estimate_phi_ladder over betas {1, 2, 5, 10}, d=1, r=16384: the coupled sampler."""

    name = "ladder-d1"
    stress = "sampler"

    def __init__(self, tiny: bool):
        self.params = [lrplab.ModelParams(d=1, s=1.5, beta=b) for b in (1.0, 2.0, 5.0, 10.0)]
        self.r = float(256 if tiny else 16384)
        self.radius = math.ceil(self.r)

    def inputs(self, seed: int, n_ops: int) -> list:
        return _seeds(seed, 0x1AD, n_ops)

    def op(self, api, seed0, outdir):
        return api.estimate_phi_ladder(self.params, self.r, 1, seed0, executor=None)

    def check(self, seed0, ests, outdir) -> list:
        expected = checks.annulus_count(1, self.radius, self.r, 0.1)
        problems = []
        for est in ests:
            problems += _replica_problems(est, 1, 1.5, expected)
        for replica in range(ests[0].n_replicas):
            problems += checks.ladder_problems([est.records[replica].phi_hat for est in ests])
        return problems

    def fingerprint(self, ests, outdir):
        return tuple(rec.phi_hat for est in ests for rec in est.records)

    def edges(self, seed: int) -> list:
        samples = lrplab.sample_graph_coupled(self.params, lrplab.Box(1, self.radius), seed)
        return [s.long_edges for s in samples]


@dataclass(frozen=True)
class Query:
    source: np.ndarray
    target: np.ndarray
    ball_k: int


@dataclass(frozen=True)
class QueryOp:
    seed: int
    queries: tuple


class QueriesD2:
    """One d=2, s=3, beta=2, L=200 graph per op, then Q source/target queries on it.

    Query j of every op has the same ell1 distance, from L/2 for the first
    to L for the last, and the same intrinsic-ball radius; the seed picks
    the graph, the source (within L/2 of the centre, so that no source
    sits in a corner) and the direction of the target.  So every op does
    about the same work, and the op time does not swing with how far apart
    one seed's pairs happen to be.
    """

    name = "queries-d2"
    stress = "metric"
    gamma_bar = 0.875  # (1 + gamma) / 2 with gamma = s / 2d = 0.75
    epsilon = 0.5

    def __init__(self, tiny: bool):
        self.params = lrplab.ModelParams(d=2, s=3.0, beta=2.0)
        self.radius = 12 if tiny else 200
        self.n_queries = 2 if tiny else 8
        self.ball_r = self.radius // 2

    def inputs(self, seed: int, n_ops: int) -> list:
        rng = np.random.default_rng([seed, 0x0D2])
        L, half = self.radius, self.radius // 2
        ops = []
        for graph_seed in rng.integers(0, 2**32, size=n_ops):
            queries = []
            for j in range(self.n_queries):
                ell1 = half + j * (L - half) // (self.n_queries - 1)
                while True:
                    x = rng.integers(-half, half + 1, size=2)
                    a = int(rng.integers(0, ell1 + 1))
                    y = x + np.array([a, ell1 - a]) * rng.choice([-1, 1], size=2)
                    if np.abs(y).max() <= L:
                        break
                queries.append(Query(x, y, 1 + j % 4))
            ops.append(QueryOp(int(graph_seed), tuple(queries)))
        return ops

    def op(self, api, inp, outdir):
        sample = api.sample_graph(self.params, lrplab.Box(2, self.radius), inp.seed)
        answers = []
        for q in inp.queries:
            field = api.distances_from(sample, q.source)
            pair = api.distance_pair(sample, q.source, q.target)
            forward = api.restricted_distance(sample, q.source, q.target).value
            backward = api.restricted_distance(sample, q.target, q.source).value
            chain = tuple(api.restricted_k_distance(sample, q.source, q.target, k, self.gamma_bar).value
                          for k in range(4))
            ball = api.intrinsic_ball(sample, q.source, q.ball_k)
            fraction = api.theorem1_fraction(field, self.ball_r, max(pair, 1), self.epsilon)
            answers.append((field, pair, forward, backward, chain, ball, fraction))
        return sample, answers

    def check(self, inp, outcome, outdir) -> list:
        sample, answers = outcome
        d, radius = 2, self.radius
        problems = checks.edge_count_problems(self.params, radius, sample.n_long_edges,
                                              lrplab.connection_probabilities)
        side = 2 * radius + 1
        for q, (field, pair, forward, backward, chain, ball, fraction) in zip(inp.queries, answers):
            problems += checks.bfs_field_problems(d, radius, sample.long_edges, field.dist, q.source)
            target_index = int(((q.target + radius) * np.array([side, 1])).sum())
            problems += checks.query_problems(field.dist, target_index, pair, forward, backward,
                                              chain, q.ball_k, ball)
            expected = checks.deviation_fraction(field.dist, d, radius, q.source, self.ball_r,
                                                 max(pair, 1), self.epsilon)
            if abs(fraction - expected) > 1e-12:
                problems.append(f"theorem1_fraction = {fraction!r}, field gives {expected!r}")
        return problems

    def fingerprint(self, outcome, outdir):
        sample, answers = outcome
        return (sample.long_edges.tobytes(),
                tuple((a[0].dist.tobytes(),) + tuple(a[1:]) for a in answers))

    def edges(self, seed: int) -> list:
        return [lrplab.sample_graph(self.params, lrplab.Box(2, self.radius), seed).long_edges]


@dataclass(frozen=True)
class CliOp:
    seed: int
    target: tuple


class CliD2:
    """In-process lrplab.cli.main: sample, distances, exponents and limit-curve."""

    name = "cli-d2"
    stress = "cli"
    # Output files whose bytes are fixed by the inputs (manifest.json holds a timestamp).
    data_files = ("edges.csv", "distances.csv", "summary.json", "chain.csv",
                  "exponents.csv", "ratios.json", "limit_curve.csv")

    def __init__(self, tiny: bool):
        self.params = lrplab.ModelParams(d=2, s=3.0, beta=2.0)
        self.radius = 12 if tiny else 200
        self.n_max = 63 if tiny else 16383
        self.n_points = 101 if tiny else 100001

    def inputs(self, seed: int, n_ops: int) -> list:
        rng = np.random.default_rng([seed, 0xC11])
        ops = []
        for op_seed in rng.integers(0, 2**32, size=n_ops):
            target = (0, 0)
            while not self.radius // 2 <= abs(target[0]) + abs(target[1]) <= self.radius:
                target = tuple(int(c) for c in rng.integers(-self.radius, self.radius + 1, size=2))
            ops.append(CliOp(int(op_seed), target))
        return ops

    def argvs(self, inp, outdir: Path) -> list:
        box = ["--d", "2", "--s", "3", "--beta", "2", "--L", str(self.radius), "--seed", str(inp.seed)]
        commands = [
            ["sample", *box],
            ["distances", *box, f"--target={inp.target[0]},{inp.target[1]}",
             "--epsilon", "0.5", "--k-max", "3"],
            ["exponents", "--n-max", str(self.n_max)],
            ["limit-curve", "--n-points", str(self.n_points)],
        ]
        return [argv + ["--outdir", str(outdir / argv[0])] for argv in commands]

    def op(self, api, inp, outdir):
        return [api.cli_main(argv) for argv in self.argvs(inp, Path(outdir))]

    def check(self, inp, codes, outdir) -> list:
        outdir = Path(outdir)
        problems = [f"lrplab {argv[0]} exited with {code}"
                    for argv, code in zip(self.argvs(inp, outdir), codes) if code != 0]
        if problems:
            return problems
        summary = json.loads((outdir / "distances" / "summary.json").read_text())
        rows = checks.edges_csv_rows(outdir / "sample" / "edges.csv")
        if rows != summary["n_long_edges"]:
            problems.append(f"edges.csv has {rows} rows, summary.json says {summary['n_long_edges']}")
        problems += checks.edge_count_problems(self.params, self.radius, rows,
                                               lrplab.connection_probabilities)
        return problems

    def fingerprint(self, codes, outdir):
        return tuple(codes) + tuple(p.read_bytes() for p in sorted(Path(outdir).rglob("*"))
                                    if p.name in self.data_files)

    def edges(self, seed: int) -> list:
        return [lrplab.sample_graph(self.params, lrplab.Box(2, self.radius), seed).long_edges]


WORKLOADS = {cls.name: cls for cls in (PhiD1, LadderD1, QueriesD2, CliD2)}
