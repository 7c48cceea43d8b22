"""Independent reference implementations used as test oracles.

Everything here is deliberately naive and self-contained: exact rational
arithmetic for the recursions, dictionary BFS over explicit vertex sets,
per-pair Bernoulli graph sampling, and high-precision or closed-form
probability laws.  Nothing imports from lrplab, so agreement between the
two codebases is evidence, not tautology.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import combinations, product

import mpmath
import numpy as np


# ---------------------------------------------------------------------------
# Exact rational exponent sequences


def theta_exact(d: int, s: Fraction, n_max: int) -> list:
    """Literal defining recursion in exact rationals."""
    s = Fraction(s)
    theta = [Fraction(0)]
    for n in range(n_max):
        best = max(theta[k] + theta[n - k] for k in range(n + 1))
        theta.append(1 / s + Fraction(d) / s * best)
    return theta


def vartheta_exact(d: int, s: Fraction, n_max: int) -> list:
    s = Fraction(s)
    gamma = s / (2 * d)
    vt = [Fraction(1)]
    for n in range(n_max):
        vt.append((vt[n // 2] + vt[(n + 1) // 2]) / (2 * gamma))
    return vt


def theta_block_end_exact(d: int, s: Fraction, m: int) -> Fraction:
    """theta at index 2**m - 1 from the closed form, in exact rationals."""
    s = Fraction(s)
    gamma = s / (2 * d)
    if m == 0:
        return Fraction(0)
    return (1 / s) * (1 - gamma**m) / (1 - gamma) * gamma ** (-(m - 1))


# ---------------------------------------------------------------------------
# High-precision limit curve


def psi_exact(d: int, s, t, dps: int = 50) -> float:
    """Limit curve evaluated in mpmath at dps digits, rounded to float."""
    with mpmath.workdps(dps):
        d_ = mpmath.mpf(d)
        s_ = mpmath.mpf(s)
        t_ = mpmath.mpf(t)
        gamma = s_ / (2 * d_)
        delta = mpmath.log(2) / mpmath.log(2 * d_ / s_)
        bracket = (s_ / (2 * d_ - s_)) * (2 * gamma) ** (-t_) \
            - (2 * (s_ - d_) / (2 * d_ - s_)) * mpmath.mpf(2) ** (-t_)
        return float(bracket * (2 * d_ - s_) ** delta)


# ---------------------------------------------------------------------------
# Norms (tiny local copies so the oracles do not depend on lrplab)


def ell1(v) -> float:
    return float(sum(abs(c) for c in v))


def ell2(v) -> float:
    return math.sqrt(sum(c * c for c in v))


def ellinf(v) -> float:
    return float(max(abs(c) for c in v))


NORM_FN = {"ell1": ell1, "ell2": ell2, "ellinf": ellinf}


# ---------------------------------------------------------------------------
# Reference BFS over explicit vertex dictionaries


def _box_vertices(d: int, radius: int) -> list:
    return list(product(range(-radius, radius + 1), repeat=d))


def _adjacency(d: int, radius: int, edge_pairs) -> dict:
    adj = {v: [] for v in _box_vertices(d, radius)}
    for v in adj:
        for axis in range(d):
            for step in (-1, 1):
                w = list(v)
                w[axis] += step
                w = tuple(w)
                if w in adj:
                    adj[v].append(w)
    for a, b in edge_pairs:
        a, b = tuple(int(c) for c in a), tuple(int(c) for c in b)
        adj[a].append(b)
        adj[b].append(a)
    return adj


def reference_distances(d: int, radius: int, edge_pairs, source) -> dict:
    """BFS distances from source over the box, as {coordinate tuple: hops}."""
    adj = _adjacency(d, radius, edge_pairs)
    source = tuple(int(c) for c in source)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def reference_restricted_distances(d: int, radius: int, edge_pairs, x,
                                   constraint_radius: float, norm: str, strict: bool) -> dict:
    """BFS distances from x along constrained paths, as {coordinate tuple: hops}.

    Vertices z on the path must satisfy norm(z - x) < constraint_radius
    (strict) or <= (weak); x itself always qualifies, matching a path that
    starts at x.
    """
    adj = _adjacency(d, radius, edge_pairs)
    x = tuple(int(c) for c in x)
    fn = NORM_FN[norm]

    def allowed(v):
        if v == x:
            return True
        nv = fn(tuple(a - b for a, b in zip(v, x)))
        return nv < constraint_radius if strict else nv <= constraint_radius

    dist = {x: 0}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist and allowed(w):
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def reference_restricted(d: int, radius: int, edge_pairs, x, y,
                         constraint_radius: float, norm: str, strict: bool):
    """Shortest constrained path length from x to y, or math.inf if none exists."""
    dist = reference_restricted_distances(d, radius, edge_pairs, x, constraint_radius, norm, strict)
    return dist.get(tuple(int(c) for c in y), math.inf)


# ---------------------------------------------------------------------------
# Naive per-pair Bernoulli graph sampling (canonical kernel)


def naive_pair_probabilities(d: int, radius: int, s: float, beta: float,
                             norm: str = "ell2") -> np.ndarray:
    """Connection probability for every unordered non-nearest-neighbor pair."""
    fn = NORM_FN[norm]
    probs = []
    for a, b in combinations(_box_vertices(d, radius), 2):
        diff = tuple(ai - bi for ai, bi in zip(a, b))
        if sum(abs(c) for c in diff) == 1:
            continue
        q = fn(diff) ** (-s)
        probs.append(-math.expm1(-beta * q))
    return np.array(probs)


def naive_edge_counts(probs: np.ndarray, n_seeds: int, seed0: int) -> np.ndarray:
    """Total long-edge count per seed under independent per-pair Bernoulli draws."""
    counts = np.empty(n_seeds, dtype=np.int64)
    for i in range(n_seeds):
        rng = np.random.default_rng(seed0 + i)
        counts[i] = int((rng.random(probs.size) < probs).sum())
    return counts


def naive_class_laws(d: int, radius: int, s: float, beta: float,
                     norm: str = "ell2") -> dict:
    """{v: (pair count, connection probability)} per non-nearest-neighbor displacement.

    v = b - a over the pairs a < b in lexicographic order, so its first
    nonzero component is positive.
    """
    fn = NORM_FN[norm]
    laws = {}
    for a, b in combinations(_box_vertices(d, radius), 2):
        v = tuple(bi - ai for ai, bi in zip(a, b))
        if sum(abs(c) for c in v) == 1:
            continue
        n_pairs, p = laws.get(v, (0, -math.expm1(-beta * fn(v) ** (-s))))
        laws[v] = (n_pairs + 1, p)
    return laws


def expected_edge_total(d: int, radius: int, s: float, beta: float,
                        norm: str = "ell2") -> float:
    """Exact mean long-edge count: sum of per-pair probabilities."""
    return float(naive_pair_probabilities(d, radius, s, beta, norm).sum())


# ---------------------------------------------------------------------------
# The two-hop law


def two_hop_probability(d: int, s: float, beta: float, norm: str, L: int, x) -> float:
    """P(D(0, x) <= 2) on the box of radius L, x != 0, in closed form.

    D(0, x) <= 2 iff {0, x} is an edge or some z in the box other than 0
    and x has both {0, z} and {z, x}.  Those pairs differ for different z
    and from {0, x}, and edges are independent, so the probability is
    1 - (1 - p(x)) prod_z (1 - p(z) p(x - z)), with p(v) = 1 at ell1
    distance 1 and 1 - exp(-beta * norm(v)**(-s)) otherwise.
    """
    axis = np.arange(-L, L + 1, dtype=np.float64)
    z = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    x = np.asarray(x, dtype=np.float64)
    z = z[np.any(z != 0, axis=1) & np.any(z != x, axis=1)]

    def p(v):
        size = {"ell1": np.abs(v).sum(axis=-1), "ell2": np.sqrt((v * v).sum(axis=-1)),
                "ellinf": np.abs(v).max(axis=-1)}[norm]
        return np.where(np.abs(v).sum(axis=-1) == 1, 1.0, -np.expm1(-beta * size ** (-s)))

    return float(1.0 - (1.0 - p(x)) * np.prod(1.0 - p(z) * p(x - z)))


# ---------------------------------------------------------------------------
# Z law oracles


def z_radial_cdf_exact(d: int, eta: float, c0: float, r: float) -> float:
    """P(norm(Z) <= r) in closed form.

    Substituting w = u**(2d) in the radial integral of the density
    sqrt(eta) * exp(-eta c0 |z|**(2d)) gives a Gamma(1/2) law for
    norm(Z)**(2d), hence the erf expression; the unit-ball volume cancels
    against c0 = pi * v_d**2 / 4.
    """
    return math.erf(math.sqrt(eta * c0) * r**d)


def z_cdf_quadrature_1d(eta: float, r: float) -> float:
    """P(|Z| <= r) for d=1 by direct numerical quadrature of the density."""
    with mpmath.workdps(30):
        e = mpmath.mpf(eta)
        val = mpmath.quad(lambda z: mpmath.sqrt(e) * mpmath.exp(-e * mpmath.pi * z * z),
                          [-r, r])
        return float(val)


def c0_hit_count(d: int, budget: int, seed: int, scale: float = 1.0) -> tuple:
    """Monte Carlo volume of {|z|**(2d) + |z~|**(2d) <= scale} (ell2 norm).

    Samples uniformly from the bounding box [-scale**(1/(2d)), ..]**(2d
    coordinates); returns (estimate, standard_error).
    """
    rng = np.random.default_rng(seed)
    half = scale ** (1.0 / (2 * d))
    pts = rng.uniform(-half, half, size=(budget, 2 * d))
    z = pts[:, :d]
    zt = pts[:, d:]
    inside = (np.linalg.norm(z, axis=1) ** (2 * d) + np.linalg.norm(zt, axis=1) ** (2 * d)) <= scale
    vol_box = (2 * half) ** (2 * d)
    p = inside.mean()
    return vol_box * p, vol_box * math.sqrt(p * (1 - p) / budget)
