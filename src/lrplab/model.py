"""Model parameters, norms, kernels, and connection probabilities.

The graph lives on the integer lattice Z^d.  Nearest-neighbor edges (ell1
distance 1) are always present; any other pair x, y is joined independently
with probability 1 - exp(-beta * q(x - y)), where q is a symmetric kernel
with a power-law tail q(x) = norm(x)**(-s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

import numpy as np

NORMS = ("ell1", "ell2", "ellinf")

KERNEL_KINDS = ("canonical_power_law", "user_table")


# Norm kind -> (per-axis term, combining ufunc); ell2 takes a square root at the end.
_SEPARABLE_NORMS = {"ell1": (np.abs, np.add), "ell2": (np.square, np.add),
                   "ellinf": (np.abs, np.maximum)}


def norm_value(x, kind: str = "ell2"):
    """Evaluate the chosen vector norm on the last axis of ``x``.

    The per-axis terms are combined column by column, left to right, in
    float64.  For d < 8 that is the order of numpy's own ``sum(axis=-1)``,
    so the result is bit-equal to ``np.abs(x).sum(-1)``,
    ``np.sqrt((x * x).sum(-1))`` and ``np.abs(x).max(-1)``; from 8 terms
    numpy sums pairwise and may differ in the last bit.

    Parameters
    ----------
    x : array_like, shape (..., d)
        Integer or real vectors.
    kind : {"ell1", "ell2", "ellinf"}

    Returns
    -------
    float or ndarray with the leading shape of ``x``.
    """
    if kind not in _SEPARABLE_NORMS:
        raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORMS}")
    term, combine = _SEPARABLE_NORMS[kind]
    arr = np.asarray(x)
    if not np.can_cast(arr.dtype, np.float64):
        arr = arr.astype(np.float64)
    # each column is cast to float64 as the term reads it
    out = term(arr[..., 0], out=np.empty(arr.shape[:-1]), dtype=np.float64)
    part = np.empty_like(out)
    for i in range(1, arr.shape[-1]):
        combine(out, term(arr[..., i], out=part, dtype=np.float64), out=out)
    if kind == "ell2":
        np.sqrt(out, out=out)
    if out.ndim == 0:
        return float(out)
    return out


def unit_ball_volume(d: int, kind: str = "ell2") -> float:
    """Lebesgue volume of the unit ball of the given norm in R^d."""
    if kind == "ell1":
        return 2.0**d / math.factorial(d)
    if kind == "ell2":
        return math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    if kind == "ellinf":
        return 2.0**d
    raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORMS}")


def is_nearest_neighbor(displacement) -> bool:
    """Whether the displacement has ell1 length exactly 1.

    Nearest-neighbor status is always judged in the ell1 metric, independent
    of the norm used by the kernel: those lattice edges are unconditionally
    present.
    """
    arr = np.asarray(displacement, dtype=np.int64)
    return int(np.abs(arr).sum()) == 1


@dataclass(frozen=True)
class Kernel:
    """Connection kernel q.

    ``canonical_power_law``: q(x) = norm(x)**(-s) away from the origin and
    its nearest neighbors, q = +inf on nearest neighbors, q(0) = 0.

    ``user_table``: explicit values for selected small displacements
    (symmetrized over x and -x), with either the canonical power-law tail or
    a zero tail for every unlisted displacement.
    """

    kind: str = "canonical_power_law"
    table: tuple = ()
    tail: str = "power_law"

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(
                f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}"
            )
        if self.tail not in ("power_law", "zero"):
            raise ValueError(f"unknown kernel tail {self.tail!r}")
        if self.kind == "canonical_power_law":
            if self.table or self.tail != "power_law":
                raise ValueError(
                    "canonical_power_law kernel takes no table and no tail override"
                )
        for entry in self.table:
            disp, value = entry
            arr = np.asarray(disp, dtype=np.int64)
            if arr.ndim != 1:
                raise ValueError(f"table displacement {disp!r} is not a vector")
            if not np.any(arr):
                raise ValueError("kernel table must not assign a value to 0")
            if is_nearest_neighbor(arr):
                raise ValueError(
                    f"table entry {disp!r} is a nearest neighbor; those edges "
                    "are always present and their kernel value is fixed at +inf"
                )
            if not (value >= 0):
                raise ValueError(f"kernel value for {disp!r} must be >= 0")


CANONICAL_KERNEL = Kernel()


def table_kernel(table: Mapping[tuple, float] | Iterable, tail: str = "power_law") -> Kernel:
    """Build a user_table kernel from {displacement: value} pairs."""
    items = table.items() if isinstance(table, Mapping) else table
    frozen = tuple(sorted((tuple(int(c) for c in disp), float(value)) for disp, value in items))
    return Kernel(kind="user_table", table=frozen, tail=tail)


@dataclass(frozen=True)
class ModelParams:
    """Immutable model parameter bundle.

    Parameters
    ----------
    d : int
        Lattice dimension, >= 1.
    s : float
        Kernel tail exponent; must satisfy d < s < 2d.
    beta : float
        Edge-density multiplier, > 0.
    norm : {"ell1", "ell2", "ellinf"}
        Norm used by the kernel (default ell2).
    kernel : Kernel
    """

    d: int
    s: float
    beta: float
    norm: str = "ell2"
    kernel: Kernel = field(default=CANONICAL_KERNEL)

    def __post_init__(self):
        if not isinstance(self.d, (int, np.integer)) or isinstance(self.d, bool):
            raise ValueError(f"d must be an integer, got {self.d!r}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        object.__setattr__(self, "d", int(self.d))
        s = float(self.s)
        if not (self.d < s < 2 * self.d):
            raise ValueError(f"s must lie in the open interval ({self.d}, {2 * self.d}), got {s}")
        object.__setattr__(self, "s", s)
        beta = float(self.beta)
        if not (beta > 0 and math.isfinite(beta)):
            raise ValueError(f"beta must be positive and finite, got {beta}")
        object.__setattr__(self, "beta", beta)
        if self.norm not in NORMS:
            raise ValueError(f"unknown norm {self.norm!r}; expected one of {NORMS}")
        if not isinstance(self.kernel, Kernel):
            raise ValueError("kernel must be a Kernel instance")


class DerivedConstants(NamedTuple):
    gamma: float
    delta: float


def derived_constants(params: ModelParams) -> DerivedConstants:
    """Return (gamma, delta) with gamma = s/(2d) and delta = 1/log2(2d/s).

    gamma lies in (1/2, 1) and delta > 1; they satisfy gamma**(-delta) = 2,
    the identity that drives every dyadic-doubling argument downstream.
    """
    gamma = params.s / (2 * params.d)
    delta = 1.0 / math.log2(2 * params.d / params.s)
    return DerivedConstants(gamma=gamma, delta=delta)


def kernel_values(params: ModelParams, displacements) -> np.ndarray:
    """Vectorized kernel evaluation q(v) over rows of ``displacements``.

    Accepts an (n, d) integer array (or a single d-vector) and returns the
    matching float array, with +inf on nearest neighbors and 0 nowhere
    (zero displacements are rejected).
    """
    disp = np.asarray(displacements, dtype=np.int64)
    single = disp.ndim == 1
    disp = np.atleast_2d(disp)
    if disp.shape[-1] != params.d:
        raise ValueError(f"displacements have {disp.shape[-1]} components, expected d={params.d}")
    ell1 = np.abs(disp[:, 0])
    for i in range(1, params.d):
        ell1 += np.abs(disp[:, i])
    if not ell1.all():
        raise ValueError("zero displacement has no kernel value (self-loops undefined)")

    if params.kernel.tail == "zero":
        q = np.zeros(len(disp))
    else:
        q = norm_value(disp, params.norm)
        np.power(q, -params.s, out=q)
    q[ell1 == 1] = np.inf
    for entry_disp, value in params.kernel.table:
        ev = np.asarray(entry_disp, dtype=np.int64)
        pos, neg = disp[:, 0] == ev[0], disp[:, 0] == -ev[0]
        for i in range(1, params.d):
            pos &= disp[:, i] == ev[i]
            neg &= disp[:, i] == -ev[i]
        q[pos | neg] = value
    if single:
        return q[0]
    return q


def connection_probabilities(params: ModelParams, displacements) -> np.ndarray:
    """Vectorized edge probability 1 - exp(-beta * q(v)) over displacement rows."""
    q = kernel_values(params, displacements)
    return -np.expm1(-params.beta * q)


def connection_probability(params: ModelParams, displacement) -> float:
    """Probability that the edge at the given displacement is present.

    Exactly 1.0 for nearest neighbors (q = +inf, and exp(-inf) := 0).
    Raises ValueError on the zero displacement.
    """
    return float(connection_probabilities(params, displacement))


def params_to_config(params: ModelParams) -> dict:
    """Serialize parameters to a flat key-value mapping of strings.

    Only canonical power-law kernels serialize: a user table is not
    expressible in the flat schema and raises ValueError.
    """
    if params.kernel.kind != "canonical_power_law":
        raise ValueError(
            "only canonical_power_law kernels serialize to flat config; "
            "user_table kernels must be constructed programmatically"
        )
    return {
        "d": repr(params.d),
        "s": repr(params.s),
        "beta": repr(params.beta),
        "norm": params.norm,
        "kernel": params.kernel.kind,
    }


def params_from_config(config: Mapping[str, str]) -> ModelParams:
    """Inverse of :func:`params_to_config`; round-trips exactly."""
    kernel_kind = config.get("kernel", "canonical_power_law")
    if kernel_kind != "canonical_power_law":
        raise ValueError(f"flat config supports only canonical_power_law kernels, got {kernel_kind!r}")
    return ModelParams(
        d=int(config["d"]),
        s=float(config["s"]),
        beta=float(config["beta"]),
        norm=config.get("norm", "ell2"),
        kernel=CANONICAL_KERNEL,
    )
