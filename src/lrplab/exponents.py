"""Exponent sequences theta and vartheta.

theta[n] is the exponent for which beta**theta[n] is the spatial scale
reachable in n hops at large beta; vartheta[n] is the companion sequence
driving the deterministic shrink factor in the matching upper bound.  Both
obey doubling recursions tied to gamma = s/(2d), and theta admits an exact
closed form on dyadic blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, derived_constants


def theta_recursive(params: ModelParams, n_max: int) -> np.ndarray:
    """Literal evaluation of the defining recursion.

    theta[0] = 0 and theta[n+1] = 1/s + (d/s) * max_{0<=k<=n} (theta[k] +
    theta[n-k]), with the max scanned in full at every step (O(n_max^2)
    total work).  Serves as the reference for the fast and closed-form
    routes.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    d, s = params.d, params.s
    theta = np.zeros(n_max + 1)
    for n in range(n_max):
        pairs = theta[: n + 1] + theta[n::-1]
        theta[n + 1] = 1.0 / s + (d / s) * pairs.max()
    return theta


def theta_fast(params: ModelParams, n_max: int) -> np.ndarray:
    """O(1)-per-term evaluation of theta via its halving form.

    theta[2n] = 1/s + (d/s)(theta[n] + theta[n-1]) and
    theta[2n+1] = 1/s + (2d/s) theta[n]; equals theta_recursive exactly
    (the max in the defining recursion is attained at the centered split).
    Indices 2**k to 2**(k+1) - 1 read only smaller blocks, so each block is
    one array expression with the same float64 operations as a term-by-term
    loop.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    d, s = params.d, params.s
    theta = np.zeros(n_max + 1)
    for start in (2**k for k in range(int(n_max).bit_length())):
        end = min(2 * start, n_max + 1)
        odd, even = np.arange(start | 1, end, 2), np.arange(start + start % 2, end, 2)
        theta[odd] = 1.0 / s + (2 * d / s) * theta[odd // 2]
        theta[even] = 1.0 / s + (d / s) * (theta[even // 2] + theta[even // 2 - 1])
    return theta


def _theta_block_end(params: ModelParams, n: int) -> float:
    """theta at index 2**n - 1: (1/s) * (1 - gamma**n)/(1 - gamma) * gamma**(-n+1)."""
    gamma, _ = derived_constants(params)
    if n == 0:
        return 0.0
    return (1.0 / params.s) * (1.0 - gamma**n) / (1.0 - gamma) * gamma ** (-n + 1)


def theta_closed_form(params: ModelParams, n):
    """Closed-form theta[n] for an int n or, elementwise, an int array.

    Exact at dyadic block ends n = 2**m - 1; elsewhere linear interpolation
    between the enclosing block ends (theta is affine on each block
    {2**m - 1, ..., 2**(m+1) - 1} because its forward differences are
    constant there).
    """
    ns = np.asarray(n, dtype=np.int64)
    m = block_index(ns)
    m_lo = int(np.min(m))
    ends = np.array([_theta_block_end(params, k) for k in range(m_lo, int(np.max(m)) + 2)])
    w = (ns - _BLOCK_STARTS[m]) / (_BLOCK_STARTS[m + 1] - _BLOCK_STARTS[m])
    theta = (1.0 - w) * ends[m - m_lo] + w * ends[m - m_lo + 1]
    return float(theta) if theta.ndim == 0 else theta


def vartheta(params: ModelParams, n_max: int) -> np.ndarray:
    """Companion sequence: vartheta[0] = 1 and
    vartheta[n+1] = (2*gamma)**(-1) * (vartheta[n//2] + vartheta[(n+1)//2])."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    gamma, _ = derived_constants(params)
    vt = np.zeros(n_max + 1)
    vt[0] = 1.0
    for start in (2**k for k in range(int(n_max).bit_length())):  # vt[m]'s operands sit below start
        m = np.arange(start, min(2 * start, n_max + 1))
        vt[m] = (vt[(m - 1) // 2] + vt[m // 2]) / (2 * gamma)
    return vt


# Dyadic block starts 2**m - 1; block m holds the n with starts[m] <= n < starts[m + 1].
_BLOCK_STARTS = np.array([2**m - 1 for m in range(64)], dtype=np.int64)


def block_index(n):
    """Index m of the dyadic block {2**m - 1, ..., 2**(m+1) - 2} containing n.

    n may be an int or, elementwise, an int array below 2**62.
    """
    ns = np.asarray(n, dtype=np.int64)
    if np.any(ns < 0):
        raise ValueError("n must be >= 0")
    m = np.searchsorted(_BLOCK_STARTS, ns, side="right") - 1
    return int(m) if m.ndim == 0 else m


@dataclass(frozen=True)
class RatioReport:
    """Suprema of the three structural ratios of the exponent sequences.

    ``theta_halving_sup`` is the supremum over all n of
    theta[ceil(n/2)]/theta[n+1].  Unlike the other two ratios it is not
    attained at any finite n: every scanned ratio sits strictly below the
    limit gamma by an excess (theta[ceil(n/2)] - theta[floor(n/2)] - 1/d) /
    (2 theta[n+1]) that only vanishes as n grows.  The report therefore
    validates that every scanned ratio stays below gamma and returns the
    limit gamma itself; the raw scan maximum is kept in
    ``theta_halving_scan_max`` for inspection.
    """

    n_max: int
    vartheta_halving_sup: float
    vartheta_halving_argmax: int
    theta_halving_sup: float
    theta_halving_scan_max: float
    theta_halving_scan_argmax: int
    vartheta_over_theta_sup: float
    vartheta_over_theta_argmax: int


def ratio_report(params: ModelParams, n_max: int) -> RatioReport:
    """Compute the ratio suprema over 0 <= n < n_max.

    Returns sup vartheta[ceil(n/2)]/vartheta[n+1] (attained at n=1, equal
    to 2*gamma/(1+gamma)), sup theta[ceil(n/2)]/theta[n+1] (equal to gamma,
    see RatioReport), and sup vartheta[n]/theta[n] over n >= 1 (attained at
    n in {1, 2}).
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    gamma, _ = derived_constants(params)
    theta = theta_fast(params, n_max)
    vt = vartheta(params, n_max)

    ns = np.arange(0, n_max)  # ratio index n, with n+1 <= n_max
    half_up = (ns + 1) // 2

    vt_ratios = vt[half_up] / vt[ns + 1]
    vt_arg = int(np.argmax(vt_ratios))
    vt_sup = float(vt_ratios[vt_arg])

    th_ratios = theta[half_up[1:]] / theta[ns[1:] + 1]  # skip n=0 (theta[0] = 0)
    th_arg = int(np.argmax(th_ratios)) + 1
    th_scan_max = float(theta[(th_arg + 1) // 2] / theta[th_arg + 1])
    if th_scan_max > gamma * (1.0 + 1e-12):
        raise ArithmeticError(
            f"theta halving ratio {th_scan_max} exceeds its supremum gamma={gamma}; "
            "the recursion output is corrupt"
        )

    cross = vt[1:] / theta[1:]
    cross_arg = int(np.argmax(cross[: n_max - 1])) + 1  # scan n in 1..n_max-1
    cross_sup = float(vt[cross_arg] / theta[cross_arg])

    return RatioReport(
        n_max=n_max,
        vartheta_halving_sup=vt_sup,
        vartheta_halving_argmax=vt_arg,
        theta_halving_sup=gamma,
        theta_halving_scan_max=th_scan_max,
        theta_halving_scan_argmax=th_arg,
        vartheta_over_theta_sup=cross_sup,
        vartheta_over_theta_argmax=cross_arg,
    )


@dataclass(frozen=True)
class ExponentTable:
    """Tabulated exponent sequences for one parameter set."""

    params: ModelParams
    n: np.ndarray
    theta: np.ndarray
    theta_closed_form: np.ndarray
    vartheta: np.ndarray
    block_index: np.ndarray


def exponent_table(params: ModelParams, n_max: int) -> ExponentTable:
    """Build the full table emitted by the ``exponents`` CLI command.

    All arithmetic is float64; the three theta routes agree to within
    1e-12 relative error (the recursions are sums of positive terms, no
    cancellation).
    """
    ns = np.arange(n_max + 1)
    return ExponentTable(
        params=params,
        n=ns,
        theta=theta_fast(params, n_max),
        theta_closed_form=theta_closed_form(params, ns),
        vartheta=vartheta(params, n_max),
        block_index=block_index(ns),
    )
