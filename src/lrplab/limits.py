"""Deterministic limit theory: the scaling-limit curve, the beta phase
decomposition, the lambda change of variables, and the distance tail
envelope.

The central object is psi_limit, the large-beta limit of
(log beta)**delta * psi_beta(t) on t in [0, 1], where
psi_beta(t) = phi_beta(exp(gamma**(-t))) and phi_beta is the oscillating
prefactor of the chemical distance D ~ phi_beta(r) (log r)**delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, derived_constants
from .exponents import theta_fast


def _check_unit_interval(t, what: str):
    arr = np.asarray(t, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"{what} is defined for t in [0, 1]; got {t!r}")
    return arr


def psi_limit(params: ModelParams, t):
    """The limit curve on [0, 1].

    psi_limit(t) = [s/(2d-s) * (2 gamma)**(-t) - 2(s-d)/(2d-s) * 2**(-t)]
    * (2d-s)**delta.  Equals (2d-s)**delta at both endpoints and is
    non-constant in between.  Scalar or array t; raises ValueError outside
    [0, 1] (see psi_limit_periodic for the extension).
    """
    arr = _check_unit_interval(t, "psi_limit")
    d, s = params.d, params.s
    gamma, delta = derived_constants(params)
    bracket = (s / (2 * d - s)) * (2 * gamma) ** (-arr) - (2 * (s - d) / (2 * d - s)) * 2.0 ** (-arr)
    out = bracket * (2 * d - s) ** delta
    if out.ndim == 0:
        return float(out)
    return out


def psi_limit_periodic(params: ModelParams, t):
    """psi_limit extended to all real t by exact 1-periodicity."""
    arr = np.asarray(t, dtype=np.float64)
    return psi_limit(params, arr - np.floor(arr))


def lower_curve(params: ModelParams, t):
    """Distance-scale presentation of the limit curve.

    L(t) = psi_limit_periodic(t) * (gamma**(-t))**delta, which simplifies
    to psi * 2**t via gamma**(-delta) = 2.  With r = exp(gamma**(-t)) the
    factor (gamma**(-t))**delta is exactly (log r)**delta, so L(t) is the
    scaled distance itself rather than its (log r)**delta-normalized
    prefactor; it oscillates around an exponential trend and decays to 0
    as t -> -infinity.
    """
    arr = np.asarray(t, dtype=np.float64)
    return psi_limit_periodic(params, arr) * 2.0**arr


@dataclass(frozen=True)
class BetaPhase:
    """Dyadic phase of log beta: log beta = u * gamma**(-m) with u in [1, 1/gamma)."""

    beta: float
    m: int
    u: float


def beta_phase(params: ModelParams, beta: float) -> BetaPhase:
    """Decompose log beta = u(beta) * gamma**(-m(beta)).

    m is the largest integer k with gamma**(-k) <= log beta, and
    u = gamma**m * log beta lies in [1, 1/gamma).  Requires beta > 1
    (negative m is produced for 1 < beta <= e).
    """
    beta = float(beta)
    if not beta > 1.0:
        raise ValueError(f"beta_phase requires beta > 1 (log beta > 0); got {beta}")
    gamma, _ = derived_constants(params)
    lb = math.log(beta)
    m = math.floor(math.log(lb) / math.log(1.0 / gamma))
    u = gamma**m * lb
    # float guard: nudge m until u lands in [1, 1/gamma)
    while u < 1.0:
        m -= 1
        u = gamma**m * lb
    while u >= 1.0 / gamma:
        m += 1
        u = gamma**m * lb
    return BetaPhase(beta=beta, m=m, u=u)


def lambda_of_t(params: ModelParams, t):
    """Interpolation weight lambda(t) = 2d/(2d-s) - (s/(2d-s)) gamma**(-t).

    Decreases from lambda(0) = 1 to lambda(1) = 0 and satisfies
    lambda + (1 - lambda)/gamma = gamma**(-t).
    """
    arr = _check_unit_interval(t, "lambda_of_t")
    d, s = params.d, params.s
    gamma, _ = derived_constants(params)
    out = 2 * d / (2 * d - s) - (s / (2 * d - s)) * gamma ** (-arr)
    if out.ndim == 0:
        return float(out)
    return out


def phi_to_psi(params: ModelParams, phi_sampler, t: float):
    """Evaluate a phi-style function on the psi clock: phi(exp(gamma**(-t))).

    If phi_sampler is log-log-periodic (phi(r**gamma) = phi(r)), the result
    is 1-periodic in t.  Any real t is allowed; errors from the sampler
    propagate.
    """
    gamma, _ = derived_constants(params)
    r = math.exp(gamma ** (-float(t)))
    return phi_sampler(r)


@dataclass(frozen=True)
class TailEnvelope:
    """Value of the distance tail bound, plus whether its proof precondition held."""

    value: float
    precondition_ok: bool
    theta_n: float


def tail_envelope(params: ModelParams, n: int, x_norm: float, c: float, c_tilde: float, p: float) -> TailEnvelope:
    """Upper envelope for P(D(0, x) <= n):

    c * (beta**theta[n] * exp(c_tilde * n**(1/delta)) / x_norm)**s * n**(-p).

    The constants c, c_tilde, p are caller-supplied (the theory asserts
    existence only).  The bound's derivation needs (2d/s) p >= p + s + 1;
    a violating p yields precondition_ok=False (a warning flag, not an
    error).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not x_norm > 0:
        raise ValueError("x_norm must be > 0")
    if not c > 0 or c_tilde < 0 or p < 0:
        raise ValueError("constants must satisfy c > 0, c_tilde >= 0, p >= 0")
    d, s = params.d, params.s
    _, delta = derived_constants(params)
    ok = (2 * d / s) * p >= p + s + 1 - 1e-12
    theta_n = float(theta_fast(params, n)[n])
    value = c * (params.beta**theta_n * math.exp(c_tilde * n ** (1.0 / delta)) / x_norm) ** s * n ** (-p)
    return TailEnvelope(value=value, precondition_ok=bool(ok), theta_n=theta_n)


def collapse_shift(params: ModelParams, beta: float) -> float:
    """Horizontal shift log(u(beta)/(2d-s)) / log(1/gamma) of the collapse plot.

    Exposed separately so collapse overlays can apply it explicitly; the
    radius map below uses it implicitly through u(beta).
    """
    gamma, _ = derived_constants(params)
    phase = beta_phase(params, beta)
    return math.log(phase.u / (2 * params.d - params.s)) / math.log(1.0 / gamma)


def collapse_radius(params: ModelParams, beta: float, t: float, m_offset: int) -> float:
    """Radius at which psi_hat(t) is measured in a collapse experiment.

    r = exp(gamma**(-t) * u(beta)/(2d-s) * gamma**(-m_offset)).  The dyadic
    offset m_offset shifts the probe by an exact period of the log-log
    clock, bringing r into a feasible simulation range.  A radius past
    the float range is math.inf.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"collapse t-grid lives in [0, 1]; got {t}")
    gamma, _ = derived_constants(params)
    phase = beta_phase(params, beta)
    try:
        return math.exp(gamma ** (-t) * (phase.u / (2 * params.d - params.s)) * gamma ** (-m_offset))
    except OverflowError:  # u > 0, so the exponent overflows upwards
        return math.inf
