"""Log partition function, its expansion in the small parameter, Gibbs
moments, the main asymptotic counting formulas, and the exponential rate
functions.

Everything is evaluated in log space: the counts grow like exp(c*sqrt(n2))
and overflow any fixed-precision float almost immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import ShapeParams, calibrate, theta_roots
from .exact_count import PartSet, Target
from .special_functions import (
    _dirichlet_series, _geometric, _series, delta, dirichlet, psi, zeta_neg,
)

MAX_EXPANSION_ORDER = 8


def _family_rates(a, b, nonzero: bool, r) -> np.ndarray:
    """The r-th terms of log Z = sum_r sum_{x in X} e^{-r(a x1 + b x2)}/r, one
    row per part family, in this order (`gibbs._chunks` relies on it): the
    interior x1, x2 >= 1 at G0(a r) G0(b r)/r, then, for the nonzero set only,
    the axis x2 = 0 at G0(a r)/r and the axis x1 = 0 at G0(b r)/r.  G0(x) is
    taken as e^{-x}/(1 - e^{-x}), so a and b may be complex: past Re x ~ 709
    it gives 0 where 1/expm1(x) would give nan."""
    ga, gb = (np.exp(x) / -np.expm1(x) for x in (-a * r, -b * r))
    return np.stack([ga * gb, ga, gb] if nonzero else [ga * gb]) / r


def _log_z_sums(params: ShapeParams, part_set: PartSet) -> tuple:
    """(log Z, E N1, E N2, Var N1, Cov, Var N2), one r-pass per part family:
    log Z = sum_r G0(a r) G0(b r)/r (+ Psi(a) + Psi(b) for the axis families),
    and each derivative in a or b turns G_k into -r G_{k+1}."""
    a, b = params.alpha, params.beta

    def block(r):
        a0, a1, a2 = _geometric(a * r)
        b0, b1, b2 = _geometric(b * r)
        return np.stack([a0 * b0 / r, a1 * b0, a0 * b1, r * a2 * b0, r * a1 * b1, r * a0 * b2])

    sums = _series(block, a + b, 1.0)[0]
    if part_set is PartSet.NONZERO_VECTORS:
        pa, dpa, ddpa = _dirichlet_series(a, 1.0, 2)[0]
        pb, dpb, ddpb = _dirichlet_series(b, 1.0, 2)[0]
        axes = (pa + pb, -dpa, -dpb, ddpa, 0.0, ddpb)
        sums = [s + x for s, x in zip(sums, axes)]
    return tuple(sums)


def log_z_direct(params: ShapeParams, part_set: PartSet) -> float:
    """log Z as the collapsed single r-sum over both geometric factors.

    For the nonzero part set, the two axis families contribute Psi(alpha)
    and Psi(beta) on top of the interior sum.
    """
    return _log_z_sums(params, part_set)[0]


@dataclass(frozen=True)
class LogZExpansion:
    """Truncated residue expansion of log Z for the strict part set.

    value = leading + sum(terms) with leading = D_alpha(2)/beta and
    terms[k] = (-1)^k zeta(-k) D_alpha(1-k) beta^k / k!.
    """

    leading: float
    terms: tuple[float, ...]
    value: float


def log_z_expansion(params: ShapeParams, part_set: PartSet, m: int) -> LogZExpansion:
    """Residue expansion of log Z to order m in beta (strict part set only)."""
    if not (0 <= m <= MAX_EXPANSION_ORDER):
        raise ValueError(f"expansion order must lie in [0, {MAX_EXPANSION_ORDER}]")
    if part_set is not PartSet.STRICT_POSITIVE:
        raise ValueError("the residue expansion applies to the strict part set only")
    a, b = params.alpha, params.beta
    leading = dirichlet(a, 2.0) / b
    terms = []
    factorial = 1
    for k in range(m + 1):
        if k > 0:
            factorial *= k
        zk = zeta_neg(k)
        if zk == 0:
            terms.append(0.0)
            continue
        sign = -1.0 if k % 2 else 1.0
        terms.append(sign * float(zk) * dirichlet(a, 1.0 - k) * b**k / factorial)
    value = leading + math.fsum(terms)
    return LogZExpansion(leading=leading, terms=tuple(terms), value=value)


def gibbs_mean(params: ShapeParams, part_set: PartSet) -> tuple[float, float]:
    """Mean of N under the Gibbs measure: minus the gradient of log Z."""
    return _log_z_sums(params, part_set)[1:3]


def gibbs_covariance(
    params: ShapeParams, part_set: PartSet
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Covariance of N: the Hessian of log Z, from second derivative series."""
    caa, cab, cbb = _log_z_sums(params, part_set)[3:]
    return ((caa, cab), (cab, cbb))


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Main-theorem prediction, log_value = exponent + log_prefactor."""

    log_value: float
    exponent: float
    log_prefactor: float


def theorem_estimate(target: Target, part_set: PartSet) -> AsymptoticEstimate:
    """Main asymptotic formula for log p_X(n1, n2) at the calibrated (alpha, beta).

    With beta = sqrt(P(alpha)/n2), P = Phi (+ pi^2/6 for the nonzero set), the
    exponent (alpha t + 2 sqrt(P)) sqrt(n2) is alpha n1 + 2 beta n2 and
    log(P/n2) is 2 log beta, so P is the calibration's own.
    """
    params = calibrate(target, part_set).params
    alpha, beta = params.alpha, params.beta
    exponent = alpha * target.n1 + 2.0 * beta * target.n2
    if part_set is PartSet.STRICT_POSITIVE:
        log_prefactor = (
            -math.log(2.0 * math.pi)
            + 2.0 * math.log(beta)
            - 0.5 * psi(alpha)
            - 0.5 * math.log(delta(alpha, barred=False))
        )
    else:
        log_prefactor = (
            -1.5 * math.log(2.0 * math.pi)
            + 2.5 * math.log(beta)
            + 0.5 * psi(alpha)
            - 0.5 * math.log(delta(alpha, barred=True))
        )
    return AsymptoticEstimate(
        log_value=exponent + log_prefactor,
        exponent=exponent,
        log_prefactor=log_prefactor,
    )


def _rates(t_grid, part_set: PartSet) -> np.ndarray:
    """alpha t + 2 sqrt(P(alpha)) at each ratio, from one batched root search."""
    t = np.asarray(t_grid, dtype=float)
    alpha, p, _ = theta_roots(t, part_set is PartSet.NONZERO_VECTORS)
    return alpha * t + 2.0 * np.sqrt(p)


def rate_function(t: float, part_set: PartSet) -> float:
    """Exponential rate of log p_X(floor(t sqrt(n)), n) / sqrt(n)."""
    return _rates([t], part_set).item()


def rate_table(t_grid: list[float]) -> list[tuple[float, float, float]]:
    """Rows (t, h(t), h_bar(t)) for plotting the two rate functions: one
    batched root search per part set, so a one-point table equals
    rate_function exactly and longer ones agree with it to ~1e-12 relative."""
    h = _rates(t_grid, PartSet.STRICT_POSITIVE).tolist()
    h_bar = _rates(t_grid, PartSet.NONZERO_VECTORS).tolist()
    return list(zip(t_grid, h, h_bar))
