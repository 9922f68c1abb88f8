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
    _dirichlet_series, _geometric, _series, dirichlet, psi, zeta_neg,
)

MAX_EXPANSION_ORDER = 8


def _log_z_terms(a, b, nonzero: bool, r, order: int) -> np.ndarray:
    """Rows of the r-th terms of log Z = sum_r sum_{x in X} e^{-r(a x1 + b x2)}/r: first
    r^{i+j-1} G_i(a r) G_j(b r), the derivative (-d/da)^i (-d/db)^j over x1, x2 >= 1, for
    i + j = 0, 1, .., order <= 2 with i falling; then, for the nonzero set, the axes x2 = 0
    and x1 = 0 at order 0 (`gibbs._chunks` relies on this order).  a, b may be complex."""
    g = _geometric(np.multiply.outer([a, b], r), order)
    h = [gk * r**k if k else gk for k, gk in enumerate(g)]  # r^k G_k
    rows = [h[i][0] * h[n - i][1] for n in range(order + 1) for i in range(n, -1, -1)]
    return np.stack(rows + [h[0][0], h[0][1]] if nonzero else rows) / r


def _log_z_sums(params: ShapeParams, part_set: PartSet) -> tuple:
    """(log Z, E N1, E N2, Var N1, Cov, Var N2): one r-pass over the order-2 rows of
    `_log_z_terms`, plus Psi(a) + Psi(b) and its derivatives for the nonzero set's axes."""
    a, b = params.alpha, params.beta
    sums = _series(lambda r: _log_z_terms(a, b, False, r, 2), a + b, 1.0)[0]
    if part_set is PartSet.NONZERO_VECTORS:
        (pa, pb), (dpa, dpb), (ddpa, ddpb) = _dirichlet_series([a, b], 1.0, 2)[0]
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
    # zeta(-k) = 0 for even k >= 2, and those terms take no series pass
    zetas = [(-1) ** k * zeta_neg(k) for k in range(m + 1)]
    terms = [
        float(z) * dirichlet(a, 1.0 - k) * b**k / math.factorial(k) if z else 0.0
        for k, z in enumerate(zetas)
    ]
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
    log(P/n2) is 2 log beta, so P is the calibration's own, and so is Delta.
    """
    cal = calibrate(target, part_set)
    alpha, beta = cal.params.alpha, cal.params.beta
    exponent = alpha * target.n1 + 2.0 * beta * target.n2
    if part_set is PartSet.STRICT_POSITIVE:
        log_prefactor = (
            -math.log(2.0 * math.pi)
            + 2.0 * math.log(beta)
            - 0.5 * psi(alpha)
            - 0.5 * math.log(cal.delta)
        )
    else:
        log_prefactor = (
            -1.5 * math.log(2.0 * math.pi)
            + 2.5 * math.log(beta)
            + 0.5 * psi(alpha)
            - 0.5 * math.log(cal.delta)
        )
    return AsymptoticEstimate(
        log_value=exponent + log_prefactor,
        exponent=exponent,
        log_prefactor=log_prefactor,
    )


def _rates(t_grid, part_set: PartSet) -> np.ndarray:
    """alpha t + 2 sqrt(P(alpha)) at each ratio, from one batched root search."""
    t = np.asarray(t_grid, dtype=float)
    alpha, p, _, _ = theta_roots(t, part_set is PartSet.NONZERO_VECTORS)
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
