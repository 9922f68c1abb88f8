"""Calibration of the Gibbs shape parameters.

Solves the implicit equation Theta(alpha) = n1/sqrt(n2) (barred variant for
the part set with axis parts) by a safeguarded Newton loop, batched over any
number of ratios, then sets beta from the second-moment equation.  Theta is
strictly decreasing from +infinity to 0, so a bracket always exists and can
be found by geometric expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact_count import PartSet, Target
from .special_functions import ZETA2, _phi_and_derivatives

MAX_ITER = 200
REL_TOL = 1e-12  # |Theta(alpha) - t| <= REL_TOL * t at an accepted root


class ConvergenceError(ValueError):
    """Root search did not converge; the message names the final bracket."""


@dataclass(frozen=True)
class ShapeParams:
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0 < value < math.inf:  # nan fails both comparisons
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class CalibrationResult:
    params: ShapeParams
    residuals: tuple[float, float]  # relative defects of the two equations
    delta: float  # beta^4 times the Jacobian of the two equations in (alpha, beta)


def theta_roots(t, barred: bool):
    """Rows (alpha, P, Phi', Phi'') at the root of Theta(alpha) = t for each
    ratio of t, P = Phi (+ pi^2/6 if barred), from the pass that accepted it.

    One safeguarded Newton loop from alpha = 1 over all unconverged ratios,
    one stacked (Phi, Phi', Phi'') call per step.  Theta falls from +inf to 0,
    so each evaluation narrows a ratio's bracket (lo, hi); alpha doubles or
    halves until both sides are known, then a Newton step that leaves the
    bracket is replaced by bisection.  Beyond alpha ~ 709.78 (e^alpha
    overflows) Phi' is 0.0 and Theta 0.0 or nan, which counts as below t; a
    bracket that shrinks onto such an alpha means the root is not
    representable.  A bad ratio raises ValueError before any pass; a failed
    search, or an iterate below alpha = 1e-12 (ratios from ~1e18), raises
    ConvergenceError naming its ratio and bracket.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    bad = ~(np.isfinite(t) & (t > 0))
    if bad.any():
        raise ValueError(f"target ratio must be a positive real, got {t[bad][0].item()!r}")
    n = t.size
    roots = np.empty((4, n))
    # the unconverged ratios: index, ratio, alpha, bracket, Theta(hi) - ratio
    i, ti, x, lo, hi, f_hi = np.arange(n), t, np.ones(n), np.zeros(n), np.full(n, np.inf), -t

    def failure(message, k):
        bracket = (lo[k].item(), hi[k].item())
        return ConvergenceError(f"{message.format(ti[k].item())} (bracket: {bracket})")

    for _ in range(MAX_ITER):
        if not i.size:
            return roots
        if x.min() < 1e-12:
            raise failure("root for target ratio {!r} lies below alpha = 1e-12", x.argmin())
        p, dp, ddp = _phi_and_derivatives(x)
        if barred:
            p += ZETA2
        with np.errstate(divide="ignore", invalid="ignore"):
            # Theta = -Phi'/sqrt(P), so Theta' = -Phi''/sqrt(P) - Theta Phi'/(2P);
            # no power of P is formed, as P^{3/2} underflows long before P does
            root = np.sqrt(p)
            theta = -dp / root
            fa = theta - ti
            newton = x - fa / (-ddp / root - theta * dp / (2.0 * p))
        above = fa > 0.0
        lo = np.where(above, x, lo)
        hi, f_hi = np.where(above, hi, x), np.where(above, f_hi, fa)
        step = np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
        step = np.where(hi == np.inf, 2.0 * x, np.where(lo == 0.0, 0.5 * x, step))
        converged = np.abs(fa) <= REL_TOL * ti
        done = converged | (step == x)  # or the bracket has shrunk to one float
        if done.any():
            # f_hi is nan or -ti where Phi' underflowed at hi
            lost = np.flatnonzero(done & ~converged & ~(f_hi > -ti))
            if lost.size:
                raise failure("target ratio {!r} is too small for double precision", lost[0])
            roots[:, i[done]] = np.stack([x, p, dp, ddp])[:, done]
            keep = ~done
            i, ti, step, lo, hi, f_hi = (v[keep] for v in (i, ti, step, lo, hi, f_hi))
        x = step
    raise failure("Newton iteration cap exceeded at target ratio {!r}", 0)


def calibrate(target: Target, part_set: PartSet) -> CalibrationResult:
    """Solve the two implicit shape-parameter equations for the target.

    alpha solves Theta(alpha) = n1/sqrt(n2); beta is set from the stabler
    equation beta = sqrt(P(alpha)/n2) (P from the root's series pass), and
    the first equation -Phi'(alpha)/beta = n1 is reported as a residual check.
    Delta = 2 P Phi'' - Phi'^2 comes from the same pass.
    """
    if target.n1 < 1 or target.n2 < 1:
        raise ValueError(f"calibration requires n1, n2 >= 1, got {target}")
    barred = part_set is PartSet.NONZERO_VECTORS
    t = target.n1 / math.sqrt(target.n2)
    alpha, p, dp, ddp = (v.item() for v in theta_roots(t, barred))
    beta = math.sqrt(p / target.n2)
    r1 = abs(-dp / beta - target.n1) / target.n1
    r2 = abs(p / beta**2 - target.n2) / target.n2
    return CalibrationResult(ShapeParams(alpha, beta), (r1, r2), 2.0 * p * ddp - dp * dp)
