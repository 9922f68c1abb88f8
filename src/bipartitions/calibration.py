"""Calibration of the Gibbs shape parameters.

Solves the implicit equation Theta(alpha) = n1/sqrt(n2) (barred variant for
the part set with axis parts) by a safeguarded Newton loop, then sets beta
from the second-moment equation.  Theta is strictly decreasing from +infinity
to 0, so a bracket always exists and can be found by geometric expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exact_count import PartSet, Target
from .special_functions import ZETA2, _phi_and_derivatives

MAX_ITER = 200


class ConvergenceError(ValueError):
    """Root search did not converge; carries the final bracket."""

    def __init__(self, message: str, bracket: tuple[float, float]):
        super().__init__(f"{message} (bracket: {bracket})")
        self.bracket = bracket


@dataclass(frozen=True)
class ShapeParams:
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError(f"shape parameters must be positive, got {self}")


@dataclass(frozen=True)
class CalibrationResult:
    params: ShapeParams
    target: Target
    part_set: PartSet
    residuals: tuple[float, float]  # relative defects of the two equations


def _theta_and_slope(alpha: float, barred: bool) -> tuple[float, float]:
    """Theta and its derivative from one pass over (Phi, Phi', Phi'').

    Theta = -Phi'/sqrt(P) with P = Phi (+ pi^2/6 if barred), so
    Theta' = -Phi''/sqrt(P) - Theta Phi'/(2P); no power of P is formed, as
    P^{3/2} underflows long before P does (P ~ e^{-alpha} for large alpha).
    """
    p, dp, ddp = _phi_and_derivatives(alpha)
    if barred:
        p += ZETA2
    root = math.sqrt(p)
    value = -dp / root
    return value, -ddp / root - value * dp / (2.0 * p)


def solve_theta(t: float, barred: bool, rel_tol: float = 1e-12) -> float:
    """Unique alpha > 0 with Theta(alpha) = t (barred variant if asked).

    One safeguarded Newton loop from alpha = 1.  Theta decreases from +inf to
    0, so every evaluation narrows the bracket (lo, hi) around the root.
    While a side of the bracket is still unknown alpha doubles or halves;
    after that a Newton step that leaves the bracket is replaced by bisection.
    Where Phi underflows to 0.0, Theta counts as below t; if the bracket then
    shrinks onto such an alpha, the root is not representable.
    """
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"target ratio must be a positive real, got {t!r}")
    lo, hi, underflow = 0.0, math.inf, math.inf
    a = 1.0
    for _ in range(MAX_ITER):
        if not (1e-12 <= a <= 1e6):
            raise ConvergenceError("root lies outside [1e-12, 1e6]", (lo, hi))
        try:
            value, slope = _theta_and_slope(a, barred)
        except ZeroDivisionError:  # Phi is 0.0 beyond alpha ~ 709.78, where e^alpha overflows
            value, slope, underflow = 0.0, math.inf, a  # so a bounds the root above
        fa = value - t
        if abs(fa) <= rel_tol * t:
            return a
        if fa > 0.0:
            lo = a
        else:
            hi = a
        if hi == math.inf:
            candidate = 2.0 * a
        elif lo == 0.0:
            candidate = 0.5 * a
        else:
            candidate = a - fa / slope
            if not (lo < candidate < hi):
                candidate = 0.5 * (lo + hi)  # Newton overshoot: bisect
        if candidate == a:  # converged, or the bracket has shrunk to one float
            if hi == underflow:
                msg = f"target ratio {t!r} is too small for double precision"
                raise ConvergenceError(msg, (lo, hi))
            return a
        a = candidate
    raise ConvergenceError("Newton iteration cap exceeded", (lo, hi))


def calibrate(
    target: Target, part_set: PartSet, rel_tol: float = 1e-12
) -> CalibrationResult:
    """Solve the two implicit shape-parameter equations for the target.

    alpha solves Theta(alpha) = n1/sqrt(n2); beta is set from the stabler
    equation beta = sqrt(P(alpha)/n2), and the first equation
    -Phi'(alpha)/beta = n1 is reported as a residual check.
    """
    if target.n1 < 1 or target.n2 < 1:
        raise ValueError(f"calibration requires n1, n2 >= 1, got {target}")
    barred = part_set is PartSet.NONZERO_VECTORS
    t = target.n1 / math.sqrt(target.n2)
    alpha = solve_theta(t, barred, rel_tol)
    p, dp, _ = _phi_and_derivatives(alpha)
    if barred:
        p += ZETA2
    beta = math.sqrt(p / target.n2)
    r1 = abs(-dp / beta - target.n1) / target.n1
    r2 = abs(p / beta**2 - target.n2) / target.n2
    return CalibrationResult(
        params=ShapeParams(alpha=alpha, beta=beta),
        target=target,
        part_set=part_set,
        residuals=(r1, r2),
    )


ORDER_CHECK_BAND = (1.0 / 50.0, 50.0)


def order_checks(result: CalibrationResult) -> dict:
    """Scale ratios that should stay bounded along calibrated sequences.

    Reports e^{-alpha}/(beta n1), e^{-alpha}/(beta^2 n2) and beta n2/n1,
    flagging any ratio outside [1/50, 50].
    """
    alpha, beta = result.params.alpha, result.params.beta
    n1, n2 = result.target.n1, result.target.n2
    e = math.exp(-alpha)
    ratios = {
        "exp_over_beta_n1": e / (beta * n1),
        "exp_over_beta2_n2": e / (beta**2 * n2),
        "beta_n2_over_n1": beta * n2 / n1,
    }
    lo, hi = ORDER_CHECK_BAND
    flagged = [name for name, v in ratios.items() if not (lo <= v <= hi)]
    return {"ratios": ratios, "flagged": flagged}
