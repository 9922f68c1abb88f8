"""Series evaluators against direct high-precision summation.

The references sum the same r-series term by term in 30-digit mpmath
arithmetic until a majorant of the tail is below 1e-26, so they are exact to
far below double precision.  (mpmath.nsum is not used: its extrapolation is
itself off by ~1e-9 at alpha ~ 5e-4.)  Every evaluator must land within its
absolute tolerance plus a few rounding errors of the value.
"""

import sys
from functools import lru_cache

import mpmath
import pytest

from bipartitions.asymptotics import gibbs_mean, log_z_direct
from bipartitions.calibration import ShapeParams
from bipartitions.exact_count import PartSet
from bipartitions.special_functions import DEFAULT_TOL, _phi_and_derivatives, phi, psi

ALPHAS = [1e-3, 1e-2, 0.1, 1.0, 3.0, 20.0]
REF_TAIL = mpmath.mpf("1e-26")


def allowed(value: float) -> float:
    return DEFAULT_TOL + 8 * sys.float_info.epsilon * abs(value)


def geometric(y):
    """(G0, G1, G2) at e^{-x} = y: y/(1-y), y/(1-y)^2, y(1+y)/(1-y)^3."""
    d = 1 - y
    g0 = y / d
    g1 = g0 / d
    return g0, g1, g1 * (1 + y) / d


@lru_cache(maxsize=None)
def phi_family_reference(alpha: float) -> tuple[float, float, float, float]:
    """(Phi, Phi', Phi'', Psi) by direct summation.

    Every summand is at most G2(alpha r), whose ratio is at most e^{-alpha},
    so the tail after r is below G2(alpha r) / (1 - e^{-alpha}).
    """
    with mpmath.workdps(30):
        q = mpmath.exp(-mpmath.mpf(alpha))
        y = mpmath.mpf(1)
        p = dp = ddp = ps = mpmath.mpf(0)
        limit = REF_TAIL * (1 - q)
        r = 0
        while True:
            r += 1
            y *= q
            g0, g1, g2 = geometric(y)
            u = g0 / r
            p += u / r
            dp -= g1 / r
            ddp += g2
            ps += u
            if g2 < limit:
                return float(p), float(dp), float(ddp), float(ps)


@lru_cache(maxsize=None)
def log_z_reference(a: float, b: float) -> tuple[float, float, float]:
    """(log Z, E N1, E N2) for the nonzero part set by direct summation.

    Interior and axis summands at r are all at most
    M = (G1(a r) + G1(b r)) (1 + G0(a r) + G0(b r)), whose ratio is at most
    e^{-min(a, b)}, which bounds the tail.
    """
    with mpmath.workdps(30):
        qa, qb = mpmath.exp(-mpmath.mpf(a)), mpmath.exp(-mpmath.mpf(b))
        q = max(qa, qb)
        ya = yb = mpmath.mpf(1)
        log_z = m1 = m2 = mpmath.mpf(0)
        limit = REF_TAIL * (1 - q)
        r = 0
        while True:
            r += 1
            ya *= qa
            yb *= qb
            a0, a1, _ = geometric(ya)
            b0, b1, _ = geometric(yb)
            log_z += (a0 * b0 + a0 + b0) / r
            m1 += a1 * b0 + a1
            m2 += a0 * b1 + b1
            if (a1 + b1) * (1 + a0 + b0) < limit:
                return float(log_z), float(m1), float(m2)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_phi_family_against_mpmath(alpha):
    ref = phi_family_reference(alpha)
    got = (phi(alpha), *_phi_and_derivatives(alpha)[1:], psi(alpha))
    for name, g, v in zip(("Phi", "Phi'", "Phi''", "Psi"), got, ref):
        assert abs(g - v) <= allowed(v), f"{name}({alpha}) off by {abs(g - v):.3g}"


@pytest.mark.parametrize("alpha", ALPHAS)
def test_kernel_tail_bound_below_tol(alpha):
    from bipartitions.special_functions import _dirichlet_series

    for s in (2.0, 1.0):
        _, terms, tail = _dirichlet_series(alpha, s, 2, DEFAULT_TOL)
        assert terms >= 1 and 0.0 <= tail < DEFAULT_TOL


@pytest.mark.parametrize("alpha", [5.0, 12.0, 20.0])
def test_phi_family_relative_at_large_alpha(alpha):
    # the values are ~e^{-alpha}, so an absolute tol alone would say little;
    # each alpha is summed in units of G0(alpha), which makes tol relative
    ref = phi_family_reference(alpha)
    got = (phi(alpha), *_phi_and_derivatives(alpha)[1:])
    for name, g, v in zip(("Phi", "Phi'", "Phi''"), got, ref):
        assert abs(g - v) <= DEFAULT_TOL * abs(v), f"{name}({alpha}) off by {abs(g / v - 1):.3g}"


def test_log_z_and_mean_against_mpmath():
    a, b = 0.01, 0.02
    params = ShapeParams(a, b)
    ref_log_z, ref_m1, ref_m2 = log_z_reference(a, b)
    log_z = log_z_direct(params, PartSet.NONZERO_VECTORS)
    m1, m2 = gibbs_mean(params, PartSet.NONZERO_VECTORS)
    assert abs(log_z - ref_log_z) <= allowed(ref_log_z)
    assert abs(m1 - ref_m1) <= allowed(ref_m1)
    assert abs(m2 - ref_m2) <= allowed(ref_m2)
