"""Series evaluators against direct high-precision summation.

The references sum the same r-series term by term in 30-digit mpmath
arithmetic until a majorant of the tail is below 1e-26, so they are exact to
far below double precision.  (mpmath.nsum is not used: its extrapolation is
itself off by ~1e-9 at alpha ~ 5e-4.)  Every evaluator must land within its
absolute tolerance plus a few rounding errors of the value.  On alpha in
[1e-8, 0.1], where direct sums get slow, a second reference is the residue
series of Phi and Psi, formed from mpmath's zeta alone.
"""

import math
import sys
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipartitions import special_functions
from bipartitions.asymptotics import gibbs_mean, log_z_direct
from bipartitions.calibration import ShapeParams
from bipartitions.exact_count import PartSet
from bipartitions.special_functions import (
    DEFAULT_TOL,
    _dirichlet_series,
    _phi_and_derivatives,
    phi,
    psi,
)

ALPHAS = [1e-3, 1e-2, 0.1, 1.0, 3.0, 20.0]
EPS = sys.float_info.epsilon
NAMES = ("Phi", "Phi'", "Phi''", "Psi", "Psi'", "Psi''")
REF_TAIL = mpmath.mpf("1e-26")


def allowed(value: float) -> float:
    return DEFAULT_TOL + 8 * EPS * abs(value)


def log_uniform(lo: float, hi: float):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


def geometric(y):
    """(G0, G1, G2) at e^{-x} = y: y/(1-y), y/(1-y)^2, y(1+y)/(1-y)^3."""
    d = 1 - y
    g0 = y / d
    g1 = g0 / d
    return g0, g1, g1 * (1 + y) / d


@lru_cache(maxsize=None)
def phi_family_reference(alpha: float) -> tuple[float, ...]:
    """(Phi, Phi', Phi'', Psi, Psi', Psi'') by direct summation.

    Each summand of the first five is at most G2(alpha r), whose ratio is at
    most e^{-alpha}, so their tails after r are below G2(alpha r) /
    (1 - e^{-alpha}).  Psi'' sums r G2(alpha r), whose ratio is at most
    rho = (1 + 1/r) e^{-alpha}; once rho < 1 its tail is below
    r G2(alpha r) rho / (1 - rho), which is held below REF_TAIL relative to
    the sum.
    """
    with mpmath.workdps(30):
        q = mpmath.exp(-mpmath.mpf(alpha))
        y = mpmath.mpf(1)
        p = dp = ddp = ps = dps = ddps = mpmath.mpf(0)
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
            dps -= g1
            ddps += r * g2
            if g2 < limit:
                rho = (1 + mpmath.mpf(1) / r) * q
                if rho < 1 and r * g2 * rho / (1 - rho) < REF_TAIL * ddps:
                    return tuple(float(v) for v in (p, dp, ddp, ps, dps, ddps))


@lru_cache(maxsize=None)
def residue_coefficients(terms: int) -> tuple:
    """zeta(-j) zeta(2-j) / j! for the first `terms` odd j >= 3, in mpmath."""
    return tuple(
        mpmath.zeta(-j) * mpmath.zeta(2 - j) / mpmath.factorial(j)
        for j in range(3, 3 + 2 * terms, 2)
    )


def residue_reference(alpha: float) -> tuple[float, ...]:
    """(Phi, Phi', Phi'', Psi, Psi', Psi'') from the residue series, 40 odd
    terms for Phi; the dual sum of Psi is below e^{-394} for alpha <= 0.1."""
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        z2, z3, dz = mpmath.zeta(2), mpmath.zeta(3), mpmath.zeta(-1, derivative=1)
        p = z3 / a - z2 / 2 + a * ((1 - mpmath.log(a)) / 12 - dz)
        dp = -z3 / a**2 - mpmath.log(a) / 12 - dz
        ddp = 2 * z3 / a**3 - 1 / (12 * a)
        for j, c in zip(range(3, 83, 2), residue_coefficients(40)):
            p -= c * a**j
            dp -= c * j * a ** (j - 1)
            ddp -= c * j * (j - 1) * a ** (j - 2)
        ps = z2 / a + mpmath.log(a / (2 * mpmath.pi)) / 2 - a / 24
        dps = -z2 / a**2 + 1 / (2 * a) - mpmath.mpf(1) / 24
        ddps = 2 * z2 / a**3 - 1 / (2 * a**2)
        return tuple(float(v) for v in (p, dp, ddp, ps, dps, ddps))


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
    for name, g, v in zip(NAMES, got, ref[:4]):
        assert abs(g - v) <= allowed(v), f"{name}({alpha}) off by {abs(g - v):.3g}"


@pytest.mark.parametrize("alpha", ALPHAS + [1e-5, 1e-8])
def test_kernel_tail_bound_below_tol(alpha):
    for s in (2.0, 1.0):
        _, terms, tail = _dirichlet_series(alpha, s, 2)
        assert terms >= 1 and 0.0 <= tail < DEFAULT_TOL


def family(alpha: float) -> tuple[list[float], list[float]]:
    """[D, D', D''] for s = 2 and s = 1, and the two tail bounds."""
    phi3, _, phi_tail = _dirichlet_series(alpha, 2.0, 2)
    psi3, _, psi_tail = _dirichlet_series(alpha, 1.0, 2)
    return phi3 + psi3, [phi_tail] * 3 + [psi_tail] * 3


@given(log_uniform(1e-2, 20.0))
@settings(max_examples=20, deadline=None)
def test_log_grid_against_mpmath(alpha):
    # the stated tail bound (in units of min(1, G0)) must hold, closed form or not
    unit = min(1.0, 1.0 / math.expm1(alpha))
    got, tails = family(alpha)
    for name, g, v, tail in zip(NAMES, got, phi_family_reference(alpha), tails):
        assert abs(g - v) <= allowed(v), f"{name}({alpha}) off by {abs(g - v):.3g}"
        assert abs(g - v) <= tail * unit + 8 * EPS * abs(v), f"{name}({alpha}) beyond its bound"


@given(log_uniform(1e-8, 0.1))
@settings(max_examples=25, deadline=None)
def test_small_alpha_against_residue_series(alpha):
    got, _ = family(alpha)
    for name, g, v in zip(NAMES, got, residue_reference(alpha)):
        assert abs(g - v) <= allowed(v), f"{name}({alpha}) off by {abs(g / v - 1):.3g}"


def test_closed_form_matches_direct_sum(monkeypatch):
    alphas = np.geomspace(0.02, np.nextafter(special_functions._CLOSED_FORM_ALPHA, 0.0), 9)
    closed = [_dirichlet_series(alphas, s, 2) for s in (2.0, 1.0)]
    assert all(terms <= 10 for _, terms, _ in closed)
    # the reference sums every row over r, to a tail below 1e-16
    monkeypatch.setattr(special_functions, "_CLOSED_FORM_ALPHA", 0.0)
    monkeypatch.setattr(special_functions, "DEFAULT_TOL", 1e-16)
    for s, (value, _, _) in zip((2.0, 1.0), closed):
        direct = _dirichlet_series(alphas, s, 2)[0]
        np.testing.assert_allclose(value, direct, rtol=1e-13, atol=0.0)


def test_residue_remainder_bounds():
    """The stored bounds on the integral on Re w = -16 dominate an mpmath
    quadrature of |Gamma(w) zeta(w) zeta(w + 2) (w)_k| / (2 pi) over |y| <= 40,
    and stay below DEFAULT_TOL at the switch; the literals match mpmath."""
    m = special_functions._MELLIN_ORDER
    with mpmath.workdps(15):

        @lru_cache(maxsize=None)
        def base(y):
            w = mpmath.mpc(-m, y)
            return abs(mpmath.gamma(w) * mpmath.zeta(w) * mpmath.zeta(w + 2))

        for k, bound in enumerate(special_functions._MELLIN_BOUND):
            # the integrand is even in y
            exact = mpmath.quad(lambda y: base(y) * abs(mpmath.rf(mpmath.mpc(-m, y), k)),
                                [0, 20, 40]) / mpmath.pi
            assert exact <= bound <= 1.2 * exact
            assert bound * special_functions._CLOSED_FORM_ALPHA ** (m - k) <= DEFAULT_TOL
    with mpmath.workdps(30):
        assert special_functions._ZETA3 == float(mpmath.zeta(3))
        assert special_functions._DZETA_M1 == float(mpmath.zeta(-1, derivative=1))
        assert special_functions._HALF_LOG_2PI == float(mpmath.log(2 * mpmath.pi) / 2)


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
