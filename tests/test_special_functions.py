"""Unit tests for the auxiliary series evaluators."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipartitions import special_functions
from bipartitions.calibration import ShapeParams
from bipartitions.exact_count import PartSet
from bipartitions.gibbs import lyapunov_bound
from bipartitions.special_functions import (
    _phi_and_derivatives,
    bernoulli,
    delta,
    dirichlet,
    phi,
    psi,
    sigma2,
    theta,
    zeta_neg,
)

ZETA3 = 1.2020569031595943


def phi_lambert(alpha: float) -> float:
    """Phi via its Lambert-series form sum_m sigma2(m)/m^2 e^{-alpha m}: an
    oracle independent of the r-series that `phi` sums.  sigma2(m)/m^2 < zeta(2),
    so the terms past M sum to less than zeta(2) e^{-alpha (M + 1)}/(1 - e^{-alpha}),
    and M is chosen to put this under 1e-13."""
    zeta2 = math.pi**2 / 6
    M = math.ceil(math.log(zeta2 / (1e-13 * -math.expm1(-alpha))) / alpha)
    m = np.arange(1, M + 1, dtype=float)
    sigma = np.array([sigma2(k) for k in range(1, M + 1)], dtype=float)
    return float(np.sum(sigma / (m * m) * np.exp(-alpha * m)))


class TestPhi:
    def test_frozen_values(self):
        assert phi(1.0) == pytest.approx(0.6284603664548432, rel=1e-11)
        assert phi(5.0) == pytest.approx(0.006795039522035875, rel=1e-11)

    def test_small_alpha_limit(self):
        # alpha * Phi(alpha) -> zeta(3) as alpha -> 0
        assert 1e-4 * phi(1e-4) == pytest.approx(ZETA3, rel=1e-3)

    @given(st.floats(min_value=0.05, max_value=8.0))
    @settings(max_examples=25, deadline=None)
    def test_lambert_cross_check(self, alpha):
        assert phi(alpha) == pytest.approx(phi_lambert(alpha), abs=1e-10)

    @given(st.floats(min_value=0.1, max_value=5.0), st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_decreasing(self, a1, a2):
        lo, hi = sorted((a1, a2))
        if hi - lo > 1e-6:
            assert phi(lo) > phi(hi)


class TestDerivatives:
    def test_frozen_values(self):
        assert _phi_and_derivatives(1.0)[1] == pytest.approx(-1.0362871355745795, rel=1e-11)
        assert _phi_and_derivatives(1.0)[2] == pytest.approx(2.3214805734350406, rel=1e-11)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
    def test_first_matches_difference_quotient(self, alpha):
        h = 1e-5
        fd = (phi(alpha + h) - phi(alpha - h)) / (2 * h)
        assert _phi_and_derivatives(alpha)[1] == pytest.approx(fd, rel=1e-7)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
    def test_second_matches_difference_quotient(self, alpha):
        h = 1e-5
        fd = (_phi_and_derivatives(alpha + h)[1] - _phi_and_derivatives(alpha - h)[1]) / (2 * h)
        assert _phi_and_derivatives(alpha)[2] == pytest.approx(fd, rel=1e-7)


class TestDirichlet:
    def test_frozen_values(self):
        assert dirichlet(1.0, 0.0) == pytest.approx(0.8202595115420145, rel=1e-11)
        assert dirichlet(1.0, 2.0) == pytest.approx(phi(1.0), rel=1e-13)
        assert dirichlet(1.0, 1.0) == pytest.approx(psi(1.0), rel=1e-13)

    def test_psi_frozen(self):
        assert psi(1.0) == pytest.approx(0.6843288669760271, rel=1e-11)

    def test_decreasing_in_s(self):
        values = [dirichlet(1.0, s) for s in (-1.0, 0.0, 1.0, 2.0)]
        assert values == sorted(values, reverse=True)

    def test_term_by_term_partial_sum_lower_bound(self):
        # the series has positive terms, so any partial sum is a lower bound
        partial = sum(
            r ** -2.0 * math.exp(-r) / (1 - math.exp(-r)) for r in range(1, 8)
        )
        assert partial < phi(1.0) < partial + 1e-3


class TestValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_alpha_domain(self, bad):
        with pytest.raises(ValueError):
            phi(bad)

    @pytest.mark.parametrize("bad", [0.0, -1e-9, 1e-3])
    def test_tolerance_domain(self, bad):
        # the series kernel has one tolerance, DEFAULT_TOL; the Lyapunov
        # bound's tol is the one a caller sets
        with pytest.raises(ValueError, match="^tolerance must lie in"):
            lyapunov_bound(ShapeParams(0.8, 0.2), PartSet.STRICT_POSITIVE, tol=bad)

    def test_series_term_cap_is_reported(self, monkeypatch):
        # s = 3 is summed directly, and alpha = 1e-6 needs far more terms
        # than a small cap; the cap fails fast
        monkeypatch.setattr(special_functions, "_MAX_TERMS", 10_000)
        with pytest.raises(ValueError, match="^series failed to converge"):
            dirichlet(1e-6, 3.0)

    def test_overflow_is_an_error(self):
        # Phi'' = 2 zeta(3)/alpha^3 overflows below alpha ~ 2e-103
        for evaluate in (_phi_and_derivatives, theta, delta):
            with pytest.raises(ValueError, match="1e-200"):
                evaluate(1e-200)


class TestSigma2:
    def test_values(self):
        assert sigma2(1) == 1
        assert sigma2(4) == 1 + 4 + 16
        assert sigma2(6) == 1 + 4 + 9 + 36
        assert sigma2(12) == 1 + 4 + 9 + 16 + 36 + 144

    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=50, deadline=None)
    def test_against_filter(self, m):
        assert sigma2(m) == sum(d * d for d in range(1, m + 1) if m % d == 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            sigma2(0)


class TestBernoulliZeta:
    def test_bernoulli_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_zeta_neg_values(self):
        assert zeta_neg(0) == Fraction(-1, 2)
        assert zeta_neg(1) == Fraction(-1, 12)
        assert zeta_neg(2) == 0
        assert zeta_neg(3) == Fraction(1, 120)
        assert zeta_neg(4) == 0
        assert zeta_neg(5) == Fraction(-1, 252)

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta_neg(-1)
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestThetaDelta:
    def test_frozen_values(self):
        assert theta(1.0) == pytest.approx(1.3071973528439962, rel=1e-11)
        assert theta(1.0, barred=True) == pytest.approx(0.6872942503185974, rel=1e-11)

    def test_barred_smaller(self):
        # same numerator, strictly larger denominator
        assert theta(1.0, barred=True) < theta(1.0)

    @given(st.floats(min_value=0.1, max_value=6.0), st.floats(min_value=0.1, max_value=6.0))
    @settings(max_examples=25, deadline=None)
    def test_strictly_decreasing(self, a1, a2):
        lo, hi = sorted((a1, a2))
        if hi - lo > 1e-6:
            assert theta(lo) > theta(hi)
            assert theta(lo, barred=True) > theta(hi, barred=True)

    def test_underflowing_phi_is_reported(self):
        # Phi is 0.0 past alpha ~ 709.78, where e^alpha overflows
        assert theta(709.0) > 0.0
        with pytest.raises(ValueError, match="800.0"):
            theta(800.0)
        assert theta(800.0, barred=True) == 0.0

    def test_delta_frozen_and_positive(self):
        assert delta(1.0) == pytest.approx(1.844026036440203, rel=1e-11)
        assert delta(1.0, barred=True) == pytest.approx(9.48139099797951, rel=1e-11)
        for alpha in (0.2, 1.0, 4.0):
            assert delta(alpha) > 0
            assert delta(alpha, barred=True) > delta(alpha)
