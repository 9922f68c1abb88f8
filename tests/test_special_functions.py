"""Unit tests for the auxiliary series evaluators."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipartitions import special_functions
from bipartitions.special_functions import (
    ZETA2,
    _geometric,
    _phi_and_derivatives,
    bernoulli,
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


class TestGeometric:
    @pytest.mark.parametrize("x", [
        1e-8, 1e-3, 0.5, 1.0, 10.0, 100.0, 700.0, complex(1e-6, -1e-6),
        complex(0.01, 0.004), complex(1e-3, 2.0), complex(0.5, -1.3), complex(3.0, 7.0),
        complex(40.0, -0.2), complex(700.0, 1.0),
    ])
    def test_against_mpmath(self, x):
        # G_k = (-d/dx)^k 1/(e^x - 1), differentiated by mpmath at 60 digits
        rows = _geometric(np.array([x]), 2)
        assert len(rows) == 3
        with mpmath.workdps(60):
            for k, row in enumerate(rows):
                exact = complex((-1) ** k * mpmath.diff(lambda y: 1 / mpmath.expm1(y), x, k))
                assert abs(row[0] - exact) <= 2e-15 * abs(exact)

    @pytest.mark.parametrize("x", [1e-3, 0.05, 1.0, 30.0, 700.0])
    def test_orders_3_and_4_against_polylog(self, x):
        # G_k(x) = sum_n n^k e^{-nx} = Li_{-k}(e^{-x}), by mpmath at 40 digits
        rows = _geometric(np.array([x]), 4)
        with mpmath.workdps(40):
            for k in (3, 4):
                exact = float(mpmath.polylog(-k, mpmath.exp(-mpmath.mpf(x))))
                assert rows[k][0] == pytest.approx(exact, rel=4e-15)

    def test_rows_up_to_order(self):
        assert [len(_geometric(1.0, k)) for k in range(5)] == [1, 2, 3, 4, 5]

    def test_far_out(self):
        # real x past ~709.78 gives exactly 0, as 1/expm1 does; complex x stays finite
        for x in (710.0, 740.0):
            assert [float(g) for g in _geometric(x, 2)] == [0.0, 0.0, 0.0]
        rows = _geometric(np.array([complex(800.0, 3.0), complex(800.0, -1e3)]), 2)
        assert all(np.isfinite(g).all() and not g.any() for g in rows)


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
    def test_array_is_summed_in_capped_stacks(self, monkeypatch):
        # an array of alphas takes one pass per MAX_STACK of them
        alphas = np.array([0.3, 0.7, 1.0, 2.0, 5.0])
        whole = _phi_and_derivatives(alphas)
        stacks = []
        direct = special_functions._dirichlet_series

        def recorded(alpha, *args):
            stacks.append(len(alpha))
            return direct(alpha, *args)

        monkeypatch.setattr(special_functions, "MAX_STACK", 2)
        monkeypatch.setattr(special_functions, "_dirichlet_series", recorded)
        stacked = _phi_and_derivatives(alphas)
        assert stacks == [2, 2, 1] and stacked.shape == whole.shape == (3, 5)
        assert stacked.ravel().tolist() == pytest.approx(whole.ravel().tolist(), rel=1e-13)

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

    def test_series_term_cap_is_reported(self, monkeypatch):
        # s = 3 is summed directly, and alpha = 1e-6 needs far more terms
        # than a small cap; the cap fails fast
        monkeypatch.setattr(special_functions, "_MAX_TERMS", 10_000)
        with pytest.raises(ValueError, match="^series failed to converge"):
            dirichlet(1e-6, 3.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_term_stops_the_series(self, bad):
        # the terms would run past the first block; the one at r = 100, in the
        # second block, is not finite, and the kernel stops there
        def block(r):
            return np.where(r == 100.0, bad, np.exp(-r / 1000.0))

        with pytest.raises(ValueError, match="^series term at r = 100 is not finite$"):
            special_functions._series(block, 1e-3, 0.0)

    def test_overflow_is_an_error(self):
        # Phi'' = 2 zeta(3)/alpha^3 overflows below alpha ~ 2e-103
        for evaluate in (_phi_and_derivatives, theta):
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
        # Delta = 2 P Phi'' - Phi'^2, with P = Phi + zeta(2) when barred
        def delta(alpha, barred=False):
            p, dp, ddp = _phi_and_derivatives(alpha)
            return 2.0 * (p + ZETA2 if barred else p) * ddp - dp * dp

        assert delta(1.0) == pytest.approx(1.844026036440203, rel=1e-11)
        assert delta(1.0, barred=True) == pytest.approx(9.48139099797951, rel=1e-11)
        for alpha in (0.2, 1.0, 4.0):
            assert delta(alpha) > 0
            assert delta(alpha, barred=True) > delta(alpha)
