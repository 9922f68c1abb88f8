"""Unit tests for the shape-parameter calibration solver."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipartitions import calibration, special_functions
from bipartitions.asymptotics import gibbs_mean, rate_table
from bipartitions.calibration import (
    ConvergenceError,
    ShapeParams,
    calibrate,
    theta_roots,
)
from bipartitions.exact_count import PartSet, Target
from bipartitions.special_functions import ZETA2, _phi_and_derivatives, theta

# the 100-point default `bipart rates` grid plus three extreme ratios
GRID = [0.01 + i * (4.0 - 0.01) / 99 for i in range(100)] + [1e-3, 50.0, 1e5]
# roots from alpha ~ 0.1 to ~ 14, on both sides of the closed forms' alpha = 1/2
DELTA_TARGETS = [Target(20, 400), Target(1000, 10**6), Target(1, 10**6), Target(300, 100)]


def count_series_passes(monkeypatch) -> list:
    """Record every (Phi, Phi', Phi'') pass the solver makes."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _phi_and_derivatives(*args, **kwargs)

    monkeypatch.setattr(special_functions, "_phi_and_derivatives", counted)
    monkeypatch.setattr(calibration, "_phi_and_derivatives", counted)
    return calls


def theta_reference(alpha: float, barred: bool):
    """Theta(alpha) by direct 40-digit summation, for alpha >= 1.

    The summands G0(alpha r)/r^2 and G1(alpha r)/r shrink by at least
    e^{-alpha} <= 1/e per step, so once G1(alpha r) is below 1e-45 |Phi'| the
    tail of either sum is below 1e-44 of its value.
    """
    with mpmath.workdps(40):
        q = mpmath.exp(-mpmath.mpf(alpha))
        y, p, dp = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
        for r in itertools.count(1):
            y *= q
            g0 = y / (1 - y)
            g1 = g0 / (1 - y)
            p += g0 / r**2
            dp -= g1 / r
            if g1 < mpmath.mpf("1e-45") * abs(dp):
                break
        if barred:
            p += mpmath.zeta(2)
        return -dp / mpmath.sqrt(p)


class TestSolveTheta:
    @given(
        st.floats(min_value=1e-3, max_value=50.0),
        st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_inverse_property(self, t, barred):
        alpha = theta_roots(t, barred)[0].item()
        assert theta(alpha, barred) == pytest.approx(t, rel=1e-10)

    def test_decreasing_in_t(self):
        # Theta falls from +inf to 0, so its inverse falls as well
        alphas = [theta_roots(t, False)[0].item() for t in (0.1, 0.5, 1.0, 5.0, 20.0)]
        assert alphas == sorted(alphas, reverse=True)

    @pytest.mark.parametrize("barred", [False, True])
    def test_tiny_ratio(self, barred):
        # the strict root (alpha ~ 460) lies where Phi^{3/2} has underflowed
        alpha = theta_roots(1e-100, barred)[0].item()
        assert theta(alpha, barred) == pytest.approx(1e-100, rel=1e-10)

    @pytest.mark.parametrize("t", [1e-113, 1e-150])
    def test_ratio_beyond_the_doubling_search(self, t):
        # the strict root lies in (512, 709.78): the doubling search overshoots
        # to alpha = 1024, where Phi is 0.0, and must bisect back below it
        alpha = theta_roots(t, False)[0].item()
        assert 512.0 < alpha < 709.78
        assert theta(alpha) == pytest.approx(t, rel=1e-10)

    @pytest.mark.parametrize("barred", [False, True])
    @pytest.mark.parametrize("t", [1e-3, 3e-3, 0.01, 0.02, 0.05])
    def test_theta_against_mpmath(self, t, barred):
        # at large alpha Phi and Phi' are ~e^{-alpha}: an absolute series
        # tolerance would leave Theta(alpha-hat) off t by up to 4e-7
        alpha = theta_roots(t, barred)[0].item()
        assert abs(theta_reference(alpha, barred) / t - 1) <= 1e-11

    def test_barred_ratio_beyond_the_doubling_search(self):
        # the doubling search overshoots to alpha = 1024, where Phi' is 0.0
        # and the barred Theta is 0.0, and must bisect back to the root ~690
        alpha = theta_roots(1e-300, True)[0].item()
        assert 512.0 < alpha < 709.78
        assert theta(alpha, True) == pytest.approx(1e-300, rel=1e-10)

    @pytest.mark.parametrize("t, barred", [(1e-300, False), (1e-310, True)])
    def test_unrepresentable_root(self, t, barred):
        with pytest.raises(ConvergenceError, match=f"target ratio {t!r} is too small"):
            theta_roots(t, barred)

    def test_newton_cap_names_ratio_and_bracket(self, monkeypatch):
        monkeypatch.setattr(calibration, "MAX_ITER", 3)
        cap = r"^Newton iteration cap exceeded at target ratio 0.5 \(bracket: \(.*\)\)$"
        with pytest.raises(ConvergenceError, match=cap):
            theta_roots([0.5, 1.0], False)

    @pytest.mark.parametrize("barred", [False, True])
    def test_batch_matches_single_solves(self, barred):
        roots = theta_roots(np.array(GRID), barred)[0]
        assert roots.shape == (len(GRID),)
        singles = [theta_roots(t, barred)[0].item() for t in GRID]
        assert roots.tolist() == pytest.approx(singles, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_batch_refuses_bad_ratio_before_any_pass(self, monkeypatch, bad):
        calls = count_series_passes(monkeypatch)
        with pytest.raises(ValueError, match="target ratio must be a positive real"):
            theta_roots([0.5, bad, 1.0], False)
        assert calls == []

    def test_rate_table_passes(self, monkeypatch):
        # the default grid is one batched root search per part set, which
        # also yields P at the roots: no per-point passes
        calls = count_series_passes(monkeypatch)
        assert len(rate_table(GRID[:100])) == 100
        assert len(calls) <= 60

    def test_batch_names_unrepresentable_ratio(self):
        with pytest.raises(ConvergenceError, match="target ratio 1e-300 is too small"):
            theta_roots([1e-300, 1.0], False)

    def test_series_passes(self, monkeypatch):
        # the 100-point default `bipart rates` grid plus three extreme ratios,
        # both variants: 206 solves in fewer than 2000 (Phi, Phi', Phi'') passes
        calls = count_series_passes(monkeypatch)
        roots = [(t, b, theta_roots(t, b)[0].item()) for b in (False, True) for t in GRID]
        assert len(calls) < 2000
        for t, barred, alpha in roots:
            assert theta(alpha, barred) == pytest.approx(t, rel=1e-10)

    def test_stacked_passes_stay_short(self, monkeypatch):
        # small alphas leave the r-sum for the closed forms, so no stacked
        # direct pass sums to the length a small alpha would need
        terms = []
        direct = special_functions._series

        def recorded(*args, **kwargs):
            result = direct(*args, **kwargs)
            terms.append(result[1])
            return result

        monkeypatch.setattr(special_functions, "_series", recorded)
        rate_table(np.geomspace(0.01, 1e5, 100).tolist())
        assert terms and max(terms) <= 128

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            theta_roots(bad, False)


class TestCalibrate:
    def test_frozen_subcritical_point(self):
        cal = calibrate(Target(10, 10**4), PartSet.STRICT_POSITIVE)
        assert cal.params.alpha == pytest.approx(4.641349058907968, rel=1e-9)

    @pytest.mark.parametrize(
        "target", [Target(5, 25), Target(10, 400), Target(50, 2500), Target(3, 9000)]
    )
    @pytest.mark.parametrize("part_set", list(PartSet))
    def test_residuals_small(self, target, part_set):
        cal = calibrate(target, part_set)
        assert max(cal.residuals) < 1e-9

    @pytest.mark.parametrize("part_set", list(PartSet))
    def test_mean_approaches_target(self, part_set):
        # the calibration equations are the small-beta limit of exact mean
        # matching, so the Gibbs mean converges to the target as n2 grows
        errors = []
        for n in (10, 40, 160):
            target = Target(n, n * n)
            cal = calibrate(target, part_set)
            m1, m2 = gibbs_mean(cal.params, part_set)
            errors.append(
                max(abs(m1 - target.n1) / target.n1, abs(m2 - target.n2) / target.n2)
            )
        assert errors[0] > errors[1] > errors[2]
        assert errors[-1] < 0.01

    @pytest.mark.parametrize("part_set", list(PartSet))
    @pytest.mark.parametrize("target", DELTA_TARGETS)
    def test_delta_from_the_root_pass(self, target, part_set):
        # alpha < 1/2 at (300, 100), where Phi comes from the closed form
        cal = calibrate(target, part_set)
        p, dp, ddp = _phi_and_derivatives(cal.params.alpha)
        if part_set is PartSet.NONZERO_VECTORS:
            p += ZETA2
        assert cal.delta == 2.0 * p * ddp - dp * dp

    @pytest.mark.parametrize("part_set", list(PartSet))
    @pytest.mark.parametrize("target", DELTA_TARGETS)
    def test_delta_is_the_jacobian(self, target, part_set):
        # Delta/beta^4 is the Jacobian of (n1, n2) = (-Phi'/beta, P/beta^2)
        cal = calibrate(target, part_set)
        alpha, beta = cal.params.alpha, cal.params.beta
        zeta2 = ZETA2 if part_set is PartSet.NONZERO_VECTORS else 0.0

        def equations(a, b):
            p, dp, _ = _phi_and_derivatives(a)
            return np.array([-dp / b, (p + zeta2) / b**2])

        ha, hb = 1e-5 * alpha, 1e-5 * beta
        d_alpha = (equations(alpha + ha, beta) - equations(alpha - ha, beta)) / (2.0 * ha)
        d_beta = (equations(alpha, beta + hb) - equations(alpha, beta - hb)) / (2.0 * hb)
        jacobian = np.linalg.det(np.column_stack([d_alpha, d_beta]))
        assert cal.delta / beta**4 == pytest.approx(jacobian, rel=1e-6)

    def test_requires_positive_target(self):
        with pytest.raises(ValueError):
            calibrate(Target(0, 10), PartSet.STRICT_POSITIVE)
        with pytest.raises(ValueError):
            calibrate(Target(10, 0), PartSet.STRICT_POSITIVE)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ShapeParams(alpha=0.0, beta=1.0)
        with pytest.raises(ValueError):
            ShapeParams(alpha=1.0, beta=-2.0)
        # an infinite alpha would give phi = nan and a singular covariance
        for name, bad in itertools.product(("alpha", "beta"), (math.inf, math.nan, -math.inf)):
            refusal = f"^{name} must be finite and positive, got {bad!r}$"
            with pytest.raises(ValueError, match=refusal):
                ShapeParams(**{"alpha": 0.1, "beta": 0.1, name: bad})


class TestOrderChecks:
    @staticmethod
    def in_band(target) -> list[bool]:
        """Whether each scale ratio e^{-alpha}/(beta n1), e^{-alpha}/(beta^2 n2),
        beta n2/n1, which should stay bounded along calibrated sequences,
        lies in [1/50, 50]."""
        cal = calibrate(target, PartSet.STRICT_POSITIVE)
        alpha, beta = cal.params.alpha, cal.params.beta
        e = math.exp(-alpha)
        ratios = [e / (beta * target.n1), e / (beta**2 * target.n2), beta * target.n2 / target.n1]
        return [1.0 / 50.0 <= r <= 50.0 for r in ratios]

    def test_critical_sequence_unflagged(self):
        for n in (10, 20, 30):
            assert all(self.in_band(Target(n, n * n)))

    def test_unbalanced_sequence_flags(self):
        # far off the critical line the scale ratios leave the band
        assert not all(self.in_band(Target(1000, 100)))
