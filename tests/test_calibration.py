"""Unit tests for the shape-parameter calibration solver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipartitions import calibration, special_functions
from bipartitions.asymptotics import gibbs_mean
from bipartitions.calibration import (
    ShapeParams,
    calibrate,
    order_checks,
    solve_theta,
)
from bipartitions.exact_count import PartSet, Target
from bipartitions.special_functions import _phi_and_derivatives, theta


class TestSolveTheta:
    @given(
        st.floats(min_value=1e-3, max_value=50.0),
        st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_inverse_property(self, t, barred):
        alpha = solve_theta(t, barred)
        assert theta(alpha, barred) == pytest.approx(t, rel=1e-10)

    def test_decreasing_in_t(self):
        # Theta falls from +inf to 0, so its inverse falls as well
        alphas = [solve_theta(t, False) for t in (0.1, 0.5, 1.0, 5.0, 20.0)]
        assert alphas == sorted(alphas, reverse=True)

    @pytest.mark.parametrize("barred", [False, True])
    def test_tiny_ratio(self, barred):
        # the strict root (alpha ~ 460) lies where Phi^{3/2} has underflowed
        alpha = solve_theta(1e-100, barred)
        assert theta(alpha, barred) == pytest.approx(1e-100, rel=1e-10)

    @pytest.mark.parametrize("t", [1e-113, 1e-150])
    def test_ratio_beyond_the_doubling_search(self, t):
        # the strict root lies in (512, 709.78): the doubling search overshoots
        # to alpha = 1024, where Phi is 0.0, and must bisect back below it
        alpha = solve_theta(t, False)
        assert 512.0 < alpha < 709.78
        assert theta(alpha) == pytest.approx(t, rel=1e-10)

    def test_series_passes(self, monkeypatch):
        # the 100-point default `bipart rates` grid plus three extreme ratios,
        # both variants: 206 solves in fewer than 2000 (Phi, Phi', Phi'') passes
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return _phi_and_derivatives(*args, **kwargs)

        monkeypatch.setattr(special_functions, "_phi_and_derivatives", counted)
        monkeypatch.setattr(calibration, "_phi_and_derivatives", counted)
        grid = [0.01 + i * (4.0 - 0.01) / 99 for i in range(100)] + [1e-3, 50.0, 1e5]
        roots = [(t, b, solve_theta(t, b)) for b in (False, True) for t in grid]
        assert len(calls) < 2000
        for t, barred, alpha in roots:
            assert theta(alpha, barred) == pytest.approx(t, rel=1e-10)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            solve_theta(bad, False)


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


class TestOrderChecks:
    def test_critical_sequence_unflagged(self):
        for n in (10, 20, 30):
            cal = calibrate(Target(n, n * n), PartSet.STRICT_POSITIVE)
            report = order_checks(cal)
            assert report["flagged"] == []
            assert set(report["ratios"]) == {
                "exp_over_beta_n1",
                "exp_over_beta2_n2",
                "beta_n2_over_n1",
            }

    def test_unbalanced_sequence_flags(self):
        # far off the critical line the scale ratios leave the band
        cal = calibrate(Target(1000, 100), PartSet.STRICT_POSITIVE)
        assert order_checks(cal)["flagged"]
