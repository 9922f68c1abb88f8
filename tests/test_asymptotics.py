"""Unit tests for log Z, its expansion, Gibbs moments and the rate functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipartitions.asymptotics import (
    MAX_EXPANSION_ORDER,
    gibbs_covariance,
    gibbs_mean,
    log_z_direct,
    log_z_expansion,
    rate_function,
    rate_table,
    theorem_estimate,
)
from bipartitions.calibration import ShapeParams, calibrate
from bipartitions.exact_count import PartSet, Target, count_table
from bipartitions.formal_series import corollary2_coeffs, corollary3_coeffs
from bipartitions.special_functions import ZETA2, dirichlet, phi, psi


def brute_force_log_z(a: float, b: float, part_set: PartSet) -> float:
    """Independent oracle: truncated double sum of -log(1 - e^{-<lambda,x>})."""
    m1 = int(80.0 / a) + 2
    m2 = int(80.0 / b) + 2
    total = 0.0
    nonzero = part_set is PartSet.NONZERO_VECTORS
    for x1 in range(0 if nonzero else 1, m1):
        for x2 in range(0 if nonzero else 1, m2):
            if x1 == 0 and x2 == 0:
                continue
            total += -math.log(-math.expm1(-(a * x1 + b * x2)))
    return total


class TestLogZDirect:
    @pytest.mark.parametrize("part_set", list(PartSet))
    def test_against_brute_force(self, part_set):
        params = ShapeParams(1.0, 0.5)
        assert log_z_direct(params, part_set) == pytest.approx(
            brute_force_log_z(1.0, 0.5, part_set), abs=1e-9
        )

    def test_frozen_value(self):
        assert log_z_direct(ShapeParams(1.0, 0.1), PartSet.STRICT_POSITIVE) == (
            pytest.approx(5.949271510886169, rel=1e-11)
        )

    @given(
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=0.2, max_value=3.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_axis_contribution(self, a, b):
        # the nonzero part set adds two independent 1-D factors
        params = ShapeParams(a, b)
        gap = log_z_direct(params, PartSet.NONZERO_VECTORS) - log_z_direct(
            params, PartSet.STRICT_POSITIVE
        )
        assert gap == pytest.approx(psi(a) + psi(b), abs=1e-10)

    def test_symmetry(self):
        for ps in PartSet:
            assert log_z_direct(ShapeParams(0.7, 1.9), ps) == pytest.approx(
                log_z_direct(ShapeParams(1.9, 0.7), ps), rel=1e-12
            )


class TestExpansion:
    def test_structure(self):
        params = ShapeParams(1.0, 0.01)
        exp = log_z_expansion(params, PartSet.STRICT_POSITIVE, m=4)
        assert exp.leading == pytest.approx(dirichlet(1.0, 2.0) / 0.01, rel=1e-12)
        assert len(exp.terms) == 5
        assert exp.terms[2] == 0.0  # the k = 2 zeta factor vanishes
        assert exp.terms[4] == 0.0
        assert exp.value == pytest.approx(exp.leading + sum(exp.terms), rel=1e-14)

    @pytest.mark.parametrize("beta", [0.05, 0.01, 0.002])
    def test_accuracy_improves_with_order(self, beta):
        params = ShapeParams(1.0, beta)
        direct = log_z_direct(params, PartSet.STRICT_POSITIVE)
        err0 = abs(direct - log_z_expansion(params, PartSet.STRICT_POSITIVE, 0).value)
        err1 = abs(direct - log_z_expansion(params, PartSet.STRICT_POSITIVE, 1).value)
        assert err1 < err0
        assert err1 < 0.5 * beta**2  # remainder after the beta^1 term

    def test_rejects_nonzero_part_set(self):
        with pytest.raises(ValueError):
            log_z_expansion(ShapeParams(1.0, 0.1), PartSet.NONZERO_VECTORS, 2)

    def test_order_bounds(self):
        params = ShapeParams(1.0, 0.1)
        with pytest.raises(ValueError):
            log_z_expansion(params, PartSet.STRICT_POSITIVE, -1)
        with pytest.raises(ValueError):
            log_z_expansion(params, PartSet.STRICT_POSITIVE, MAX_EXPANSION_ORDER + 1)

    @pytest.mark.parametrize("beta", [0.05, 0.02, 0.01])
    def test_nonzero_remark(self, beta):
        params = ShapeParams(1.0, beta)
        direct = log_z_direct(params, PartSet.NONZERO_VECTORS)
        # the paper's small-beta expansion, truncated after the beta^1 term
        approx = (
            (phi(1.0) + ZETA2) / beta
            + 0.5 * math.log(beta)
            + 0.5 * psi(1.0)
            - 0.5 * math.log(2.0 * math.pi)
            + (dirichlet(1.0, 0.0) / 12.0 - 1.0 / 24.0) * beta
        )
        assert abs(direct - approx) < 2.0 * beta**2


class TestGibbsMoments:
    @pytest.mark.parametrize("part_set", list(PartSet))
    def test_mean_is_gradient(self, part_set):
        a, b, h = 0.8, 0.6, 1e-5
        m1, m2 = gibbs_mean(ShapeParams(a, b), part_set)
        fd1 = -(
            log_z_direct(ShapeParams(a + h, b), part_set)
            - log_z_direct(ShapeParams(a - h, b), part_set)
        ) / (2 * h)
        fd2 = -(
            log_z_direct(ShapeParams(a, b + h), part_set)
            - log_z_direct(ShapeParams(a, b - h), part_set)
        ) / (2 * h)
        assert m1 == pytest.approx(fd1, rel=1e-7)
        assert m2 == pytest.approx(fd2, rel=1e-7)

    @pytest.mark.parametrize("part_set", list(PartSet))
    def test_covariance_is_hessian(self, part_set):
        a, b, h = 0.8, 0.6, 1e-3
        cov = gibbs_covariance(ShapeParams(a, b), part_set)

        def lz(x, y):
            return log_z_direct(ShapeParams(x, y), part_set)

        faa = (lz(a + h, b) - 2 * lz(a, b) + lz(a - h, b)) / h**2
        fbb = (lz(a, b + h) - 2 * lz(a, b) + lz(a, b - h)) / h**2
        fab = (
            lz(a + h, b + h) - lz(a + h, b - h) - lz(a - h, b + h) + lz(a - h, b - h)
        ) / (4 * h**2)
        assert cov[0][0] == pytest.approx(faa, rel=1e-5)
        assert cov[1][1] == pytest.approx(fbb, rel=1e-5)
        assert cov[0][1] == pytest.approx(fab, rel=1e-5)

    @pytest.mark.parametrize("part_set", list(PartSet))
    def test_covariance_positive_definite(self, part_set):
        cov = np.array(gibbs_covariance(ShapeParams(1.2, 0.4), part_set))
        assert cov[0][1] == cov[1][0]
        assert np.linalg.eigvalsh(cov).min() > 0


class TestTheoremEstimate:
    @pytest.mark.parametrize("part_set", list(PartSet))
    def test_close_to_exact_at_desk_scale(self, part_set):
        target = Target(20, 400)
        exact = count_table(part_set, 20, 400).get(20, 400)
        est = theorem_estimate(target, part_set)
        assert abs(math.log(exact) - est.log_value) < 0.1
        assert est.log_value == pytest.approx(
            est.exponent + est.log_prefactor, rel=1e-14
        )

    @pytest.mark.parametrize("part_set", list(PartSet))
    @pytest.mark.parametrize("n1, n2", [(10, 100), (20, 400), (60, 3600), (3, 900), (100, 400)])
    def test_exponent_is_calibrated(self, part_set, n1, n2):
        # (alpha t + 2 sqrt(P)) sqrt(n2) = alpha n1 + 2 beta n2 at the
        # calibration's own (alpha, beta); a second Phi pass drifts by ~1e-13
        params = calibrate(Target(n1, n2), part_set).params
        exponent = theorem_estimate(Target(n1, n2), part_set).exponent
        assert exponent == pytest.approx(
            params.alpha * n1 + 2.0 * params.beta * n2, rel=1e-15, abs=0.0
        )


class TestRates:
    def test_frozen_values(self):
        assert rate_function(1.0, PartSet.STRICT_POSITIVE) == pytest.approx(
            2.5560216988296216, rel=1e-10
        )
        assert rate_function(1.0, PartSet.NONZERO_VECTORS) == pytest.approx(
            3.9860230845073596, rel=1e-10
        )

    def test_barred_dominates(self):
        for t in (0.05, 0.5, 1.0, 3.0):
            assert rate_function(t, PartSet.NONZERO_VECTORS) > rate_function(
                t, PartSet.STRICT_POSITIVE
            )

    def test_small_t_endpoints(self):
        # h vanishes at 0+ while h-bar tends to pi * sqrt(2/3)
        assert rate_function(1e-3, PartSet.STRICT_POSITIVE) < 0.02
        assert rate_function(1e-3, PartSet.NONZERO_VECTORS) > math.pi * math.sqrt(
            2.0 / 3.0
        )

    @pytest.mark.parametrize("K", [0, 1, 2])
    def test_exact_coefficients_match(self, K):
        # h(t) = t (2 - log t^2 + sum_{k<=K} c_k t^{2k}) + O(t^{2K+3}); K >= 3
        # reaches the ~4e-13 floor that theta_roots' tolerance sets
        c = corollary2_coeffs(8).coefficients

        def residual(t):
            series = sum(float(c[k - 1]) * t ** (2 * k) for k in range(1, K + 1))
            return rate_function(t, PartSet.STRICT_POSITIVE) - t * (
                2.0 - math.log(t * t) + series
            )

        slope = math.log2(abs(residual(0.05) / residual(0.025)))
        assert slope == pytest.approx(2 * K + 3, abs=0.1)

    @pytest.mark.parametrize("K", [0, 1, 2, 3])
    @pytest.mark.parametrize("t", [0.01, 0.005])
    def test_barred_coefficients_match(self, K, t):
        # h_bar(t) = 2a + t (1 - log a - log t + sum_{k<=K} cbar_k t^k)
        # + cbar_{K+1} t^{K+2} (1 + O(t)), with a = sqrt(zeta(2)); the O(t)
        # reads 1.8 t (K = 0) to 5.3 t (K = 3)
        a = math.sqrt(ZETA2)
        cbar = [
            sum(float(c) * a**e for e, c in coeff.items())
            for coeff in corollary3_coeffs(K + 2).coefficients
        ]
        series = sum(cbar[k - 1] * t**k for k in range(1, K + 1))
        residual = rate_function(t, PartSet.NONZERO_VECTORS) - (
            2.0 * a + t * (1.0 - math.log(a) - math.log(t) + series)
        )
        assert abs(residual / (cbar[K] * t ** (K + 2)) - 1.0) <= 6.0 * t

    @pytest.mark.parametrize("t", [1e-3, 0.5, 1.0, 7.0])
    def test_one_point_table_is_rate_function(self, t):
        h = rate_function(t, PartSet.STRICT_POSITIVE)
        h_bar = rate_function(t, PartSet.NONZERO_VECTORS)
        assert rate_table([t]) == [(t, h, h_bar)]

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_table_refuses_bad_ratio(self, bad):
        with pytest.raises(ValueError, match="target ratio must be a positive real"):
            rate_table([0.5, bad])

    def test_table_shape(self):
        rows = rate_table([0.5, 1.0])
        assert len(rows) == 2
        t, h, hbar = rows[1]
        assert t == 1.0 and hbar > h

    def test_domain(self):
        with pytest.raises(ValueError):
            rate_function(0.0, PartSet.STRICT_POSITIVE)
