"""Unit tests for the exact series algebra and the coefficient pipelines."""

import math
from fractions import Fraction

import pytest

from bipartitions import formal_series
from bipartitions.formal_series import (
    AlgebraError,
    Series,
    _powers,
    build_f,
    corollary2_coeffs,
    corollary3_coeffs,
    format_laurent,
)


def rational_series(order, coeffs):
    return Series([Fraction(c) for c in coeffs][: order + 1])


class TestSeriesAlgebra:
    def test_geometric_inverse(self):
        one_minus_z = rational_series(6, [1, -1, 0, 0, 0, 0, 0])
        geo = one_minus_z.inverse()
        assert geo.coeffs == tuple(Fraction(1) for _ in range(7))

    def test_shift_exactness(self):
        s = rational_series(4, [0, 0, 1, 2, 3])
        assert s.shift(-2).coeffs == (1, 2, 3, 0, 0)
        with pytest.raises(AlgebraError):
            rational_series(4, [0, 1, 0, 0, 0]).shift(-2)

    def test_mismatched_orders(self):
        with pytest.raises(ValueError):
            rational_series(3, [1, 0, 0, 0]) * rational_series(2, [1, 0, 0])

    def test_derivative(self):
        s = rational_series(3, [7, 1, 2, 3])
        assert s.derivative().coeffs == (1, 4, 9, 0)


class TestLagrange:
    def test_catalan(self):
        # z = w / (1 - z) is solved by z(w) = sum_k Catalan(k - 1) w^k, and
        # Lagrange inversion reads [w^k] z = [z^(k-1)] phi^k / k
        K = 9
        phi = Series([Fraction(1), Fraction(-1)] + [Fraction(0)] * (K - 1)).inverse()
        powers = _powers(phi, 1, K)
        assert len(powers) == K - 1
        assert [p.coeffs[k - 1] / k for k, p in enumerate(powers, 1)] == [
            Fraction(math.comb(2 * k, k), k + 1) for k in range(K - 1)
        ]

    def test_leading_term_is_checked(self):
        with pytest.raises(AlgebraError):
            _powers(Series([Fraction(2), Fraction(1)]), 1, 3)

    @pytest.mark.parametrize("pipeline", [corollary2_coeffs, corollary3_coeffs])
    def test_pipelines_check_the_leading_term(self, monkeypatch, pipeline):
        # doubling f makes phi(0) half the leading term of z(w)
        monkeypatch.setattr(
            formal_series, "build_f", lambda K: build_f(K).scale(Fraction(2))
        )
        with pytest.raises(AlgebraError, match="leading term"):
            pipeline(4)


class TestBuildF:
    def test_coefficients_are_sigma2_over_square(self):
        f = build_f(4)
        assert f.coeffs == (
            Fraction(0),
            Fraction(1),
            Fraction(5, 4),
            Fraction(10, 9),
            Fraction(21, 16),
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            build_f(0)


class TestCoefficientPipelines:
    def test_unbarred_exact(self):
        report = corollary2_coeffs(6)
        assert report.label == "c"
        assert report.coefficients == (
            Fraction(5, 4),
            Fraction(-805, 288),
            Fraction(6731, 576),
            Fraction(-133046081, 2073600),
            Fraction(170097821, 414720),
        )

    def test_barred_exact(self):
        report = corollary3_coeffs(4)
        assert report.label == "cbar"
        expected = (
            {1: Fraction(5, 4), -1: Fraction(-1, 4)},
            {2: Fraction(-145, 72), 0: Fraction(5, 8)},
            {3: Fraction(6), 1: Fraction(-1385, 576), -1: Fraction(5, 32), -3: Fraction(1, 192)},
        )
        assert report.coefficients == expected

    def test_barred_at_rational_a(self):
        # phi = a0 sqrt(1 + f/a0^2)/f' at rational a0, the square root by the
        # recurrence s_n = (u_n - sum_{0<j<n} s_j s_{n-j})/2 of s^2 = u, s_0 = 1;
        # cbar_k has exponents -k, 2 - k, .., k, so agreement at k + 1 values of
        # a0^2 fixes it, and six values cover k = 1..5
        K = 6
        f = build_f(K)
        inv_fprime = f.derivative().inverse()
        cbar = corollary3_coeffs(K).coefficients
        for k, laurent in enumerate(cbar, 1):
            assert set(laurent) <= set(range(-k, k + 1, 2)) and all(laurent.values())
        for a0 in (Fraction(n, 3) for n in range(1, K + 1)):
            unit = [Fraction(1)] + [c / a0**2 for c in f.coeffs[1:]]
            root = [Fraction(1)]
            for n in range(1, K + 1):
                root.append((unit[n] - sum(root[j] * root[n - j] for j in range(1, n))) / 2)
            phi = Series(root).scale(a0) * inv_fprime
            power = phi
            for k, laurent in enumerate(cbar, 1):
                expected = -power.coeffs[k] / (k * (k + 1))
                assert sum(c * a0**e for e, c in laurent.items()) == expected
                power = power * phi

    def test_format_laurent(self):
        assert format_laurent({1: Fraction(5, 4), -1: Fraction(-1, 4)}) == "5/4 * a^1 - 1/4 * a^-1"
        assert format_laurent({}) == "0"
        assert format_laurent({0: Fraction(5, 8)}) == "5/8"

    def test_lines_format(self):
        assert corollary2_coeffs(2).lines() == ["c_1 = 5/4"]
        assert corollary3_coeffs(2).lines() == ["cbar_1 = 5/4 * a^1 - 1/4 * a^-1"]

    def test_prefixes_are_stable(self):
        # higher truncation orders must reproduce the lower-order values
        low = corollary2_coeffs(3).coefficients
        high = corollary2_coeffs(8).coefficients
        assert high[: len(low)] == low
        low_b = corollary3_coeffs(3).coefficients
        high_b = corollary3_coeffs(6).coefficients
        assert high_b[: len(low_b)] == low_b

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            corollary2_coeffs(0)
        with pytest.raises(ValueError):
            corollary2_coeffs(9)
        with pytest.raises(ValueError):
            corollary3_coeffs(7)
