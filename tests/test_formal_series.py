"""Unit tests for the exact series algebra and the coefficient pipelines."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipartitions import formal_series
from bipartitions.formal_series import (
    AlgebraError,
    LaurentA,
    Series,
    _powers,
    build_f,
    corollary2_coeffs,
    corollary3_coeffs,
    format_laurent,
)

fractions_st = st.fractions(
    min_value=-5, max_value=5, max_denominator=12
)


def rational_series(order, coeffs):
    return Series([Fraction(c) for c in coeffs][: order + 1])


class TestLaurentA:
    def test_arithmetic(self):
        a = LaurentA.monomial(1, 1)
        x = a * a - LaurentA.from_rational(Fraction(1, 2))
        assert x.coeffs == {2: Fraction(1), 0: Fraction(-1, 2)}
        assert (x - x).is_zero()
        assert x + 1 == LaurentA({2: 1, 0: Fraction(1, 2)})

    def test_monomial_inverse(self):
        m = LaurentA.monomial(Fraction(3, 2), -2)
        assert m * m.inverse() == 1

    def test_non_monomial_inverse_fails(self):
        with pytest.raises(AlgebraError):
            (LaurentA.monomial(1, 1) + 1).inverse()

    def test_format(self):
        x = LaurentA({1: Fraction(5, 4), -1: Fraction(-1, 4)})
        assert format_laurent(x) == "5/4 * a^1 - 1/4 * a^-1"
        assert format_laurent(LaurentA()) == "0"
        assert format_laurent(LaurentA.from_rational(Fraction(5, 8))) == "5/8"


class TestSeriesAlgebra:
    def test_geometric_inverse(self):
        one_minus_z = rational_series(6, [1, -1, 0, 0, 0, 0, 0])
        geo = one_minus_z.inverse()
        assert geo.coeffs == tuple(Fraction(1) for _ in range(7))

    @given(st.lists(fractions_st, min_size=5, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_sqrt_of_unit_squares_back(self, tail):
        s = rational_series(5, [1] + tail)
        root = s.sqrt_of_unit()
        assert root * root == s

    def test_shift_exactness(self):
        s = rational_series(4, [0, 0, 1, 2, 3])
        assert s.shift(-2).coeffs == (1, 2, 3, 0, 0)
        with pytest.raises(AlgebraError):
            rational_series(4, [0, 1, 0, 0, 0]).shift(-2)

    def test_mismatched_orders(self):
        with pytest.raises(ValueError):
            rational_series(3, [1, 0, 0, 0]) + rational_series(2, [1, 0, 0])

    def test_derivative(self):
        s = rational_series(3, [7, 1, 2, 3])
        assert s.derivative().coeffs == (1, 4, 9, 0)

    def test_mixed_laurent_coefficients(self):
        # Fractions and LaurentA mix in one series; the linear term a is a unit
        K = 5
        a = LaurentA.monomial(1, 1)
        g = Series(
            [Fraction(0), a, Fraction(-3, 2), a * a + 1, LaurentA.monomial(2, -1), Fraction(7)]
        )
        unit = g.shift(-1)  # constant term a
        inv = unit.inverse()
        assert inv.coeffs[0] == LaurentA.monomial(1, -1)
        assert inv.coeffs[1] == LaurentA.monomial(Fraction(3, 2), -2)
        assert unit * inv == Series.constant(Fraction(1), K)
        s = g.scale(a) + Series.constant(a, K)  # constant term a is a monomial
        assert s * s.inverse() == Series.constant(Fraction(1), K)
        assert Fraction(1) / a == LaurentA.monomial(1, -1)
        # a Fraction coefficient meets a Laurent one inside the square root
        mixed = Series([Fraction(1), a, Fraction(1), Fraction(0), a, Fraction(0)])
        root = mixed.sqrt_of_unit()
        assert root * root == mixed


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
            LaurentA({1: Fraction(5, 4), -1: Fraction(-1, 4)}),
            LaurentA({2: Fraction(-145, 72), 0: Fraction(5, 8)}),
            LaurentA(
                {
                    3: Fraction(6),
                    1: Fraction(-1385, 576),
                    -1: Fraction(5, 32),
                    -3: Fraction(1, 192),
                }
            ),
        )
        assert report.coefficients == expected

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
