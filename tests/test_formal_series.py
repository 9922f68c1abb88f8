"""Unit tests for the coefficient-list algebra and the coefficient pipelines."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipartitions import formal_series
from bipartitions.formal_series import (
    AlgebraError,
    _coeff,
    _derivative,
    _inverse,
    _mul,
    _powers,
    build_f,
    corollary2_coeffs,
    corollary3_coeffs,
    format_laurent,
)

FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def lists(n):
    return st.lists(FRACTIONS, min_size=n, max_size=n)


# coefficient lists of K + 1 terms, 1 <= K <= 7, alone or in pairs of one length
SERIES = st.integers(min_value=2, max_value=8).flatmap(lists)
PAIRS = st.integers(min_value=2, max_value=8).flatmap(lambda n: st.tuples(lists(n), lists(n)))


def product(a, b):
    """Truncated product by the double loop over all pairs of terms."""
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b[: len(a) - i]):
            out[i + j] += x * y
    return out


class TestSeriesAlgebra:
    def test_geometric_inverse(self):
        assert _inverse([Fraction(1), Fraction(-1)] + [Fraction(0)] * 5) == [1] * 7

    def test_derivative(self):
        assert _derivative([Fraction(c) for c in (7, 1, 2, 3)]) == [1, 4, 9, 0]

    @given(PAIRS)
    @settings(max_examples=50, deadline=None)
    def test_product_and_one_coefficient(self, pair):
        a, b = pair
        full = _mul(a, b)
        assert full == product(a, b)
        assert [_coeff(a, b, k) for k in range(len(a))] == full

    @given(SERIES.filter(lambda a: a[0] != 0))
    @settings(max_examples=50, deadline=None)
    def test_inverse(self, a):
        assert _mul(a, _inverse(a)) == [1] + [0] * (len(a) - 1)

    @given(PAIRS)
    @settings(max_examples=50, deadline=None)
    def test_leibniz(self, pair):
        # (a b)' = a' b + a b' through order K - 1; order K would need the
        # coefficients of order K + 1 that the truncation has dropped
        a, b = pair
        left = _derivative(_mul(a, b))
        right = [x + y for x, y in zip(_mul(_derivative(a), b), _mul(a, _derivative(b)))]
        assert left[:-1] == right[:-1]


class TestLagrange:
    def test_catalan(self):
        # z = w / (1 - z) is solved by z(w) = sum_k Catalan(k - 1) w^k, and
        # Lagrange inversion reads [w^k] z = [z^(k-1)] phi^k / k
        K = 9
        phi = _inverse([Fraction(1), Fraction(-1)] + [Fraction(0)] * (K - 1))
        powers = _powers(phi, 1, K)
        assert len(powers) == K - 1
        assert [p[k - 1] / k for k, p in enumerate(powers, 1)] == [
            Fraction(math.comb(2 * k, k), k + 1) for k in range(K - 1)
        ]

    def test_leading_term_is_checked(self):
        with pytest.raises(AlgebraError):
            _powers([Fraction(2), Fraction(1)], 1, 3)

    @pytest.mark.parametrize("pipeline", [corollary2_coeffs, corollary3_coeffs])
    def test_pipelines_check_the_leading_term(self, monkeypatch, pipeline):
        # doubling f makes phi(0) half the leading term of z(w)
        monkeypatch.setattr(formal_series, "build_f", lambda K: [2 * c for c in build_f(K)])
        with pytest.raises(AlgebraError, match="leading term"):
            pipeline(4)


class TestBuildF:
    def test_coefficients_are_sigma2_over_square(self):
        f = build_f(4)
        assert f == [
            Fraction(0),
            Fraction(1),
            Fraction(5, 4),
            Fraction(10, 9),
            Fraction(21, 16),
        ]

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

    def test_unbarred_by_reversion(self):
        # an oracle with no Lagrange inversion: solve z = w phi(z) by K + 1
        # fixed-point steps, each composition exact to order K, then read
        # c_k = [w^k] (H(z) - log phi(z)) with log(1 + u) as a series in u
        K = 8

        def compose(g, z):  # g(z(w)) by Horner's rule; z(0) = 0
            out = [Fraction(0)] * (K + 1)
            for c in reversed(g):
                out = product(out, z)
                out[0] += c
            return out

        def divide(a, b):  # a / b by long division; b_0 != 0
            q = []
            for n in range(K + 1):
                q.append((a[n] - sum(b[j] * q[n - j] for j in range(1, n + 1))) / b[0])
            return q

        # f_m = sigma2(m)/m^2 = sum of 1/e^2 over the divisors e of m
        f = [Fraction(0)] + [
            sum(Fraction(1, e * e) for e in range(1, m + 1) if m % e == 0)
            for m in range(1, K + 1)
        ]
        big_f = f[1:] + [Fraction(0)]  # f/z
        fprime = [m * c for m, c in enumerate(f)][1:] + [Fraction(0)]
        phi = divide(divide(big_f, fprime), fprime)
        H = [2 * c for c in divide(big_f, fprime)]
        z = [Fraction(0)] * (K + 1)
        for _ in range(K + 1):
            z = [Fraction(0)] + compose(phi, z)[:K]
        u = compose(phi, z)
        u[0] -= 1  # phi(z(w)) - 1
        log1p = [Fraction(0)] + [Fraction((-1) ** (n + 1), n) for n in range(1, K + 1)]
        c = [x - y for x, y in zip(compose(H, z), compose(log1p, u))]
        assert c[0] == 2
        assert tuple(c[1:K]) == corollary2_coeffs(K).coefficients

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
        inv_fprime = _inverse(_derivative(f))
        cbar = corollary3_coeffs(K).coefficients
        for k, laurent in enumerate(cbar, 1):
            assert set(laurent) <= set(range(-k, k + 1, 2)) and all(laurent.values())
        for a0 in (Fraction(n, 3) for n in range(1, K + 1)):
            unit = [Fraction(1)] + [c / a0**2 for c in f[1:]]
            root = [Fraction(1)]
            for n in range(1, K + 1):
                root.append((unit[n] - sum(root[j] * root[n - j] for j in range(1, n))) / 2)
            phi = _mul([a0 * c for c in root], inv_fprime)
            power = phi
            for k, laurent in enumerate(cbar, 1):
                expected = -power[k] / (k * (k + 1))
                assert sum(c * a0**e for e, c in laurent.items()) == expected
                power = _mul(power, phi)

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
