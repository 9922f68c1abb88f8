"""Exact correction coefficients of the two counting expansions.

A truncated power series here is a plain list of K + 1 Fractions, the
coefficients of z^0 .. z^K; `_mul`, `_inverse` and `_derivative` truncate
back to that length, and `_coeff` reads one coefficient of a product, the
only [z^k] reader of both pipelines.  On these lists the module derives the
exact correction coefficients of the two explicit counting expansions by
Lagrange inversion: the rational c_k, and the cbar_k, each a polynomial in
a = sqrt(zeta(2)) and 1/a, held as a dict exponent -> nonzero Fraction (a is
never substituted numerically here).  With f(z) = sum_m sigma2(m) z^m/m^2,
each expansion is read at the root z(w) of z = w phi(z), and
[w^k] H(z(w)) = (1/k) [z^(k-1)] H' phi^k for k >= 1 (Flajolet & Sedgewick,
Analytic Combinatorics, 2009, Thm A.2) gives

    c_k = [z^k] (z H' - 1) phi^k / k    (phi = f/(z f'^2), H = 2f/(z f')),
    cbar_k = -[z^k] phi^k / (k (k + 1))    (phi = sqrt(a^2 + f)/f')

from the powers of phi alone, with no series reversion, composition or log.
As f(0) = 0, the binomial series of (a^2 + f)^(k/2) = a^k (1 + f/a^2)^(k/2)
splits the second into rational series, one for each power of a:

    [z^k] phi^k = sum_{j=0..k} C(k/2, j) a^(k-2j) [z^k] f^j f'^(-k).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat

from .special_functions import sigma2

ZERO = Fraction(0)


class AlgebraError(Exception):
    """Raised when an exact identity of a coefficient pipeline fails."""


# ---------------------------------------------------------------------------
# Coefficient lists of one length
# ---------------------------------------------------------------------------


def _coeff(a: list, b: list, k: int) -> Fraction:
    """[z^k] of the product a b: sum_{i<=k} a_i b_(k-i), skipping the zero
    terms (f^j starts with j zeros)."""
    return sum((x * y for x, y in zip(a[: k + 1], b[k::-1]) if x and y), ZERO)


def _mul(a: list, b: list) -> list:
    """Product a b, truncated to the length of a."""
    return [_coeff(a, b, k) for k in range(len(a))]


def _inverse(a: list) -> list:
    """Multiplicative inverse; a_0 must be nonzero."""
    inv0 = Fraction(1) / a[0]
    out = [inv0]
    for n in range(1, len(a)):
        # the ZERO stands in for the unknown out_n, which a_0 would multiply
        out.append(-inv0 * _coeff(a, out + [ZERO], n))
    return out


def _derivative(a: list) -> list:
    """Formal derivative, truncated back to the same length."""
    return [k * c for k, c in enumerate(a) if k] + [ZERO]


# ---------------------------------------------------------------------------
# The two coefficient pipelines
# ---------------------------------------------------------------------------


def format_laurent(coeffs: dict[int, Fraction]) -> str:
    """Render exponent -> nonzero Fraction as signed `p/q * a^e` terms,
    exponents descending; a^0 bare."""
    if not coeffs:
        return "0"
    pieces = []
    for e in sorted(coeffs, reverse=True):
        c = coeffs[e]
        mag = abs(c)
        body = str(mag) if e == 0 else f"{mag} * a^{e}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


@dataclass(frozen=True)
class CoeffReport:
    label: str  # "c" or "cbar"
    coefficients: tuple  # Fractions (c) or dicts exponent-of-a -> Fraction (cbar)

    def lines(self) -> list[str]:
        """Golden-file textual form, one coefficient per line."""
        return [
            f"{self.label}_{k} = {format_laurent(c) if isinstance(c, dict) else c}"
            for k, c in enumerate(self.coefficients, 1)
        ]


def build_f(K: int) -> list:
    """f(z) = sum_{m>=1} sigma2(m)/m^2 z^m, truncated at order K."""
    if K < 1:
        raise ValueError("build_f requires K >= 1")
    return [ZERO] + [Fraction(sigma2(m), m * m) for m in range(1, K + 1)]


MAX_ORDER_UNBARRED = 8
MAX_ORDER_BARRED = 6


def _powers(phi: list, lead, K: int) -> list[list]:
    """phi^1 .. phi^(K-1) by K - 2 products; phi(0) must be lead, the leading
    term of z(w) = lead w + ..., or the log terms do not cancel at order 0."""
    if phi[0] != lead:
        raise AlgebraError(f"phi(0) = {phi[0]} is not the leading term {lead}")
    return list(accumulate(repeat(phi, K - 1), _mul))


def corollary2_coeffs(K: int) -> CoeffReport:
    """Exact rational coefficients c_1 .. c_{K-1} of the strict expansion.

    c_k = [w^k](E + log w - 2), where E(w) = -log z + 2 sqrt(f(z)/w) at the
    root z(w) of w = (z f')^2/f.  That equation is z = w phi(z) with
    phi = f/(z f'^2), and sqrt(f/w) = f/(z f'), so E + log w = -log phi(z)
    + H(z) with H = 2f/(z f').  Lagrange inversion then gives
    c_k = [z^k] (z H' - 1) phi^k / k.  H(0) = 2 (the Stirling constant) and
    phi(0) = 1 make the order-0 coefficient vanish; both are checked.
    """
    if not (1 <= K <= MAX_ORDER_UNBARRED):
        raise ValueError(f"order must lie in [1, {MAX_ORDER_UNBARRED}]")
    f = build_f(K)
    inv_fprime = _inverse(_derivative(f))  # f'(0) = 1 makes f' a unit
    G = _mul(f[1:] + [ZERO], inv_fprime)  # f/(z f'), with f/z = f[1:] as f(0) = 0
    H = [2 * c for c in G]
    if H[0] != 2:
        raise AlgebraError("H(0) is not the Stirling constant 2")
    weight = [k * c for k, c in enumerate(H)]  # z H' - 1
    weight[0] -= 1
    powers = _powers(_mul(G, inv_fprime), 1, K)
    coefficients = tuple(_coeff(weight, p, k) / k for k, p in enumerate(powers, 1))
    return CoeffReport(label="c", coefficients=coefficients)


def corollary3_coeffs(K: int) -> CoeffReport:
    """Coefficients cbar_1 .. cbar_{K-1}, each a dict exponent-of-a -> Fraction.

    cbar_k = [w^k](Ebar + log w + log a - 1), where fbar = a^2 + f and
    Ebar(w) = -log z + (2 sqrt(fbar(z)) - 2a)/w at the root z(w) of
    w = z f'/sqrt(fbar).  That equation is z = w phi(z) with
    phi = sqrt(fbar)/f', and H = 2 sqrt(fbar) satisfies H' phi = 1, so
    Lagrange inversion gives cbar_k = -[z^k] phi^k / (k (k + 1)), and the
    binomial series gives [z^k] phi^k = sum_j C(k/2, j) a^(k-2j) [z^k] f^j/f'^k.
    phi(0) = a/f'(0) must be a, the leading term of z(w), for the log terms to
    cancel at order 0; that is f'(0) = 1, and it is checked.
    """
    if not (1 <= K <= MAX_ORDER_BARRED):
        raise ValueError(f"order must lie in [1, {MAX_ORDER_BARRED}]")
    f = build_f(K)
    inv_powers = _powers(_inverse(_derivative(f)), 1, K)  # f'^-1 .. f'^-(K-1)
    f_powers = list(accumulate(repeat(f, K - 1), _mul, initial=[Fraction(1)] + [ZERO] * K))
    coefficients = []
    for k, g in enumerate(inv_powers, 1):
        binom, laurent = Fraction(-1, k * (k + 1)), {}  # -C(k/2, j) / (k (k + 1))
        for j, fj in enumerate(f_powers[: k + 1]):
            value = binom * _coeff(fj, g, k)
            if value:
                laurent[k - 2 * j] = value
            binom *= (Fraction(k, 2) - j) / (j + 1)
        coefficients.append(laurent)
    return CoeffReport(label="cbar", coefficients=tuple(coefficients))
