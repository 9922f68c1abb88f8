"""Truncated formal power series with exact coefficients.

A series is a tuple of coefficients, each a Fraction or a LaurentA: a
Laurent polynomial with rational coefficients in one symbol ``a`` (``a``
stands for the square root of zeta(2) and is never substituted numerically
here).  Series arithmetic uses only the coefficients' own ``+ - * ==`` and
``Fraction(1) / c``, so Fractions and Laurent polynomials mix freely and no
ring object is needed.  On top of it, this module derives the exact
correction coefficients of the two explicit counting expansions: the
rational sequence ``c_k`` and the Laurent sequence ``cbar_k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .special_functions import sigma2

ZERO = Fraction(0)


class AlgebraError(Exception):
    """Raised when a series operation requires an invertible element."""


# ---------------------------------------------------------------------------
# Laurent polynomials in the symbol a
# ---------------------------------------------------------------------------


class LaurentA:
    """Finitely supported map exponent-of-a -> Fraction, exact arithmetic."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, Fraction] | None = None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c)
                if c != 0:
                    clean[int(e)] = c
        self.coeffs = clean

    @classmethod
    def from_rational(cls, value) -> "LaurentA":
        return cls({0: Fraction(value)})

    @classmethod
    def monomial(cls, coeff, exponent: int) -> "LaurentA":
        return cls({exponent: Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def _coerce(self, other) -> "LaurentA | None":
        if isinstance(other, LaurentA):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentA.from_rational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return LaurentA(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentA({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return LaurentA(out)

    __rmul__ = __mul__

    def inverse(self) -> "LaurentA":
        """Multiplicative inverse; only monomials are invertible here."""
        if len(self.coeffs) != 1:
            raise AlgebraError(f"cannot invert non-monomial Laurent element {self}")
        ((e, c),) = self.coeffs.items()
        return LaurentA({-e: 1 / c})

    def __truediv__(self, other):
        return self * (Fraction(1) / other)

    def __rtruediv__(self, other):
        return other * self.inverse()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"LaurentA({self.coeffs!r})"

    def __str__(self):
        return format_laurent(self)


def format_laurent(value: LaurentA) -> str:
    """Render as signed `p/q * a^e` terms, exponents descending; a^0 bare."""
    if value.is_zero():
        return "0"
    pieces = []
    for e in sorted(value.coeffs, reverse=True):
        c = value.coeffs[e]
        mag = abs(c)
        body = str(mag) if e == 0 else f"{mag} * a^{e}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# Dense truncated series
# ---------------------------------------------------------------------------


class Series:
    """Dense power series truncated at a fixed order K (K+1 coefficients)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value, order: int) -> "Series":
        return cls((value,) + (ZERO,) * order)

    @classmethod
    def variable(cls, order: int) -> "Series":
        return cls((ZERO, Fraction(1))[: order + 1] + (ZERO,) * (order - 1))

    def __eq__(self, other):
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"Series({list(self.coeffs)!r})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        self._check(other)
        return Series(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "Series") -> "Series":
        self._check(other)
        return Series(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> "Series":
        return Series(-a for a in self.coeffs)

    def __mul__(self, other: "Series") -> "Series":
        self._check(other)
        out = [ZERO] * len(self.coeffs)
        for i, a in enumerate(self.coeffs):
            if a != 0:
                for j, b in enumerate(other.coeffs[: len(out) - i]):
                    if b != 0:
                        out[i + j] += a * b
        return Series(out)

    def _check(self, other: "Series") -> None:
        if other.order != self.order:
            raise ValueError("series truncation order mismatch")

    def truncate(self, order: int) -> "Series":
        return Series(self.coeffs[: order + 1])

    def scale(self, scalar) -> "Series":
        """Multiply every coefficient by a scalar (Fraction or LaurentA)."""
        return Series(c * scalar for c in self.coeffs)

    def shift(self, k: int) -> "Series":
        """Multiply by z^k (k >= 0) or divide by z^{-k}, checking exactness."""
        n = len(self.coeffs)
        if k >= 0:
            return Series(((ZERO,) * k + self.coeffs)[:n])
        if any(c != 0 for c in self.coeffs[:-k]):
            raise AlgebraError(f"series is not divisible by z^{-k}")
        return Series((self.coeffs + (ZERO,) * -k)[-k:])

    def derivative(self) -> "Series":
        """Formal derivative, truncated back to the same order."""
        return Series([c * k for k, c in enumerate(self.coeffs) if k] + [ZERO])

    def inverse(self) -> "Series":
        """Multiplicative inverse; the constant term must be invertible."""
        c = self.coeffs
        inv0 = Fraction(1) / c[0]
        out = [inv0]
        for n in range(1, len(c)):
            acc = sum((c[j] * out[n - j] for j in range(1, n + 1)), ZERO)
            out.append(-inv0 * acc)
        return Series(out)

    def sqrt_of_unit(self) -> "Series":
        """Square root of a series with constant term exactly one."""
        if self.coeffs[0] != 1:
            raise AlgebraError("sqrt_of_unit requires constant term 1")
        # s^2 = self with s_0 = 1: 2 s_n = c_n - sum_{j=1}^{n-1} s_j s_{n-j}
        out = [Fraction(1)]
        for n in range(1, len(self.coeffs)):
            acc = sum((out[j] * out[n - j] for j in range(1, n)), ZERO)
            out.append((self.coeffs[n] - acc) / 2)
        return Series(out)

    def log_of_unit(self) -> "Series":
        """Logarithm of a series with constant term exactly one.

        Uses log' = self'/self so only rational scalars are introduced.
        """
        if self.coeffs[0] != 1:
            raise AlgebraError("log_of_unit requires constant term 1")
        d = (self.derivative() * self.inverse()).coeffs
        return Series([ZERO] + [d[k - 1] / k for k in range(1, len(d))])

    def compose(self, inner: "Series") -> "Series":
        """self(inner) at inner's order; inner must have zero constant term."""
        if inner.coeffs[0] != 0:
            raise AlgebraError("composition requires zero constant term")
        K = inner.order
        outer = self.coeffs[: K + 1]
        result = Series.constant(outer[-1], K)
        for c in reversed(outer[:-1]):  # Horner
            result = result * inner + Series.constant(c, K)
        return result

    def reverse(self) -> "Series":
        """Compositional inverse: z(w) with self(z(w)) = w.

        Requires zero constant term and an invertible linear term g1.  Each
        step of z <- z + (w - self(z))/g1 fixes one more coefficient (Brent &
        Kung, J. ACM 1978), so order - 1 steps from z = w/g1 are exact.
        """
        if self.coeffs[0] != 0:
            raise AlgebraError("reversion requires zero constant term")
        inv1 = Fraction(1) / self.coeffs[1]
        w = Series.variable(self.order)
        z = w.scale(inv1)
        for _ in range(self.order - 1):
            z = z + (w - self.compose(z)).scale(inv1)
        return z


# ---------------------------------------------------------------------------
# The two coefficient pipelines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoeffReport:
    label: str  # "c" or "cbar"
    order: int
    coefficients: tuple  # Fractions (c) or LaurentA (cbar)

    def lines(self) -> list[str]:
        """Golden-file textual form, one coefficient per line."""
        return [f"{self.label}_{k} = {c}" for k, c in enumerate(self.coefficients, 1)]


def build_f(K: int) -> Series:
    """f(z) = sum_{m>=1} sigma2(m)/m^2 z^m, truncated at order K."""
    if K < 1:
        raise ValueError("build_f requires K >= 1")
    return Series([ZERO] + [Fraction(sigma2(m), m * m) for m in range(1, K + 1)])


MAX_ORDER_UNBARRED = 8
MAX_ORDER_BARRED = 6


def corollary2_coeffs(K: int) -> CoeffReport:
    """Exact rational coefficients c_1 .. c_{K-1} of the strict expansion.

    Pipeline: g(z) = (z f'(z))^2 / f(z); revert g(z) = w; form
    E(w) = -log z(w) + 2 sqrt(f(z(w))/w); then c_k = [w^k](E + log w - 2),
    the order-0 coefficient vanishing identically.
    """
    if not (1 <= K <= MAX_ORDER_UNBARRED):
        raise ValueError(f"order must lie in [1, {MAX_ORDER_UNBARRED}]")
    f = build_f(K + 1)

    # f = z*F, z f' = z*F2 with F, F2 units; g = z * F2^2 / F
    F = f.shift(-1)
    F2 = f.derivative()  # = (z f')/z directly
    g = (F2 * F2 * F.inverse()).shift(1).truncate(K)

    z_of_w = g.reverse()
    unit = z_of_w.shift(-1)  # z(w)/w, constant term 1
    inner = f.compose(z_of_w).shift(-1)  # f(z(w))/w, constant term 1
    E_shifted = -(unit.log_of_unit()) + inner.sqrt_of_unit().scale(2)
    # E_shifted = E(w) + log w; subtract the Stirling constant 2
    if E_shifted.coeffs[0] != 2:
        raise AlgebraError(
            "order-0 coefficient failed to reduce to the Stirling constant"
        )
    return CoeffReport(label="c", order=K, coefficients=E_shifted.coeffs[1:K])


def corollary3_coeffs(K: int) -> CoeffReport:
    """Laurent-polynomial coefficients cbar_1 .. cbar_{K-1} (symbol a).

    With fbar = a^2 + f: solve (z f'(z))^2 / fbar = w^2
    for z(w) with leading term a*w via the square root
    G(z) = z f'(z)/sqrt(fbar(z)) and reversion of G; then
    Ebar(w) = -log z(w) + (2 sqrt(fbar(z(w))) - 2a)/w and
    cbar_k = [w^k](Ebar + log w + log a - 1).  The log terms cancel at
    order 0 by construction, which is asserted.
    """
    if not (1 <= K <= MAX_ORDER_BARRED):
        raise ValueError(f"order must lie in [1, {MAX_ORDER_BARRED}]")
    a = LaurentA.monomial(1, 1)
    inv_a2 = LaurentA.monomial(1, -2)

    f = build_f(K + 1)
    # sqrt(fbar) = a * sqrt(1 + f/a^2)
    one = Series.constant(Fraction(1), f.order)
    sqrt_fbar = (f.scale(inv_a2) + one).sqrt_of_unit().scale(a)
    G = (f.derivative().shift(1) * sqrt_fbar.inverse()).truncate(K)

    z_of_w = G.reverse()  # leading coefficient a
    unit = z_of_w.shift(-1).scale(1 / a)  # z(w)/(a w)
    if unit.coeffs[0] != 1:
        raise AlgebraError("reversion did not produce the expected leading term")

    # (2 sqrt(fbar(z(w))) - 2a)/w over the w-ring
    one = one.truncate(K)
    sq = (f.compose(z_of_w).scale(inv_a2) + one).sqrt_of_unit()
    correction = (sq - one).scale(2 * a).shift(-1)

    # Ebar + log w + log a = -log(z/(a w)) + correction
    total = -(unit.log_of_unit()) + correction
    if total.coeffs[0] != 1:
        raise AlgebraError("order-0 coefficient failed to cancel the log terms")
    return CoeffReport(label="cbar", order=K, coefficients=total.coeffs[1:K])
