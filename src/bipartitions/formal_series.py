"""Truncated formal power series over exact coefficient rings.

Two rings are supported: plain rationals, and Laurent polynomials in a
single symbol ``a`` with rational coefficients (``a`` stands for the square
root of zeta(2) and is never substituted numerically here).  On top of the
series arithmetic, this module derives the exact correction coefficients of
the two explicit counting expansions: the rational sequence ``c_k`` and the
Laurent sequence ``cbar_k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .special_functions import sigma2


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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

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
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of Laurent element by zero")
            return LaurentA({e: c / other for e, c in self.coeffs.items()})
        if isinstance(other, LaurentA):
            return self * other.inverse()
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

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
# Coefficient rings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ring:
    """Minimal ring descriptor: constants plus coercion from rationals."""

    name: str
    zero: object
    one: object
    coerce: object  # callable rational -> ring element

    def invert(self, x):
        if isinstance(x, Fraction):
            if x == 0:
                raise AlgebraError("zero is not invertible")
            return 1 / x
        return x.inverse()


RATIONALS = Ring("Q", Fraction(0), Fraction(1), Fraction)
LAURENT = Ring(
    "Q[a, 1/a]",
    LaurentA(),
    LaurentA.from_rational(1),
    LaurentA.from_rational,
)


# ---------------------------------------------------------------------------
# Dense truncated series
# ---------------------------------------------------------------------------


class Series:
    """Dense power series truncated at a fixed order K (K+1 coefficients)."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs):
        self.ring = ring
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, ring: Ring, order: int) -> "Series":
        return cls(ring, [ring.zero] * (order + 1))

    @classmethod
    def constant(cls, ring: Ring, value, order: int) -> "Series":
        coeffs = [ring.zero] * (order + 1)
        coeffs[0] = value
        return cls(ring, coeffs)

    @classmethod
    def variable(cls, ring: Ring, order: int) -> "Series":
        coeffs = [ring.zero] * (order + 1)
        if order >= 1:
            coeffs[1] = ring.one
        return cls(ring, coeffs)

    def __getitem__(self, k: int):
        return self.coeffs[k]

    def __eq__(self, other):
        return (
            isinstance(other, Series)
            and self.ring is other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring.name, self.coeffs))

    def __repr__(self):
        return f"Series({self.ring.name}, {list(self.coeffs)!r})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        self._check(other)
        return Series(self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Series") -> "Series":
        self._check(other)
        return Series(self.ring, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Series":
        return Series(self.ring, [-a for a in self.coeffs])

    def __mul__(self, other: "Series") -> "Series":
        self._check(other)
        K = self.order
        out = [self.ring.zero] * (K + 1)
        for i, a in enumerate(self.coeffs):
            if a == self.ring.zero:
                continue
            for j in range(K + 1 - i):
                b = other.coeffs[j]
                if b != self.ring.zero:
                    out[i + j] = out[i + j] + a * b
        return Series(self.ring, out)

    def _check(self, other: "Series") -> None:
        if not isinstance(other, Series) or other.ring is not self.ring:
            raise TypeError("series ring mismatch")
        if other.order != self.order:
            raise ValueError("series truncation order mismatch")

    def scale(self, scalar) -> "Series":
        """Multiply every coefficient by a ring element or rational."""
        return Series(self.ring, [c * scalar for c in self.coeffs])

    def shift(self, k: int) -> "Series":
        """Multiply by z^k (k >= 0) or divide by z^{-k}, checking exactness."""
        if k >= 0:
            return Series(
                self.ring, ([self.ring.zero] * k + list(self.coeffs))[: self.order + 1]
            )
        drop = -k
        for j in range(min(drop, self.order + 1)):
            if self.coeffs[j] != self.ring.zero:
                raise AlgebraError(f"series is not divisible by z^{drop}")
        return Series(
            self.ring, list(self.coeffs[drop:]) + [self.ring.zero] * drop
        )

    def derivative(self) -> "Series":
        """Formal derivative, truncated back to the same order."""
        out = [
            self.coeffs[k + 1] * Fraction(k + 1) for k in range(self.order)
        ]
        out.append(self.ring.zero)
        return Series(self.ring, out)

    def inverse(self) -> "Series":
        """Multiplicative inverse; the constant term must be ring-invertible."""
        inv0 = self.ring.invert(self.coeffs[0])
        K = self.order
        out = [self.ring.zero] * (K + 1)
        out[0] = inv0
        for n in range(1, K + 1):
            acc = self.ring.zero
            for j in range(1, n + 1):
                acc = acc + self.coeffs[j] * out[n - j]
            out[n] = -(inv0 * acc)
        return Series(self.ring, out)

    def __truediv__(self, other: "Series") -> "Series":
        return self * other.inverse()

    def sqrt_of_unit(self) -> "Series":
        """Square root of a series with constant term exactly one."""
        if self.coeffs[0] != self.ring.one:
            raise AlgebraError("sqrt_of_unit requires constant term 1")
        # binomial series applied to u = self - 1 via the recurrence
        # s_{n} from s^2 = self: 2 s0 s_n = c_n - sum_{j=1}^{n-1} s_j s_{n-j}
        K = self.order
        out = [self.ring.zero] * (K + 1)
        out[0] = self.ring.one
        for n in range(1, K + 1):
            acc = self.ring.zero
            for j in range(1, n):
                acc = acc + out[j] * out[n - j]
            out[n] = (self.coeffs[n] - acc) * Fraction(1, 2)
        return Series(self.ring, out)

    def log_of_unit(self) -> "Series":
        """Logarithm of a series with constant term exactly one.

        Uses log' = self'/self so only rational scalars are introduced.
        """
        if self.coeffs[0] != self.ring.one:
            raise AlgebraError("log_of_unit requires constant term 1")
        d = self.derivative() * self.inverse()
        out = [self.ring.zero] * (self.order + 1)
        for k in range(1, self.order + 1):
            out[k] = d.coeffs[k - 1] * Fraction(1, k)
        return Series(self.ring, out)

    def compose(self, inner: "Series") -> "Series":
        """self(inner); inner must have zero constant term for exactness."""
        self._check(inner)
        if inner.coeffs[0] != self.ring.zero:
            raise AlgebraError("composition requires zero constant term")
        K = self.order
        result = Series.constant(self.ring, self.coeffs[K], K)
        for k in range(K - 1, -1, -1):  # Horner
            result = result * inner + Series.constant(self.ring, self.coeffs[k], K)
        return result

    def reverse(self) -> "Series":
        """Compositional inverse: z(w) with self(z(w)) = w.

        Requires zero constant term and a ring-invertible linear term.
        Newton iteration z <- z - (self(z) - w)/(self'(z)) in the w-ring.
        """
        if self.coeffs[0] != self.ring.zero:
            raise AlgebraError("reversion requires zero constant term")
        inv1 = self.ring.invert(self.coeffs[1])
        K = self.order
        w = Series.variable(self.ring, K)
        d = self.derivative()
        z = w.scale(inv1)
        for _ in range(max(1, math.ceil(math.log2(K + 1))) + 1):
            num = self.compose(z) - w
            den = d.compose(z)
            z_next = z - num * den.inverse()
            if z_next == z:
                break
            z = z_next
        return z


# ---------------------------------------------------------------------------
# The two coefficient pipelines
# ---------------------------------------------------------------------------


class CoeffVariant(Enum):
    UNBARRED = "c"
    BARRED = "cbar"


@dataclass(frozen=True)
class CoeffReport:
    variant: CoeffVariant
    order: int
    coefficients: tuple  # Fractions (unbarred) or LaurentA (barred)

    def lines(self) -> list[str]:
        """Golden-file textual form, one coefficient per line."""
        label = "c" if self.variant is CoeffVariant.UNBARRED else "cbar"
        out = []
        for k, c in enumerate(self.coefficients, start=1):
            if isinstance(c, LaurentA):
                out.append(f"{label}_{k} = {format_laurent(c)}")
            else:
                out.append(f"{label}_{k} = {c}")
        return out


def build_f(K: int, ring: Ring = RATIONALS) -> Series:
    """f(z) = sum_{m>=1} sigma2(m)/m^2 z^m, truncated at order K."""
    if K < 1:
        raise ValueError("build_f requires K >= 1")
    coeffs = [ring.zero]
    for m in range(1, K + 1):
        coeffs.append(ring.coerce(Fraction(sigma2(m), m * m)))
    return Series(ring, coeffs)


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
    ring = RATIONALS
    N = K  # working truncation order in w
    f = build_f(N + 1, ring)

    # f = z*F, z f' = z*F2 with F, F2 units; g = z * F2^2 / F
    F = f.shift(-1)
    F2 = f.derivative()  # = (z f')/z directly
    g = (F2 * F2 * F.inverse()).shift(1)
    g = Series(ring, g.coeffs[: N + 1])

    z_of_w = g.reverse()
    unit = z_of_w.shift(-1)  # z(w)/w, constant term 1
    f_at = f_compose(f, z_of_w)
    inner = f_at.shift(-1)  # f(z(w))/w, constant term 1
    E_shifted = -(unit.log_of_unit()) + inner.sqrt_of_unit().scale(Fraction(2))
    # E_shifted = E(w) + log w; subtract the Stirling constant 2
    if E_shifted.coeffs[0] != ring.coerce(2):
        raise AlgebraError(
            "order-0 coefficient failed to reduce to the Stirling constant"
        )
    return CoeffReport(
        variant=CoeffVariant.UNBARRED,
        order=K,
        coefficients=tuple(E_shifted.coeffs[1:K]),
    )


def f_compose(outer: Series, inner: Series) -> Series:
    """Compose after aligning truncation orders (inner decides)."""
    trimmed = Series(outer.ring, outer.coeffs[: inner.order + 1])
    return trimmed.compose(inner)


def corollary3_coeffs(K: int) -> CoeffReport:
    """Laurent-polynomial coefficients cbar_1 .. cbar_{K-1} (symbol a).

    Over the Laurent ring: fbar = a^2 + f; solve (z f'(z))^2 / fbar = w^2
    for z(w) with leading term a*w via the square root
    G(z) = z f'(z)/sqrt(fbar(z)) and reversion of G; then
    Ebar(w) = -log z(w) + (2 sqrt(fbar(z(w))) - 2a)/w and
    cbar_k = [w^k](Ebar + log w + log a - 1).  The log terms cancel at
    order 0 by construction, which is asserted.
    """
    if not (1 <= K <= MAX_ORDER_BARRED):
        raise ValueError(f"order must lie in [1, {MAX_ORDER_BARRED}]")
    ring = LAURENT
    N = K
    a = LaurentA.monomial(1, 1)
    a2 = LaurentA.monomial(1, 2)
    inv_a2 = LaurentA.monomial(1, -2)

    f = build_f(N + 1, ring)
    fbar = f + Series.constant(ring, a2, f.order)
    # sqrt(fbar) = a * sqrt(1 + f/a^2)
    sqrt_fbar = f.scale(inv_a2)
    sqrt_fbar = (
        sqrt_fbar + Series.constant(ring, ring.one, f.order)
    ).sqrt_of_unit().scale(a)
    zfp = f.derivative().shift(1)  # z f'(z)
    G = zfp * sqrt_fbar.inverse()
    G = Series(ring, G.coeffs[: N + 1])

    z_of_w = G.reverse()  # leading coefficient a
    unit = z_of_w.shift(-1).scale(LaurentA.monomial(1, -1))  # z(w)/(a w)
    if unit.coeffs[0] != ring.one:
        raise AlgebraError("reversion did not produce the expected leading term")

    f_at = f_compose(f, z_of_w)
    # (2 sqrt(fbar(z(w))) - 2a)/w over the w-ring
    sq = f_at.scale(inv_a2)
    sq = (sq + Series.constant(ring, ring.one, sq.order)).sqrt_of_unit()
    correction = (
        (sq - Series.constant(ring, ring.one, sq.order)).scale(a * Fraction(2))
    ).shift(-1)

    # Ebar + log w + log a = -log(z/(a w)) + correction
    total = -(unit.log_of_unit()) + correction
    if total.coeffs[0] != ring.one:
        raise AlgebraError("order-0 coefficient failed to cancel the log terms")
    return CoeffReport(
        variant=CoeffVariant.BARRED,
        order=K,
        coefficients=tuple(total.coeffs[1:K]),
    )
