"""Auxiliary series evaluators: Phi, Psi, Theta, the Dirichlet-type sums
D_alpha(s), the squared-divisor function, and exact zeta values at
non-positive integers via Bernoulli numbers.

Every infinite r-series of the package is summed by one numpy-blocked kernel,
:func:`_series`, whose tail bound is below the absolute tolerance DEFAULT_TOL;
as every geometric factor comes from expm1, results are within DEFAULT_TOL
plus rounding of a few eps * |value|, also at small alpha, and relative to
the first term for the Dirichlet-type sums beyond alpha = log 2.  Below
alpha = 1/2, where the series would need ~35/alpha terms, Phi = D_alpha(2)
and Psi = D_alpha(1) come from closed forms with stated remainder bounds
instead.  Derivatives always come from the differentiated series or closed
form, never from finite differences.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

ZETA2 = math.pi**2 / 6

DEFAULT_TOL = 1e-12

# a block's cost is mostly per-call overhead, so the first block holds the
# ~60 terms that alpha >= 0.5 needs at DEFAULT_TOL; later blocks double up to
# caps on the terms per series and on the cells (terms x series) of a block.
# Every block holds at least _FIRST_BLOCK terms per series, so these caps do not
# bound the memory of a tall stack: one (Phi, Phi', Phi'') pass over 20,000
# stacked alphas peaks at 62.6 MB traced (1,024 alphas: 3.2 MB), and
# _phi_and_derivatives stacks at most MAX_STACK alphas per pass.
_FIRST_BLOCK = 64
_MAX_BLOCK = 4096
_MAX_BLOCK_CELLS = 2**18
MAX_STACK = 1024
_MAX_TERMS = 100_000_000
_TINY = np.finfo(float).tiny

# Below _CLOSED_FORM_ALPHA, D_alpha(2) and D_alpha(1) and their first two
# derivatives come from closed forms, not from the r-sum.  G0 has Mellin
# transform Gamma(w) zeta(w), so D_alpha(2) is the inverse transform of
# Gamma(w) zeta(w) zeta(w + 2) alpha^-w; its residues at w = 1, 0, -1 (a
# double pole) and at the odd w = -3 .. -15 give
#   zeta(3)/alpha - zeta(2)/2 + alpha ((1 - log alpha)/12 - zeta'(-1))
#   - sum_{odd j=3..15} zeta(-j) zeta(2-j) alpha^j / j!
# (Flajolet, Gourdon and Dumas, TCS 1995).  The rest is the integral on
# Re w = -16; the functional equation, applied to both zetas, bounds its k-th
# derivative by _MELLIN_BOUND[k] alpha^(16-k), the constants being
# (2 pi)^-32 zeta(17) zeta(15) int |Gamma(15 + iy) (-16 + iy)_k| dy rounded up.
# D_alpha(1) = -log prod_n (1 - e^{-alpha n}) is exact by the Dedekind eta
# transformation (Apostol, Modular Functions and Dirichlet Series, ch. 3):
#   zeta(2)/alpha + log(alpha/(2 pi))/2 - alpha/24 + D_{4 pi^2/alpha}(1),
# and for alpha <= 1/2 the k-th alpha-derivative of the dual sum is below
# 2 exp(-4 pi^2/alpha) ((4 pi^2 + 2 alpha)/alpha^2)^k.
_CLOSED_FORM_ALPHA = 0.5
_MELLIN_ORDER = 16
_MELLIN_BOUND = (2.44e-14, 4.01e-13, 6.22e-12)
_ZETA3 = 1.2020569031595942
_DZETA_M1 = -0.16542114370045094  # zeta'(-1)
_HALF_LOG_2PI = 0.9189385332046728
_FOUR_PI2 = 4.0 * math.pi**2


def _check_alpha(alpha) -> None:
    a = np.asarray(alpha)
    # nan fails both comparisons
    if not (a.dtype.kind in "iuf" and a.ndim <= 1 and a.size and 0 < a.min() and a.max() < np.inf):
        raise ValueError(f"alpha must be a finite positive real, got {alpha!r}")


def _geometric(x, order: int) -> list:
    """[G0, ..., G_order] at x, with G0 = 1/(e^x - 1) = sum_{k>=1} e^{-kx} and
    G_{k+1} = -G_k'.  Real x takes expm1: accurate as x -> 0, exactly 0 past x ~ 709.78.
    Complex x (Re x > 0) takes e^{-x}/(1 - e^{-x}), 0 far out, where 1/expm1 is nan.

    -d/dx = g (1 + g) d/dg at g = G0, so G_k = G1 R_k(g) for k >= 1, where
    G1 = g (1 + g), R_1 = 1 and R_{k+1} = (1 + 2g) R_k + g (1 + g) R_k': the
    coefficients are positive (R_4 = 1 + 14g + 36g^2 + 24g^3), so for real x
    no term cancels."""
    if np.iscomplexobj(x):
        m = -x
        g = [np.exp(m) / -np.expm1(m)]
    else:
        with np.errstate(over="ignore"):
            g = [1.0 / np.expm1(x)]
    if order:
        g.append(g[0] * (1.0 + g[0]))
    coef = [1.0]  # R_k, lowest power first
    for _ in range(order - 1):
        # [g^j] R_{k+1} = (j + 1) ([g^j] R_k + [g^(j-1)] R_k)
        coef = [(j + 1.0) * (c + p) for j, (c, p) in enumerate(zip(coef + [0.0], [0.0] + coef))]
        r = coef[-1]
        for c in coef[-2::-1]:
            r = r * g[0] + c
        g.append(g[1] * r)
    return g


def _series(block, decay: float, growth: float, tol: float = DEFAULT_TOL):
    """Sum block(r) over r = 1, 2, ... in numpy blocks of r; returns
    (value, terms, tail_bound), value holding one sum per stacked series.

    ``block`` maps an array of r to the terms, or to several series stacked
    on leading axes (such as one row block per alpha).  Each must obey
    |t(r+1)| <= q_r |t(r)| with q_r = e^{-decay} ((r+1)/r)^growth, growth >= 0.
    q_r falls with r, so once q_r < 1 the tail after r is at most
    |t(r)| q_r / (1 - q_r); the sum stops at the first r where that is below tol for
    every series: absolute in the terms' units, so relative to u for a series scaled
    by 1/u (tol is DEFAULT_TOL but in `gibbs.pair_rates`, its TV budget).
    A block with a term that is not finite raises ValueError naming its r.
    """
    parts = []
    start, size = 1, _FIRST_BLOCK
    while start <= _MAX_TERMS:
        r = np.arange(start, start + size, dtype=float)
        q = math.exp(-decay) * ((r + 1.0) / r) ** growth
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            terms = block(r).reshape(-1, size)
            largest = np.abs(terms).max(axis=0)
            tails = np.where(q < 1.0, largest * q / (1.0 - q), np.inf)
        if not math.isfinite(largest.max()):  # nan propagates through max
            raise ValueError(f"series term at r = {r[~np.isfinite(largest)][0]:.0f} is not finite")
        done = np.flatnonzero(tails < tol)
        stop = int(done[0]) + 1 if done.size else size
        parts.append(terms[:, :stop].sum(axis=1))
        if done.size:
            return sum(parts).tolist(), start + stop - 1, float(tails[stop - 1])
        start += size
        size = max(_FIRST_BLOCK, min(2 * size, _MAX_BLOCK, _MAX_BLOCK_CELLS // len(terms)))
    raise ValueError("series failed to converge within the term cap")


@lru_cache(maxsize=None)
def _mellin_polys() -> tuple[np.ndarray, ...]:
    """Coefficients in alpha, highest power first as np.polyval takes them, of
    -sum_{odd j=3..15} zeta(-j) zeta(2-j) alpha^j/j! and of its first two
    derivatives, from the exact zeta_neg."""
    c = np.zeros(_MELLIN_ORDER)
    for j in range(3, _MELLIN_ORDER, 2):
        c[-1 - j] = -zeta_neg(j) * zeta_neg(j - 2) / math.factorial(j)
    return c, np.polyder(c), np.polyder(c, 2)


def _closed_form(a: np.ndarray, s: float) -> np.ndarray:
    """Rows [D, D', D''] of D_a(s), s in {1, 2}, by the closed forms above,
    without the remainder that _closed_form_bound bounds."""
    log_a = np.log(a)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if s == 1.0:
            return np.stack([
                ZETA2 / a + 0.5 * log_a - _HALF_LOG_2PI - a / 24.0,
                -ZETA2 / a / a + 0.5 / a - 1.0 / 24.0,
                2.0 * ZETA2 / a / a / a - 0.5 / a / a,
            ])
        c, dc, ddc = _mellin_polys()
        return np.stack([
            _ZETA3 / a - 0.5 * ZETA2 + a * ((1.0 - log_a) / 12.0 - _DZETA_M1) + np.polyval(c, a),
            -_ZETA3 / a / a - log_a / 12.0 - _DZETA_M1 + np.polyval(dc, a),
            2.0 * _ZETA3 / a / a / a - 1.0 / (12.0 * a) + np.polyval(ddc, a),
        ])


def _closed_form_bound(a: np.ndarray, s: float, order: int) -> np.ndarray:
    """The closed form's stated remainder bound, the largest over the
    derivatives k <= order, at each alpha of a; inf where no closed form
    applies: s not in {1, 2}, order > 2 or alpha >= _CLOSED_FORM_ALPHA."""
    if s not in (1.0, 2.0) or order > 2 or a.min() >= _CLOSED_FORM_ALPHA:
        return np.full(a.shape, np.inf)
    k = np.arange(order + 1.0)[:, None]
    with np.errstate(over="ignore"):
        if s == 2.0:
            bound = np.array(_MELLIN_BOUND[: order + 1])[:, None] * a ** (_MELLIN_ORDER - k)
        else:
            log_step = np.log(_FOUR_PI2 + 2.0 * a) - 2.0 * np.log(a)
            bound = 2.0 * np.exp(k * log_step - _FOUR_PI2 / a)
    return np.where(a < _CLOSED_FORM_ALPHA, bound.max(axis=0), np.inf)


def _dirichlet_series(alpha, s: float, order: int):
    """The kernel's (value, terms, tail_bound) for value[k] = D^(k)(alpha)
    = (-1)^k sum_r r^{k-s} G_k(alpha r), k = 0..order, in one pass.

    alpha is a float, a list or a 1-D array (value[k] then holds one sum per
    alpha); value is an ndarray for an ndarray alpha, else nested lists of
    floats.
    Each alpha's rows are summed in units of u = min(1, G0(alpha)) > 0, in
    which tail_bound is stated: error < DEFAULT_TOL * u.  An alpha whose
    closed-form bound is at most DEFAULT_TOL * u (u = 1 there) takes the
    closed form; the others are summed over r, with min(alpha) of those
    bounding every ratio.  terms and tail_bound are the larger of the residue
    count and the r-sum's terms, and of the two bounds.  A closed form that
    overflows raises ValueError naming its alpha.
    """
    _check_alpha(alpha)
    a = np.asarray(alpha, dtype=float)
    flat = a.reshape(-1)
    unit = np.maximum(np.minimum(_geometric(flat, 0)[0], 1.0), _TINY)
    bound = _closed_form_bound(flat, s, order)
    closed = bound <= DEFAULT_TOL * unit
    direct = ~closed
    value = np.empty((order + 1, flat.size))
    terms, tail = 0, 0.0
    if closed.any():
        value[:, closed] = _closed_form(flat[closed], s)[: order + 1]
        finite = np.isfinite(value[:, closed]).all(axis=0)
        if not finite.all():
            bad = flat[closed][~finite][0].item()
            raise ValueError(f"D_alpha({s!r}) or a derivative overflows at alpha = {bad!r}")
        # residues at w = 1, 0, -1, and for s = 2 the odd w = -3 .. -15
        terms = 3 if s == 1.0 else 3 + (_MELLIN_ORDER - 2) // 2
        tail = float(bound[closed].max())
    if direct.any():
        a_col, unit_col = flat[direct, None], unit[direct, None]
        k = np.arange(order + 1.0)[:, None]

        def block(r):
            g = np.stack(_geometric(a_col * r, order))
            g *= ((-1.0) ** k * r ** (k - s))[:, None]
            g /= unit_col
            return g

        sums, direct_terms, direct_tail = _series(block, a_col.min(), max(0.0, order - s))
        value[:, direct] = np.reshape(sums, (order + 1, -1)) * unit[direct]
        terms, tail = max(terms, direct_terms), max(tail, direct_tail)
    value = value.reshape((order + 1,) + a.shape)
    return (value if isinstance(alpha, np.ndarray) else value.tolist()), terms, tail


def _phi_and_derivatives(alpha):
    """[Phi, Phi', Phi''] from one pass over r (rows for an array of alpha, MAX_STACK per pass)."""
    if np.ndim(alpha) == 0:
        return _dirichlet_series(alpha, 2.0, 2)[0]
    stacks = [alpha[j : j + MAX_STACK] for j in range(0, len(alpha), MAX_STACK)]
    return np.concatenate([_dirichlet_series(a, 2.0, 2)[0] for a in stacks], axis=1)


def dirichlet(alpha: float, s: float) -> float:
    """D_alpha(s) = sum_{r>=1} r^{-s} e^{-alpha r} / (1 - e^{-alpha r})."""
    return _dirichlet_series(alpha, s, 0)[0][0]


def phi(alpha: float) -> float:
    """Phi(alpha) = sum_{r>=1} r^{-2} e^{-alpha r}/(1 - e^{-alpha r})."""
    return dirichlet(alpha, 2.0)


def psi(alpha: float) -> float:
    """Psi(alpha) = sum_{r>=1} r^{-1} e^{-alpha r}/(1 - e^{-alpha r})."""
    return dirichlet(alpha, 1.0)


def sigma2(m: int) -> int:
    """Sum of squared divisors of m."""
    if m < 1:
        raise ValueError(f"sigma2 requires m >= 1, got {m!r}")
    total = 0
    d = 1
    while d * d <= m:
        if m % d == 0:
            total += d * d
            e = m // d
            if e != d:
                total += e * e
        d += 1
    return total


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with the convention B_1 = -1/2."""
    if n < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if n == 0:
        return Fraction(1)
    # B_n = -1/(n+1) * sum_{j<n} C(n+1, j) B_j
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


def zeta_neg(k: int) -> Fraction:
    """Exact rational zeta(-k) = (-1)^k B_{k+1}/(k+1) for k >= 0.

    With B_1 = -1/2 this gives zeta(0) = -1/2, and the sign is immaterial
    for k >= 1 odd while the even values vanish.
    """
    if k < 0:
        raise ValueError(f"zeta_neg requires k >= 0, got {k!r}")
    value = bernoulli(k + 1) / (k + 1)
    return -value if k % 2 else value


def theta(alpha: float, barred: bool = False) -> float:
    """Theta(alpha) = -Phi'(alpha)/sqrt(Phi(alpha)); barred uses Phi-bar.

    The barred variant keeps the same numerator since Phi-bar' = Phi'.
    Past alpha ~ 709.78 Phi underflows to 0.0, and the strict variant raises
    ValueError; below alpha ~ 2e-103 Phi'' overflows, and both raise it.
    """
    p, dp, _ = _phi_and_derivatives(alpha)
    denom = math.sqrt(p + ZETA2) if barred else math.sqrt(p)
    if denom == 0.0:
        raise ValueError(f"Phi({alpha!r}) underflows to 0.0, so Theta is not representable")
    return -dp / denom

