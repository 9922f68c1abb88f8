"""Auxiliary series evaluators: Phi, Psi, Theta, Delta, the Dirichlet-type
sums D_alpha(s), the squared-divisor function, and exact zeta values at
non-positive integers via Bernoulli numbers.

Every infinite r-series of the package is summed by one numpy-blocked kernel,
:func:`_series`, whose tail bound is below the absolute tolerance; as every
geometric factor comes from expm1, results are within tol plus rounding of a
few eps * |value|, also at small alpha, and relative to the first term for
the Dirichlet-type sums beyond alpha = log 2.  Derivatives always come from
the differentiated series, never from finite differences.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

ZETA2 = math.pi**2 / 6

DEFAULT_TOL = 1e-12

# a block's cost is mostly per-call overhead, so the first block holds the
# ~60 terms that alpha >= 0.5 needs at tol = 1e-12; later blocks double up to
# caps on the terms per series and on the cells (terms x series) of a block,
# which bound its memory however many series are stacked
_FIRST_BLOCK = 64
_MAX_BLOCK = 4096
_MAX_BLOCK_CELLS = 2**18
_MAX_TERMS = 100_000_000
_TINY = np.finfo(float).tiny


def _check_alpha(alpha) -> None:
    a = np.asarray(alpha)
    # nan fails both comparisons
    if not (a.dtype.kind in "iuf" and a.ndim <= 1 and a.size and 0 < a.min() and a.max() < np.inf):
        raise ValueError(f"alpha must be a finite positive real, got {alpha!r}")


def _check_tol(tol: float) -> None:
    if not (0 < tol <= 1e-6):
        raise ValueError(f"tolerance must lie in (0, 1e-6], got {tol!r}")


def _geometric(x):
    """(G0, G1, G2) at x > 0: G0 = 1/(e^x - 1) = sum_{k>=1} e^{-kx}, G1 = -G0',
    G2 = -G1'; expm1 keeps them accurate as x -> 0 and lets them reach 0.
    """
    with np.errstate(over="ignore"):
        g0 = 1.0 / np.expm1(x)
    g1 = g0 * (1.0 + g0)
    return g0, g1, g1 * (1.0 + 2.0 * g0)


def _series(block, decay: float, growth: float, tol: float):
    """Sum block(r) over r = 1, 2, ... in numpy blocks of r; returns
    (value, terms, tail_bound), value holding one sum per stacked series.

    ``block`` maps an array of r to the terms, or to several series stacked
    on leading axes (such as one row block per alpha).  Each must obey
    |t(r+1)| <= q_r |t(r)| with q_r = e^{-decay} ((r+1)/r)^growth, growth >= 0.
    q_r falls with r, so once q_r < 1 the tail after r is at most
    |t(r)| q_r / (1 - q_r); the sum stops at the first r where that is below
    tol for every series: absolute in the terms' units, so relative to u for
    a series scaled by 1/u.  Summands that do not shrink regularly are
    certified by stacking a real majorant that does.
    """
    parts = []
    start, size = 1, _FIRST_BLOCK
    while start <= _MAX_TERMS:
        r = np.arange(start, start + size, dtype=float)
        terms = block(r).reshape(-1, size)
        q = math.exp(-decay) * ((r + 1.0) / r) ** growth
        largest = np.abs(terms).max(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            tails = np.where(q < 1.0, largest * q / (1.0 - q), np.inf)
        done = np.flatnonzero(tails < tol)
        stop = int(done[0]) + 1 if done.size else size
        parts.append(terms[:, :stop].sum(axis=1))
        if done.size:
            return sum(parts).tolist(), start + stop - 1, float(tails[stop - 1])
        start += size
        size = max(_FIRST_BLOCK, min(2 * size, _MAX_BLOCK, _MAX_BLOCK_CELLS // len(terms)))
    raise ValueError("series failed to converge within the term cap")


def _dirichlet_series(alpha, s: float, order: int, tol: float):
    """The kernel's (value, terms, tail_bound) for value[k] = D^(k)(alpha)
    = (-1)^k sum_r r^{k-s} G_k(alpha r), k = 0..order, in one pass.

    alpha is a float or a 1-D array (value[k] then lists one sum per alpha;
    min(alpha) bounds every ratio).  Each alpha's rows are summed in units of
    u = min(1, G0(alpha)) > 0, in which tail_bound is stated: error < tol * u.
    """
    _check_alpha(alpha)
    _check_tol(tol)
    a = np.asarray(alpha, dtype=float)
    unit = np.maximum(np.minimum(np.exp(-a) / -np.expm1(-a), 1.0), _TINY)  # G0, no overflow
    a_col, unit_col = a.reshape(-1, 1), unit.reshape(-1, 1)
    k = np.arange(order + 1.0)[:, None]

    def block(r):
        g = np.stack(_geometric(a_col * r)[: order + 1])
        g *= ((-1.0) ** k * r ** (k - s))[:, None]
        g /= unit_col
        return g

    value, terms, tail = _series(block, a.min(), max(0.0, order - s), tol)
    return (np.reshape(value, (order + 1,) + a.shape) * unit).tolist(), terms, tail


def _phi_and_derivatives(alpha, tol: float = DEFAULT_TOL):
    """[Phi, Phi', Phi''] from one pass over r (lists for an array of alpha)."""
    return _dirichlet_series(alpha, 2.0, 2, tol)[0]


def dirichlet(alpha: float, s: float, tol: float = DEFAULT_TOL) -> float:
    """D_alpha(s) = sum_{r>=1} r^{-s} e^{-alpha r} / (1 - e^{-alpha r})."""
    return _dirichlet_series(alpha, s, 0, tol)[0][0]


def phi(alpha: float, tol: float = DEFAULT_TOL) -> float:
    """Phi(alpha) = sum_{r>=1} r^{-2} e^{-alpha r}/(1 - e^{-alpha r})."""
    return dirichlet(alpha, 2.0, tol)


def psi(alpha: float, tol: float = DEFAULT_TOL) -> float:
    """Psi(alpha) = sum_{r>=1} r^{-1} e^{-alpha r}/(1 - e^{-alpha r})."""
    return dirichlet(alpha, 1.0, tol)


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


def phi_lambert(alpha: float, tol: float = DEFAULT_TOL) -> float:
    """Phi via its Lambert-series form sum_m sigma2(m)/m^2 e^{-alpha m}.

    Independent cross-check of :func:`phi`; the two must agree to ~tol.
    """
    _check_alpha(alpha)
    _check_tol(tol)

    def block(m):
        weight = np.exp(-alpha * m)
        sigma = np.array([sigma2(int(k)) for k in m], dtype=float)
        # sigma2(m)/m^2 = sum_{d | m} d^{-2} < zeta(2), so the second row
        # majorises the summand and shrinks by exactly e^{-alpha} per step
        return np.stack([sigma / (m * m) * weight, ZETA2 * weight])

    return _series(block, alpha, 0.0, tol)[0][0]


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


def theta(alpha: float, barred: bool = False, tol: float = DEFAULT_TOL) -> float:
    """Theta(alpha) = -Phi'(alpha)/sqrt(Phi(alpha)); barred uses Phi-bar.

    The barred variant keeps the same numerator since Phi-bar' = Phi'.
    Past alpha ~ 709.78 Phi underflows to 0.0, and the strict variant raises
    ValueError.
    """
    p, dp, _ = _phi_and_derivatives(alpha, tol)
    denom = math.sqrt(p + ZETA2) if barred else math.sqrt(p)
    if denom == 0.0:
        raise ValueError(f"Phi({alpha!r}) underflows to 0.0, so Theta is not representable")
    return -dp / denom


def delta(alpha: float, barred: bool = False, tol: float = DEFAULT_TOL) -> float:
    """Delta(alpha) = 2 Phi Phi'' - Phi'^2 (barred: Phi-bar in the product)."""
    p, dp, ddp = _phi_and_derivatives(alpha, tol)
    if barred:
        p += ZETA2
    return 2.0 * p * ddp - dp * dp
