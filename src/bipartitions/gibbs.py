"""Boltzmann sampling and local-limit-theorem diagnostics.

The sampler draws independent geometric multiplicities for every part in a
truncated part window whose discarded total-variation mass is explicitly
bounded.  The diagnostics side evaluates the characteristic function of N,
an upper bound on the scale-free Lyapunov ratio over a direction grid, and
the normalized local-limit ratio against exact counts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import gibbs_covariance, gibbs_mean, log_z_direct
from .calibration import ShapeParams, calibrate
from .exact_count import CountTable, PartSet, Target, count_table
from .special_functions import DEFAULT_TOL, _geometric, _series


class TruncationError(ValueError):
    """The requested TV budget cannot be honoured."""


@dataclass(frozen=True)
class SamplerSpec:
    params: ShapeParams
    part_set: PartSet
    tv_budget: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0 < self.tv_budget <= 1e-3):
            raise TruncationError(
                f"tv_budget must lie in (0, 1e-3], got {self.tv_budget!r}"
            )


@dataclass(frozen=True)
class SampledPartition:
    multiplicities: dict  # part (x1, x2) -> multiplicity >= 1
    N: tuple[int, int]


def _retained_window(spec: SamplerSpec) -> tuple[int, int]:
    """Box bounds (M1, M2) with discarded weight below the TV budget.

    The discarded mass is bounded by the sum of e^{-<lambda,x>} over the
    excluded parts; per-coordinate geometric tails control it.
    """
    a, b = spec.params.alpha, spec.params.beta
    A = 1.0 / math.expm1(a)  # sum_{x>=1} e^{-a x}
    B = 1.0 / math.expm1(b)
    if spec.part_set is PartSet.STRICT_POSITIVE:
        row_masses = (A * B, A * B)
    else:
        row_masses = (A * B + A, A * B + B)
    budget = spec.tv_budget
    # e^{-a M1} * (interior row mass + axis tail) <= budget/2, same in x2
    m1 = max(1, math.ceil(math.log(max(2.0 * row_masses[0] / budget, 2.0)) / a))
    m2 = max(1, math.ceil(math.log(max(2.0 * row_masses[1] / budget, 2.0)) / b))
    if (m1 + 1) * (m2 + 1) > 200_000_000:
        raise TruncationError(
            f"truncated window {m1}x{m2} is too large for the parameter range"
        )
    return m1, m2


def _window_parts(spec: SamplerSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays (x1, x2, <lambda, x>) over the retained parts, in `parts_in_box` order."""
    m1, m2 = _retained_window(spec)
    a, b = spec.params.alpha, spec.params.beta
    xs1 = []
    xs2 = []
    if spec.part_set is PartSet.NONZERO_VECTORS:
        xs1.append(np.zeros(m2, dtype=np.int64))
        xs2.append(np.arange(1, m2 + 1, dtype=np.int64))
    for x1 in range(1, m1 + 1):
        start = 0 if spec.part_set is PartSet.NONZERO_VECTORS else 1
        xs1.append(np.full(m2 + 1 - start, x1, dtype=np.int64))
        xs2.append(np.arange(start, m2 + 1, dtype=np.int64))
    x1 = np.concatenate(xs1)
    x2 = np.concatenate(xs2)
    energy = a * x1 + b * x2
    return x1, x2, energy


def _draw_multiplicities(energy: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Geometric draws with P(omega >= k) = e^{-k * energy}."""
    u = rng.random(energy.shape[0])
    return np.floor(np.log(u) / -energy).astype(np.int64)


def sample(spec: SamplerSpec, replica: int = 0) -> SampledPartition:
    """One partition draw; deterministic given (seed, replica)."""
    x1, x2, energy = _window_parts(spec)
    rng = np.random.default_rng((spec.seed, replica))
    omega = _draw_multiplicities(energy, rng)
    active = omega > 0
    mult = {
        (int(a_), int(b_)): int(w)
        for a_, b_, w in zip(x1[active], x2[active], omega[active])
    }
    n = (int(np.dot(omega, x1)), int(np.dot(omega, x2)))
    return SampledPartition(multiplicities=mult, N=n)


@dataclass
class BatchResult:
    """Vectorised replica summary used by the statistical tests."""

    Ns: np.ndarray  # (reps, 2) int64
    tracked_parts: tuple
    tracked_draws: np.ndarray  # (reps, len(tracked_parts)) int64


def sample_batch(
    spec: SamplerSpec,
    reps: int,
    tracked_parts: tuple = (),
) -> BatchResult:
    """Independent replicas; replica i uses stream (seed, i).

    The replica streams match :func:`sample`, so any single replica of a
    batch can be reproduced in isolation.
    """
    x1, x2, energy = _window_parts(spec)
    part_index = {}
    if tracked_parts:
        lookup = {(int(a_), int(b_)): i for i, (a_, b_) in enumerate(zip(x1, x2))}
        for p in tracked_parts:
            if p not in lookup:
                raise ValueError(f"tracked part {p} is outside the retained window")
            part_index[p] = lookup[p]
    Ns = np.empty((reps, 2), dtype=np.int64)
    tracked = np.empty((reps, len(tracked_parts)), dtype=np.int64)
    cols = [part_index[p] for p in tracked_parts]
    for i in range(reps):
        rng = np.random.default_rng((spec.seed, i))
        omega = _draw_multiplicities(energy, rng)
        Ns[i, 0] = np.dot(omega, x1)
        Ns[i, 1] = np.dot(omega, x2)
        if cols:
            tracked[i] = omega[cols]
    return BatchResult(Ns=Ns, tracked_parts=tuple(tracked_parts), tracked_draws=tracked)


# ---------------------------------------------------------------------------
# Characteristic function
# ---------------------------------------------------------------------------


def char_fn(
    params: ShapeParams,
    part_set: PartSet,
    t: tuple[float, float],
    tol: float = DEFAULT_TOL,
) -> complex:
    """Characteristic function of N at frequency t, via the product formula.

    log phi = sum_r (1/r) [prod of complex geometric sums - real ones],
    the inner sums over the part coordinates being closed geometric series.
    """
    a, b = params.alpha, params.beta
    t1, t2 = t
    nonzero = part_set is PartSet.NONZERO_VECTORS

    def geom(s: complex, r: np.ndarray) -> np.ndarray:
        # e^{-rs}/(1 - e^{-rs}) without cancellation or overflow, s real or complex
        return np.exp(-r * s) / -np.expm1(-r * s)

    def block(r: np.ndarray) -> np.ndarray:
        ga, gb = geom(a, r), geom(b, r)
        gca, gcb = geom(complex(a, -t1), r), geom(complex(b, -t2), r)
        term = (gca * gcb - ga * gb) / r
        # |gca| <= ga and |gcb| <= gb, so the real second row majorises
        # |term| and shrinks by e^{-(a+b)} per step (e^{-min(a,b)} with axes)
        majorant = 2.0 * ga * gb / r
        if nonzero:
            term += ((gca - ga) + (gcb - gb)) / r
            majorant += 2.0 * (ga + gb) / r
        return np.stack([term, majorant])

    log_phi = _series(block, min(a, b) if nonzero else a + b, 0.0, tol)[0][0]
    return complex(np.exp(log_phi))


def char_fn_bound(params: ShapeParams, t: tuple[float, float]) -> float:
    """Elementary product bound on |phi| for the strict part set."""
    a, b = params.alpha, params.beta
    t1, t2 = t
    return math.exp(
        1.0
        / (abs(math.exp(a) - np.exp(1j * t1)) * abs(math.exp(b) - np.exp(1j * t2)))
        - 1.0 / (math.expm1(a) * math.expm1(b))
    )


# ---------------------------------------------------------------------------
# Lyapunov ratio
# ---------------------------------------------------------------------------


def _geometric_moment_sums(y: np.ndarray, A: np.ndarray) -> list[np.ndarray]:
    """T_k(y, A) = sum_{x >= A} x^k y^x for k = 0..3, closed forms."""
    one = 1.0 - y
    m0 = 1.0 / one
    m1 = y / one**2
    m2 = y * (1.0 + y) / one**3
    m3 = y * (1.0 + 4.0 * y + y * y) / one**4
    ya = y**A
    t0 = ya * m0
    t1 = ya * (A * m0 + m1)
    t2 = ya * (A * A * m0 + 2.0 * A * m1 + m2)
    t3 = ya * (A**3 * m0 + 3.0 * A * A * m1 + 3.0 * A * m2 + m3)
    return [t0, t1, t2, t3]


def _signed_cubic_tail(c, d, y, A):
    """sum_{x >= A} (c + d x)^3 y^x with arrays broadcast elementwise."""
    t0, t1, t2, t3 = _geometric_moment_sums(y, A)
    return c**3 * t0 + 3.0 * c * c * d * t1 + 3.0 * c * d * d * t2 + d**3 * t3


def _abs_cubic_geom_sum(c, d, y):
    """sum_{x >= 1} |c + d x|^3 y^x, vectorised over broadcastable arrays.

    Normalises to d >= 0, then either the summand keeps one sign or it is
    split at the integer root of c + d x, each piece being a polynomial sum
    with closed form.
    """
    c = np.where(d < 0, -c, c)
    d = np.abs(d)
    ones = np.ones_like(c)
    plain = _signed_cubic_tail(np.abs(c), d, y, ones)  # valid when c >= 0 or d == 0
    # mixed-sign case: c < 0 < d, root at x0 = -c/d
    with np.errstate(divide="ignore", invalid="ignore"):
        x0 = np.where(d > 0, -c / np.maximum(d, 1e-300), 0.0)
    m = np.floor(x0)
    m = np.maximum(m, 0.0)
    s_all = _signed_cubic_tail(c, d, y, ones)
    with np.errstate(over="ignore", invalid="ignore"):
        s_tail = _signed_cubic_tail(c, d, y, m + 1.0)
    # a sign change beyond the geometric support: y^(m+1) underflows to zero
    # while the polynomial factor overflows, so the tail itself is zero
    s_tail = np.where(np.isfinite(s_tail), s_tail, 0.0)
    mixed = 2.0 * s_tail - s_all
    return np.where((c < 0) & (d > 0), mixed, plain)


def _axis_third_moments(rate: float, tol: float) -> float:
    """sum_{x>=1} 3 x^3 q/(1-q)^3 = 3 x^3 G1 (1 + G0), q = e^{-rate x}: one axis
    family's share of the third-moment bound, over every power of q at once."""

    def block(x):
        g0, g1, _ = _geometric(rate * x)
        return 3.0 * x**3 * g1 * (1.0 + g0)

    return _series(block, rate, 3.0, tol)[0][0]


def _covariance_matrix(params: ShapeParams, part_set: PartSet) -> np.ndarray:
    return np.array(gibbs_covariance(params, part_set), dtype=float)


def _inv_sqrt(matrix: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(matrix)
    if w[0] <= 0:
        raise ValueError("covariance matrix is not positive definite")
    return (v * (1.0 / np.sqrt(w))) @ v.T


N_DIRECTIONS = 360  # directions on the half circle; must stay even (see lyapunov_bound)


def lyapunov_bound(params: ShapeParams, part_set: PartSet, tol: float = 1e-10) -> float:
    """Upper bound on the scale-free Lyapunov ratio over a direction grid.

    Third absolute moments use the Cauchy-Schwarz bound
    3 q / (1 - q)^3 with q = e^{-<lambda,x>}; (1-q)^{-3} is expanded as a
    power series in q so every x2-sum reduces to closed geometric forms.  The
    axis families of the nonzero set are summed over all powers at once.
    The x1-row budget and the number of powers grow like 1/alpha, so for
    alpha < beta the bound is evaluated at (beta, alpha).  The value is the
    same: both part sets are symmetric under (x1, x2) -> (x2, x1), and the
    grid of N_DIRECTIONS angles pi k / N maps onto itself under the swap
    (theta -> pi/2 - theta) only because N_DIRECTIONS is even; it must stay so.
    """
    if params.alpha < params.beta:
        params = ShapeParams(params.beta, params.alpha)
    a, b = params.alpha, params.beta
    gamma = _covariance_matrix(params, part_set)
    whiten = _inv_sqrt(gamma)
    angles = np.pi * np.arange(N_DIRECTIONS) / N_DIRECTIONS
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    ts = dirs @ whiten.T  # rows t with ||Gamma^{1/2} t|| = 1

    # row budget in x1: beyond M1 the row weight e^{-a x1} x1^3 is negligible
    m1 = int(math.ceil((50.0 + 4.0 * abs(math.log(b))) / a)) + 4
    x1 = np.arange(1, m1 + 1, dtype=float)

    totals = np.zeros(N_DIRECTIONS)
    if part_set is PartSet.NONZERO_VECTORS:
        totals += np.abs(ts[:, 0]) ** 3 * _axis_third_moments(a, tol)
        totals += np.abs(ts[:, 1]) ** 3 * _axis_third_moments(b, tol)
    for j in range(10_001):
        k = j + 1.0
        weight = 3.0 * math.comb(j + 2, 2)
        y = math.exp(-k * b)
        row_w = np.exp(-k * a * x1)  # (m1,)
        c = ts[:, 0:1] * x1[None, :]  # (dirs, m1)
        d = ts[:, 1:2] * np.ones_like(c)
        inner = _abs_cubic_geom_sum(c, d, np.full_like(c, y))
        increment = weight * (row_w[None, :] * inner).sum(axis=1)
        totals += increment
        if float(increment.max()) < tol * max(float(totals.max()), 1e-300):
            return float(totals.max())
    raise RuntimeError("Lyapunov expansion failed to converge")  # pragma: no cover


# ---------------------------------------------------------------------------
# LLT report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LLTReport:
    target: Target
    part_set: PartSet
    params: ShapeParams
    gamma: tuple
    det_gamma: float
    sigma_sq: float
    lyapunov_bound: float
    ellipse_radius: float
    p_exact: int
    gaussian_pred: float
    normalized_ratio: float
    extras: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "n1": self.target.n1,
            "n2": self.target.n2,
            "part_set": self.part_set.value,
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            "det_gamma": self.det_gamma,
            "sigma_sq": self.sigma_sq,
            "lyapunov": self.lyapunov_bound,
            "p_exact_decimal_string": str(self.p_exact),
            "normalized_ratio": self.normalized_ratio,
            "gamma": [list(row) for row in self.gamma],
            "ellipse_radius": self.ellipse_radius,
            "gaussian_pred": self.gaussian_pred,
            "extras": self.extras,
        }
        return json.dumps(payload)


def llt_check(
    target: Target, part_set: PartSet, table: CountTable | None = None
) -> LLTReport:
    """Normalized local-limit ratio 2 pi sqrt(det Gamma) P(N = n) at n.

    P(N = n) comes from the exact count and log Z; the Gaussian prediction
    includes the mean-offset factor exp(-||Gamma^{-1/2}(n - E N)||^2 / 2).
    """
    if table is None:
        table = count_table(part_set, target.n1, target.n2)
    elif (
        table.part_set is not part_set
        or table.max1 < target.n1
        or table.max2 < target.n2
    ):
        raise ValueError("provided count table does not cover the target")
    p_exact = table.get(target.n1, target.n2)

    cal = calibrate(target, part_set)
    params = cal.params
    gamma = _covariance_matrix(params, part_set)
    det_gamma = float(np.linalg.det(gamma))
    eigvals = np.linalg.eigvalsh(gamma)
    sigma_sq = float(eigvals[0])
    lyap = lyapunov_bound(params, part_set)
    ellipse_radius = 1.0 / (4.0 * lyap)

    log_z = log_z_direct(params, part_set)
    log_p_n = (
        math.log(p_exact)
        - (params.alpha * target.n1 + params.beta * target.n2)
        - log_z
    )
    normalized_ratio = math.exp(
        math.log(2.0 * math.pi) + 0.5 * math.log(det_gamma) + log_p_n
    )

    mean = np.array(gibbs_mean(params, part_set))
    offset = _inv_sqrt(gamma) @ (np.array([target.n1, target.n2], dtype=float) - mean)
    gaussian_pred = math.exp(-0.5 * float(offset @ offset)) / (
        2.0 * math.pi * math.sqrt(det_gamma)
    )

    return LLTReport(
        target=target,
        part_set=part_set,
        params=params,
        gamma=tuple(map(tuple, gamma)),
        det_gamma=det_gamma,
        sigma_sq=sigma_sq,
        lyapunov_bound=lyap,
        ellipse_radius=ellipse_radius,
        p_exact=p_exact,
        gaussian_pred=gaussian_pred,
        normalized_ratio=normalized_ratio,
        extras={"mean_offset_sq": float(offset @ offset), "log_z": log_z},
    )
