"""Boltzmann sampling and local-limit-theorem diagnostics.

A multiplicity with P(omega >= k) = q^k is sum_r r Pois(q^r / r), so the
sampler draws Pois(log Z) pairs (r, part) per replica, each adding r copies
of its part (Flajolet, Fusy and Pivoteau 2007), with r cut where a certified
tail bounds the total-variation distance.  Replicas come in chunks, one
random stream per chunk.  The diagnostics side evaluates the characteristic
function of N, an upper bound on the scale-free Lyapunov ratio over a
direction grid, and the normalized local-limit ratio against exact counts.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import gibbs_covariance, gibbs_mean, log_z_direct
from .calibration import ShapeParams, calibrate
from .exact_count import CountTable, PartSet, Target, count_table
from .special_functions import DEFAULT_TOL, _geometric, _series

# replicas per random stream; a chunk holds ~CHUNK_REPLICAS * log Z pairs at
# once, so a larger chunk saves little time and costs memory
CHUNK_REPLICAS = 64
MAX_RATE_TERMS = 1 << 20  # longest r table (one float per family and r)
MAX_CHUNK_PAIRS = 1 << 22  # most pairs a chunk may expect (~60 bytes each)


class TruncationError(ValueError):
    """The TV budget is invalid, or honouring it would pass a stated cap."""


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


def pair_rates(spec: SamplerSpec) -> tuple[np.ndarray, float]:
    """Rates lambda[f, r - 1] of the pairs (r, part) of each part family f, cut
    in r, and a bound on the rate sum_{r > cut} of the dropped pairs, which
    bounds the chance that one occurs and so the total-variation distance.

    Family 0 (x1, x2 >= 1) has rate G0(alpha r) G0(beta r)/r; the nonzero set
    adds the axes x2 = 0 and x1 = 0, at G0(alpha r)/r and G0(beta r)/r.  As
    G0(x + a) <= e^{-a} G0(x), the total shrinks by q = e^{-decay} per step.
    """
    a, b = spec.params.alpha, spec.params.beta
    nonzero = spec.part_set is PartSet.NONZERO_VECTORS
    decay = min(a, b) if nonzero else a + b
    tail_factor = float(_geometric(decay)[0])  # q / (1 - q)

    def rates(r: np.ndarray) -> np.ndarray:
        ga, gb = _geometric(a * r)[0], _geometric(b * r)[0]
        return np.stack([ga * gb, ga, gb] if nonzero else [ga * gb]) / r

    # lambda_r <= lambda_1 q^{r-1}, so the cut comes no later than max_r
    first_tail = float(rates(np.ones(1)).sum()) * tail_factor
    max_r = 2 + math.ceil(math.log(max(first_tail / spec.tv_budget, 1.0)) / decay)
    if max_r > MAX_RATE_TERMS:
        msg = f"tv_budget {spec.tv_budget!r} may need {max_r} terms of r, above {MAX_RATE_TERMS}"
        raise TruncationError(msg)
    table = rates(np.arange(1.0, max_r + 1.0))
    tails = table.sum(axis=0) * tail_factor
    cut = int(np.flatnonzero(tails < spec.tv_budget)[0])
    return table[:, : cut + 1], float(tails[cut])


def _chunks(spec: SamplerSpec, first: int, stop: int):
    """Yield (base, bounds, r, x1, x2) for each chunk with a replica in [first,
    stop); replica base + j owns the pairs bounds[j]:bounds[j+1].  Chunk k always
    draws all its replicas from stream (seed, k), whatever range is asked for.
    """
    rates, _ = pair_rates(spec)
    cdf = np.cumsum(rates)
    if CHUNK_REPLICAS * cdf[-1] > MAX_CHUNK_PAIRS:
        msg = f"a chunk of {CHUNK_REPLICAS} replicas at log Z = {cdf[-1]:.6g} expects"
        raise TruncationError(f"{msg} more than {MAX_CHUNK_PAIRS} pairs")
    a, b = spec.params.alpha, spec.params.beta
    for chunk in range(first // CHUNK_REPLICAS, -(-stop // CHUNK_REPLICAS)):
        rng = np.random.default_rng((spec.seed, chunk))
        bounds = np.zeros(CHUNK_REPLICAS + 1, dtype=np.int64)
        np.cumsum(rng.poisson(cdf[-1], CHUNK_REPLICAS), out=bounds[1:])
        # family and r by inverse CDF over the flattened rate table
        family, r = np.divmod(
            np.searchsorted(cdf[:-1], cdf[-1] * rng.random(bounds[-1]), side="right"),
            rates.shape[1],
        )
        r += 1
        # geometric coordinates >= 1: P(x > k) = P(E > k r alpha) = e^{-k r alpha}
        x1 = 1 + (rng.standard_exponential(r.size) / (a * r)).astype(np.int64)
        x2 = 1 + (rng.standard_exponential(r.size) / (b * r)).astype(np.int64)
        x1[family == 2] = 0
        x2[family == 1] = 0
        yield chunk * CHUNK_REPLICAS, bounds, r, x1, x2


def samples(spec: SamplerSpec, first: int, stop: int):
    """Replicas first..stop-1 as partitions, drawing each chunk once."""
    for base, bounds, r, x1, x2 in _chunks(spec, first, stop):
        for j in range(max(first - base, 0), min(stop - base, CHUNK_REPLICAS)):
            pairs = slice(bounds[j], bounds[j + 1])
            copies, p1, p2 = r[pairs], x1[pairs], x2[pairs]
            mult: Counter = Counter()
            for k, part in zip(copies.tolist(), zip(p1.tolist(), p2.tolist())):
                mult[part] += k
            yield SampledPartition(dict(mult), (int(copies @ p1), int(copies @ p2)))


def sample(spec: SamplerSpec, replica: int = 0) -> SampledPartition:
    """One partition draw; deterministic given (seed, replica)."""
    return next(samples(spec, replica, replica + 1))


@dataclass
class BatchResult:
    """Vectorised replica summary used by the statistical tests."""

    Ns: np.ndarray  # (reps, 2) int64
    tracked_parts: tuple
    tracked_draws: np.ndarray  # (reps, len(tracked_parts)) int64


def sample_batch(spec: SamplerSpec, reps: int, tracked_parts: tuple = ()) -> BatchResult:
    """Replicas 0..reps-1 as arrays; replica i equals sample(spec, i).

    A tracked part's multiplicity is the sum of r over the pairs on it.
    """
    lowest = 0 if spec.part_set is PartSet.NONZERO_VECTORS else 1
    for p in tracked_parts:
        if min(p) < lowest or tuple(p) == (0, 0):
            raise ValueError(f"tracked part {p} is outside the part set")
    columns = np.empty((reps, 2 + len(tracked_parts)), dtype=np.int64)
    for base, bounds, r, x1, x2 in _chunks(spec, 0, reps):
        rows = min(CHUNK_REPLICAS, reps - base)
        sums = np.zeros(r.size + 1, dtype=np.int64)
        weights = [x1, x2] + [(x1 == p1) & (x2 == p2) for p1, p2 in tracked_parts]
        for col, w in enumerate(weights):
            # per-replica sums as differences of running sums, exact in int64
            np.cumsum(r * w, out=sums[1:])
            columns[base : base + rows, col] = (sums[bounds[1:]] - sums[bounds[:-1]])[:rows]
    return BatchResult(columns[:, :2], tuple(tracked_parts), columns[:, 2:])


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
