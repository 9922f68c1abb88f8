"""Boltzmann sampling and local-limit-theorem diagnostics.

A multiplicity with P(omega >= k) = q^k is sum_r r Pois(q^r / r), so the
sampler draws Pois(log Z) pairs (r, part) per replica, each adding r copies
of its part (Flajolet, Fusy and Pivoteau 2007), with r cut where a certified
tail bounds the total-variation distance.  Replicas come in chunks, one
random stream per chunk.  The diagnostics side evaluates the characteristic
function of N, an upper bound on the scale-free Lyapunov ratio over a
direction grid (a sum over one region alpha x1 + beta x2 <= K of the part
lattice, walked in blocks of row segments that are summed for every
direction at once from their suffix moments, plus a closed-form bound on the
parts outside the region), and the normalized local-limit ratio against
exact counts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .asymptotics import _log_z_sums, gibbs_covariance
from .calibration import ShapeParams, calibrate
from .exact_count import CountTable, PartSet, Target, count_table
from .special_functions import _geometric, _series

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
    return BatchResult(columns[:, :2], columns[:, 2:])


# ---------------------------------------------------------------------------
# Characteristic function
# ---------------------------------------------------------------------------


def char_fn(params: ShapeParams, part_set: PartSet, t: tuple[float, float]) -> complex:
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

    log_phi = _series(block, min(a, b) if nonzero else a + b, 0.0)[0][0]
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


def _inv_sqrt(matrix: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(matrix)
    if w[0] <= 0:
        raise ValueError("covariance matrix is not positive definite")
    return (v * (1.0 / np.sqrt(w))) @ v.T


N_DIRECTIONS = 360  # directions on the half circle; must stay even (see lyapunov_bound)
MAX_LATTICE_CELLS = 1 << 22  # most lattice cells the Lyapunov bound may sum
# Cells summed at once.  A block holds about a dozen floats per cell and a few
# times 360 per row segment; rows lengthen by at least a cell per step away
# from the tip of the region, so a block has few segments (at most 64 in the
# tests, under 1 MB).
BLOCK_CELLS = 1 << 11
FIRST_K = 8.0  # edge of the first region, whose sum picks the final edge K


def _check_cells(k: float, a: float, b: float) -> None:
    """Refuse the region a x1 + b x2 <= k if it may hold more cells than the
    cap: row x1 of it holds at most (k - a x1)/b + 1 cells."""
    rows = math.floor(k / a) + 1
    cells = rows * (k / b + 1.0) - a / b * rows * (rows - 1) / 2
    if cells > MAX_LATTICE_CELLS:
        msg = f"the Lyapunov lattice at (alpha, beta) = ({a!r}, {b!r}) may take"
        raise ValueError(f"{msg} {cells:.0f} cells, above the cap of {MAX_LATTICE_CELLS}")


def _lattice_rates(params: ShapeParams, tol: float) -> tuple[float, float]:
    """The rates (a, b) with a >= b, rows running along a, once tol is valid
    and the first region a x1 + b x2 <= FIRST_K fits under the cap."""
    if not (0 < tol <= 1e-6):
        raise ValueError(f"tolerance must lie in (0, 1e-6], got {tol!r}")
    a, b = max(params.alpha, params.beta), min(params.alpha, params.beta)
    _check_cells(FIRST_K, a, b)
    return a, b


def _upper_gammas(n: int, k: float) -> list[float]:
    """Gamma(i + 1, k) = int_k^inf y^i e^{-y} dy = i! e^{-k} sum_{j <= i} k^j / j!
    for i = 0..n, from one pass over the partial sums."""
    e = math.exp(-k)
    term = partial = factorial = 1.0  # k^i / i!, sum_{j <= i} k^j / j!, i!
    values = [e]
    for i in range(1, n + 1):
        term *= k / i
        partial += term
        factorial *= i
        values.append(factorial * e * partial)
    return values


def _tail_bound(k: float, a: float, b: float, c: float) -> float:
    """T(k) = 3c^3/(1 - e^{-k})^3 int_k^inf (y/a + 1)(y/b + 1)(y^3 - 3y^2) e^{-y} dy,
    for k >= 3 a bound on sum |t.x|^3 w over the parts with y = a x1 + b x2 > k,
    for every t with |t.x| <= c y.

    There w <= 3 e^{-y}/(1 - e^{-k})^3, so the sum is at most that factor
    times the Stieltjes integral of f(y) = y^3 e^{-y} against the count N(y)
    of parts with a x1 + b x2 <= y.  f falls for y > 3, so integrating by
    parts with N(y) <= (y/a + 1)(y/b + 1) and -f' = (y^3 - 3y^2) e^{-y} gives
    T.  The integrand is a degree-5 polynomial times e^{-y}: a sum of
    incomplete gamma functions.
    """
    s, p = 1.0 / (a * b), 1.0 / a + 1.0 / b
    # (s y^2 + p y + 1)(y^3 - 3y^2) = s y^5 + (p - 3s) y^4 + (1 - 3p) y^3 - 3y^2
    g = _upper_gammas(5, k)
    integral = s * g[5] + (p - 3.0 * s) * g[4] + (1.0 - 3.0 * p) * g[3] - 3.0 * g[2]
    return 3.0 * c**3 * integral / (-math.expm1(-k)) ** 3


def _edge(target: float, a: float, b: float, c: float) -> float:
    """The smallest integer k >= FIRST_K with T(k) <= target (T falls with k)."""
    k = FIRST_K
    while _tail_bound(k, a, b, c) > target:
        k += 1.0
    return k


def _segments(a: float, b: float, nonzero: bool, lo: float, hi: float):
    """The rows of {x in the part set : lo < a x1 + b x2 <= hi}, lo >= 0, as
    arrays (x1, first x2, cells), each row cut into segments of at most
    BLOCK_CELLS cells.  y > lo >= 0 leaves out (0, 0)."""
    x1 = np.arange(0 if nonzero else 1, math.floor(hi / a) + 1)
    start = np.maximum(np.floor((lo - a * x1) / b) + 1.0, 0 if nonzero else 1)
    n = np.maximum(np.floor((hi - a * x1) / b) + 1.0 - start, 0.0).astype(np.int64)
    pieces = -(-n // BLOCK_CELLS)
    row = np.repeat(np.arange(n.size), pieces)
    skip = BLOCK_CELLS * (np.arange(row.size) - np.repeat(np.cumsum(pieces) - pieces, pieces))
    return x1[row], start[row] + skip, np.minimum(n[row] - skip, BLOCK_CELLS)


def lyapunov_bound(params: ShapeParams, part_set: PartSet, tol: float = 1e-10) -> float:
    """Upper bound max_t sum_x |t.x|^3 w(x) on the scale-free Lyapunov ratio
    over a grid of directions t with ||Gamma^{1/2} t|| = 1, where
    w = 3q/(1-q)^3 with q = e^{-<lambda,x>} is the Cauchy-Schwarz bound on a
    part's third absolute moment.

    With (a, b) = (alpha, beta), the sum runs over one region R_K = {x :
    a x1 + b x2 <= K} and adds the closed-form bound T(K) on every part
    outside it (`_tail_bound`).  The region is walked in blocks of whole row
    segments, at most BLOCK_CELLS cells each: with c = t1 x1 and d = t2 (t
    negated where t2 < 0), a segment's sum of |c + d x2|^3 w for every t
    comes from its suffix moments sum_{x2 >= A} x1^{3-p} x2^p w, split at the
    root of c + d x2.  A first region R_8 gives a lower bound L on the
    maximum, and K is the smallest integer with T(K) <= tol/2 L; then the
    cells of R_K outside R_8 are added.  So the value is at least the full
    lattice sum (up to rounding) and at most (1 + tol/2) times it.  A
    Holder bound on the maximum, known before any cell is summed, also
    bounds L from below, and so K and the cells from above.  Rows run
    along the larger rate: for alpha < beta the bound is taken at (beta,
    alpha).  The value is the same: both part sets are symmetric under
    (x1, x2) -> (x2, x1), and the grid of angles pi k / N_DIRECTIONS maps onto
    itself under theta -> pi/2 - theta because N_DIRECTIONS is even, which it
    must stay.  A lattice whose R_8 passes MAX_LATTICE_CELLS raises
    ValueError before the log-Z pass that gives Gamma; one whose R_K may pass
    it raises before its first cell.
    """
    _lattice_rates(params, tol)
    gamma = np.array(gibbs_covariance(params, part_set))
    return _lyapunov_lattice(params, part_set, gamma, tol)[0]


def _lyapunov_lattice(params: ShapeParams, part_set: PartSet, gamma, tol: float = 1e-10):
    """lyapunov_bound as (value, cells, tail_bound), the shape _series returns:
    the cells summed and the bound on the parts outside them that value
    includes.  gamma is the covariance of N at params."""
    a, b = _lattice_rates(params, tol)
    if params.alpha < params.beta:
        gamma = gamma[::-1, ::-1]  # the covariance at (beta, alpha)
    angles = np.pi * np.arange(N_DIRECTIONS) / N_DIRECTIONS
    whiten = _inv_sqrt(gamma)
    t1, t2 = whiten @ np.stack([np.cos(angles), np.sin(angles)])
    # |t.x| = |c1 x1 + d x2| with d >= 0, and |t.x| <= c (a x1 + b x2) for every t
    c1, d = np.where(t2 < 0, -t1, t1), np.abs(t2)
    c = max(float(np.abs(t1).max()) / a, float(d.max()) / b)
    coef = np.stack([c1 * c1 * c1, 3.0 * c1 * c1 * d, 3.0 * c1 * d * d, d * d * d])
    # c1 x1 + d x2 > 0 from x2 = floor(root x1) + 1 on; with d = 0 the sign is c1's
    root = np.divide(-c1, d, out=-np.sign(c1) * 2.0**60, where=d > 0)
    nonzero = part_set is PartSet.NONZERO_VECTORS
    sums = np.zeros(N_DIRECTIONS)

    def add(lo: float, hi: float) -> int:
        """Add the cells with lo < a x1 + b x2 <= hi to sums; return their count."""
        x1, start, n = _segments(a, b, nonzero, lo, hi)
        total = np.zeros(n.size + 1, dtype=np.int64)
        np.cumsum(n, out=total[1:])
        i = 0
        while i < n.size:
            j = int(np.searchsorted(total, total[i] + BLOCK_CELLS, side="right")) - 1
            off = total[i : j + 1] - total[i]
            x1c = np.repeat(x1[i:j], n[i:j])
            x2c = np.arange(off[-1]) + np.repeat(start[i:j] - off[:-1], n[i:j])
            y = a * x1c + b * x2c
            e = -np.expm1(-y)
            # suffix moments S_p[k] = sum_{k' >= k} x1^{3-p} x2^p w over the block
            terms = np.zeros((4, off[-1] + 1))
            mono = terms[:, :-1]
            mono[0] = 3.0 * np.exp(-y) / (e * e * e)
            for p in (1, 2, 3):
                mono[p] = mono[p - 1] * x2c
            mono[:3] *= x1c
            mono[:2] *= x1c
            mono[0] *= x1c
            suffix = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]
            # for every segment and t, the first cell past the root of c1 x1 + d x2
            past = np.floor(root * x1[i:j, None]) + 1.0 - start[i:j, None]
            split = (np.clip(past, 0.0, n[i:j, None]) + off[:-1, None]).astype(np.intp)
            # sum over a segment of |.|^3 = 2 (part past the root) - (whole segment),
            # each a difference of suffix moments; the segments fill the block
            ends = suffix[:, off[1:]].sum(axis=1)
            sums[:] += np.einsum(
                "pk,pk->k",
                coef,
                2.0 * np.take(suffix, split, axis=1).sum(axis=1)
                - (2.0 * ends + suffix[:, 0])[:, None],
            )
            i = j
        return int(total[-1])

    # Holder with sum_x (t.x)^2 q/(1-q)^2 = t.Gamma t = 1 gives
    # sum_x |t.x|^3 w >= 3/sqrt(sum_x q) for every t, before any cell is summed
    g0a, g0b = 1.0 / math.expm1(a), 1.0 / math.expm1(b)
    holder = 3.0 / math.sqrt(g0a * g0b + (g0a + g0b if nonzero else 0.0))
    _check_cells(_edge(0.5 * tol * holder, a, b, c), a, b)
    cells = add(0.0, FIRST_K)
    k = _edge(0.5 * tol * max(holder, float(sums.max())), a, b, c)
    cells += add(FIRST_K, k)
    tail = _tail_bound(k, a, b, c)
    return float(sums.max()) + tail, cells, tail


# ---------------------------------------------------------------------------
# LLT report
# ---------------------------------------------------------------------------


def llt_check(target: Target, part_set: PartSet, table: CountTable | None = None) -> dict:
    """The report that `bipart llt` prints: the normalized local-limit ratio
    2 pi sqrt(det Gamma) P(N = n) at n, with what it rests on.

    P(N = n) comes from the exact count (its decimal string) and log Z; the
    Gaussian prediction includes the mean-offset factor
    exp(-||Gamma^{-1/2}(n - E N)||^2 / 2).  Gamma, log Z and E N come from one
    log-Z pass, which the Lyapunov bound shares.  The keys keep the order in
    which `bipart llt` prints them; "extras" holds the mean offset, log Z and
    the Lyapunov lattice's cells and tail bound.
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

    params = calibrate(target, part_set).params
    log_z, mean1, mean2, caa, cab, cbb = _log_z_sums(params, part_set)
    gamma = np.array([[caa, cab], [cab, cbb]])
    det_gamma = float(np.linalg.det(gamma))
    lyap, cells, tail_bound = _lyapunov_lattice(params, part_set, gamma)
    log_p_n = math.log(p_exact) - (params.alpha * target.n1 + params.beta * target.n2) - log_z
    offset = _inv_sqrt(gamma) @ np.array([target.n1 - mean1, target.n2 - mean2])
    offset_sq = float(offset @ offset)
    return {
        "n1": target.n1,
        "n2": target.n2,
        "part_set": part_set.value,
        "alpha": params.alpha,
        "beta": params.beta,
        "det_gamma": det_gamma,
        "sigma_sq": float(np.linalg.eigvalsh(gamma)[0]),
        "lyapunov": lyap,
        "p_exact_decimal_string": str(p_exact),
        "normalized_ratio": math.exp(
            math.log(2.0 * math.pi) + 0.5 * math.log(det_gamma) + log_p_n
        ),
        "gamma": gamma.tolist(),
        "ellipse_radius": 1.0 / (4.0 * lyap),
        "gaussian_pred": math.exp(-0.5 * offset_sq) / (2.0 * math.pi * math.sqrt(det_gamma)),
        "extras": {"mean_offset_sq": offset_sq, "log_z": log_z,
                   "lyapunov_cells": cells, "lyapunov_tail_bound": tail_bound},
    }
