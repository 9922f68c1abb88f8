"""Boltzmann sampling and local-limit-theorem diagnostics.

A multiplicity with P(omega >= k) = q^k is sum_r r Pois(q^r / r), so the
sampler draws Pois(log Z) pairs (r, part) per replica, each adding r copies
of its part (Flajolet, Fusy and Pivoteau 2007), with r cut where a certified
tail bounds the total-variation distance.  Replicas come in chunks, one
random stream per chunk.  The diagnostics side evaluates the characteristic
function of N, an upper bound on the scale-free Lyapunov ratio over a
direction grid (one pass over the rows of the part lattice, each row summed
for every direction from its suffix moments, with certified row and column
cuts), and the normalized local-limit ratio against exact counts.
"""

from __future__ import annotations

import itertools
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


def _check_cells(cells: int, a: float, b: float) -> None:
    if cells > MAX_LATTICE_CELLS:
        msg = f"the Lyapunov lattice at (alpha, beta) = ({a!r}, {b!r}) would take {cells} cells"
        raise ValueError(f"{msg}, above the cap of {MAX_LATTICE_CELLS}")


def _reach(rate: float) -> int:
    """First x with ((x + 1) / x)^3 e^{-rate} < 1, where a ratio bound starts."""
    return math.floor(1.0 / math.expm1(min(rate, 2000.0) / 3.0)) + 1


def _lattice_rates(params: ShapeParams, tol: float) -> tuple[float, float]:
    """The rates (a, b) with a >= b, rows running along a, once tol is valid
    and the cells before the first row and column cuts fit under the cap."""
    if not (0 < tol <= 1e-6):
        raise ValueError(f"tolerance must lie in (0, 1e-6], got {tol!r}")
    a, b = max(params.alpha, params.beta), min(params.alpha, params.beta)
    _check_cells(_reach(a) * _reach(b), a, b)
    return a, b


def lyapunov_bound(params: ShapeParams, part_set: PartSet, tol: float = 1e-10) -> float:
    """Upper bound max_t sum_x |t.x|^3 w(x) on the scale-free Lyapunov ratio
    over a grid of directions t with ||Gamma^{1/2} t|| = 1, where
    w = 3q/(1-q)^3 with q = e^{-<lambda,x>} is the Cauchy-Schwarz bound on a
    part's third absolute moment.

    One pass over the rows x1 of the part lattice: with c = t1 x1 and d = t2
    (t negated where t2 < 0), a row's sum of |c + d x2|^3 w for every t comes
    from its suffix moments sum_{x2 >= A} x2^p w, p <= 3, split at the root of
    c + d x2.  Columns, then rows, are cut where a ratio bound on the dropped
    cells falls below tol times the running total.  The bounds are added, so
    the value is at least the full lattice sum (up to rounding) and at most
    (1 + tol) times the kept one.  Rows run along the larger rate: for
    alpha < beta the bound is taken at (beta, alpha).  The value is the same:
    both part sets are symmetric under (x1, x2) -> (x2, x1), and the grid of
    angles pi k / N_DIRECTIONS maps onto itself under theta -> pi/2 - theta
    because N_DIRECTIONS is even, which it must stay.  A lattice past
    MAX_LATTICE_CELLS raises ValueError before its first cell and before the
    log-Z pass that gives Gamma.
    """
    _lattice_rates(params, tol)
    gamma = np.array(gibbs_covariance(params, part_set))
    return _lyapunov_lattice(params, part_set, gamma, tol)[0]


def _lyapunov_lattice(params: ShapeParams, part_set: PartSet, gamma, tol: float = 1e-10):
    """lyapunov_bound as (value, cells, tail_bound), the shape _series returns:
    the cells summed and the bound on the dropped cells that value includes.
    gamma is the covariance of N at params."""
    a, b = _lattice_rates(params, tol)
    if params.alpha < params.beta:
        gamma = gamma[::-1, ::-1]  # the covariance at (beta, alpha)
    angles = np.pi * np.arange(N_DIRECTIONS) / N_DIRECTIONS
    whiten = _inv_sqrt(gamma)
    t1, t2 = whiten @ np.stack([np.cos(angles), np.sin(angles)])
    # |t.x| = |c1 x1 + d x2| with d >= 0, and |t.x| <= u x1 + v x2 for every t
    c1, d = np.where(t2 < 0, -t1, t1), np.abs(t2)
    u, v = float(np.abs(t1).max()), float(d.max())
    j = int(d.argmax())  # the direction whose running sum is the running total
    p = np.arange(4.0)[:, None]
    binomial = np.array([[1.0], [3.0], [3.0], [1.0]])
    nonzero = part_set is PartSet.NONZERO_VECTORS
    sums, tail, cells, n = np.zeros(N_DIRECTIONS), 0.0, 0, _reach(b)
    for x1 in itertools.count(0 if nonzero else 1):
        lo = 0 if nonzero and x1 else 1
        while True:
            _check_cells(cells + n, a, b)
            x2 = np.arange(lo, lo + n, dtype=float)
            g0, g1, _ = _geometric(a * x1 + b * x2)
            w = 3.0 * g1 * (1.0 + g0)
            # the cells after column x2 shrink by `ratio` per step (once it is
            # below 1), so they add up to at most `after`
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = ((x2 + 1.0) / x2) ** 3 * math.exp(-b)
                after = (u * x1 + v * x2) ** 3 * w * ratio / np.maximum(1.0 - ratio, 0.0)
            # row x1's share of the column budget; the shares add up to at most tol / 2
            budget = 0.5 * tol / ((x1 + 1) * (x1 + 2))
            running = sums[j] + np.cumsum(np.abs(c1[j] * x1 + d[j] * x2) ** 3 * w)
            cut = np.flatnonzero(after <= budget * np.maximum(sums.max(), running))
            if cut.size:
                break
            n *= 2
        m = int(cut[0]) + 1
        cells += m
        tail += float(after[m - 1])
        # suffix moments S_p[x2 - lo] = sum_{x2' >= x2} x2'^p w, zero past the cut
        terms = np.pad(x2[:m] ** p * w[:m], ((0, 0), (0, 1)))
        moments = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]
        coef = binomial * (c1 * x1) ** (3.0 - p) * d**p
        with np.errstate(divide="ignore", invalid="ignore"):
            past = np.floor(-c1 * x1 / d) + 1.0 - lo  # first column with c1 x1 + d x2 > 0
        positive = moments[:, np.clip(np.nan_to_num(past), 0, m).astype(np.intp)]
        # |c + d x2|^3 summed: the part past the root minus the part before it
        sums += 2.0 * np.einsum("pk,pk->k", coef, positive) - coef.T @ moments[:, 0]
        ratio = ((x1 + 1.0) / x1) ** 3 * math.exp(-a) if x1 else math.inf
        if ratio < 1.0:
            # each later row is at most `ratio` times the one before it
            row = (binomial * (u * x1) ** (3.0 - p) * v**p)[:, 0] @ moments[:, 0]
            rest = float(row + after[m - 1]) * ratio / (1.0 - ratio)
            if rest <= 0.5 * tol * sums.max():
                tail += rest
                return float(sums.max()) + tail, cells, tail
        n = m


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
