"""Boltzmann sampling and local-limit-theorem diagnostics.

A multiplicity with P(omega >= k) = q^k is sum_r r Pois(q^r / r), so the
sampler draws Pois(log Z) pairs (r, part) per replica, each adding r copies
of its part (Flajolet, Fusy and Pivoteau 2007), with r cut where a certified
tail bounds the total-variation distance.  Replicas come in chunks, one
random stream per chunk, drawn a group of chunks at a time.  The diagnostics
side evaluates the characteristic function of N, an upper bound on the
scale-free Lyapunov ratio over a direction grid (a sum over one region
alpha x1 + beta x2 <= K of the part lattice, walked in blocks of row
segments that are summed for every direction at once from their suffix
moments, plus a closed-form bound on the parts outside the region), and the
normalized local-limit ratio against exact counts.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .asymptotics import _log_z_sums, _log_z_terms, gibbs_covariance
from .calibration import ShapeParams, calibrate
from .exact_count import PartSet, Target, count_table
from .special_functions import DEFAULT_TOL, _geometric, _series

# replicas per random stream; a chunk holds ~CHUNK_REPLICAS * log Z pairs at
# once, so a larger chunk saves little time and costs memory
CHUNK_REPLICAS = 64
MAX_RATE_TERMS = 1 << 20  # longest r table (one float per family and r)
MAX_CHUNK_PAIRS = 1 << 22  # most pairs a chunk may expect (~60 bytes each)
# pairs a group of chunks expects: each group is drawn and post-processed with
# one set of numpy calls, so this bounds the sampler's memory, not its streams
GROUP_PAIRS = 1 << 15
# buckets of the pair CDF's guide table: at most 2.3% of the keys fall in a
# bucket that holds an edge and are searched, at calibrated (10, 400) to
# (1000, 10^6).  Twice as many buckets as table entries searched under 1%,
# but at nonzero (10, 10^6) with tv_budget 1e-300 (1.6e6 entries) that guide
# took 0.3 s and ~100 MB to build, where a whole chunk takes 0.03 s (2-core VM)
GUIDE_BUCKETS = 1 << 12


class TruncationError(ValueError):
    """The TV budget is invalid, or honouring it would pass a stated cap."""


@dataclass(frozen=True)
class SamplerSpec:
    params: ShapeParams
    part_set: PartSet
    tv_budget: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if not (0 < self.tv_budget <= 1e-3):
            raise TruncationError(
                f"tv_budget must lie in (0, 1e-3], got {self.tv_budget!r}"
            )


@dataclass(frozen=True)
class SampledPartition:
    multiplicities: dict  # part (x1, x2) -> multiplicity >= 1
    N: tuple[int, int]


def pair_rates(spec: SamplerSpec) -> tuple[np.ndarray, float]:
    """Rates lambda[f, r - 1] of the pairs (r, part) of each part family f (the
    order-0 rows of `_log_z_terms`), formed block by block up to the cut in r
    that `_series` sets at tol = tv_budget, and its bound on the rate of the
    dropped pairs, which bounds the chance that one occurs and so the TV
    distance.  As G0(x + a) <= e^{-a} G0(x), the total rate shrinks by e^{-decay}
    per step.  A block past MAX_RATE_TERMS raises TruncationError.  Cached per
    (params, part set, budget), whatever the seed, so the table is read-only:
    its callers share it."""
    return _rate_table(spec.params, spec.part_set, spec.tv_budget)


# One table per (params, part set, budget) serves `bipart sample`, every
# `sample` and `sample_batch` call at any seed and every `char_fn` frequency.
# At the MAX_RATE_TERMS cap a table is 3 x 2^20 floats (~25 MB), so the 4
# cached tables hold at most ~100 MB.
@lru_cache(maxsize=4)
def _rate_table(params: ShapeParams, part_set: PartSet, tv_budget: float) -> tuple:
    a, b = params.alpha, params.beta
    nonzero = part_set is PartSet.NONZERO_VECTORS
    kept = []

    def block(r: np.ndarray) -> np.ndarray:
        if r[-1] > MAX_RATE_TERMS:
            msg = f"tv_budget {tv_budget!r} may need more than {MAX_RATE_TERMS} terms of r"
            raise TruncationError(msg)
        kept.append(_log_z_terms(a, b, nonzero, r, 0))
        return kept[-1].sum(axis=0)

    _, cut, tail = _series(block, min(a, b) if nonzero else a + b, 0.0, tol=tv_budget)
    rates = np.concatenate(kept, axis=1)[:, :cut].copy()  # frees the columns past the cut
    rates.setflags(write=False)
    return rates, tail


def _inverse_cdf(cdf: np.ndarray):
    """The map from float keys v in [0, cdf[-1]] to searchsorted(cdf[:-1], v,
    "right"), by a guide table (indexed search: Chen and Asau 1974; Devroye
    1986, III.2.4).  [0, cdf[-1]] is cut into GUIDE_BUCKETS equal buckets, plus
    one for keys that round up to the top.  A bucket whose ends, widened by a
    relative 1e-12, hold no edge gives all its keys one index; only the keys
    of the other buckets, a few percent, are searched.  The widening covers
    any rounding of a key's bucket, so the index is exact.  Without a normal
    bucket width (log Z = 0, where no pair is drawn, or subnormal) every key
    is searched."""
    edges, total = cdf[:-1], cdf[-1]
    if total / GUIDE_BUCKETS < sys.float_info.min:
        return lambda v: np.searchsorted(edges, v, "right")
    ends = np.arange(GUIDE_BUCKETS + 2) * (total / GUIDE_BUCKETS)
    first = np.searchsorted(edges, ends[:-1] * (1.0 - 1e-12), "right")
    last = np.searchsorted(edges, ends[1:] * (1.0 + 1e-12), "right")
    guide = np.where(first == last, first, -1)  # -1: the bucket holds an edge
    scale = GUIDE_BUCKETS / total

    def invert(v: np.ndarray) -> np.ndarray:
        index = guide.take((v * scale).astype(np.intp))
        odd = np.flatnonzero(index < 0)
        index[odd] = np.searchsorted(edges, v[odd], "right")
        return index

    return invert


def _chunks(spec: SamplerSpec, first: int, stop: int):
    """Checks the caps, then returns an iterator of (base, bounds, r, x1, x2),
    one per group of consecutive chunks with a replica in [first, stop), drawn
    as it is reached; replica base + j owns the pairs bounds[j]:bounds[j+1],
    j < bounds.size - 1.  Chunk k always draws all its replicas from stream
    (seed, k), whatever range is asked for: its CHUNK_REPLICAS Poisson counts,
    then the uniforms that pick its pairs, the exponentials of their x1 and
    those of their x2.  A group holds the chunks that expect about GROUP_PAIRS
    pairs (at least one chunk), so each numpy call serves a whole group.  A
    pair's index in the flattened rate table comes from `_inverse_cdf`, and
    its r and coordinates from tables over that index."""
    rates, _ = pair_rates(spec)
    cdf = np.cumsum(rates)
    total = cdf[-1]
    if CHUNK_REPLICAS * total > MAX_CHUNK_PAIRS:
        msg = f"a chunk of {CHUNK_REPLICAS} replicas at log Z = {total:.6g} expects"
        raise TruncationError(f"{msg} more than {MAX_CHUNK_PAIRS} pairs")
    invert = _inverse_cdf(cdf)
    families, cut = rates.shape
    r_of = np.tile(np.arange(1, cut + 1), families)
    # a r and b r per flat index; inf on the axis family without that coordinate
    # (x2 = 0 on family 1, x1 = 0 on family 2), whose draw is then 0, not >= 1
    scale = np.outer((spec.params.alpha, spec.params.beta), r_of)
    if families == 3:
        scale[0, 2 * cut :] = scale[1, cut : 2 * cut] = np.inf
    # a replica expecting under one pair counts as one, so a group has at most
    # GROUP_PAIRS replicas, and log Z = 0 needs no division
    group = max(1, int(GROUP_PAIRS // (CHUNK_REPLICAS * max(total, 1.0))))

    def draw(chunks: range) -> tuple:
        rngs = [np.random.default_rng((spec.seed, chunk)) for chunk in chunks]
        bounds = np.zeros(CHUNK_REPLICAS * len(rngs) + 1, dtype=np.int64)
        for counts, rng in zip(bounds[1:].reshape(-1, CHUNK_REPLICAS), rngs):
            counts[:] = rng.poisson(total, CHUNK_REPLICAS)
        np.cumsum(bounds, out=bounds)
        ends = bounds[::CHUNK_REPLICAS].tolist()  # each chunk's first pair

        def fill(method: str) -> np.ndarray:
            out = np.empty(ends[-1])
            for rng, lo, hi in zip(rngs, ends, ends[1:]):
                getattr(rng, method)(out=out[lo:hi])
            return out

        keys = fill("random")
        keys *= total
        index = invert(keys)
        del keys

        def coordinate(axis: int) -> np.ndarray:
            # geometric x >= 1: P(x > k) = P(E > k r alpha) = e^{-k r alpha}
            e = fill("standard_exponential")
            ar = scale[axis].take(index)
            e /= ar
            present = ar < np.inf
            del ar
            x = e.astype(np.int64)
            del e
            x += present
            return x

        x1, x2 = coordinate(0), coordinate(1)
        return chunks.start * CHUNK_REPLICAS, bounds, r_of.take(index), x1, x2

    chunks = range(first // CHUNK_REPLICAS, -(-stop // CHUNK_REPLICAS))
    return map(draw, (chunks[i : i + group] for i in range(0, len(chunks), group)))


def samples(spec: SamplerSpec, first: int, stop: int):
    """Replicas first..stop-1 as a lazy iterator of partitions, drawing each
    group of chunks once; the index and the caps of `_chunks` are checked at
    the call."""
    if first < 0:
        raise ValueError(f"replica index must be >= 0, got {first!r}")
    return _partitions(_chunks(spec, first, stop), first, stop)


def _partitions(chunks, first: int, stop: int):
    """The partitions of replicas first..stop-1 from the groups of `_chunks`
    that hold them."""
    for base, bounds, r, x1, x2 in chunks:
        for j in range(max(first - base, 0), min(stop - base, bounds.size - 1)):
            copies, p1, p2 = (v[bounds[j] : bounds[j + 1]] for v in (r, x1, x2))
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

    A tracked part's multiplicity is the sum of r over the pairs on it.  Each
    group of `_chunks` gives its rows at once, as differences of running sums.
    """
    if reps < 0:
        raise ValueError(f"reps must be >= 0, got {reps!r}")
    lowest = 0 if spec.part_set is PartSet.NONZERO_VECTORS else 1
    for p in tracked_parts:
        if min(p) < lowest or tuple(p) == (0, 0):
            raise ValueError(f"tracked part {p} is outside the part set")
    columns = np.empty((reps, 2 + len(tracked_parts)), dtype=np.int64)
    for base, bounds, r, x1, x2 in _chunks(spec, 0, reps):
        rows = min(bounds.size - 1, reps - base)
        sums = np.zeros(r.size + 1, dtype=np.int64)
        running = sums[1:]
        weights = [x1, x2] + [(x1 == p1) & (x2 == p2) for p1, p2 in tracked_parts]
        for col, w in enumerate(weights):
            # per-replica sums as differences of running sums, exact in int64
            np.multiply(r, w, out=running)
            np.cumsum(running, out=running)
            columns[base : base + rows, col] = (sums[bounds[1:]] - sums[bounds[:-1]])[:rows]
    return BatchResult(columns[:, :2], columns[:, 2:])


# ---------------------------------------------------------------------------
# Characteristic function
# ---------------------------------------------------------------------------


def char_fn(params: ShapeParams, part_set: PartSet, t: tuple[float, float]) -> complex:
    """Characteristic function of N at t: log phi = sum_r [the log-Z terms at
    (alpha - i t1, beta - i t2) minus those at (alpha, beta)] over the part
    families, r up to the cut of `pair_rates` at tv_budget DEFAULT_TOL/2, whose
    table gives the real terms; past MAX_RATE_TERMS it raises TruncationError."""
    try:
        real, _ = _rate_table(params, part_set, DEFAULT_TOL / 2)
    except TruncationError:
        msg = f"the cut of phi at (alpha, beta) = ({params.alpha!r}, {params.beta!r})"
        raise TruncationError(f"{msg} would pass {MAX_RATE_TERMS} terms of r") from None
    r = np.arange(1.0, real.shape[1] + 1.0)
    a, b = complex(params.alpha, -t[0]), complex(params.beta, -t[1])
    # each shifted term is at most its real one in modulus, so the terms past
    # the cut add at most twice the rates' tail bound, below DEFAULT_TOL
    shifted = _log_z_terms(a, b, part_set is PartSet.NONZERO_VECTORS, r, 0)
    return complex(np.exp((shifted - real).sum()))


def char_fn_bound(params: ShapeParams, t: tuple[float, float]) -> float:
    """Elementary product bound on |phi| for the strict part set:
    exp(|G0(a - i t1) G0(b - i t2)| - G0(a) G0(b)), the interior terms at r = 1."""
    a, b = params.alpha, params.beta
    t1, t2 = t
    shifted = _log_z_terms(complex(a, -t1), complex(b, -t2), False, 1.0, 0)[0]
    return math.exp(abs(shifted) - _log_z_terms(a, b, False, 1.0, 0)[0])


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
FIRST_K = 8.0  # smallest edge K of the region (the tail bound T(K) needs K >= 3)
# the bound is at most 1 + LYAPUNOV_TOL/2 times the full lattice sum
LYAPUNOV_TOL = 1e-10


def _check_cells(k: float, a: float, b: float) -> None:
    """Refuse the region a x1 + b x2 <= k if it may hold more cells than the
    cap: row x1 of it holds at most (k - a x1)/b + 1 cells."""
    rows = math.floor(k / a) + 1
    cells = rows * (k / b + 1.0) - a / b * rows * (rows - 1) / 2
    if cells > MAX_LATTICE_CELLS:
        msg = f"the Lyapunov lattice at (alpha, beta) = ({a!r}, {b!r}) may take"
        raise ValueError(f"{msg} {cells:.0f} cells, above the cap of {MAX_LATTICE_CELLS}")


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


def _segments(a: float, b: float, nonzero: bool, k: float):
    """The rows of {x in the part set : a x1 + b x2 <= k} as arrays (x1, first
    x2, cells), each row cut into segments of at most BLOCK_CELLS cells.  A row
    starts at x2 = 1, or at x2 = 0 for x1 >= 1 in the nonzero set."""
    x1 = np.arange(0 if nonzero else 1, math.floor(k / a) + 1)
    start = np.where(nonzero & (x1 > 0), 0.0, 1.0)
    n = np.maximum(np.floor((k - a * x1) / b) + 1.0 - start, 0.0).astype(np.int64)
    pieces = -(-n // BLOCK_CELLS)
    row = np.repeat(np.arange(n.size), pieces)
    skip = BLOCK_CELLS * (np.arange(row.size) - np.repeat(np.cumsum(pieces) - pieces, pieces))
    return x1[row], start[row] + skip, np.minimum(n[row] - skip, BLOCK_CELLS)


def lyapunov_bound(params: ShapeParams, part_set: PartSet) -> float:
    """Upper bound max_t sum_x |t.x|^3 w(x) on the scale-free Lyapunov ratio
    over a grid of directions t with ||Gamma^{1/2} t|| = 1, where
    w = 3q/(1-q)^3 with q = e^{-<lambda,x>} is the Cauchy-Schwarz bound on a
    part's third absolute moment.

    With (a, b) = (alpha, beta), the sum runs over one region R_K = {x :
    a x1 + b x2 <= K} and adds the closed-form bound T(K) on every part
    outside it (`_tail_bound`).  Holder's inequality gives a lower bound H on
    the maximum before any cell is summed, and K is the smallest integer
    >= FIRST_K with T(K) <= LYAPUNOV_TOL/2 H.  So the value is at least the
    full lattice sum (up to rounding) and at most 1 + LYAPUNOV_TOL/2 times
    it.  The region is walked once, in blocks of whole row segments, at most
    BLOCK_CELLS cells each: with c = t1 x1 and d = t2 (t negated where
    t2 < 0), a segment's sum of |c + d x2|^3 w for every t comes from its
    suffix moments sum_{x2 >= A} x1^{3-p} x2^p w, split at the root of
    c + d x2.  Rows run along the larger rate: for alpha < beta the bound is
    taken at (beta, alpha).  The value is the same: both part sets are
    symmetric under (x1, x2) -> (x2, x1), and the grid of angles
    pi k / N_DIRECTIONS maps onto itself under theta -> pi/2 - theta because
    N_DIRECTIONS is even, which it must stay.  A lattice whose R_8 passes
    MAX_LATTICE_CELLS raises ValueError before the log-Z pass that gives
    Gamma; one whose R_K may pass it raises before its first cell.
    """
    _check_cells(FIRST_K, max(params.alpha, params.beta), min(params.alpha, params.beta))
    gamma = np.array(gibbs_covariance(params, part_set))
    return _lyapunov_lattice(params, part_set, gamma)[0]


def _lyapunov_lattice(params: ShapeParams, part_set: PartSet, gamma):
    """lyapunov_bound as (value, cells, tail_bound), the shape _series returns:
    the cells summed and the bound on the parts outside them that value
    includes.  gamma is the covariance of N at params."""
    a, b = max(params.alpha, params.beta), min(params.alpha, params.beta)
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
    # Holder with sum_x (t.x)^2 q/(1-q)^2 = t.Gamma t = 1 gives
    # sum_x |t.x|^3 w >= 3/sqrt(sum_x q) for every t, before any cell is summed
    holder = 3.0 / math.sqrt(_log_z_terms(a, b, nonzero, 1.0, 0).sum())
    k = _edge(0.5 * LYAPUNOV_TOL * holder, a, b, c)
    _check_cells(k, a, b)
    x1, start, n = _segments(a, b, nonzero, k)
    total = np.zeros(n.size + 1, dtype=np.int64)
    np.cumsum(n, out=total[1:])
    sums = np.zeros(N_DIRECTIONS)
    i = 0
    while i < n.size:
        j = int(np.searchsorted(total, total[i] + BLOCK_CELLS, side="right")) - 1
        off = total[i : j + 1] - total[i]
        x1c = np.repeat(x1[i:j], n[i:j])
        x2c = np.arange(off[-1]) + np.repeat(start[i:j] - off[:-1], n[i:j])
        # suffix moments S_p[k] = sum_{k' >= k} x1^{3-p} x2^p w over the block
        terms = np.zeros((4, off[-1] + 1))
        mono = terms[:, :-1]
        g0, g1 = _geometric(a * x1c + b * x2c, 1)
        mono[0] = 3.0 * g1 * (1.0 + g0)  # w = 3q/(1-q)^3 at q = e^{-(a x1 + b x2)}
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
        sums += np.einsum(
            "pk,pk->k",
            coef,
            2.0 * np.take(suffix, split, axis=1).sum(axis=1)
            - (2.0 * ends + suffix[:, 0])[:, None],
        )
        i = j
    tail = _tail_bound(k, a, b, c)
    return float(sums.max()) + tail, int(total[-1]), tail


# ---------------------------------------------------------------------------
# LLT report
# ---------------------------------------------------------------------------


def llt_check(target: Target, part_set: PartSet) -> dict:
    """The report that `bipart llt` prints: the normalized local-limit ratio
    2 pi sqrt(det Gamma) P(N = n) at n, with what it rests on.

    P(N = n) comes from the exact count (its decimal string) and log Z; the
    Gaussian prediction includes the mean-offset factor
    exp(-||Gamma^{-1/2}(n - E N)||^2 / 2).  Gamma, log Z and E N come from one
    log-Z pass, which the Lyapunov bound shares.  The keys keep the order in
    which `bipart llt` prints them; "extras" holds the mean offset, log Z and
    the Lyapunov lattice's cells and tail bound.
    """
    p_exact = count_table(part_set, target.n1, target.n2).get(target.n1, target.n2)

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
