"""Boltzmann sampling and local-limit-theorem diagnostics.

A multiplicity with P(omega >= k) = q^k is sum_r r Pois(q^r / r), so the
sampler draws Pois(log Z) pairs (r, part) per replica, each adding r copies
of its part (Flajolet, Fusy and Pivoteau 2007), with r cut where a certified
tail bounds the total-variation distance.  Replicas come in chunks, one
random stream per chunk, drawn a group of chunks at a time.  The diagnostics
side evaluates the characteristic function of N, an upper bound on the
scale-free Lyapunov ratio over a direction grid (by Cauchy-Schwarz, from the
five quartic moments of the part lattice, summed as one r-series), and the
normalized local-limit ratio against exact counts.  The rates, the
characteristic function and the quartic moments all read their G-products
from `asymptotics._log_z_terms`: its order-0 rows and its order-4 rows.
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
from .special_functions import DEFAULT_TOL, _series

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
# chunks whose stream seeds are hashed at once, in whole groups: at 32 bytes
# of seed words a chunk, a lazy range holds at most ~32 KB of them
_SEED_BLOCK = 1 << 10
# the constants of numpy's SeedSequence (O'Neill's seed_seq hash, 4-word pool)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


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
    order-0 rows of `_log_z_terms`) up to the cut in r that `_series` sets at
    tol = tv_budget, and its bound on the rate of the dropped pairs, which
    bounds the chance that one occurs and so the TV distance.  As
    G0(x + a) <= e^{-a} G0(x), the total rate shrinks by e^{-decay} per step.
    A cut past MAX_RATE_TERMS raises TruncationError naming (alpha, beta).
    Cached per (params, part set, budget), whatever the seed, so the table is
    read-only: its callers share it."""
    return _rate_table(spec.params, spec.part_set, spec.tv_budget)


# One table per (params, part set, budget) serves `bipart sample`, every
# `sample` and `sample_batch` call at any seed and every `char_fn` frequency.
# At the MAX_RATE_TERMS cap a table is 3 x 2^20 floats (~25 MB), so the 4
# cached tables hold at most ~100 MB.
@lru_cache(maxsize=4)
def _rate_table(params: ShapeParams, part_set: PartSet, tv_budget: float) -> tuple:
    a, b = params.alpha, params.beta
    nonzero = part_set is PartSet.NONZERO_VECTORS

    def block(r: np.ndarray) -> np.ndarray:
        if r[-1] > MAX_RATE_TERMS:
            msg = f"the cut in r at (alpha, beta) = ({a!r}, {b!r}) would pass"
            raise TruncationError(f"{msg} {MAX_RATE_TERMS} terms of r")
        return _log_z_terms(a, b, nonzero, r, range(1)).sum(axis=0)

    _, cut, tail = _series(block, min(a, b) if nonzero else a + b, 0.0, tol=tv_budget)
    rates = _log_z_terms(a, b, nonzero, np.arange(1.0, cut + 1.0), range(1))
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


def _uint32_words(n: int) -> list:
    """The 32-bit words of n >= 0, least significant first ([0] for 0), as
    SeedSequence splits an int of its entropy."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """init mult^k mod 2^32, k < n, as a uint32 column: the constants that
    SeedSequence's hashmix steps in turn take."""
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(n)], np.uint32)[:, None]


_HASH_B = _hash_constants(_INIT_B, _MULT_B, 9)  # for the 8 steps that form the output


def _hashmix(value: np.ndarray, const: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of row i of value with const[i] and const[i + 1]."""
    value = value ^ const[:-1]
    value *= const[1:]
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    result ^= result >> 16
    return result


def _seed_words(seed: int, first: int, n: int) -> np.ndarray:
    """Row i < n is SeedSequence((seed, first + i)).generate_state(4, np.uint64),
    the words that seed chunk first + i's PCG64, for chunks that share k >> 32.

    The entropy of (seed, k) is the words of seed, then those of k: for
    these chunks only k's low word varies, so SeedSequence's hash runs once,
    step for step, on uint32 arrays over the chunks, with the hashmix steps
    that do not feed each other stacked as rows.  The first row is checked
    against numpy's own SeedSequence (one chunk takes that row as it is), so
    a change of numpy's hash stops the sampler rather than its streams."""
    reference = np.random.SeedSequence((seed, first)).generate_state(4, np.uint64)
    if n == 1:
        return reference[None]
    seed_words = _uint32_words(seed)
    words = seed_words + _uint32_words(first)
    entropy = np.zeros((max(4, len(words)), n), np.uint32)  # zeros fill the pool
    entropy[: len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(seed_words)] += np.arange(n, dtype=np.uint32)
    # 4 steps fill the pool, 12 mix it, and 4 mix in each further word
    const = _hash_constants(_INIT_A, _MULT_A, 4 * len(entropy) + 1)
    pool = _hashmix(entropy[:4], const[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], const[4 + 3 * src : 8 + 3 * src]))
    for i in range(4, len(entropy)):
        pool = _mix(pool, _hashmix(entropy[i], const[4 * i : 4 * i + 5]))
    state = _hashmix(np.tile(pool, (2, 1)), _HASH_B)
    words = np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64, copy=False)
    if not np.array_equal(words[0], reference):
        raise RuntimeError("numpy's SeedSequence no longer hashes as the sampler's seeding does")
    return words


class _SeedWords:
    """One chunk's seed words, handed to np.random.PCG64 in place of the
    SeedSequence((seed, k)) they come from: PCG64 asks for
    generate_state(4, np.uint64) once and seeds itself from the answer."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype) -> np.ndarray:
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError(f"seed words are 4 uint64, not {n_words} {dtype}")
        return self.words


def _block_words(seed: int, chunks: range) -> np.ndarray:
    """`_seed_words` over a range of chunks, one run per k >> 32."""
    runs = []
    k = chunks.start
    while k < chunks.stop:
        n = min(chunks.stop, (k >> 32) + 1 << 32) - k
        runs.append(_seed_words(seed, k, n))
        k += n
    return np.concatenate(runs)


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
    its r and coordinates from tables over that index.

    Stream (seed, k) is np.random.default_rng((seed, k)), built as a PCG64
    on the words of `_block_words`, which hashes the seeds of a block of
    whole groups (about _SEED_BLOCK chunks) at once, as they are reached."""
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

    def draw(start: int, words: np.ndarray) -> tuple:
        rngs = [np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words]
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
        return start * CHUNK_REPLICAS, bounds, r_of.take(index), x1, x2

    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    chunks = range(first // CHUNK_REPLICAS, -(-stop // CHUNK_REPLICAS))
    block = group * max(1, _SEED_BLOCK // group)

    def groups():
        for i in range(0, len(chunks), block):
            words = _block_words(spec.seed, chunks[i : i + block])
            for j in range(0, len(words), group):
                yield draw(chunks[i + j], words[j : j + group])

    return groups()


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
    group of `_chunks` gives its rows at once, as sums of r x1, r x2 and r
    [part == p] over each replica's segment of pairs by np.add.reduceat.
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
        starts, end = bounds[:rows], bounds[rows]
        empty = starts == bounds[1 : rows + 1]
        # one 0 past the pairs, so an empty replica's start is a valid index
        products = np.zeros(end + 1, dtype=np.int64)
        r, x1, x2 = r[:end], x1[:end], x2[:end]
        weights = [x1, x2] + [(x1 == p1) & (x2 == p2) for p1, p2 in tracked_parts]
        for col, w in enumerate(weights):
            np.multiply(r, w, out=products[:end])
            sums = np.add.reduceat(products, starts)  # exact in int64
            sums[empty] = 0  # reduceat gives an empty segment its start's value
            columns[base : base + rows, col] = sums
    return BatchResult(columns[:, :2], columns[:, 2:])


# ---------------------------------------------------------------------------
# Characteristic function
# ---------------------------------------------------------------------------


def char_fn(params: ShapeParams, part_set: PartSet, t: tuple[float, float]) -> complex:
    """Characteristic function of N at t: log phi = sum_r [the log-Z terms at
    (alpha - i t1, beta - i t2) minus those at (alpha, beta)] over the part
    families, r up to the cut of `pair_rates` at tv_budget DEFAULT_TOL/2, whose
    table gives the real terms; past MAX_RATE_TERMS it raises TruncationError."""
    real, _ = _rate_table(params, part_set, DEFAULT_TOL / 2)
    r = np.arange(1.0, real.shape[1] + 1.0)
    a, b = complex(params.alpha, -t[0]), complex(params.beta, -t[1])
    # each shifted term is at most its real one in modulus, so the terms past
    # the cut add at most twice the rates' tail bound, below DEFAULT_TOL
    shifted = _log_z_terms(a, b, part_set is PartSet.NONZERO_VECTORS, r, range(1))
    return complex(np.exp((shifted - real).sum()))


def char_fn_bound(params: ShapeParams, t: tuple[float, float]) -> float:
    """Elementary product bound on |phi| for the strict part set:
    exp(|G0(a - i t1) G0(b - i t2)| - G0(a) G0(b)), the interior terms at r = 1."""
    a, b = params.alpha, params.beta
    t1, t2 = t
    shifted = _log_z_terms(complex(a, -t1), complex(b, -t2), False, 1.0, range(1))[0]
    return math.exp(abs(shifted) - _log_z_terms(a, b, False, 1.0, range(1))[0])


# ---------------------------------------------------------------------------
# Lyapunov ratio
# ---------------------------------------------------------------------------


def _inv_sqrt(matrix: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(matrix)
    if w[0] <= 0:
        raise ValueError("covariance matrix is not positive definite")
    return (v * (1.0 / np.sqrt(w))) @ v.T


N_DIRECTIONS = 360  # directions on the half circle
_CIRCLE = np.stack([np.cos(np.pi * np.arange(N_DIRECTIONS) / N_DIRECTIONS),
                    np.sin(np.pi * np.arange(N_DIRECTIONS) / N_DIRECTIONS)])
# Most r-terms the quartic-moment series may be expected to take, estimated
# as log(1/DEFAULT_TOL)/decay (0.7-3.8 times the terms taken, measured)
MAX_LYAPUNOV_TERMS = 1 << 20


def _quartic_moments(params: ShapeParams, part_set: PartSet) -> tuple:
    """(M, dropped, terms, tail): M[i] = sum_x x1^i x2^{4-i} q/(1-q)^4 over the
    part set, q = e^{-(alpha x1 + beta x2)}, i = 0..4, as one `_series` pass
    over the order-4 rows of `_log_z_terms`.

    q/(1-q)^4 = sum_r C(r+2, 3) q^r, so M[i] = sum_r C(r+2, 3) G_i(r alpha)
    G_{4-i}(r beta): C(r+2, 3)/r^3 times the row (i, 4 - i), r^3 G_i G_{4-i}.
    The nonzero set's axes add their order-4 rows, r^3 G_4(r alpha) to M[4]
    and r^3 G_4(r beta) to M[0], under the same weight.  As G_i(x + a) <=
    e^{-a} G_i(x) and C(r+3, 3)/C(r+2, 3) <= ((r+1)/r)^3, the terms obey the
    kernel's ratio bound with decay alpha + beta (min(alpha, beta) with the
    axes) and growth 3.  Each M[i] is summed in units of its r = 1 term, in
    which tail, the kernel's bound, is stated; dropped[i] = tail * unit is at
    least the terms it left out.  Rates whose series may pass
    MAX_LYAPUNOV_TERMS raise ValueError before the pass, and a first term
    that overflows in it."""
    a, b = params.alpha, params.beta
    nonzero = part_set is PartSet.NONZERO_VECTORS
    decay = min(a, b) if nonzero else a + b
    expected = math.log(1.0 / DEFAULT_TOL) / decay
    if expected > MAX_LYAPUNOV_TERMS:
        msg = f"the Lyapunov series at (alpha, beta) = ({a!r}, {b!r}) may take"
        raise ValueError(f"{msg} {expected:.3g} terms, above the cap of {MAX_LYAPUNOV_TERMS}")
    unit = None  # the r = 1 terms, from the first block

    def block(r):
        nonlocal unit
        rows = _log_z_terms(a, b, nonzero, r, range(4, 5))
        m = rows[4::-1]  # (i, 4 - i), i rising
        if nonzero:
            m[[4, 0]] += rows[5:]  # the axes x2 = 0 and x1 = 0
        if unit is None:
            if not np.isfinite(m[:, 0]).all():
                raise ValueError(f"a quartic moment at (alpha, beta) = ({a!r}, {b!r}) overflows")
            unit = np.maximum(m[:, :1], sys.float_info.min)
        m *= (r + 1.0) * (r + 2.0) / (6.0 * r * r)  # C(r + 2, 3)/r^3
        m /= unit
        return m

    sums, terms, tail = _series(block, decay, 3.0)
    return np.array(sums) * unit[:, 0], tail * unit[:, 0], terms, tail


def lyapunov_bound(params: ShapeParams, part_set: PartSet) -> float:
    """Upper bound on the scale-free Lyapunov ratio max_t sum_x |t.x|^3 w(x)
    over a grid of N_DIRECTIONS directions t on the half circle with
    ||Gamma^{1/2} t|| = 1, where w = 3q/(1-q)^3, q = e^{-<lambda,x>}, is the
    Cauchy-Schwarz bound on a part's third absolute moment.

    With v = q/(1-q)^2, the variance of a part's multiplicity, sum_x (t.x)^2 v
    = t.Gamma t = 1, so Cauchy-Schwarz gives sum_x |t.x|^3 w <= 3 Q(t)^{1/2},
    Q(t) = sum_x (t.x)^4 q/(1-q)^4 = sum_i C(4, i) t1^i t2^{4-i} M[i] from the
    quartic moments of `_quartic_moments`.  The value is 3 (max_t Q)^{1/2},
    each Q(t) raised by sum_i |C(4, i) t1^i t2^{4-i}| dropped[i], which bounds
    the terms the series left out, so it never falls below the bound of the
    full sums; it is 1.11-1.19 times the lattice sum itself.  The moments,
    and their refusals, come before the log-Z pass that gives Gamma.
    """
    return _lyapunov_series(params, part_set)[0]


def _lyapunov_series(params: ShapeParams, part_set: PartSet, gamma=None):
    """lyapunov_bound as (value, terms, tail), the shape _series returns;
    gamma is the covariance of N at params, formed here if not given."""
    moments, dropped, terms, tail = _quartic_moments(params, part_set)
    if gamma is None:
        gamma = np.array(gibbs_covariance(params, part_set))
    t1, t2 = _inv_sqrt(gamma) @ _CIRCLE
    s1, s2 = t1 * t1, t2 * t2
    # C(4, i) t1^i t2^{4-i}, i = 0..4, by products (a float power is ~25x slower)
    mono = np.stack([s2 * s2, 4.0 * t1 * t2 * s2, 6.0 * s1 * s2, 4.0 * t1 * t2 * s1, s1 * s1])
    quartic = moments @ mono + dropped @ np.abs(mono)
    return 3.0 * math.sqrt(quartic.max()), terms, tail


# ---------------------------------------------------------------------------
# LLT report
# ---------------------------------------------------------------------------


def llt_check(target: Target, part_set: PartSet) -> dict:
    """The report that `bipart llt` prints: the normalized local-limit ratio
    2 pi sqrt(det Gamma) P(N = n) at n, with what it rests on.

    P(N = n) comes from the exact count (its decimal string) and log Z; the
    Gaussian prediction includes the mean-offset factor
    exp(-||Gamma^{-1/2}(n - E N)||^2 / 2).  Gamma, log Z and E N come from one
    log-Z pass, whose Gamma the Lyapunov bound takes.  The keys keep the
    order in which `bipart llt` prints them; "extras" holds the mean offset,
    log Z, and the terms and tail bound of the Lyapunov bound's series (the
    tail in units of each quartic moment's first term).
    """
    p_exact = count_table(part_set, target.n1, target.n2).get(target.n1, target.n2)

    params = calibrate(target, part_set).params
    log_z, mean1, mean2, caa, cab, cbb = _log_z_sums(params, part_set)
    gamma = np.array([[caa, cab], [cab, cbb]])
    det_gamma = float(np.linalg.det(gamma))
    lyap, terms, tail_bound = _lyapunov_series(params, part_set, gamma)
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
                   "lyapunov_terms": terms, "lyapunov_tail_bound": tail_bound},
    }
