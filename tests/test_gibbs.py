"""Unit tests for the sampler, characteristic function and LLT diagnostics."""

import cmath
import hashlib
import itertools
import json
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from bipartitions import asymptotics, gibbs
from bipartitions.asymptotics import gibbs_covariance, log_z_direct
from bipartitions.calibration import ShapeParams, calibrate
from bipartitions.cli import main
from bipartitions.exact_count import PartSet, Target, count_table
from bipartitions.gibbs import (
    CHUNK_REPLICAS,
    GROUP_PAIRS,
    GUIDE_BUCKETS,
    MAX_CHUNK_PAIRS,
    MAX_LYAPUNOV_TERMS,
    MAX_RATE_TERMS,
    N_DIRECTIONS,
    SamplerSpec,
    TruncationError,
    _inverse_cdf,
    _quartic_moments,
    char_fn,
    char_fn_bound,
    llt_check,
    lyapunov_bound,
    pair_rates,
    sample,
    sample_batch,
    samples,
)
from bipartitions.special_functions import DEFAULT_TOL, _geometric

PARAMS = ShapeParams(0.9, 0.35)
NONZERO = PartSet.NONZERO_VECTORS
# calibrated nonzero (1000, 10^6), frozen; at the default budget its rate
# table is cut at r = 4578, in the seventh block of the series kernel
CALIBRATED_1000 = ShapeParams(0.8260637084168684, 0.001579979688045396)
STRICT = PartSet.STRICT_POSITIVE

# sha256 of sample_batch(spec, reps, tracked) (Ns then tracked_draws, as bytes)
# and of the `bipart sample --reps cli_reps` JSON at the calibrated targets,
# frozen from the sampler that drew each chunk on its own: chunk k's stream
# (seed, k) and every value drawn from it must stay as they are
FROZEN_REPS = {(10, 400): (4100, 130), (3, 3600): (11000, 130), (1000, 10**6): (130, 66)}
FROZEN_DIGESTS = {
    ((10, 400), "strict", 0): (
        "c05176998e0cab873a95a8690a85a9cb0988511e3db8db2d7cf169ecfbffcf62",
        "4f63c395fe68708153a1ed27621469ae3cc6209faed70c71140a950ffbfa3b97",
    ),
    ((10, 400), "strict", 7): (
        "1e458c1032436a6af0dc033b52ebf2ba1271390c73fa690e4f876e08ad38ba0e",
        "5aaac0ce5c9b710e9b1930daa6d6df99fc8a999cdc77026713ec46f6049e7bbe",
    ),
    ((10, 400), "nonzero", 0): (
        "e5285786bf1e39a6bb2247eece0a6a5687a193d4b7b74768da6995a2830b17d9",
        "94755f1dbd18e33a6b673d2eb27cc64d186172a00b9dbe5b597d12ce163579f0",
    ),
    ((10, 400), "nonzero", 7): (
        "1b89c7959afe018564be1aa106df6304736758141cd4dcd2287645fd617f3271",
        "1acd179618c44f78badfbfea059a114c2be7c9acecd09955d42b99ecb67fd0ed",
    ),
    ((3, 3600), "strict", 0): (
        "b2ce5403f1851e0e62d0658017865aac3556d157defcc64473372677f7ff1ee6",
        "ab064ab087c98c8354bf0b9d9a7b7cf2b4f623b5989d7dd32ad38f05d5895e8e",
    ),
    ((3, 3600), "strict", 7): (
        "d28867407fce003152f3f4d22169eaab71ccfc2d88d8f60c490b03814f764f9a",
        "46a52bc4cbd52bba2effb8f9e4a9d37383d093029308858e255e151ab608d1e5",
    ),
    ((3, 3600), "nonzero", 0): (
        "4be605663e35aefe0b108b6d25f0484bec3a28963a6a9621472fced378c06997",
        "c10d78f33873e4fbbfc1b6a7c6aadb066726fc3bbe13570ff5228b4798c7b72c",
    ),
    ((3, 3600), "nonzero", 7): (
        "fb90ccd36d55c409fed77a304fc88a0a0bc44d61fe3b8c5785bbcfae87c22b74",
        "fc3b4ea5287edc9d1fa4eaafe51b42880b098a3540149c930483617dfd1d0962",
    ),
    ((1000, 10**6), "strict", 0): (
        "177f0e4dda67a652971df81bfa7d643773cf448718139662d7c1f593af508ffa",
        "1d9712bdd988c8de164a6cda1912a84fc118ff3f6d3d0c4c7b58d69c7b850db0",
    ),
    ((1000, 10**6), "strict", 7): (
        "d8f2a6e9522f61c4768fe992cde97b5c1afc2307d17a1117096ec05356f7a20f",
        "97a9bd3d552ff56e376f80462d9328cddb65831db610541afc0667519d13326d",
    ),
    ((1000, 10**6), "nonzero", 0): (
        "ff55a4fc2cbcb3b608037117a668bb19187e5de2c0da0b74935c399950f322a4",
        "c0b8a977f0c35cab44f3be197c9037ddf7621b7daa9849c335852f8a7a94813b",
    ),
    ((1000, 10**6), "nonzero", 7): (
        "e602017ca0f7abc17168afb1256363151bb4fb59e0e7924cf9b476beb2322780",
        "eb64f87acdeebe75cdee29b80b85fcad379397410ca25fd5414d60096a533e18",
    ),
}


def reference_replica(spec: SamplerSpec, replica: int) -> gibbs.SampledPartition:
    """Replica i drawn with its chunk k alone from np.random.default_rng((seed, k)):
    the chunk's Poisson counts, then the uniforms that pick its pairs, then the
    exponentials of their x1 and those of their x2."""
    rates, _ = pair_rates(spec)
    cut = rates.shape[1]
    cdf = np.cumsum(rates)
    chunk, j = divmod(replica, CHUNK_REPLICAS)
    rng = np.random.default_rng((spec.seed, chunk))
    counts = rng.poisson(cdf[-1], CHUNK_REPLICAS)
    pairs = int(counts.sum())
    family, r = np.divmod(np.searchsorted(cdf[:-1], rng.random(pairs) * cdf[-1], "right"), cut)
    r += 1
    e1, e2 = rng.standard_exponential(pairs), rng.standard_exponential(pairs)
    # geometric x >= 1, and x2 = 0 on axis family 1, x1 = 0 on axis family 2
    x1 = np.where(family == 2, 0, (e1 / (spec.params.alpha * r)).astype(np.int64) + 1)
    x2 = np.where(family == 1, 0, (e2 / (spec.params.beta * r)).astype(np.int64) + 1)
    lo = int(counts[:j].sum())
    own = list(zip(r[lo : lo + counts[j]].tolist(), x1[lo:].tolist(), x2[lo:].tolist()))
    multiplicities: Counter = Counter()
    for k, p1, p2 in own:
        multiplicities[p1, p2] += k
    n = (sum(k * p1 for k, p1, _ in own), sum(k * p2 for k, _, p2 in own))
    return gibbs.SampledPartition(dict(multiplicities), n)


class TestSampler:
    def test_deterministic(self):
        spec = SamplerSpec(params=PARAMS, part_set=PartSet.STRICT_POSITIVE, seed=3)
        a = sample(spec, replica=5)
        b = sample(spec, replica=5)
        assert a == b
        assert sample(spec, replica=6) != a

    def test_batch_matches_single_draws(self):
        spec = SamplerSpec(params=PARAMS, part_set=PartSet.NONZERO_VECTORS, seed=11)
        batch = sample_batch(spec, 8, tracked_parts=((1, 1), (0, 1)))
        for i in range(8):
            single = sample(spec, replica=i)
            assert tuple(batch.Ns[i]) == single.N
            assert batch.tracked_draws[i, 0] == single.multiplicities.get((1, 1), 0)
            assert batch.tracked_draws[i, 1] == single.multiplicities.get((0, 1), 0)

    @pytest.mark.parametrize("part_set", list(PartSet))
    def test_batch_matches_single_draws_across_chunks(self, part_set):
        # reps is not a multiple of the chunk, so the last chunk is cut; a
        # group of chunks holds at most GROUP_PAIRS replicas, so the batch
        # spans a chunk boundary and a group boundary
        chunk = CHUNK_REPLICAS
        reps = GROUP_PAIRS + 5
        tracked = ((1, 1), (2, 1)) + (((0, 1), (1, 0)) if part_set is NONZERO else ())
        spec = SamplerSpec(params=PARAMS, part_set=part_set, seed=4)
        batch = sample_batch(spec, reps, tracked_parts=tracked)
        assert batch.Ns.shape == (reps, 2)
        group = next(gibbs._chunks(spec, 0, reps))[1].size - 1  # replicas in the first group
        assert chunk < group < reps - 1
        for edge in (chunk, group):
            listed = list(samples(spec, edge - 1, edge + 1))
            for i in (edge - 1, edge):
                assert listed[i - edge + 1] == sample(spec, replica=i)
        for i in (0, chunk - 1, chunk, group - 1, group, reps - 1):
            single = sample(spec, replica=i)
            assert tuple(batch.Ns[i]) == single.N
            for col, part in enumerate(tracked):
                assert batch.tracked_draws[i, col] == single.multiplicities.get(part, 0)

    @pytest.mark.parametrize("key", list(FROZEN_DIGESTS))
    def test_frozen_streams(self, key, capsys):
        (n1, n2), parts, seed = key
        part_set = PartSet(parts)
        reps, cli_reps = FROZEN_REPS[(n1, n2)]
        spec = SamplerSpec(calibrate(Target(n1, n2), part_set).params, part_set, seed=seed)
        tracked = ((1, 1), (2, 1)) + (((0, 1), (1, 0)) if part_set is NONZERO else ())
        batch = sample_batch(spec, reps, tracked_parts=tracked)
        drawn = hashlib.sha256(batch.Ns.tobytes() + batch.tracked_draws.tobytes()).hexdigest()
        argv = ["sample", "--n1", str(n1), "--n2", str(n2), "--parts", parts,
                "--reps", str(cli_reps), "--seed", str(seed)]
        assert main(argv) == 0
        printed = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert (drawn, printed) == FROZEN_DIGESTS[key]

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64, 2**96 + 1, 10**40])
    def test_seed_words_equal_seed_sequence(self, seed):
        # every entropy layout: a seed of one to five words (past SeedSequence's
        # 4-word pool) and a chunk index of one to three words
        for chunks in (range(0, 70), range(2**32 - 3, 2**32 + 3), range(2**64 - 2, 2**64 + 2)):
            words = gibbs._block_words(seed, chunks)
            assert words.shape == (len(chunks), 4) and words.dtype == np.uint64
            for row, k in zip(words, chunks):
                expected = np.random.SeedSequence((seed, k)).generate_state(4, np.uint64)
                assert np.array_equal(row, expected), k

    @pytest.mark.parametrize("part_set", list(PartSet))
    def test_replicas_beside_chunk_2_to_32(self, part_set):
        # replica 2^38 opens chunk 2^32, the first whose index takes two words
        params = calibrate(Target(10, 400), part_set).params
        for seed in (0, 2**40):
            spec = SamplerSpec(params, part_set, seed=seed)
            first = 2**38 - 3
            for i, drawn in enumerate(samples(spec, first, first + 6), first):
                assert drawn == reference_replica(spec, i)

    @pytest.mark.parametrize("case", ["strict log Z < 1", "nonzero log Z < 1", "log Z = 0"])
    def test_segment_sums_at_empty_replicas(self, case):
        # empty replicas, also the last of a group, and a log Z of 0 (no pair)
        part_set = NONZERO if case.startswith("nonzero") else STRICT
        if case == "log Z = 0":
            params = calibrate(Target(10**12, 1), STRICT).params
            assert pair_rates(SamplerSpec(params, STRICT))[0].sum() == 0.0
        else:
            params = ShapeParams(2.0, 3.0)  # log Z = 0.0082 strict, 0.23 nonzero
        spec = SamplerSpec(params, part_set, seed=5)
        group = next(gibbs._chunks(spec, 0, 1))[1].size - 1  # replicas in a group
        reps = group + 70
        tracked = ((1, 1), (2, 1)) + (((0, 1), (1, 0)) if part_set is NONZERO else ())
        batch = sample_batch(spec, reps, tracked_parts=tracked)
        listed = list(samples(spec, 0, reps))
        assert np.array_equal(batch.Ns, [p.N for p in listed])
        counts = [[p.multiplicities.get(part, 0) for part in tracked] for p in listed]
        assert np.array_equal(batch.tracked_draws, counts)
        for i in (0, group - 1, group, reps - 1):
            assert listed[i] == sample(spec, i)
        empty = ~batch.Ns.any(axis=1)
        assert empty[group - 1] and empty[-1]  # the last replica of each group
        assert empty.all() if case == "log Z = 0" else not empty.all()

    def test_one_seed_sequence_per_call(self, monkeypatch):
        # a call hashes its chunks' seeds as arrays; numpy builds one SeedSequence,
        # to check the first chunk's words, where a default_rng per chunk built 313
        spec = SamplerSpec(calibrate(Target(10, 400), STRICT).params, STRICT)
        built, calls = [], []
        seed_sequence, default_rng, pcg64, chunks = (
            np.random.SeedSequence, np.random.default_rng, np.random.PCG64, gibbs._chunks)

        def counted(make):
            def build(*args, **kwargs):
                built.append(args)
                return make(*args, **kwargs)
            return build

        def seeded(seed):
            if not isinstance(seed, np.random.bit_generator.ISeedSequence):
                built.append(seed)  # PCG64 hashes any other seed with a SeedSequence
            return pcg64(seed)

        def called(*args):
            calls.append(args)
            return chunks(*args)

        monkeypatch.setattr(np.random, "SeedSequence", counted(seed_sequence))
        monkeypatch.setattr(np.random, "default_rng", counted(default_rng))
        monkeypatch.setattr(np.random, "PCG64", seeded)
        monkeypatch.setattr(gibbs, "_chunks", called)
        sample_batch(spec, 20_000)
        assert len(calls) == 1 and len(built) == 1

    def test_first_replica_of_a_huge_range(self):
        # the first replica of 10^15 draws one group and hashes one block of
        # seeds, as a range of a few blocks does: nothing grows with the range
        spec = SamplerSpec(calibrate(Target(10, 400), STRICT).params, STRICT)

        def first_of(stop):
            tracemalloc.start()
            try:
                start = time.perf_counter()
                next(samples(spec, 0, stop))
                return time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        first_of(CHUNK_REPLICAS)  # caches filled outside the trace
        _, few_blocks = first_of(4 * gibbs._SEED_BLOCK * CHUNK_REPLICAS)
        elapsed, huge = first_of(10**15)
        assert huge <= few_blocks + 4096 and elapsed < 0.5

    @pytest.mark.parametrize(
        "table",
        ["strict", "nonzero", "strict 1000", "nonzero 1000", "strict zero runs",
         "nonzero zero runs", "edges on bucket ends", "one column", "zero", "subnormal"],
    )
    def test_inverse_cdf_is_searchsorted(self, table):
        # the guide table gives searchsorted's index exactly, on keys at and
        # beside every edge, every bucket end and the guide's widened ends
        if table == "edges on bucket ends":
            # at this total, the float just below bucket end k rounds into
            # bucket k for hundreds of k, so an edge on every third end is
            # missed unless the guide widens its ends
            total = float.fromhex("0x1.fff1944f9451fp+9")
            cdf = np.append(np.arange(3, GUIDE_BUCKETS, 3) * (total / GUIDE_BUCKETS), total)
        elif table in ("one column", "zero", "subnormal"):
            rates = {"one column": [0.7], "zero": [0.0, 0.0, 0.0], "subnormal": [1e-320, 2e-320]}
            cdf = np.cumsum(rates[table])
        else:
            part_set = PartSet(table.split()[0])
            params = CALIBRATED_1000 if table.endswith("1000") else PARAMS
            rates = np.array(pair_rates(SamplerSpec(params, part_set))[0])
            if table.endswith("zero runs"):  # repeated edges, also at both ends
                rates[:, :2] = rates[:, 3:5] = rates[:, -3:] = 0.0
            cdf = np.cumsum(rates)
        total = cdf[-1]
        ends = np.arange(GUIDE_BUCKETS + 2) * (total / GUIDE_BUCKETS)
        points = np.concatenate([cdf, ends, ends * (1.0 - 1e-12), ends * (1.0 + 1e-12), [0.0]])
        keys = np.concatenate(
            [points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf),
             [np.nextafter(total, 0.0)], total * np.random.default_rng(5).random(10_000)]
        )
        keys = keys[(keys >= 0.0) & (keys <= total)]
        assert np.array_equal(_inverse_cdf(cdf)(keys), np.searchsorted(cdf[:-1], keys, "right"))

    def test_peak_memory_per_pair(self):
        # one chunk at calibrated nonzero (1000, 10^6) peaks below the ~60 bytes
        # a pair that MAX_CHUNK_PAIRS assumes (~38 B traced), and a whole group
        # of chunks at strict (10, 400) below that chunk's bound
        chunk = SamplerSpec(CALIBRATED_1000, NONZERO)
        bound = 60 * CHUNK_REPLICAS * pair_rates(chunk)[0].sum()
        small = SamplerSpec(calibrate(Target(10, 400), STRICT).params, STRICT)
        group = next(gibbs._chunks(small, 0, GROUP_PAIRS))[1].size - 1
        assert group > CHUNK_REPLICAS
        for spec, reps in ((chunk, CHUNK_REPLICAS), (small, group)):
            sample_batch(spec, reps)  # caches filled outside the trace
            tracemalloc.start()
            try:
                sample_batch(spec, reps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound

    @pytest.mark.parametrize("part", [(0, 1), (3, 0)])
    def test_axis_part_is_geometric(self, part):
        # chi-square of an axis part's multiplicity against the geometric law
        # P(omega = k) = (1 - q) q^k, q = e^{-<lambda, x>}, as in criterion 8
        reps = 40_000
        spec = SamplerSpec(params=PARAMS, part_set=NONZERO, seed=2)
        draws = sample_batch(spec, reps, tracked_parts=(part,)).tracked_draws[:, 0]
        q = math.exp(-(PARAMS.alpha * part[0] + PARAMS.beta * part[1]))
        k_max = 0
        while reps * (1 - q) * q ** (k_max + 1) >= 5:
            k_max += 1
        observed = [np.sum(draws == k) for k in range(k_max + 1)] + [np.sum(draws > k_max)]
        expected = [reps * (1 - q) * q**k for k in range(k_max + 1)] + [reps * q ** (k_max + 1)]
        assert stats.chisquare(observed, expected).pvalue > 0.001

    @pytest.mark.parametrize("part_set", list(PartSet))
    @pytest.mark.parametrize("params", [PARAMS, ShapeParams(0.5, 0.02)])
    def test_rate_tail_bound(self, part_set, params):
        # the certified tail lies below the budget and above the dropped rate,
        # summed directly far past the cut; the kept rates sum to log Z
        budget = 1e-4
        spec = SamplerSpec(params=params, part_set=part_set, tv_budget=budget)
        rates, tail = pair_rates(spec)
        cut = rates.shape[1]
        r = np.arange(cut + 1, 200 * cut + 2000, dtype=float)
        with np.errstate(over="ignore"):
            ga = 1.0 / np.expm1(params.alpha * r)
            gb = 1.0 / np.expm1(params.beta * r)
        dropped = ga * gb + (ga + gb if part_set is NONZERO else 0.0)
        dropped = math.fsum(dropped / r)
        assert dropped < tail < budget
        log_z = log_z_direct(params, part_set)
        assert rates.sum() + dropped == pytest.approx(log_z, rel=1e-12)
        if cut > 1:  # the cut is the first r whose bound is below the budget
            a, b = params.alpha, params.beta
            decay = min(a, b) if part_set is NONZERO else a + b
            assert rates[:, -2].sum() / math.expm1(decay) >= budget

    @pytest.mark.parametrize("budget", [1e-4, 1e-12, 1e-300, 5e-324])
    @pytest.mark.parametrize("part_set", list(PartSet))
    @pytest.mark.parametrize("params", [PARAMS, ShapeParams(0.5, 0.02), CALIBRATED_1000])
    def test_cut_matches_a_direct_table(self, params, part_set, budget):
        # the cut is the first r whose ratio bound on the tail is below the
        # budget, in one table formed directly over r = 1..cut + 64; the kept
        # columns are that table's, bit for bit, and the tail is its bound
        rates, tail = pair_rates(SamplerSpec(params, part_set, tv_budget=budget))
        cut = rates.shape[1]
        a, b = params.alpha, params.beta
        nonzero = part_set is NONZERO
        table = asymptotics._log_z_terms(a, b, nonzero, np.arange(1.0, cut + 65.0), 0)
        q = math.exp(-(min(a, b) if nonzero else a + b))
        bounds = table.sum(axis=0) * q / (1.0 - q)
        assert cut == int(np.flatnonzero(bounds < budget)[0]) + 1
        assert np.array_equal(rates, table[:, :cut])
        assert tail == bounds[cut - 1] and tail <= budget

    @pytest.mark.parametrize("part_set", list(PartSet))
    def test_draw_consistency(self, part_set):
        spec = SamplerSpec(params=PARAMS, part_set=part_set, seed=0)
        drawn = sample(spec, replica=2)
        n1 = sum(x1 * m for (x1, _), m in drawn.multiplicities.items())
        n2 = sum(x2 * m for (_, x2), m in drawn.multiplicities.items())
        assert drawn.N == (n1, n2)
        for (x1, x2), m in drawn.multiplicities.items():
            assert m >= 1
            if part_set is PartSet.STRICT_POSITIVE:
                assert x1 >= 1 and x2 >= 1
            else:
                assert (x1, x2) != (0, 0) and x1 >= 0 and x2 >= 0

    def test_mean_roughly_calibrated(self):
        cal = calibrate(Target(8, 100), PartSet.STRICT_POSITIVE)
        spec = SamplerSpec(params=cal.params, part_set=PartSet.STRICT_POSITIVE, seed=1)
        batch = sample_batch(spec, 3000)
        mean = batch.Ns.mean(axis=0)
        assert mean[0] == pytest.approx(8.0, rel=0.1)
        assert mean[1] == pytest.approx(100.0, rel=0.1)

    def test_tv_budget_validation(self):
        with pytest.raises(TruncationError):
            SamplerSpec(params=PARAMS, part_set=PartSet.STRICT_POSITIVE, tv_budget=0.0)
        with pytest.raises(TruncationError):
            SamplerSpec(params=PARAMS, part_set=PartSet.STRICT_POSITIVE, tv_budget=0.1)

    def test_negative_seed_index_or_count_is_refused(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            SamplerSpec(params=PARAMS, part_set=PartSet.STRICT_POSITIVE, seed=-1)
        spec = SamplerSpec(params=PARAMS, part_set=PartSet.STRICT_POSITIVE)
        with pytest.raises(ValueError, match="^replica index must be >= 0, got -1$"):
            sample(spec, replica=-1)
        with pytest.raises(ValueError, match="^replica index must be >= 0, got -2$"):
            samples(spec, -2, 3)  # at the call, before any replica is asked for
        with pytest.raises(ValueError, match="^reps must be >= 0, got -3$"):
            sample_batch(spec, -3)

    def test_samples_checks_caps_at_the_call(self):
        # samples raises before any replica is asked for, not at the first next.
        # Strict (2e5, 4e10): a chunk would expect more than MAX_CHUNK_PAIRS pairs
        cal = calibrate(Target(200_000, 40_000_000_000), PartSet.STRICT_POSITIVE)
        spec = SamplerSpec(params=cal.params, part_set=PartSet.STRICT_POSITIVE)
        with pytest.raises(TruncationError, match=f"more than {MAX_CHUNK_PAIRS} pairs$"):
            samples(spec, 0, 1)
        # nonzero (10, 1e16): the rate table would pass MAX_RATE_TERMS
        cal = calibrate(Target(10, 10**16), NONZERO)
        cap = rf"^the cut in r at \(alpha, beta\) = .* would pass {MAX_RATE_TERMS} terms of r$"
        with pytest.raises(TruncationError, match=cap):
            samples(SamplerSpec(params=cal.params, part_set=NONZERO), 0, 1)

    def test_refused_rate_table_keeps_no_block(self):
        # nonzero (10, 1e16): the kernel forms MAX_RATE_TERMS columns block by
        # block before it refuses, and none of them is kept
        params = calibrate(Target(10, 10**16), NONZERO).params
        tracemalloc.start()
        try:
            with pytest.raises(TruncationError):
                pair_rates(SamplerSpec(params=params, part_set=NONZERO))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_overflowing_rate_is_refused_at_once(self):
        # at alpha = beta = 1e-200 the first term G0(alpha) G0(beta) overflows:
        # the kernel stops at it, before any other block is formed
        params = ShapeParams(1e-200, 1e-200)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^series term at r = 1 is not finite$"):
            log_z_direct(params, STRICT)
        with pytest.raises(ValueError, match="^series term at r = 1 is not finite$"):
            pair_rates(SamplerSpec(params=params, part_set=STRICT))
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("part_set", list(PartSet))
    def test_rates_own_their_data(self, part_set):
        # the table is its own array, not a view that keeps a longer one alive
        rates, _ = pair_rates(SamplerSpec(params=PARAMS, part_set=part_set))
        assert rates.flags.owndata and rates.flags.c_contiguous

    @pytest.mark.parametrize(
        "caller", ["cli sample", "char_fn grid", "64 samples", "5 seeds twice"]
    )
    def test_one_rate_table_per_spec(self, caller, monkeypatch, capsys):
        # the table is cached per (params, part set, budget), whatever the
        # seed, so each caller makes one series pass
        gibbs._rate_table.cache_clear()  # the cache is process-wide
        passes, series = [], gibbs._series

        def counted(*args, **kwargs):
            passes.append(args)
            return series(*args, **kwargs)

        monkeypatch.setattr(gibbs, "_series", counted)
        if caller == "cli sample":
            argv = ["sample", "--n1", "10", "--n2", "400", "--parts", "nonzero", "--reps", "3"]
            assert main(argv) == 0 and len(json.loads(capsys.readouterr().out)["replicas"]) == 3
        elif caller == "char_fn grid":
            for t in itertools.product(np.linspace(-1.0, 1.0, 17), repeat=2):
                char_fn(PARAMS, NONZERO, t)
        elif caller == "5 seeds twice":
            for seed in [0, 1, 2, 3, 4] * 2:
                sample_batch(SamplerSpec(params=PARAMS, part_set=NONZERO, seed=seed), 3)
        else:
            spec = SamplerSpec(params=PARAMS, part_set=NONZERO)
            for i in range(64):
                sample(spec, i)
        assert len(passes) == 1

    def test_cached_rates_are_read_only(self):
        rates, _ = pair_rates(SamplerSpec(params=PARAMS, part_set=NONZERO))
        with pytest.raises(ValueError):
            rates[0, 0] = 1.0

    def test_tracked_part_must_be_retained(self):
        spec = SamplerSpec(params=PARAMS, part_set=PartSet.STRICT_POSITIVE)
        with pytest.raises(ValueError):
            sample_batch(spec, 2, tracked_parts=((0, 1),))

    @pytest.mark.parametrize(
        "part_set, part",
        [(PartSet.STRICT_POSITIVE, (0, 0)), (NONZERO, (0, 0)), (NONZERO, (-1, 2))],
    )
    def test_tracked_part_outside_part_set(self, part_set, part):
        # there is no window, so only parts outside the part set are refused
        spec = SamplerSpec(params=PARAMS, part_set=part_set)
        with pytest.raises(ValueError):
            sample_batch(spec, 2, tracked_parts=((1, 1), part))
        sample_batch(spec, 2, tracked_parts=((1, 1), (5000, 7)))


class TestCharFn:
    @pytest.mark.parametrize("part_set", list(PartSet))
    def test_at_zero(self, part_set):
        assert char_fn(PARAMS, part_set, (0.0, 0.0)) == pytest.approx(1.0 + 0.0j)

    @pytest.mark.parametrize("part_set", list(PartSet))
    @pytest.mark.parametrize("t", [(0.3, -0.2), (1.0, 2.0), (-2.5, 0.7)])
    def test_modulus_and_symmetry(self, part_set, t):
        value = char_fn(PARAMS, part_set, t)
        assert abs(value) <= 1.0 + 1e-12
        mirrored = char_fn(PARAMS, part_set, (-t[0], -t[1]))
        assert mirrored == pytest.approx(value.conjugate(), abs=1e-10)

    @pytest.mark.parametrize("t", [(0.4, 0.1), (1.5, -0.8), (3.0, 3.0)])
    def test_elementary_bound(self, t):
        value = char_fn(PARAMS, PartSet.STRICT_POSITIVE, t)
        assert abs(value) <= char_fn_bound(PARAMS, t) + 1e-12

    @pytest.mark.parametrize("part_set", list(PartSet))
    @pytest.mark.parametrize("t", [(0.7, -0.4), (2.5, 3.0)])
    def test_against_brute_force_product(self, t, part_set):
        # independent oracle: finite product of geometric characteristic fns,
        # over the axis parts too (all but (0, 0)) for the nonzero set
        a, b = PARAMS.alpha, PARAMS.beta
        t1, t2 = t
        lowest = 0 if part_set is NONZERO else 1
        log_phi = 0.0 + 0.0j
        for x1 in range(lowest, 80):
            for x2 in range(lowest, 160):
                if x1 == x2 == 0:
                    continue
                e = a * x1 + b * x2
                q = math.exp(-e)
                z = np.exp(-e + 1j * (t1 * x1 + t2 * x2))
                log_phi += np.log((1 - q) / (1 - z))
        expected = complex(np.exp(log_phi))
        assert char_fn(PARAMS, part_set, t) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("t", [(0.05, 1e-4), (0.01, -5e-5)])
    def test_multi_block_against_direct_sum(self, t):
        # at calibrated nonzero (1000, 10^6) the cut spans several kernel
        # blocks; the shifted - real terms, summed by fsum to ten times the
        # cut, give log phi within 1e-12 (the imaginary part modulo 2 pi)
        a, b = CALIBRATED_1000.alpha, CALIBRATED_1000.beta
        cut = pair_rates(SamplerSpec(CALIBRATED_1000, NONZERO, DEFAULT_TOL / 2))[0].shape[1]
        assert cut > 64
        r = np.arange(1.0, 10 * cut + 1.0)
        terms = asymptotics._log_z_terms(complex(a, -t[0]), complex(b, -t[1]), True, r, 0)
        terms = (terms - asymptotics._log_z_terms(a, b, True, r, 0)).ravel()
        diff = cmath.log(char_fn(CALIBRATED_1000, NONZERO, t)) - complex(
            math.fsum(terms.real), math.fsum(terms.imag)
        )
        assert abs(complex(diff.real, math.remainder(diff.imag, 2.0 * math.pi))) <= 1e-12

    def test_cut_past_cap_names_phi(self):
        # at calibrated nonzero (10, 4e9), beta ~ 2e-5, phi's cut would pass
        # MAX_RATE_TERMS; the error names (alpha, beta), not a TV budget never given
        params = calibrate(Target(10, 4 * 10**9), NONZERO).params
        cap = rf"^the cut in r at \(alpha, beta\) = .* would pass {MAX_RATE_TERMS} terms of r$"
        with pytest.raises(TruncationError, match=cap):
            char_fn(params, NONZERO, (0.01, 1e-6))


def whitened_directions(params: ShapeParams, part_set: PartSet) -> np.ndarray:
    """The direction grid t (one row per t) with ||Gamma^{1/2} t|| = 1."""
    eigvals, eigvecs = np.linalg.eigh(np.array(gibbs_covariance(params, part_set)))
    angles = np.pi * np.arange(N_DIRECTIONS) / N_DIRECTIONS
    whiten = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
    return np.stack([np.cos(angles), np.sin(angles)], axis=1) @ whiten


def lattice(params: ShapeParams, part_set: PartSet, span: float = 45.0):
    """The parts x1 <= span/alpha, x2 <= span/beta of the part set, as (x1, x2,
    g) with g = G0(alpha x1 + beta x2) = q/(1-q).  Each later part has alpha x1
    + beta x2 > span, so the sums below leave out less than 1e-13 relative."""
    x1, x2 = np.meshgrid(
        np.arange(span // params.alpha + 1), np.arange(span // params.beta + 1), indexing="ij"
    )
    inside = (x1 > 0) & (x2 > 0) if part_set is PartSet.STRICT_POSITIVE else (x1 + x2 > 0)
    x1, x2 = x1[inside], x2[inside]
    return x1, x2, 1.0 / np.expm1(params.alpha * x1 + params.beta * x2)


def brute_lyapunov(params: ShapeParams, part_set: PartSet) -> float:
    """The lattice sum that the bound majorises, by brute force: max over the
    whitened direction grid of sum_x |t.x|^3 3q/(1-q)^3, 4096 parts at a time."""
    ts = whitened_directions(params, part_set)
    x1, x2, g = lattice(params, part_set)
    w = 3.0 * g * (1.0 + g) ** 2  # 3q/(1-q)^3
    sums = np.zeros(N_DIRECTIONS)
    for i in range(0, w.size, 4096):
        part = slice(i, i + 4096)
        sums += (np.abs(ts[:, :1] * x1[part] + ts[:, 1:] * x2[part]) ** 3 * w[part]).sum(axis=1)
    return float(sums.max())


def direct_moments(params: ShapeParams, part_set: PartSet) -> np.ndarray:
    """M[i] = sum_x x1^i x2^{4-i} q/(1-q)^4 summed over the lattice directly."""
    x1, x2, g = lattice(params, part_set)
    weight = g * (1.0 + g) ** 3  # q/(1-q)^4
    return np.array([math.fsum(x1**i * x2 ** (4 - i) * weight) for i in range(5)])


# rates, or targets calibrated for each part set; thin and wide lattices
LYAPUNOV_POINTS = [
    ShapeParams(0.8, 0.2), ShapeParams(0.2, 0.8), ShapeParams(1.2, 0.3),
    Target(10, 100), Target(3, 400), Target(300, 100),
]
SERIES_POINTS = [(0.8, 0.2), (0.2, 0.8), (1.2, 0.3), Target(10, 100)]


def rates_at(point, part_set: PartSet) -> ShapeParams:
    if isinstance(point, Target):
        return calibrate(point, part_set).params
    return point if isinstance(point, ShapeParams) else ShapeParams(*point)


def point_id(point) -> str:
    return f"{point.alpha}-{point.beta}" if isinstance(point, ShapeParams) else str(point)


class TestLyapunov:
    def test_scale_free_decay(self):
        # along the calibrated critical line the bound shrinks like n1^{-1/2}
        values = []
        for n in (20, 50):
            cal = calibrate(Target(n, n * n), PartSet.STRICT_POSITIVE)
            values.append(lyapunov_bound(cal.params, PartSet.STRICT_POSITIVE))
        assert values[0] > values[1] > 0
        ratio = values[0] / values[1]
        assert ratio == pytest.approx(math.sqrt(50 / 20), rel=0.2)

    def test_nonzero_exceeds_strict(self):
        cal = calibrate(Target(10, 100), PartSet.NONZERO_VECTORS)
        strict = lyapunov_bound(cal.params, PartSet.STRICT_POSITIVE)
        nonzero = lyapunov_bound(cal.params, PartSet.NONZERO_VECTORS)
        assert nonzero > 0 and strict > 0

    @pytest.mark.parametrize(
        "part_set, lattice_sum",
        [
            (PartSet.STRICT_POSITIVE, 3.553513689555949),
            (PartSet.NONZERO_VECTORS, 2.17492840706945),
        ],
    )
    def test_swap_symmetry(self, part_set, lattice_sum):
        # both part sets are symmetric under (x1, x2) -> (x2, x1), and so is the
        # direction grid: angle pi k/N maps to pi (N/2 - k)/N, a grid angle mod
        # pi; `lattice_sum` is the lattice sum at (0.2, 0.8)
        low = lyapunov_bound(ShapeParams(0.2, 0.8), part_set)
        high = lyapunov_bound(ShapeParams(0.8, 0.2), part_set)
        assert low == pytest.approx(high, rel=1e-12)
        assert brute_lyapunov(ShapeParams(0.2, 0.8), part_set) == pytest.approx(
            lattice_sum, rel=1e-12
        )
        assert 1.0 < low / lattice_sum < 1.25

    def test_calibrated_nonzero_value(self):
        # the lattice oracle reproduces the lattice sum pinned by the region
        # walk that this bound replaced, and the bound lies above it
        params = calibrate(Target(10, 100), NONZERO).params
        brute = brute_lyapunov(params, NONZERO)
        assert brute == pytest.approx(1.9944832977831637, rel=1e-10)
        assert brute <= lyapunov_bound(params, NONZERO) <= 1.25 * brute

    @pytest.mark.parametrize("part_set", list(PartSet))
    @pytest.mark.parametrize("point", LYAPUNOV_POINTS, ids=point_id)
    def test_against_brute_force(self, point, part_set):
        # Cauchy-Schwarz puts the bound above the lattice sum, and 1.11-1.19
        # times it was measured over these points
        params = rates_at(point, part_set)
        brute = brute_lyapunov(params, part_set)
        assert brute <= lyapunov_bound(params, part_set) <= 1.25 * brute

    @pytest.mark.parametrize(
        "part_set, target, previous",
        [
            (PartSet.STRICT_POSITIVE, Target(10, 100), 2.8973467608308976),
            (NONZERO, Target(10, 100), 1.9944832978576539),
            (PartSet.STRICT_POSITIVE, Target(15, 225), 2.354963619321015),
            (NONZERO, Target(15, 225), 1.6573655398187566),
            (PartSet.STRICT_POSITIVE, Target(30, 900), 1.657727302287278),
            (NONZERO, Target(30, 900), 1.1928264153532318),
        ],
    )
    def test_calibrated_values_pinned(self, part_set, target, previous):
        # `previous` is the lattice sum (within 2e-10), pinned by the region
        # walk that this bound replaced; the bound is 1.156-1.176 times it here
        params = calibrate(target, part_set).params
        assert 1.1 < lyapunov_bound(params, part_set) / previous < 1.2

    @pytest.mark.parametrize("part_set", list(PartSet))
    @pytest.mark.parametrize("point", LYAPUNOV_POINTS, ids=point_id)
    def test_moments_match_lattice_sums(self, point, part_set):
        params = rates_at(point, part_set)
        moments, dropped, terms, tail = _quartic_moments(params, part_set)
        assert moments == pytest.approx(direct_moments(params, part_set), rel=1e-12)
        # the dropped terms are stated in units of each moment's first term
        assert terms > 0 and 0.0 <= tail < DEFAULT_TOL
        assert (0.0 <= dropped).all() and (dropped <= DEFAULT_TOL * moments).all()

    @pytest.mark.parametrize("part_set", list(PartSet))
    @pytest.mark.parametrize("point", SERIES_POINTS, ids=str)
    def test_tail_bound_covers_dropped_cells(self, point, part_set):
        # the terms k > cut of each moment's series, summed directly until they
        # fall by e^{-40}, stay below the dropped bound the value includes
        params = rates_at(point, part_set)
        a, b = params.alpha, params.beta
        _, dropped, cut, _ = _quartic_moments(params, part_set)
        decay = min(a, b) if part_set is NONZERO else a + b
        k = np.arange(cut + 1.0, cut + 2.0 + 40.0 / decay)
        ga, gb = np.array(_geometric(a * k, 4)), np.array(_geometric(b * k, 4))
        rest = ga * gb[::-1]
        if part_set is NONZERO:
            rest[4] += ga[4]
            rest[0] += gb[4]
        rest *= k * (k + 1.0) * (k + 2.0) / 6.0
        assert (rest.sum(axis=1) <= dropped).all()

    @pytest.mark.parametrize("part_set", list(PartSet))
    @pytest.mark.parametrize("point", SERIES_POINTS, ids=str)
    def test_one_region_pass(self, point, part_set, monkeypatch):
        # the whole region of the series, k = 1 to its cut, is summed in one
        # kernel pass, with the decay alpha + beta (min(alpha, beta) with the
        # axes) and growth 3, for all five moments
        params = rates_at(point, part_set)
        calls = []

        def counted(block, decay, growth, **kwargs):
            calls.append((decay, growth))
            return original(block, decay, growth, **kwargs)

        original = gibbs._series
        monkeypatch.setattr(gibbs, "_series", counted)
        lyapunov_bound(params, part_set)
        a, b = params.alpha, params.beta
        assert calls == [(min(a, b) if part_set is NONZERO else a + b, 3.0)]

    def test_peak_memory_is_capped(self):
        # the series holds one block of r at a time (at most 4096 terms of 5
        # moments): the peak is ~0.05 MB strict and ~0.4 MB nonzero at (60, 3600)
        params = calibrate(Target(60, 3600), PartSet.STRICT_POSITIVE).params
        for part_set in PartSet:
            lyapunov_bound(params, part_set)  # caches filled outside the trace
            tracemalloc.start()
            try:
                lyapunov_bound(params, part_set)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    @pytest.mark.parametrize("part_set", list(PartSet))
    def test_small_rates_return_fast(self, part_set):
        # alpha = beta = 0.005 takes ~2,000 (strict) and ~4,300 (nonzero) terms
        start = time.perf_counter()
        value = lyapunov_bound(ShapeParams(0.005, 0.005), part_set)
        assert time.perf_counter() - start < 1.0
        assert 0.0 < value < 1.0

    @pytest.mark.parametrize("part_set", list(PartSet))
    def test_region_past_cap_is_refused_before_its_first_cell(self, part_set, monkeypatch):
        # the series' expected length log(1/DEFAULT_TOL)/decay is checked against
        # the cap before its first term: 1% below the cap the pass starts, 1%
        # above it the rates are refused and no term is summed
        class Summed(Exception):
            pass

        def no_terms(*args, **kwargs):
            raise Summed

        monkeypatch.setattr(gibbs, "_series", no_terms)
        cap = rf"may take [0-9.e+]+ terms, above the cap of {MAX_LYAPUNOV_TERMS}$"
        for share, outcome in ((0.99, Summed), (1.01, ValueError)):
            decay = math.log(1.0 / DEFAULT_TOL) / (share * MAX_LYAPUNOV_TERMS)
            rate = decay if part_set is NONZERO else decay / 2.0
            with pytest.raises(outcome, match=cap if outcome is ValueError else None):
                lyapunov_bound(ShapeParams(rate, rate), part_set)

    def test_huge_lattice_fails_fast(self):
        # refused from the decay, before the log-Z pass and the series
        cap = rf"may take [0-9.e+]+ terms, above the cap of {MAX_LYAPUNOV_TERMS}$"
        for part_set in PartSet:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=cap):
                lyapunov_bound(ShapeParams(1e-6, 1e-6), part_set)
            assert time.perf_counter() - start < 1.0

    def test_singular_covariance_is_refused(self):
        # at alpha = beta = 800 every G_k underflows to 0.0, and so does Gamma
        with pytest.raises(ValueError, match="^covariance matrix is not positive definite$"):
            lyapunov_bound(ShapeParams(800.0, 800.0), STRICT)

    def test_overflowing_moment_is_refused(self):
        # at alpha = 1e-70 the decay alpha + beta is 1, but G4(alpha) overflows
        with pytest.raises(ValueError, match=r"quartic moment at .* overflows"):
            lyapunov_bound(ShapeParams(1e-70, 1.0), STRICT)


class TestLLT:
    def test_report_contents(self):
        target = Target(8, 64)
        report = llt_check(target, PartSet.STRICT_POSITIVE)
        assert list(report) == [
            "n1",
            "n2",
            "part_set",
            "alpha",
            "beta",
            "det_gamma",
            "sigma_sq",
            "lyapunov",
            "p_exact_decimal_string",
            "normalized_ratio",
            "gamma",
            "ellipse_radius",
            "gaussian_pred",
            "extras",
        ]
        assert report["part_set"] == "strict"
        exact = count_table(PartSet.STRICT_POSITIVE, 8, 64).get(8, 64)
        assert report["p_exact_decimal_string"] == str(exact)
        assert report["det_gamma"] > 0 and report["sigma_sq"] > 0
        assert 0.1 < report["normalized_ratio"] < 10.0

    def test_one_log_z_pass(self, monkeypatch):
        # Gamma, log Z and E N come from one pass, and the Lyapunov bound
        # takes its Gamma from the same pass
        passes = []

        def counted(params, part_set):
            passes.append(params)
            return original(params, part_set)

        original = asymptotics._log_z_sums
        monkeypatch.setattr(asymptotics, "_log_z_sums", counted)
        monkeypatch.setattr(gibbs, "_log_z_sums", counted)
        for part_set in PartSet:
            passes.clear()
            report = llt_check(Target(8, 64), part_set)
            assert len(passes) == 1
            params = ShapeParams(report["alpha"], report["beta"])
            assert report["gamma"] == [list(row) for row in gibbs_covariance(params, part_set)]
            assert report["extras"]["log_z"] == log_z_direct(params, part_set)
            assert report["lyapunov"] == lyapunov_bound(params, part_set)
