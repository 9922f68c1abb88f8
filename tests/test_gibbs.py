"""Unit tests for the sampler, characteristic function and LLT diagnostics."""

import cmath
import hashlib
import itertools
import json
import math
import time
import tracemalloc

import mpmath
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
    FIRST_K,
    GROUP_PAIRS,
    GUIDE_BUCKETS,
    LYAPUNOV_TOL,
    MAX_CHUNK_PAIRS,
    MAX_LATTICE_CELLS,
    MAX_RATE_TERMS,
    N_DIRECTIONS,
    SamplerSpec,
    TruncationError,
    _inverse_cdf,
    _lyapunov_lattice,
    _tail_bound,
    _upper_gammas,
    char_fn,
    char_fn_bound,
    llt_check,
    lyapunov_bound,
    pair_rates,
    sample,
    sample_batch,
    samples,
)
from bipartitions.special_functions import DEFAULT_TOL

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
        with pytest.raises(TruncationError, match=f"more than {MAX_RATE_TERMS} terms of r$"):
            samples(SamplerSpec(params=cal.params, part_set=NONZERO), 0, 1)

    @pytest.mark.parametrize("part_set", list(PartSet))
    def test_rates_own_their_data(self, part_set):
        # the cut table is a copy, not a view that keeps the kernel's last block alive
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
        # MAX_RATE_TERMS; the error says so, not a TV budget never given
        params = calibrate(Target(10, 4 * 10**9), NONZERO).params
        cap = rf"^the cut of phi at \(alpha, beta\) = .* would pass {MAX_RATE_TERMS} terms of r$"
        with pytest.raises(TruncationError, match=cap):
            char_fn(params, NONZERO, (0.01, 1e-6))


def whitened_directions(params: ShapeParams, part_set: PartSet) -> np.ndarray:
    """The direction grid t (one row per t) with ||Gamma^{1/2} t|| = 1, in the
    unswapped orientation."""
    eigvals, eigvecs = np.linalg.eigh(np.array(gibbs_covariance(params, part_set)))
    angles = np.pi * np.arange(N_DIRECTIONS) / N_DIRECTIONS
    whiten = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
    return np.stack([np.cos(angles), np.sin(angles)], axis=1) @ whiten


def brute_lyapunov(params: ShapeParams, part_set: PartSet, span: float = 45.0) -> float:
    """The bound's lattice sum by brute force, in the unswapped orientation:
    max over the whitened direction grid of sum_x |t.x|^3 3q/(1-q)^3 over
    every part with x1 <= span/alpha and x2 <= span/beta.  Each later part has
    alpha x1 + beta x2 > span, so all of them add less than 1e-13 relative."""
    ts = whitened_directions(params, part_set)
    x1, x2 = np.meshgrid(
        np.arange(span // params.alpha + 1), np.arange(span // params.beta + 1), indexing="ij"
    )
    inside = (x1 > 0) & (x2 > 0) if part_set is PartSet.STRICT_POSITIVE else (x1 + x2 > 0)
    x1, x2 = x1[inside], x2[inside]
    q = np.exp(-(params.alpha * x1 + params.beta * x2))
    cubes = np.abs(ts[:, :1] * x1 + ts[:, 1:] * x2) ** 3 * (3.0 * q / (1.0 - q) ** 3)
    return float(cubes.sum(axis=1).max())


def dropped_cells(params: ShapeParams, part_set: PartSet, k: float, span: float = 40.0):
    """max over the direction grid of sum |t.x|^3 3q/(1-q)^3 over the parts with
    k < alpha x1 + beta x2 <= k + span, summed directly 4096 parts at a time;
    the parts past k + span add a share of order e^{-span} times a power of k + span."""
    a, b = params.alpha, params.beta
    x1, x2 = np.meshgrid(
        np.arange((k + span) // a + 1), np.arange((k + span) // b + 1), indexing="ij"
    )
    y = a * x1 + b * x2
    keep = (y > k) & (y <= k + span)
    if part_set is PartSet.STRICT_POSITIVE:
        keep &= (x1 > 0) & (x2 > 0)
    x1, x2, y = x1[keep], x2[keep], y[keep]
    ts = whitened_directions(params, part_set)
    sums = np.zeros(N_DIRECTIONS)
    for i in range(0, y.size, 4096):
        part = slice(i, i + 4096)
        w = 3.0 * np.exp(-y[part]) / (1.0 - np.exp(-y[part])) ** 3
        sums += (np.abs(ts[:, :1] * x1[part] + ts[:, 1:] * x2[part]) ** 3 * w).sum(axis=1)
    return float(sums.max())


def assert_brackets_brute_force(params: ShapeParams, part_set: PartSet):
    gamma = np.array(gibbs_covariance(params, part_set))
    value, cells, tail_bound = _lyapunov_lattice(params, part_set, gamma)
    brute = brute_lyapunov(params, part_set)
    assert brute <= value <= brute * (1.0 + 2.0 * LYAPUNOV_TOL)
    assert 0.0 <= tail_bound <= LYAPUNOV_TOL * value and cells > 0
    assert value == lyapunov_bound(params, part_set)


LATTICE_POINTS = [(0.8, 0.2), (0.2, 0.8), (1.2, 0.3), Target(10, 100)]


def traced_lattice(point, part_set: PartSet, monkeypatch):
    """One _lyapunov_lattice call at point (rates, or a target to calibrate),
    as (params, calls, cells, tail_bound); calls holds the argument tuples of
    each _edge and _segments call it made."""
    params = calibrate(point, part_set).params if isinstance(point, Target) else (
        ShapeParams(*point)
    )
    calls = {"_edge": [], "_segments": []}
    for name, log in calls.items():
        original = getattr(gibbs, name)
        monkeypatch.setattr(
            gibbs, name, lambda *args, f=original, log=log: log.append(args) or f(*args)
        )
    gamma = np.array(gibbs_covariance(params, part_set))
    _, cells, tail = _lyapunov_lattice(params, part_set, gamma)
    return params, calls, cells, tail


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
        "part_set, unswapped",
        [
            (PartSet.STRICT_POSITIVE, 3.553513689555949),
            (PartSet.NONZERO_VECTORS, 2.17492840706945),
        ],
    )
    def test_swap_symmetry(self, part_set, unswapped, monkeypatch):
        # both part sets and the even direction grid are symmetric under
        # (x1, x2) -> (x2, x1); `unswapped` is the lattice sum at (0.2, 0.8)
        # without exchanging alpha and beta (strict: the power-series bound's
        # value; nonzero: brute_lyapunov's); a tolerance of 1e-13 keeps the tail
        # bound the value includes below the rel = 1e-12 of the comparison
        monkeypatch.setattr(gibbs, "LYAPUNOV_TOL", 1e-13)
        low = lyapunov_bound(ShapeParams(0.2, 0.8), part_set)
        high = lyapunov_bound(ShapeParams(0.8, 0.2), part_set)
        assert low == pytest.approx(high, rel=1e-12)
        assert low == pytest.approx(unswapped, rel=1e-12)

    def test_calibrated_nonzero_value(self):
        # the power-series bound gave this value
        cal = calibrate(Target(10, 100), NONZERO)
        assert lyapunov_bound(cal.params, NONZERO) == pytest.approx(1.9944832977831637, rel=1e-9)
        assert_brackets_brute_force(cal.params, NONZERO)

    @pytest.mark.parametrize("part_set", list(PartSet))
    @pytest.mark.parametrize(
        "params",
        [ShapeParams(0.8, 0.2), ShapeParams(0.2, 0.8), ShapeParams(1.2, 0.3)],
        ids=lambda p: f"{p.alpha}-{p.beta}",
    )
    def test_against_brute_force(self, params, part_set):
        assert_brackets_brute_force(params, part_set)

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
        # `previous` is the bound of the row walk with row and column cuts that
        # the region sum replaced; both lie within LYAPUNOV_TOL above the lattice sum
        params = calibrate(target, part_set).params
        assert lyapunov_bound(params, part_set) == pytest.approx(previous, rel=2e-10)

    @pytest.mark.parametrize("part_set", list(PartSet))
    @pytest.mark.parametrize("point", LATTICE_POINTS, ids=str)
    def test_tail_bound_covers_dropped_cells(self, point, part_set):
        # T(k) is at least the parts with alpha x1 + beta x2 > k, summed directly
        # out to k + 40, at k = 8, 20 and the edge that the bound chose
        if isinstance(point, Target):
            params = calibrate(point, part_set).params
        else:
            params = ShapeParams(*point)
        a, b = params.alpha, params.beta
        ts = whitened_directions(params, part_set)
        c = max(np.abs(ts[:, 0]).max() / a, np.abs(ts[:, 1]).max() / b)
        gamma = np.array(gibbs_covariance(params, part_set))
        tail = _lyapunov_lattice(params, part_set, gamma)[2]
        chosen = next(k for k in itertools.count(8) if _tail_bound(k, a, b, c) <= tail * 1.001)
        assert _tail_bound(chosen, a, b, c) == pytest.approx(tail, rel=1e-12)
        for k in (8, 20, chosen):
            assert dropped_cells(params, part_set, k) <= _tail_bound(k, a, b, c)

    @pytest.mark.parametrize("part_set", list(PartSet))
    @pytest.mark.parametrize("point", LATTICE_POINTS, ids=str)
    def test_one_region_pass(self, point, part_set, monkeypatch):
        # one call picks K once and sums the region R_K in one pass over its rows
        _, calls, cells, _ = traced_lattice(point, part_set, monkeypatch)
        assert len(calls["_edge"]) == 1 and len(calls["_segments"]) == 1
        a, b, _, k = calls["_segments"][0]
        # the cells are the parts with a x1 + b x2 <= k, up to rounding on the edge
        x1, x2 = np.meshgrid(np.arange(k // a + 2), np.arange(k // b + 2), indexing="ij")
        inside = (x1 > 0) & (x2 > 0) if part_set is PartSet.STRICT_POSITIVE else (x1 + x2 > 0)
        y = a * x1[inside] + b * x2[inside]
        assert (y <= k * (1.0 - 1e-12)).sum() <= cells <= (y <= k * (1.0 + 1e-12)).sum()

    @pytest.mark.parametrize("part_set", list(PartSet))
    @pytest.mark.parametrize("point", LATTICE_POINTS, ids=str)
    def test_edge_from_holder_bound(self, point, part_set, monkeypatch):
        # K is the smallest integer >= FIRST_K with T(K) <= LYAPUNOV_TOL/2 H, where
        # H = 3/sqrt(sum_x q) is the Holder bound, known before any cell is summed
        params, calls, _, tail = traced_lattice(point, part_set, monkeypatch)
        a, b = max(params.alpha, params.beta), min(params.alpha, params.beta)
        # sum_x q in closed form: G0(a) G0(b) strict, (1 + G0(a))(1 + G0(b)) - 1 nonzero
        g0a, g0b = 1.0 / math.expm1(a), 1.0 / math.expm1(b)
        sum_q = g0a * g0b if part_set is PartSet.STRICT_POSITIVE else g0a + g0b + g0a * g0b
        target = 0.5 * LYAPUNOV_TOL * 3.0 / math.sqrt(sum_q)
        c = calls["_edge"][-1][-1]  # the bound's majorant |t.x| <= c (a x1 + b x2)
        k = calls["_segments"][-1][-1]
        assert k == int(k) >= FIRST_K and _tail_bound(k, a, b, c) <= target
        assert k == FIRST_K or _tail_bound(k - 1.0, a, b, c) > target
        assert tail == _tail_bound(k, a, b, c)

    def test_upper_gammas_match_mpmath(self):
        for k in (3.0, 8.0, 20.0, 43.0, 100.0, 300.0):
            for n, value in enumerate(_upper_gammas(5, k)):
                assert value == pytest.approx(float(mpmath.gammainc(n + 1, k)), rel=1e-12)

    def test_peak_memory_is_capped(self):
        # blocks of BLOCK_CELLS cells keep the peak near 0.4 MB at (60, 3600);
        # one block for the whole region (66,213 cells) peaks near 8.9 MB, and
        # blocks of 2^14 cells near 2.3 MB
        params = calibrate(Target(60, 3600), PartSet.STRICT_POSITIVE).params
        lyapunov_bound(params, PartSet.STRICT_POSITIVE)  # caches filled outside the trace
        tracemalloc.start()
        try:
            lyapunov_bound(params, PartSet.STRICT_POSITIVE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("part_set", list(PartSet))
    def test_region_past_cap_is_refused_before_its_first_cell(self, part_set, monkeypatch):
        # R_8 fits under the cap at alpha = beta = 0.005 (~1.3e6 cells) but R_K
        # may not (K ~ 45, up to ~3.5e7 cells): refused before any cell is summed
        def no_cells(*args):
            raise AssertionError("a cell was summed")

        monkeypatch.setattr(gibbs, "_segments", no_cells)
        with pytest.raises(ValueError, match=rf"\d+ cells, above the cap of {MAX_LATTICE_CELLS}"):
            lyapunov_bound(ShapeParams(0.005, 0.005), part_set)

    def test_huge_lattice_fails_fast(self):
        for part_set in PartSet:
            start = time.perf_counter()
            cap = rf"\d+ cells, above the cap of {MAX_LATTICE_CELLS}"
            with pytest.raises(ValueError, match=cap):
                lyapunov_bound(ShapeParams(1e-6, 1e-6), part_set)
            assert time.perf_counter() - start < 1.0


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
        # Gamma, log Z and E N come from one pass, and the Lyapunov lattice
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
