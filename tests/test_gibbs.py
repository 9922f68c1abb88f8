"""Unit tests for the sampler, characteristic function and LLT diagnostics."""

import itertools
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
from bipartitions.exact_count import PartSet, Target, count_table
from bipartitions.gibbs import (
    CHUNK_REPLICAS,
    MAX_LATTICE_CELLS,
    N_DIRECTIONS,
    SamplerSpec,
    TruncationError,
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

PARAMS = ShapeParams(0.9, 0.35)
NONZERO = PartSet.NONZERO_VECTORS


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
        # reps is not a multiple of the chunk, so the last chunk is cut
        chunk = CHUNK_REPLICAS
        reps = 2 * chunk + 5
        tracked = ((1, 1), (2, 1)) + (((0, 1), (1, 0)) if part_set is NONZERO else ())
        spec = SamplerSpec(params=PARAMS, part_set=part_set, seed=4)
        batch = sample_batch(spec, reps, tracked_parts=tracked)
        assert batch.Ns.shape == (reps, 2)
        listed = list(samples(spec, chunk - 1, chunk + 1))
        for i in (0, chunk - 1, chunk, reps - 1):
            single = sample(spec, replica=i)
            assert tuple(batch.Ns[i]) == single.N
            for col, part in enumerate(tracked):
                assert batch.tracked_draws[i, col] == single.multiplicities.get(part, 0)
            if chunk - 1 <= i <= chunk:
                assert listed[i - chunk + 1] == single

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

    def test_against_brute_force_product(self):
        # independent oracle: finite product of geometric characteristic fns
        a, b = PARAMS.alpha, PARAMS.beta
        t1, t2 = 0.7, -0.4
        log_phi = 0.0 + 0.0j
        for x1 in range(1, 80):
            for x2 in range(1, 160):
                e = a * x1 + b * x2
                q = math.exp(-e)
                z = np.exp(-e + 1j * (t1 * x1 + t2 * x2))
                log_phi += np.log((1 - q) / (1 - z))
        expected = complex(np.exp(log_phi))
        assert char_fn(PARAMS, PartSet.STRICT_POSITIVE, (t1, t2)) == pytest.approx(
            expected, abs=1e-8
        )


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


def assert_brackets_brute_force(params: ShapeParams, part_set: PartSet, tol: float = 1e-10):
    gamma = np.array(gibbs_covariance(params, part_set))
    value, cells, tail_bound = _lyapunov_lattice(params, part_set, gamma, tol)
    brute = brute_lyapunov(params, part_set)
    assert brute <= value <= brute * (1.0 + 2.0 * tol)
    assert 0.0 <= tail_bound <= tol * value and cells > 0
    assert value == lyapunov_bound(params, part_set, tol)


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
    def test_swap_symmetry(self, part_set, unswapped):
        # both part sets and the even direction grid are symmetric under
        # (x1, x2) -> (x2, x1); `unswapped` is the lattice sum at (0.2, 0.8)
        # without exchanging alpha and beta (strict: the power-series bound's
        # value; nonzero: brute_lyapunov's); tol = 1e-13 keeps the tail bound
        # the value includes below the rel = 1e-12 of the comparison
        low = lyapunov_bound(ShapeParams(0.2, 0.8), part_set, tol=1e-13)
        high = lyapunov_bound(ShapeParams(0.8, 0.2), part_set, tol=1e-13)
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
        # the region sum replaced; both lie within tol = 1e-10 above the lattice sum
        params = calibrate(target, part_set).params
        assert lyapunov_bound(params, part_set) == pytest.approx(previous, rel=2e-10)

    @pytest.mark.parametrize("part_set", list(PartSet))
    @pytest.mark.parametrize(
        "point", [(0.8, 0.2), (0.2, 0.8), (1.2, 0.3), Target(10, 100)], ids=str
    )
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

    def test_reuses_table(self):
        target = Target(6, 36)
        table = count_table(PartSet.NONZERO_VECTORS, 6, 36)
        report = llt_check(target, PartSet.NONZERO_VECTORS, table=table)
        assert report["p_exact_decimal_string"] == str(table.get(6, 36))

    def test_table_mismatch(self):
        table = count_table(PartSet.STRICT_POSITIVE, 4, 4)
        with pytest.raises(ValueError):
            llt_check(Target(6, 6), PartSet.STRICT_POSITIVE, table=table)
        with pytest.raises(ValueError):
            llt_check(Target(4, 4), PartSet.NONZERO_VECTORS, table=table)
