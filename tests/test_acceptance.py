"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The criteria exercise the package end to end with pinned tolerances.  Shared
expensive artifacts (the desk-scale exact count tables) are built once per
module and reused.
"""

import math

import numpy as np
import pytest
from scipy import stats

from bipartitions.asymptotics import (
    gibbs_covariance,
    gibbs_mean,
    log_z_direct,
    log_z_expansion,
    rate_function,
    rate_table,
    theorem_estimate,
)
from bipartitions.calibration import ShapeParams, calibrate
from bipartitions.cli import main
from bipartitions.exact_count import (
    PartSet,
    Target,
    count_1d,
    count_naive,
    count_table,
)
from bipartitions.gibbs import SamplerSpec, llt_check, lyapunov_bound, sample_batch
from bipartitions.special_functions import delta

GRID_N2 = (100, 225, 400, 625, 900)


def report(capsys, number, name, failures):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"\nacceptance criterion {number} ({name}): {status}")
    assert not failures, f"criterion {number} failed: {'; '.join(failures)}"


@pytest.fixture(scope="module")
def grid_tables():
    """Exact count tables for the desk-scale grid, built once and shared."""
    tables = {}
    for part_set in PartSet:
        for n2 in GRID_N2:
            n1 = math.isqrt(n2)
            tables[(part_set, n2)] = count_table(part_set, n1, n2)
    return tables


def test_criterion_1_exact_coefficients(capsys):
    failures = []
    code = main(["coeffs", "--variant", "c", "--order", "6"])
    out = capsys.readouterr().out
    expected = [
        "c_1 = 5/4",
        "c_2 = -805/288",
        "c_3 = 6731/576",
        "c_4 = -133046081/2073600",
        "c_5 = 170097821/414720",
    ]
    if code != 0 or out.splitlines() != expected:
        failures.append(f"unbarred output mismatch: {out!r}")
    code = main(["coeffs", "--variant", "cbar", "--order", "4"])
    out = capsys.readouterr().out
    expected = [
        "cbar_1 = 5/4 * a^1 - 1/4 * a^-1",
        "cbar_2 = -145/72 * a^2 + 5/8",
        "cbar_3 = 6 * a^3 - 1385/576 * a^1 + 5/32 * a^-1 + 1/192 * a^-3",
    ]
    if code != 0 or out.splitlines() != expected:
        failures.append(f"barred output mismatch: {out!r}")
    report(capsys, 1, "exact coefficients", failures)


def test_criterion_2_oracle_equivalence(capsys):
    failures = []
    for part_set in PartSet:
        table = count_table(part_set, 6, 6)
        for a in range(7):
            for b in range(7):
                naive = count_naive(part_set, Target(a, b))
                if table.get(a, b) != naive:
                    failures.append(
                        f"{part_set.value} ({a},{b}): DP {table.get(a, b)} "
                        f"!= enumeration {naive}"
                    )
    # axis parts factor out as two independent 1-D partition convolutions
    n = 12
    strict = count_table(PartSet.STRICT_POSITIVE, n, n)
    nonzero = count_table(PartSet.NONZERO_VECTORS, n, n)
    p1 = [count_1d(k) for k in range(n + 1)]
    for n1 in range(n + 1):
        for n2 in range(n + 1):
            conv = sum(
                strict.get(a, b) * p1[n1 - a] * p1[n2 - b]
                for a in range(n1 + 1)
                for b in range(n2 + 1)
            )
            if conv != nonzero.get(n1, n2):
                failures.append(f"convolution identity fails at ({n1},{n2})")
    report(capsys, 2, "oracle equivalence", failures)


def test_criterion_3_asymptotic_convergence(capsys, grid_tables):
    failures = []
    for part_set in PartSet:
        gaps = []
        for n2 in GRID_N2:
            n1 = math.isqrt(n2)
            p_exact = grid_tables[(part_set, n2)].get(n1, n2)
            est = theorem_estimate(Target(n1, n2), part_set)
            gaps.append(abs(math.log(p_exact) - est.log_value))
        if not all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1)):
            failures.append(f"{part_set.value}: |log ratio| not decreasing: {gaps}")
        final_log_p = math.log(grid_tables[(part_set, 900)].get(30, 900))
        if not gaps[-1] < 0.1 * final_log_p:
            failures.append(
                f"{part_set.value}: final gap {gaps[-1]} >= 0.1 log p"
            )
    report(capsys, 3, "asymptotic convergence at desk scale", failures)


def test_criterion_4_expansion_remainder_law(capsys):
    failures = []
    betas = [0.1 * 2.0**-j for j in range(7)]
    for alpha in (1.0, 2.0, 4.0):
        defects = {}
        for m in (0, 1, 2, 3):
            defects[m] = [
                abs(
                    log_z_direct(ShapeParams(alpha, b), PartSet.STRICT_POSITIVE)
                    - log_z_expansion(
                        ShapeParams(alpha, b), PartSet.STRICT_POSITIVE, m
                    ).value
                )
                for b in betas
            ]
        for m in (0, 1, 2):
            ratios = [
                d / (math.exp(-alpha) * b ** (m + 0.5))
                for d, b in zip(defects[m], betas)
            ]
            spread = max(ratios) / min(ratios)
            if not spread < 4.0:
                failures.append(
                    f"alpha={alpha} m={m}: normalized ratio varies by "
                    f"factor {spread:.3g} >= 4"
                )
            worse = [
                b
                for b, d_next, d in zip(betas, defects[m + 1], defects[m])
                if not d_next < d
            ]
            if worse:
                failures.append(
                    f"alpha={alpha} m={m}: defect not reduced at order "
                    f"{m + 1} for beta in {worse}"
                )
    report(capsys, 4, "expansion remainder law", failures)


def test_criterion_5_moment_consistency(capsys):
    failures = []
    rng = np.random.default_rng(42)
    for i in range(20):
        a, b = rng.uniform(0.4, 2.0, size=2)
        part_set = list(PartSet)[i % 2]
        params = ShapeParams(a, b)

        def lz(x, y):
            return log_z_direct(ShapeParams(x, y), part_set)

        h = 1e-5
        grad = (
            -(lz(a + h, b) - lz(a - h, b)) / (2 * h),
            -(lz(a, b + h) - lz(a, b - h)) / (2 * h),
        )
        mean = gibbs_mean(params, part_set)
        h = 5e-4
        hess = (
            (lz(a + h, b) - 2 * lz(a, b) + lz(a - h, b)) / h**2,
            (lz(a, b + h) - 2 * lz(a, b) + lz(a, b - h)) / h**2,
            (lz(a + h, b + h) - lz(a + h, b - h) - lz(a - h, b + h) + lz(a - h, b - h))
            / (4 * h**2),
        )
        cov = gibbs_covariance(params, part_set)
        checks = [
            ("mean1", mean[0], grad[0]),
            ("mean2", mean[1], grad[1]),
            ("cov11", cov[0][0], hess[0]),
            ("cov22", cov[1][1], hess[1]),
            ("cov12", cov[0][1], hess[2]),
        ]
        for label, analytic, numeric in checks:
            if abs(analytic - numeric) > 1e-5 * abs(numeric):
                failures.append(
                    f"point {i} ({a:.3f},{b:.3f}) {label}: "
                    f"{analytic} vs {numeric}"
                )
    report(capsys, 5, "gradient/Hessian consistency", failures)


def test_criterion_6_llt_normalized_ratio(capsys, grid_tables):
    failures = []
    for part_set in PartSet:
        ratios = []
        for n2 in GRID_N2:
            n1 = math.isqrt(n2)
            rep = llt_check(
                Target(n1, n2), part_set, table=grid_tables[(part_set, n2)]
            )
            ratios.append(rep["normalized_ratio"])
        final = ratios[-1]
        if not (0.5 <= final <= 2.0):
            failures.append(f"{part_set.value}: ratio at (30,900) = {final}")
        log_gaps = [abs(math.log(r)) for r in ratios]
        if not all(log_gaps[i] > log_gaps[i + 1] for i in range(len(log_gaps) - 1)):
            failures.append(
                f"{part_set.value}: |log ratio| not decreasing: {log_gaps}"
            )
    report(capsys, 6, "local-limit normalized ratio", failures)


def test_criterion_7_scaling_diagnostics(capsys):
    failures = []
    sigma_band = []
    lyap_band = []
    det_ratios = []
    for n2 in (400, 2500, 10**4, 10**6):
        n1 = math.isqrt(n2)
        cal = calibrate(Target(n1, n2), PartSet.STRICT_POSITIVE)
        gamma = np.array(gibbs_covariance(cal.params, PartSet.STRICT_POSITIVE))
        sigma_sq = float(np.linalg.eigvalsh(gamma)[0])
        lyap = lyapunov_bound(cal.params, PartSet.STRICT_POSITIVE)
        sigma_band.append(sigma_sq / n1)
        lyap_band.append(lyap * math.sqrt(n1))
        det_ratios.append(
            float(np.linalg.det(gamma))
            * cal.params.beta**4
            / delta(cal.params.alpha)
        )
    for name, values in (("sigma^2/n1", sigma_band), ("L*sqrt(n1)", lyap_band)):
        if max(values) / min(values) >= 10.0:
            failures.append(f"{name} outside a factor-10 band: {values}")
    if max(det_ratios) / min(det_ratios) >= 10.0:
        failures.append(f"det ratio outside a factor-10 band: {det_ratios}")
    gaps = [abs(r - 1.0) for r in det_ratios]
    if not all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1)):
        failures.append(f"det Gamma beta^4 / Delta not converging to 1: {det_ratios}")
    report(capsys, 7, "scaling diagnostics", failures)


def test_criterion_8_sampler_statistics(capsys):
    failures = []
    reps = 100_000
    cal = calibrate(Target(10, 400), PartSet.STRICT_POSITIVE)
    tracked = ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2))
    spec = SamplerSpec(params=cal.params, part_set=PartSet.STRICT_POSITIVE, seed=0)
    batch = sample_batch(spec, reps, tracked_parts=tracked)

    mean = gibbs_mean(cal.params, PartSet.STRICT_POSITIVE)
    gamma = np.array(gibbs_covariance(cal.params, PartSet.STRICT_POSITIVE))
    emp_mean = batch.Ns.mean(axis=0)
    for i in range(2):
        se = math.sqrt(gamma[i, i] / reps)
        pull = abs(emp_mean[i] - mean[i]) / se
        if pull >= 4.0:
            failures.append(f"mean[{i}] off by {pull:.2f} standard errors")

    emp_cov = np.cov(batch.Ns.T, ddof=1)
    for i in range(2):
        for j in range(2):
            se = math.sqrt((gamma[i, i] * gamma[j, j] + gamma[i, j] ** 2) / reps)
            pull = abs(emp_cov[i, j] - gamma[i, j]) / se
            if pull >= 5.0:
                failures.append(f"cov[{i},{j}] off by {pull:.2f} standard errors")

    a, b = cal.params.alpha, cal.params.beta
    for col, (x1, x2) in enumerate(tracked):
        q = math.exp(-(a * x1 + b * x2))
        draws = batch.tracked_draws[:, col]
        # bins 0..K with the geometric tail pooled so expectations stay >= 5
        k_max = 0
        while reps * (1 - q) * q ** (k_max + 1) >= 5 and k_max < 50:
            k_max += 1
        observed = np.array(
            [np.sum(draws == k) for k in range(k_max + 1)] + [np.sum(draws > k_max)],
            dtype=float,
        )
        expected = np.array(
            [reps * (1 - q) * q**k for k in range(k_max + 1)] + [reps * q ** (k_max + 1)]
        )
        p_value = stats.chisquare(observed, expected).pvalue
        if not p_value > 0.001:
            failures.append(f"part ({x1},{x2}): chi-square p = {p_value:.2g}")
    report(capsys, 8, "sampler statistics", failures)


def test_criterion_9_rate_function_endpoints(capsys):
    failures = []
    limit = math.pi * math.sqrt(2.0 / 3.0)
    hbar_small = rate_function(1e-3, PartSet.NONZERO_VECTORS)
    if not abs(hbar_small - limit) <= 1e-3:
        failures.append(
            f"h_bar(1e-3) = {hbar_small:.6f}, expected {limit:.4f} +- 1e-3"
        )
    h_small = rate_function(1e-3, PartSet.STRICT_POSITIVE)
    if not h_small < 0.02:
        failures.append(f"h(1e-3) = {h_small} >= 0.02")
    step = (4.0 - 0.01) / 99
    grid = [0.01 + i * step for i in range(100)]
    bad = [t for t, h, hbar in rate_table(grid) if not hbar > h]
    if bad:
        failures.append(f"h_bar <= h at t in {bad}")
    report(capsys, 9, "rate-function endpoints", failures)
