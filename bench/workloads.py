"""The benchmark's workloads: seeded job lists and their correctness gates.

Each workload is a list of jobs run in one process, one after another
(a closed loop of one client).  The seed perturbs targets only inside a band
that keeps the work steady: table cells and replica counts stay within a few
percent of the nominal sizes, and no perturbation crosses a floor() that
would change a table's row count.  Sizes are below the ROADMAP's desk size (30, 900), where
one table costs ~18 s and one `compare`/`llt` ~26 s: the benchmark is run
~70 times per check, so the workloads take the same code paths at sizes that
keep one pass of the job list between ~6 and ~8 s.

Jobs call the package only through its public API and its in-process CLI,
and look every function up on its module at call time, so a traced run sees
them through the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from bipartitions import asymptotics, calibration, cli, exact_count, gibbs
from bipartitions.exact_count import PartSet, Target

import oracles

STRICT = PartSet.STRICT_POSITIVE
NONZERO = PartSet.NONZERO_VECTORS
# `bipart coeffs` output for c 8 and cbar 6, taken when the benchmark was
# added; c_1..c_5 and cbar_1..cbar_3 equal the literal acceptance-test values.
GOLDEN = Path(__file__).resolve().parent / "golden"

# Sampler means must lie within this many standard errors of gibbs_mean.
MEAN_Z_LIMIT = 5.0
# Calibration residuals (relative defects of the two equations).
RESIDUAL_LIMIT = 1e-9


@dataclass(frozen=True)
class Job:
    name: str
    command: str  # the CLI command (or library call) whose time this job adds to
    run: Callable[[], object]
    # (n1, n2) points the job reads from count tables, for the useful-cells ratio
    targets: tuple = ()
    cli: bool = False


@dataclass(frozen=True)
class Workload:
    jobs: list[Job]
    # outputs by job name -> failure messages by job name
    check: Callable[[dict[str, object]], dict[str, list[str]]]
    # the command whose time is the end-to-end metric command_s; the times
    # of the others are printed and recorded but not bounded
    primary: str
    inputs: dict  # the seeded targets, recorded with the results


def cli_job(name: str, command: str, argv: list[str], targets: tuple = ()) -> Job:
    def run() -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"bipart {' '.join(argv)} exited with status {code}")
        return buf.getvalue()

    return Job(name, command, run, targets, cli=True)


def _parts_flag(part_set: PartSet) -> list[str]:
    return ["--parts", part_set.value]


def _target_args(n1: int, n2: int) -> list[str]:
    return ["--n1", str(n1), "--n2", str(n2)]


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def exact(seed: int) -> Workload:
    """Counting-heavy: exact_count is over 90% of the time.

    Two single big tables (`bipart count` at (20, ~420), the nonzero one
    dumped as CSV) sit next to `bipart compare`, which rebuilds a nested
    table per grid point.  The count target is below (25, 625), where one
    table takes ~6 s: with ~15 s passes only two fit in a run, and the
    run-to-run spread of compare_s reached 0.21 on a 2-core VM whose speed
    drifts by 10-30%; with ~7.5 s passes four fit and it stayed near 0.14.  A faster recurrence moves count_s and compare_s;
    sharing one table across the grid (ROADMAP item 2) moves compare_s and
    the useful-cells ratio.  command_s = count_s.
    """
    rng = random.Random(seed)
    n1, n2 = 20, 420 + rng.randint(-4, 4)
    t = 1.0 + rng.uniform(0.0, 0.02)  # floor(t * sqrt(n2)) stays 10, 15, 20
    grid = [s * s + rng.randint(0, 4) for s in (10, 15, 20)]
    grid_targets = tuple((max(1, math.floor(t * math.sqrt(g))), g) for g in grid)
    compare_args = ["--t", repr(t), "--n2-grid", ",".join(map(str, grid))]
    naive = exact_count.NAIVE_LIMIT
    naive_cells = [(naive, naive)] + [
        (rng.randint(0, naive), rng.randint(0, naive)) for _ in range(11)
    ]
    jobs = [
        cli_job("count-strict", "count",
                ["count", *_target_args(n1, n2), *_parts_flag(STRICT)], ((n1, n2),)),
        cli_job("count-nonzero-table", "count",
                ["count", *_target_args(n1, n2), *_parts_flag(NONZERO), "--table"],
                ((n1, n2),)),
        cli_job("compare-strict", "compare",
                ["compare", *_parts_flag(STRICT), *compare_args], grid_targets),
        cli_job("compare-nonzero", "compare",
                ["compare", *_parts_flag(NONZERO), *compare_args], grid_targets),
    ]

    def check(out: dict[str, object]) -> dict[str, list[str]]:
        fails: dict[str, list[str]] = {}
        table, problems = oracles.parse_count_csv(out["count-nonzero-table"])
        if not problems and (len(table) != n1 + 1 or any(len(r) != n2 + 1 for r in table)):
            problems.append("CSV table has the wrong shape")
        fails["count-nonzero-table"] = problems
        if problems:
            return fails
        problems.extend(_check_nonzero_table(table, naive_cells))
        strict_count = oracles.strict_from_nonzero(table, n1, n2)
        got = out["count-strict"].strip()
        fails["count-strict"] = (
            [] if got == str(strict_count)
            else [f"strict count {got} != {strict_count} (axis-convolution identity)"]
        )
        for part_set, name in ((STRICT, "compare-strict"), (NONZERO, "compare-nonzero")):
            fails[name] = _check_compare(out[name], part_set, grid_targets, table)
        return fails

    return Workload(jobs, check, "count",
                    {"target": (n1, n2), "t": t, "n2_grid": grid})


def _check_nonzero_table(table: list[list[int]], naive_cells) -> list[str]:
    """Oracle checks of a nonzero-set table that covers at least (12, 150)."""
    problems = []
    n1, n2 = len(table) - 1, len(table[0]) - 1
    p = oracles.partitions_1d(max(n1, n2))
    if [table[0][b] for b in range(n2 + 1)] != p[: n2 + 1]:
        problems.append("p_nonzero(0, b) != p(b) (pentagonal recurrence)")
    if [table[a][0] for a in range(n1 + 1)] != p[: n1 + 1]:
        problems.append("p_nonzero(a, 0) != p(a) (pentagonal recurrence)")
    k = min(n1, n2)
    if any(table[a][b] != table[b][a] for a in range(k + 1) for b in range(a)):
        problems.append("p_nonzero(a, b) != p_nonzero(b, a) (symmetry)")
    if exact_count.count_1d(n2) != p[n2]:
        problems.append(f"count_1d({n2}) != p({n2}) (pentagonal recurrence)")
    for a, b in naive_cells:
        want = exact_count.count_naive(NONZERO, Target(a, b))
        if table[a][b] != want:
            problems.append(f"p_nonzero({a},{b}) = {table[a][b]} != {want} (enumeration)")
    # forward identity on every cell up to (12, 150), from a fresh strict table
    A, B = 12, 150
    strict = exact_count.count_table(STRICT, A, B).counts
    derived = oracles.nonzero_from_strict(strict, A, B)
    if any(derived[a] != table[a][: B + 1] for a in range(A + 1)):
        problems.append(f"axis-convolution identity fails inside ({A},{B})")
    return problems


def _check_compare(text, part_set, grid_targets, nonzero_table) -> list[str]:
    rows, problems = oracles.parse_csv_rows(
        text, ["n2", "n1", "p_exact", "log_pred", "log_ratio"]
    )
    if len(rows) != len(grid_targets):
        return problems + [f"{len(rows)} rows for {len(grid_targets)} grid points"]
    for row, (n1, n2) in zip(rows, grid_targets):
        if (int(row[1]), int(row[0])) != (n1, n2):
            problems.append(f"row for ({row[1]},{row[0]}) where ({n1},{n2}) was due")
            continue
        p_exact, log_pred, log_ratio = int(row[2]), float(row[3]), float(row[4])
        if part_set is NONZERO:
            want = nonzero_table[n1][n2]
        else:
            want = oracles.strict_from_nonzero(nonzero_table, n1, n2)
        if p_exact != want:
            problems.append(f"p_exact({n1},{n2}) = {p_exact} != {want}")
        # the CLI prints 12 significant digits
        slack = 1e-10 * max(1.0, abs(log_pred))
        if not (math.isfinite(log_pred) and abs(math.log(p_exact) - log_pred - log_ratio) <= slack):
            problems.append(f"log_ratio inconsistent at ({n1},{n2}): {row}")
    return problems


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def diagnostics(seed: int) -> Workload:
    """Series-heavy: special_functions, calibration, asymptotics and the
    Lyapunov bound dominate, exact_count stays under 10%.

    `bipart llt` for both part sets at (10, 100) and for the strict set at
    (15, 225), calibration at n1/sqrt(n2) ~ 1e5 (alpha ~ 5e-4, ~1e4-term
    series), a 100-point `bipart rates` and the exact coefficients
    `coeffs c 8` / `cbar 6`.  The nonzero report at (15, 225) (~4.5 s, its
    Lyapunov bound needs ~1/beta iterations) is left out so that a pass takes
    ~7 s: the series-heavy calibration is the noisiest job on a VM whose speed
    drifts, and with two ~11 s passes per run its spread reached 0.30.
    The series kernel and Lyapunov work (ROADMAP items 3, 4) show here; a
    counting change (item 2) should not.  command_s = llt_s.
    """
    rng = random.Random(seed)
    small, large = (10, 100 + rng.randint(0, 4)), (15, 225 + rng.randint(0, 4))
    llt_cases = [(small, STRICT), (small, NONZERO), (large, STRICT)]
    extreme = Target(100_000 + rng.randint(0, 1000), 1)
    t_min = 0.01 * (1.0 + rng.uniform(0.0, 0.05))
    t_max = 4.0 + rng.uniform(0.0, 0.04)
    jobs = [
        cli_job(f"llt-{ps.value}-{n1}", "llt",
                ["llt", *_target_args(n1, n2), *_parts_flag(ps)], ((n1, n2),))
        for (n1, n2), ps in llt_cases
    ]
    jobs += [
        Job(f"calibrate-{ps.value}", "calibrate",
            lambda ps=ps: calibration.calibrate(extreme, ps))
        for ps in (STRICT, NONZERO)
    ]
    jobs += [
        cli_job("rates", "rates",
                ["rates", "--t-min", repr(t_min), "--t-max", repr(t_max), "--steps", "100"]),
        cli_job("coeffs-c", "coeffs", ["coeffs", "--variant", "c", "--order", "8"]),
        cli_job("coeffs-cbar", "coeffs", ["coeffs", "--variant", "cbar", "--order", "6"]),
    ]

    def check(out: dict[str, object]) -> dict[str, list[str]]:
        fails: dict[str, list[str]] = {}
        for (n1, n2), ps in llt_cases:
            strict = exact_count.count_table(STRICT, n1, n2).counts
            if ps is STRICT:
                want = strict[n1][n2]
            else:
                want = oracles.nonzero_cell_from_strict(strict, n1, n2)
            name = f"llt-{ps.value}-{n1}"
            fails[name] = _check_llt(out[name], n1, n2, ps, want)
        for ps in (STRICT, NONZERO):
            result = out[f"calibrate-{ps.value}"]
            fails[f"calibrate-{ps.value}"] = (
                [] if max(result.residuals) <= RESIDUAL_LIMIT
                else [f"calibration residuals {result.residuals} above {RESIDUAL_LIMIT}"]
            )
        fails["rates"] = _check_rates(out["rates"], t_min, t_max)
        for name, golden in (("coeffs-c", "coeffs_c8.txt"), ("coeffs-cbar", "coeffs_cbar6.txt")):
            want = (GOLDEN / golden).read_text()
            fails[name] = [] if out[name] == want else [f"output differs from golden/{golden}"]
        return fails

    return Workload(jobs, check, "llt",
                    {"llt_targets": [small, large], "calibrate_target": (extreme.n1, extreme.n2),
                     "rates": (t_min, t_max, 100)})


def _check_llt(text: str, n1: int, n2: int, part_set: PartSet, want: int) -> list[str]:
    report = json.loads(text)
    problems = []
    if (report["n1"], report["n2"], report["part_set"]) != (n1, n2, part_set.value):
        problems.append(f"report for the wrong target: {report}")
    if report["p_exact_decimal_string"] != str(want):
        problems.append(f"p_exact {report['p_exact_decimal_string']} != {want}")
    ratio = report["normalized_ratio"]
    if not (math.isfinite(ratio) and ratio > 0):
        problems.append(f"LLT ratio not finite and positive: {ratio!r}")
    for key in ("alpha", "beta", "det_gamma", "sigma_sq", "lyapunov"):
        if not (math.isfinite(report[key]) and report[key] > 0):
            problems.append(f"{key} not finite and positive: {report[key]!r}")
    return problems


def _check_rates(text: str, t_min: float, t_max: float) -> list[str]:
    rows, problems = oracles.parse_csv_rows(text, ["t", "h", "h_bar"])
    if len(rows) != 100:
        return problems + [f"{len(rows)} rate rows, 100 expected"]
    values = [tuple(map(float, row)) for row in rows]
    ts = [v[0] for v in values]
    if abs(ts[0] - t_min) > 1e-9 * t_min or abs(ts[-1] - t_max) > 1e-9 * t_max:
        problems.append("rate grid does not span [t_min, t_max]")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        problems.append("rate grid not increasing")
    # both rates are finite and positive, and the nonzero set has more partitions
    if not all(math.isfinite(h_bar) and h_bar > h > 0 for _, h, h_bar in values):
        problems.append("rates not finite with 0 < h < h_bar")
    return problems


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sampling(seed: int) -> Workload:
    """Sampler-heavy: the gibbs layer used in two opposite ways.

    Tens of thousands of replicas with windows of ~2-5k parts at (10, 400),
    where per-replica overhead dominates, and a few hundred replicas with
    windows of ~2-4e5 parts at (1000, 1e6), where per-part draws dominate;
    so batching replicas (ROADMAP item 4) cannot hide a cost to large
    windows.  Also `bipart sample` as JSON and a char_fn grid.  exact_count
    is absent: no counting change should move this workload.
    command_s = sample_s (both shapes and `bipart sample`).
    """
    rng = random.Random(seed)
    shapes = [
        (Target(10, 400), 20_000 + rng.randint(0, 200)),
        (Target(1000, 10**6), 200 + rng.randint(0, 2)),
    ]
    cli_target = Target(10, 400)
    cli_reps = 4
    char_target = Target(20, 400)
    char_scale = 2.0 * (1.0 + rng.uniform(0.0, 0.02))

    def batch_job(target: Target, ps: PartSet, reps: int):
        def run():
            cal = calibration.calibrate(target, ps)
            spec = gibbs.SamplerSpec(params=cal.params, part_set=ps, seed=seed)
            return spec, gibbs.sample_batch(spec, reps)
        return run

    def char_job(ps: PartSet):
        # a symmetric 17 x 17 grid of frequencies, +-char_scale standard deviations
        def run():
            params = calibration.calibrate(char_target, ps).params
            cov = asymptotics.gibbs_covariance(params, ps)
            axis = np.linspace(-1.0, 1.0, 17) * char_scale
            ts = [(float(u / math.sqrt(cov[0][0])), float(v / math.sqrt(cov[1][1])))
                  for u in axis for v in axis]
            return params, ts, [gibbs.char_fn(params, ps, t) for t in ts]
        return run

    jobs = [
        Job(f"batch-{ps.value}-{target.n1}", "sample", batch_job(target, ps, reps))
        for target, reps in shapes
        for ps in (STRICT, NONZERO)
    ]
    jobs += [
        cli_job(f"sample-cli-{ps.value}", "sample",
                ["sample", *_target_args(cli_target.n1, cli_target.n2), *_parts_flag(ps),
                 "--reps", str(cli_reps), "--seed", str(seed)])
        for ps in (STRICT, NONZERO)
    ]
    jobs += [Job(f"char_fn-{ps.value}", "char_fn", char_job(ps)) for ps in (STRICT, NONZERO)]

    def check(out: dict[str, object]) -> dict[str, list[str]]:
        fails: dict[str, list[str]] = {}
        for target, reps in shapes:
            for ps in (STRICT, NONZERO):
                name = f"batch-{ps.value}-{target.n1}"
                fails[name] = _check_batch(*out[name], reps)
        for ps in (STRICT, NONZERO):
            name = f"sample-cli-{ps.value}"
            fails[name] = _check_sample_cli(out[name], cli_target, ps, cli_reps, seed)
            fails[f"char_fn-{ps.value}"] = _check_char_fn(*out[f"char_fn-{ps.value}"], ps)
        return fails

    return Workload(jobs, check, "sample",
                    {"shapes": [((t.n1, t.n2), r) for t, r in shapes],
                     "cli_sample": ((cli_target.n1, cli_target.n2), cli_reps),
                     "char_fn": ((char_target.n1, char_target.n2), char_scale)})


def _check_batch(spec, batch, reps: int) -> list[str]:
    """Batch-vs-single contract and the sample mean against gibbs_mean."""
    problems = []
    Ns = batch.Ns
    if Ns.shape != (reps, 2):
        return [f"batch shape {Ns.shape} != {(reps, 2)}"]
    for i in (0, reps // 2, reps - 1):
        single = gibbs.sample(spec, replica=i).N
        if tuple(int(v) for v in Ns[i]) != single:
            problems.append(f"replica {i}: batch {tuple(Ns[i])} != sample() {single}")
    mean = asymptotics.gibbs_mean(spec.params, spec.part_set)
    stderr = Ns.std(axis=0, ddof=1) / math.sqrt(reps)
    z = (Ns.mean(axis=0) - np.array(mean)) / stderr
    if not np.all(np.abs(z) <= MEAN_Z_LIMIT):
        problems.append(f"sample mean off gibbs_mean by {z} standard errors")
    return problems


def _check_sample_cli(text: str, target: Target, ps: PartSet, reps: int, seed: int) -> list[str]:
    payload = json.loads(text)
    problems = []
    params = calibration.calibrate(target, ps).params
    if (payload["alpha"], payload["beta"]) != (params.alpha, params.beta):
        problems.append("JSON shape parameters differ from calibrate()")
    spec = gibbs.SamplerSpec(params=params, part_set=ps, seed=seed)
    if [r["replica"] for r in payload["replicas"]] != list(range(reps)):
        return problems + ["replica list is not 0..reps-1"]
    for r in payload["replicas"]:
        m = r["multiplicities"]
        total = [sum(x1 * k for x1, _, k in m), sum(x2 * k for _, x2, k in m)]
        if r["N"] != total:
            problems.append(f"replica {r['replica']}: N {r['N']} != sum of parts {total}")
        if tuple(r["N"]) != gibbs.sample(spec, replica=r["replica"]).N:
            problems.append(f"replica {r['replica']}: N differs from sample()")
    return problems


def _check_char_fn(params, ts, values, ps: PartSet) -> list[str]:
    problems = []
    by_t = dict(zip(ts, values))
    if abs(by_t[(0.0, 0.0)] - 1.0) > 1e-12:
        problems.append(f"phi(0) = {by_t[(0.0, 0.0)]} != 1")
    for (t1, t2), v in by_t.items():
        if not (math.isfinite(v.real) and math.isfinite(v.imag) and abs(v) <= 1.0 + 1e-9):
            problems.append(f"|phi({t1},{t2})| = {abs(v)} is not a finite value <= 1")
        if abs(by_t[(-t1, -t2)] - v.conjugate()) > 1e-9:
            problems.append(f"phi(-t) != conj(phi(t)) at ({t1},{t2})")
        if ps is STRICT and abs(v) > gibbs.char_fn_bound(params, (t1, t2)) * (1 + 1e-9):
            problems.append(f"|phi({t1},{t2})| above the product bound")
    return problems


WORKLOADS = {"exact": exact, "diagnostics": diagnostics, "sampling": sampling}
