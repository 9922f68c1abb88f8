"""Command-line front end.

Subcommands: count, coeffs, compare, rates, sample, llt.  Numeric output is
CSV (12 significant digits; compare's log_ratio to 10 decimal places, the
accuracy the calibration supports) or JSON with stable key order; exact
counts are always printed as decimal strings.  The environment variable
BIPART_CELL_BUDGET overrides the counting cell budget; a fixed work budget
(exact_count.WORK_BUDGET) refuses a table whose recurrence would take more
than ~25 s, and `sample` refuses more than MAX_SAMPLE_PAIRS expected pairs
(reps x log Z).  A refused input, an exceeded budget or an --output that cannot
be opened prints one ``error: ...`` line on stderr and exits with status 1;
argparse usage errors exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import IO

import numpy as np

from .asymptotics import rate_table, theorem_estimate
from .calibration import calibrate
from .exact_count import PartSet, Target, count_table
from .formal_series import corollary2_coeffs, corollary3_coeffs
from .gibbs import SamplerSpec, llt_check, pair_rates, samples


# Most pairs (r, part) that `bipart sample` may expect to draw: each costs
# ~110 bytes while the output is built and ~4 us on a 2-core VM.
MAX_SAMPLE_PAIRS = 10**6


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipart", description="bipartite partition counting and asymptotics"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags that several subcommands share, each declared once
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", "-o", default=None)
    parts = argparse.ArgumentParser(add_help=False)
    parts.add_argument(
        "--parts",
        choices=["strict", "nonzero"],
        required=True,
        help="part set: 'strict' (both coordinates positive) or 'nonzero'",
    )
    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("--n1", type=int, required=True)
    target.add_argument("--n2", type=int, required=True)

    def command(name, handler, summary, *parents):
        p = sub.add_parser(name, parents=[*parents, output], help=summary)
        p.set_defaults(handler=handler)
        return p

    p_count = command("count", cmd_count, "exact partition count", target, parts)
    p_count.add_argument("--table", action="store_true", help="dump the full table as CSV")

    p_coeffs = command("coeffs", cmd_coeffs, "exact expansion coefficients")
    p_coeffs.add_argument("--variant", choices=["c", "cbar"], required=True)
    p_coeffs.add_argument("--order", type=int, required=True)

    p_cmp = command("compare", cmd_compare, "exact counts vs the asymptotic formula", parts)
    p_cmp.add_argument("--t", type=float, default=1.0)
    p_cmp.add_argument(
        "--n2-grid", default="100,225,400,625,900", help="comma-separated n2 values"
    )

    p_rates = command("rates", cmd_rates, "tabulate the two rate functions")
    p_rates.add_argument("--t-min", type=float, default=0.01)
    p_rates.add_argument("--t-max", type=float, default=4.0)
    p_rates.add_argument("--steps", type=int, default=100)

    p_sample = command("sample", cmd_sample, "Boltzmann partition sampling", target, parts)
    p_sample.add_argument("--reps", type=int, default=1)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--tv-budget", type=float, default=1e-4)

    command("llt", cmd_llt, "local-limit-theorem report", target, parts)
    return parser


def cmd_count(args, out: IO[str]) -> None:
    part_set = PartSet(args.parts)
    table = count_table(part_set, args.n1, args.n2)
    if args.table:
        table.to_csv(out)
    else:
        out.write(str(table.get(args.n1, args.n2)) + "\n")


def cmd_coeffs(args, out: IO[str]) -> None:
    coeffs = corollary2_coeffs if args.variant == "c" else corollary3_coeffs
    for line in coeffs(args.order).lines():
        out.write(line + "\n")


def cmd_compare(args, out: IO[str]) -> None:
    part_set = PartSet(args.parts)
    grid = [int(v) for v in args.n2_grid.split(",") if v]
    if not math.isfinite(args.t):
        raise ValueError(f"t must be finite, got {args.t}")
    for n2 in grid:
        if n2 < 1:
            raise ValueError(f"n2-grid values must be >= 1, got {n2}")
    points = [(max(1, int(math.floor(args.t * math.sqrt(n2)))), n2) for n2 in grid]
    out.write("n2,n1,p_exact,log_pred,log_ratio\n")
    if not points:
        return
    # one table covers every grid point
    table = count_table(part_set, max(p[0] for p in points), max(p[1] for p in points))
    for n1, n2 in points:
        p_exact = table.get(n1, n2)
        est = theorem_estimate(Target(n1, n2), part_set)
        log_ratio = math.log(p_exact) - est.log_value
        out.write(
            f"{n2},{n1},{p_exact},{_fmt(est.log_value)},{log_ratio:.10f}\n"
        )


def cmd_rates(args, out: IO[str]) -> None:
    if args.steps < 1:
        raise ValueError("steps must be >= 1")
    for flag, t in (("t-min", args.t_min), ("t-max", args.t_max)):
        if not (math.isfinite(t) and t > 0):
            raise ValueError(f"--{flag} must be finite and positive, got {t}")
    if args.t_min > args.t_max:
        raise ValueError(f"--t-min {args.t_min} exceeds --t-max {args.t_max}")
    rows = rate_table(np.linspace(args.t_min, args.t_max, args.steps).tolist())
    out.write("t,h,h_bar\n")
    for t, h, h_bar in rows:
        out.write(f"{_fmt(t)},{_fmt(h)},{_fmt(h_bar)}\n")


def cmd_sample(args, out: IO[str]) -> None:
    if args.reps < 0:
        raise ValueError(f"reps must be >= 0, got {args.reps}")
    part_set = PartSet(args.parts)
    cal = calibrate(Target(args.n1, args.n2), part_set)
    spec = SamplerSpec(cal.params, part_set, args.tv_budget, args.seed)
    rates, tail_bound = pair_rates(spec)
    log_z = float(rates.sum())  # the pairs a replica expects, each held as a JSON triple
    if args.reps * log_z > MAX_SAMPLE_PAIRS:
        msg = f"--reps {args.reps} at log Z = {log_z:.6g} expects {args.reps * log_z:.3g}"
        raise ValueError(f"{msg} pairs, above {MAX_SAMPLE_PAIRS}")
    draws = [
        {"replica": i, "N": list(drawn.N), "multiplicities": [
            [x1, x2, m] for (x1, x2), m in sorted(drawn.multiplicities.items())
        ]}
        for i, drawn in enumerate(samples(spec, 0, args.reps))
    ]
    payload = {
        "n1": args.n1,
        "n2": args.n2,
        "part_set": part_set.value,
        "alpha": cal.params.alpha,
        "beta": cal.params.beta,
        "seed": args.seed,
        "replicas": draws,
        "residuals": list(cal.residuals),
        "max_r": rates.shape[1],
        "tail_bound": tail_bound,
    }
    # one json.dumps: json.dump runs the pure-Python encoder, ~7x slower
    out.write(json.dumps(payload) + "\n")


def cmd_llt(args, out: IO[str]) -> None:
    part_set = PartSet(args.parts)
    out.write(json.dumps(llt_check(Target(args.n1, args.n2), part_set)) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        if args.output not in (None, "-"):
            out = open(args.output, "w")
        args.handler(args, out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
