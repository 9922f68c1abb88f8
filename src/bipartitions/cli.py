"""Command-line front end.

Subcommands: count, coeffs, compare, rates, sample, llt.  Numeric output is
CSV (12 significant digits; compare's log_ratio to 10 decimal places, the
accuracy the calibration supports) or JSON with stable key order; exact
counts are always printed as decimal strings.  The environment variable
BIPART_CELL_BUDGET overrides the counting cell budget.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import IO

import numpy as np

from .asymptotics import rate_table, theorem_estimate
from .exact_count import CellBudgetError, PartSet, Target, count_table
from .formal_series import corollary2_coeffs, corollary3_coeffs
from .gibbs import SamplerSpec, llt_check, pair_rates, samples


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _add_parts_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--parts",
        choices=["strict", "nonzero"],
        required=True,
        help="part set: 'strict' (both coordinates positive) or 'nonzero'",
    )


def _open_output(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipart", description="bipartite partition counting and asymptotics"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="exact partition count")
    p_count.add_argument("--n1", type=int, required=True)
    p_count.add_argument("--n2", type=int, required=True)
    _add_parts_flag(p_count)
    p_count.add_argument(
        "--table", action="store_true", help="dump the full table as CSV"
    )
    p_count.add_argument("--output", "-o", default=None)

    p_coeffs = sub.add_parser("coeffs", help="exact expansion coefficients")
    p_coeffs.add_argument("--variant", choices=["c", "cbar"], required=True)
    p_coeffs.add_argument("--order", type=int, required=True)
    p_coeffs.add_argument("--output", "-o", default=None)

    p_cmp = sub.add_parser("compare", help="exact counts vs the asymptotic formula")
    _add_parts_flag(p_cmp)
    p_cmp.add_argument("--t", type=float, default=1.0)
    p_cmp.add_argument(
        "--n2-grid", default="100,225,400,625,900", help="comma-separated n2 values"
    )
    p_cmp.add_argument("--output", "-o", default=None)

    p_rates = sub.add_parser("rates", help="tabulate the two rate functions")
    p_rates.add_argument("--t-min", type=float, default=0.01)
    p_rates.add_argument("--t-max", type=float, default=4.0)
    p_rates.add_argument("--steps", type=int, default=100)
    p_rates.add_argument("--output", "-o", default=None)

    p_sample = sub.add_parser("sample", help="Boltzmann partition sampling")
    p_sample.add_argument("--n1", type=int, required=True)
    p_sample.add_argument("--n2", type=int, required=True)
    _add_parts_flag(p_sample)
    p_sample.add_argument("--reps", type=int, default=1)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--tv-budget", type=float, default=1e-4)
    p_sample.add_argument("--output", "-o", default=None)

    p_llt = sub.add_parser("llt", help="local-limit-theorem report")
    p_llt.add_argument("--n1", type=int, required=True)
    p_llt.add_argument("--n2", type=int, required=True)
    _add_parts_flag(p_llt)
    p_llt.add_argument("--output", "-o", default=None)

    return parser


def cmd_count(args, out: IO[str]) -> None:
    part_set = PartSet.from_name(args.parts)
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
    part_set = PartSet.from_name(args.parts)
    grid = [int(v) for v in args.n2_grid.split(",") if v]
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
    rows = rate_table(np.linspace(args.t_min, args.t_max, args.steps).tolist())
    out.write("t,h,h_bar\n")
    for t, h, h_bar in rows:
        out.write(f"{_fmt(t)},{_fmt(h)},{_fmt(h_bar)}\n")


def cmd_sample(args, out: IO[str]) -> None:
    from .calibration import calibrate

    part_set = PartSet.from_name(args.parts)
    cal = calibrate(Target(args.n1, args.n2), part_set)
    spec = SamplerSpec(cal.params, part_set, args.tv_budget, args.seed)
    rates, tail_bound = pair_rates(spec)
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
    part_set = PartSet.from_name(args.parts)
    report = llt_check(Target(args.n1, args.n2), part_set)
    out.write(report.to_json() + "\n")


HANDLERS = {
    "count": cmd_count,
    "coeffs": cmd_coeffs,
    "compare": cmd_compare,
    "rates": cmd_rates,
    "sample": cmd_sample,
    "llt": cmd_llt,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out, should_close = _open_output(getattr(args, "output", None))
    try:
        HANDLERS[args.command](args, out)
    except (CellBudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if should_close:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
