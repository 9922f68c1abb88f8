"""End-to-end tests for the command-line interface."""

import json
import math
import time
from pathlib import Path

import pytest

from bipartitions import cli, exact_count, gibbs
from bipartitions.asymptotics import theorem_estimate
from bipartitions.cli import main
from bipartitions.exact_count import PartSet, Target, count_table
from bipartitions.gibbs import llt_check

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_single_value(self, capsys):
        code, out, err = run(capsys, "count", "--n1", "6", "--n2", "6", "--parts", "strict")
        assert code == 0 and err == ""
        assert out.strip() == "45"

    def test_nonzero_value(self, capsys):
        code, out, _ = run(capsys, "count", "--n1", "4", "--n2", "4", "--parts", "nonzero")
        assert code == 0
        assert out.strip() == "109"

    def test_table_csv(self, capsys):
        code, out, _ = run(
            capsys, "count", "--n1", "1", "--n2", "1", "--parts", "strict", "--table"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,b,count"
        assert len(lines) == 5

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "count.txt"
        code, out, _ = run(
            capsys, "count", "--n1", "2", "--n2", "2", "--parts", "strict",
            "--output", str(path),
        )
        assert code == 0 and out == ""
        assert path.read_text().strip() == "2"

    def test_cell_budget_error(self, capsys, monkeypatch):
        monkeypatch.setenv("BIPART_CELL_BUDGET", "10")
        code, out, err = run(capsys, "count", "--n1", "9", "--n2", "9", "--parts", "strict")
        assert code == 1 and out == ""
        assert "error:" in err

    @pytest.mark.parametrize(
        "n1, n2, parts", [(3000, 3000, "strict"), (0, 10**7, "nonzero")]
    )
    def test_work_budget_error(self, capsys, n1, n2, parts):
        # both fit the cell budget; refused before the first row
        assert (n1 + 1) * (n2 + 1) <= exact_count.DEFAULT_CELL_BUDGET
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--n1", str(n1), "--n2", str(n2), "--parts", parts)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "work budget" in err and err.count("\n") == 1

    def test_memory_budget_error(self, capsys):
        # fits the cell and work budgets, but its rows would hold ~1.3 GB
        n1, n2 = 8, 1_560_000
        assert (n1 + 1) * (n2 + 1) <= exact_count.DEFAULT_CELL_BUDGET
        assert n1 * n1 * n2 <= exact_count.WORK_BUDGET
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--n1", "8", "--n2", "1560000", "--parts", "strict")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "memory budget" in err and err.count("\n") == 1

    def test_unwritable_output_is_reported(self, capsys, tmp_path):
        path = tmp_path / "missing" / "count.txt"
        code, out, err = run(
            capsys, "count", "--n1", "3", "--n2", "3", "--parts", "strict", "-o", str(path)
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and str(path) in err


class TestCoeffs:
    def test_unbarred(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--variant", "c", "--order", "6")
        assert code == 0
        assert out.splitlines() == [
            "c_1 = 5/4",
            "c_2 = -805/288",
            "c_3 = 6731/576",
            "c_4 = -133046081/2073600",
            "c_5 = 170097821/414720",
        ]

    def test_barred(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--variant", "cbar", "--order", "4")
        assert code == 0
        assert out.splitlines() == [
            "cbar_1 = 5/4 * a^1 - 1/4 * a^-1",
            "cbar_2 = -145/72 * a^2 + 5/8",
            "cbar_3 = 6 * a^3 - 1385/576 * a^1 + 5/32 * a^-1 + 1/192 * a^-3",
        ]

    @pytest.mark.parametrize(
        "variant, order, golden", [("c", "8", "coeffs_c8.txt"), ("cbar", "6", "coeffs_cbar6.txt")]
    )
    def test_golden_lines(self, capsys, variant, order, golden):
        code, out, err = run(capsys, "coeffs", "--variant", variant, "--order", order)
        assert code == 0 and err == ""
        assert out == (GOLDEN / golden).read_text()

    def test_order_out_of_range(self, capsys):
        code, out, err = run(capsys, "coeffs", "--variant", "c", "--order", "20")
        assert code == 1 and "error:" in err


class TestRates:
    def test_default_grid(self, capsys):
        code, out, _ = run(capsys, "rates")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,h,h_bar"
        assert len(lines) == 101
        t, h, hbar = map(float, lines[1].split(","))
        assert t == pytest.approx(0.01)
        assert hbar > h

    def test_custom_grid(self, capsys):
        code, out, _ = run(
            capsys, "rates", "--t-min", "1", "--t-max", "2", "--steps", "3"
        )
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 4
        assert [float(row.split(",")[0]) for row in lines[1:]] == [1.0, 1.5, 2.0]

    def test_large_ratios_in_closed_form(self, capsys):
        # roots down to alpha ~ 1e-8, each row independent of its grid
        start = time.perf_counter()
        code, out, _ = run(capsys, "rates", "--t-min", "1e6", "--t-max", "1e12", "--steps", "3")
        assert code == 0 and time.perf_counter() - start < 2.0
        code, low, _ = run(capsys, "rates", "--t-min", "1e5", "--t-max", "1e6", "--steps", "3")
        assert code == 0
        assert out.splitlines()[1] == low.splitlines()[-1]

    def test_invalid_steps(self, capsys):
        code, _, err = run(capsys, "rates", "--steps", "0")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_bound_is_refused(self, capsys, value):
        # checked before the grid is built: no numpy warning, and the value given
        code, out, err = run(capsys, "rates", "--t-min", value, "--t-max", value)
        assert code == 1 and out == ""
        assert err == f"error: --t-min must be finite and positive, got {value}\n"
        code, _, err = run(capsys, "rates", "--t-max", value)
        assert err == f"error: --t-max must be finite and positive, got {value}\n"

    def test_bad_interval_is_refused(self, capsys):
        code, _, err = run(capsys, "rates", "--t-min", "0", "--t-max", "1")
        assert code == 1 and err == "error: --t-min must be finite and positive, got 0.0\n"
        code, _, err = run(capsys, "rates", "--t-min", "2", "--t-max", "1")
        assert code == 1 and err == "error: --t-min 2.0 exceeds --t-max 1.0\n"

    def test_underflowing_ratio_is_reported(self, capsys):
        # the strict root lies beyond alpha ~ 709, where Phi underflows to 0.0
        code, _, err = run(
            capsys, "rates", "--t-min", "1e-300", "--t-max", "1e-300", "--steps", "1"
        )
        assert code == 1
        assert err.startswith("error: target ratio 1e-300 is too small")

    def test_root_below_alpha_floor_is_reported(self, capsys):
        # Theta(1e-12) ~ 1e18: larger ratios would need a smaller alpha
        code, out, err = run(
            capsys, "rates", "--t-min", "1e20", "--t-max", "1e20", "--steps", "1"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "1e+20" in err and err.count("\n") == 1

    def test_unrepresentable_ratio_prints_no_rows(self, capsys):
        code, out, err = run(
            capsys, "rates", "--t-min", "1e-300", "--t-max", "1", "--steps", "2"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: target ratio 1e-300 is too small")


class TestCompare:
    def test_small_grid(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--parts", "strict", "--n2-grid", "25,49"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n2,n1,p_exact,log_pred,log_ratio"
        assert len(lines) == 3
        n2, n1, p_exact, log_pred, log_ratio = lines[1].split(",")
        assert (int(n2), int(n1)) == (25, 5)
        expected = count_table(PartSet.STRICT_POSITIVE, 5, 25).get(5, 25)
        assert int(p_exact) == expected
        float(log_pred), float(log_ratio)  # well-formed numbers

    def test_log_ratio_digits(self, capsys):
        # log_ratio carries the 10 decimals the calibration supports
        code, out, _ = run(capsys, "compare", "--parts", "nonzero", "--n2-grid", "16,36")
        assert code == 0
        for row in out.strip().splitlines()[1:]:
            log_ratio = row.split(",")[4]
            assert len(log_ratio.split(".")[1]) == 10

    def test_refused_inputs_are_reported(self, capsys):
        code, out, err = run(capsys, "compare", "--parts", "strict", "--n2-grid", "25,-4")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "-4" in err
        code, out, err = run(capsys, "compare", "--parts", "strict", "--t", "inf")
        assert code == 1 and out == "" and err == "error: t must be finite, got inf\n"

    def test_one_table_for_the_grid(self, capsys, monkeypatch):
        calls = []

        def counting(part_set, n1, n2):
            calls.append((n1, n2))
            return count_table(part_set, n1, n2)

        monkeypatch.setattr(cli, "count_table", counting)
        code, out, _ = run(capsys, "compare", "--parts", "nonzero", "--n2-grid", "36,64,16")
        assert code == 0 and calls == [(8, 64)]
        # the same rows from one table per grid point
        expected = ["n2,n1,p_exact,log_pred,log_ratio"]
        for n1, n2 in ((6, 36), (8, 64), (4, 16)):
            p_exact = count_table(PartSet.NONZERO_VECTORS, n1, n2).get(n1, n2)
            log_pred = theorem_estimate(Target(n1, n2), PartSet.NONZERO_VECTORS).log_value
            log_ratio = math.log(p_exact) - log_pred
            expected.append(f"{n2},{n1},{p_exact},{log_pred:.12g},{log_ratio:.10f}")
        assert out.splitlines() == expected


class TestSample:
    def test_json_payload_and_determinism(self, capsys):
        args = (
            "sample", "--n1", "6", "--n2", "40", "--parts", "nonzero",
            "--reps", "2", "--seed", "9",
        )
        code, out1, _ = run(capsys, *args)
        assert code == 0
        code, out2, _ = run(capsys, *args)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["n1"] == 6 and payload["n2"] == 40
        assert payload["part_set"] == "nonzero"
        assert payload["alpha"] > 0 and payload["beta"] > 0
        assert len(payload["replicas"]) == 2
        rep = payload["replicas"][0]
        assert set(rep) == {"replica", "N", "multiplicities"}
        n1 = sum(x1 * m for x1, _, m in rep["multiplicities"])
        assert rep["N"][0] == n1

    def test_truncation_report(self, capsys):
        code, out, _ = run(capsys, "sample", "--n1", "6", "--n2", "40", "--parts", "strict")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [
            "n1", "n2", "part_set", "alpha", "beta", "seed", "replicas",
            "residuals", "max_r", "tail_bound",
        ]
        assert len(payload["residuals"]) == 2 and max(payload["residuals"]) < 1e-9
        assert isinstance(payload["max_r"], int) and payload["max_r"] >= 1
        assert 0.0 < payload["tail_bound"] < 1e-4

    def test_rate_table_cap_is_reported(self, capsys):
        # beta ~ 1.3e-8: the cut in r would lie beyond r ~ 3e9
        code, out, err = run(
            capsys, "sample", "--n1", "10", "--n2", "10000000000000000", "--parts", "nonzero"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: tv_budget 0.0001 may need")
        assert str(gibbs.MAX_RATE_TERMS) in err

    def test_chunk_pair_cap_is_reported(self, capsys):
        # log Z ~ 1.3e5, so a chunk of replicas would hold ~8.6e6 pairs
        code, out, err = run(
            capsys, "sample", "--n1", "200000", "--n2", "40000000000", "--parts", "strict"
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: a chunk of {gibbs.CHUNK_REPLICAS} replicas")
        assert str(gibbs.MAX_CHUNK_PAIRS) in err

    def test_truncation_error_is_reported(self, capsys):
        code, out, err = run(
            capsys, "sample", "--n1", "5", "--n2", "25", "--parts", "strict",
            "--tv-budget", "0.5",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: tv_budget")

    def test_negative_reps_are_reported(self, capsys):
        code, out, err = run(
            capsys, "sample", "--n1", "10", "--n2", "400", "--parts", "strict", "--reps", "-2"
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "-2" in err

    @pytest.mark.parametrize("parts", ["strict", "nonzero"])
    def test_reps_pair_cap_is_reported(self, capsys, parts):
        # log Z is 8.3 (strict) and 27 (nonzero) at (10, 400), so 1e9 replicas
        # would draw ~8e9 or ~27e9 pairs; refused before the first draw
        start = time.perf_counter()
        code, out, err = run(
            capsys, "sample", "--n1", "10", "--n2", "400", "--parts", parts,
            "--reps", "1000000000",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: --reps 1000000000 at log Z")
        assert str(cli.MAX_SAMPLE_PAIRS) in err and err.count("\n") == 1

    def test_tiny_alpha_is_calibrated(self, capsys):
        # alpha ~ 1e-8, where Phi and its derivatives come in closed form
        code, out, err = run(
            capsys, "sample", "--n1", "1000000000000", "--n2", "1", "--parts", "strict"
        )
        assert code == 0 and err == ""
        assert max(json.loads(out)["residuals"]) <= 1e-9


class TestLLT:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "llt", "--n1", "8", "--n2", "64", "--parts", "strict")
        assert code == 0
        payload = json.loads(out)
        assert payload["n1"] == 8 and payload["part_set"] == "strict"
        assert float(payload["normalized_ratio"]) > 0
        assert payload["p_exact_decimal_string"].isdigit()

    @pytest.mark.parametrize("parts", ["strict", "nonzero"])
    def test_full_report(self, capsys, parts):
        code, out, _ = run(capsys, "llt", "--n1", "8", "--n2", "64", "--parts", parts)
        assert code == 0
        payload = json.loads(out)
        (g11, g12), (g21, g22) = payload["gamma"]
        trace, det = g11 + g22, payload["det_gamma"]
        assert g12 == g21
        assert g11 * g22 - g12 * g21 == pytest.approx(det, rel=1e-9)
        sigma_sq = 0.5 * (trace - math.sqrt(trace**2 - 4.0 * det))
        assert sigma_sq == pytest.approx(payload["sigma_sq"], rel=1e-9)
        assert payload["ellipse_radius"] == pytest.approx(1.0 / (4.0 * payload["lyapunov"]))
        extras = payload["extras"]
        assert payload["gaussian_pred"] == pytest.approx(
            math.exp(-0.5 * extras["mean_offset_sq"]) / (2.0 * math.pi * math.sqrt(det))
        )
        log_p = (
            math.log(int(payload["p_exact_decimal_string"]))
            - payload["alpha"] * 8 - payload["beta"] * 64 - extras["log_z"]
        )
        assert payload["normalized_ratio"] == pytest.approx(
            2.0 * math.pi * math.sqrt(det) * math.exp(log_p), rel=1e-9
        )
        # the Lyapunov bound's default tol is 1e-10
        assert extras["lyapunov_cells"] > 0
        assert 0.0 <= extras["lyapunov_tail_bound"] <= 1e-10 * payload["lyapunov"]

    @pytest.mark.parametrize("parts", ["strict", "nonzero"])
    def test_stdout_is_the_report(self, capsys, parts):
        code, out, _ = run(capsys, "llt", "--n1", "8", "--n2", "64", "--parts", parts)
        assert code == 0
        assert out == json.dumps(llt_check(Target(8, 64), PartSet(parts))) + "\n"


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        capsys.readouterr()

    def test_unknown_parts(self, capsys):
        with pytest.raises(SystemExit):
            main(["count", "--n1", "1", "--n2", "1", "--parts", "all"])
        capsys.readouterr()
