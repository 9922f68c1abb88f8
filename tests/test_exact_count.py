"""Unit tests for the exact counting recurrence and its oracles."""

import hashlib
import io
import tracemalloc
from functools import lru_cache

import pytest

from bipartitions.exact_count import (
    NAIVE_LIMIT,
    CellBudgetError,
    PartSet,
    Target,
    _table_bytes,
    count_1d,
    count_naive,
    count_table,
    parts_in_box,
)

P1D = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


@lru_cache(maxsize=None)
def euler_product_partitions(n: int) -> tuple[int, ...]:
    """p(0), ..., p(n) from prod_k 1/(1 - q^k), one comb sum per factor: the
    prefix sum down each residue class mod k.  Independent of the pentagonal
    recurrence that the package uses."""
    p = [1] + [0] * n
    for k in range(1, n + 1):
        for m in range(k, n + 1):
            p[m] += p[m - k]
    return tuple(p)


class TestCount1D:
    def test_known_values(self):
        assert [count_1d(n) for n in range(11)] == P1D
        assert count_1d(50) == 204226

    def test_matches_euler_product(self):
        p = euler_product_partitions(2000)
        for n in (0, 1, 7, 100, 999, 1000, 1999, 2000):
            assert count_1d(n) == p[n]
        assert count_table(PartSet.NONZERO_VECTORS, 0, 2000).counts[0] == p

    def test_domain(self):
        with pytest.raises(ValueError):
            count_1d(-1)


class TestTableBasics:
    def test_empty_partition(self):
        for ps in PartSet:
            assert count_table(ps, 0, 0).get(0, 0) == 1

    def test_strict_frozen_grid(self):
        t = count_table(PartSet.STRICT_POSITIVE, 6, 6)
        expected = [
            [1, 0, 0, 0, 0, 0, 0],
            [0, 1, 1, 1, 1, 1, 1],
            [0, 1, 2, 2, 3, 3, 4],
            [0, 1, 2, 4, 5, 7, 9],
            [0, 1, 3, 5, 9, 12, 17],
            [0, 1, 3, 7, 12, 20, 28],
            [0, 1, 4, 9, 17, 28, 45],
        ]
        assert [[t.get(a, b) for b in range(7)] for a in range(7)] == expected

    def test_nonzero_frozen_grid(self):
        t = count_table(PartSet.NONZERO_VECTORS, 4, 4)
        expected = [
            [1, 1, 2, 3, 5],
            [1, 2, 4, 7, 12],
            [2, 4, 9, 16, 29],
            [3, 7, 16, 31, 57],
            [5, 12, 29, 57, 109],
        ]
        assert [[t.get(a, b) for b in range(5)] for a in range(5)] == expected

    def test_nonzero_axis_rows_are_1d_partitions(self):
        t = count_table(PartSet.NONZERO_VECTORS, 0, 10)
        assert [t.get(0, b) for b in range(11)] == P1D
        t = count_table(PartSet.NONZERO_VECTORS, 10, 0)
        assert [t.get(a, 0) for a in range(11)] == P1D

    def test_strict_thin_rows(self):
        # a single unit of the first coordinate forces one part (1, n)
        t = count_table(PartSet.STRICT_POSITIVE, 2, 12)
        assert all(t.get(1, n) == 1 for n in range(1, 13))
        # two units: either one part (2, n) or a split (1, a) + (1, n - a)
        assert all(t.get(2, n) == n // 2 + 1 for n in range(1, 13))
        # with one coordinate zero only the empty partition remains
        for n1, n2 in [(0, 5), (5, 0)]:
            t = count_table(PartSet.STRICT_POSITIVE, n1, n2)
            assert [c for row in t.counts for c in row] == [1] + [0] * 5

    def test_transpose_symmetry(self):
        for ps in PartSet:
            t = count_table(ps, 8, 8)
            for a in range(9):
                for b in range(9):
                    assert t.get(a, b) == t.get(b, a)

    def test_matches_naive_enumeration(self):
        n = NAIVE_LIMIT
        for ps in PartSet:
            t = count_table(ps, n, n)
            for a in range(n + 1):
                for b in range(n + 1):
                    assert t.get(a, b) == count_naive(ps, Target(a, b))


def csv_digest(table) -> str:
    buf = io.StringIO()
    table.to_csv(buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


class TestGoldenTables:
    # at (17, 300), frozen from the recurrence before u_d was carried across
    # rows: from row 9 on, u_d for d > TELESCOPE_MAX_D = 8 is summed afresh
    @pytest.mark.parametrize(
        "part_set, digest",
        [
            (PartSet.STRICT_POSITIVE,
             "2b329feb782dc3de6fde38ad7398dfcc22f1a37f61571a99562c9ed545e8c9c5"),
            (PartSet.NONZERO_VECTORS,
             "0fcab47ed4cfec0f442503f0eac33f71382baab268fb1fa42230931b177a2941"),
        ],
    )
    def test_untelescoped_table_digest(self, part_set, digest):
        assert csv_digest(count_table(part_set, 17, 300)) == digest

    # sha256 of the CSV dump at (20, 424), frozen from the knapsack DP that
    # the row recurrence replaced
    @pytest.mark.parametrize(
        "part_set, digest",
        [
            (PartSet.STRICT_POSITIVE,
             "9b16f948ebe671fdccae48e67dda8755ee0f0888dd9c07391aa0619188d44007"),
            (PartSet.NONZERO_VECTORS,
             "c147d7077213aa3a83fbb896856ba100fc6842fdd487044327d4858f1f5b9291"),
        ],
    )
    def test_full_table_digest(self, part_set, digest):
        assert csv_digest(count_table(part_set, 20, 424)) == digest

    # at (30, 900), frozen from the packed-product recurrence that the comb
    # sums replaced
    @pytest.mark.parametrize(
        "part_set, digest",
        [
            (PartSet.STRICT_POSITIVE,
             "8d302e7db4f418ab1a556ddec5b67430e7476d1fa48d03d81d4e62d76d5f2cc1"),
            (PartSet.NONZERO_VECTORS,
             "86a710053b706f3905121825fa95f80dfee605d5cee581ea1370beef7941d2a3"),
        ],
    )
    def test_heavy_table_digest(self, part_set, digest):
        assert csv_digest(count_table(part_set, 30, 900)) == digest


class TestThinTables:
    # n1 >> n2: closed forms that do not depend on how the table is built
    def test_strict_columns(self):
        t = count_table(PartSet.STRICT_POSITIVE, 3000, 2)
        assert t.counts[0] == (1, 0, 0)
        assert all(t.get(a, 0) == 0 for a in range(1, 3001))
        # b = 1 forces one part (a, 1); b = 2 is (a, 2) or (c, 1) + (a - c, 1)
        assert all(t.get(a, 1) == 1 for a in range(1, 3001))
        assert all(t.get(a, 2) == a // 2 + 1 for a in range(1, 3001))

    def test_nonzero_axes(self):
        t = count_table(PartSet.NONZERO_VECTORS, 3000, 2)
        p = euler_product_partitions(3000)
        assert tuple(t.get(a, 0) for a in range(3001)) == p
        assert t.counts[0] == p[:3]

    def test_transposed_matches_naive(self):
        for ps in PartSet:
            t = count_table(ps, 12, 3)
            assert (t.max1, t.max2, len(t.counts), len(t.counts[0])) == (12, 3, 13, 4)
            for a in range(9):
                for b in range(4):
                    assert t.get(a, b) == count_naive(ps, Target(a, b))


class TestConvolutionIdentity:
    def test_nonzero_factorises(self):
        # allowing axis parts multiplies in an independent 1-D partition
        # in each coordinate, which is a double convolution of the tables
        n = 9
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
                assert conv == nonzero.get(n1, n2)


class TestPartsInBox:
    def test_strict(self):
        assert parts_in_box(PartSet.STRICT_POSITIVE, 2, 2) == [
            (1, 1), (1, 2), (2, 1), (2, 2),
        ]

    def test_nonzero_order(self):
        parts = parts_in_box(PartSet.NONZERO_VECTORS, 2, 2)
        assert parts == [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]


class TestBudgetAndValidation:
    def test_budget_exceeded(self, monkeypatch):
        monkeypatch.setenv("BIPART_CELL_BUDGET", "50")
        with pytest.raises(CellBudgetError, match="121 cells exceeds the cell budget 50"):
            count_table(PartSet.STRICT_POSITIVE, 10, 10)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("BIPART_CELL_BUDGET", "10")
        with pytest.raises(CellBudgetError):
            count_table(PartSet.STRICT_POSITIVE, 10, 10)
        monkeypatch.setenv("BIPART_CELL_BUDGET", "1000")
        assert count_table(PartSet.STRICT_POSITIVE, 10, 10).get(1, 1) == 1

    def test_negative_target(self):
        with pytest.raises(ValueError):
            Target(-1, 0)
        with pytest.raises(ValueError):
            count_table(PartSet.STRICT_POSITIVE, -1, 2)

    def test_part_set_names(self):
        assert PartSet("strict") is PartSet.STRICT_POSITIVE
        assert PartSet("nonzero") is PartSet.NONZERO_VECTORS
        with pytest.raises(ValueError):
            PartSet("all")

    def test_naive_limit(self):
        with pytest.raises(ValueError):
            count_naive(PartSet.STRICT_POSITIVE, Target(9, 1))


class TestMemory:
    def test_carried_rows_are_capped(self):
        # the carried u_d and V_d rows (d <= 8) stay below 4x what the finished
        # table holds: 2.3x here, 8x if every d were carried.  n2 = 60 keeps
        # the traced run near a second; the ratio barely moves with n2.
        tracemalloc.start()
        try:
            table = count_table(PartSet.STRICT_POSITIVE, 60, 60)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.get(60, 60) > 0
        assert peak <= 4 * held

    @pytest.mark.parametrize(
        "part_set, n1, n2",
        [
            (PartSet.STRICT_POSITIVE, 8, 1000),
            (PartSet.NONZERO_VECTORS, 8, 500),
            (PartSet.NONZERO_VECTORS, 0, 2000),
            (PartSet.STRICT_POSITIVE, 30, 30),
            (PartSet.NONZERO_VECTORS, 1000, 3),
        ],
    )
    def test_memory_estimate_covers_the_peak(self, part_set, n1, n2):
        # the estimate that MEMORY_BUDGET caps is at least the traced peak
        tracemalloc.start()
        try:
            count_table(part_set, n1, n2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _table_bytes(part_set, min(n1, n2), max(n1, n2))


class TestCsv:
    def dump(self, part_set, n1, n2) -> str:
        buf = io.StringIO()
        count_table(part_set, n1, n2).to_csv(buf)
        return buf.getvalue()

    def test_header_and_rows(self):
        assert self.dump(PartSet.STRICT_POSITIVE, 1, 1) == (
            "a,b,count\r\n0,0,1\r\n0,1,0\r\n1,0,0\r\n1,1,1\r\n"
        )

    def test_nonzero_bytes(self):
        assert self.dump(PartSet.NONZERO_VECTORS, 2, 3) == (
            "a,b,count\r\n"
            "0,0,1\r\n0,1,1\r\n0,2,2\r\n0,3,3\r\n"
            "1,0,1\r\n1,1,2\r\n1,2,4\r\n1,3,7\r\n"
            "2,0,2\r\n2,1,4\r\n2,2,9\r\n2,3,16\r\n"
        )
