"""Exact arbitrary-precision counting of bipartite partitions.

The main routine builds a dense table of counts p_X(a, b) for a <= n1,
b <= n2, one q2-row P_a per a, by the Euler-transform recurrence
a P_a = sum_{i=1..a} M_i P_{a-i}, in additions only.  A recursive enumeration
oracle and a 1-D partition counter serve as independent ground truth.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import IO, Iterator

import numpy as np


class PartSet(Enum):
    """Which lattice of parts is allowed.

    STRICT_POSITIVE: both components of every part are >= 1.
    NONZERO_VECTORS: parts may lie on the axes; only the zero vector is
    excluded (otherwise no vector would have finitely many partitions).
    """

    STRICT_POSITIVE = "strict"
    NONZERO_VECTORS = "nonzero"


@dataclass(frozen=True)
class Target:
    """A target vector (n1, n2); (0, 0) admits exactly the empty partition."""

    n1: int
    n2: int

    def __post_init__(self) -> None:
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError(f"target components must be non-negative, got {self}")


DEFAULT_CELL_BUDGET = 1 << 26


class CellBudgetError(ValueError):
    """Raised when a requested table would exceed the cell budget."""


@dataclass(frozen=True)
class CountTable:
    """Dense table of exact counts p_X(a, b) for a <= max1, b <= max2."""

    part_set: PartSet
    max1: int
    max2: int
    counts: tuple  # tuple of row tuples of int

    def get(self, a: int, b: int) -> int:
        return self.counts[a][b]

    def rows(self) -> Iterator[tuple[int, int, int]]:
        for a in range(self.max1 + 1):
            row = self.counts[a]
            for b in range(self.max2 + 1):
                yield a, b, row[b]

    def to_csv(self, stream: IO[str]) -> None:
        """Dump the table as `a,b,count` rows with a header line."""
        writer = csv.writer(stream)
        writer.writerow(["a", "b", "count"])
        for a, b, c in self.rows():
            writer.writerow([a, b, str(c)])


def parts_in_box(part_set: PartSet, n1: int, n2: int) -> list[tuple[int, int]]:
    """All parts of the given set fitting in the box, in lexicographic order.

    x1 ascending then x2 ascending, so for the nonzero set the vertical axis
    parts (0, x2) come first.  The tests pin this order; `count_naive` walks
    it in reverse.
    """
    parts: list[tuple[int, int]] = []
    if part_set is PartSet.NONZERO_VECTORS:
        parts.extend((0, x2) for x2 in range(1, n2 + 1))
    for x1 in range(1, n1 + 1):
        if part_set is PartSet.NONZERO_VECTORS:
            parts.append((x1, 0))
        parts.extend((x1, x2) for x2 in range(1, n2 + 1))
    return parts


def count_table(part_set: PartSet, n1: int, n2: int) -> CountTable:
    """Exact count table by the Euler-transform row recurrence.

    q1 d/dq1 of log F = sum_{x in X} sum_r q^{rx} / r, with F = sum_a P_a q1^a,
    gives a P_a = sum_{i=1..a} M_i P_{a-i} with M_i[j] = sum_{d | gcd(i, j)} i/d
    (part (i/d, j/d) taken d times).  The part set decides only P_0 (1, or the
    1-D partition row for parts (0, x2)) and column 0 of M_i (parts (i/d, 0)).
    Grouping i = d e turns the products into comb sums S_d (`_comb_sum`):
    a P_a = sum_{d<=a} S_d u_d with u_d = sum_{e<=a/d} e P_{a-de}, and the sum
    divides exactly by a.  The cost grows like n1^2 log(n1) n2, so a thin table
    with n1 > n2 is built as the (n2, n1) table and transposed: both part sets
    are symmetric under (x1, x2) -> (x2, x1).
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("table bounds must be non-negative")
    budget = int(os.environ.get("BIPART_CELL_BUDGET") or DEFAULT_CELL_BUDGET)
    cells = (n1 + 1) * (n2 + 1)
    if cells > budget:
        raise CellBudgetError(
            f"table of {cells} cells exceeds the cell budget {budget}"
        )
    rows = _count_rows(part_set, min(n1, n2), max(n1, n2))
    counts = tuple(zip(*rows)) if n1 > n2 else tuple(map(tuple, rows))
    return CountTable(part_set, n1, n2, counts)


def _count_rows(part_set: PartSet, n1: int, n2: int) -> list[np.ndarray]:
    """Rows P_0 .. P_n1 of the table, by the recurrence of `count_table`."""
    axis = part_set is PartSet.NONZERO_VECTORS
    rows = [_partition_row(n2) if axis else np.array([1] + [0] * n2, dtype=object)]
    for a in range(1, n1 + 1):
        total = np.zeros(n2 + 1, dtype=object)
        for d in range(1, a + 1):
            u = sum(e * rows[a - d * e] for e in range(1, a // d + 1))
            # strict parts have x2 >= 1, so their combs start at m = 1
            total += _comb_sum(u, d) if axis else _comb_sum(u, d) - u
        rows.append(total // a)
    return rows


def _comb_sum(u: np.ndarray, d: int) -> np.ndarray:
    """S_d u[k] = sum_{m >= 0} u[k - m d]: a prefix sum down each residue mod d."""
    padded = np.concatenate([u, np.zeros(-len(u) % d, dtype=object)])
    return padded.reshape(-1, d).cumsum(axis=0).ravel()[: len(u)]


NAIVE_LIMIT = 8


def count_naive(part_set: PartSet, target: Target) -> int:
    """Exhaustive multiset enumeration oracle, valid for n1, n2 <= 8."""
    if target.n1 > NAIVE_LIMIT or target.n2 > NAIVE_LIMIT:
        raise ValueError(
            f"naive oracle limited to targets <= {NAIVE_LIMIT}, got {target}"
        )
    parts = sorted(parts_in_box(part_set, target.n1, target.n2), reverse=True)

    @lru_cache(maxsize=None)
    def ways(i: int, r1: int, r2: int) -> int:
        if r1 == 0 and r2 == 0:
            return 1
        if i == len(parts):
            return 0
        x1, x2 = parts[i]
        total = ways(i + 1, r1, r2)  # skip this part
        if x1 <= r1 and x2 <= r2:
            total += ways(i, r1 - x1, r2 - x2)  # use one more copy
        return total

    result = ways(0, target.n1, target.n2)
    ways.cache_clear()
    return result


def _partition_row(n: int) -> np.ndarray:
    """1-D partition numbers p(0), ..., p(n): prod_k 1/(1 - q^k) as comb sums."""
    row = np.array([1] + [0] * n, dtype=object)
    for k in range(1, n + 1):
        row = _comb_sum(row, k)
    return row


def count_1d(n: int) -> int:
    """Number of 1-D integer partitions p(n), by the Euler product."""
    if n < 0:
        raise ValueError("count_1d requires n >= 0")
    return _partition_row(n)[n]
