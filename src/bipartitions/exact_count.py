"""Exact arbitrary-precision counting of bipartite partitions.

The main routine builds a dense table of counts p_X(a, b) for a <= n1,
b <= n2, one q2-row P_a per a, by the Euler-transform recurrence
a P_a = sum_{i=1..a} M_i P_{a-i}, in row additions only: the weighted sums
it needs are carried from row to row instead of being formed afresh, and the
1-D partition row comes from Euler's pentagonal recurrence.  A recursive
enumeration oracle and a 1-D partition counter serve as independent ground
truth.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import IO

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
# The recurrence makes about m^2 M row-cell additions (m = min(n1, n2),
# M = max(n1, n2)), and the nonzero set's pentagonal P_0 about M^(3/2) more;
# the largest tables this admits, such as nonzero (0, 215443) or (464, 464),
# take ~25 s on a 2-core VM.
WORK_BUDGET = 10**8
# Bytes the rows of a table may hold at once, by `_table_bytes`.  The estimate
# read 1.4x (nonzero (0, 100000)) to 3.0x (strict (8, 120000)) the growth of
# peak RSS measured on a 2-core VM, so a table it admits stays below ~0.8 GB.
MEMORY_BUDGET = 1 << 30


class CellBudgetError(ValueError):
    """Raised when a requested table would exceed the cell or work budget."""


@dataclass(frozen=True)
class CountTable:
    """Dense table of exact counts p_X(a, b) for a <= max1, b <= max2."""

    part_set: PartSet
    max1: int
    max2: int
    counts: tuple  # tuple of row tuples of int

    def get(self, a: int, b: int) -> int:
        return self.counts[a][b]

    def to_csv(self, stream: IO[str]) -> None:
        """Dump the table as `a,b,count` lines after a header line, each ended
        by CRLF as the csv module's default dialect writes them."""
        lines = (
            f"{a},{b},{c}\r\n" for a, row in enumerate(self.counts) for b, c in enumerate(row)
        )
        stream.write("a,b,count\r\n" + "".join(lines))


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
    a P_a = sum_{d<=a} S_d u_d(a) with u_d(a) = sum_{e<=a/d} e P_{a-de}, and the
    sum divides exactly by a.  For strict parts the combs start at m = 1, and
    S_d u - u is S_d u shifted by d columns.

    u_d telescopes down each residue class mod d: with V_d(a) = V_d(a-d) +
    P_{a-d}, u_d(a) = u_d(a-d) + V_d(a), two row additions per (a, d).  Every
    d carried would hold ~n1^2/2 rows, so only d <= TELESCOPE_MAX_D is (at
    most 72 rows); larger d, where a/d is small, sum u_d afresh.  The cost
    grows like n1^2 n2 additions, so a thin table with n1 > n2 is built as the
    (n2, n1) table and transposed: both part sets are symmetric under
    (x1, x2) -> (x2, x1).  A table past the cell budget (BIPART_CELL_BUDGET
    overrides it), WORK_BUDGET or MEMORY_BUDGET raises CellBudgetError before
    its first row.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("table bounds must be non-negative")
    budget = int(os.environ.get("BIPART_CELL_BUDGET") or DEFAULT_CELL_BUDGET)
    cells = (n1 + 1) * (n2 + 1)
    if cells > budget:
        raise CellBudgetError(
            f"table of {cells} cells exceeds the cell budget {budget}"
        )
    m, big = min(n1, n2), max(n1, n2)
    work = m * m * big + (big**1.5 if part_set is PartSet.NONZERO_VECTORS else 0)
    if work > WORK_BUDGET:
        raise CellBudgetError(
            f"table of {n1} x {n2} needs ~{work:.3g} row-cell additions, "
            f"above the work budget {WORK_BUDGET}"
        )
    held = _table_bytes(part_set, m, big)
    if held > MEMORY_BUDGET:
        raise CellBudgetError(
            f"table of {n1} x {n2} may hold ~{held:.3g} bytes at once, "
            f"above the memory budget {MEMORY_BUDGET}"
        )
    rows = _count_rows(part_set, m, big)
    counts = tuple(zip(*rows)) if n1 > n2 else tuple(map(tuple, rows))
    return CountTable(part_set, n1, n2, counts)


# Largest d whose u_d is carried across rows; the carried state is at most
# 2 * (1 + 2 + ... + 8) = 72 rows.
TELESCOPE_MAX_D = 8


def _table_bytes(part_set: PartSet, m: int, big: int) -> float:
    """Estimated bytes held at once by `_count_rows(part_set, m, big)`: its
    m + 1 rows and at most 2 sum_{d <= 8} min(d, m - d) carried u_d and V_d
    rows, each of big + 1 cells of two 8-byte pointers (the row's, and the
    finished table's or the 1-D partition list's) and an int of 24 bytes plus
    4 per 30 bits.  The bits are those of p(m) (big + 1)^m, times p(big)
    for the nonzero set, with p(n) < e^{pi sqrt(2n/3)}: the first coordinates
    of the parts partition m, each part's second one is at most big, and the
    nonzero set's axis parts (0, x2) partition what is left of big.
    """
    carried = 2 * sum(min(d, m - d) for d in range(1, min(m, TELESCOPE_MAX_D) + 1))
    log_count = math.pi * math.sqrt(2 * m / 3) + m * math.log(big + 1)
    if part_set is PartSet.NONZERO_VECTORS:
        log_count += math.pi * math.sqrt(2 * big / 3)
    digits = math.ceil(log_count / math.log(2) / 30) or 1
    return (m + 1 + carried) * (big + 1) * (16 + 24 + 4 * digits)


def _count_rows(part_set: PartSet, n1: int, n2: int) -> list[np.ndarray]:
    """Rows P_0 .. P_n1 of the table (n1 <= n2), by the recurrence of `count_table`."""
    axis = part_set is PartSet.NONZERO_VECTORS
    rows = [_partition_row(n2) if axis else np.array([1] + [0] * n2, dtype=object)]
    zero = np.zeros(n2 + 1, dtype=object)
    carried: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}  # (d, a % d) -> V, u
    for a in range(1, n1 + 1):
        total = np.zeros(n2 + 1, dtype=object)
        for d in range(1, a + 1):
            if d <= TELESCOPE_MAX_D:
                v, u = carried.pop((d, a % d), (zero, zero))
                v = v + rows[a - d]
                u = u + v
                if a + d <= n1:
                    carried[d, a % d] = v, u
            else:
                u = rows[a - d]
                for e in range(2, a // d + 1):
                    u = u + e * rows[a - d * e]
            c = _comb_sum(u, d)
            if axis:
                total += c
            else:  # strict combs start at m = 1: S_d u - u is S_d u shifted by d
                total[d:] += c[:-d]
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
    """1-D partition numbers p(0), ..., p(n) by Euler's pentagonal recurrence
    p(m) = sum_{k>=1} (-1)^(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2))."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= m:
            term = p[m - g] + (p[m - g - k] if g + k <= m else 0)
            total += term if k % 2 else -term
            k += 1
        p[m] = total
    return np.array(p, dtype=object)


def count_1d(n: int) -> int:
    """Number of 1-D integer partitions p(n), by the pentagonal recurrence."""
    if n < 0:
        raise ValueError("count_1d requires n >= 0")
    return _partition_row(n)[n]
