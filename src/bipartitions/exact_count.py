"""Exact arbitrary-precision counting of bipartite partitions.

The main routine builds a dense table of counts p_X(a, b) for a <= n1,
b <= n2, one q2-row P_a per a, by the Euler-transform recurrence
a P_a = sum_{i=1..a} M_i P_{a-i}, in row additions only: the weighted sums
it needs are carried from row to row instead of being formed afresh, and the
1-D partition row comes from Euler's pentagonal recurrence.  The rows are
int64 arrays of 32-bit limbs: every sum of the recurrence has non-negative
terms, so it adds limbs without carries, and each row is carried and divided
exactly once; Python ints are formed once, at the end.  A recursive
enumeration oracle is independent ground truth; `count_1d` reads the same
pentagonal row as the nonzero P_0, which the tests' Euler product checks.
"""

from __future__ import annotations

import math
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


# Most cells a table may have: the cheapest refusal, checked first, so the
# work and memory estimates below never see an int too large for a float.
CELL_BUDGET = 1 << 26
# The recurrence makes about m^2 M row-cell additions (m = min(n1, n2),
# M = max(n1, n2)), and the nonzero set's pentagonal P_0 about M^(3/2) more;
# the largest tables it admits take, on a 2-core VM, ~8 s at (464, 464) and
# ~26 s at nonzero (0, 215443), all of it the pentagonal P_0.
WORK_BUDGET = 10**8
# Bytes a table may hold at once, by `_table_bytes`.  On thin tables the
# estimate read 1.8x (nonzero (1, 100000)) to 7.0x (strict (1, 1000000)) the
# growth of peak RSS measured on a 2-core VM, so a table it admits stays below
# ~0.6 GB; it reads 14x at (464, 464), whose counts it overstates.
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
        """p_X(a, b); a cell outside the table raises ValueError, where a bare
        index would wrap a negative a or b round to the far end of a row."""
        if not (0 <= a <= self.max1 and 0 <= b <= self.max2):
            raise ValueError(f"({a}, {b}) is outside the table (0..{self.max1}, 0..{self.max2})")
        return self.counts[a][b]

    def to_csv(self, stream: IO[str]) -> None:
        """Dump the table as `a,b,count` lines after a header line, each ended
        by CRLF as the csv module's default dialect writes them."""
        columns = [f",{b}," for b in range(self.max2 + 1)]
        lines = ["a,b,count"]
        for a, row in enumerate(self.counts):
            head = str(a)
            lines += [head + column + c for column, c in zip(columns, map(str, row))]
        lines.append("")
        stream.write("\r\n".join(lines))


def count_table(part_set: PartSet, n1: int, n2: int) -> CountTable:
    """Exact count table by the Euler-transform row recurrence.

    q1 d/dq1 of log F = sum_{x in X} sum_r q^{rx} / r, with F = sum_a P_a q1^a,
    gives a P_a = sum_{i=1..a} M_i P_{a-i} with M_i[j] = sum_{d | gcd(i, j)} i/d
    (part (i/d, j/d) taken d times).  The part set decides only P_0 (1, or the
    1-D partition row for parts (0, x2)) and column 0 of M_i (parts (i/d, 0)).
    Grouping i = d e turns the products into comb sums S_d, prefix sums down
    each residue class mod d: a P_a = sum_{d<=a} S_d u_d(a) with
    u_d(a) = sum_{e<=a/d} e P_{a-de}, and the sum divides exactly by a.  For
    strict parts the combs start at m = 1, and S_d u - u is S_d u shifted by
    d columns.

    u_d telescopes down each residue class mod d: with V_d(a) = V_d(a-d) +
    P_{a-d}, u_d(a) = u_d(a-d) + V_d(a), two row additions per (a, d).  Every
    d carried would hold ~n1^2/2 rows, so only d <= TELESCOPE_MAX_D is (at
    most 72 rows); larger d, where a/d is small, sum u_d afresh.

    Each row is L 32-bit limbs in an int64 array, one L for every held row;
    a sum of rows adds limbs with no carry, one numpy operation over all
    limbs, a comb sum is one in-place int64 `cumsum`, and the carries wait
    until the row's sum is divided exactly by a (`_count_rows` bounds the
    headroom this needs).  The cost grows like n1^2 n2 additions, so a thin
    table with n1 > n2 is built as the (n2, n1) table and transposed: both
    part sets are symmetric under (x1, x2) -> (x2, x1).  A table past CELL_BUDGET, WORK_BUDGET or
    MEMORY_BUDGET raises CellBudgetError before its first row.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("table bounds must be non-negative")
    cells = (n1 + 1) * (n2 + 1)
    if cells > CELL_BUDGET:
        raise CellBudgetError(f"table of {cells} cells exceeds the cell budget {CELL_BUDGET}")
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
# Counts are held as 32-bit limbs, least significant first, in int64 cells.
_LIMB_BITS = 32
_LIMB_MASK = (1 << _LIMB_BITS) - 1


def _table_bytes(part_set: PartSet, m: int, big: int) -> float:
    """Estimated bytes held at once by `_count_rows(part_set, m, big)` and
    the table made from its rows, all big + 1 cells wide.  Arrays of int64
    limbs: its m + 1 rows, at most 2 sum_{d <= 8} min(d, m - d) carried u_d
    and V_d, and 6 of scratch (the row's total, its comb sums, a product
    e P, the quotient and its widened and padded copies).  Rows of ints: the
    finished table, the 1-D partition row and the limb conversion's three
    object arrays, each cell two 8-byte pointers and an int of 24 bytes plus
    4 per 30 bits.  The bits are those of p(m) (big + 1)^m, times p(big)
    for the nonzero set, with p(n) < e^{pi sqrt(2n/3)}: the first coordinates
    of the parts partition m, each part's second one is at most big, and the
    nonzero set's axis parts (0, x2) partition what is left of big.
    """
    carried = 2 * sum(min(d, m - d) for d in range(1, min(m, TELESCOPE_MAX_D) + 1))
    log_count = math.pi * math.sqrt(2 * m / 3) + m * math.log(big + 1)
    if part_set is PartSet.NONZERO_VECTORS:
        log_count += math.pi * math.sqrt(2 * big / 3)
    bits = log_count / math.log(2)
    limbs = math.ceil(bits / _LIMB_BITS) or 1
    digits = math.ceil(bits / 30) or 1
    limb_rows = m + 7 + carried if m else 0  # no limbs when P_0 is the table
    return (big + 1) * (limb_rows * 8 * limbs + (m + 5) * (16 + 24 + 4 * digits))


def _count_rows(part_set: PartSet, n1: int, n2: int) -> list[list[int]]:
    """Rows P_0 .. P_n1 of the table (n1 <= n2), by the recurrence of
    `count_table`, held until the end as int64 limb arrays of shape (L, n2 + 1).

    Headroom for the carries that wait until `_divide_exact`: a limb of a
    row is below 2^32, so one of u_d(a) is below 2^32 k(k + 1)/2 with
    k = floor(a/d), and S_d adds at most floor(n2/d) + 1 of those.  Summed
    over d <= a, with a <= n1, a limb of `total` is below
    2^31 (zeta(3) n2 a^2 + zeta(2) (n2 a + a^2) + a (1 + log a)).  Over
    every shape that CELL_BUDGET and WORK_BUDGET admit, the tests find the
    exact sum below 2^58.3 (at n1 = 2), so int64 keeps 4 bits spare.
    """
    width = n2 + 1
    axis = part_set is PartSet.NONZERO_VECTORS
    first = _partition_row(n2) if axis else [1] + [0] * n2
    if n1 == 0:
        return [first]
    rows = [_to_limbs(first)]
    carried: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}  # (d, a % d) -> V, u
    for a in range(1, n1 + 1):
        limbs = len(rows[0])
        total = np.zeros((limbs, width), np.int64)
        scratch = np.empty((limbs, width + a), np.int64)
        for d in range(1, a + 1):
            # S_d u, a prefix sum down each residue mod d: u is laid out in
            # `scratch` as teeth rows of d columns, padded with zeros
            teeth = -(-width // d)
            comb = scratch[:, : teeth * d]
            u = comb[:, :width]
            if d <= TELESCOPE_MAX_D:
                v, u_d = carried.pop((d, a % d), (0, 0))
                v = v + rows[a - d]
                np.add(u_d, v, out=u)
                if a + d <= n1:
                    carried[d, a % d] = v, u.copy()
            else:
                np.copyto(u, rows[a - d])
                for e in range(2, a // d + 1):
                    u += e * rows[a - d * e]
            comb[:, width:] = 0
            teeth_rows = comb.reshape(limbs, teeth, d)
            teeth_rows.cumsum(axis=1, out=teeth_rows)
            if axis:
                total += u
            else:  # strict combs start at m = 1: S_d u - u is S_d u shifted by d
                total[:, d:] += u[:, :-d]
        del v, scratch  # not held while the quotient may be widened and padded
        row = _divide_exact(total, a)
        if len(row) > limbs:  # the quotient needs a new limb: pad every held array
            for i, held in enumerate(rows):
                rows[i] = _pad(held, len(row))
            for key, (v, u_d) in carried.items():
                carried[key] = _pad(v, len(row)), _pad(u_d, len(row))
        rows.append(row)
    # one row's limbs at a time are freed as its ints are made
    del rows[0]
    return [first] + [_from_limbs(rows.pop(0)) for _ in range(n1)]


def _divide_exact(total: np.ndarray, a: int) -> np.ndarray:
    """total / a as normalised limbs, in place of total's unnormalised ones;
    the quotient gains a top limb where it needs one.  Raises ArithmeticError
    if a does not divide every cell.

    Carries go up into the top limb, then long division runs down from it:
    a remainder below a stays below a * 2^32 once shifted.
    """
    for low, high in zip(total, total[1:]):
        high += low >> _LIMB_BITS
        low &= _LIMB_MASK
    rest = np.zeros(total.shape[1], np.int64)
    for limb in total[::-1]:
        np.divmod((rest << _LIMB_BITS) + limb, a, out=(limb, rest))
    if rest.any():
        raise ArithmeticError(f"a row of the recurrence is not divisible by {a}")
    top = total[-1] >> _LIMB_BITS
    if top.any():
        total[-1] &= _LIMB_MASK
        total = np.vstack([total, top])
    return total


def _pad(limbs: np.ndarray, count: int) -> np.ndarray:
    """The limbs with zero limbs on top, `count` in all."""
    padded = np.zeros((count, limbs.shape[1]), np.int64)
    padded[: len(limbs)] = limbs
    return padded


def _to_limbs(values: list[int]) -> np.ndarray:
    """Non-negative ints as normalised limbs, shape (L, len(values))."""
    ints = np.array(values, dtype=object)
    count = -(-max(values).bit_length() // _LIMB_BITS) or 1
    limbs = np.empty((count, len(values)), np.int64)
    for i, limb in enumerate(limbs):
        limb[:] = ints >> (_LIMB_BITS * i) & _LIMB_MASK
    return limbs


def _from_limbs(limbs: np.ndarray) -> list[int]:
    """The ints of normalised limbs: pairs of limbs form uint64 words, which
    are shifted together as Python ints from the top."""
    bits = limbs.view(np.uint64)
    words = bits[0::2].copy()
    words[: len(bits) // 2] |= bits[1::2] << np.uint64(_LIMB_BITS)
    ints = words[-1].astype(object)
    for word in words[-2::-1]:
        ints = ints << 64 | word.astype(object)
    return ints.tolist()


NAIVE_LIMIT = 8


def count_naive(part_set: PartSet, target: Target) -> int:
    """Exhaustive multiset enumeration oracle, valid for n1, n2 <= 8."""
    if target.n1 > NAIVE_LIMIT or target.n2 > NAIVE_LIMIT:
        raise ValueError(
            f"naive oracle limited to targets <= {NAIVE_LIMIT}, got {target}"
        )
    n1, n2 = target.n1, target.n2
    low = 0 if part_set is PartSet.NONZERO_VECTORS else 1
    parts = sorted(  # every part of the set in the box, largest first
        [(x1, x2) for x1 in range(low, n1 + 1) for x2 in range(low, n2 + 1) if x1 or x2],
        reverse=True,
    )

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

    result = ways(0, n1, n2)
    ways.cache_clear()
    return result


def _partition_row(n: int) -> list[int]:
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
    return p


def count_1d(n: int) -> int:
    """Number of 1-D integer partitions p(n), by the pentagonal recurrence."""
    if n < 0:
        raise ValueError("count_1d requires n >= 0")
    return _partition_row(n)[n]
