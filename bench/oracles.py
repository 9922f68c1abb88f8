"""Independent integer oracles and output parsers for the correctness gate.

None of these reuse the package's counting code: 1-D partition numbers come
from Euler's pentagonal recurrence, and the strict/nonzero relation is the
axis-convolution identity

    p_nonzero(A, B) = sum_{a<=A, b<=B} p_strict(a, b) p(A-a) p(B-b),

i.e. F_nonzero(q1, q2) = F_strict(q1, q2) P(q1) P(q2) with P the 1-D
partition series.  Its inverse multiplies by E(q) = 1/P(q) = prod (1 - q^m),
whose coefficients are the sparse pentagonal-number signs.
"""

from __future__ import annotations

import csv
import io


def _pentagonal(limit: int):
    """(generalized pentagonal number, sign) pairs up to limit, ascending."""
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        if g1 > limit:
            return
        sign = 1 if k % 2 else -1
        yield g1, sign
        g2 = k * (3 * k + 1) // 2
        if g2 <= limit:
            yield g2, sign
        k += 1


def partitions_1d(n: int) -> list[int]:
    """p(0..n) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    pent = list(_pentagonal(n))
    for m in range(1, n + 1):
        total = 0
        for g, sign in pent:
            if g > m:
                break
            total += sign * p[m - g]
        p[m] = total
    return p


def euler_coeffs(n: int) -> list[int]:
    """Coefficients of prod_{m>=1} (1 - q^m) up to q^n."""
    e = [1] + [0] * n
    for g, sign in _pentagonal(n):
        e[g] = -sign
    return e


def strict_from_nonzero(nonzero: list[list[int]], A: int, B: int) -> int:
    """p_strict(A, B) from a nonzero-set table, by the inverse identity."""
    e = euler_coeffs(max(A, B))
    rows = [a for a in range(A + 1) if e[A - a]]
    cols = [b for b in range(B + 1) if e[B - b]]
    return sum(
        e[A - a] * e[B - b] * nonzero[a][b] for a in rows for b in cols
    )


def nonzero_cell_from_strict(strict: list[list[int]], A: int, B: int) -> int:
    """p_nonzero(A, B) from a strict table, by the identity at one cell."""
    p = partitions_1d(max(A, B))
    return sum(
        strict[a][b] * p[A - a] * p[B - b] for a in range(A + 1) for b in range(B + 1)
    )


def nonzero_from_strict(strict: list[list[int]], A: int, B: int) -> list[list[int]]:
    """The nonzero-set table up to (A, B) from a strict table, by convolution."""
    p = partitions_1d(max(A, B))
    along_b = [
        [sum(row[b] * p[col - b] for b in range(col + 1)) for col in range(B + 1)]
        for row in strict[: A + 1]
    ]
    return [
        [sum(along_b[a][col] * p[r - a] for a in range(r + 1)) for col in range(B + 1)]
        for r in range(A + 1)
    ]


def parse_count_csv(text: str) -> tuple[list[list[int]], list[str]]:
    """Table rows from `bipart count --table` output, plus format problems."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    problems = [] if header == ["a", "b", "count"] else [f"bad CSV header {header!r}"]
    table: list[list[int]] = []
    for a_s, b_s, c_s in reader:
        a, b = int(a_s), int(b_s)
        if b == 0:
            table.append([])
        if a != len(table) - 1 or b != len(table[a]):
            problems.append(f"CSV row ({a},{b}) out of order")
            break
        table[a].append(int(c_s))
    return table, problems


def parse_csv_rows(text: str, header: list[str]) -> tuple[list[list[str]], list[str]]:
    """Data rows of a CSV output with the given header, plus format problems."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return [], [f"bad CSV header {rows[:1]!r}"]
    return rows[1:], []
