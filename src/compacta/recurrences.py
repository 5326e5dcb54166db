"""Quadratic-table recurrences and post-order word counts for the two
counting sequences.

The pool-indexed counts t[n][p] (c-subtrees of size n over a pool of p
already-built subtrees) satisfy, for both kinds,

    t[n+1][p] = sum_{i=0}^{n} t[i][p] * t[n-i][p+i]      (n >= 1)

with base rows
    compacted:  t[0][p] = p+1,  t[1][p] = p^2 + p + 1
    relaxed:    t[0][p] = p+1,  t[1][p] = (p+1)^2

The size-1 relaxed row is not an independent assumption: a single node with
two pointers has (p+1)^2 target choices.  It is validated against brute
force through the n <= 6 counts, which exercise t[1][p] for p up to 4.

The counting sequence is column p = 0.  `word_counts` gets it for all
n <= nmax at once in O(nmax^2) big-int steps, as X(j+1) = T(j) X(j) from
X(1) = (1, ..., 1), with c_{j+1} = X(j+1)[1].  X(j)[a] weighs the words
(below) up to the j-th node that leave stack height a = 1..K, with K = k+1
for right height <= k, else nmax.  With t = j+1, T(j)[a][b] = w(a-b+1) for
b <= a+1, else 0, where w(0) = 1, w(1) = t, w(2) = t^2 - j (compacted) or
t^2 (relaxed), and w(d) = t w(d-1).  With P_a = t P_{a-1} + X[a] (Horner,
P_0 = 0) and s = j (compacted) or 0, X'[a] = X[a+1] + t P_a - s P_{a-1};
as X[a+1] = P_{a+1} - t P_a, a level is X'[a] = P_{a+1} - s P_{a-1} (a
relaxed one is P shifted by one), O(K) steps.  Heights above nmax - j at
level j+1 cannot close by nmax: dropped.

The weights read a spine's post-order as a word: S is an empty child (a
pointer slot with t targets, a leaf or one of the j completed nodes), N a
node completing.  Between nodes j and j+1 the word reads d slots and goes
from stack height b to a = b+d-1, the new node's right depth + 1.  A node
with a spine child cannot repeat an earlier subtree, since that child was
just completed and no earlier node points to it, so only a cherry (the last
two slots and the N) can.  Its j earlier child pairs are distinct and lie
among the t^2 pairs, so a compacted cherry has t^2 - j choices; the d-2
slots before it wait for later nodes.

`count --n` and the streams (seeds past n = k+1, the first-terms check) use
`word_counts`; `count --table` and the seeds n <= k+1 use the table.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CountTable:
    """Triangular table: rows[n][p] defined for 0 <= n <= nmax, p <= nmax - n."""

    kind: str
    nmax: int
    rows: tuple[tuple[int, ...], ...]

    def value(self, n: int, p: int) -> int:
        if not (0 <= n <= self.nmax and 0 <= p <= self.nmax - n):
            raise ValueError(
                f"entry ({n},{p}) outside the triangle of a table built to nmax={self.nmax}"
            )
        return self.rows[n][p]

    def count(self, n: int) -> int:
        """Number of {kind} trees of size n (column p = 0)."""
        if not 0 <= n <= self.nmax:
            raise ValueError(f"n={n} out of range for a table built to nmax={self.nmax}")
        return self.rows[n][0]

    def counts(self) -> list[int]:
        return [self.rows[n][0] for n in range(self.nmax + 1)]


# One check per argument, shared by every public entry, so that an argument
# has one message wherever it is refused (the k check is `operators.check_k`).


def check_kind(kind: str) -> None:
    if kind not in ("relaxed", "compacted"):
        raise ValueError(f"kind must be 'relaxed' or 'compacted', got {kind!r}")


def check_n(n: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")


def check_bound(max_right_height: int | None) -> None:
    if max_right_height is not None and max_right_height < 0:
        raise ValueError("right-height bound must be >= 0")


def check_upto(upto: int, least: int) -> None:
    """upto is the last n: `sequence` takes least 0, a plot of n = 1..upto
    least 1, and a fit least 2, so that its ladder has two points."""
    if upto < least:
        raise ValueError(f"upto must be >= {least}, got {upto}")


def build_table(kind: str, nmax: int) -> CountTable:
    check_kind(kind)
    check_n(nmax)
    rows: list[list[int]] = [[p + 1 for p in range(nmax + 1)]]
    if nmax >= 1:
        if kind == "compacted":
            rows.append([p * p + p + 1 for p in range(nmax)])
        else:
            rows.append([(p + 1) * (p + 1) for p in range(nmax)])
    for n in range(1, nmax):
        # fill row n+1 from the convolution over split sizes i
        width = nmax - n  # p ranges 0..width-1
        row = []
        for p in range(width):
            acc = 0
            for i in range(n + 1):
                acc += rows[i][p] * rows[n - i][p + i]
            row.append(acc)
        rows.append(row)
    return CountTable(kind, nmax, tuple(tuple(r) for r in rows))


def word_counts(kind: str, nmax: int, max_right_height: int | None = None) -> list[int]:
    """Counts of {kind} trees of size n = 0..nmax (right height <= the bound,
    if given) by the level recurrence: O(nmax^2) big-int steps."""
    check_kind(kind)
    check_n(nmax)
    check_bound(max_right_height)
    top = nmax if max_right_height is None else max_right_height + 1
    counts = [1] * min(nmax + 1, 2)
    x = [1] * min(top, nmax)  # X(1)
    for j in range(1, nmax):
        t = j + 1
        x.append(0)  # X[a+1] past the top height
        p, prefix = 0, [0]  # P_0 .. P_{m+1}, with m = min(top, nmax - j)
        for xa in x[:min(top, nmax - j) + 1]:
            p = t * p + xa
            prefix.append(p)
        if kind == "compacted":
            x = [up - j * down for up, down in zip(prefix[2:], prefix)]
        else:
            x = prefix[2:]
        counts.append(x[0])
    return counts
