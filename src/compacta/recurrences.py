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

The counting sequence of interest is column p = 0.

`word_counts` gets that column, for all n <= nmax at once, in O(nmax^2)
big-int steps instead of the table's O(nmax^3).  It reads a spine's
post-order as a word: S is an empty child position (a pointer slot), N a
node completing.  With m nodes completed a slot has m+1 targets, a leaf or
one of those nodes.  A node with a spine child cannot repeat an earlier
subtree, since that child was just completed and no earlier node points to
it, so only a cherry (S S N) can.  Its m earlier child pairs are all
distinct and lie among the (m+1)^2 pairs, so a compacted cherry has
(m+1)^2 - m choices and a relaxed one (m+1)^2.  The stack height #S - #N
when an N is read is that node's right depth + 2, so right height <= k
means height <= k+2 at every N.  The state per letter is (m, number of
trailing slots not yet weighted, at most 2); the height follows from m and
the word length.

`count --n` is served by `word_counts`; `count --table` prints the table.
The D-finite streams take their seeds n <= k+1 from the table and any
seeds past that from the bounded `word_counts`.
"""

from __future__ import annotations

from dataclasses import dataclass

VALID_KINDS = ("compacted", "relaxed")


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


def _check(kind: str, nmax: int) -> None:
    if kind not in VALID_KINDS:
        raise ValueError(f"kind must be one of {VALID_KINDS}, got {kind!r}")
    if nmax < 0:
        raise ValueError("nmax must be >= 0")


def build_table(kind: str, nmax: int) -> CountTable:
    _check(kind, nmax)
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
    if given) by one pass over post-order words: O(nmax^2) big-int steps."""
    _check(kind, nmax)
    discount = kind == "compacted"
    top = nmax + 1 if max_right_height is None else max_right_height + 2
    counts = [0] * (nmax + 1)
    # j completed nodes -> weights by number of trailing unweighted slots
    layer = {0: [1, 0, 0]}
    for length in range(2 * nmax + 1):
        nxt: dict[int, list[int]] = {}
        for j, (w0, w1, w2) in layer.items():
            h = length - 2 * j
            t = j + 1  # slot targets: a leaf or one of the j completed nodes
            if h < min(top, nmax - j + 1):  # read S, still able to close by nmax
                state = nxt.setdefault(j, [0, 0, 0])
                state[1] = w0
                state[2] = w1 + w2 * t  # past two pending, the oldest is no cherry slot
            if 2 <= h <= top:  # read N, a node of right depth h - 2
                nxt.setdefault(j + 1, [0, 0, 0])[0] = w0 + w1 * t + w2 * (t * t - j * discount)
        layer = nxt
        n = length // 2
        if length % 2 == 0 and n in layer:  # height 1: a whole tree of n nodes
            counts[n] = layer[n][0] + layer[n][1] * (n + 1)
    return counts
