"""Brute-force oracles: exhaustive generation of relaxed/compacted DAGs.

Generation is spine-by-spine.  For a fixed spine the legal pointer targets
of each slot form the range 0..pool (pool = spine nodes completed before the
slot is visited), so the assignments are enumerated by mixed-radix counting
and the number of relaxed DAGs over a spine is the product of (pool + 1)
over its slots.  Summing that product over spines is the fast relaxed-count
oracle; the compacted count has no such shortcut because subtree uniqueness
couples the slots, so `generate` filters the relaxed DAGs by is_compacted.
At size 7 (311250 relaxed DAGs) that takes 1-2 s on a 2-CPU x86-64 host
with CPython 3.11.  `generate`, `brute_count` and the spine product check
their arguments and the budget when called, before any object is built.

Output order is deterministic: spines are emitted smallest-left-subtree
first, assignments in mixed-radix order with the last slot fastest.
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import Iterable, Iterator

from .compaction import is_compacted
from .recurrences import check_bound, check_kind, check_n, word_counts
from .trees import RelaxedDag, SpineTree, slots

DEFAULT_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive run would emit more objects than allowed."""

    def __init__(self, estimate: int, budget: int):
        super().__init__(
            f"enumeration would produce {estimate} objects, budget is {budget}"
        )
        self.estimate = estimate
        self.budget = budget


def check_budget(estimate: int, budget: int | None) -> None:
    """Raise BudgetExceededError if estimate is over budget (None: the default)."""
    limit = DEFAULT_BUDGET if budget is None else budget
    if estimate > limit:
        raise BudgetExceededError(estimate, limit)


def gen_spines(n: int, max_right_height: int | None = None) -> Iterator[SpineTree | None]:
    """All binary trees on n nodes (right height <= bound if given).

    Without the bound there are Catalan(n) of them; the size-0 spine is
    yielded as None.  Subtrees of fewer than n-1 nodes are built once per
    call and kept while the generator lives, so spines share subtrees, also
    within one spine: a node's identity does not tell its position.
    """
    check_n(n)
    check_bound(max_right_height)
    built: dict[tuple[int, int | None], list[SpineTree | None]] = {}

    def spines(size: int, bound: int | None) -> Iterable[SpineTree | None]:
        if size == n - 1:  # only the root's subtrees have this size: read once
            return combine(size, bound)
        if (size, bound) not in built:
            built[size, bound] = list(combine(size, bound))
        return built[size, bound]

    def combine(size: int, bound: int | None) -> Iterator[SpineTree | None]:
        if size == 0:
            yield None
            return
        right_bound = None if bound is None else bound - 1
        for left_size in range(size):
            for left in spines(left_size, bound):
                if right_bound is not None and right_bound < 0:
                    if size - 1 - left_size == 0:
                        yield SpineTree(left, None)
                    continue
                for right in spines(size - 1 - left_size, right_bound):
                    yield SpineTree(left, right)

    return combine(n, max_right_height)


def spine_assignment_count(spine: SpineTree | None) -> int:
    """Number of relaxed DAGs over a fixed spine: prod over slots of (pool+1).

    An empty slot of node v is visited once the nodes before v in in-order
    have completed, except the ancestors v lies right of, which complete
    after v.  So its pool is v's in-order rank less v's right depth, and one
    in-order pass reads every pool.
    """
    total, rank, stack = 1, 0, []
    node, right_depth = spine, 0
    while True:
        while node is not None:
            stack.append((node, right_depth))
            node = node.left
        if not stack:
            return total
        node, right_depth = stack.pop()
        weight = rank - right_depth + 1
        if node.left is None:
            total *= weight
        if node.right is None:
            total *= weight
        rank += 1
        node, right_depth = node.right, right_depth + 1


def spine_count(n: int, max_right_height: int | None = None) -> int:
    """How many spines gen_spines yields: Catalan(n), or under a bound the
    DP of its split (the right subtree one bound lower, none below 0)."""
    check_n(n)
    check_bound(max_right_height)
    if max_right_height is None or max_right_height >= n:
        return comb(2 * n, n) // (n + 1)
    below = [1] + [0] * n  # bound -1: the empty tree only
    for _ in range(max_right_height + 1):
        row = [1] + [0] * n
        for size in range(1, n + 1):
            row[size] = sum(row[left] * below[size - 1 - left] for left in range(size))
        below = row
    return below[n]


def count_relaxed_spine_product(n: int, max_right_height: int | None = None,
                                budget: int | None = None) -> int:
    """Relaxed-tree count by the spine product, independent of any table.
    The budget bounds the spines it walks, counted first (which checks n
    and the bound)."""
    check_budget(spine_count(n, max_right_height), budget)
    return sum(spine_assignment_count(s) for s in gen_spines(n, max_right_height))


def spine_assignments(spine: SpineTree | None) -> Iterator[RelaxedDag]:
    """All relaxed DAGs over a fixed spine, in mixed-radix target order."""
    free = slots(spine)[1:]  # the leaf slot's pool is 0: nothing to choose
    keys = [(owner, side) for owner, side, _ in free]
    ranges = [range(pool + 1) for _, _, pool in free]
    for targets in product(*ranges):
        yield RelaxedDag(spine, dict(zip(keys, targets)))


def generate(n: int, kind: str, max_right_height: int | None = None,
             budget: int | None = None) -> Iterator[RelaxedDag]:
    """Lazy generator over every DAG of the kind, size n and bound, once each.

    The arguments and the budget are checked when called, the budget by the
    O(n^2) relaxed word DP (the spine product walks every spine), so a
    caller fails before it pulls anything.  Compacted DAGs are the relaxed
    ones that pass is_compacted.
    """
    check_n(n)
    check_bound(max_right_height)
    check_kind(kind)
    check_budget(word_counts("relaxed", n, max_right_height)[n], budget)
    spines = gen_spines(n, max_right_height)
    if kind == "relaxed":
        return (dag for spine in spines for dag in spine_assignments(spine))
    return (dag for spine in spines for dag in spine_assignments(spine) if is_compacted(dag))


def brute_count(n: int, kind: str, max_right_height: int | None = None,
                budget: int | None = None) -> int:
    """Count by explicit generation (the slow, assumption-free oracle)."""
    return sum(1 for _ in generate(n, kind, max_right_height, budget))
