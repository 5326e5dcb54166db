"""Hash-consing of binary trees and the uniqueness test on relaxed DAGs.

``uid_compact`` assigns a unique identifier to every distinct (fringe)
subtree of a full binary tree and returns both the identifier table and the
compacted DAG: every edge to an already-seen subtree becomes a pointer to
the subtree's first occurrence in post-order, so each distinct subtree is
stored exactly once.

The pass is one post-order walk that keys each subtree by the integer
triple (label, left value number, right value number).  A subtree's value
number is the post-order index of its first occurrence, which is also its
index in the DAG; the empty tree's is 0.  So the DAG comes out of the same
walk as the value numbers.

Identifier numbering follows the classic value-numbering schedule: all
subtrees of height h receive their ids before any subtree of height h+1, in
order of first post-order occurrence within a height, which is a sort of the
value numbers by (height, value number).  Id 0 is reserved for the empty
tree, so an unlabeled leaf contributes no table row while a labeled leaf x
produces the row ((x, 0, 0), uid).

Spine nodes sit at post-order first occurrences and pointer targets are
post-order indices, so the result is a valid relaxed DAG.  For unlabeled
input the DAG always passes ``is_compacted``; labeled leaves with distinct
labels erase to structurally equal nodes, so the label-erased DAG of a
labeled tree need not.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trees import (
    LEAF,
    BinaryTree,
    RelaxedDag,
    SpineTree,
    _shape,
    dag_adjacency,
)

Triple = tuple[str | None, int, int]


@dataclass(frozen=True)
class UidTable:
    """Rows ((label, uid_left, uid_right), uid) in discovery order."""

    rows: tuple[tuple[Triple, int], ...]

    @property
    def counter(self) -> int:
        return len(self.rows)

    def lookup(self, triple: Triple) -> int | None:
        for row_triple, uid in self.rows:
            if row_triple == triple:
                return uid
        return None


def uid_compact(tree: BinaryTree) -> tuple[RelaxedDag, UidTable]:
    """Compact a full binary tree; returns (dag, identifier table)."""
    vn: dict[Triple, int] = {}  # (label, vn left, vn right) -> value number
    heights = [-1]  # by value number; the empty tree has value number 0
    pointers: dict[tuple[int, str], int] = {}
    # (value number, spine node) of each walked child whose parent is still
    # open; the spine node is None unless this is the child's first occurrence
    results: list[tuple[int, SpineTree | None]] = []
    leaf_taken = False
    stack = [] if tree.left is None and tree.label is None else [(tree, False, False)]
    while stack:
        node, expanded, owns_leaf = stack.pop()
        left = node.left
        if left is None:  # a labeled leaf has two empty children
            left = right = LEAF
        else:
            right = node.right
        # an unlabeled leaf plays the role of the empty tree (value number 0)
        left_nil = left.left is None and left.label is None
        right_nil = right.left is None and right.label is None
        if not expanded:
            # the first empty slot the walk visits is the leaf, always a left one
            if left_nil and not leaf_taken:
                leaf_taken = owns_leaf = True
            stack.append((node, True, owns_leaf))
            if not right_nil:
                stack.append((right, False, False))
            if not left_nil:
                stack.append((left, False, False))
            continue
        right_number, right_node = (0, None) if right_nil else results.pop()
        left_number, left_node = (0, None) if left_nil else results.pop()
        key = (node.label, left_number, right_number)
        number = vn.get(key)
        spine = None
        if number is None:
            number = vn[key] = len(vn) + 1
            heights.append(max(heights[left_number], heights[right_number]) + 1)
            spine = SpineTree(left_node, right_node)
            if left_node is None and not owns_leaf:
                pointers[(number, "left")] = left_number
            if right_node is None:
                pointers[(number, "right")] = right_number
        results.append((number, spine))

    # identifiers number the distinct subtrees by (height, value number)
    triples = list(vn)  # insertion order is value-number order
    order = sorted(range(1, len(triples) + 1), key=heights.__getitem__)
    uid = [0] * (len(triples) + 1)
    for rank, number in enumerate(order, start=1):
        uid[number] = rank
    rows = []
    for number in order:
        label, left, right = triples[number - 1]
        rows.append(((label, uid[left], uid[right]), uid[number]))
    return RelaxedDag(results[0][1] if results else None, pointers), UidTable(tuple(rows))


def unfold(dag: RelaxedDag, at: int | None = None) -> BinaryTree:
    """Expand a DAG node back into the full binary tree it denotes.

    ``at`` is a post-order index (default: the root, which completes last).
    Subtrees are shared in memory, so the result can be exponentially larger
    than the DAG without exponential cost to build.
    """
    n = dag.n
    if at is None:
        at = n
    if not 0 <= at <= n:
        raise ValueError(f"index {at} out of range 0..{n}")
    adj = dag_adjacency(dag)
    trees: list[BinaryTree] = [LEAF]
    for i in range(1, at + 1):
        l, r = adj[i - 1]
        trees.append(BinaryTree(trees[l], trees[r]))
    return trees[at]


def first_duplicate(dag: RelaxedDag) -> int | None:
    """Post-order index of the first spine node whose subtree repeats, or None.

    Runs the identifier assignment over the DAG: the leaf is 0 and each node
    gets the id of its (left, right) child-id pair, fresh if unseen.  Up to
    the first repeat every node's id equals its own index, so the check
    reduces to distinctness of the reference pairs.
    """
    seen: set[tuple[int, int]] = set()
    target = dag.pointers.get
    for i, (left, right) in enumerate(_shape(dag.spine), start=1):
        refs = (left if type(left) is int else target(left, 0),
                right if type(right) is int else target(right, 0))
        if refs in seen:
            return i
        seen.add(refs)
    return None


def is_compacted(dag: RelaxedDag) -> bool:
    """True iff all subtrees hanging off spine nodes are pairwise distinct."""
    return first_duplicate(dag) is None
