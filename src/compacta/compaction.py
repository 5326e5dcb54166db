"""Hash-consing of binary trees and the uniqueness test on relaxed DAGs.

``uid_compact`` assigns a unique identifier to every distinct (fringe)
subtree of a full binary tree and returns both the identifier table and the
text of the compacted DAG: every edge to an already-seen subtree becomes a
pointer to the subtree's first occurrence in post-order, so each distinct
subtree is stored exactly once.

Hash-consing runs inside the tree reader (``trees._read``), which sees atoms
in text order and completes nodes in post-order, so it needs no walk of its
own and builds no ``BinaryTree``; a ``BinaryTree`` is printed with
``print_tree`` and read the same way.  Each subtree is keyed by the integer
triple (label, left value number, right value number).  A value number is
the post-order index of a subtree's first occurrence, which is also its
index in the DAG; the empty tree's is 0.  A subtree also carries its part of
the DAG text: "@i" for a repeat of node i and for the leaf ("@0"), and its
children's parts for a first occurrence, which ``trees._print`` writes out.

Identifier numbering follows the classic value-numbering schedule: all
subtrees of height h receive their ids before any subtree of height h+1, in
order of first post-order occurrence within a height, which is a sort of the
value numbers by (height, value number).  Id 0 is reserved for the empty
tree, so an unlabeled leaf contributes no table row while a labeled leaf x
produces the row ((x, 0, 0), uid).

Spine nodes sit at post-order first occurrences and pointer targets are
post-order indices, so the text reads back (``trees.dag_from_text``) as a
valid relaxed DAG.  For unlabeled input that DAG always passes
``is_compacted``; labeled leaves with distinct labels erase to structurally
equal nodes, so the label-erased DAG of a labeled tree need not.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trees import (
    LEAF,
    BinaryTree,
    RelaxedDag,
    _print,
    _read,
    _shape,
    dag_adjacency,
    print_tree,
)

Triple = tuple[str | None, int, int]

_LEAF = (0, "@0")  # (value number, text) of the leaf


@dataclass(frozen=True)
class UidTable:
    """Rows ((label, uid_left, uid_right), uid) in discovery order."""

    rows: tuple[tuple[Triple, int], ...]


def uid_compact(tree: BinaryTree | str) -> tuple[str, UidTable]:
    """Compact a full binary tree, given as text or as a ``BinaryTree`` whose
    labels are atoms of the grammar (it is printed with ``print_tree``);
    returns (DAG text, identifier table).  Value numbering runs inside the
    text reader, so malformed text raises the same ``ParseError`` as
    ``parse_tree``."""
    text = tree if isinstance(tree, str) else print_tree(tree)
    vn: dict[Triple, int] = {}  # (label, vn left, vn right) -> value number
    heights = [-1]  # by value number; the empty tree has value number 0

    def node(left, right, label):
        left_number, left_part = left
        right_number, right_part = right
        key = (label, left_number, right_number)
        number = vn.get(key)
        if number is not None:
            return number, f"@{number}"
        number = vn[key] = len(vn) + 1
        heights.append(max(heights[left_number], heights[right_number]) + 1)
        return number, ("(", left_part, right_part)

    def atom(tok: str):
        if tok == ")":
            raise ValueError("unexpected ')'")
        return _LEAF if tok == "." else node(_LEAF, _LEAF, tok)  # labeled leaf

    _, root = _read(text, atom, node, labeled=True)
    dag_text = _print(root, lambda part: part)  # parts are (opening, left, right)

    # identifiers number the distinct subtrees by (height, value number)
    triples = list(vn)  # insertion order is value-number order
    order = sorted(range(1, len(triples) + 1), key=heights.__getitem__)
    uid = [0] * (len(triples) + 1)
    for rank, number in enumerate(order, start=1):
        uid[number] = rank
    rows = tuple(((label, uid[left], uid[right]), uid[number])
                 for number in order for label, left, right in [triples[number - 1]])
    return dag_text, UidTable(rows)


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
