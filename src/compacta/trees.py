"""Plane binary trees, spines, and pointer-enriched DAGs.

A relaxed binary tree of size n is stored as a spine (binary tree on the n
internal nodes) plus one pointer per non-spine child slot.  Slots and nodes
are addressed by post-order position: spine nodes get indices 1..n in the
order they complete during a post-order traversal, index 0 is the unique
leaf.  The first slot visited by the traversal is always the leaf slot; it
is not part of the pointer map.  A pointer at a slot may target 0 or any
spine node that completed strictly before the slot is visited, which is
exactly the acyclicity discipline a post-order hash-consing pass produces.
`slots(spine)` lists every slot as (owner, side, pool) in visit order; the
legal targets are 0..pool, and a pointer's key is (owner, side).

Text forms:
  tree      "."  |  "(tree tree)"  |  atom  |  "(atom tree tree)"
  dag       the spine with every non-spine slot written "@i" in visit order,
            i in ASCII digits without a leading zero; the leaf slot reads
            "@0", so "@0" is the size-0 dag and "(@0 @0)" the size-1 dag.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache


class ParseError(ValueError):
    """Malformed text input; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# ---------------------------------------------------------------------------
# Binary trees
# ---------------------------------------------------------------------------


class BinaryTree:
    """Full binary tree: a node has either no children (leaf) or two.

    ``label`` is optional and only used by the compaction use case; the
    enumeration machinery works on unlabeled trees.  Instances are
    immutable.  ``==``, ``hash`` and ``repr`` use explicit stacks, so they
    work at any depth; the hash is cached per node and ``==`` skips a pair
    of nodes it has already compared, so subtrees shared by reference (as
    ``unfold`` builds them) are walked once.
    """

    __slots__ = ("left", "right", "label", "_hash")

    def __init__(self, left: "BinaryTree | None" = None,
                 right: "BinaryTree | None" = None, label: str | None = None):
        if (left is None) != (right is None):
            raise ValueError("a node has either 0 or 2 children")
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "label", label)
        _set(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a BinaryTree")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a BinaryTree")

    def __eq__(self, other):
        if not isinstance(other, BinaryTree):
            return NotImplemented
        seen = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if a.label != b.label or (a.left is None) != (b.left is None):
                return False
            if a._hash is not None and b._hash is not None and a._hash != b._hash:
                return False
            if a.left is not None:
                stack.append((a.right, b.right))
                stack.append((a.left, b.left))
        return True

    def __hash__(self):
        stack = [self]
        while stack:
            t = stack[-1]
            if t._hash is not None:
                stack.pop()
            elif t.left is None:
                _set(t, "_hash", hash((None, None, t.label)))
                stack.pop()
            elif t.left._hash is None or t.right._hash is None:
                stack += (t.right, t.left)
            else:
                _set(t, "_hash", hash((t.left._hash, t.right._hash, t.label)))
                stack.pop()
        return self._hash

    def __repr__(self):
        return f"parse_tree({_print(self, _parts)!r})"

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def size(self) -> int:
        """Number of internal nodes."""
        total = 0
        stack = [self]
        while stack:
            t = stack.pop()
            if not t.is_leaf:
                total += 1
                stack.append(t.left)
                stack.append(t.right)
        return total


_set = object.__setattr__
LEAF = BinaryTree()


_ATOM = re.compile(r"[^\s()]+")
_TOKEN = re.compile(r"[()]|[^\s()]+")  # parens, '.', '@k' and atoms
_POINTER = re.compile(r"@(0|[1-9][0-9]*)")  # ASCII digits, no leading zero


def _tokens(text: str) -> list[str]:
    """``_TOKEN.findall(text)``, faster: its ``\\s`` is ``str.split``'s blank."""
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _read(text: str, atom, node, labeled: bool):
    """Read one form of the shared grammar with an explicit stack.

    ``atom(token)`` gives the value of any token that does not open a node;
    it raises ValueError with the message for one that does not belong
    there (including ')').  ``node(left, right, label)`` builds a node once
    both children are read, so nodes are built in post-order and atoms are
    seen in text order.  With ``labeled``, an atom right after '(' other
    than '.' or '@i' is the node's label.
    """
    tokens = _tokens(text)
    end = len(tokens)

    def error(message: str, at: int) -> ParseError:
        starts = [m.start() for m in _TOKEN.finditer(text)]
        return ParseError(message, starts[at] if at < end else len(text))

    pos = 0
    open_nodes: list[list] = []  # [label] or [label, left] per unclosed '('
    while True:
        if pos == end:
            raise error("unexpected end of input", pos)
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            label = None
            if labeled and pos < end:
                head = tokens[pos]
                if head not in ("(", ")", ".") and not head.startswith("@"):
                    label = head
                    pos += 1
            open_nodes.append([label])
            continue
        try:
            value = atom(tok)
        except ValueError as exc:
            raise error(str(exc), pos - 1) from None
        while open_nodes:
            frame = open_nodes[-1]
            if len(frame) == 1:
                frame.append(value)
                break
            open_nodes.pop()
            if pos == end or tokens[pos] != ")":
                raise error("expected ')'", pos)
            pos += 1
            value = node(frame[1], value, frame[0])
        else:
            if pos != end:
                raise error("trailing input", pos)
            return value


def _tree_atom(tok: str) -> BinaryTree:
    if tok == ")":
        raise ValueError("unexpected ')'")
    return LEAF if tok == "." else BinaryTree(label=tok)  # bare atom: labeled leaf


def parse_tree(text: str) -> BinaryTree:
    """Parse the s-expression tree grammar (labeled or unlabeled)."""
    return _read(text, _tree_atom, BinaryTree, labeled=True)


def _print(root, split) -> str:
    """Print a tree of the shared grammar with an explicit stack.

    ``split(x)`` gives the text of an atom, or (opening, left, right) for a
    node; atoms are asked for in text order.
    """
    out: list[str] = []
    stack = [root]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        part = split(item)
        if type(part) is str:
            out.append(part)
        else:
            opening, left, right = part
            out.append(opening)
            stack += (")", right, " ", left)
    return "".join(out)


def _tree_parts(t: BinaryTree):
    label = t.label
    if label is not None and (
        label == "." or not _ATOM.fullmatch(label)
        or (t.left is not None and label.startswith("@"))
    ):
        raise ValueError(f"label {label!r} would not read back as itself")
    left = t.left
    if label is None and left is not None and left.left is None and left.label is not None:
        # `(x r)` reads as a node labeled x
        raise ValueError(f"label {left.label!r} would not read back as itself")
    return _parts(t)


def _parts(t: BinaryTree):
    # _tree_parts without the label check, for repr
    label = t.label
    if t.left is None:
        return label if label is not None else "."
    return ("(" if label is None else f"({label} ", t.left, t.right)


def print_tree(t: BinaryTree) -> str:
    """Text of ``t`` in the tree grammar.  Raises ValueError naming a label
    that would not read back as itself: a label is one token without blanks
    or parentheses other than '.', a node label does not start with '@', and
    a labeled leaf is not the left child of an unlabeled node.
    """
    return _print(t, _tree_parts)


# ---------------------------------------------------------------------------
# Spines and relaxed DAGs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpineTree:
    """Spine node with optional left/right children (identity semantics)."""

    left: "SpineTree | None" = None
    right: "SpineTree | None" = None


def spine_size(spine: SpineTree | None) -> int:
    total = 0
    stack = [spine] if spine is not None else []
    while stack:
        node = stack.pop()
        total += 1
        if node.left is not None:
            stack.append(node.left)
        if node.right is not None:
            stack.append(node.right)
    return total


def _walk(spine: SpineTree | None):
    """Yield (index, left, right) for each spine node as it completes.

    One post-order pass with an explicit stack.  A child is the index of a
    child node, or, for an empty position, the pair (order, pool): the
    slot's place among all slots in visit order and the number of nodes
    completed when it is visited.  A slot is visited before its owner
    completes, which is why it comes back through the owner.
    """
    done = seen = 0
    indices: list[int] = []  # completed nodes whose parent has not completed
    stack = [(spine, False, None)] if spine is not None else []
    while stack:
        node, expanded, left = stack.pop()
        if not expanded:
            if node.left is None:
                left = (seen, done)
                seen += 1
            stack.append((node, True, left))
            if node.right is not None:
                stack.append((node.right, False, None))
            if node.left is not None:
                stack.append((node.left, False, None))
            continue
        # both subtrees are complete; an empty right slot is visited now
        if node.right is None:
            right = (seen, done)
            seen += 1
        else:
            right = indices.pop()
        if node.left is not None:
            left = indices.pop()
        done += 1
        indices.append(done)
        yield done, left, right


def slots(spine: SpineTree | None) -> list[tuple[int, str, int]]:
    """(owner, side, pool) of the n+1 slots of a size-n spine (none for the
    empty spine), in visit order: the first is the leaf slot, and a slot's
    legal targets are 0..pool."""
    by_order: dict[int, tuple[int, str, int]] = {}
    for index, left, right in _walk(spine):
        if type(left) is tuple:
            by_order[left[0]] = (index, "left", left[1])
        if type(right) is tuple:
            by_order[right[0]] = (index, "right", right[1])
    return [by_order[i] for i in range(len(by_order))]


@dataclass(frozen=True, eq=False)
class RelaxedDag:
    """Spine plus pointer assignment; pointer keys are (owner index, side).

    The leaf slot (first slot in traversal order) is not in the map, so a
    size-n dag carries exactly n pointers.  Instances are immutable; the
    pointer dict must not be mutated after construction.
    """

    spine: SpineTree | None
    pointers: dict[tuple[int, str], int]

    @property
    def n(self) -> int:
        return spine_size(self.spine)


def validate(dag: RelaxedDag) -> str | None:
    """None when every invariant holds, else the first violation."""
    return _violation(dag.pointers, slots(dag.spine))


def _violation(pointers: dict[tuple[int, str], int],
               slots: list[tuple[int, str, int]]) -> str | None:
    if not slots:
        if pointers:
            return "size-0 dag must have no pointers"
        return None
    expected_keys = {(owner, side) for owner, side, _ in slots[1:]}
    actual_keys = set(pointers)
    if actual_keys != expected_keys:
        missing = expected_keys - actual_keys
        extra = actual_keys - expected_keys
        if missing:
            return f"missing pointer for slot {sorted(missing)[0]}"
        return f"unexpected pointer key {sorted(extra)[0]}"
    leaf = slots[0][:2]
    if leaf in pointers:
        return f"leaf slot {leaf} must not carry a pointer"
    for owner, side, pool in slots[1:]:
        target = pointers[(owner, side)]
        if not isinstance(target, int) or target < 0 or target > pool:
            return (
                f"pointer at slot {(owner, side)} targets {target}, "
                f"legal range is 0..{pool}"
            )
    return None


@lru_cache(maxsize=1)
def _shape(spine: SpineTree | None) -> tuple:
    """(left, right) per spine node in completion order: a child's index or
    the (owner, side) key of an empty slot.  Kept for the last spine only,
    keyed by identity; the cache holds the spine, so its id is not reused."""
    return tuple(
        (left if type(left) is int else (index, "left"),
         right if type(right) is int else (index, "right"))
        for index, left, right in _walk(spine)
    )


def dag_adjacency(dag: RelaxedDag) -> list[tuple[int, int]]:
    """For each spine index 1..n, the (left, right) successor indices.

    A spine child contributes its own index; a pointer contributes its
    target; the leaf slot contributes 0.  Entry i-1 describes node i.  The
    spine's shape is cached for one spine at a time, keyed by identity.
    """
    target = dag.pointers.get
    return [
        (left if type(left) is int else target(left, 0),
         right if type(right) is int else target(right, 0))
        for left, right in _shape(dag.spine)
    ]


def dag_to_text(dag: RelaxedDag) -> str:
    if dag.spine is None:
        return "@0"
    targets = iter([dag.pointers.get(slot[:2], 0) for slot in slots(dag.spine)])

    def split(node: SpineTree | None):
        return f"@{next(targets)}" if node is None else ("(", node.left, node.right)

    return _print(dag.spine, split)


def dag_from_text(text: str) -> RelaxedDag:
    """Parse the "@i" dag form and validate the result."""
    targets: list[int] = []  # '@i' tokens come in slot visit order

    def pointer(tok: str) -> None:
        if not tok.startswith("@"):
            raise ValueError("expected '(' or '@i'")
        if not _POINTER.fullmatch(tok):
            raise ValueError(f"bad pointer token {tok!r}")
        if not targets and tok != "@0":
            raise ValueError(f"leaf slot must read @0, got {tok}")
        targets.append(int(tok[1:]))

    spine = _read(text, pointer, lambda left, right, _label: SpineTree(left, right),
                  labeled=False)
    spine_slots = slots(spine)
    pointers = {slot[:2]: target for slot, target in zip(spine_slots[1:], targets[1:])}
    problem = _violation(pointers, spine_slots)
    if problem is not None:
        # only a target past its pool can fail here; it is the first such
        # slot, and the i-th slot is written as the i-th '@'
        bad = next(i for i, ((_, _, pool), target) in enumerate(zip(spine_slots, targets))
                   if target > pool)
        at = [m.start() for m in re.finditer("@", text)][bad]
        raise ParseError(f"invalid dag: {problem}", at)
    return RelaxedDag(spine, pointers)
