import random
import re
import sys

import pytest
from hypothesis import given, strategies as st

from compacta.compaction import uid_compact
from compacta.trees import (
    _TOKEN,
    LEAF,
    BinaryTree,
    ParseError,
    RelaxedDag,
    SpineTree,
    dag_from_text,
    dag_to_text,
    parse_tree,
    print_tree,
    slots,
    _tokens,
    spine_size,
    validate,
)
from references import postorder_nodes, right_height


def test_parse_smallest():
    assert parse_tree(".") == LEAF


def test_parse_size_one():
    t = parse_tree("(. .)")
    assert t == BinaryTree(LEAF, LEAF)
    assert t.size == 1


def test_parse_size_three():
    t = parse_tree("((. .) (. .))")
    assert t.size == 3
    assert t.left == t.right == BinaryTree(LEAF, LEAF)


def test_parse_labeled():
    t = parse_tree("(+ x (* y y))")
    assert t.label == "+"
    assert t.left == BinaryTree(label="x")
    assert t.right.label == "*"


@pytest.mark.parametrize("bad", ["(", "(. )", "(. . .)", ") .", "(. .) junk", ""])
def test_parse_errors_carry_offset(bad):
    with pytest.raises(ParseError) as err:
        parse_tree(bad)
    assert err.value.offset >= 0


def test_tokens_agree_with_the_token_pattern_on_every_code_point():
    # every code point between atom characters, and as a whole token
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    for text in ("a".join(every), " ".join(every)):
        assert _tokens(text) == _TOKEN.findall(text)
    blanks = re.findall(r"\s", every)
    assert blanks == [c for c in every if c.isspace()] and len(blanks) == 29


def test_tokens_agree_with_the_token_pattern_on_random_texts():
    rng = random.Random(5)
    alphabet = "()..@@0x" + "".join(chr(c) for c in (0x20, 0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C,
                                                  0x85, 0xA0, 0x2028, 0x3000, 0x200B,
                                                  0xFEFF, 0x0660))
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        assert _tokens(text) == _TOKEN.findall(text), text


def test_full_binary_invariant():
    with pytest.raises(ValueError):
        BinaryTree(LEAF, None)


unlabeled_trees = st.recursive(
    st.just(LEAF),
    lambda child: st.builds(BinaryTree, child, child),
    max_leaves=40,
)


@given(unlabeled_trees)
def test_print_parse_round_trip(t):
    assert parse_tree(print_tree(t)) == t


@pytest.mark.parametrize("tree, label", [
    (BinaryTree(LEAF, BinaryTree(label=".")), "."),
    (BinaryTree(label="a b"), "a b"),
    (BinaryTree(LEAF, LEAF, "(x"), "(x"),
    (BinaryTree(LEAF, LEAF, "@1"), "@1"),
    (BinaryTree(label=""), ""),
    # `(x .)` would read back as a node labeled x
    (BinaryTree(BinaryTree(label="x"), LEAF), "x"),
    (BinaryTree(LEAF, BinaryTree(BinaryTree(label="y"), BinaryTree(label="z"))), "y"),
])
def test_print_rejects_labels_that_do_not_read_back(tree, label):
    for write in (print_tree, uid_compact):
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            write(tree)


@pytest.mark.parametrize("text", ["x", "@1", "(+ x @1)", "(a.b . .)"])
def test_printed_labels_read_back(text):
    tree = parse_tree(text)
    assert print_tree(tree) == text
    assert parse_tree(print_tree(tree)) == tree


# --- spines, post-order, right height -------------------------------------


def left_chain(n):
    node = None
    for _ in range(n):
        node = SpineTree(node, None)
    return node


def right_chain(n):
    node = None
    for _ in range(n):
        node = SpineTree(None, node)
    return node


def test_right_height_single_node():
    assert right_height(SpineTree()) == 0


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_right_height_left_chain(n):
    assert right_height(left_chain(n)) == 0


def test_right_height_two():
    # one level-2 node below two right edges, left chains elsewhere
    spine = SpineTree(
        left_chain(2),
        SpineTree(SpineTree(), SpineTree(left_chain(1), None)),
    )
    assert right_height(spine) == 2
    assert right_height(right_chain(3)) == 2


def post_order(dag):
    """Indices of the spine nodes in completion order, i.e. 1..n."""
    return list(range(1, dag.n + 1))


def test_post_order_size_one():
    dag = dag_from_text("(@0 @0)")
    assert post_order(dag) == [1]


def test_post_order_left_chain_depths_decrease():
    spine = left_chain(3)
    nodes = postorder_nodes(spine)
    assert [spine_size(n) for n in nodes] == [1, 2, 3]  # deepest completes first
    dag = RelaxedDag(spine, {(2, "right"): 0, (3, "right"): 0})
    assert post_order(dag) == [1, 2, 3]


def test_post_order_children_before_parent():
    spine = SpineTree(SpineTree(), SpineTree())
    nodes = postorder_nodes(spine)
    assert nodes[2] is spine


def test_slot_pools_left_chain():
    # slots of the size-3 left chain see pools 0, 0, 1, 2
    assert [pool for _, _, pool in slots(left_chain(3))] == [0, 0, 1, 2]


# --- validation ------------------------------------------------------------


def test_validate_generator_output_ok():
    from compacta.exhaustive import generate

    for dag in generate(4, "relaxed"):
        assert validate(dag) is None


def test_validate_self_pointer_rejected():
    spine = left_chain(2)
    dag = RelaxedDag(spine, {(2, "right"): 2})  # node 2 pointing at itself
    assert validate(dag) is not None


def test_validate_forward_pointer_rejected():
    spine = SpineTree(SpineTree(), SpineTree())
    # node 2 (the right child) completes after node 1; 1 may not see 2
    dag = RelaxedDag(spine, {(1, "right"): 2, (2, "left"): 0, (2, "right"): 0})
    assert validate(dag) is not None


def test_validate_missing_pointer():
    dag = RelaxedDag(left_chain(2), {})
    assert "missing" in validate(dag)


# --- dag text form ----------------------------------------------------------


def test_dag_text_size_one():
    dag = dag_from_text("(@0 @0)")
    assert dag.n == 1
    assert dag_to_text(dag) == "(@0 @0)"


def test_dag_text_size_zero():
    dag = dag_from_text("@0")
    assert dag.n == 0 and dag.spine is None
    assert dag_to_text(dag) == "@0"


def test_dag_text_rejects_invalid():
    # a target past its pool is named at its own token
    for text, slot, target, pool, offset in [
        ("((@0 @2) @0)", (1, "right"), 2, 0, 5),
        ("(@0 (@0 @2))", (1, "right"), 2, 0, 8),
        ("((@0 @0) (@1 @3))", (2, "right"), 3, 1, 13),
    ]:
        with pytest.raises(ParseError) as err:
            dag_from_text(text)
        assert str(err.value) == (f"invalid dag: pointer at slot {slot} targets {target}, "
                                  f"legal range is 0..{pool} (at offset {offset})")
        assert text[err.value.offset:].startswith(f"@{target}")
    with pytest.raises(ParseError):
        dag_from_text("(@1 @0)")


@pytest.mark.parametrize("text, message, offset", [
    (" @0\n", None, None),
    ("@0", None, None),
    ("@5", "leaf slot must read @0, got @5", 0),
    ("@0 @0", "trailing input", 3),
    ("@x", "bad pointer token '@x'", 0),
    ("@", "bad pointer token '@'", 0),
    ("", "unexpected end of input", 0),
    ("(@1 @0)", "leaf slot must read @0, got @1", 1),
])
def test_dag_text_short_inputs(text, message, offset):
    if message is None:
        dag = dag_from_text(text)
        assert dag.spine is None and dag.pointers == {}
        return
    with pytest.raises(ParseError) as err:
        dag_from_text(text)
    assert str(err.value) == f"{message} (at offset {offset})"
    assert err.value.offset == offset


@pytest.mark.parametrize("token", ["@+0", "@-0", "@0_0", "@00", "@01", "@\u0660"])
def test_dag_text_pointer_tokens_are_ascii_digits_without_leading_zero(token):
    # int() reads each of these, but none would print back as written
    for text, offset in [(token, 0), (f"({token} @0)", 1), (f"(@0 {token})", 4),
                         (f"((@0 @0) {token})", 9)]:
        with pytest.raises(ParseError) as err:
            dag_from_text(text)
        assert str(err.value) == f"bad pointer token {token!r} (at offset {offset})"


spines = st.recursive(
    st.just(None),
    lambda child: st.builds(SpineTree, child, child),
    max_leaves=16,
)


@given(spines, st.data())
def test_dag_text_round_trip(spine, data):
    if spine is None:
        return
    pointers = {}
    for owner, side, pool in slots(spine)[1:]:
        pointers[(owner, side)] = data.draw(
            st.integers(0, pool), label=f"target{(owner, side)}"
        )
    dag = RelaxedDag(spine, pointers)
    assert validate(dag) is None
    again = dag_from_text(dag_to_text(dag))
    assert dag_to_text(again) == dag_to_text(dag)
    assert again.n == dag.n


# --- inputs far deeper than the recursion limit -----------------------------


def spine_text(depth, leg, left):
    """A comb (leg ".") or caterpillar (leg "(. .)") of the given depth."""
    opens = ("(" if left else f"({leg} ") * (depth - 1)
    closes = (f" {leg})" if left else ")") * (depth - 1)
    return opens + "(. .)" + closes


@pytest.mark.parametrize("leg", [".", "(. .)"], ids=["comb", "caterpillar"])
@pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
def test_deep_text_round_trips(leg, left):
    from compacta.compaction import uid_compact

    depth = 10**5
    assert depth > 50 * sys.getrecursionlimit()
    text = spine_text(depth, leg, left)
    tree = parse_tree(text)
    assert print_tree(tree) == text
    dag_text, table = uid_compact(tree)
    dag = dag_from_text(dag_text)
    assert dag.n == len(table.rows) == depth
    assert dag_to_text(dag) == dag_text


def test_deep_trees_compare_hash_and_print():
    # two separately parsed combs share no node, so == walks both in full
    depth = 10**5
    text = "(" * depth + "." + " .)" * depth
    a, b = parse_tree(text), parse_tree(text)
    assert a is not b and a.left is not b.left
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == f"parse_tree({text!r})"
    relabeled = parse_tree("(" * depth + "." + " .)" * (depth - 1) + " x)")
    reshaped = parse_tree("(" * depth + "." + " (. .))" + " .)" * (depth - 1))
    assert a != relabeled and a != reshaped
    assert hash(a) != hash(relabeled)  # cached hashes, compared first


def test_trees_differing_in_one_label_or_shape_are_unequal():
    t = parse_tree("(+ x (* y y))")
    assert t == parse_tree("(+ x (* y y))")
    assert hash(t) == hash(parse_tree("(+ x (* y y))"))
    for other in ["(+ x (* y z))", "(- x (* y y))", "(+ x (* (. .) y))", "(+ x (* y (. .)))",
                  "(+ (* y y) x)"]:
        assert t != parse_tree(other), other
    assert LEAF != BinaryTree(label="x") and BinaryTree(LEAF, LEAF) != LEAF
    assert t != print_tree(t)


def test_shared_subtrees_are_walked_once():
    # 200 levels of t -> (t t): 2^200 leaves as a tree, 201 distinct nodes
    a = b = LEAF
    for _ in range(200):
        a, b = BinaryTree(a, a), BinaryTree(b, b)
    assert a == b and hash(a) == hash(b)
    assert a != BinaryTree(a.left, BinaryTree(b.left.left, LEAF))


def test_binary_tree_is_immutable():
    t = parse_tree("(a x .)")
    with pytest.raises(AttributeError):
        t.left = LEAF
    with pytest.raises(AttributeError):
        del t.label
    assert t.label == "a" and t.left == BinaryTree(label="x")
