import random

import pytest

from compacta.compaction import (
    first_duplicate,
    is_compacted,
    uid_compact,
    unfold,
)
from compacta.exhaustive import gen_spines, generate
from compacta.trees import (
    ParseError,
    RelaxedDag,
    _shape,
    dag_adjacency,
    dag_from_text,
    dag_to_text,
    parse_tree,
    print_tree,
    slots,
    spine_size,
    validate,
)
from references import object_compact, postorder_nodes


def compact_dag(tree):
    """uid_compact with its DAG text read back as a ``RelaxedDag``."""
    dag_text, table = uid_compact(tree)
    return dag_from_text(dag_text), table


def is_cherry(dag, index):
    """True if both children of the spine node at ``index`` are pointers
    (or the leaf), i.e. neither child is a spine node."""
    node = postorder_nodes(dag.spine)[index - 1]
    return node.left is None and node.right is None


def lookup(table, triple):
    """The uid of a table row's triple, or None."""
    for row_triple, uid in table.rows:
        if row_triple == triple:
            return uid
    return None


EXPR = "(* (- (* x x) (* y y)) (+ (* x x) (* y y)))"


def test_uid_table_for_shared_squares_expression():
    dag, table = compact_dag(parse_tree(EXPR))
    assert table.rows == (
        (("x", 0, 0), 1),
        (("y", 0, 0), 2),
        (("*", 1, 1), 3),
        (("*", 2, 2), 4),
        (("-", 3, 4), 5),
        (("+", 3, 4), 6),
        (("*", 5, 6), 7),
    )
    assert len(table.rows) == 7
    assert lookup(table, ("*", 1, 1)) == 3
    assert validate(dag) is None
    assert dag.n == 7


def test_single_leaf_compacts_to_nothing():
    dag, table = compact_dag(parse_tree("."))
    assert dag.n == 0 and dag.spine is None
    assert table.rows == ()


def test_complete_tree_compacts_to_height_levels():
    level = "(. .)"
    for height in range(2, 6):
        level = f"({level} {level})"
        dag, table = compact_dag(parse_tree(level))
        assert dag.n == height == len(table.rows)


def test_size_matches_distinct_subtrees():
    t = parse_tree("(((. .) (. .)) (. .))")  # distinct: (. .), ((..)(..)), root
    dag, table = compact_dag(t)
    assert dag.n == 3 == len(table.rows)


def test_unfold_at_leaf():
    dag, _ = compact_dag(parse_tree("((. .) (. .))"))
    assert unfold(dag, 0) == parse_tree(".")


def test_unfold_size_one():
    dag, _ = compact_dag(parse_tree("(. .)"))
    assert dag_to_text(dag) == "(@0 @0)"
    assert print_tree(unfold(dag)) == "(. .)"


def _random_tree(rng, size):
    if size == 0:
        return parse_tree(".")
    split = rng.randrange(size)
    return parse_tree(
        f"({print_tree(_random_tree(rng, split))} "
        f"{print_tree(_random_tree(rng, size - 1 - split))})"
    )


def test_unfold_round_trip_random():
    rng = random.Random(20240817)
    for _ in range(300):
        t = _random_tree(rng, rng.randint(0, 12))
        dag, _ = compact_dag(t)
        assert validate(dag) is None
        assert unfold(dag) == t


def test_compaction_idempotent_through_unfold():
    rng = random.Random(7)
    for _ in range(50):
        t = _random_tree(rng, rng.randint(0, 10))
        dag, table = compact_dag(t)
        dag2, table2 = compact_dag(unfold(dag))
        assert table2.rows == table.rows
        assert dag_to_text(dag2) == dag_to_text(dag)


def test_compaction_never_grows():
    rng = random.Random(11)
    for _ in range(100):
        t = _random_tree(rng, rng.randint(0, 10))
        dag, _ = compact_dag(t)
        assert dag.n <= t.size


def test_uid_compact_output_is_compacted():
    rng = random.Random(3)
    for _ in range(200):
        dag, _ = compact_dag(_random_tree(rng, rng.randint(0, 10)))
        assert is_compacted(dag)


def test_smallest_non_compacted_is_unique_at_size_three():
    failing = [d for d in generate(3, "relaxed") if not is_compacted(d)]
    assert len(failing) == 1
    dup = first_duplicate(failing[0])
    assert dup is not None and is_cherry(failing[0], dup)
    # sizes 0..2 have no failing dag at all
    for n in range(3):
        assert all(is_compacted(d) for d in generate(n, "relaxed"))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_duplicates_always_at_cherries(n):
    for dag in generate(n, "relaxed"):
        dup = first_duplicate(dag)
        if dup is not None:
            assert is_cherry(dag, dup)


def test_compacted_counts_small():
    assert sum(1 for _ in generate(2, "compacted")) == 3
    assert sum(1 for _ in generate(4, "compacted")) == 111
    assert sum(1 for _ in generate(5, "compacted")) == 1119


def _labeled_tree_text(rng, size):
    """Random tree with internal nodes labeled over {a, b} and plain leaves."""
    if size == 0:
        return "."
    split = rng.randrange(size)
    return (f"({rng.choice('ab')} {_labeled_tree_text(rng, split)} "
            f"{_labeled_tree_text(rng, size - 1 - split)})")


def _subtrees_post_order(t):
    """(printed text, height) of every non-empty subtree, in post-order."""
    out = []

    def visit(node):
        if node.is_leaf:
            return -1
        height = max(visit(node.left), visit(node.right)) + 1
        out.append((print_tree(node), height))
        return height

    visit(t)
    return out


def test_table_rows_are_the_distinct_subtrees_by_height_then_first_occurrence():
    rng = random.Random(2)
    for _ in range(200):
        t = parse_tree(_labeled_tree_text(rng, rng.randint(0, 30)))
        first = {}  # printed subtree -> (height, first post-order occurrence)
        for position, (text, height) in enumerate(_subtrees_post_order(t)):
            first.setdefault(text, (height, position))
        expected = sorted(first, key=first.get)
        _, table = uid_compact(t)
        printed = {0: "."}
        for (label, ul, ur), uid in table.rows:
            printed[uid] = f"({label} {printed[ul]} {printed[ur]})"
        assert [uid for _, uid in table.rows] == list(range(1, len(expected) + 1))
        assert [printed[uid] for _, uid in table.rows] == expected


def _reference_adjacency(dag):
    """dag_adjacency rebuilt from postorder_nodes and slots alone.

    Generated spines share subtrees, so children are found by position: in
    post-order the right child of node i is i-1, and the left child comes
    just before the right subtree.
    """
    targets = {(owner, side): dag.pointers.get((owner, side), 0)
               for owner, side, _ in slots(dag.spine)}
    adjacency = []
    for i, node in enumerate(postorder_nodes(dag.spine), start=1):
        right = targets[(i, "right")] if node.right is None else i - 1
        left = (targets[(i, "left")] if node.left is None
                else i - 1 - spine_size(node.right))
        adjacency.append((left, right))
    return adjacency


def _reference_first_duplicate(dag):
    seen = set()
    for i, refs in enumerate(_reference_adjacency(dag), start=1):
        if refs in seen:
            return i
        seen.add(refs)
    return None


def test_cached_spine_shape_never_answers_for_another_spine():
    rng = random.Random(11)
    spines = [s for n in range(7) for s in gen_spines(n)]
    dags = []
    for _ in range(1000):
        spine = rng.choice(spines)
        pointers = {(owner, side): rng.randint(0, pool)
                    for owner, side, pool in slots(spine)[1:]}
        dag = RelaxedDag(spine, pointers)
        dags.append(dag)
        # a structurally equal dag over a distinct spine object
        dags.append(dag_from_text(dag_to_text(dag)))
        if pointers and rng.random() < 0.3:  # a missing key reads as target 0
            dropped = dict(pointers)
            del dropped[rng.choice(sorted(dropped))]
            dags.append(RelaxedDag(spine, dropped))
    rng.shuffle(dags)
    texts = [dag_to_text(dag) for dag in dags]
    duplicates = 0
    for dag in dags:
        expected = _reference_first_duplicate(dag)
        duplicates += expected is not None
        assert dag_adjacency(dag) == _reference_adjacency(dag)
        assert first_duplicate(dag) == expected
        assert is_compacted(dag) == (expected is None)
    assert 0 < duplicates < len(dags)
    # each spine object is freed before the next is built, so a cache keyed
    # by a bare id() would see the same id for different spines
    for text in texts:
        dag = dag_from_text(text)
        expected = _reference_first_duplicate(dag)
        assert (first_duplicate(dag), dag_adjacency(dag)) == \
            (expected, _reference_adjacency(dag))
        del dag
    assert _shape.cache_info().maxsize == 1


# --- hash-consing the text directly --------------------------------------------


def _regime_tree_text(rng, size, regime):
    """Random tree text: unlabeled ("plain"), every node labeled a or b
    ("ab"), every node labeled uniquely ("unique"), or each internal node
    labeled a or b and each leaf '.' or x ("mixed")."""
    serial = 0

    def build(size):
        nonlocal serial
        serial += 1
        label = {"plain": "", "ab": rng.choice("ab"), "unique": f"v{serial}",
                 "mixed": rng.choice(("a", "b") if size else (".", "x"))}[regime]
        if size == 0:
            return label or "."
        split = rng.randrange(size)
        head = f"({label} " if label else "("
        return f"{head}{build(split)} {build(size - 1 - split)})"

    return build(size)


def _spine_text(depth, leg, left):
    opens = ("(" if left else f"({leg} ") * (depth - 1)
    closes = (f" {leg})" if left else ")") * (depth - 1)
    return opens + "(. .)" + closes


def _same_compaction(text):
    """The text, its spaced-out twin and its parsed tree compact to the DAG
    text and table of the object-building reference."""
    tree_dag, tree_table = compact_dag(parse_tree(text))
    reference_text, reference_table = object_compact(text)
    spaced = text.replace("(", "( ").replace(")", " )\n")
    for dag_text, table in (uid_compact(text), uid_compact(spaced)):
        assert (dag_text, table.rows) == (reference_text, reference_table.rows)
        dag = dag_from_text(dag_text)
        assert table.rows == tree_table.rows
        assert dag.pointers == tree_dag.pointers
        assert dag_to_text(dag) == dag_to_text(tree_dag)
    return dag, table


@pytest.mark.parametrize("text,dag_text,pointers,rows", [
    (".", "@0", {}, ()),
    ("x", "(@0 @0)", {(1, "right"): 0}, ((("x", 0, 0), 1),)),
    ("(. x)", "(@0 (@0 @0))", {(1, "left"): 0, (1, "right"): 0},
     ((("x", 0, 0), 1), ((None, 0, 1), 2))),
    ("(+ x .)", "((@0 @0) @0)", {(1, "right"): 0, (2, "right"): 0},
     ((("x", 0, 0), 1), (("+", 1, 0), 2))),
    ("(+ x x)", "((@0 @0) @1)", {(1, "right"): 0, (2, "right"): 1},
     ((("x", 0, 0), 1), (("+", 1, 1), 2))),
    ("(x . .)", "(@0 @0)", {(1, "right"): 0}, ((("x", 0, 0), 1),)),
    ("(f (g x y) x)", "(((@0 @0) (@0 @0)) @1)",
     {(1, "right"): 0, (2, "left"): 0, (2, "right"): 0, (4, "right"): 1},
     ((("x", 0, 0), 1), (("y", 0, 0), 2), (("g", 1, 2), 3), (("f", 3, 1), 4))),
])
def test_text_compacts_like_its_tree_on_edge_cases(text, dag_text, pointers, rows):
    dag, table = _same_compaction(text)
    assert (dag_to_text(dag), dag.pointers, table.rows) == (dag_text, pointers, rows)
    assert validate(dag) is None


@pytest.mark.parametrize("regime", ["plain", "ab", "unique", "mixed"])
def test_text_compacts_like_its_tree_on_random_trees(regime):
    rng = random.Random(f"text:{regime}")
    for _ in range(150):
        _same_compaction(_regime_tree_text(rng, rng.randint(0, 40), regime))
    _same_compaction(_regime_tree_text(rng, 2000, regime))


@pytest.mark.parametrize("leg", [".", "(. .)"], ids=["comb", "caterpillar"])
@pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
def test_text_compacts_like_its_tree_on_spines(leg, left):
    for depth in (1, 2, 3, 17, 300):
        dag, table = _same_compaction(_spine_text(depth, leg, left))
        assert dag.n == len(table.rows) == depth


@pytest.mark.parametrize("text", [
    "", "(", ")", "(x .)", "(. .", "(. . .)", ". .", "(. .))", "(+ x", "((. .) (. .)",
    "(. (x))", "(@1 . .)",
])
def test_malformed_text_raises_the_parse_error_of_parse_tree(text):
    with pytest.raises(ParseError) as expected:
        parse_tree(text)
    with pytest.raises(ParseError) as got:
        uid_compact(text)
    assert str(got.value) == str(expected.value)
    assert got.value.offset == expected.value.offset
