import random

import pytest

from compacta.compaction import (
    first_duplicate,
    is_cherry,
    is_compacted,
    uid_compact,
    unfold,
)
from compacta.exhaustive import GenFilter, gen_compacted, gen_relaxed
from compacta.trees import dag_to_text, parse_tree, print_tree, validate

EXPR = "(* (- (* x x) (* y y)) (+ (* x x) (* y y)))"


def test_uid_table_for_shared_squares_expression():
    dag, table = uid_compact(parse_tree(EXPR))
    assert table.rows == (
        (("x", 0, 0), 1),
        (("y", 0, 0), 2),
        (("*", 1, 1), 3),
        (("*", 2, 2), 4),
        (("-", 3, 4), 5),
        (("+", 3, 4), 6),
        (("*", 5, 6), 7),
    )
    assert table.counter == 7
    assert table.lookup(("*", 1, 1)) == 3
    assert validate(dag) is None
    assert dag.n == 7


def test_single_leaf_compacts_to_nothing():
    dag, table = uid_compact(parse_tree("."))
    assert dag.n == 0 and dag.spine is None
    assert table.rows == () and table.counter == 0


def test_complete_tree_compacts_to_height_levels():
    level = "(. .)"
    for height in range(2, 6):
        level = f"({level} {level})"
        dag, table = uid_compact(parse_tree(level))
        assert dag.n == height == table.counter


def test_size_matches_distinct_subtrees():
    t = parse_tree("(((. .) (. .)) (. .))")  # distinct: (. .), ((..)(..)), root
    dag, table = uid_compact(t)
    assert dag.n == 3 == table.counter


def test_unfold_at_leaf():
    dag, _ = uid_compact(parse_tree("((. .) (. .))"))
    assert unfold(dag, 0) == parse_tree(".")


def test_unfold_size_one():
    dag, _ = uid_compact(parse_tree("(. .)"))
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
        dag, _ = uid_compact(t)
        assert validate(dag) is None
        assert unfold(dag) == t


def test_compaction_idempotent_through_unfold():
    rng = random.Random(7)
    for _ in range(50):
        t = _random_tree(rng, rng.randint(0, 10))
        dag, table = uid_compact(t)
        dag2, table2 = uid_compact(unfold(dag))
        assert table2.rows == table.rows
        assert dag_to_text(dag2) == dag_to_text(dag)


def test_compaction_never_grows():
    rng = random.Random(11)
    for _ in range(100):
        t = _random_tree(rng, rng.randint(0, 10))
        dag, _ = uid_compact(t)
        assert dag.n <= t.size


def test_uid_compact_output_is_compacted():
    rng = random.Random(3)
    for _ in range(200):
        dag, _ = uid_compact(_random_tree(rng, rng.randint(0, 10)))
        assert is_compacted(dag)


def test_smallest_non_compacted_is_unique_at_size_three():
    failing = [d for d in gen_relaxed(GenFilter(3)) if not is_compacted(d)]
    assert len(failing) == 1
    dup = first_duplicate(failing[0])
    assert dup is not None and is_cherry(failing[0], dup)
    # sizes 0..2 have no failing dag at all
    for n in range(3):
        assert all(is_compacted(d) for d in gen_relaxed(GenFilter(n)))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_duplicates_always_at_cherries(n):
    for dag in gen_relaxed(GenFilter(n)):
        dup = first_duplicate(dag)
        if dup is not None:
            assert is_cherry(dag, dup)


def test_compacted_counts_small():
    assert sum(1 for _ in gen_compacted(GenFilter(2))) == 3
    assert sum(1 for _ in gen_compacted(GenFilter(4))) == 111
    assert sum(1 for _ in gen_compacted(GenFilter(5))) == 1119


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
