import inspect
import math

import pytest

from compacta.dfinite import sequence_values
from compacta.exhaustive import (
    BudgetExceededError,
    brute_count,
    count_relaxed_spine_product,
    gen_spines,
    generate,
    spine_assignment_count,
    spine_count,
)
from compacta.recurrences import build_table
from compacta.trees import (
    RelaxedDag,
    SpineTree,
    dag_to_text,
    slots,
    validate,
)
from references import right_height


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def spine_shape(spine):
    """Canonical text of the spine: all pointers zeroed out."""
    zeros = {(owner, side): 0 for owner, side, _ in slots(spine)[1:]}
    return dag_to_text(RelaxedDag(spine, zeros))


@pytest.mark.parametrize("n", range(8))
def test_spine_counts_are_catalan(n):
    spines = list(gen_spines(n))
    assert len(spines) == catalan(n)


def test_spines_distinct():
    texts = {spine_shape(s) for s in gen_spines(6)}
    assert len(texts) == catalan(6)


def _recursive_spines(n, bound=None):
    """gen_spines as plain recursion, with no subtree built once and shared."""
    if n == 0:
        yield None
        return
    right_bound = None if bound is None else bound - 1
    for left_size in range(n):
        for left in _recursive_spines(left_size, bound):
            if right_bound is not None and right_bound < 0:
                if n - 1 - left_size == 0:
                    yield SpineTree(left, None)
                continue
            for right in _recursive_spines(n - 1 - left_size, right_bound):
                yield SpineTree(left, right)


@pytest.mark.parametrize("bound", [None, 0, 1, 2, 3])
def test_spines_come_in_the_order_of_the_plain_recursion(bound):
    for n in range(8):
        shapes = [spine_shape(s) for s in gen_spines(n, bound)]
        assert shapes == [spine_shape(s) for s in _recursive_spines(n, bound)]
        assert spine_count(n, bound) == len(shapes)


def test_spine_product_multiplies_the_slot_pools():
    for bound in (None, 1):
        for n in range(8):
            for spine in gen_spines(n, bound):
                assert spine_assignment_count(spine) == \
                    math.prod(pool + 1 for _, _, pool in slots(spine))


def test_bounded_spines():
    # right height <= 0 leaves only the left chain
    for n in range(1, 7):
        assert sum(1 for _ in gen_spines(n, 0)) == 1
    assert all(right_height(s) <= 1 for s in gen_spines(5, 1))
    assert sum(1 for _ in gen_spines(3, 1)) == 4  # all but the right chain


def test_relaxed_generation_counts():
    assert sum(1 for _ in generate(3, "relaxed")) == 16
    assert sum(1 for _ in generate(4, "relaxed")) == 127
    assert sum(1 for _ in generate(4, "relaxed", 2)) == 126


def test_relaxed_generation_no_duplicates_and_valid():
    seen = set()
    for dag in generate(4, "relaxed"):
        assert validate(dag) is None
        seen.add(dag_to_text(dag))
    assert len(seen) == 127


def test_spine_product_matches_table():
    table = build_table("relaxed", 9)
    for n in range(10):
        assert count_relaxed_spine_product(n) == table.count(n)


def test_spine_product_examples():
    assert count_relaxed_spine_product(5) == 1363
    assert count_relaxed_spine_product(9) == 142190703
    assert count_relaxed_spine_product(6, 0) == 720  # left chains alone: 6!


def test_bounded_counts_monotone_in_k():
    for n in range(7):
        unbounded = count_relaxed_spine_product(n)
        prev = 0
        for k in range(n + 2):
            now = count_relaxed_spine_product(n, k)
            assert prev <= now <= unbounded
            prev = now
        assert prev == unbounded  # k >= n-1 imposes no restriction


def test_budget_guard():
    # checked when called, not at the first next(), so a caller can fail
    # before it opens an output
    for kind in ("relaxed", "compacted"):
        with pytest.raises(BudgetExceededError) as err:
            generate(8, kind, budget=1000)
        assert err.value.estimate == 6173791


def test_spine_product_budget_counts_the_spines():
    # the budget bounds the spines walked, not the DAGs counted
    assert count_relaxed_spine_product(9, budget=catalan(9)) == 142190703
    with pytest.raises(BudgetExceededError) as err:
        count_relaxed_spine_product(9, budget=catalan(9) - 1)
    assert err.value.estimate == catalan(9)


def test_brute_count_kinds():
    assert brute_count(4, "relaxed") == 127
    assert brute_count(4, "compacted") == 111
    assert brute_count(3, "relaxed", max_right_height=1) == 15


def test_brute_force_equals_the_exact_counts_at_size_seven():
    # the counts the oracles benchmark workload computes by brute force
    assert brute_count(7, "compacted") == build_table("compacted", 7).count(7) == 230943
    for k in (2, 3):
        assert brute_count(7, "compacted", max_right_height=k) == \
            list(sequence_values(k, "compacted", 7))[7]


def test_generate_checks_its_arguments():
    # checked when called, before any budget check or object
    cases = [((-1, "relaxed"), "n must be >= 0"),
             ((2, "weird"), "kind must be 'relaxed' or 'compacted', got 'weird'"),
             ((2, "compacted", -2), "right-height bound must be >= 0"),
             ((-1, "compacted", -2), "n must be >= 0")]
    for args, message in cases:
        with pytest.raises(ValueError) as err:
            generate(*args, budget=0)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            brute_count(*args, budget=0)
        assert str(err.value) == message
    # the spine product shares the check
    for args, message in [((-1,), "n must be >= 0"),
                          ((3, -2), "right-height bound must be >= 0")]:
        with pytest.raises(ValueError) as err:
            count_relaxed_spine_product(*args, budget=0)
        assert str(err.value) == message


def test_spine_walks_refuse_a_negative_bound():
    for n in (0, 3):
        for bound in (-1, -2):
            for walk in (gen_spines, spine_count):
                with pytest.raises(ValueError) as err:
                    walk(n, bound)
                assert str(err.value) == "right-height bound must be >= 0"


def test_generate_is_one_lazy_generator():
    # perfbench's tracer times the items of a generator only
    assert inspect.isgenerator(generate(3, "relaxed"))
    assert inspect.isgenerator(generate(3, "compacted", 1))
