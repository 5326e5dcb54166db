import math

import pytest

from compacta.asympt import singularity_data
from compacta.dfinite import closed_form_oracle, seed, sequence_values
from compacta.exhaustive import (
    brute_count,
    count_relaxed_spine_product,
    gen_spines,
    generate,
    spine_count,
)
from compacta.operators import MAX_K, build_operator
from compacta.recurrences import build_table, word_counts
from references import dense_level_counts, letter_word_counts, level_matrix

COMPACTED = [1, 1, 3, 15, 111, 1119, 14487, 230943, 4395855, 97608831]
RELAXED = [1, 1, 3, 16, 127, 1363, 18628, 311250, 6173791, 142190703]


def test_base_rows():
    ct = build_table("compacted", 6)
    rt = build_table("relaxed", 6)
    assert ct.value(1, 0) == 1
    assert ct.value(0, 1) == 2
    assert ct.value(2, 0) == 3
    assert [ct.value(1, p) for p in range(5)] == [p * p + p + 1 for p in range(5)]
    assert [rt.value(0, p) for p in range(7)] == [p + 1 for p in range(7)]
    assert [rt.value(1, p) for p in range(5)] == [(p + 1) ** 2 for p in range(5)]


def test_counting_sequences():
    assert build_table("compacted", 9).counts() == COMPACTED
    assert build_table("relaxed", 9).counts() == RELAXED
    assert word_counts("compacted", 6)[6] == 14487
    assert word_counts("compacted", 9)[9] == 97608831
    assert word_counts("relaxed", 6)[6] == 18628
    assert word_counts("relaxed", 8)[8] == 6173791
    assert word_counts("compacted", 0)[0] == word_counts("relaxed", 0)[0] == 1


def test_relaxed_dominates_compacted():
    ct = build_table("compacted", 12)
    rt = build_table("relaxed", 12)
    for n in range(13):
        for p in range(13 - n):
            assert rt.value(n, p) >= ct.value(n, p)
    # equality fails first at n = 1 and only for p >= 1
    assert rt.value(1, 0) == ct.value(1, 0)
    for p in range(1, 10):
        assert rt.value(1, p) > ct.value(1, p)


def test_size_one_relaxed_row_against_brute_force():
    # the (p+1)^2 row is a derivation; the n <= 6 counts exercise it for
    # pools up to p = 4, so agreement here confirms it
    rt = build_table("relaxed", 6)
    for n in range(7):
        assert rt.count(n) == RELAXED[n]
    for n in range(6):
        assert brute_count(n, "relaxed") == RELAXED[n]


def test_factorial_catalan_bounds():
    ct = build_table("compacted", 60)
    rt = build_table("relaxed", 60)
    for n in range(61):
        cat = math.comb(2 * n, n) // (n + 1)
        assert math.factorial(n) <= ct.count(n) <= rt.count(n)
        assert rt.count(n) <= cat * math.factorial(n)


def test_out_of_range_errors():
    table = build_table("compacted", 4)
    with pytest.raises(ValueError):
        table.count(5)
    with pytest.raises(ValueError):
        table.value(2, 3)
    with pytest.raises(ValueError):
        build_table("gamma", 3)


def test_entries_strictly_positive():
    for kind in ("compacted", "relaxed"):
        t = build_table(kind, 15)
        assert all(v > 0 for row in t.rows for v in row)


@pytest.mark.parametrize("kind", ["compacted", "relaxed"])
def test_word_counts_equal_the_table(kind):
    assert word_counts(kind, 200) == build_table(kind, 200).counts()


@pytest.mark.parametrize("family", ["compacted", "relaxed"])
def test_bounded_word_counts_equal_the_streams(family):
    for k in range(7):
        assert word_counts(family, 500, k) == list(sequence_values(k, family, 500))


@pytest.mark.parametrize("bound", [None, 0, 1, 2, 3, 4])
def test_word_counts_against_brute_force(bound):
    for kind in ("compacted", "relaxed"):
        assert word_counts(kind, 6, bound) == [brute_count(n, kind, bound) for n in range(7)]
    # the spine product is the oracle of the budget guard's estimate
    assert word_counts("relaxed", 10, bound) == [
        count_relaxed_spine_product(n, bound) for n in range(11)]


def test_word_counts_edges():
    assert word_counts("compacted", 0) == word_counts("relaxed", 0) == [1]
    for bad in [("gamma", 3), ("compacted", -1)]:
        with pytest.raises(ValueError) as table_error:
            build_table(*bad)
        with pytest.raises(ValueError) as word_error:
            word_counts(*bad)
        assert str(word_error.value) == str(table_error.value)


BOUNDS = [None, *range(13)]


@pytest.mark.parametrize("kind", ["compacted", "relaxed"])
def test_level_recurrence_equals_the_letter_dp(kind):
    for bound in BOUNDS:
        want = letter_word_counts(kind, 200, bound)
        assert word_counts(kind, 200, bound) == want
        # heights are pruned against nmax, so every smaller nmax is its own case
        for n in range(61):
            assert word_counts(kind, n, bound) == want[:n + 1], (n, bound)
        assert word_counts(kind, 123, bound) == want[:124]


def test_level_matrix_is_lower_hessenberg_and_toeplitz():
    assert level_matrix("compacted", 3, 4) == [
        [4, 1, 0, 0],
        [13, 4, 1, 0],
        [52, 13, 4, 1],
        [208, 52, 13, 4],
    ]
    assert level_matrix("relaxed", 3, 3) == [[4, 1, 0], [16, 4, 1], [64, 16, 4]]


@pytest.mark.parametrize("kind", ["compacted", "relaxed"])
def test_level_recurrence_equals_dense_products(kind):
    # the dense products prune no height, so each nmax checks the pruning
    for size in range(1, 7):
        want = dense_level_counts(kind, 30, size)
        for n in range(31):
            assert word_counts(kind, n, size - 1) == want[:n + 1], (n, size)
    # no tree of at most 30 nodes has right height 30
    want = dense_level_counts(kind, 30, 31)
    for n in range(31):
        assert word_counts(kind, n) == want[:n + 1], n


@pytest.mark.parametrize("bound", [-1, -2, -3])
def test_word_counts_rejects_a_negative_bound(bound):
    with pytest.raises(ValueError) as filter_error:
        generate(5, "compacted", bound)
    for kind in ("compacted", "relaxed"):
        for n in (0, 5):
            with pytest.raises(ValueError) as word_error:
                word_counts(kind, n, bound)
            assert str(word_error.value) == str(filter_error.value)
            assert str(word_error.value) == "right-height bound must be >= 0"


def test_each_argument_has_one_message_at_every_entry():
    refused = {
        "kind must be 'relaxed' or 'compacted', got 'weird'": [
            lambda: build_table("weird", 3),
            lambda: word_counts("weird", 3),
            lambda: generate(3, "weird"),
            lambda: brute_count(3, "weird"),
            lambda: seed(2, "weird"),
            lambda: seed(0, "weird"),
            lambda: singularity_data(2, "weird"),
            lambda: closed_form_oracle(1, "weird", 3),
            lambda: build_operator("weird", 2),
        ],
        "n must be >= 0": [
            lambda: build_table("relaxed", -1),
            lambda: word_counts("compacted", -1),
            lambda: generate(-1, "relaxed"),
            lambda: brute_count(-1, "compacted"),
            lambda: count_relaxed_spine_product(-1),
            lambda: gen_spines(-1),
            lambda: spine_count(-1),
            lambda: closed_form_oracle(1, "relaxed", -1),
        ],
        "k must be >= 0": [
            lambda: seed(-1, "relaxed"),
            lambda: singularity_data(-1, "relaxed"),
            lambda: singularity_data(-1, "compacted"),
            lambda: closed_form_oracle(-1, "compacted", 3),
            lambda: build_operator("M", -1),
        ],
        f"k must be <= {MAX_K}, got {MAX_K + 1}": [
            lambda: seed(MAX_K + 1, "compacted"),
            lambda: singularity_data(MAX_K + 1, "relaxed"),
            lambda: closed_form_oracle(MAX_K + 1, "relaxed", 3),
            lambda: build_operator("L", MAX_K + 1),
        ],
    }
    for message, calls in refused.items():
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message
