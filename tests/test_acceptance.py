"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines; every expected constant here is frozen from an independent source
(exact tables, closed forms, or exhaustive generation).
"""

import math
import random
from fractions import Fraction
from itertools import islice

from compacta import operators
from compacta.asympt import (
    TABLE1_REFERENCE,
    fit_constant,
    singularity_data,
    table1,
)
from compacta.compaction import (
    first_duplicate,
    is_compacted,
    uid_compact,
    unfold,
)
from compacta.dfinite import closed_form_oracle, sequence_values
from compacta.exhaustive import brute_count, count_relaxed_spine_product, generate
from compacta.operators import DiffOperator
from compacta.poly import (
    IntPoly,
    binomial_alternating_poly as leading_coefficient_closed_form,
    iter_family,
)
from compacta.recurrences import build_table
from compacta.trees import dag_from_text, parse_tree, print_tree
from references import (
    chebyshev_u,
    compacted_operator,
    equal_up_to_scalar,
    postorder_nodes,
    quarter_square_transform,
    relaxed_operator,
    subleading_compacted_transform_reference,
)

COMPACTED_COUNTS = [1, 1, 3, 15, 111, 1119, 14487, 230943, 4395855, 97608831]
RELAXED_COUNTS = [1, 1, 3, 16, 127, 1363, 18628, 311250, 6173791, 142190703]


def is_cherry(dag, index):
    """True if both children of the spine node at ``index`` are pointers
    (or the leaf), i.e. neither child is a spine node."""
    node = postorder_nodes(dag.spine)[index - 1]
    return node.left is None and node.right is None


def report(number, text):
    print(f"criterion {number:>2} PASS: {text}")


def test_criterion_01_exact_sequences():
    assert build_table("compacted", 9).counts() == COMPACTED_COUNTS
    assert build_table("relaxed", 9).counts() == RELAXED_COUNTS
    assert [count_relaxed_spine_product(n) for n in range(10)] == RELAXED_COUNTS
    report(1, "counting sequences for n <= 9 via tables and spine product")


def test_criterion_02_brute_force_agreement():
    for n in range(7):
        assert brute_count(n, "relaxed") == RELAXED_COUNTS[n]
    for n in range(7):
        assert brute_count(n, "compacted") == COMPACTED_COUNTS[n]
    report(2, "exhaustive generation matches the tables for n <= 6")


def test_criterion_03_closed_forms():
    r0 = list(sequence_values(0, "relaxed", 30))
    r1 = list(sequence_values(1, "relaxed", 30))
    r2 = list(sequence_values(2, "relaxed", 30))
    for n in range(31):
        assert r0[n] == math.factorial(n)
        double = 1
        for t in range(1, 2 * n, 2):
            double *= t
        assert r1[n] == double
        assert r2[n] == closed_form_oracle(2, "relaxed", n)
    report(3, "closed forms for right height <= 0, 1, 2 hold to n = 30")


DISPLAYED = {
    ("relaxed", 1): DiffOperator(IntPoly(-1), IntPoly(1, -2)),
    ("relaxed", 2): DiffOperator(IntPoly(), IntPoly(-3, 2), IntPoly(1, -3, 1)),
    ("relaxed", 3): DiffOperator(
        IntPoly(), IntPoly(2), IntPoly(-6, 9), IntPoly(1, -4, 3)
    ),
    ("relaxed", 4): DiffOperator(
        IntPoly(), IntPoly(), IntPoly(11, -6), IntPoly(-10, 24, -6),
        IntPoly(1, -5, 6, -1),
    ),
    ("compacted", 1): DiffOperator(IntPoly(), IntPoly(-3, 1), IntPoly(1, -2)),
    ("compacted", 2): DiffOperator(
        IntPoly(), IntPoly(3, -2), IntPoly(-6, 6, -1), IntPoly(1, -3, 1)
    ),
    ("compacted", 3): DiffOperator(
        IntPoly(), IntPoly(-3, 1), IntPoly(14, -12, 1), IntPoly(-10, 18, -4),
        IntPoly(1, -4, 3),
    ),
}


def test_criterion_04_operator_reproduction():
    for (family, k), displayed in DISPLAYED.items():
        built = relaxed_operator(k) if family == "relaxed" else compacted_operator(k)
        assert equal_up_to_scalar(built, displayed), (family, k)
    report(4, "operators for relaxed k <= 4 and compacted k <= 3 match displays")


def test_criterion_05_polynomial_identities():
    # one bottom-up walk per family, members 1..40 and 1..20
    relaxed = islice(iter_family(operators._RELAXED, operators._relaxed_operator_step), 1, 41)
    compacted = islice(
        iter_family(operators._COMPACTED, operators._compacted_operator_step), 1, 21)
    for k, op in enumerate(relaxed, 1):
        top = op.coeff(k)
        assert top == leading_coefficient_closed_form(k)
        assert quarter_square_transform(top, k + 2) == chebyshev_u(k + 2)
        assert 2 * op.coeff(k - 1) == k * top.derivative()
        for i in range((k - 2) // 2 + 1):
            if k >= 2:
                assert op.coeff(i).is_zero()
        if k <= 20:
            comp = next(compacted)
            assert comp.coeff(k + 1) == top
            assert quarter_square_transform(
                comp.coeff(k), k + 2
            ) == subleading_compacted_transform_reference(k + 2)
    assert k == 40 and next(compacted, None) is None
    report(5, "coefficient identities hold (top family to k = 40, rest to k = 20)")


def test_criterion_06_table_reproduction():
    rows = {r.k: r for r in table1()}
    for k in range(1, 8):
        ref_growth, ref_alpha, ref_beta = TABLE1_REFERENCE[k]
        assert abs(rows[k].growth - ref_growth) < 5e-4
        assert abs(rows[k].alpha - ref_alpha) < 5e-4
        assert abs(rows[k].beta_float - ref_beta) < 5e-4
        assert rows[k].matches_reference
    report(6, "growth factors and both exponents for k = 1..7 to 3 decimals")


def test_criterion_07_delta1_cross_checks():
    for k in range(1, 41):
        d = singularity_data(k, "relaxed")  # exact identity enforced inside
        assert d.delta1 == Fraction(k, 2)
    for k in range(0, 21):
        singularity_data(k, "compacted")  # 1e-9 ratio agreement enforced inside
    report(7, "delta1: exact k/2 to k = 40; compacted closed form to 1e-9, k <= 20")


def test_criterion_08_known_constant():
    fit = fit_constant(singularity_data(1, "compacted"), 5000)
    target = 2 * math.exp(0.25) / math.gamma(0.25)
    assert abs(fit.estimate - target) / target < 0.01
    report(8, f"fitted constant {fit.estimate:.6f} within 1% of {target:.5f}")


def test_criterion_09_consistency_ladder():
    streams = {}
    for family in ("relaxed", "compacted"):
        for k in range(0, 5):
            values = list(sequence_values(k, family, 500))  # monic count form: integral at every n
            streams[(family, k)] = values
            for n in range(7):
                assert values[n] == brute_count(n, family, max_right_height=k), (
                    family, k, n,
                )
        unrestricted = build_table(family, 6).counts()
        for k in range(1, 5):
            assert streams[(family, k)][: k + 2] == unrestricted[: k + 2]
        for k in range(0, 4):
            lo, hi = streams[(family, k)], streams[(family, k + 1)]
            assert all(a <= b for a, b in zip(lo, hi))
    report(9, "streams = brute force (n <= 6), = unrestricted prefix, monotone in k, "
              "integral to n = 500")


def _random_tree(rng, size):
    if size == 0:
        return parse_tree(".")
    split = rng.randrange(size)
    left = _random_tree(rng, split)
    right = _random_tree(rng, size - 1 - split)
    return parse_tree(f"({print_tree(left)} {print_tree(right)})")


def test_criterion_10_structural_properties():
    failing = [d for d in generate(3, "relaxed") if not is_compacted(d)]
    assert len(failing) == 1
    dup = first_duplicate(failing[0])
    assert dup is not None and is_cherry(failing[0], dup)

    rng = random.Random(1870)
    for _ in range(1000):
        tree = _random_tree(rng, rng.randint(0, 12))
        dag_text, _ = uid_compact(tree)
        assert unfold(dag_from_text(dag_text)) == tree

    table = build_table("compacted", 200)
    for n in range(201):
        catalan = math.comb(2 * n, n) // (n + 1)
        assert math.factorial(n) <= table.count(n) <= catalan * math.factorial(n)
    report(10, "unique size-3 duplicate is a cherry; 1000 round-trips; "
               "factorial/Catalan bounds to n = 200")
